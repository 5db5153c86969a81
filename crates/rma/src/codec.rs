//! RMA wire format.
//!
//! Three operations cross the fabric: one-sided `READ` (the 2×R building
//! block), `SCAR` (Scan-and-Read, the custom Pony Express op of §6.3), and
//! their responses. Headers are small and fixed — the efficiency of RMA
//! relative to RPC comes precisely from not carrying the full-featured
//! envelope.

use bytes::{Buf, BufMut, Bytes, BytesMut, Pool};

/// Magic tag identifying RMA frames (RPC frames use a different magic).
pub const RMA_MAGIC: u16 = 0x4D52; // "RM"

const KIND_READ_REQ: u8 = 1;
const KIND_READ_RESP: u8 = 2;
const KIND_SCAR_REQ: u8 = 3;
const KIND_SCAR_RESP: u8 = 4;
const KIND_BATCH_READ_REQ: u8 = 5;
const KIND_BATCH_READ_RESP: u8 = 6;
const KIND_BATCH_SCAR_REQ: u8 = 7;
const KIND_BATCH_SCAR_RESP: u8 = 8;

/// Result status of an RMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RmaStatus {
    /// Data returned.
    Ok = 0,
    /// The addressed window has been revoked (e.g. index resize in
    /// progress). The client must re-resolve via RPC.
    WindowRevoked = 1,
    /// The read exceeded window bounds.
    OutOfBounds = 2,
    /// The window generation did not match (stale client metadata).
    BadGeneration = 3,
    /// SCAR scanned the bucket and found no matching entry (a miss; the
    /// bucket bytes are still returned so the client can validate).
    NoMatch = 4,
    /// The target does not expose RMA at all (e.g. WAN peer).
    Unsupported = 5,
}

impl RmaStatus {
    /// Decode from wire byte.
    pub fn from_u8(v: u8) -> RmaStatus {
        match v {
            0 => RmaStatus::Ok,
            1 => RmaStatus::WindowRevoked,
            2 => RmaStatus::OutOfBounds,
            3 => RmaStatus::BadGeneration,
            4 => RmaStatus::NoMatch,
            _ => RmaStatus::Unsupported,
        }
    }
}

/// One-sided read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReq {
    /// Client-chosen operation id.
    pub op_id: u64,
    /// Target window.
    pub window: u32,
    /// Expected window generation (guards against stale layout metadata).
    pub generation: u32,
    /// Byte offset within the window.
    pub offset: u64,
    /// Bytes to read.
    pub len: u32,
}

/// One-sided read response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResp {
    /// Echoed op id.
    pub op_id: u64,
    /// Result status.
    pub status: RmaStatus,
    /// The bytes read (empty on failure).
    pub data: Bytes,
}

/// Scan-and-Read request: fetch a bucket, scan it NIC-side for `key_hash`,
/// and follow the matching entry's pointer into the data region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScarReq {
    /// Client-chosen operation id.
    pub op_id: u64,
    /// Window holding the index region.
    pub index_window: u32,
    /// Expected generation of the index window.
    pub index_generation: u32,
    /// Bucket offset within the index window.
    pub bucket_offset: u64,
    /// Bucket length in bytes.
    pub bucket_len: u32,
    /// The KeyHash to scan for (full 128 bits).
    pub key_hash: u128,
}

/// Scan-and-Read response: the bucket bytes plus, on a hit, the data entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScarResp {
    /// Echoed op id.
    pub op_id: u64,
    /// Result status (`NoMatch` still carries the bucket).
    pub status: RmaStatus,
    /// Raw bucket bytes.
    pub bucket: Bytes,
    /// Raw data-entry bytes (empty unless status is `Ok`).
    pub data: Bytes,
}

/// One sub-read inside a doorbell-batched read frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReadEntry {
    /// Caller-chosen sub-operation tag, echoed in the response entry.
    pub sub: u64,
    /// Target window.
    pub window: u32,
    /// Expected window generation.
    pub generation: u32,
    /// Byte offset within the window.
    pub offset: u64,
    /// Bytes to read.
    pub len: u32,
}

/// Doorbell-batched read request: many one-sided reads against one host,
/// posted with a single doorbell and carried in a single frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReadReq {
    /// Client-chosen operation id (one per frame, not per sub-read).
    pub op_id: u64,
    /// The coalesced sub-reads.
    pub entries: Vec<BatchReadEntry>,
}

/// One sub-scan inside a doorbell-batched SCAR frame. The index window and
/// generation are frame-level (all sub-ops target the same host geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchScarEntry {
    /// Caller-chosen sub-operation tag, echoed in the response entry.
    pub sub: u64,
    /// Bucket offset within the index window.
    pub bucket_offset: u64,
    /// Bucket length in bytes.
    pub bucket_len: u32,
    /// The KeyHash to scan for.
    pub key_hash: u128,
}

/// Doorbell-batched SCAR request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchScarReq {
    /// Client-chosen operation id (one per frame).
    pub op_id: u64,
    /// Window holding the index region.
    pub index_window: u32,
    /// Expected generation of the index window.
    pub index_generation: u32,
    /// The coalesced sub-scans.
    pub entries: Vec<BatchScarEntry>,
}

/// One completed sub-op in a batched response. Reads leave `bucket` empty;
/// SCAR responses carry the bucket (and data on a hit) exactly like their
/// unbatched counterparts, so per-sub-op resolution is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDone {
    /// Echoed sub-operation tag.
    pub sub: u64,
    /// Per-sub-op result status.
    pub status: RmaStatus,
    /// Raw bucket bytes (SCAR only).
    pub bucket: Bytes,
    /// Raw data bytes (read payload, or SCAR hit data).
    pub data: Bytes,
}

/// Doorbell-batched read response: one status + payload per sub-read, all
/// in one frame admitted through one completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReadResp {
    /// Echoed op id.
    pub op_id: u64,
    /// Per-sub-op results, in request order.
    pub entries: Vec<BatchDone>,
}

/// Doorbell-batched SCAR response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchScarResp {
    /// Echoed op id.
    pub op_id: u64,
    /// Per-sub-op results, in request order.
    pub entries: Vec<BatchDone>,
}

/// Any RMA frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmaEnvelope {
    /// One-sided read request.
    ReadReq(ReadReq),
    /// One-sided read response.
    ReadResp(ReadResp),
    /// Scan-and-Read request.
    ScarReq(ScarReq),
    /// Scan-and-Read response.
    ScarResp(ScarResp),
    /// Doorbell-batched read request.
    BatchReadReq(BatchReadReq),
    /// Doorbell-batched read response.
    BatchReadResp(BatchReadResp),
    /// Doorbell-batched SCAR request.
    BatchScarReq(BatchScarReq),
    /// Doorbell-batched SCAR response.
    BatchScarResp(BatchScarResp),
}

/// Wire-header overhead of RMA frames, for fabric accounting.
pub const RMA_HEADER_BYTES: u64 = 32;

/// Encode a read request into a pooled buffer.
pub fn encode_read_req_in(r: &ReadReq, pool: &Pool) -> Bytes {
    let mut b = pool.get(31);
    b.put_u16_le(RMA_MAGIC);
    b.put_u8(KIND_READ_REQ);
    b.put_u64_le(r.op_id);
    b.put_u32_le(r.window);
    b.put_u32_le(r.generation);
    b.put_u64_le(r.offset);
    b.put_u32_le(r.len);
    b.freeze()
}

fn write_read_resp(b: &mut BytesMut, op_id: u64, status: RmaStatus, data: &[u8]) {
    b.put_u16_le(RMA_MAGIC);
    b.put_u8(KIND_READ_RESP);
    b.put_u64_le(op_id);
    b.put_u8(status as u8);
    b.put_u32_le(data.len() as u32);
    b.extend_from_slice(data);
}

/// Encode a read response from an owned [`ReadResp`] (unpooled). Kept for
/// the benchmark's pinned API; the serving path is [`encode_read_resp_parts`].
pub fn encode_read_resp(r: &ReadResp) -> Bytes {
    let mut b = BytesMut::with_capacity(16 + r.data.len());
    write_read_resp(&mut b, r.op_id, r.status, &r.data);
    b.freeze()
}

/// Encode a read response directly from a borrowed data slice into a pooled
/// buffer — the server's single-copy path (backend memory → wire frame).
pub fn encode_read_resp_parts(op_id: u64, status: RmaStatus, data: &[u8], pool: &Pool) -> Bytes {
    let mut b = pool.get(16 + data.len());
    write_read_resp(&mut b, op_id, status, data);
    b.freeze()
}

/// Encode a SCAR request into a pooled buffer.
pub fn encode_scar_req_in(r: &ScarReq, pool: &Pool) -> Bytes {
    let mut b = pool.get(47);
    b.put_u16_le(RMA_MAGIC);
    b.put_u8(KIND_SCAR_REQ);
    b.put_u64_le(r.op_id);
    b.put_u32_le(r.index_window);
    b.put_u32_le(r.index_generation);
    b.put_u64_le(r.bucket_offset);
    b.put_u32_le(r.bucket_len);
    b.put_u128_le(r.key_hash);
    b.freeze()
}

fn write_scar_resp(b: &mut BytesMut, op_id: u64, status: RmaStatus, bucket: &[u8], data: &[u8]) {
    b.put_u16_le(RMA_MAGIC);
    b.put_u8(KIND_SCAR_RESP);
    b.put_u64_le(op_id);
    b.put_u8(status as u8);
    b.put_u32_le(bucket.len() as u32);
    b.put_u32_le(data.len() as u32);
    b.extend_from_slice(bucket);
    b.extend_from_slice(data);
}

/// Encode a SCAR response from an owned [`ScarResp`] (unpooled). Kept for
/// the benchmark's pinned API; the serving path is [`encode_scar_resp_parts`].
pub fn encode_scar_resp(r: &ScarResp) -> Bytes {
    let mut b = BytesMut::with_capacity(20 + r.bucket.len() + r.data.len());
    write_scar_resp(&mut b, r.op_id, r.status, &r.bucket, &r.data);
    b.freeze()
}

/// Encode a SCAR response directly from borrowed bucket/data slices into a
/// pooled buffer — the server's single-copy path.
pub fn encode_scar_resp_parts(
    op_id: u64,
    status: RmaStatus,
    bucket: &[u8],
    data: &[u8],
    pool: &Pool,
) -> Bytes {
    let mut b = pool.get(20 + bucket.len() + data.len());
    write_scar_resp(&mut b, op_id, status, bucket, data);
    b.freeze()
}

/// Encode a batched read request into a pooled buffer.
pub fn encode_batch_read_req_in(r: &BatchReadReq, pool: &Pool) -> Bytes {
    let mut b = pool.get(15 + 28 * r.entries.len());
    b.put_u16_le(RMA_MAGIC);
    b.put_u8(KIND_BATCH_READ_REQ);
    b.put_u64_le(r.op_id);
    b.put_u32_le(r.entries.len() as u32);
    for e in &r.entries {
        b.put_u64_le(e.sub);
        b.put_u32_le(e.window);
        b.put_u32_le(e.generation);
        b.put_u64_le(e.offset);
        b.put_u32_le(e.len);
    }
    b.freeze()
}

/// Encode a batched SCAR request into a pooled buffer.
pub fn encode_batch_scar_req_in(r: &BatchScarReq, pool: &Pool) -> Bytes {
    let mut b = pool.get(23 + 36 * r.entries.len());
    b.put_u16_le(RMA_MAGIC);
    b.put_u8(KIND_BATCH_SCAR_REQ);
    b.put_u64_le(r.op_id);
    b.put_u32_le(r.index_window);
    b.put_u32_le(r.index_generation);
    b.put_u32_le(r.entries.len() as u32);
    for e in &r.entries {
        b.put_u64_le(e.sub);
        b.put_u64_le(e.bucket_offset);
        b.put_u32_le(e.bucket_len);
        b.put_u128_le(e.key_hash);
    }
    b.freeze()
}

/// The one encoder for batched responses, incremental: the server appends
/// each sub-op's status + payload straight from region memory into one
/// pooled frame (single copy, no intermediate `BatchDone` allocation).
pub struct BatchRespWriter {
    b: BytesMut,
}

impl BatchRespWriter {
    fn new(kind: u8, op_id: u64, count: usize, payload_hint: usize, pool: &Pool) -> Self {
        let mut b = pool.get(15 + 17 * count + payload_hint);
        b.put_u16_le(RMA_MAGIC);
        b.put_u8(kind);
        b.put_u64_le(op_id);
        b.put_u32_le(count as u32);
        BatchRespWriter { b }
    }

    /// Start a batched read response with exactly `count` entries.
    pub fn read_resp(op_id: u64, count: usize, payload_hint: usize, pool: &Pool) -> Self {
        Self::new(KIND_BATCH_READ_RESP, op_id, count, payload_hint, pool)
    }

    /// Start a batched SCAR response with exactly `count` entries.
    pub fn scar_resp(op_id: u64, count: usize, payload_hint: usize, pool: &Pool) -> Self {
        Self::new(KIND_BATCH_SCAR_RESP, op_id, count, payload_hint, pool)
    }

    /// Append one sub-op result.
    pub fn push(&mut self, sub: u64, status: RmaStatus, bucket: &[u8], data: &[u8]) {
        self.b.put_u64_le(sub);
        self.b.put_u8(status as u8);
        self.b.put_u32_le(bucket.len() as u32);
        self.b.put_u32_le(data.len() as u32);
        self.b.extend_from_slice(bucket);
        self.b.extend_from_slice(data);
    }

    /// Finish the frame.
    pub fn finish(self) -> Bytes {
        self.b.freeze()
    }
}

fn decode_batch_done(buf: &mut Bytes) -> Option<(u64, Vec<BatchDone>)> {
    if buf.len() < 12 {
        return None;
    }
    let op_id = buf.get_u64_le();
    let n = buf.get_u32_le() as usize;
    // Each entry needs at least its 17-byte fixed header; reject counts the
    // frame cannot possibly hold before trusting them for allocation.
    if buf.len() < n.saturating_mul(17) {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.len() < 17 {
            return None;
        }
        let sub = buf.get_u64_le();
        let status = RmaStatus::from_u8(buf.get_u8());
        let blen = buf.get_u32_le() as usize;
        let dlen = buf.get_u32_le() as usize;
        if buf.len() < blen.checked_add(dlen)? {
            return None;
        }
        let bucket = buf.split_to(blen);
        let data = buf.split_to(dlen);
        entries.push(BatchDone {
            sub,
            status,
            bucket,
            data,
        });
    }
    Some((op_id, entries))
}

/// Decode an RMA frame; `None` for non-RMA payloads.
pub fn decode(mut buf: Bytes) -> Option<RmaEnvelope> {
    if buf.len() < 3 {
        return None;
    }
    if buf.get_u16_le() != RMA_MAGIC {
        return None;
    }
    match buf.get_u8() {
        KIND_READ_REQ => {
            if buf.len() < 28 {
                return None;
            }
            Some(RmaEnvelope::ReadReq(ReadReq {
                op_id: buf.get_u64_le(),
                window: buf.get_u32_le(),
                generation: buf.get_u32_le(),
                offset: buf.get_u64_le(),
                len: buf.get_u32_le(),
            }))
        }
        KIND_READ_RESP => {
            if buf.len() < 13 {
                return None;
            }
            let op_id = buf.get_u64_le();
            let status = RmaStatus::from_u8(buf.get_u8());
            let len = buf.get_u32_le() as usize;
            if buf.len() < len {
                return None;
            }
            Some(RmaEnvelope::ReadResp(ReadResp {
                op_id,
                status,
                data: buf.split_to(len),
            }))
        }
        KIND_SCAR_REQ => {
            if buf.len() < 44 {
                return None;
            }
            Some(RmaEnvelope::ScarReq(ScarReq {
                op_id: buf.get_u64_le(),
                index_window: buf.get_u32_le(),
                index_generation: buf.get_u32_le(),
                bucket_offset: buf.get_u64_le(),
                bucket_len: buf.get_u32_le(),
                key_hash: buf.get_u128_le(),
            }))
        }
        KIND_SCAR_RESP => {
            if buf.len() < 17 {
                return None;
            }
            let op_id = buf.get_u64_le();
            let status = RmaStatus::from_u8(buf.get_u8());
            let blen = buf.get_u32_le() as usize;
            let dlen = buf.get_u32_le() as usize;
            if buf.len() < blen + dlen {
                return None;
            }
            let bucket = buf.split_to(blen);
            let data = buf.split_to(dlen);
            Some(RmaEnvelope::ScarResp(ScarResp {
                op_id,
                status,
                bucket,
                data,
            }))
        }
        KIND_BATCH_READ_REQ => {
            if buf.len() < 12 {
                return None;
            }
            let op_id = buf.get_u64_le();
            let n = buf.get_u32_le() as usize;
            if buf.len() < n.saturating_mul(28) {
                return None;
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(BatchReadEntry {
                    sub: buf.get_u64_le(),
                    window: buf.get_u32_le(),
                    generation: buf.get_u32_le(),
                    offset: buf.get_u64_le(),
                    len: buf.get_u32_le(),
                });
            }
            Some(RmaEnvelope::BatchReadReq(BatchReadReq { op_id, entries }))
        }
        KIND_BATCH_SCAR_REQ => {
            if buf.len() < 20 {
                return None;
            }
            let op_id = buf.get_u64_le();
            let index_window = buf.get_u32_le();
            let index_generation = buf.get_u32_le();
            let n = buf.get_u32_le() as usize;
            if buf.len() < n.saturating_mul(36) {
                return None;
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(BatchScarEntry {
                    sub: buf.get_u64_le(),
                    bucket_offset: buf.get_u64_le(),
                    bucket_len: buf.get_u32_le(),
                    key_hash: buf.get_u128_le(),
                });
            }
            Some(RmaEnvelope::BatchScarReq(BatchScarReq {
                op_id,
                index_window,
                index_generation,
                entries,
            }))
        }
        KIND_BATCH_READ_RESP => {
            let (op_id, entries) = decode_batch_done(&mut buf)?;
            Some(RmaEnvelope::BatchReadResp(BatchReadResp { op_id, entries }))
        }
        KIND_BATCH_SCAR_RESP => {
            let (op_id, entries) = decode_batch_done(&mut buf)?;
            Some(RmaEnvelope::BatchScarResp(BatchScarResp { op_id, entries }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batched response built the way the server builds it.
    fn batch_resp(w: BatchRespWriter, entries: &[BatchDone]) -> Bytes {
        let mut w = w;
        for e in entries {
            w.push(e.sub, e.status, &e.bucket, &e.data);
        }
        w.finish()
    }

    #[test]
    fn read_req_roundtrip() {
        let r = ReadReq {
            op_id: 1,
            window: 2,
            generation: 3,
            offset: 4096,
            len: 1024,
        };
        assert_eq!(
            decode(encode_read_req_in(&r, &Pool::new())),
            Some(RmaEnvelope::ReadReq(r))
        );
    }

    #[test]
    fn read_resp_roundtrip() {
        let r = ReadResp {
            op_id: 9,
            status: RmaStatus::Ok,
            data: Bytes::from_static(b"payload"),
        };
        assert_eq!(decode(encode_read_resp(&r)), Some(RmaEnvelope::ReadResp(r)));
    }

    #[test]
    fn scar_roundtrips() {
        let req = ScarReq {
            op_id: 5,
            index_window: 1,
            index_generation: 7,
            bucket_offset: 64,
            bucket_len: 448,
            key_hash: 0xFEED_FACE_CAFE_BEEF_0123_4567_89AB_CDEF,
        };
        assert_eq!(
            decode(encode_scar_req_in(&req, &Pool::new())),
            Some(RmaEnvelope::ScarReq(req))
        );
        let resp = ScarResp {
            op_id: 5,
            status: RmaStatus::NoMatch,
            bucket: Bytes::from_static(&[1; 448]),
            data: Bytes::new(),
        };
        assert_eq!(
            decode(encode_scar_resp(&resp)),
            Some(RmaEnvelope::ScarResp(resp))
        );
    }

    #[test]
    fn failure_statuses_roundtrip() {
        for v in 0..=5u8 {
            assert_eq!(RmaStatus::from_u8(v) as u8, v);
        }
        assert_eq!(RmaStatus::from_u8(99), RmaStatus::Unsupported);
    }

    #[test]
    fn batch_read_roundtrips() {
        let req = BatchReadReq {
            op_id: 42,
            entries: vec![
                BatchReadEntry {
                    sub: 1,
                    window: 2,
                    generation: 3,
                    offset: 64,
                    len: 448,
                },
                BatchReadEntry {
                    sub: 9,
                    window: 2,
                    generation: 3,
                    offset: 4096,
                    len: 128,
                },
            ],
        };
        assert_eq!(
            decode(encode_batch_read_req_in(&req, &Pool::new())),
            Some(RmaEnvelope::BatchReadReq(req))
        );
        let resp = BatchReadResp {
            op_id: 42,
            entries: vec![
                BatchDone {
                    sub: 1,
                    status: RmaStatus::Ok,
                    bucket: Bytes::new(),
                    data: Bytes::from_static(b"payload"),
                },
                BatchDone {
                    sub: 9,
                    status: RmaStatus::BadGeneration,
                    bucket: Bytes::new(),
                    data: Bytes::new(),
                },
            ],
        };
        assert_eq!(
            decode(batch_resp(
                BatchRespWriter::read_resp(42, 2, 7, &Pool::new()),
                &resp.entries
            )),
            Some(RmaEnvelope::BatchReadResp(resp))
        );
    }

    #[test]
    fn batch_scar_roundtrips() {
        let req = BatchScarReq {
            op_id: 7,
            index_window: 1,
            index_generation: 5,
            entries: vec![
                BatchScarEntry {
                    sub: 11,
                    bucket_offset: 0,
                    bucket_len: 448,
                    key_hash: 0xDEAD,
                },
                BatchScarEntry {
                    sub: 15,
                    bucket_offset: 896,
                    bucket_len: 448,
                    key_hash: u128::MAX,
                },
            ],
        };
        assert_eq!(
            decode(encode_batch_scar_req_in(&req, &Pool::new())),
            Some(RmaEnvelope::BatchScarReq(req))
        );
        let resp = BatchScarResp {
            op_id: 7,
            entries: vec![
                BatchDone {
                    sub: 11,
                    status: RmaStatus::Ok,
                    bucket: Bytes::from_static(&[2; 448]),
                    data: Bytes::from_static(b"hit"),
                },
                BatchDone {
                    sub: 15,
                    status: RmaStatus::NoMatch,
                    bucket: Bytes::from_static(&[3; 448]),
                    data: Bytes::new(),
                },
            ],
        };
        assert_eq!(
            decode(batch_resp(
                BatchRespWriter::scar_resp(7, 2, 899, &Pool::new()),
                &resp.entries
            )),
            Some(RmaEnvelope::BatchScarResp(resp))
        );
    }

    #[test]
    fn batch_adversarial_counts_rejected_cheaply() {
        // A batch frame claiming 2^31 entries in a few bytes must fail fast
        // without allocating.
        let mut b = BytesMut::new();
        b.put_u16_le(RMA_MAGIC);
        b.put_u8(5); // KIND_BATCH_READ_REQ
        b.put_u64_le(1);
        b.put_u32_le(u32::MAX);
        b.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode(b.freeze()), None);
        // Truncated batch response fails cleanly.
        let entry = BatchDone {
            sub: 1,
            status: RmaStatus::Ok,
            bucket: Bytes::new(),
            data: Bytes::from_static(b"abcdef"),
        };
        let wire = batch_resp(BatchRespWriter::read_resp(1, 1, 6, &Pool::new()), &[entry]);
        assert_eq!(decode(wire.slice(0..wire.len() - 2)), None);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(decode(Bytes::new()), None);
        assert_eq!(decode(Bytes::from_static(b"RM")), None);
        let ok = encode_read_resp(&ReadResp {
            op_id: 1,
            status: RmaStatus::Ok,
            data: Bytes::from_static(b"abcdef"),
        });
        assert_eq!(decode(ok.slice(0..ok.len() - 2)), None);
        // RPC frames must not decode as RMA.
        let rpc_like = Bytes::from_static(b"\x50\x52\x01junk");
        assert_eq!(decode(rpc_like), None);
    }
}
