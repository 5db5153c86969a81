//! RMA wire format, written in [`simnet::wire`]'s field codec.
//!
//! Three operations cross the fabric: one-sided `READ` (the 2×R building
//! block), `SCAR` (Scan-and-Read, the custom Pony Express op of §6.3), and
//! their responses, each also doorbell-batched. Headers are small and
//! fixed — the efficiency of RMA relative to RPC comes precisely from not
//! carrying the full-featured envelope. A frame is the magic, a kind byte
//! and one message: a [`wire_struct!`](simnet::wire_struct), or for the
//! SCAR response and each batched answer, an [`Answer`]. The serving path
//! writes region memory straight into one pooled frame (`*_parts`,
//! [`BatchRespWriter`]).
//!
//! ```text
//! frame:  magic u16 | kind u8 | message...
//! answer: id u64 | status u8 | bucket_len u32 | data_len u32 | bucket | data
//! ```

use bytes::{Bytes, BytesMut, Pool};
use simnet::wire::{encode, encode_in, get_seq, Answer, Put, Wire};
use simnet::{wire_enum, wire_struct};

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

wire_enum! {
    /// Result status of an RMA operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    else Unsupported
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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
}

/// Scan-and-Read response: the bucket bytes plus, on a hit, the data entry.
/// On the wire, an [`Answer`] with the bucket as its head.
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

wire_struct! {
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
}

wire_struct! {
    /// Doorbell-batched read request: many one-sided reads against one host,
    /// posted with a single doorbell and carried in a single frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BatchReadReq {
        /// Client-chosen operation id (one per frame, not per sub-read).
        pub op_id: u64,
        /// The coalesced sub-reads.
        pub entries: Vec<BatchReadEntry>,
    }
}

wire_struct! {
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
}

wire_struct! {
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
}

/// One completed sub-op in a batched response. Reads leave `bucket` empty;
/// SCAR responses carry the bucket (and data on a hit) exactly like their
/// unbatched counterparts, so per-sub-op resolution is unchanged. On the
/// wire, an [`Answer`] with the bucket as its head.
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

/// Doorbell-batched response, read or SCAR (the frame kind tells them
/// apart): one status + payload per sub-op, all in one frame admitted
/// through one completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResp {
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
    BatchReadResp(BatchResp),
    /// Doorbell-batched SCAR request.
    BatchScarReq(BatchScarReq),
    /// Doorbell-batched SCAR response.
    BatchScarResp(BatchResp),
}

/// A frame of `kind` carrying `msg`, in a pooled buffer of its exact length.
fn frame_in(kind: u8, msg: &impl Put, pool: &Pool) -> Bytes {
    encode_in(&(RMA_MAGIC, kind, msg), pool)
}

/// Encode a read request into a pooled buffer.
pub fn encode_read_req_in(r: &ReadReq, pool: &Pool) -> Bytes {
    frame_in(KIND_READ_REQ, r, pool)
}

/// Encode a read response from an owned [`ReadResp`] (unpooled). Kept for
/// the benchmark's pinned API; the serving path is [`encode_read_resp_parts`].
pub fn encode_read_resp(r: &ReadResp) -> Bytes {
    encode(&(RMA_MAGIC, KIND_READ_RESP, r))
}

/// Encode a read response directly from a borrowed data slice into a pooled
/// buffer — the server's single-copy path (backend memory → wire frame).
pub fn encode_read_resp_parts(op_id: u64, status: RmaStatus, data: &[u8], pool: &Pool) -> Bytes {
    frame_in(KIND_READ_RESP, &(op_id, status, data), pool)
}

/// Encode a SCAR request into a pooled buffer.
pub fn encode_scar_req_in(r: &ScarReq, pool: &Pool) -> Bytes {
    frame_in(KIND_SCAR_REQ, r, pool)
}

/// Encode a SCAR response from an owned [`ScarResp`] (unpooled). Kept for
/// the benchmark's pinned API; the serving path is [`encode_scar_resp_parts`].
pub fn encode_scar_resp(r: &ScarResp) -> Bytes {
    let answer = Answer {
        id: r.op_id,
        status: r.status,
        head: &r.bucket,
        body: &r.data,
    };
    encode(&(RMA_MAGIC, KIND_SCAR_RESP, answer))
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
    let answer = Answer {
        id: op_id,
        status,
        head: bucket,
        body: data,
    };
    frame_in(KIND_SCAR_RESP, &answer, pool)
}

/// Encode a batched read request into a pooled buffer.
pub fn encode_batch_read_req_in(r: &BatchReadReq, pool: &Pool) -> Bytes {
    frame_in(KIND_BATCH_READ_REQ, r, pool)
}

/// Encode a batched SCAR request into a pooled buffer.
pub fn encode_batch_scar_req_in(r: &BatchScarReq, pool: &Pool) -> Bytes {
    frame_in(KIND_BATCH_SCAR_REQ, r, pool)
}

/// The one encoder for batched responses, incremental: the server appends
/// each sub-op's status + payload straight from region memory into one
/// pooled frame (single copy, no intermediate `BatchDone` allocation).
pub struct BatchRespWriter {
    b: BytesMut,
}

impl BatchRespWriter {
    fn new(kind: u8, op_id: u64, count: usize, payload_hint: usize, pool: &Pool) -> Self {
        let head = (RMA_MAGIC, kind, op_id, count as u32);
        let answers = count * Answer::<RmaStatus>::MIN_LEN;
        let mut b = pool.get(head.wire_len() + answers + payload_hint);
        head.put(&mut b);
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
        let answer = Answer {
            id: sub,
            status,
            head: bucket,
            body: data,
        };
        answer.put(&mut self.b);
    }

    /// Finish the frame.
    pub fn finish(self) -> Bytes {
        self.b.freeze()
    }
}

/// A batched response: the op id, then a counted run of [`Answer`]s.
fn get_batch_resp(b: &mut Bytes) -> Option<BatchResp> {
    Some(BatchResp {
        op_id: u64::get(b)?,
        entries: get_seq(b, |a: Answer<RmaStatus>| BatchDone {
            sub: a.id,
            status: a.status,
            bucket: a.head,
            data: a.body,
        })?,
    })
}

/// Decode an RMA frame; `None` for non-RMA payloads. Bytes after the
/// message are ignored.
pub fn decode(mut buf: Bytes) -> Option<RmaEnvelope> {
    let b = &mut buf;
    Some(match <(u16, u8)>::get(b)? {
        (RMA_MAGIC, KIND_READ_REQ) => RmaEnvelope::ReadReq(Wire::get(b)?),
        (RMA_MAGIC, KIND_READ_RESP) => RmaEnvelope::ReadResp(Wire::get(b)?),
        (RMA_MAGIC, KIND_SCAR_REQ) => RmaEnvelope::ScarReq(Wire::get(b)?),
        (RMA_MAGIC, KIND_SCAR_RESP) => {
            let a = Answer::<RmaStatus>::get(b)?;
            RmaEnvelope::ScarResp(ScarResp {
                op_id: a.id,
                status: a.status,
                bucket: a.head,
                data: a.body,
            })
        }
        (RMA_MAGIC, KIND_BATCH_READ_REQ) => RmaEnvelope::BatchReadReq(Wire::get(b)?),
        (RMA_MAGIC, KIND_BATCH_READ_RESP) => RmaEnvelope::BatchReadResp(get_batch_resp(b)?),
        (RMA_MAGIC, KIND_BATCH_SCAR_REQ) => RmaEnvelope::BatchScarReq(Wire::get(b)?),
        (RMA_MAGIC, KIND_BATCH_SCAR_RESP) => RmaEnvelope::BatchScarResp(get_batch_resp(b)?),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

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
        let resp = BatchResp {
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
        let resp = BatchResp {
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

    /// A fixed sample of every RMA encoder's frame, byte for byte as the
    /// hand-written encoders that preceded the field codec wrote them.
    #[test]
    fn every_rma_frame_keeps_its_wire_bytes() {
        let pool = Pool::new();
        let b = Bytes::from_static;
        let read_req = ReadReq {
            op_id: 0x1122,
            window: 2,
            generation: 3,
            offset: 4096,
            len: 448,
        };
        let scar_req = ScarReq {
            op_id: 0x3344,
            index_window: 1,
            index_generation: 7,
            bucket_offset: 896,
            bucket_len: 448,
            key_hash: 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10,
        };
        let batch_read_req = BatchReadReq {
            op_id: 42,
            entries: vec![
                BatchReadEntry {
                    sub: 1,
                    window: 2,
                    generation: 3,
                    offset: 64,
                    len: 16,
                },
                BatchReadEntry {
                    sub: 9,
                    window: 2,
                    generation: 4,
                    offset: 4096,
                    len: 8,
                },
            ],
        };
        let batch_scar_req = BatchScarReq {
            op_id: 7,
            index_window: 1,
            index_generation: 5,
            entries: vec![
                BatchScarEntry {
                    sub: 11,
                    bucket_offset: 0,
                    bucket_len: 64,
                    key_hash: 0xdead,
                },
                BatchScarEntry {
                    sub: 15,
                    bucket_offset: 128,
                    bucket_len: 64,
                    key_hash: u128::MAX,
                },
            ],
        };
        let batch = |start: fn(u64, usize, usize, &Pool) -> BatchRespWriter, n: usize| {
            let mut w = start(0x55, n, 9, &pool);
            if n == 2 {
                w.push(1, RmaStatus::Ok, b"", b"abc");
                w.push(2, RmaStatus::NoMatch, b"bkt", b"");
            }
            w.finish()
        };
        let frames: [(&str, Bytes, &str); 12] = [
            (
                "ReadReq",
                encode_read_req_in(&read_req, &pool),
                "524d01221100000000000002000000030000000010000000000000c0010000",
            ),
            (
                "ScarReq",
                encode_scar_req_in(&scar_req, &pool),
                "524d03443300000000000001000000070000008003000000000000c0010000\
                 100f0e0d0c0b0a090807060504030201",
            ),
            (
                "BatchReadReq",
                encode_batch_read_req_in(&batch_read_req, &pool),
                "524d052a00000000000000020000000100000000000000020000000300000040\
                 0000000000000010000000090000000000000002000000040000000010000000\
                 00000008000000",
            ),
            (
                "BatchScarReq",
                encode_batch_scar_req_in(&batch_scar_req, &pool),
                "524d0707000000000000000100000005000000020000000b0000000000000000\
                 0000000000000040000000adde00000000000000000000000000000f00000000\
                 000000800000000000000040000000ffffffffffffffffffffffffffffffff",
            ),
            (
                "ReadResp",
                encode_read_resp(&ReadResp {
                    op_id: 9,
                    status: RmaStatus::Ok,
                    data: b(b"payload"),
                }),
                "524d02090000000000000000070000007061796c6f6164",
            ),
            (
                "ReadResp parts",
                encode_read_resp_parts(10, RmaStatus::OutOfBounds, b"", &pool),
                "524d020a000000000000000200000000",
            ),
            (
                "ScarResp",
                encode_scar_resp(&ScarResp {
                    op_id: 5,
                    status: RmaStatus::Ok,
                    bucket: b(b"bucket"),
                    data: b(b"data"),
                }),
                "524d0405000000000000000006000000040000006275636b657464617461",
            ),
            (
                "ScarResp parts",
                encode_scar_resp_parts(6, RmaStatus::NoMatch, b"bk", b"", &pool),
                "524d040600000000000000040200000000000000626b",
            ),
            (
                "BatchRespWriter::read_resp, 0 entries",
                batch(BatchRespWriter::read_resp, 0),
                "524d06550000000000000000000000",
            ),
            (
                "BatchRespWriter::read_resp, 2 entries",
                batch(BatchRespWriter::read_resp, 2),
                "524d065500000000000000020000000100000000000000000000000003000000\
                 6162630200000000000000040300000000000000626b74",
            ),
            (
                "BatchRespWriter::scar_resp, 0 entries",
                batch(BatchRespWriter::scar_resp, 0),
                "524d08550000000000000000000000",
            ),
            (
                "BatchRespWriter::scar_resp, 2 entries",
                batch(BatchRespWriter::scar_resp, 2),
                "524d085500000000000000020000000100000000000000000000000003000000\
                 6162630200000000000000040300000000000000626b74",
            ),
        ];
        for (name, frame, golden) in frames {
            let hex: String = frame.iter().map(|x| format!("{x:02x}")).collect();
            assert_eq!(hex, golden, "{name}");
        }
    }
}
