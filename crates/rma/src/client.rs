//! Client-side RMA op tracking: issue one-sided ops, match completions.
//!
//! The analogue of `rpc::CallTable` for the RMA path: assign op ids, encode
//! requests, remember in-flight metadata, and match responses. Timeouts use
//! the same per-op timer token convention.

use bytes::{Bytes, Pool};

use simnet::{IdMap, NodeId, SimTime};

use crate::codec::{
    encode_batch_read_req_in, encode_batch_scar_req_in, encode_read_req_in, encode_scar_req_in,
    BatchDone, BatchReadEntry, BatchReadReq, BatchReadResp, BatchScarEntry, BatchScarReq,
    BatchScarResp, ReadReq, RmaEnvelope, ScarReq,
};
use crate::region::WindowId;

/// Token namespace base for RMA op deadline timers.
pub const RMA_TIMER_BASE: u64 = 1 << 57;

/// Metadata for one in-flight RMA op.
#[derive(Debug, Clone)]
pub struct OutstandingOp {
    /// Target node.
    pub dst: NodeId,
    /// Issue time.
    pub issued_at: SimTime,
    /// Caller context (which logical GET this belongs to, which replica...).
    pub user_tag: u64,
}

/// A finished RMA op handed back to the caller. Its payload is a list of
/// per-sub-op results whatever the frame shape: a single op is one result
/// under its own `user_tag`, a batch one result per member.
#[derive(Debug, Clone)]
pub struct OpCompletion {
    /// The op id.
    pub op_id: u64,
    /// Original op metadata.
    pub op: OutstandingOp,
    /// Round-trip time in nanoseconds.
    pub rtt_ns: u64,
    /// A single op's result (no `Vec` on that path).
    single: Option<BatchDone>,
    /// A batch frame's results, in request order.
    batch: Vec<BatchDone>,
}

impl OpCompletion {
    /// The `(sub, status, bucket, data)` results this frame carried.
    pub fn results(&self) -> impl Iterator<Item = &BatchDone> {
        self.single.iter().chain(&self.batch)
    }

    /// [`Self::results`], by value.
    pub fn into_results(self) -> impl Iterator<Item = BatchDone> {
        self.single.into_iter().chain(self.batch)
    }
}

/// Tracks in-flight RMA ops for one client node.
#[derive(Debug, Default)]
pub struct RmaOpTable {
    next_id: u64,
    outstanding: IdMap<u64, OutstandingOp>,
    /// Frame-buffer pool requests are encoded into. Starts as a private
    /// pool; nodes swap in their host's shared pool at `Event::Start` via
    /// [`RmaOpTable::set_pool`].
    pool: Pool,
}

impl RmaOpTable {
    /// Empty table.
    pub fn new() -> RmaOpTable {
        RmaOpTable {
            next_id: 1,
            outstanding: IdMap::default(),
            pool: Pool::new(),
        }
    }

    /// Use `pool` for request encoding (typically the owning node's
    /// per-host pool, so buffers recycle host-wide).
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// Begin a one-sided read; returns (op id, encoded request).
    #[allow(clippy::too_many_arguments)]
    pub fn begin_read(
        &mut self,
        dst: NodeId,
        window: WindowId,
        generation: u32,
        offset: u64,
        len: u32,
        now: SimTime,
        user_tag: u64,
    ) -> (u64, Bytes) {
        let op_id = self.alloc(dst, now, user_tag);
        let wire = encode_read_req_in(
            &ReadReq {
                op_id,
                window: window.0,
                generation,
                offset,
                len,
            },
            &self.pool,
        );
        (op_id, wire)
    }

    /// Begin a SCAR; returns (op id, encoded request).
    #[allow(clippy::too_many_arguments)]
    pub fn begin_scar(
        &mut self,
        dst: NodeId,
        index_window: WindowId,
        index_generation: u32,
        bucket_offset: u64,
        bucket_len: u32,
        key_hash: u128,
        now: SimTime,
        user_tag: u64,
    ) -> (u64, Bytes) {
        let op_id = self.alloc(dst, now, user_tag);
        let wire = encode_scar_req_in(
            &ScarReq {
                op_id,
                index_window: index_window.0,
                index_generation,
                bucket_offset,
                bucket_len,
                key_hash,
            },
            &self.pool,
        );
        (op_id, wire)
    }

    /// Begin a doorbell-batched read: every sub-read in `entries` travels in
    /// one frame under one op id. Returns (op id, encoded request).
    pub fn begin_batch_read(
        &mut self,
        dst: NodeId,
        entries: Vec<BatchReadEntry>,
        now: SimTime,
        user_tag: u64,
    ) -> (u64, Bytes) {
        let op_id = self.alloc(dst, now, user_tag);
        let wire = encode_batch_read_req_in(&BatchReadReq { op_id, entries }, &self.pool);
        (op_id, wire)
    }

    /// Begin a doorbell-batched SCAR against one host geometry; returns
    /// (op id, encoded request).
    pub fn begin_batch_scar(
        &mut self,
        dst: NodeId,
        index_window: WindowId,
        index_generation: u32,
        entries: Vec<BatchScarEntry>,
        now: SimTime,
        user_tag: u64,
    ) -> (u64, Bytes) {
        let op_id = self.alloc(dst, now, user_tag);
        let wire = encode_batch_scar_req_in(
            &BatchScarReq {
                op_id,
                index_window: index_window.0,
                index_generation,
                entries,
            },
            &self.pool,
        );
        (op_id, wire)
    }

    fn alloc(&mut self, dst: NodeId, now: SimTime, user_tag: u64) -> u64 {
        let op_id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(
            op_id,
            OutstandingOp {
                dst,
                issued_at: now,
                user_tag,
            },
        );
        op_id
    }

    /// Route a decoded response envelope; `None` for requests or for late
    /// responses to ops already abandoned.
    pub fn complete(&mut self, env: RmaEnvelope, now: SimTime) -> Option<OpCompletion> {
        let (op_id, single, batch) = match env {
            RmaEnvelope::ReadResp(r) => (r.op_id, Some((r.status, Bytes::new(), r.data)), vec![]),
            RmaEnvelope::ScarResp(r) => (r.op_id, Some((r.status, r.bucket, r.data)), vec![]),
            RmaEnvelope::BatchReadResp(BatchReadResp { op_id, entries })
            | RmaEnvelope::BatchScarResp(BatchScarResp { op_id, entries }) => {
                (op_id, None, entries)
            }
            RmaEnvelope::ReadReq(_)
            | RmaEnvelope::ScarReq(_)
            | RmaEnvelope::BatchReadReq(_)
            | RmaEnvelope::BatchScarReq(_) => return None,
        };
        let op = self.outstanding.remove(&op_id)?;
        Some(OpCompletion {
            op_id,
            rtt_ns: now.since(op.issued_at).nanos(),
            single: single.map(|(status, bucket, data)| BatchDone {
                sub: op.user_tag,
                status,
                bucket,
                data,
            }),
            batch,
            op,
        })
    }

    /// Abandon an op (deadline fired); returns its metadata if in flight.
    pub fn expire(&mut self, op_id: u64) -> Option<OutstandingOp> {
        self.outstanding.remove(&op_id)
    }

    /// Timer token for an op's deadline.
    pub fn timer_token(op_id: u64) -> u64 {
        RMA_TIMER_BASE + op_id
    }

    /// Inverse of [`RmaOpTable::timer_token`].
    pub fn op_of_timer(token: u64) -> Option<u64> {
        if token >= RMA_TIMER_BASE {
            Some(token - RMA_TIMER_BASE)
        } else {
            None
        }
    }

    /// Ops currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{
        decode, encode_read_resp, encode_scar_resp, BatchRespWriter, ReadResp, RmaStatus, ScarResp,
    };

    #[test]
    fn read_issue_and_complete() {
        let mut t = RmaOpTable::new();
        let (op_id, wire) = t.begin_read(NodeId(5), WindowId(1), 3, 4096, 512, SimTime(1_000), 42);
        assert_eq!(t.in_flight(), 1);
        match decode(wire).unwrap() {
            RmaEnvelope::ReadReq(r) => {
                assert_eq!(r.op_id, op_id);
                assert_eq!(r.window, 1);
                assert_eq!(r.generation, 3);
            }
            other => panic!("{other:?}"),
        }
        let resp = decode(encode_read_resp(&ReadResp {
            op_id,
            status: RmaStatus::Ok,
            data: Bytes::from_static(b"abc"),
        }))
        .unwrap();
        let done = t.complete(resp, SimTime(6_000)).unwrap();
        assert_eq!(done.rtt_ns, 5_000);
        assert_eq!(done.op.user_tag, 42);
        // A single op is one result under its own user tag.
        let results: Vec<BatchDone> = done.into_results().collect();
        assert_eq!(results.len(), 1);
        assert_eq!((results[0].sub, &results[0].data[..]), (42, &b"abc"[..]));
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn scar_issue_and_complete() {
        let mut t = RmaOpTable::new();
        let (op_id, _wire) =
            t.begin_scar(NodeId(2), WindowId(0), 1, 64, 448, 0xABCD, SimTime(0), 7);
        let resp = decode(encode_scar_resp(&ScarResp {
            op_id,
            status: RmaStatus::NoMatch,
            bucket: Bytes::from_static(&[0; 448]),
            data: Bytes::new(),
        }))
        .unwrap();
        let done = t.complete(resp, SimTime(100)).unwrap();
        let only = done.results().next().unwrap();
        assert_eq!((only.sub, only.status), (7, RmaStatus::NoMatch));
        assert_eq!(only.bucket.len(), 448);
        assert_eq!(done.results().count(), 1);
    }

    #[test]
    fn batch_read_issue_and_complete() {
        let mut t = RmaOpTable::new();
        let entries = vec![
            BatchReadEntry {
                sub: 100,
                window: 1,
                generation: 3,
                offset: 0,
                len: 448,
            },
            BatchReadEntry {
                sub: 200,
                window: 1,
                generation: 3,
                offset: 896,
                len: 448,
            },
        ];
        let (op_id, wire) = t.begin_batch_read(NodeId(5), entries, SimTime(0), 77);
        assert_eq!(t.in_flight(), 1);
        let req = match decode(wire).unwrap() {
            RmaEnvelope::BatchReadReq(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(req.op_id, op_id);
        assert_eq!(req.entries.len(), 2);
        let mut w = BatchRespWriter::read_resp(op_id, 2, 1, &Pool::new());
        w.push(100, RmaStatus::Ok, &[], b"a");
        w.push(200, RmaStatus::OutOfBounds, &[], &[]);
        let resp = decode(w.finish()).unwrap();
        let done = t.complete(resp, SimTime(3_000)).unwrap();
        assert_eq!(done.op.user_tag, 77);
        let results: Vec<BatchDone> = done.into_results().collect();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].sub, 100);
        assert_eq!(results[1].status, RmaStatus::OutOfBounds);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn batch_scar_issue_and_complete() {
        let mut t = RmaOpTable::new();
        let entries = vec![BatchScarEntry {
            sub: 9,
            bucket_offset: 64,
            bucket_len: 448,
            key_hash: 0xABCD,
        }];
        let (op_id, _wire) = t.begin_batch_scar(NodeId(2), WindowId(0), 1, entries, SimTime(0), 8);
        let mut w = BatchRespWriter::scar_resp(op_id, 1, 448, &Pool::new());
        w.push(9, RmaStatus::NoMatch, &[0; 448], &[]);
        let resp = decode(w.finish()).unwrap();
        let done = t.complete(resp, SimTime(100)).unwrap();
        let results: Vec<&BatchDone> = done.results().collect();
        assert_eq!(results.len(), 1);
        assert_eq!((results[0].sub, results[0].bucket.len()), (9, 448));
    }

    #[test]
    fn late_response_dropped() {
        let mut t = RmaOpTable::new();
        let (op_id, _) = t.begin_read(NodeId(1), WindowId(0), 0, 0, 8, SimTime(0), 0);
        assert!(t.expire(op_id).is_some());
        let resp = decode(encode_read_resp(&ReadResp {
            op_id,
            status: RmaStatus::Ok,
            data: Bytes::new(),
        }))
        .unwrap();
        assert!(t.complete(resp, SimTime(1)).is_none());
    }

    #[test]
    fn requests_are_not_completions() {
        let mut t = RmaOpTable::new();
        let (_, wire) = t.begin_read(NodeId(1), WindowId(0), 0, 0, 8, SimTime(0), 0);
        let env = decode(wire).unwrap();
        assert!(t.complete(env, SimTime(0)).is_none());
        assert_eq!(t.in_flight(), 1);
    }

    #[test]
    fn timer_tokens() {
        let tok = RmaOpTable::timer_token(9);
        assert_eq!(RmaOpTable::op_of_timer(tok), Some(9));
        assert_eq!(RmaOpTable::op_of_timer(9), None);
    }
}
