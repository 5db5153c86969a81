//! Client-side call tracking: outstanding requests, response matching, and
//! deadline expiry.
//!
//! A [`CallTable`] lives inside any node that issues RPCs. The node encodes
//! and sends requests through it, routes incoming response envelopes to it,
//! and sets a per-call deadline timer using [`CallTable::timer_token`].

use bytes::{Bytes, Pool};

use simnet::{IdMap, NodeId, SimTime};

use crate::codec::{self, Request, Response, Status, PROTOCOL_VERSION};

/// Token namespace base for per-call deadline timers; the owning node must
/// route `Event::Timer(t)` with `t >= CALL_TIMER_BASE` back to the table.
pub const CALL_TIMER_BASE: u64 = 1 << 56;

/// Book-keeping for one in-flight call.
#[derive(Debug, Clone)]
pub struct Outstanding {
    /// Server the request went to.
    pub dst: NodeId,
    /// Method id.
    pub method: u16,
    /// Absolute deadline (SimTime nanos); `u64::MAX` when none.
    pub deadline_ns: u64,
    /// When the request was issued.
    pub issued_at: SimTime,
    /// Opaque per-call context the node attached (e.g. which logical op
    /// this call belongs to).
    pub user_tag: u64,
}

/// Outcome handed back to the node when a call finishes.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The call id.
    pub id: u64,
    /// Final status (`Status::Internal` is never synthesized here; timeouts
    /// surface through [`CallTable::expire`]).
    pub status: Status,
    /// Response payload.
    pub body: Bytes,
    /// The original call book-keeping.
    pub call: Outstanding,
    /// Round-trip time.
    pub rtt_ns: u64,
}

/// Tracks in-flight RPCs for one client node.
#[derive(Debug, Default)]
pub struct CallTable {
    next_id: u64,
    outstanding: IdMap<u64, Outstanding>,
    /// Frame-buffer pool requests are encoded into. Starts as a private
    /// pool; nodes swap in their host's shared pool at `Event::Start` via
    /// [`CallTable::set_pool`].
    pool: Pool,
    /// Authentication stamp attached to every request this node sends.
    pub auth: u64,
}

impl CallTable {
    /// New table with an identity stamp.
    pub fn new(auth: u64) -> CallTable {
        CallTable {
            next_id: 1,
            outstanding: IdMap::default(),
            pool: Pool::new(),
            auth,
        }
    }

    /// Use `pool` for request encoding (typically the owning node's
    /// per-host pool, so buffers recycle host-wide).
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// Create and register a request. Returns the call id and the encoded
    /// wire bytes; the caller is responsible for actually sending them
    /// (typically after charging client-side CPU).
    pub fn begin(
        &mut self,
        dst: NodeId,
        method: u16,
        body: Bytes,
        now: SimTime,
        deadline_ns: u64,
        user_tag: u64,
    ) -> (u64, Bytes) {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            version: PROTOCOL_VERSION,
            method,
            id,
            auth: self.auth,
            deadline_ns,
            body,
        };
        self.outstanding.insert(
            id,
            Outstanding {
                dst,
                method,
                deadline_ns,
                issued_at: now,
                user_tag,
            },
        );
        (id, codec::encode_request_in(&req, &self.pool))
    }

    /// Route a decoded response. Returns the completion if the id matches
    /// an in-flight call (late/duplicate responses return `None`).
    pub fn complete(&mut self, resp: Response, now: SimTime) -> Option<Completion> {
        let call = self.outstanding.remove(&resp.id)?;
        Some(Completion {
            id: resp.id,
            status: resp.status,
            body: resp.body,
            rtt_ns: now.since(call.issued_at).nanos(),
            call,
        })
    }

    /// Expire a call by id (deadline timer fired). Returns the abandoned
    /// call if it was still in flight.
    pub fn expire(&mut self, id: u64) -> Option<Outstanding> {
        self.outstanding.remove(&id)
    }

    /// Timer token to use for a call's deadline.
    pub fn timer_token(id: u64) -> u64 {
        CALL_TIMER_BASE + id
    }

    /// Inverse of [`CallTable::timer_token`].
    pub fn call_of_timer(token: u64) -> Option<u64> {
        token.checked_sub(CALL_TIMER_BASE)
    }

    /// Number of calls currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn table() -> CallTable {
        CallTable::new(0xA17A)
    }

    #[test]
    fn begin_then_complete() {
        let mut t = table();
        let (id, wire) = t.begin(
            NodeId(3),
            9,
            Bytes::from_static(b"req"),
            SimTime(100),
            5_000,
            77,
        );
        assert_eq!(t.in_flight(), 1);
        // The wire bytes decode back to our request.
        match codec::decode(wire) {
            Some(codec::Envelope::Request(r)) => {
                assert_eq!(r.id, id);
                assert_eq!(r.auth, 0xA17A);
                assert_eq!(r.method, 9);
            }
            other => panic!("{other:?}"),
        }
        let resp = Response {
            version: PROTOCOL_VERSION,
            status: Status::Ok,
            id,
            body: Bytes::from_static(b"resp"),
        };
        let done = t.complete(resp, SimTime(600)).unwrap();
        assert_eq!(done.rtt_ns, 500);
        assert_eq!(done.call.user_tag, 77);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn duplicate_response_ignored() {
        let mut t = table();
        let (id, _) = t.begin(NodeId(1), 1, Bytes::new(), SimTime(0), u64::MAX, 0);
        let resp = Response {
            version: PROTOCOL_VERSION,
            status: Status::Ok,
            id,
            body: Bytes::new(),
        };
        assert!(t.complete(resp.clone(), SimTime(1)).is_some());
        assert!(t.complete(resp, SimTime(2)).is_none());
    }

    #[test]
    fn expire_removes_call() {
        let mut t = table();
        let (id, _) = t.begin(NodeId(1), 1, Bytes::new(), SimTime(0), 100, 5);
        let gone = t.expire(id).unwrap();
        assert_eq!(gone.user_tag, 5);
        assert!(t.expire(id).is_none());
    }

    #[test]
    fn timer_token_roundtrip() {
        let tok = CallTable::timer_token(42);
        assert_eq!(CallTable::call_of_timer(tok), Some(42));
        assert_eq!(CallTable::call_of_timer(41), None);
    }

    #[test]
    fn ids_are_unique_and_ascending() {
        let mut t = table();
        let (a, _) = t.begin(NodeId(1), 1, Bytes::new(), SimTime(0), u64::MAX, 0);
        let (b, _) = t.begin(NodeId(1), 1, Bytes::new(), SimTime(0), u64::MAX, 0);
        assert!(b > a);
    }
}
