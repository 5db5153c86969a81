//! The client side of an RMA answer: what a response frame says about each
//! sub-op it carried, whatever the frame shape.
//!
//! Which ops are in flight is the issuing node's business: it keeps one
//! record per frame under the frame's `op_id` and claims it when the answer
//! (or the attempt timer) arrives. [`RmaAnswer`] is the part that is RMA's:
//! a response envelope as per-sub-op results.

use bytes::Bytes;

use crate::codec::{BatchDone, BatchResp, RmaEnvelope, RmaStatus};

/// One RMA response frame as per-sub-op results: a single op's one result,
/// or a batch frame's results in request order.
#[derive(Debug, Clone)]
pub struct RmaAnswer {
    /// The op id the response echoes.
    pub op_id: u64,
    /// A single op's `(status, bucket, data)` (no `Vec` on that path).
    single: Option<(RmaStatus, Bytes, Bytes)>,
    /// A batch frame's results.
    batch: Vec<BatchDone>,
}

impl RmaAnswer {
    /// The answer a response envelope carries; `None` for requests.
    pub fn of(env: RmaEnvelope) -> Option<RmaAnswer> {
        let (op_id, single, batch) = match env {
            RmaEnvelope::ReadResp(r) => (r.op_id, Some((r.status, Bytes::new(), r.data)), vec![]),
            RmaEnvelope::ScarResp(r) => (r.op_id, Some((r.status, r.bucket, r.data)), vec![]),
            RmaEnvelope::BatchReadResp(BatchResp { op_id, entries })
            | RmaEnvelope::BatchScarResp(BatchResp { op_id, entries }) => (op_id, None, entries),
            RmaEnvelope::ReadReq(_)
            | RmaEnvelope::ScarReq(_)
            | RmaEnvelope::BatchReadReq(_)
            | RmaEnvelope::BatchScarReq(_) => return None,
        };
        Some(RmaAnswer {
            op_id,
            single,
            batch,
        })
    }

    /// True when the frame carried no per-sub-op result at all.
    pub fn is_empty(&self) -> bool {
        self.single.is_none() && self.batch.is_empty()
    }

    /// Bucket and data bytes the frame carried.
    pub fn payload_bytes(&self) -> usize {
        let single = self.single.iter().map(|(_, b, d)| b.len() + d.len());
        let batch = self.batch.iter().map(|d| d.bucket.len() + d.data.len());
        single.chain(batch).sum()
    }

    /// The results, by value: a single op's one result is filed under
    /// `single_sub`, the sub-op its issuer recorded for the frame.
    pub fn into_results(self, single_sub: u64) -> impl Iterator<Item = BatchDone> {
        let single = self.single.map(|(status, bucket, data)| BatchDone {
            sub: single_sub,
            status,
            bucket,
            data,
        });
        single.into_iter().chain(self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{
        decode, encode_read_req_in, encode_read_resp, encode_scar_resp, BatchRespWriter, ReadReq,
        ReadResp, ScarResp,
    };
    use bytes::Pool;

    #[test]
    fn read_issue_and_complete() {
        let resp = decode(encode_read_resp(&ReadResp {
            op_id: 9,
            status: RmaStatus::Ok,
            data: Bytes::from_static(b"abc"),
        }))
        .unwrap();
        let answer = RmaAnswer::of(resp).unwrap();
        assert_eq!((answer.op_id, answer.payload_bytes()), (9, 3));
        assert!(!answer.is_empty());
        // A single op is one result under the sub-op its issuer recorded.
        let results: Vec<BatchDone> = answer.into_results(42).collect();
        assert_eq!(results.len(), 1);
        assert_eq!((results[0].sub, &results[0].data[..]), (42, &b"abc"[..]));
    }

    #[test]
    fn scar_issue_and_complete() {
        let resp = decode(encode_scar_resp(&ScarResp {
            op_id: 3,
            status: RmaStatus::NoMatch,
            bucket: Bytes::from_static(&[0; 448]),
            data: Bytes::new(),
        }))
        .unwrap();
        let answer = RmaAnswer::of(resp).unwrap();
        assert_eq!(answer.payload_bytes(), 448);
        let only: Vec<BatchDone> = answer.into_results(7).collect();
        assert_eq!((only[0].sub, only[0].status), (7, RmaStatus::NoMatch));
        assert_eq!(only[0].bucket.len(), 448);
    }

    #[test]
    fn batch_read_issue_and_complete() {
        let mut w = BatchRespWriter::read_resp(77, 2, 1, &Pool::new());
        w.push(100, RmaStatus::Ok, &[], b"a");
        w.push(200, RmaStatus::OutOfBounds, &[], &[]);
        let answer = RmaAnswer::of(decode(w.finish()).unwrap()).unwrap();
        assert_eq!((answer.op_id, answer.payload_bytes()), (77, 1));
        // Batch members keep their own sub tags, in request order.
        let results: Vec<BatchDone> = answer.into_results(0).collect();
        assert_eq!((results[0].sub, results[1].sub), (100, 200));
        assert_eq!(results[1].status, RmaStatus::OutOfBounds);
    }

    #[test]
    fn batch_scar_issue_and_complete() {
        let mut w = BatchRespWriter::scar_resp(8, 1, 448, &Pool::new());
        w.push(9, RmaStatus::NoMatch, &[0; 448], &[]);
        let answer = RmaAnswer::of(decode(w.finish()).unwrap()).unwrap();
        let results: Vec<BatchDone> = answer.into_results(0).collect();
        assert_eq!((results[0].sub, results[0].bucket.len()), (9, 448));
        // A frame with no per-sub-op result at all is empty.
        let w = BatchRespWriter::scar_resp(5, 0, 0, &Pool::new());
        assert!(RmaAnswer::of(decode(w.finish()).unwrap())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn requests_are_not_completions() {
        let req = ReadReq {
            op_id: 1,
            window: 0,
            generation: 0,
            offset: 0,
            len: 8,
        };
        let env = decode(encode_read_req_in(&req, &Pool::new())).unwrap();
        assert!(RmaAnswer::of(env).is_none());
    }
}
