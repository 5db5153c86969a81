//! Target-side RMA serving: the "NIC's eye view" of a backend.
//!
//! A backend node feeds every RMA frame it receives through [`serve`]. The
//! function charges the transport (engine queueing for Pony Express, fixed
//! PCIe latency for hardware), executes the read against the backend's
//! [`RegionTable`], and produces the encoded response plus the instant it
//! may go on the wire. **No backend application CPU is charged** — that is
//! the whole point of RMA.
//!
//! SCAR needs to understand the bucket layout to chase the IndexEntry
//! pointer. The layout belongs to CliqueMap, not to the transport, so the
//! scan program is injected via [`ScarResolver`] — this mirrors reality,
//! where SCAR exists *because* Pony Express is programmable enough to host
//! application-provided logic.

use bytes::{Bytes, Pool};

use simnet::SimTime;

use crate::codec::{
    encode_read_resp_parts, encode_scar_resp_parts, BatchRespWriter, RmaEnvelope, RmaStatus,
    ScarReq,
};
use crate::region::{Pieces, RegionTable, WindowId};
use crate::transport::Transport;

/// Where a SCAR bucket scan landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScarOutcome {
    /// A matching IndexEntry was found; follow this pointer.
    Hit {
        /// Data-region window to read.
        window: WindowId,
        /// Expected generation of that window.
        generation: u32,
        /// Byte offset of the DataEntry.
        offset: u64,
        /// DataEntry length in bytes.
        len: u32,
        /// Entries examined before matching (cost accounting).
        entries_scanned: usize,
    },
    /// No entry matches the KeyHash.
    Miss {
        /// Entries examined (cost accounting).
        entries_scanned: usize,
    },
}

/// The NIC-resident scan program: given raw bucket bytes and the sought
/// KeyHash, locate the DataEntry pointer. Implemented by the CliqueMap
/// backend (it owns the layout).
pub trait ScarResolver {
    /// Scan for `key_hash` the bucket whose bytes are `head` then `tail`
    /// (its stored room and the template after it, as region memory holds
    /// them).
    fn resolve(&self, head: &[u8], tail: &[u8], key_hash: u128) -> ScarOutcome;
}

/// A served RMA operation: the encoded response and when it's ready.
#[derive(Debug)]
pub struct Served {
    /// Instant the response may be handed to the fabric.
    pub ready_at: SimTime,
    /// Encoded response payload.
    pub response: Bytes,
}

/// What one sub-op resolved to: its wire status, the bucket and data
/// pieces borrowed from region memory (owned only when a read straddled
/// tiles), and how many IndexEntries the NIC examined (`None` when the op
/// never reached a scan).
type Resolved<'a> = (RmaStatus, Pieces<'a>, Pieces<'a>, Option<usize>);

const NO_BYTES: Pieces<'static> = Pieces::EMPTY;

/// Resolve a one-sided read: the addressed bytes, or the status explaining
/// why not.
fn resolve_read(
    regions: &RegionTable,
    window: WindowId,
    generation: u32,
    offset: u64,
    len: u32,
) -> (RmaStatus, Pieces<'_>) {
    match regions.read_window_slice(window, generation, offset, len) {
        Ok(data) => (RmaStatus::Ok, data),
        Err(status) => (status, NO_BYTES),
    }
}

/// Resolve a SCAR: fetch the bucket, scan it NIC-side, follow the matching
/// entry's pointer into the data region.
fn resolve_scar<'a>(
    regions: &'a RegionTable,
    resolver: &dyn ScarResolver,
    scar_supported: bool,
    r: &ScarReq,
) -> Resolved<'a> {
    if !scar_supported {
        return (RmaStatus::Unsupported, NO_BYTES, NO_BYTES, None);
    }
    let (status, bucket) = resolve_read(
        regions,
        WindowId(r.index_window),
        r.index_generation,
        r.bucket_offset,
        r.bucket_len,
    );
    if status != RmaStatus::Ok {
        return (status, NO_BYTES, NO_BYTES, None);
    }
    match resolver.resolve(&bucket.head, bucket.tail, r.key_hash) {
        ScarOutcome::Miss { entries_scanned } => {
            (RmaStatus::NoMatch, bucket, NO_BYTES, Some(entries_scanned))
        }
        ScarOutcome::Hit {
            window,
            generation,
            offset,
            len,
            entries_scanned,
        } => {
            let (status, data) = resolve_read(regions, window, generation, offset, len);
            (status, bucket, data, Some(entries_scanned))
        }
    }
}

/// Serve one decoded RMA request against backend memory. Every sub-op is
/// resolved to borrowed region slices first; the frame shape then decides
/// only the transport admission and the encoder. Responses are encoded
/// straight from region memory into a buffer from `pool` — one copy, and
/// for a single-op frame no other allocation.
///
/// Admission rule: a single-op frame is admitted for its own bytes, with
/// `max(entries scanned, 1)` scans if it reached the scan and none if it
/// did not. A batch frame is admitted **once**, for the sum of its members'
/// bytes and — for a SCAR batch on a transport that supports SCAR —
/// `max(Σ entries scanned, 1)` scans.
///
/// Returns `None` for response envelopes (they are client-bound and should
/// be routed to the client's op table instead).
pub fn serve(
    env: &RmaEnvelope,
    regions: &RegionTable,
    resolver: &dyn ScarResolver,
    transport: &mut Transport,
    pool: &Pool,
    now: SimTime,
) -> Option<Served> {
    let scar = transport.supports_scar();
    Some(match env {
        RmaEnvelope::ReadReq(r) => {
            let (status, data) =
                resolve_read(regions, WindowId(r.window), r.generation, r.offset, r.len);
            Served {
                ready_at: transport.admit_serve(now, data.len(), 0),
                response: encode_read_resp_parts(r.op_id, status, data.parts(), pool),
            }
        }
        RmaEnvelope::ScarReq(r) => {
            let (status, bucket, data, scanned) = resolve_scar(regions, resolver, scar, r);
            let scans = scanned.map_or(0, |n| n.max(1));
            Served {
                ready_at: transport.admit_serve(now, bucket.len() + data.len(), scans),
                response: encode_scar_resp_parts(
                    r.op_id,
                    status,
                    bucket.parts(),
                    data.parts(),
                    pool,
                ),
            }
        }
        RmaEnvelope::BatchReadReq(r) => {
            let parts = r.entries.iter().map(|e| {
                let (status, data) =
                    resolve_read(regions, WindowId(e.window), e.generation, e.offset, e.len);
                (e.sub, (status, NO_BYTES, data, None))
            });
            serve_batch(
                BatchRespWriter::read_resp,
                r.op_id,
                parts,
                0,
                transport,
                pool,
                now,
            )
        }
        RmaEnvelope::BatchScarReq(r) => {
            // Each member resolves as the single request it would have been.
            let parts = r.entries.iter().map(|e| {
                let single = ScarReq {
                    op_id: e.sub,
                    index_window: r.index_window,
                    index_generation: r.index_generation,
                    bucket_offset: e.bucket_offset,
                    bucket_len: e.bucket_len,
                    key_hash: e.key_hash,
                };
                (e.sub, resolve_scar(regions, resolver, scar, &single))
            });
            // A SCAR batch on an engine that can scan costs at least one.
            let floor = usize::from(scar);
            serve_batch(
                BatchRespWriter::scar_resp,
                r.op_id,
                parts,
                floor,
                transport,
                pool,
                now,
            )
        }
        RmaEnvelope::ReadResp(_)
        | RmaEnvelope::ScarResp(_)
        | RmaEnvelope::BatchReadResp(_)
        | RmaEnvelope::BatchScarResp(_) => return None,
    })
}

/// The batch frame shape: resolve every member, admit the transport once
/// for the sums, and send the per-sub-op status vector back in one pooled
/// frame started by `writer`.
fn serve_batch<'a>(
    writer: fn(u64, usize, usize, &Pool) -> BatchRespWriter,
    op_id: u64,
    parts: impl Iterator<Item = (u64, Resolved<'a>)>,
    min_scans: usize,
    transport: &mut Transport,
    pool: &Pool,
    now: SimTime,
) -> Served {
    let parts: Vec<(u64, Resolved<'a>)> = parts.collect();
    let (mut total, mut scanned) = (0, 0);
    for (_, (_, bucket, data, n)) in &parts {
        total += bucket.len() + data.len();
        scanned += n.unwrap_or(0);
    }
    let ready_at = transport.admit_serve(now, total, scanned.max(min_scans));
    let mut w = writer(op_id, parts.len(), total, pool);
    for (sub, (status, bucket, data, _)) in parts {
        w.push_parts(sub, status, bucket.parts(), data.parts());
    }
    Served {
        ready_at,
        response: w.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, ReadReq, ReadResp};
    use crate::pony::PonyCfg;

    /// Toy layout for tests: bucket is a list of (u128 hash, u64 offset,
    /// u32 len) tuples; window/generation fixed.
    struct ToyResolver {
        data_window: WindowId,
        data_generation: u32,
    }

    impl ScarResolver for ToyResolver {
        fn resolve(&self, head: &[u8], tail: &[u8], key_hash: u128) -> ScarOutcome {
            let bucket = [head, tail].concat();
            let entry = 16 + 8 + 4;
            let n = bucket.len() / entry;
            for i in 0..n {
                let at = i * entry;
                let hash = u128::from_le_bytes(bucket[at..at + 16].try_into().unwrap());
                if hash == key_hash && hash != 0 {
                    let offset = u64::from_le_bytes(bucket[at + 16..at + 24].try_into().unwrap());
                    let len = u32::from_le_bytes(bucket[at + 24..at + 28].try_into().unwrap());
                    return ScarOutcome::Hit {
                        window: self.data_window,
                        generation: self.data_generation,
                        offset,
                        len,
                        entries_scanned: i + 1,
                    };
                }
            }
            ScarOutcome::Miss { entries_scanned: n }
        }
    }

    fn setup() -> (RegionTable, ToyResolver, Transport) {
        let mut regions = RegionTable::new();
        // Index: one bucket with two entries.
        let ib = regions.alloc_buffer(256);
        let iw = regions.register_window(ib, 0, 256);
        // Data: "hello" at offset 32.
        let db = regions.alloc_buffer(128);
        let dw = regions.register_window(db, 0, 128);
        regions.write(db, 32, b"hello");
        // Entry 0: hash=7, points at data 32..37.
        let mut e = Vec::new();
        e.extend_from_slice(&7u128.to_le_bytes());
        e.extend_from_slice(&32u64.to_le_bytes());
        e.extend_from_slice(&5u32.to_le_bytes());
        regions.write(ib, 0, &e);
        let generation = regions.window_generation(dw);
        assert_eq!(iw, WindowId(0));
        (
            regions,
            ToyResolver {
                data_window: dw,
                data_generation: generation,
            },
            Transport::pony(PonyCfg::default()),
        )
    }

    #[test]
    fn read_roundtrip_through_serve() {
        let (regions, resolver, mut transport) = setup();
        let req = RmaEnvelope::ReadReq(ReadReq {
            op_id: 1,
            window: 1, // data window
            generation: regions.window_generation(WindowId(1)),
            offset: 32,
            len: 5,
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        match decode(served.response).unwrap() {
            RmaEnvelope::ReadResp(r) => {
                assert_eq!(r.status, RmaStatus::Ok);
                assert_eq!(&r.data[..], b"hello");
            }
            other => panic!("{other:?}"),
        }
        assert!(served.ready_at > SimTime(0), "transport cost charged");
    }

    #[test]
    fn scar_hit_returns_bucket_and_data() {
        let (regions, resolver, mut transport) = setup();
        let req = RmaEnvelope::ScarReq(ScarReq {
            op_id: 2,
            index_window: 0,
            index_generation: regions.window_generation(WindowId(0)),
            bucket_offset: 0,
            bucket_len: 28 * 2,
            key_hash: 7,
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        match decode(served.response).unwrap() {
            RmaEnvelope::ScarResp(r) => {
                assert_eq!(r.status, RmaStatus::Ok);
                assert_eq!(r.bucket.len(), 56);
                assert_eq!(&r.data[..], b"hello");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scar_miss_still_returns_bucket() {
        let (regions, resolver, mut transport) = setup();
        let req = RmaEnvelope::ScarReq(ScarReq {
            op_id: 3,
            index_window: 0,
            index_generation: regions.window_generation(WindowId(0)),
            bucket_offset: 0,
            bucket_len: 28,
            key_hash: 12345,
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        match decode(served.response).unwrap() {
            RmaEnvelope::ScarResp(r) => {
                assert_eq!(r.status, RmaStatus::NoMatch);
                assert_eq!(r.bucket.len(), 28);
                assert!(r.data.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scar_rejected_on_hardware_transport() {
        let (regions, resolver, _) = setup();
        let mut transport = Transport::one_rma();
        let req = RmaEnvelope::ScarReq(ScarReq {
            op_id: 4,
            index_window: 0,
            index_generation: 0,
            bucket_offset: 0,
            bucket_len: 28,
            key_hash: 7,
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        match decode(served.response).unwrap() {
            RmaEnvelope::ScarResp(r) => assert_eq!(r.status, RmaStatus::Unsupported),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn revoked_window_surfaces_in_response() {
        let (mut regions, resolver, mut transport) = setup();
        let generation = regions.window_generation(WindowId(0));
        regions.revoke_window(WindowId(0));
        let req = RmaEnvelope::ScarReq(ScarReq {
            op_id: 5,
            index_window: 0,
            index_generation: generation,
            bucket_offset: 0,
            bucket_len: 28,
            key_hash: 7,
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        match decode(served.response).unwrap() {
            RmaEnvelope::ScarResp(r) => assert_eq!(r.status, RmaStatus::WindowRevoked),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_read_served_with_one_admission() {
        use crate::codec::{BatchReadEntry, BatchReadReq};
        let (regions, resolver, mut transport) = setup();
        let generation = regions.window_generation(WindowId(1));
        let req = RmaEnvelope::BatchReadReq(BatchReadReq {
            op_id: 10,
            entries: vec![
                BatchReadEntry {
                    sub: 1,
                    window: 1,
                    generation,
                    offset: 32,
                    len: 5,
                },
                BatchReadEntry {
                    sub: 2,
                    window: 1,
                    generation: generation + 99, // stale
                    offset: 0,
                    len: 4,
                },
            ],
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        // One frame in, one engine admission for the whole batch.
        assert_eq!(transport.sw_ops(), 1);
        match decode(served.response).unwrap() {
            RmaEnvelope::BatchReadResp(r) => {
                assert_eq!(r.op_id, 10);
                assert_eq!(r.entries.len(), 2);
                assert_eq!(r.entries[0].status, RmaStatus::Ok);
                assert_eq!(&r.entries[0].data[..], b"hello");
                assert_eq!(r.entries[1].status, RmaStatus::BadGeneration);
                assert!(r.entries[1].data.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_scar_served_with_one_admission() {
        use crate::codec::{BatchScarEntry, BatchScarReq};
        let (regions, resolver, mut transport) = setup();
        let req = RmaEnvelope::BatchScarReq(BatchScarReq {
            op_id: 11,
            index_window: 0,
            index_generation: regions.window_generation(WindowId(0)),
            entries: vec![
                BatchScarEntry {
                    sub: 1,
                    bucket_offset: 0,
                    bucket_len: 28,
                    key_hash: 7, // hit
                },
                BatchScarEntry {
                    sub: 2,
                    bucket_offset: 0,
                    bucket_len: 28,
                    key_hash: 12345, // miss
                },
            ],
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        assert_eq!(transport.sw_ops(), 1);
        match decode(served.response).unwrap() {
            RmaEnvelope::BatchScarResp(r) => {
                assert_eq!(r.entries.len(), 2);
                assert_eq!(r.entries[0].status, RmaStatus::Ok);
                assert_eq!(&r.entries[0].data[..], b"hello");
                assert_eq!(r.entries[0].bucket.len(), 28);
                assert_eq!(r.entries[1].status, RmaStatus::NoMatch);
                assert!(r.entries[1].data.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_scar_rejected_per_entry_on_hardware() {
        use crate::codec::{BatchScarEntry, BatchScarReq};
        let (regions, resolver, _) = setup();
        let mut transport = Transport::one_rma();
        let req = RmaEnvelope::BatchScarReq(BatchScarReq {
            op_id: 12,
            index_window: 0,
            index_generation: 0,
            entries: vec![BatchScarEntry {
                sub: 4,
                bucket_offset: 0,
                bucket_len: 28,
                key_hash: 7,
            }],
        });
        let served = serve(
            &req,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0),
        )
        .unwrap();
        match decode(served.response).unwrap() {
            RmaEnvelope::BatchScarResp(r) => {
                assert_eq!(r.entries[0].status, RmaStatus::Unsupported);
                assert_eq!(r.entries[0].sub, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_are_not_served() {
        let (regions, resolver, mut transport) = setup();
        let env = RmaEnvelope::ReadResp(ReadResp {
            op_id: 1,
            status: RmaStatus::Ok,
            data: Bytes::new(),
        });
        assert!(serve(
            &env,
            &regions,
            &resolver,
            &mut transport,
            &Pool::new(),
            SimTime(0)
        )
        .is_none());
    }
}
