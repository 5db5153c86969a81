//! A batch frame serves exactly what its members would have been served
//! alone: same per-sub `(status, bucket, data)`, on Pony and on a hardware
//! transport, with the transport admitted once for the summed bytes/scans —
//! and the same again whether the index buffer is flat or tiled.

use bytes::Pool;
use proptest::prelude::*;
use rma::{
    decode, serve, BatchReadEntry, BatchReadReq, BatchScarEntry, BatchScarReq, PonyCfg, ReadReq,
    RegionTable, RmaEnvelope, RmaStatus, ScarOutcome, ScarReq, ScarResolver, Transport, WindowId,
};
use simnet::SimTime;

const ENTRY: usize = 16 + 8 + 4; // (hash, data offset, data len)
const BUCKET: u32 = 2 * ENTRY as u32;
const NOW: SimTime = SimTime(1_000);

/// Toy layout: a bucket is a list of `(u128 hash, u64 offset, u32 len)`.
struct Toy {
    data_window: WindowId,
    data_generation: u32,
}

impl ScarResolver for Toy {
    fn resolve(&self, bucket: &[u8], key_hash: u128) -> ScarOutcome {
        let n = bucket.len() / ENTRY;
        for (i, e) in bucket.chunks_exact(ENTRY).enumerate() {
            if u128::from_le_bytes(e[..16].try_into().unwrap()) == key_hash {
                return ScarOutcome::Hit {
                    window: self.data_window,
                    generation: self.data_generation,
                    offset: u64::from_le_bytes(e[16..24].try_into().unwrap()),
                    len: u32::from_le_bytes(e[24..28].try_into().unwrap()),
                    entries_scanned: i + 1,
                };
            }
        }
        ScarOutcome::Miss { entries_scanned: n }
    }
}

/// Index window 0 (4 buckets), data window 1, revoked window 2. Bucket `b`
/// holds key `10 + b` (a hit) and key `20 + b` (a pointer past the data
/// window: the chase fails after a successful scan). The index is one tile
/// per bucket when `tiled_index`.
fn world(tiled_index: bool) -> (RegionTable, Toy) {
    let mut regions = RegionTable::new();
    let ib = if tiled_index {
        regions.alloc_tiled_buffer(&[0; BUCKET as usize], 4)
    } else {
        regions.alloc_buffer(4 * BUCKET as usize)
    };
    regions.register_window(ib, 0, 4 * BUCKET as u64);
    let db = regions.alloc_buffer(256);
    let dw = regions.register_window(db, 0, 256);
    regions.write(db, 0, &(0..=255u8).collect::<Vec<_>>());
    let dead = regions.register_window(db, 0, 256);
    regions.revoke_window(dead);
    for b in 0..4u64 {
        let mut raw = Vec::new();
        for (hash, offset, len) in [(10 + b, 16 * b, 24u32), (20 + b, 250, 64)] {
            raw.extend_from_slice(&(hash as u128).to_le_bytes());
            raw.extend_from_slice(&offset.to_le_bytes());
            raw.extend_from_slice(&len.to_le_bytes());
        }
        regions.write(ib, (b * BUCKET as u64) as usize, &raw);
    }
    let toy = Toy {
        data_window: dw,
        data_generation: regions.window_generation(dw),
    };
    (regions, toy)
}

fn transports() -> [fn() -> Transport; 2] {
    [|| Transport::pony(PonyCfg::default()), Transport::one_rma]
}

type Part = (RmaStatus, Vec<u8>, Vec<u8>);

/// Serve one frame; returns the per-sub results and the ready time.
fn run(
    env: &RmaEnvelope,
    regions: &RegionTable,
    toy: &Toy,
    t: &mut Transport,
) -> (Vec<(u64, Part)>, SimTime) {
    let served = serve(env, regions, toy, t, &Pool::new(), NOW).expect("requests are served");
    let parts = match decode(served.response).expect("valid frame") {
        RmaEnvelope::ReadResp(r) => vec![(r.op_id, (r.status, Vec::new(), r.data.to_vec()))],
        RmaEnvelope::ScarResp(r) => vec![(r.op_id, (r.status, r.bucket.to_vec(), r.data.to_vec()))],
        RmaEnvelope::BatchReadResp(rma::BatchResp { entries, .. })
        | RmaEnvelope::BatchScarResp(rma::BatchResp { entries, .. }) => entries
            .into_iter()
            .map(|d| (d.sub, (d.status, d.bucket.to_vec(), d.data.to_vec())))
            .collect(),
        other => panic!("{other:?}"),
    };
    (parts, served.ready_at)
}

/// (window id, generation) for a window choice: live, stale generation, revoked.
fn pick(regions: &RegionTable, live: u32, choice: u8) -> (u32, u32) {
    let generation = regions.window_generation(WindowId(live));
    match choice {
        0..=3 => (live, generation),
        4 => (live, generation + 1),
        _ => (2, regions.window_generation(WindowId(2))),
    }
}

proptest! {
    #[test]
    fn batch_read_equals_singles(
        subs in proptest::collection::vec((0u8..6, 0u64..300, 0u32..64), 1..12),
    ) {
        let mut served = Vec::new();
        for (tiled_index, fresh) in [false, true].into_iter().flat_map(|t| transports().map(|f| (t, f))) {
            let (regions, toy) = world(tiled_index);
            // Even subs read the index window (across buckets: a straddling
            // read when it is tiled), odd ones the data window.
            let entries: Vec<BatchReadEntry> = subs.iter().enumerate().map(|(i, &(w, offset, len))| {
                let (window, generation) = pick(&regions, i as u32 % 2, w);
                BatchReadEntry { sub: 100 + i as u64, window, generation, offset, len }
            }).collect();
            let mut singles = Vec::new();
            let mut t = fresh();
            for e in &entries {
                let req = ReadReq { op_id: e.sub, window: e.window, generation: e.generation, offset: e.offset, len: e.len };
                singles.extend(run(&RmaEnvelope::ReadReq(req), &regions, &toy, &mut t).0);
            }
            let mut t = fresh();
            let batch = RmaEnvelope::BatchReadReq(BatchReadReq { op_id: 7, entries });
            let (got, ready_at) = run(&batch, &regions, &toy, &mut t);
            prop_assert_eq!(&got, &singles);
            let bytes: usize = singles.iter().map(|(_, p)| p.2.len()).sum();
            prop_assert_eq!(ready_at, fresh().admit_serve(NOW, bytes, 0));
            prop_assert_eq!(t.sw_ops(), u64::from(t.pony.is_some()), "one admission per frame");
            served.push((got, ready_at));
        }
        prop_assert_eq!(&served[..2], &served[2..], "tiled index served differently");
    }

    #[test]
    fn batch_scar_equals_singles(
        frame_window in 0u8..6,
        subs in proptest::collection::vec((0u64..5, 0usize..3), 1..12),
    ) {
        let mut served = Vec::new();
        for (tiled_index, fresh) in [false, true].into_iter().flat_map(|t| transports().map(|f| (t, f))) {
            let (regions, toy) = world(tiled_index);
            let (index_window, index_generation) = pick(&regions, 0, frame_window);
            // Bucket 4 is past the index window; key class 0 hits, 1 hits
            // with a dangling pointer, 2 misses.
            let entries: Vec<BatchScarEntry> = subs.iter().enumerate().map(|(i, &(b, class))| BatchScarEntry {
                sub: 100 + i as u64,
                bucket_offset: b * BUCKET as u64,
                bucket_len: BUCKET,
                key_hash: [10 + b as u128, 20 + b as u128, 99][class],
            }).collect();
            let mut singles = Vec::new();
            let mut scanned = 0;
            let mut t = fresh();
            for e in &entries {
                let req = ScarReq {
                    op_id: e.sub, index_window, index_generation,
                    bucket_offset: e.bucket_offset, bucket_len: e.bucket_len, key_hash: e.key_hash,
                };
                let (part, _) = run(&RmaEnvelope::ScarReq(req), &regions, &toy, &mut t);
                if !part[0].1.1.is_empty() {
                    scanned += match toy.resolve(&part[0].1.1, e.key_hash) {
                        ScarOutcome::Hit { entries_scanned, .. } | ScarOutcome::Miss { entries_scanned } => entries_scanned,
                    };
                }
                singles.extend(part);
            }
            let mut t = fresh();
            let batch = RmaEnvelope::BatchScarReq(BatchScarReq { op_id: 7, index_window, index_generation, entries });
            let (got, ready_at) = run(&batch, &regions, &toy, &mut t);
            prop_assert_eq!(&got, &singles);
            let bytes: usize = singles.iter().map(|(_, p)| p.1.len() + p.2.len()).sum();
            let scans = if t.supports_scar() { scanned.max(1) } else { 0 };
            prop_assert_eq!(ready_at, fresh().admit_serve(NOW, bytes, scans));
            prop_assert_eq!(t.sw_ops(), u64::from(t.pony.is_some()), "one admission per frame");
            if !t.supports_scar() {
                prop_assert!(got.iter().all(|(_, p)| p.0 == RmaStatus::Unsupported));
            }
            served.push((got, ready_at));
        }
        prop_assert_eq!(&served[..2], &served[2..], "tiled index served differently");
    }
}
