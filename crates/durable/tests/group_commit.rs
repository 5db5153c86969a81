//! Group-commit behavior against the timed device model.
//!
//! The headline number this file pins down is the ClawStore observation
//! that motivated the subsystem: batching writes under one fsync amortizes
//! the (dominant) fsync latency, so per-write cost falls by orders of
//! magnitude as the batch grows. With the default [`DeviceCfg`]
//! (1us write setup, 0.2 Gbps transfer, 4ms fsync) and 64-byte records,
//! b=1 costs ~4.0ms/record while b=10,000 costs ~3.0us/record — a ~1,350x
//! amortization, the same shape as the paper's 1→10K ≈ 1,577x curve.

use std::collections::BTreeMap;

use durable::{
    append_record, apply_record, decode_stream, GroupCommit, Media, Record, KIND_ERASE, KIND_SET,
};
use simnet::{Ctx, DeviceCfg, Event, FabricCfg, HostCfg, Node, Sim, SimDuration, SimTime};

const RECORD_BYTES: u64 = 64;

/// Pushes `total` records through the device as back-to-back group
/// commits of `batch` records each, recording when the last one lands.
struct Committer {
    batch: u64,
    total: u64,
    issued: u64,
    done_at: Option<SimTime>,
}

impl Committer {
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.issued >= self.total {
            self.done_at = Some(ctx.now());
            return;
        }
        let n = self.batch.min(self.total - self.issued);
        self.issued += n;
        ctx.device_commit(n * RECORD_BYTES, 1);
    }
}

impl Node for Committer {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start | Event::Timer(_) => self.issue(ctx),
            _ => {}
        }
    }
}

/// Simulated wall time to make `total` records durable in batches of
/// `batch`, on a fresh device with the default profile.
fn time_to_commit(total: u64, batch: u64) -> SimDuration {
    let mut sim = Sim::new(FabricCfg::default(), 7);
    sim.enable_devices(DeviceCfg::default());
    let host = sim.add_host(HostCfg::default());
    let id = sim.add_node(
        host,
        Box::new(Committer {
            batch,
            total,
            issued: 0,
            done_at: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(3600));
    let done = sim
        .with_node::<Committer, _>(id, |c| c.done_at)
        .flatten()
        .expect("committer never finished");
    assert_eq!(
        sim.device_stats(host).fsyncs,
        total.div_ceil(batch),
        "one fsync per group commit"
    );
    done.since(SimTime::ZERO)
}

#[test]
fn fsync_amortization_curve() {
    const TOTAL: u64 = 10_000;
    let batches = [1u64, 100, 1_000, 10_000];
    let per_write: Vec<f64> = batches
        .iter()
        .map(|&b| time_to_commit(TOTAL, b).nanos() as f64 / TOTAL as f64)
        .collect();
    for w in per_write.windows(2) {
        assert!(
            w[1] < w[0],
            "per-write latency must fall monotonically with batch size: {per_write:?}"
        );
    }
    let amortization = per_write[0] / per_write[3];
    assert!(
        amortization >= 100.0,
        "expected >=100x amortization between b=1 and b=10K, got {amortization:.1}x \
         (curve {per_write:?})"
    );
    // With the default device profile the curve lands in the same decade
    // as ClawStore's reported ~1,577x.
    assert!(
        amortization >= 1000.0,
        "default profile should amortize >=1000x, got {amortization:.1}x"
    );
}

fn rec(kind: u8, version: u128, key: &str, value: &str) -> Record {
    Record {
        kind,
        version,
        key: key.as_bytes().to_vec(),
        value: value.as_bytes().to_vec(),
    }
}

fn replay(recovery: &durable::Recovery) -> BTreeMap<Vec<u8>, (u8, u128, Vec<u8>)> {
    let mut map = BTreeMap::new();
    for r in &recovery.records {
        apply_record(&mut map, r);
    }
    map
}

#[test]
fn wal_replay_is_idempotent_across_snapshot_and_log() {
    let mut media = Media::default();
    let mut gc = GroupCommit::default();
    // Half the history lands in the WAL (a batch keeps only the newest
    // record of each of its keys, so 21 appends over 8 keys log 8)...
    for i in 0..20u128 {
        gc.append(&rec(KIND_SET, i + 1, &format!("k{}", i % 8), "v"));
    }
    gc.append(&rec(KIND_ERASE, 40, "k3", ""));
    while gc.dirty() {
        gc.start_commit().expect("batch pending");
        gc.finish_commit(&mut media);
    }
    // ...and part of it is then checkpointed, so recovery spans both.
    media.flush_prefix(4);
    assert!(media.snapshot_entries() > 0 && media.wal_records() > 0);

    let recovery = media.recover();
    let once = replay(&recovery);
    // Replaying the same recovery again (or recovering twice) changes
    // nothing: versions gate every apply.
    let mut twice = once.clone();
    for r in &recovery.records {
        apply_record(&mut twice, r);
    }
    assert_eq!(once, twice);
    assert_eq!(once, replay(&media.recover()));
    // The erase is present as a tombstone fencing version 40.
    assert_eq!(once.get(b"k3".as_slice()).unwrap().0, KIND_ERASE);
}

#[test]
fn torn_tail_is_dropped_not_fatal() {
    let mut full = Vec::new();
    for i in 0..8u128 {
        append_record(
            &mut full,
            &rec(KIND_SET, i + 1, &format!("t{i}"), "payload"),
        );
    }
    // A power cut mid-batch leaves every possible prefix on the platter;
    // none of them may panic, and decode yields exactly the whole records.
    for cut in 0..=full.len() {
        let mut media = Media::default();
        media.commit_partial(&full, cut);
        let recovery = media.recover();
        let (whole, _) = decode_stream(&full[..cut]);
        assert_eq!(recovery.records.len(), whole.len(), "cut={cut}");
        // A tail is torn iff the cut fell strictly inside a record.
        let consumed: usize = whole.iter().map(|r| r.encoded_len()).sum();
        assert_eq!(recovery.torn_tail, consumed < cut, "cut={cut}");
        // Committing the remainder after a clean cut resumes normally.
        if consumed == cut {
            let mut resumed = media.clone();
            resumed.commit(&full[cut..]);
            assert_eq!(resumed.recover().records.len(), 8);
        }
    }
}
