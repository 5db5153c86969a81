//! The trickle flush at cell level, and a warm restart through all three
//! durable layers at once.
//!
//! A 3-backend R=3.2 durable cell takes bursts of SETs over 20 keys with
//! idle gaps between them: during a burst the device commits back to back
//! and each batch supersedes records of the ones before it; in a gap the
//! device idles and the trickle flusher checkpoints the log into the
//! snapshot. A backend crashed once everything is durable — the snapshot
//! holding every key, the log the newer versions of the last burst — and
//! revived on the same media rebuilds exactly the store it lost.

use std::collections::BTreeMap;

use bytes::Bytes;
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use durable::Media;
use simnet::SimDuration;

const KEYS: u64 = 20;
const BURSTS: u64 = 4;
const BURST_SETS: u64 = 300;
const GAP_US: u64 = 20;
const IDLE_MS: u64 = 30;
const VICTIM: usize = 1;

type State = BTreeMap<Vec<u8>, (u128, Vec<u8>)>;

/// Version-gated fold of everything `media` recovers.
fn durable_state(media: &Media) -> State {
    let mut map = BTreeMap::new();
    for rec in &media.recover().records {
        durable::apply_record(&mut map, rec);
    }
    map.into_iter()
        .map(|(key, (_, version, value))| (key, (version, value)))
        .collect()
}

fn stored(cell: &mut Cell, backend: simnet::NodeId) -> State {
    cell.sim
        .with_node::<BackendNode, _>(backend, |node| node.store().all_entries())
        .expect("backend node")
        .into_iter()
        .map(|(key, value, version)| (key.to_vec(), (version.0, value.to_vec())))
        .collect()
}

#[test]
fn trickled_snapshot_and_compacted_log_restore_the_store() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    spec.durability = Some(DurabilitySpec::default());
    let ops = (0..BURSTS * BURST_SETS)
        .map(|i| {
            let gap = if i > 0 && i % BURST_SETS == 0 {
                SimDuration::from_millis(IDLE_MS)
            } else {
                SimDuration::from_micros(GAP_US)
            };
            let key = i % KEYS;
            let value = Bytes::from(vec![i as u8; 100 + 10 * key as usize]);
            let key = Bytes::from(format!("burst{key:02}"));
            (gap, ClientOp::Set { key, value })
        })
        .collect();
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    let victim = cell.backends[VICTIM];
    let media = cell.media[VICTIM].clone();
    // Every burst but the last, and the idle gap after it.
    let burst = SimDuration::from_micros(BURST_SETS * GAP_US);
    let span = burst + SimDuration::from_millis(IDLE_MS);
    cell.run_for(SimDuration(span.0 * (BURSTS - 1)));
    assert!(cell.sim.metrics().counter("cm.backend.wal_trickled") > 0);
    assert_eq!(media.borrow().snapshot_entries(), KEYS);

    // The last burst, then the first instant everything appended is
    // durable while the log still holds records the trickle has not
    // checkpointed.
    cell.run_for(burst);
    let settled = |cell: &mut Cell| {
        let m = cell.sim.metrics();
        let pending = m.counter("cm.backend.wal_appends")
            - m.counter("cm.backend.wal_absorbed")
            - m.counter("cm.backend.wal_committed");
        pending == 0 && media.borrow().wal_records() > 0
    };
    let mut waited = 0;
    while !settled(&mut cell) {
        assert!(waited < 500, "the log never settled with records in it");
        cell.run_for(SimDuration::from_micros(100));
        waited += 1;
    }
    assert_eq!(cell.op_errors(), 0);
    assert_eq!(cell.sets_completed(), BURSTS * BURST_SETS);
    let before = stored(&mut cell, victim);
    assert_eq!(before.len() as u64, KEYS);
    {
        let media = media.borrow();
        // The log holds at most one record per key: the last burst's
        // batches superseded one another, and the snapshot holds the rest.
        assert!(
            media.wal_records() <= KEYS,
            "{} records",
            media.wal_records()
        );
        assert!(3 * media.resident_bytes() <= 4 * media.wal_bytes());
        assert!(durable_state(&media) == before, "media and store disagree");
    }

    // Crash, and revive on the same media with peer repair off: replaying
    // the snapshot and the log is the only way back.
    cell.sim.crash(victim);
    cell.restart_backend(VICTIM, false);
    cell.run_for(SimDuration::from_millis(10));
    assert!(stored(&mut cell, victim) == before, "revived store differs");
}
