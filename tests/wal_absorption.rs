//! The WAL pays for live keys, not for the op stream — at cell level.
//!
//! A 3-backend R=3.2 durable cell takes an overwrite storm over 50 keys
//! that arrives several times faster than its devices commit. Group commit
//! keeps one record per pending key, so what reaches each backend's log is
//! a fraction of what was appended, while the log still recovers every key
//! at exactly the version its store ended on.

use std::collections::BTreeMap;

use bytes::Bytes;
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use simnet::SimDuration;

const KEYS: u64 = 50;
const SETS: u64 = 4_000;
const GAP_US: u64 = 20;
const VALUE_LEN: usize = 1024;

#[test]
fn overwrite_storm_logs_a_fraction_of_what_it_appends() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    // No trickle flush inside the run: `wal_bytes()` is then everything
    // the group commits made durable.
    spec.durability = Some(DurabilitySpec {
        trickle_interval: SimDuration::from_secs(1),
        ..DurabilitySpec::default()
    });
    let ops = (0..SETS)
        .map(|i| {
            let key = Bytes::from(format!("storm{:03}", i % KEYS));
            let value = Bytes::from(vec![i as u8; VALUE_LEN]);
            (
                SimDuration::from_micros(GAP_US),
                ClientOp::Set { key, value },
            )
        })
        .collect();
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    // The storm, then time for the last group commit to land.
    cell.run_for(SimDuration::from_micros(SETS * GAP_US) + SimDuration::from_millis(50));
    assert_eq!(cell.op_errors(), 0);
    assert_eq!(cell.sets_completed(), SETS);

    // Every replica-side SET was appended (and counted), most were
    // absorbed into a record already pending.
    let m = cell.sim.metrics();
    let appends = m.counter("cm.backend.wal_appends");
    let absorbed = m.counter("cm.backend.wal_absorbed");
    assert_eq!(appends, 3 * SETS);
    assert_eq!(
        appends - absorbed,
        m.counter("cm.backend.wal_committed"),
        "every append is durable, through its own record or the one that absorbed it"
    );

    // 20 µs between SETs against a ~6 ms device transaction (4 ms fsync +
    // 50 records at 25 MB/s): ~300 arrive per batch, over 50 keys. The
    // parent commit logged every one of them (fraction 1.0); one record
    // per pending key measures 0.175 here.
    let appended_bytes = appends * (durable::RECORD_HEADER + "storm000".len() + VALUE_LEN) as u64;
    let logged_bytes: u64 = cell.media.iter().map(|m| m.borrow().wal_bytes()).sum();
    let fraction = logged_bytes as f64 / appended_bytes as f64;
    assert!(
        fraction < 0.25,
        "{logged_bytes} of {appended_bytes} appended bytes reached the log ({fraction:.3})"
    );

    // What the absorbed log recovers is what the store holds: every key,
    // at the newest version this replica accepted.
    for (backend, media) in cell.backends.clone().into_iter().zip(&cell.media) {
        let mut recovered = BTreeMap::new();
        for rec in &media.borrow().recover().records {
            durable::apply_record(&mut recovered, rec);
        }
        let recovered: BTreeMap<Vec<u8>, (u128, Vec<u8>)> = recovered
            .into_iter()
            .map(|(key, (_, version, value))| (key, (version, value)))
            .collect();
        let stored: BTreeMap<Vec<u8>, (u128, Vec<u8>)> = cell
            .sim
            .with_node::<BackendNode, _>(backend, |node| node.store().all_entries())
            .expect("backend node")
            .into_iter()
            .map(|(key, value, version)| (key.to_vec(), (version.0, value.to_vec())))
            .collect();
        assert_eq!(stored.len() as u64, KEYS);
        assert!(recovered == stored, "log and store disagree");
    }
}
