//! Crash equivalence for the durability subsystem: crash a backend at an
//! arbitrary point in a seeded SET stream, warm-restart it (WAL replay
//! from its surviving [`durable::Media`], then a delta Pull repair for the
//! un-fsynced tail and everything written while it was down), and the
//! converged per-replica (key, value, version) state must be *identical*
//! to the same stream run with no crash at all.
//!
//! Versions are client-nominated and the stream is open-paced, so the
//! no-crash run fixes the exact version every replica must end at — the
//! crash run can only match it by actually recovering, not by quorums
//! papering over a hole.

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::history::{self, Copy};
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use proptest::prelude::*;
use simnet::SimDuration;

const VICTIM: usize = 1;
const GAP_US: u64 = 200;

fn key(i: u64) -> Bytes {
    Bytes::from(format!("cr{i}"))
}

/// Open-paced SET stream: op `j` rewrites key `j % nkeys`, so later crash
/// points overwrite earlier durable state and replay's version gating is
/// actually load-bearing.
fn build_sets(nkeys: u64, nops: u64) -> Vec<(SimDuration, ClientOp)> {
    (0..nops)
        .map(|j| {
            (
                SimDuration::from_micros(GAP_US),
                ClientOp::Set {
                    key: key(j % nkeys),
                    value: Bytes::from(format!("v{j}")),
                },
            )
        })
        .collect()
}

fn durable_spec() -> CellSpec {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 4,
        ..CellSpec::default()
    };
    spec.backend.store.num_buckets = 64;
    spec.backend.store.data_capacity = 1 << 20;
    spec.backend.store.max_data_capacity = 8 << 20;
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.durability = Some(DurabilitySpec::default());
    spec
}

/// Run the stream; if `crash_us` is given, crash the victim then and
/// warm-restart it after the stream drains. Returns what every replica of
/// every key holds at the end.
fn run_stream(nkeys: u64, nops: u64, crash_us: Option<u64>) -> Vec<Copy> {
    let spec = durable_spec();
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(build_sets(nkeys, nops)));
    let mut cell = Cell::build(spec, vec![wl]);
    cell.record_history();
    let stream_us = nops * GAP_US;
    match crash_us {
        None => cell.run_for(SimDuration::from_micros(stream_us + 10_000)),
        Some(at) => {
            let at = at.min(stream_us);
            cell.run_for(SimDuration::from_micros(at));
            let victim = cell.backends[VICTIM];
            cell.sim.crash(victim);
            // Let the remaining SETs complete against the two live
            // replicas of the victim's cohorts.
            cell.run_for(SimDuration::from_micros(stream_us - at + 10_000));
            cell.restart_backend(VICTIM, true);
            // WAL replay is synchronous at Start; the Pull delta repair
            // needs a few round trips plus CPU. 300ms is generous.
            cell.run_for(SimDuration::from_millis(300));
        }
    }
    assert_eq!(cell.op_errors(), 0, "crash_us={crash_us:?}");
    let h = cell.history();
    assert_eq!(
        history::check(&h, ReplicationMode::R32),
        [],
        "crash_us={crash_us:?}"
    );
    h.copies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn warm_restart_converges_to_the_no_crash_state(
        nkeys in 4u64..10,
        nops in 30u64..60,
        crash_frac in 0.0f64..1.0,
    ) {
        let crash_us = (crash_frac * (nops * GAP_US) as f64) as u64;
        let baseline = run_stream(nkeys, nops, None);
        let crashed = run_stream(nkeys, nops, Some(crash_us));
        // Every replica — including the revived victim — holds exactly the
        // keys, values, and client-nominated versions of the crash-free
        // run. Any lost committed write, double-applied replay, or stale
        // version surviving repair shows up here.
        prop_assert_eq!(
            &baseline, &crashed,
            "state diverged after warm restart at t={}us", crash_us
        );
        // The stream actually wrote something.
        prop_assert!(baseline.iter().any(|c| c.version > 0));
    }
}
