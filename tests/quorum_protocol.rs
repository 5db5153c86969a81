//! Randomized exploration of the R=3.2 replication protocol — our
//! substitute for the paper's TLA+ single-failure-tolerance proof.
//!
//! For many random schedules (seed, crash timing, victim, workload
//! interleaving) we assert the §5 safety and availability properties:
//!
//! * GETs remain quorate and error-free under any *single* backend failure;
//! * values read are never stale beyond the write quorum's guarantee
//!   (replicas converge to one version once the dust settles);
//! * repairs restore the third replica after recovery.

use proptest::prelude::*;

use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::history::check;
use cliquemap::workload::{ClientOp, ScriptWorkload, UniformWorkload, Workload};
use simnet::SimDuration;
use workloads::{Prefill, SizeDist};

const KEYS: u64 = 60;

fn build_cell(seed: u64, strategy: LookupStrategy) -> Cell {
    let mut spec = CellSpec {
        seed,
        replication: ReplicationMode::R32,
        num_backends: 5,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = Some(SimDuration::from_millis(60));
    spec.client.strategy = strategy;
    spec.client.access_flush = None;
    // Reader client 0: one GET of every key, spread over the run.
    let gets: Vec<(SimDuration, ClientOp)> = (0..KEYS * 3)
        .map(|i| {
            (
                SimDuration::from_micros(400),
                ClientOp::Get {
                    key: Prefill::key_name("q", i % KEYS),
                },
            )
        })
        .collect();
    // Writer client 1: continuous overwrites of a rotating subset.
    let sets: Vec<(SimDuration, ClientOp)> = (0..KEYS)
        .map(|i| {
            let key = Prefill::key_name("q", i);
            let value = UniformWorkload::value_for(&key, 300);
            (SimDuration::from_micros(900), ClientOp::Set { key, value })
        })
        .collect();
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(ScriptWorkload::new(gets)),
        Box::new(ScriptWorkload::new(sets)),
    ];
    let mut cell = Cell::build(spec, workloads);
    cell.record_history();
    bench::populate_cell(&mut cell, "q", KEYS, &SizeDist::fixed(300));
    cell
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any single backend failure, at any point in the run, with either
    /// lookup strategy: reads stay available and error-free.
    #[test]
    fn single_failure_never_breaks_reads(
        seed in 1u64..10_000,
        victim in 0usize..5,
        crash_at_ms in 5u64..120,
        use_scar in any::<bool>(),
    ) {
        let strategy = if use_scar { LookupStrategy::Scar } else { LookupStrategy::TwoR };
        let mut cell = build_cell(seed, strategy);
        cell.run_for(SimDuration::from_millis(crash_at_ms));
        cell.sim.crash(cell.backends[victim]);
        cell.run_for(SimDuration::from_secs(2));
        // Every GET completed and none errored out.
        prop_assert_eq!(cell.op_errors(), 0, "GETs failed after single crash");
        prop_assert_eq!(cell.hits() + cell.misses(), KEYS * 3);
        // Reads of populated keys were hits (write quorum survived).
        prop_assert_eq!(cell.misses(), 0, "populated keys went missing");
        let violations = check(&cell.history(), ReplicationMode::R32);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }

    /// After the failure, surviving replicas converge: for every key the
    /// live copies agree on a single version.
    #[test]
    fn survivors_converge_to_one_version(
        seed in 1u64..10_000,
        victim in 0usize..5,
    ) {
        let mut cell = build_cell(seed, LookupStrategy::TwoR);
        cell.run_for(SimDuration::from_millis(30));
        cell.sim.crash(cell.backends[victim]);
        // Let writes finish and scans repair.
        cell.run_for(SimDuration::from_secs(3));
        // Every key's live copies agree on one version, and at least two
        // of them hold it (or its newest acked SET, where one was acked).
        let h = cell.history();
        let violations = check(&h, ReplicationMode::R32);
        prop_assert!(violations.is_empty(), "{:?}", violations);
        for i in 0..KEYS {
            let hash = DefaultHasher.hash(&Prefill::key_name("q", i));
            let live = h.copies.iter().filter(|c| c.key == hash && c.live && c.version > 0);
            prop_assert!(live.count() >= 2, "key {} below quorum", i);
        }
    }

    /// A restarted (empty) backend pulls the corpus back from its cohort.
    #[test]
    fn restart_recovers_the_corpus(seed in 1u64..10_000, victim in 0usize..5) {
        let mut cell = build_cell(seed, LookupStrategy::TwoR);
        cell.run_for(SimDuration::from_millis(40));
        let node = cell.backends[victim];
        cell.sim.crash(node);
        cell.run_for(SimDuration::from_millis(50));
        let live_before = cell
            .sim
            .with_node::<BackendNode, _>(node, |n| n.store().live_entries())
            .unwrap();
        prop_assert!(live_before > 0);
        // Restart with an empty store + recovery.
        cell.restart_backend(victim, true);
        cell.run_for(SimDuration::from_secs(3));
        let recovered = cell
            .sim
            .with_node::<BackendNode, _>(node, |n| n.store().live_entries())
            .unwrap();
        // The restarted replica holds (at least most of) its shard again.
        prop_assert!(
            recovered * 10 >= live_before * 8,
            "recovered only {recovered} of {live_before} entries"
        );
    }
}
