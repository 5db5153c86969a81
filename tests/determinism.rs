//! Determinism regression tests for the simulator hot-path work: the
//! interned-metrics fast path and the slim event queue must not change a
//! single observable number. Two same-seed runs must produce bit-identical
//! full metric dumps, and writing through cached [`simnet::MetricId`]s must
//! be indistinguishable from writing through the string API.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{UniformWorkload, Workload};
use simnet::{HostCfg, Metrics, SimDuration, SimTime};
use workloads::SizeDist;

fn seeded_cell() -> Cell {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 4,
        clients_per_host: 2,
        seed: 77,
        host: HostCfg::default().no_cstates(),
        ..CellSpec::default()
    };
    spec.client.strategy = LookupStrategy::Scar;
    let wls: Vec<Box<dyn Workload>> = (0..3)
        .map(|_| {
            Box::new(UniformWorkload::mix(400, 256, 0.9, 20_000.0, u64::MAX)) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, wls);
    bench::populate_cell(&mut cell, "key-", 400, &SizeDist::fixed(256));
    cell
}

/// FNV-1a over the metric dump: cheap, dependency-free, and stable across
/// platforms (the dump is deterministic text).
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden outputs for shortened runs of the two `simperf` macro workloads.
/// These values were captured before the pooled wire-buffer conversion and
/// must never drift: buffer pooling recycles allocations but is forbidden
/// from changing a single event or metric. If an intentional simulator
/// change moves them, re-capture by running this test and copying the
/// values from the failure message.
const GOLDENS: &[(&str, u64, u64)] = &[
    ("ads_week", ADS_GOLDEN_EVENTS, ADS_GOLDEN_HASH),
    ("pony_ramp", PONY_GOLDEN_EVENTS, PONY_GOLDEN_HASH),
];
const ADS_GOLDEN_EVENTS: u64 = 252_133;
const ADS_GOLDEN_HASH: u64 = 0x7b81_2761_8072_52f6;
const PONY_GOLDEN_EVENTS: u64 = 87_646;
const PONY_GOLDEN_HASH: u64 = 0xf7c1_d2f0_43ae_826d;

#[test]
fn simperf_workloads_match_goldens() {
    type Run = (&'static str, fn() -> Cell, SimDuration);
    let runs: [Run; 2] = [
        (
            "ads_week",
            bench::simcore::ads_cell,
            SimDuration::from_millis(60),
        ),
        (
            "pony_ramp",
            bench::simcore::pony_ramp_cell,
            SimDuration::from_millis(100),
        ),
    ];
    for (name, build, span) in runs {
        let mut cell = build();
        cell.run_for(span);
        let events = cell.sim.events_processed();
        let hash = fnv1a(&cell.sim.metrics().dump());
        let (_, want_events, want_hash) = GOLDENS
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("golden for workload");
        assert!(
            events == *want_events && hash == *want_hash,
            "{name} diverged from golden: events={events} (want {want_events}) \
             metrics_fnv1a={hash:#018x} (want {want_hash:#018x})"
        );
    }
}

#[test]
fn same_seed_runs_are_metric_identical() {
    let run = || {
        let mut cell = seeded_cell();
        cell.run_for(SimDuration::from_millis(200));
        (cell.sim.events_processed(), cell.sim.metrics().dump())
    };
    let (events_a, dump_a) = run();
    let (events_b, dump_b) = run();
    assert!(events_a > 10_000, "workload too small to be a real check");
    assert_eq!(events_a, events_b, "event counts diverged between runs");
    assert_eq!(dump_a, dump_b, "metric dumps diverged between runs");
    // The dump must actually carry the cell's metrics, not be an empty
    // trivially-equal string.
    assert!(dump_a.contains("cm.get.latency_ns"));
    assert!(dump_a.contains("cm.rpc_bytes"));
}

/// The fault-injection subsystem must be as deterministic as the simulator
/// it perturbs: the same [`simnet::FaultPlan`] against the same seed must
/// reproduce every drop, delay, stall, crash, and repair — two full chaos
/// runs end with identical event counts and bit-identical metric dumps.
#[test]
fn same_fault_plan_and_seed_runs_are_metric_identical() {
    let run = || {
        let mut cell = bench::experiments::chaos::chaos_cell(321);
        cell.run_for(SimDuration::from_millis(120));
        (cell.sim.events_processed(), cell.sim.metrics().dump())
    };
    let (events_a, dump_a) = run();
    let (events_b, dump_b) = run();
    assert!(events_a > 10_000, "chaos run too small to be a real check");
    assert_eq!(events_a, events_b, "event counts diverged under faults");
    assert_eq!(
        fnv1a(&dump_a),
        fnv1a(&dump_b),
        "metric dumps diverged under faults"
    );
    assert_eq!(dump_a, dump_b);
    // The faults really fired: the 120ms horizon covers the loss and
    // partition windows.
    assert!(dump_a.contains("simnet.fault.frames_dropped"));
}

/// The adaptive controller sits on the op hot path (per-GET strategy
/// choices, explorer RNG draws, health bookkeeping) and must cost the
/// simulator none of its determinism: two same-seed chaos runs with the
/// controller enabled end with identical event counts, bit-identical
/// metric dumps, and identical per-client strategy-choice hashes.
#[test]
fn adaptive_chaos_runs_are_metric_and_choice_identical() {
    use cliquemap::client::ClientNode;

    let run = || {
        let mut cell = bench::experiments::chaos::chaos_cell_custom(
            321,
            LookupStrategy::TwoR,
            Some(bench::experiments::adaptive::adaptive_cfg()),
        );
        cell.run_for(SimDuration::from_millis(120));
        let choices: Vec<(u64, u64)> = cell
            .clients
            .clone()
            .into_iter()
            .map(|c| {
                cell.sim
                    .with_node::<ClientNode, _>(c, |n| {
                        (
                            n.adaptive_choice_hash().expect("controller on"),
                            n.adaptive_stats().expect("controller on").0,
                        )
                    })
                    .unwrap()
            })
            .collect();
        (
            cell.sim.events_processed(),
            cell.sim.metrics().dump(),
            choices,
        )
    };
    let (events_a, dump_a, choices_a) = run();
    let (events_b, dump_b, choices_b) = run();
    assert!(events_a > 10_000, "adaptive chaos run too small to check");
    assert!(
        choices_a.iter().map(|&(_, d)| d).sum::<u64>() > 0,
        "controller made no decisions"
    );
    assert_eq!(events_a, events_b, "event counts diverged with adaptive on");
    assert_eq!(dump_a, dump_b, "metric dumps diverged with adaptive on");
    assert_eq!(choices_a, choices_b, "strategy-choice streams diverged");
}

#[test]
fn handle_api_writes_are_indistinguishable_from_string_api() {
    let mut by_name = Metrics::new();
    let mut by_id = Metrics::new();

    // Pre-interning extra names must not surface anywhere in the dump.
    let _ = by_id.handle("never.written.a");
    let _ = by_id.handle("never.written.b");
    let lat = by_id.handle("op.latency_ns");
    let ops = by_id.handle("op.count");
    let qps = by_id.handle("op.qps");

    for i in 0..10_000u64 {
        let v = (i * 37) % 5_000;
        by_name.record("op.latency_ns", v);
        by_id.record_id(lat, v);
        if i % 3 == 0 {
            by_name.add("op.count", i);
            by_id.add_id(ops, i);
        }
        if i % 100 == 0 {
            let t = SimTime(i * 1_000);
            by_name.push_series("op.qps", t, i as f64 * 0.5);
            by_id.push_series_id(qps, t, i as f64 * 0.5);
        }
    }

    let dump_name = by_name.dump();
    let dump_id = by_id.dump();
    assert_eq!(dump_name, dump_id);
    assert!(!dump_id.contains("never.written"));
}

/// The 950-host / 10K-client macro cell (`cell950`) must be exactly as
/// deterministic as the small cells — two seeded runs produce identical
/// event counts and bit-identical metric dumps.
#[test]
fn cell950_seeded_runs_are_metric_identical() {
    // Keep the span tiny: the full macro cell pushes on the order of a
    // million events per simulated millisecond across 10K clients, and
    // this test runs the cell twice in a debug build. 2ms is enough
    // to cover startup, populate, ramp traffic, and tens of thousands of
    // calendar-queue window rotations.
    let span = SimDuration::from_millis(2);
    let run = || {
        let mut cell = bench::simcore::cell950();
        cell.run_for(span);
        (cell.sim.events_processed(), cell.sim.metrics().dump())
    };
    let (events_a, dump_a) = run();
    let (events_b, dump_b) = run();
    assert!(
        events_a > 20_000,
        "cell950 shrank too far to be a real check: {events_a} events"
    );
    assert_eq!(events_a, events_b, "cell950 event counts diverged");
    assert_eq!(
        fnv1a(&dump_a),
        fnv1a(&dump_b),
        "cell950 metric dumps diverged"
    );
    assert_eq!(dump_a, dump_b);
}
