//! Determinism regression tests for the simulator hot-path work: the
//! interned-metrics fast path and the slim event queue must not change a
//! single observable number. Two same-seed runs must produce bit-identical
//! full metric dumps, and writing through cached [`simnet::MetricId`]s must
//! be indistinguishable from writing through the string API.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::history::{self, Violation};
use cliquemap::workload::{OpOutcome, UniformWorkload, Workload};
use simnet::{HostCfg, SimDuration, SimTime};
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

/// Golden outputs for shortened runs of two `bench::simcore` macro cells.
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
fn simcore_cells_match_goldens() {
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

/// Doorbell batching under faults: the schedule no committed figure covers
/// (`batch` runs without faults, `chaos` without batching). Lost batch
/// frames, batch-member timeouts and the unbatched retries of batch members
/// all run here, so the client's wire path cannot be restructured without
/// these moving. The flight recorder is on (it never perturbs the schedule),
/// so the per-sub-op trace attribution is pinned too. Rows are `(strategy,
/// batched, events, fnv1a(metrics dump), fnv1a(trace dump))`; `adaptive` is
/// the controller choosing per container.
#[rustfmt::skip]
const BATCH_FAULT_GOLDENS: &[(&str, bool, u64, u64, u64)] = &[
    ("2xR", false, 200_404, 0x927a_a745_0817_98b5, 0x5f73_ef2a_67ca_67c9),
    ("2xR", true, 58_326, 0x7609_9bf6_8b54_7d4f, 0x33f6_33f3_cf86_a24f),
    ("SCAR", false, 152_697, 0x69d1_f139_ee10_6e03, 0xe76a_2686_d308_c95d),
    ("SCAR", true, 52_586, 0xb085_b625_94e1_b819, 0xe279_89c7_4276_2ed8),
    ("MSG", false, 74_285, 0xe2c3_fb13_1db1_9002, 0xae06_30a4_4c3d_b04c),
    ("MSG", true, 29_923, 0x6b21_0cf9_d898_f7c0, 0xf2c9_0bc8_2b8b_cd74),
    ("RPC", false, 90_117, 0xfd97_6735_55a2_02ee, 0xcc7c_bc64_2b45_b522),
    ("RPC", true, 31_665, 0xcd35_8c8f_b85c_0ba8, 0xdcaf_fa63_7cbc_5898),
    ("adaptive", false, 152_502, 0xdc8f_3864_5c57_5718, 0x86d5_39e2_7a82_fcad),
    ("adaptive", true, 41_017, 0x0cc2_ed17_d041_15fe, 0xb942_a99b_61c1_db0d),
];

/// The liveness failures `history::check` finds in each row of the matrix,
/// run on to 300 ms with a History: `(strategy, batched, stuck)`, ops open
/// past two op deadlines. ROADMAP 9(ii)'s lost data read strands a 2xR
/// GET (the adaptive controller's 2xR arm too); item 9 flips these to 0.
#[rustfmt::skip]
const BATCH_FAULT_STUCK: &[(&str, bool, usize)] = &[
    ("2xR", false, 311), ("2xR", true, 163),
    ("SCAR", false, 0), ("SCAR", true, 0),
    ("MSG", false, 0), ("MSG", true, 0),
    ("RPC", false, 0), ("RPC", true, 0),
    ("adaptive", false, 14), ("adaptive", true, 2),
];

fn batch_fault_cell(strategy: Option<LookupStrategy>, batched: bool, history: bool) -> Cell {
    use simnet::{Fault, FaultPlan, HostSet, LinkImpairment};
    use workloads::{ProductionGets, ProductionMultiSets};

    let keys = 300u64;
    let sizes = SizeDist::fixed(256);
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        clients_per_host: 2,
        seed: 1337,
        host: HostCfg::default().no_cstates(),
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = strategy.unwrap_or(LookupStrategy::TwoR);
    spec.client.doorbell_batching = batched;
    spec.client.adaptive = strategy
        .is_none()
        .then(bench::experiments::adaptive::adaptive_cfg);
    spec.client.attempt_timeout = SimDuration::from_micros(500);
    spec.client.retry.jitter = 0.5;
    let day = SimDuration::from_millis(40);
    let wls: Vec<Box<dyn Workload>> = vec![
        Box::new(ProductionGets::ads("k", keys, 4_000.0, day)),
        Box::new(ProductionGets::ads("k", keys, 4_000.0, day)),
        Box::new(ProductionMultiSets::ads(
            "k",
            keys,
            sizes.clone(),
            1_500.0,
            day,
        )),
    ];
    let mut cell = Cell::build(spec, wls);
    if history {
        cell.record_history();
    }
    bench::populate_cell(&mut cell, "k", keys, &sizes);
    let ms = |n: u64| SimTime(n * 1_000_000);
    let mut plan = FaultPlan::new(0xBA7C);
    plan.add(
        ms(10),
        ms(25),
        Fault::Link {
            src: HostSet::All,
            dst: HostSet::All,
            symmetric: false,
            impair: LinkImpairment::loss(0.2),
        },
    );
    plan.add(
        ms(35),
        ms(50),
        Fault::CpuDead {
            hosts: HostSet::one(cell.backend_hosts[1]),
        },
    );
    cell.sim.install_fault_plan(&plan);
    cell.sim.enable_tracing();
    cell
}

/// Every row runs twice, without and with a History: both must match the
/// goldens (captured before the History existed), so recording moves no
/// event, metric or trace byte; the History then runs on for `check`.
/// Besides the pinned stuck ops, `check` may only report `Stale` quorum
/// misses, each one a 2xR data read of a reused slot taken for a hash
/// collision (ROADMAP 2(k), pinned in `integration_cell.rs`'s
/// `a_2xr_read_of_a_reused_slot_misses_an_acked_set`): no more of them
/// than the client counted collisions.
#[test]
fn batching_under_faults_matches_goldens() {
    const STRATEGIES: [(&str, Option<LookupStrategy>); 5] = [
        ("2xR", Some(LookupStrategy::TwoR)),
        ("SCAR", Some(LookupStrategy::Scar)),
        ("MSG", Some(LookupStrategy::Msg)),
        ("RPC", Some(LookupStrategy::Rpc)),
        ("adaptive", None),
    ];
    let (mut got, mut found) = (Vec::new(), Vec::new());
    for (name, strategy) in STRATEGIES {
        for (batched, history) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut cell = batch_fault_cell(strategy, batched, history);
            // Drain per 10 ms window, as the trace figure does, so the
            // recorder's rings never wrap.
            let mut traces = String::new();
            for _ in 0..6 {
                cell.run_for(SimDuration::from_millis(10));
                traces.push_str(&simnet::obs::dump(&cell.sim.drain_traces()));
            }
            let m = cell.sim.metrics();
            assert!(
                m.counter("cm.retries") > 0 && m.counter("simnet.fault.frames_dropped") > 0,
                "{name} batched={batched}: the faults never bit"
            );
            assert!(traces.len() > 100_000, "{name}: recorder saw nothing");
            got.push((
                name,
                batched,
                cell.sim.events_processed(),
                fnv1a(&m.dump()),
                fnv1a(&traces),
            ));
            if history {
                cell.run_for(SimDuration::from_millis(240));
                let violations = history::check(&cell.history(), ReplicationMode::R32);
                let count = |f: fn(&Violation) -> bool| violations.iter().filter(|v| f(v)).count();
                let stuck = count(|v| matches!(v, Violation::Stuck(_)));
                let stale = count(|v| match v {
                    Violation::Stale(op, _) => {
                        op.done.is_some_and(|d| d.outcome == OpOutcome::Miss)
                    }
                    _ => false,
                });
                assert_eq!(stuck + stale, violations.len(), "{violations:?}");
                let collisions = cell.sim.metrics().counter("cm.get.hash_collisions");
                assert!(
                    stale as u64 <= collisions,
                    "{name}: {stale} stale, {collisions}"
                );
                found.push((name, batched, stuck));
            }
        }
    }
    assert_eq!(found, BATCH_FAULT_STUCK, "check's findings moved");
    got.dedup();
    let render: Vec<String> = got
        .iter()
        .map(|(s, b, e, h, t)| format!("    ({s:?}, {b}, {e}, {h:#018x}, {t:#018x}),"))
        .collect();
    assert!(
        got == BATCH_FAULT_GOLDENS,
        "batching x faults diverged from goldens; measured:\n{}",
        render.join("\n")
    );
}
