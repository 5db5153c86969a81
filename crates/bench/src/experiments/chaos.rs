//! Chaos: client-observed availability under a deterministic fault plan.
//!
//! The production counterpart of f13/f14: instead of one clean crash, a
//! seeded [`FaultPlan`] walks the cell through the failure regimes §5
//! hardened CliqueMap against — packet loss, an asymmetric partition,
//! CPU stragglers, an RMA-alive/CPU-dead gray failure, and a crash with
//! reviver-driven restart — and the timeline reports what *clients* see
//! in each 10ms window: availability (completed ops that didn't error),
//! GET/SET tail latency, attempt timeouts, and repair traffic.
//!
//! Expected signatures, asserted by the tests:
//! * loss → attempt timeouts and retries, availability barely moves
//!   (retries absorb a 30% loss rate),
//! * partition of two backend hosts → real availability loss (half the
//!   replica triples drop below read quorum),
//! * stragglers on two backend hosts → SET tail inflation only (GETs are
//!   hardware RMA and never touch the slow cores),
//! * CPU-dead → RPC timeouts climb while GET availability holds: the RMA
//!   read window keeps serving from a host whose every process is frozen,
//! * crash/restart → repair byte burst, then full recovery: availability
//!   in the final windows is back to (at least) the pre-fault level.

use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use rma::TransportKind;
use simnet::{Fault, FaultPlan, HostSet, LinkImpairment, SimDuration, SimTime};
use workloads::{MixWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{checkpoint_media, populate_cell, Report, WindowSampler};

const KEYS: u64 = 2_000;
const CLIENTS: usize = 10;
/// Index of the backend the plan crashes and restarts.
const VICTIM: usize = 3;
/// GET latency SLO threshold: completions above this burn error budget.
pub const SLO_GET_NS: u64 = 20_000;
/// Allowed breach fraction (a 99%-under-20µs SLO).
pub const SLO_BUDGET: f64 = 0.01;

/// Millisecond marks of the schedule (window ends, for reporting/tests).
pub const MARKS: &[(u64, &str)] = &[
    (30, "loss"),
    (55, "heal"),
    (80, "partition"),
    (105, "heal"),
    (130, "straggler"),
    (155, "heal"),
    (180, "cpu_dead"),
    (205, "heal"),
    (230, "crash"),
    (255, "restart"),
];

fn ms(n: u64) -> SimTime {
    SimTime(n * 1_000_000)
}

/// The chaos schedule, expressed against a built cell's host/node layout.
pub fn chaos_plan(cell: &Cell) -> FaultPlan {
    let bh = &cell.backend_hosts;
    let mut plan = FaultPlan::new(0xCA05);
    // 30–55ms: 30% loss on every fabric path.
    plan.add(
        ms(30),
        ms(55),
        Fault::Link {
            src: HostSet::All,
            dst: HostSet::All,
            symmetric: false,
            impair: LinkImpairment::loss(0.30),
        },
    );
    // 80–105ms: asymmetric partition — client requests toward backends 0
    // and 1 vanish (their replies would flow, but they never hear us).
    plan.add(
        ms(80),
        ms(105),
        Fault::Partition {
            a: HostSet::of(&cell.client_hosts),
            b: HostSet::of(&[bh[0], bh[1]]),
            symmetric: false,
        },
    );
    // 130–155ms: gray failure — backends 0 and 1 run 8x slower.
    plan.add(
        ms(130),
        ms(155),
        Fault::CpuSlow {
            hosts: HostSet::of(&[bh[0], bh[1]]),
            multiplier: 8.0,
        },
    );
    // 180–205ms: backend 2's host is CPU-dead; its RMA window keeps serving.
    plan.add(
        ms(180),
        ms(205),
        Fault::CpuDead {
            hosts: HostSet::one(bh[2]),
        },
    );
    // 230ms: crash backend 3; 255ms: the reviver restarts it with an empty
    // store that recovers from its cohort.
    plan.add(
        ms(230),
        ms(255),
        Fault::Crash {
            node: cell.backends[VICTIM],
        },
    );
    plan
}

/// Build the chaos cell with the plan installed and the restart reviver
/// armed. Hardware RMA on both sides so the CPU-dead window exercises the
/// RMA-alive regime; jittered retries so loss doesn't synchronize clients.
pub fn chaos_cell(seed: u64) -> Cell {
    chaos_cell_custom(seed, LookupStrategy::TwoR, None)
}

/// Like [`chaos_cell`] but with a chosen static GET strategy and an
/// optional per-client adaptive controller — the comparison grid the
/// `adaptive` figure runs the schedule over.
pub fn chaos_cell_custom(
    seed: u64,
    strategy: LookupStrategy,
    adaptive: Option<adaptive::ControllerCfg>,
) -> Cell {
    build_chaos_cell(seed, strategy, adaptive, false)
}

/// The chaos cell with per-backend durability: every backend group-commits
/// a WAL, and the reviver hands the restarted victim its surviving media
/// so the crash window exercises warm (replay + delta-repair) recovery
/// *while the fault schedule is still running* — the combination the
/// `restart` figure's clean-room timeline never covers.
pub fn chaos_cell_durable(seed: u64) -> Cell {
    build_chaos_cell(seed, LookupStrategy::TwoR, None, true)
}

fn build_chaos_cell(
    seed: u64,
    strategy: LookupStrategy,
    adaptive: Option<adaptive::ControllerCfg>,
    durable: bool,
) -> Cell {
    let mut spec: CellSpec = base_spec(strategy, ReplicationMode::R32, 4);
    spec.client.adaptive = adaptive;
    if durable {
        spec.durability = Some(DurabilitySpec::default());
    }
    spec.seed = seed;
    spec.num_spares = 1;
    spec.clients_per_host = 2;
    spec.transport = TransportKind::Rdma;
    // Short attempt timeouts so impairments surface at this timescale, and
    // decorrelated retries so every heal isn't greeted by a retry storm.
    spec.client.attempt_timeout = SimDuration::from_micros(500);
    spec.client.retry.jitter = 0.5;
    // Periodic cohort scans so divergence introduced by the fault windows
    // is repaired, not just papered over by quorums.
    spec.backend.scan_interval = Some(SimDuration::from_millis(20));
    let workloads: Vec<Box<dyn Workload>> = (0..CLIENTS)
        .map(|_| {
            Box::new(MixWorkload::new(
                "k",
                KEYS,
                0.2,
                0.8,
                SizeDist::fixed(512),
                10_000.0,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(512));
    if durable {
        // The victim had been up long before this 340ms window, as in the
        // restart figure's warm mode.
        checkpoint_media(&mut cell, VICTIM);
    }
    // Round-trip the plan through its text codec before installing: the
    // serialized form is the contract (a chaos run is its plan file).
    let plan = chaos_plan(&cell);
    let plan = FaultPlan::decode(&plan.encode()).expect("fault plan codec roundtrip");
    cell.sim.install_fault_plan(&plan);
    let revive = cell.backend_reviver(VICTIM, true);
    cell.sim
        .set_fault_reviver(move |_| Some(Box::new(revive())));
    cell
}

/// Run the chaos timeline and report per-window client-observed health.
pub fn run() -> Report {
    let mut report = Report::new(
        "chaos",
        "Client-observed availability under a deterministic chaos schedule",
    );
    report.line(
        "plan: loss=30-55ms partition=80-105ms straggler=130-155ms \
         cpu_dead=180-205ms crash=230ms restart=255ms"
            .to_string(),
    );
    report.line(format!(
        "{:>6} {:>10} {:>7} {:>7} {:>11} {:>11} {:>9} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "t_ms",
        "completed",
        "errors",
        "avail",
        "get_p99_us",
        "set_p99_us",
        "timeouts",
        "rpc_MB_s",
        "repairs",
        "rpc_drop",
        "rma_drop",
        "slo_burn",
        "event"
    ));
    let mut cell = chaos_cell(99);
    let window = SimDuration::from_millis(10);
    let total = SimDuration::from_millis(340);
    let mut sampler = WindowSampler::new(
        &["cm.get.latency_ns", "cm.set.latency_ns"],
        &[
            "cm.get.completed",
            "cm.set.completed",
            "cm.op_errors",
            "cm.client.rma_timeouts",
            "cm.client.rpc_timeouts",
            "cm.rpc_bytes",
            "cm.backend.recovered_entries",
            "cm.backend.rpc_dropped_cpu_dead",
            "cm.backend.rma_dropped_cpu_dead",
        ],
    );
    let burn = obs::BurnRate::new(SLO_BUDGET);
    let windows = total.nanos() / window.nanos();
    for w in 0..windows {
        let end = SimTime((w + 1) * window.nanos());
        cell.sim.run_until(end);
        // SLO breach accounting must read the GET histogram before the
        // sampler clears it for the next window.
        let (get_ops, breaches) = cell
            .sim
            .metrics()
            .hist_ref("cm.get.latency_ns")
            .map(|h| (h.count(), h.count_above(SLO_GET_NS)))
            .unwrap_or((0, 0));
        let snap = sampler.sample(&mut cell);
        let completed = snap.counters[0].1 + snap.counters[1].1;
        let errors = snap.counters[2].1;
        let avail = if completed == 0 {
            1.0
        } else {
            1.0 - errors as f64 / completed as f64
        };
        let timeouts = snap.counters[3].1 + snap.counters[4].1;
        let mbps = snap.counters[5].1 as f64 / window.as_secs_f64() / 1e6;
        let t_ms = (w + 1) * window.nanos() / 1_000_000;
        let event = MARKS
            .iter()
            .find(|(t, _)| *t + 10 > t_ms && *t <= t_ms)
            .map(|(_, e)| *e)
            .unwrap_or("-");
        report.line(format!(
            "{:>6} {:>10} {:>7} {:>7.4} {:>11.1} {:>11.1} {:>9} {:>9.2} {:>8} {:>9} {:>9} {:>9.2} {:>9}",
            t_ms,
            completed,
            errors,
            avail,
            snap.hists[0].1[2] as f64 / 1e3,
            snap.hists[1].1[2] as f64 / 1e3,
            timeouts,
            mbps,
            snap.counters[6].1,
            snap.counters[7].1,
            snap.counters[8].1,
            burn.rate(get_ops, breaches),
            event
        ));
    }
    let m = cell.sim.metrics();
    report.line(format!(
        "frames_dropped={} crashes={} restarts={} recovered_entries={} repairs={} retries={}",
        m.counter("simnet.fault.frames_dropped"),
        m.counter("simnet.fault.crashes"),
        m.counter("simnet.fault.restarts"),
        m.counter("cm.backend.recovered_entries"),
        m.counter("cm.backend.repairs"),
        m.counter("cm.retries"),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cliquemap::hash::{DefaultHasher, KeyHasher};
    use cliquemap::history::{self, value_hash};
    use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload};

    #[derive(Debug, Clone, Copy)]
    struct Row {
        t_ms: u64,
        completed: u64,
        avail: f64,
        get_p99_us: f64,
        set_p99_us: f64,
        timeouts: u64,
        repairs: u64,
        rpc_drop: u64,
        rma_drop: u64,
        burn: f64,
    }

    fn rows(r: &Report) -> Vec<Row> {
        r.lines
            .iter()
            .filter_map(|l| {
                let c: Vec<&str> = l.split_whitespace().collect();
                if c.len() < 12 {
                    return None;
                }
                Some(Row {
                    t_ms: c[0].parse().ok()?,
                    completed: c[1].parse().ok()?,
                    avail: c[3].parse().ok()?,
                    get_p99_us: c[4].parse().ok()?,
                    set_p99_us: c[5].parse().ok()?,
                    timeouts: c[6].parse().ok()?,
                    repairs: c[8].parse().ok()?,
                    rpc_drop: c[9].parse().ok()?,
                    rma_drop: c[10].parse().ok()?,
                    burn: c[11].parse().ok()?,
                })
            })
            .collect()
    }

    fn in_window(rows: &[Row], from_ms: u64, to_ms: u64) -> Vec<Row> {
        // Rows fully inside (from, to]: a row at t covers (t-10, t].
        rows.iter()
            .copied()
            .filter(|r| r.t_ms > from_ms + 10 && r.t_ms <= to_ms)
            .collect()
    }

    #[test]
    fn chaos_windows_show_their_signatures_and_the_cell_recovers() {
        let r = run();
        let rows = rows(&r);
        assert_eq!(rows.len(), 34, "34 windows of 10ms");
        let pre = in_window(&rows, 0, 30);
        assert!(pre.iter().all(|r| r.completed > 500), "warmup too idle");
        let pre_avail = pre.iter().map(|r| r.avail).fold(1.0, f64::min);
        let pre_timeouts: u64 = pre.iter().map(|r| r.timeouts).sum();
        let pre_set_p99 = pre.iter().map(|r| r.set_p99_us).fold(0.0, f64::max);

        // Loss window: retries absorb the loss (availability holds) but
        // attempt timeouts spike.
        let loss = in_window(&rows, 30, 55);
        let loss_timeouts: u64 = loss.iter().map(|r| r.timeouts).sum();
        assert!(
            loss_timeouts > pre_timeouts + 50,
            "30% loss produced no timeout spike: {loss_timeouts} vs {pre_timeouts}"
        );

        // Partition: half the replica triples lose read quorum.
        let part = in_window(&rows, 80, 105);
        let part_avail = part.iter().map(|r| r.avail).fold(1.0, f64::min);
        assert!(
            part_avail < 0.9,
            "partition did not dent availability: {part_avail}"
        );

        // Stragglers: SET tail inflates; GETs are hardware RMA and immune.
        let slow = in_window(&rows, 130, 155);
        let slow_set_p99 = slow.iter().map(|r| r.set_p99_us).fold(0.0, f64::max);
        assert!(
            slow_set_p99 > pre_set_p99 * 2.0,
            "straggler did not inflate SET p99: {pre_set_p99} -> {slow_set_p99}"
        );
        let pre_get_p99 = pre.iter().map(|r| r.get_p99_us).fold(0.0, f64::max);
        let slow_get_p99 = slow.iter().map(|r| r.get_p99_us).fold(0.0, f64::max);
        assert!(
            slow_get_p99 < pre_get_p99 * 3.0,
            "one-sided GETs should not see the slow cores: {pre_get_p99} -> {slow_get_p99}"
        );

        // CPU-dead: the gray-failure claim — RPC timeouts climb while
        // client-observed availability stays high, because the dead host's
        // RMA window keeps serving GETs.
        let dead = in_window(&rows, 180, 205);
        let dead_timeouts: u64 = dead.iter().map(|r| r.timeouts).sum();
        let dead_avail = dead.iter().map(|r| r.avail).fold(1.0, f64::min);
        assert!(
            dead_timeouts > pre_timeouts,
            "CPU-dead produced no timeouts"
        );
        assert!(
            dead_avail > 0.99,
            "RMA-alive host should keep availability high: {dead_avail}"
        );
        // The backend's drop counters localize the gray failure: RPC frames
        // fall on the frozen host only inside the CPU-dead window, and
        // hardware RMA never drops (that's the gray part).
        let dead_rpc_drops: u64 = dead.iter().map(|r| r.rpc_drop).sum();
        assert!(dead_rpc_drops > 0, "CPU-dead window dropped no RPC frames");
        // Bounded, not exact: a frame in flight when the fault edge fires
        // can be charged to the adjacent sampling window (the drop counter
        // is read at 10ms boundaries, the fault toggles mid-window), so a
        // handful of boundary drops are legitimate. Anything beyond that
        // means the fault leaked outside its schedule.
        let outside_drops: u64 = rows
            .iter()
            .filter(|r| r.t_ms <= 180 || r.t_ms > 210)
            .map(|r| r.rpc_drop + r.rma_drop)
            .sum();
        assert!(
            outside_drops <= 5,
            "cpu_dead drops leaked outside the window: {outside_drops}"
        );
        // Same bounded form for the headline gray-failure physics: hardware
        // RMA serves from the frozen host, so at most an edge frame or two
        // may ever land in the RMA drop counter over the whole timeline.
        let rma_drops: u64 = rows.iter().map(|r| r.rma_drop).sum();
        assert!(
            rma_drops <= 2,
            "hardware RMA must survive CPU death: {rma_drops} drops"
        );
        // SLO burn: pre-fault windows stay within budget; the gray window
        // burns it (GET p99 blows through the 20µs threshold).
        let pre_burn = pre.iter().map(|r| r.burn).fold(0.0, f64::max);
        let dead_burn = dead.iter().map(|r| r.burn).fold(0.0, f64::max);
        assert!(pre_burn < 1.0, "pre-fault burn over budget: {pre_burn}");
        assert!(
            dead_burn > 1.0 && dead_burn > pre_burn,
            "gray window should burn the SLO budget: pre {pre_burn} dead {dead_burn}"
        );

        // Crash + restart: the revived replica pulls its shard back from
        // the cohort — repair traffic appears only after the restart.
        let before_crash: u64 = in_window(&rows, 0, 230).iter().map(|r| r.repairs).sum();
        assert_eq!(before_crash, 0, "recovery repairs before any crash");
        let after_restart: u64 = in_window(&rows, 245, 340).iter().map(|r| r.repairs).sum();
        assert!(
            after_restart > 100,
            "restart pulled too few entries: {after_restart}"
        );

        // Recovery: availability in the final windows is back to at least
        // the pre-fault level.
        let tail = in_window(&rows, 310, 340);
        let tail_avail = tail.iter().map(|r| r.avail).fold(1.0, f64::min);
        assert!(
            tail_avail >= pre_avail,
            "did not recover: pre {pre_avail} tail {tail_avail}"
        );

        // The summary line proves the plan actually fired end to end.
        let tail_line = r.lines.last().unwrap();
        assert!(tail_line.contains("crashes=1"), "{tail_line}");
        assert!(tail_line.contains("restarts=1"), "{tail_line}");
    }

    /// Seeded soak: every client owns one key and performs SET v1, SET v2
    /// (mid-chaos), then a late GET. Quorum safety demands that an acked
    /// SET is never lost — the late GET hits — and never read stale after
    /// repair converges: a quorum of the key's replicas must hold the v2
    /// bytes, so intersecting read quorums cannot return v1.
    #[test]
    fn seeded_soak_preserves_acked_sets_through_chaos() {
        let mut spec: CellSpec = base_spec(LookupStrategy::TwoR, ReplicationMode::R32, 4);
        spec.seed = 4242;
        spec.clients_per_host = 2;
        spec.transport = TransportKind::Rdma;
        spec.client.attempt_timeout = SimDuration::from_micros(500);
        spec.client.retry.jitter = 0.5;
        spec.backend.scan_interval = Some(SimDuration::from_millis(10));
        let clients = 6usize;
        let key = |c: usize| Bytes::from(format!("soak-{c}"));
        let v2 = |c: usize| Bytes::from(format!("value-2-of-{c}"));
        let workloads: Vec<Box<dyn Workload>> = (0..clients)
            .map(|c| {
                // Issue-relative delays: SET v1 at 5ms (clean), SET v2 at
                // 45ms (inside the chaos), GET at 200ms (after repairs).
                Box::new(ScriptWorkload::new(vec![
                    (
                        SimDuration::from_micros(5_000 + 50 * c as u64),
                        ClientOp::Set {
                            key: key(c),
                            value: Bytes::from(format!("value-1-of-{c}")),
                        },
                    ),
                    (
                        SimDuration::from_millis(40),
                        ClientOp::Set {
                            key: key(c),
                            value: v2(c),
                        },
                    ),
                    (SimDuration::from_millis(155), ClientOp::Get { key: key(c) }),
                ])) as Box<dyn Workload>
            })
            .collect();
        let mut cell = Cell::build(spec, workloads);
        cell.record_history();
        let bh = cell.backend_hosts.clone();
        let mut plan = FaultPlan::new(0x50AC);
        plan.add(
            ms(10),
            ms(30),
            Fault::Link {
                src: HostSet::All,
                dst: HostSet::All,
                symmetric: false,
                impair: LinkImpairment::loss(0.4),
            },
        );
        plan.add(
            ms(40),
            ms(60),
            Fault::Partition {
                a: HostSet::of(&cell.client_hosts),
                b: HostSet::of(&[bh[0], bh[1]]),
                symmetric: false,
            },
        );
        plan.add(
            ms(70),
            ms(90),
            Fault::Crash {
                node: cell.backends[2],
            },
        );
        cell.sim.install_fault_plan(&plan);
        let revive = cell.backend_reviver(2, true);
        cell.sim
            .set_fault_reviver(move |_| Some(Box::new(revive())));
        cell.run_for(SimDuration::from_millis(260));

        // No acked SET lost or read stale, replicas converged: a write
        // quorum of every key's replicas holds its newest acked SET.
        let h = cell.history();
        assert_eq!(history::check(&h, ReplicationMode::R32), []);
        for c in 0..clients {
            let done = h.outcomes(cell.clients[c].0);
            assert_eq!(done.len(), 3, "client {c} outcomes: {done:?}");
            // The mid-chaos SET acked: the late GET must hit, and a write
            // quorum holds its bytes, whenever it completed (`check` waits
            // two scan intervals after it).
            if done[1] == OpOutcome::Done {
                assert_eq!(done[2], OpOutcome::Hit, "client {c}: acked SET lost");
                let (hash, v2) = (DefaultHasher.hash(&key(c)), Some(value_hash(&v2(c))));
                let holding = h
                    .copies
                    .iter()
                    .filter(|k| k.key == hash && k.live && k.value == v2);
                let holding = holding.count();
                assert!(holding >= 2, "client {c}: only {holding} replicas hold v2");
            }
        }
        // The chaos actually happened: frames were dropped and the crashed
        // backend came back.
        assert!(cell.sim.metrics().counter("simnet.fault.frames_dropped") > 0);
        assert_eq!(cell.sim.metrics().counter("simnet.fault.restarts"), 1);
    }

    /// Durable chaos act: the crash/restart leg of the schedule with
    /// per-backend WALs switched on. The revived victim must warm-recover
    /// — replay its surviving media, then *delta*-repair only what it
    /// missed while down — while the rest of the fault schedule is still
    /// running, and the group-commit WAL must surface as an attributed
    /// pipeline stage on the durable SET path (the obs contract for the
    /// new `wal` stage, asserted end to end here rather than in a unit
    /// test against a hand-built trace).
    #[test]
    fn durable_chaos_act_replays_wal_and_delta_repairs() {
        use obs::attribute;
        use obs::event::stage;

        let total = SimDuration::from_millis(340);

        // Cold baseline: the stock chaos cell, no durability anywhere.
        let mut cold = chaos_cell(99);
        cold.run_for(total);
        let cold_crashes = cold.sim.metrics().counter("simnet.fault.crashes");
        let cold_restarts = cold.sim.metrics().counter("simnet.fault.restarts");
        let cold_fsyncs = cold.sim.metrics().counter("cm.backend.wal_fsyncs");
        let cold_bytes = cold.sim.metrics().counter("cm.backend.recovery_bytes");
        assert_eq!(cold_crashes, 1);
        assert_eq!(cold_restarts, 1);
        assert_eq!(cold_fsyncs, 0, "cold cell must not touch a WAL");
        assert!(cold_bytes > 0, "cold restart repaired nothing");

        // Warm: same seed, same schedule, durability on everywhere and the
        // victim's surviving media handed to the reviver.
        let mut warm = chaos_cell_durable(99);
        warm.sim.enable_tracing();
        let window = SimDuration::from_millis(10);
        let windows = total.nanos() / window.nanos();
        let mut wal_ns = 0u64;
        for _ in 0..windows {
            warm.run_for(window);
            for t in warm.sim.drain_traces() {
                wal_ns += attribute(&t).stages[stage::WAL as usize];
            }
        }
        let m = warm.sim.metrics();
        assert_eq!(m.counter("simnet.fault.crashes"), 1);
        assert_eq!(m.counter("simnet.fault.restarts"), 1);
        assert!(
            m.counter("cm.backend.wal_fsyncs") > 0,
            "durable backends group-committed nothing"
        );
        assert!(
            m.counter("cm.backend.wal_replayed") > 0,
            "revived victim replayed no WAL records"
        );
        // Delta, not full, repair: replay already restored the checkpoint
        // plus the fsynced WAL tail, so the post-restart Pull scan moves a
        // fraction of the cold cell's bytes even though loss and straggler
        // faults churned the corpus while the victim was down.
        let warm_bytes = m.counter("cm.backend.recovery_bytes");
        assert!(
            warm_bytes < cold_bytes / 2,
            "warm recovery was not a delta repair: {warm_bytes} vs cold {cold_bytes}"
        );
        // The WAL is a real attributed stage of the durable SET pipeline.
        assert!(wal_ns > 0, "no op trace attributed time to the WAL stage");
    }
}
