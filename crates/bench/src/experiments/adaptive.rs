//! Adaptive: online strategy selection + SLO-driven gray-failure evasion.
//!
//! Two parts, both against the same four-backend R=3.2 cell family:
//!
//! * **Load ramp** — for each offered load, run the four static GET
//!   strategies (2xR, SCAR, MSG, RPC) and the adaptive controller in
//!   otherwise-identical cells. The controller's epsilon-greedy explorer
//!   sweeps every arm once, then converges on whichever arm its online
//!   EWMA of latency + model-derived client CPU/op scores best — so its
//!   row should track the best static row at every load point without
//!   being told which one that is.
//!
//! * **Chaos schedule** — the `chaos` figure's deterministic fault plan,
//!   run per variant. The adaptive cell additionally drains the flight
//!   recorder each 10ms window and feeds the postmortem verdict
//!   (`server_cpu_dead:h3`-style) to every client as a health hint, on
//!   top of the clients' own per-replica timeout streaks. The headline:
//!   the CPU-dead gray window's RPC timeout spike collapses, because
//!   demoted replicas drop out of mutation fan-out (floored at a write
//!   quorum) and CPU-path GET consult sets (floored at a read quorum),
//!   while RMA reads keep flowing to the dead host's still-alive NIC.
//!   What remains is a bounded detection transient — the ops already in
//!   flight during the first attempt-timeout after death, before the
//!   earliest possible signal (the first expiry) exists — plus a trickle
//!   of deliberate probes.
//!
//! With `CellSpec::adaptive = None` (every other figure) none of this
//! machinery exists: committed CSVs regenerate byte-identically.

use adaptive::ControllerCfg;
use cliquemap::cell::Cell;
use cliquemap::client::{ClientNode, LookupStrategy};
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use obs::{Postmortem, Verdict};
use simnet::{SimDuration, SimTime};
use workloads::{MixWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::experiments::chaos::{chaos_cell_custom, MARKS};
use crate::harness::{pctl_us, populate_cell, Report, WindowSampler};

const KEYS: u64 = 2_000;
const CLIENTS: usize = 10;
/// Offered load per client (ops/s) at each ramp point.
pub const RAMP_LOADS: &[f64] = &[5_000.0, 20_000.0, 60_000.0];
/// The four static comparison arms, in report order.
pub const STATICS: &[(&str, LookupStrategy)] = &[
    ("2xR", LookupStrategy::TwoR),
    ("scar", LookupStrategy::Scar),
    ("msg", LookupStrategy::Msg),
    ("rpc", LookupStrategy::Rpc),
];

/// The controller configuration both parts run. Relative to the defaults:
/// demote on the first timeout and promote on the first successful probe.
/// That is deliberately trigger-happy — the fault windows are only 25ms
/// long, and with path-aware health the cost of a false demotion is tiny
/// (mutations skip the replica until the next probe; RMA reads are
/// untouched), while every timeout *not* avoided is a 500µs stall.
pub fn adaptive_cfg() -> ControllerCfg {
    ControllerCfg {
        demote_after: 1,
        promote_after: 1,
        ..ControllerCfg::default()
    }
}

/// One measured ramp cell.
#[derive(Debug, Clone)]
pub struct RampPoint {
    /// Variant name ("2xR", ..., "adaptive").
    pub name: &'static str,
    /// GET p50/p99 over the measurement window, microseconds.
    pub get_p50_us: f64,
    /// See `get_p50_us`.
    pub get_p99_us: f64,
    /// Client CPU per completed op over the window.
    pub client_ns_per_op: f64,
    /// Ops completed in the window.
    pub completed: u64,
    /// Adaptive-only: (decisions, per-arm counts, explored).
    pub choices: Option<(u64, [u64; 4], u64)>,
}

fn ramp_cell(strategy: LookupStrategy, adaptive: bool, rate: f64) -> Cell {
    // Default (Pony Express) transport: all four arms are real contenders
    // here — SCAR exists only on the programmable NIC. The chaos half runs
    // on RDMA instead (the gray-failure regime), where the controller
    // masks the SCAR arm out at construction.
    let mut spec = base_spec(strategy, ReplicationMode::R32, 4);
    spec.seed = 2024;
    spec.clients_per_host = 2;
    if adaptive {
        spec.client.adaptive = Some(adaptive_cfg());
    }
    let workloads: Vec<Box<dyn Workload>> = (0..CLIENTS)
        .map(|_| {
            Box::new(MixWorkload::new(
                "k",
                KEYS,
                0.2,
                0.8,
                SizeDist::fixed(512),
                rate,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(512));
    cell
}

/// Run one ramp cell: 30ms warmup (exploration sweep + CONNECTs), then a
/// 100ms measurement window.
pub fn measure_ramp(name: &'static str, strategy: LookupStrategy, rate: f64) -> RampPoint {
    let adaptive = name == "adaptive";
    let mut cell = ramp_cell(strategy, adaptive, rate);
    cell.run_for(SimDuration::from_millis(30));
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    let ops = |cell: &Cell| {
        cell.sim.metrics().counter("cm.get.completed")
            + cell.sim.metrics().counter("cm.set.completed")
    };
    let ops0 = ops(&cell);
    let cpu0 = cell.sim.metrics().counter("cm.client.cpu_ns");
    cell.run_for(SimDuration::from_millis(100));
    let completed = ops(&cell) - ops0;
    let cpu = cell.sim.metrics().counter("cm.client.cpu_ns") - cpu0;
    let choices = if adaptive {
        let mut decisions = 0u64;
        let mut counts = [0u64; 4];
        let mut explored = 0u64;
        for &c in &cell.clients {
            if let Some((d, k, e, _, _)) = cell
                .sim
                .with_node::<ClientNode, _>(c, |n| n.adaptive_stats())
                .flatten()
            {
                decisions += d;
                explored += e;
                for (a, b) in counts.iter_mut().zip(k) {
                    *a += b;
                }
            }
        }
        Some((decisions, counts, explored))
    } else {
        None
    };
    RampPoint {
        name,
        get_p50_us: pctl_us(&cell, "cm.get.latency_ns", 50.0),
        get_p99_us: pctl_us(&cell, "cm.get.latency_ns", 99.0),
        client_ns_per_op: cpu as f64 / completed.max(1) as f64,
        completed,
        choices,
    }
}

/// All variants at one load.
pub fn ramp_at(rate: f64) -> Vec<RampPoint> {
    let mut out: Vec<RampPoint> = STATICS
        .iter()
        .map(|&(name, s)| measure_ramp(name, s, rate))
        .collect();
    out.push(measure_ramp("adaptive", LookupStrategy::TwoR, rate));
    out
}

/// One chaos run's per-window health, per variant.
#[derive(Debug, Clone)]
pub struct ChaosVariant {
    /// Variant name.
    pub name: &'static str,
    /// Per 10ms window: end t_ms, attempt timeouts, availability.
    pub windows: Vec<(u64, u64, f64)>,
    /// Timeouts inside the CPU-dead gray window (180–205ms, counted over
    /// the (180, 210] sampling windows so expiries straddling the heal
    /// edge are included).
    pub gray_timeouts: u64,
    /// The detection transient: timeouts in the first gray sampling window
    /// ((180, 190]). For the adaptive cell this is dominated by ops
    /// already in flight during the first attempt-timeout after death —
    /// the floor no client-side detector can beat, because the earliest
    /// possible signal *is* the first expiry.
    pub gray_detect: u64,
    /// Steady-state gray timeouts ((190, 210]): what the cell pays per
    /// window once detection has had one timeout's worth of time to act.
    pub gray_steady: u64,
    /// Adaptive-only: (decisions, per-arm counts, explored, demotions,
    /// probes) summed over clients, plus verdict hints fed.
    pub stats: Option<(u64, [u64; 4], u64, u64, u64, u64)>,
}

/// Run the chaos schedule for one variant. The adaptive cell drains the
/// flight recorder each window and broadcasts `server_cpu_dead` verdicts
/// to every client as health hints — the control-plane half of the
/// gray-failure evasion loop.
pub fn run_chaos_variant(name: &'static str, strategy: LookupStrategy) -> ChaosVariant {
    let adaptive = name == "adaptive";
    let mut cell = chaos_cell_custom(99, strategy, adaptive.then(adaptive_cfg));
    if adaptive {
        cell.sim.enable_tracing();
    }
    let window = SimDuration::from_millis(10);
    let total = SimDuration::from_millis(340);
    let mut sampler = WindowSampler::new(
        &[],
        &[
            "cm.get.completed",
            "cm.set.completed",
            "cm.op_errors",
            "cm.client.rma_timeouts",
            "cm.client.rpc_timeouts",
        ],
    );
    let mut windows = Vec::new();
    let mut hints = 0u64;
    for w in 0..total.nanos() / window.nanos() {
        let end = SimTime((w + 1) * window.nanos());
        cell.sim.run_until(end);
        if adaptive {
            // Postmortem loop: attribute the window's drained traces and
            // turn a server-CPU-death verdict into a health hint on every
            // client. Timeout streaks usually demote the replica first;
            // the verdict is the control-plane confirmation that also
            // catches clients that haven't touched the dead host yet.
            let traces = cell.sim.drain_traces();
            let attrs: Vec<obs::Attribution> = traces.iter().map(obs::attribute).collect();
            let pm = Postmortem::build(&attrs, 3);
            if let Verdict::ServerCpuDead(h) = pm.verdict() {
                if let Some(i) = cell.backend_hosts.iter().position(|bh| bh.0 == h) {
                    let dead = cell.backends[i].0;
                    for &c in &cell.clients.clone() {
                        cell.sim
                            .with_node::<ClientNode, _>(c, |n| n.adaptive_hint_unhealthy(dead));
                        hints += 1;
                    }
                }
            }
        }
        let snap = sampler.sample(&mut cell);
        let completed = snap.counters[0].1 + snap.counters[1].1;
        let errors = snap.counters[2].1;
        let avail = if completed == 0 {
            1.0
        } else {
            1.0 - errors as f64 / completed as f64
        };
        let timeouts = snap.counters[3].1 + snap.counters[4].1;
        let t_ms = (w + 1) * window.nanos() / 1_000_000;
        windows.push((t_ms, timeouts, avail));
    }
    let sum_in = |from: u64, to: u64| {
        windows
            .iter()
            .filter(|(t, _, _)| *t > from && *t <= to)
            .map(|(_, n, _)| *n)
            .sum::<u64>()
    };
    let gray_timeouts = sum_in(180, 210);
    let gray_detect = sum_in(180, 190);
    let gray_steady = sum_in(190, 210);
    let stats = if adaptive {
        let mut agg = (0u64, [0u64; 4], 0u64, 0u64, 0u64, hints);
        for &c in &cell.clients {
            if let Some((d, k, e, dem, p)) = cell
                .sim
                .with_node::<ClientNode, _>(c, |n| n.adaptive_stats())
                .flatten()
            {
                agg.0 += d;
                for (a, b) in agg.1.iter_mut().zip(k) {
                    *a += b;
                }
                agg.2 += e;
                agg.3 += dem;
                agg.4 += p;
            }
        }
        Some(agg)
    } else {
        None
    };
    ChaosVariant {
        name,
        windows,
        gray_timeouts,
        gray_detect,
        gray_steady,
        stats,
    }
}

/// Run all five chaos variants.
pub fn chaos_grid() -> Vec<ChaosVariant> {
    let mut out: Vec<ChaosVariant> = STATICS
        .iter()
        .map(|&(name, s)| run_chaos_variant(name, s))
        .collect();
    out.push(run_chaos_variant("adaptive", LookupStrategy::TwoR));
    out
}

/// Regenerate the adaptive figure.
pub fn run() -> Report {
    let mut report = Report::new(
        "adaptive",
        "Online strategy selection vs static arms, and gray-failure evasion under chaos",
    );
    report.line(format!(
        "{:>10} {:>9} {:>10} {:>10} {:>8} {:>10}",
        "load_ops_s", "variant", "get_p50_us", "get_p99_us", "cpu_ns_op", "completed"
    ));
    for &rate in RAMP_LOADS {
        for p in ramp_at(rate) {
            report.line(format!(
                "{:>10} {:>9} {:>10.1} {:>10.1} {:>8.0} {:>10}",
                rate as u64, p.name, p.get_p50_us, p.get_p99_us, p.client_ns_per_op, p.completed
            ));
            if let Some((decisions, counts, explored)) = p.choices {
                report.line(format!(
                    "load={} decisions={} arms=2xR:{},scar:{},msg:{},rpc:{} explored={}",
                    rate as u64, decisions, counts[0], counts[1], counts[2], counts[3], explored
                ));
            }
        }
    }
    let grid = chaos_grid();
    report.line(
        "plan: loss=30-55ms partition=80-105ms straggler=130-155ms \
         cpu_dead=180-205ms crash=230ms restart=255ms"
            .to_string(),
    );
    report.line(format!(
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "t_ms", "to_2xr", "to_scar", "to_msg", "to_rpc", "to_adpt", "av_adpt", "event"
    ));
    for w in 0..grid[0].windows.len() {
        let t_ms = grid[0].windows[w].0;
        let event = MARKS
            .iter()
            .find(|(t, _)| *t + 10 > t_ms && *t <= t_ms)
            .map(|(_, e)| *e)
            .unwrap_or("-");
        report.line(format!(
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9.4} {:>9}",
            t_ms,
            grid[0].windows[w].1,
            grid[1].windows[w].1,
            grid[2].windows[w].1,
            grid[3].windows[w].1,
            grid[4].windows[w].1,
            grid[4].windows[w].2,
            event
        ));
    }
    let gray: Vec<String> = grid
        .iter()
        .map(|v| format!("{}:{}", v.name, v.gray_timeouts))
        .collect();
    report.line(format!("gray_window_timeouts {}", gray.join(" ")));
    let steady: Vec<String> = grid
        .iter()
        .map(|v| format!("{}:{}", v.name, v.gray_steady))
        .collect();
    report.line(format!(
        "gray_steady_timeouts {} (detect transient adaptive:{})",
        steady.join(" "),
        grid[4].gray_detect
    ));
    if let Some((d, k, e, dem, p, h)) = grid[4].stats {
        report.line(format!(
            "adaptive decisions={d} arms=2xR:{},scar:{},msg:{},rpc:{} explored={e} \
             demotions={dem} probes={p} verdict_hints={h}",
            k[0], k[1], k[2], k[3]
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The load ramp: the controller must track the best static arm at
    /// every load point — tail within 1.5x of the best static p99 (the
    /// epsilon explorer keeps a 1/128 trickle on the losing arms), and
    /// throughput within 5%. Every arm must have been explored.
    #[test]
    fn adaptive_tracks_best_static_arm_across_the_ramp() {
        for &rate in RAMP_LOADS {
            let points = ramp_at(rate);
            let adaptive = points.last().unwrap().clone();
            let statics = &points[..points.len() - 1];
            let best_p99 = statics
                .iter()
                .map(|p| p.get_p99_us)
                .fold(f64::MAX, f64::min);
            let best_done = statics.iter().map(|p| p.completed).max().unwrap();
            assert!(
                adaptive.get_p99_us <= best_p99 * 1.5,
                "load {rate}: adaptive p99 {:.1}us vs best static {best_p99:.1}us",
                adaptive.get_p99_us
            );
            assert!(
                adaptive.completed as f64 >= best_done as f64 * 0.95,
                "load {rate}: adaptive completed {} vs best static {best_done}",
                adaptive.completed
            );
            let (decisions, counts, _) = adaptive.choices.unwrap();
            assert!(decisions > 0, "no decisions at load {rate}");
            assert!(
                counts.iter().all(|&c| c > 0),
                "an arm was never tried at load {rate}: {counts:?}"
            );
        }
    }

    /// The chaos headline: once detection has had one attempt-timeout to
    /// act, the gray window's steady-state timeout spike collapses by at
    /// least 10x against *every* static cell. The detection transient —
    /// ops already in flight during the first 500µs after death, the
    /// floor no client-side detector can beat — is bounded separately:
    /// even that first window must be no worse than the best static's,
    /// and the gray total (transient included) at least 3x better than
    /// any static. Demotion must actually fire, the postmortem verdict
    /// loop must deliver hints, and availability through the gray window
    /// stays at least as good as the best static variant's.
    #[test]
    fn gray_failure_evasion_collapses_the_timeout_spike() {
        let grid = chaos_grid();
        let adaptive = grid.last().unwrap();
        for s in &grid[..4] {
            assert!(
                s.gray_steady >= 10 * adaptive.gray_steady.max(1),
                "steady gray: static {} {} vs adaptive {} timeouts",
                s.name,
                s.gray_steady,
                adaptive.gray_steady
            );
            assert!(
                s.gray_timeouts >= 3 * adaptive.gray_timeouts.max(1),
                "gray total: static {} {} vs adaptive {} timeouts",
                s.name,
                s.gray_timeouts,
                adaptive.gray_timeouts
            );
        }
        let best_detect = grid[..4].iter().map(|v| v.gray_detect).min().unwrap();
        assert!(
            adaptive.gray_detect <= best_detect,
            "detection transient {} exceeds the best static's first gray window {}",
            adaptive.gray_detect,
            best_detect
        );
        let (_, _, _, demotions, _, hints) = adaptive.stats.unwrap();
        assert!(demotions > 0, "no replica was ever demoted");
        assert!(hints > 0, "postmortem verdicts never reached the clients");
        // Availability inside the gray window: adaptive at least matches
        // the best static variant.
        let gray_avail = |v: &ChaosVariant| {
            v.windows
                .iter()
                .filter(|(t, _, _)| *t > 190 && *t <= 205)
                .map(|(_, _, a)| *a)
                .fold(1.0, f64::min)
        };
        let best_static = grid[..4].iter().map(gray_avail).fold(0.0, f64::max);
        assert!(
            gray_avail(adaptive) >= best_static - 0.02,
            "gray availability: adaptive {} vs best static {}",
            gray_avail(adaptive),
            best_static
        );
        // After the demoted replica heals, probes re-promote it: by the
        // end of the run the controller is not permanently down a replica.
        // (Demotions can exceed promotions only if the tail of the run
        // still has a victim demoted — the crash window legitimately
        // re-demotes, so just require the run to finish healthy.)
        let tail_avail = adaptive
            .windows
            .iter()
            .filter(|(t, _, _)| *t > 310)
            .map(|(_, _, a)| *a)
            .fold(1.0, f64::min);
        assert!(
            tail_avail > 0.99,
            "adaptive cell did not recover: {tail_avail}"
        );
    }
}
