//! Restart storm: warm (WAL replay + delta repair) vs cold (en-masse peer
//! repair) backend restart under steady load.
//!
//! The cold column is the paper's §5.4 recovery: a replacement task with
//! an empty store pulls every entry it should hold from its cohort over
//! the fabric. The warm column is the ClawStore-style alternative this
//! repo adds: the replacement replays its crash-surviving local media
//! (checkpoint snapshot + fsynced WAL) at `Start`, then the very same
//! Pull scan only *delta*-repairs keys written while it was down or lost
//! in the un-fsynced group-commit tail. Warm must win on both recovery
//! time and bytes moved — that is the whole argument for spending a
//! storage device on a cache.
//!
//! Also prints the group-commit fsync amortization curve (per-record cost
//! of making 10K records durable at batch sizes 1..10K) that justifies
//! batching WAL appends under one fsync.

use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use simnet::{Ctx, DeviceCfg, Event, FabricCfg, HostCfg, Node, Sim, SimDuration, SimTime};
use workloads::{MixWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{checkpoint_media, populate_cell, Report};

const KEYS: u64 = 2_000;
const VALUE_BYTES: usize = 256;
const VICTIM: usize = 0;
const CLIENTS: usize = 2;
/// Steady state before the crash.
const CRASH_MS: u64 = 40;
/// The replacement task comes up 20ms later.
const RESTART_MS: u64 = 60;
/// How long after restart repair bytes are accumulated (both modes have
/// long converged by then).
const SETTLE_MS: u64 = 200;
/// Fine-grained probe step for the recovery-time measurement.
const PROBE_US: u64 = 250;
/// CSV row granularity.
const WINDOW_MS: u64 = 10;

struct ModeResult {
    rows: Vec<String>,
    recovery_ms: f64,
    repair_bytes: u64,
    wal_fsyncs: u64,
    wal_replayed: u64,
}

fn restart_spec(warm: bool) -> CellSpec {
    let mut spec = base_spec(LookupStrategy::TwoR, ReplicationMode::R32, 4);
    spec.seed = 17;
    spec.clients_per_host = 1;
    // The one-shot Pull scan at restart is the only repair machinery; no
    // periodic scans that would blur the two modes together.
    spec.backend.scan_interval = None;
    if warm {
        spec.durability = Some(DurabilitySpec::default());
    }
    spec
}

fn victim_live(cell: &mut Cell) -> u64 {
    let v = cell.backends[VICTIM];
    cell.sim
        .with_node::<BackendNode, _>(v, |b| b.store().live_entries())
        .unwrap_or(0)
}

/// Run one restart timeline and distill the recovery measurements.
fn run_mode(warm: bool) -> ModeResult {
    let spec = restart_spec(warm);
    let workloads: Vec<Box<dyn Workload>> = (0..CLIENTS)
        .map(|_| {
            Box::new(MixWorkload::new(
                "k",
                KEYS,
                0.2,
                0.5,
                SizeDist::fixed(VALUE_BYTES),
                10_000.0,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(VALUE_BYTES));
    if warm {
        checkpoint_media(&mut cell, VICTIM);
    }
    let mode = if warm { "warm" } else { "cold" };
    let mut rows = Vec::new();
    let mut last_completed = 0u64;
    let mut last_errors = 0u64;
    let mut last_repair = 0u64;
    let mut last_fsyncs = 0u64;
    let mut next_row_ms = WINDOW_MS;
    let mut pre_live = 0u64;
    let mut restart_repair_base = 0u64;
    let mut recovered_at: Option<SimTime> = None;
    let mut dead = false;
    let victim = cell.backends[VICTIM];
    let total_ms = RESTART_MS + SETTLE_MS;
    loop {
        let now_ms = cell.sim.now().nanos() / 1_000_000;
        if now_ms >= total_ms {
            break;
        }
        if now_ms >= CRASH_MS && !dead && now_ms < RESTART_MS {
            pre_live = victim_live(&mut cell);
            cell.sim.crash(victim);
            dead = true;
            rows.push(format!("# {mode} crash t={CRASH_MS}ms live={pre_live}"));
        }
        if dead && now_ms >= RESTART_MS {
            restart_repair_base = cell.sim.metrics().counter("cm.backend.recovery_bytes");
            cell.restart_backend(VICTIM, true);
            dead = false;
            rows.push(format!("# {mode} restart t={RESTART_MS}ms"));
        }
        cell.run_for(SimDuration::from_micros(PROBE_US));
        // Recovery point: the replica again serves every entry it held
        // when it died (probe granularity PROBE_US).
        if recovered_at.is_none()
            && pre_live > 0
            && !dead
            && cell.sim.now().nanos() / 1_000_000 >= RESTART_MS
            && victim_live(&mut cell) >= pre_live
        {
            recovered_at = Some(cell.sim.now());
        }
        let t_ms = cell.sim.now().nanos() / 1_000_000;
        if t_ms >= next_row_ms {
            next_row_ms += WINDOW_MS;
            let m = cell.sim.metrics();
            let completed = m.counter("cm.get.completed") + m.counter("cm.set.completed");
            let errors = m.counter("cm.op_errors");
            let repair = m.counter("cm.backend.recovery_bytes");
            let fsyncs = m.counter("cm.backend.wal_fsyncs");
            let replayed = m.counter("cm.backend.wal_replayed");
            let live = if dead { 0 } else { victim_live(&mut cell) };
            rows.push(format!(
                "{mode} {t_ms:>5} {live:>6} {:>6} {:>5} {:>8} {:>5} {:>6}",
                completed - last_completed,
                errors - last_errors,
                repair - last_repair,
                fsyncs - last_fsyncs,
                replayed,
            ));
            last_completed = completed;
            last_errors = errors;
            last_repair = repair;
            last_fsyncs = fsyncs;
        }
    }
    let recovered_at = recovered_at.expect("replica never recovered its corpus");
    let m = cell.sim.metrics();
    ModeResult {
        rows,
        recovery_ms: (recovered_at.nanos() as f64 - (RESTART_MS * 1_000_000) as f64) / 1e6,
        repair_bytes: m.counter("cm.backend.recovery_bytes") - restart_repair_base,
        wal_fsyncs: m.counter("cm.backend.wal_fsyncs"),
        wal_replayed: m.counter("cm.backend.wal_replayed"),
    }
}

const AMORTIZE_RECORD_BYTES: u64 = 64;
const AMORTIZE_TOTAL: u64 = 10_000;

/// Back-to-back group commits of `batch` records each on a fresh device.
struct Committer {
    batch: u64,
    issued: u64,
    done_at: Option<SimTime>,
}

impl Node for Committer {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start | Event::Timer(_) => {
                if self.issued >= AMORTIZE_TOTAL {
                    self.done_at = Some(ctx.now());
                    return;
                }
                let n = self.batch.min(AMORTIZE_TOTAL - self.issued);
                self.issued += n;
                ctx.device_commit(n * AMORTIZE_RECORD_BYTES, 1);
            }
            _ => {}
        }
    }
}

/// Per-record cost (ns) of making `AMORTIZE_TOTAL` records durable in
/// groups of `batch`, on the default device profile.
pub fn per_write_ns(batch: u64) -> u64 {
    let mut sim = Sim::new(FabricCfg::default(), 5);
    sim.enable_devices(DeviceCfg::default());
    let host = sim.add_host(HostCfg::default());
    let id = sim.add_node(
        host,
        Box::new(Committer {
            batch,
            issued: 0,
            done_at: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(3600));
    let done = sim
        .with_node::<Committer, _>(id, |c| c.done_at)
        .flatten()
        .expect("committer finished");
    done.nanos() / AMORTIZE_TOTAL
}

/// Regenerate the restart figure.
pub fn run() -> Report {
    let mut report = Report::new(
        "restart",
        "Warm (WAL) vs cold (peer repair) restart: recovery time and bytes",
    );
    report.line(format!(
        "corpus_keys={KEYS} value_bytes={VALUE_BYTES} crash_ms={CRASH_MS} restart_ms={RESTART_MS}"
    ));
    report.line(format!(
        "{:>4} {:>5} {:>6} {:>6} {:>5} {:>8} {:>5} {:>6}",
        "mode", "t_ms", "live", "done", "errs", "repair_B", "fsync", "replay"
    ));
    let cold = run_mode(false);
    let warm = run_mode(true);
    for r in cold.rows.iter().chain(warm.rows.iter()) {
        report.line(r.clone());
    }
    report.line(format!(
        "cold_recovery_ms={:.2} warm_recovery_ms={:.2}",
        cold.recovery_ms, warm.recovery_ms
    ));
    report.line(format!(
        "cold_repair_bytes={} warm_repair_bytes={}",
        cold.repair_bytes, warm.repair_bytes
    ));
    report.line(format!(
        "warm_wal_fsyncs={} warm_wal_replayed={}",
        warm.wal_fsyncs, warm.wal_replayed
    ));
    // The group-commit justification: per-record durability cost collapses
    // as appends share one fsync (ClawStore's 1 -> 10K curve).
    let curve: Vec<(u64, u64)> = [1u64, 100, 1_000, 10_000]
        .iter()
        .map(|&b| (b, per_write_ns(b)))
        .collect();
    for (b, ns) in &curve {
        report.line(format!("amortize_b{b}_ns={ns}"));
    }
    report.line(format!(
        "amortization_x={:.0}",
        curve[0].1 as f64 / curve[curve.len() - 1].1 as f64
    ));
    assert_eq!(cold.wal_fsyncs, 0, "cold mode must not touch the WAL");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(r: &Report, key: &str) -> f64 {
        r.lines
            .iter()
            .flat_map(|l| l.split_whitespace())
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key}"))
            .parse()
            .unwrap()
    }

    /// The figure's headline: warm restart beats cold peer repair on BOTH
    /// recovery time and repair bytes moved over the fabric.
    #[test]
    fn warm_restart_beats_cold_repair_on_time_and_bytes() {
        let r = run();
        let cold_ms = scrape(&r, "cold_recovery_ms");
        let warm_ms = scrape(&r, "warm_recovery_ms");
        assert!(
            warm_ms < cold_ms,
            "warm recovery ({warm_ms}ms) not faster than cold ({cold_ms}ms)"
        );
        let cold_bytes = scrape(&r, "cold_repair_bytes");
        let warm_bytes = scrape(&r, "warm_repair_bytes");
        assert!(
            warm_bytes < cold_bytes / 2.0,
            "warm repair moved {warm_bytes}B vs cold {cold_bytes}B — delta repair is not a delta"
        );
        // The warm run actually exercised the subsystem.
        assert!(scrape(&r, "warm_wal_fsyncs") > 0.0);
        assert!(scrape(&r, "warm_wal_replayed") > 0.0);
    }

    /// The fsync amortization curve is monotone and spans >=100x (the
    /// default profile lands ~1,350x, the ClawStore decade).
    #[test]
    fn group_commit_amortization_curve() {
        let r = run();
        let ns: Vec<f64> = [1u64, 100, 1_000, 10_000]
            .iter()
            .map(|b| scrape(&r, &format!("amortize_b{b}_ns")))
            .collect();
        for w in ns.windows(2) {
            assert!(w[1] < w[0], "curve not monotone: {ns:?}");
        }
        assert!(
            ns[0] / ns[3] >= 100.0,
            "amortization below 100x: {:.1}",
            ns[0] / ns[3]
        );
    }
}
