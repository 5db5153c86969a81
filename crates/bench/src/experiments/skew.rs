//! Skew: million-user hot keys vs the cache hierarchy.
//!
//! Production CliqueMap traffic is heavily skewed; the committed figures
//! all drive near-uniform keys, so none of them show the incast that
//! dominates real cells — a handful of hot keys saturating one shard's
//! engines long before aggregate QPS does. This experiment sweeps the
//! Zipf exponent `s` and, at each point, runs four ablations:
//!
//! * `base` — the cell as every other figure runs it;
//! * `cache` — the client-side lease cache (local hits, versioned
//!   validation on lease expiry);
//! * `repl` — load-aware hot-key replication (R=3 → R=5 on promotion,
//!   client GETs rotate across the widened set);
//! * `both` — cache + replication together.
//!
//! Reported per point: GET p50/p99, the *hot shard's* engine occupancy
//! (max per-backend busy fraction over the measured span), the mean
//! occupancy, the client-cache hit rate, and the hot-routing/promotion
//! counters. At `s >= 1.0` the cache and the replication tier must both
//! pull the hot shard's p99 and occupancy below baseline — asserted in
//! this module's tests and regenerated byte-identically in `ci.sh`.
//!
//! The `s = s_max` runs are traced with the `obs` flight recorder and the
//! per-stage attribution (client CPU / serialization / fabric / queue /
//! engine / server CPU / retry) is appended to the report, so the figure
//! also *names* where the tail went when the cache hierarchy absorbed it.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::client_cache::ClientCacheCfg;
use cliquemap::config::ReplicationMode;
use cliquemap::policy::HotReplCfg;
use cliquemap::workload::Workload;
use obs::attribute;
use obs::event::stage;
use rma::PonyCfg;
use simnet::SimDuration;
use workloads::{SizeDist, SkewedWorkload};

use crate::experiments::base_spec;
use crate::harness::{pctl_us, populate_cell, Report};

const KEYS: u64 = 2_000;
const BACKENDS: u32 = 9;
const CLIENTS: usize = 10;
const RATE: f64 = 6_000.0;
/// Warm-up before measurement (config distribution, connects, first hot
/// epochs, cache fill).
const WARMUP: SimDuration = SimDuration::from_millis(100);
/// Measured span.
const SPAN: SimDuration = SimDuration::from_millis(300);
/// The sweep; `S_MAX` is the skew regime the acceptance criteria gate.
pub const SWEEP: [f64; 4] = [0.0, 0.6, 1.0, 1.2];
/// Highest exponent in the sweep (traced + asserted point).
pub const S_MAX: f64 = 1.2;

/// Backend-side hot-replication policy (`repl`/`both` ablations): short
/// epochs against the aggregated access-record stream, gated on measured
/// engine occupancy. `min_epoch_touches` is high enough that a sparse
/// warm-up epoch (a handful of flushed access batches) can't fake a >3%
/// share on uniform traffic.
fn backend_hot_cfg() -> HotReplCfg {
    HotReplCfg {
        epoch: SimDuration::from_millis(10),
        promote_share_bp: 300, // 3% of epoch touches
        demote_share_bp: 100,
        cooldown_epochs: 3,
        min_epoch_touches: 128,
        extra_copies: 2, // R=3 -> R=5
        occupancy_gate: 0.10,
        max_hot: 16,
    }
}

/// Client-side policy: one client sees ~`RATE` ops/s, so its epochs are
/// longer to collect a statistically meaningful sample — a 3% share of a
/// 60-touch epoch is two ops of noise, of a 300-touch epoch it's a real
/// hot key. No occupancy gate (clients cannot observe the serving side).
fn client_hot_cfg() -> HotReplCfg {
    HotReplCfg {
        epoch: SimDuration::from_millis(50),
        min_epoch_touches: 64,
        occupancy_gate: 0.0,
        ..backend_hot_cfg()
    }
}

/// One measured ablation point.
#[derive(Debug, Clone)]
pub struct SkewPoint {
    /// Zipf exponent.
    pub s: f64,
    /// Ablation label (`base`/`cache`/`repl`/`both`).
    pub variant: &'static str,
    /// GET latency percentiles over the measured span (µs).
    pub p50_us: f64,
    /// p99 (µs).
    pub p99_us: f64,
    /// Hottest backend's engine occupancy (busy fraction of the span).
    pub hot_occ: f64,
    /// Mean backend occupancy.
    pub mean_occ: f64,
    /// Client-cache hit rate over all lookups (0 when disabled).
    pub hit_rate: f64,
    /// GETs the clients routed across a widened (R=5) replica set.
    pub hot_routed: u64,
    /// Backend-side promotions (load-gated).
    pub promotions: u64,
    /// GETs completed in the measured span.
    pub gets: u64,
    /// Total ns per attribution stage for traced runs (`None` untraced).
    pub stage_ns: Option<[u64; stage::COUNT]>,
}

fn build_cell(s: f64, cache: bool, repl: bool) -> Cell {
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, BACKENDS);
    spec.seed = 71;
    spec.clients_per_host = 1;
    spec.client.max_in_flight = 256;
    // Access records flow in every variant (the hot-key detector on the
    // backend is fed by them; keeping them on everywhere means the
    // ablation columns differ only in the feature under test).
    spec.client.access_flush = Some(SimDuration::from_millis(5));
    // Engines pinned at one per host so occupancy is the contended
    // resource: the hot shard must queue, not quietly scale out.
    spec.pony = PonyCfg {
        min_engines: 1,
        max_engines: 1,
        op_cost: SimDuration::from_micros(20),
        per_kb: SimDuration::from_nanos(500),
        window: SimDuration::from_millis(1),
    };
    if cache {
        spec.client.cache = Some(ClientCacheCfg {
            capacity: 512,
            lease_ttl: SimDuration::from_millis(4),
            max_value_len: 64 << 10,
        });
    }
    if repl {
        spec.client.hot_repl = Some(client_hot_cfg());
        spec.backend.hot_repl = Some(backend_hot_cfg());
    }
    let sizes = SizeDist::fixed(1024);
    let wls: Vec<Box<dyn Workload>> = (0..CLIENTS)
        .map(|_| {
            Box::new(SkewedWorkload::new(
                "k",
                KEYS,
                s,
                0,
                None,
                0.97,
                sizes.clone(),
                RATE,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", KEYS, &sizes);
    cell
}

/// Run one `(s, variant)` point: warm up, clear the latency windows, and
/// measure one span.
pub(crate) fn run_point(s: f64, cache: bool, repl: bool, traced: bool) -> SkewPoint {
    let mut cell = build_cell(s, cache, repl);
    if traced {
        cell.sim.enable_tracing();
    }
    cell.run_for(WARMUP);
    if traced {
        // Warm-up ops are not part of the figure; drop their traces.
        let _ = cell.sim.drain_traces();
    }
    // Window reset: latency percentiles and occupancy cover the measured
    // span only.
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    let gets0 = cell.gets_completed();
    let busy0: Vec<u64> = backend_busy(&mut cell);
    cell.run_for(SPAN);
    let busy1: Vec<u64> = backend_busy(&mut cell);
    let span_ns = SPAN.nanos() as f64;
    let occ: Vec<f64> = busy0
        .iter()
        .zip(&busy1)
        .enumerate()
        .map(|(i, (b0, b1))| {
            let engines = cell.engines_on(cell.backend_hosts[i]).max(1) as f64;
            (b1 - b0) as f64 / (span_ns * engines)
        })
        .collect();
    let m = cell.sim.metrics();
    let lookups =
        m.counter("cm.ccache.hits") + m.counter("cm.ccache.stale") + m.counter("cm.ccache.misses");
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        m.counter("cm.ccache.hits") as f64 / lookups as f64
    };
    let stage_ns = traced.then(|| {
        let mut out = [0u64; stage::COUNT];
        for t in cell.sim.drain_traces() {
            let a = attribute(&t);
            for (i, ns) in a.stages.iter().enumerate() {
                out[i] += ns;
            }
        }
        out
    });
    SkewPoint {
        s,
        variant: match (cache, repl) {
            (false, false) => "base",
            (true, false) => "cache",
            (false, true) => "repl",
            (true, true) => "both",
        },
        p50_us: pctl_us(&cell, "cm.get.latency_ns", 50.0),
        p99_us: pctl_us(&cell, "cm.get.latency_ns", 99.0),
        hot_occ: occ.iter().cloned().fold(0.0, f64::max),
        mean_occ: occ.iter().sum::<f64>() / occ.len().max(1) as f64,
        hit_rate,
        hot_routed: cell.sim.metrics().counter("cm.client.hot_routed_gets"),
        promotions: cell.sim.metrics().counter("cm.backend.hot_promotions"),
        gets: cell.gets_completed() - gets0,
        stage_ns,
    }
}

fn backend_busy(cell: &mut Cell) -> Vec<u64> {
    let ids = cell.backends.clone();
    ids.iter()
        .map(|&n| {
            cell.sim
                .with_node::<cliquemap::backend::BackendNode, _>(n, |b| b.transport.sw_cpu_ns())
                .unwrap_or(0)
        })
        .collect()
}

/// All four ablations at one exponent. The `s_max` runs are traced.
pub(crate) fn run_ablations(s: f64) -> Vec<SkewPoint> {
    let traced = s == S_MAX;
    vec![
        run_point(s, false, false, traced),
        run_point(s, true, false, traced),
        run_point(s, false, true, traced),
        run_point(s, true, true, traced),
    ]
}

fn stage_line(s: f64, p: &SkewPoint) -> Option<String> {
    let ns = p.stage_ns?;
    let total: u64 = ns.iter().sum();
    if total == 0 {
        return None;
    }
    let pct = |st: u8| 100.0 * ns[st as usize] as f64 / total as f64;
    Some(format!(
        "attr s={s} variant={} client%={:.1} ser%={:.1} fabric%={:.1} queue%={:.1} \
         engine%={:.1} server%={:.1} retry%={:.1}",
        p.variant,
        pct(stage::CLIENT_CPU),
        pct(stage::SER),
        pct(stage::FABRIC),
        pct(stage::QUEUE),
        pct(stage::ENGINE),
        pct(stage::SERVER_CPU),
        pct(stage::RETRY),
    ))
}

/// Regenerate the skew figure.
pub fn run() -> Report {
    let mut report = Report::new(
        "skew",
        "Zipf hot keys vs the cache hierarchy: p99 + hot-shard occupancy with \
         {base, cache, repl, both} ablations",
    );
    report.line(format!(
        "{:>5} {:>7} {:>9} {:>9} {:>8} {:>9} {:>9} {:>10} {:>7} {:>8}",
        "s",
        "variant",
        "p50_us",
        "p99_us",
        "hot_occ",
        "mean_occ",
        "hit_rate",
        "hot_routed",
        "promos",
        "gets"
    ));
    let mut stage_lines = Vec::new();
    for s in SWEEP {
        for p in run_ablations(s) {
            report.line(format!(
                "{:>5.1} {:>7} {:>9.1} {:>9.1} {:>8.3} {:>9.3} {:>9.3} {:>10} {:>7} {:>8}",
                p.s,
                p.variant,
                p.p50_us,
                p.p99_us,
                p.hot_occ,
                p.mean_occ,
                p.hit_rate,
                p.hot_routed,
                p.promotions,
                p.gets
            ));
            if let Some(l) = stage_line(s, &p) {
                stage_lines.push(l);
            }
        }
    }
    for l in stage_lines {
        report.line(l);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: at `s = S_MAX >= 1.0`, the client cache and the
    /// hot-replication tier each pull the hot shard's p99 and occupancy
    /// below baseline, and the combined configuration is no worse than the
    /// cache alone on occupancy.
    #[test]
    fn ablations_tame_the_hot_shard_at_high_skew() {
        let pts = run_ablations(S_MAX);
        let by = |v: &str| pts.iter().find(|p| p.variant == v).unwrap().clone();
        let (base, cache, repl, both) = (by("base"), by("cache"), by("repl"), by("both"));
        for p in &pts {
            assert!(
                p.gets > 10_000,
                "{}: too few ops measured: {}",
                p.variant,
                p.gets
            );
        }
        // The baseline hot shard is meaningfully hotter than the mean —
        // that's the incast this figure exists to show.
        assert!(
            base.hot_occ > 1.5 * base.mean_occ,
            "no hot shard at s={S_MAX}: hot {:.3} mean {:.3}",
            base.hot_occ,
            base.mean_occ
        );
        // Cache: local hits remove hot-key traffic from the wire.
        assert!(
            cache.hit_rate > 0.3,
            "cache barely hit: {:.3}",
            cache.hit_rate
        );
        assert!(
            cache.p99_us < base.p99_us,
            "cache p99 {:.1} !< base {:.1}",
            cache.p99_us,
            base.p99_us
        );
        assert!(
            cache.hot_occ < base.hot_occ,
            "cache hot_occ {:.3} !< base {:.3}",
            cache.hot_occ,
            base.hot_occ
        );
        // Replication: promotion happened, clients routed wide, and the
        // hot shard shed load onto the extended copies.
        assert!(repl.promotions > 0, "no backend promotions");
        assert!(repl.hot_routed > 0, "clients never routed wide");
        assert!(
            repl.hot_occ < base.hot_occ,
            "repl hot_occ {:.3} !< base {:.3}",
            repl.hot_occ,
            base.hot_occ
        );
        assert!(
            repl.p99_us < base.p99_us,
            "repl p99 {:.1} !< base {:.1}",
            repl.p99_us,
            base.p99_us
        );
        // Both: no worse than baseline on every axis.
        assert!(both.hot_occ < base.hot_occ);
        assert!(both.p99_us < base.p99_us);
    }

    /// At `s = 0` the skewed generator degenerates to uniform traffic:
    /// nothing promotes under the load gate and the shards stay balanced.
    #[test]
    fn uniform_point_is_balanced() {
        let p = run_point(0.0, false, true, false);
        assert!(
            p.hot_occ < 1.3 * p.mean_occ,
            "uniform load should not produce a hot shard: hot {:.3} mean {:.3}",
            p.hot_occ,
            p.mean_occ
        );
        assert_eq!(
            p.promotions, 0,
            "load-gated promotion fired on uniform load"
        );
    }

    /// Two runs of one point are identical — the figure (and its ci.sh
    /// `cmp` gate) replays deterministically.
    #[test]
    fn points_replay_deterministically() {
        let a = run_point(S_MAX, true, true, false);
        let b = run_point(S_MAX, true, true, false);
        assert_eq!(
            (a.gets, a.hot_routed, a.promotions, a.p99_us.to_bits()),
            (b.gets, b.hot_routed, b.promotions, b.p99_us.to_bits()),
        );
    }
}
