//! One rep, run in a fresh child process so that `VmHWM`, allocator state
//! and every cache start cold and belong to that rep alone.
//!
//! The child prints what it measured as tab-separated lines; [`Rep::parse`]
//! reads them back in the runner.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::api::{self, CellStats, SimRng, SimTime, StageTotals};
use crate::host::{self, PhaseTimer};
use crate::metrics::{figure_metric, stage_metric};
use crate::workloads::{self, BuiltCell};

/// Slices the traced run cuts a cell's simulated span into, so the
/// cold-start herd and the steady state can be told apart.
pub const SLICES: u64 = 20;

/// Index of the `run` span in a rep's spans (`setup` is 0).
const RUN_SPAN: usize = 1;

/// Keys read back from every replica after a cell run.
const REPLICA_SAMPLES: u64 = 256;

/// What one child measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Values that must repeat exactly for a fixed seed.
    pub exact: BTreeMap<String, f64>,
    /// Host-side measurements (time, memory): noisy.
    pub host: BTreeMap<String, f64>,
    /// Spans `(name, start_ns, end_ns, parent)`; times since child start.
    pub spans: Vec<(String, u64, u64, Option<usize>)>,
}

impl Rep {
    /// The lines a child prints; [`Rep::parse`] reads them back.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.exact {
            out.push_str(&format!("x\t{k}\t{v}\n"));
        }
        for (k, v) in &self.host {
            out.push_str(&format!("h\t{k}\t{v}\n"));
        }
        for (name, start, end, parent) in &self.spans {
            let parent = parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!("s\t{name}\t{start}\t{end}\t{parent}\n"));
        }
        out
    }

    /// Parse a child's standard output.
    pub fn parse(stdout: &str) -> Result<Rep, String> {
        let mut rep = Rep::default();
        for line in stdout.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("unreadable child line {line:?}");
            match f.as_slice() {
                ["x", k, v] => {
                    rep.exact
                        .insert(k.to_string(), v.parse().map_err(|_| bad())?);
                }
                ["h", k, v] => {
                    rep.host
                        .insert(k.to_string(), v.parse().map_err(|_| bad())?);
                }
                ["s", name, start, end, parent] => rep.spans.push((
                    name.to_string(),
                    start.parse().map_err(|_| bad())?,
                    end.parse().map_err(|_| bad())?,
                    parent.parse().ok(),
                )),
                _ => return Err(bad()),
            }
        }
        Ok(rep)
    }

    /// An exact value, 0 when absent.
    pub fn x(&self, key: &str) -> f64 {
        self.exact.get(key).copied().unwrap_or(0.0)
    }

    /// A host value, 0 when absent.
    pub fn h(&self, key: &str) -> f64 {
        self.host.get(key).copied().unwrap_or(0.0)
    }
}

/// What the child was asked to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Divide each cell's simulated span, or each unit cost's iteration
    /// count, by this (smoke tests).
    pub scale_div: u64,
    /// Stop after set-up: an extra `setup_s` sample, nothing else.
    pub setup_only: bool,
    /// The one experiment this child runs, for `figures_all`.
    pub figure: Option<String>,
}

/// Run one rep and print it. `traced` is true only in the binary that
/// installs the counting allocator; it turns `Sim::enable_tracing()` and
/// slicing on as well.
pub fn run(args: &ChildArgs, traced: bool) -> Result<(), String> {
    let origin = Instant::now();
    let rep = if args.workload == "figures_all" {
        figures_rep(args, origin)?
    } else if args.workload == "layers" {
        crate::layers::run(args.seed, origin, args.scale_div)
    } else {
        cell_rep(args, traced, origin)?
    };
    print!("{}", rep.render());
    Ok(())
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn cell_rep(args: &ChildArgs, traced: bool, origin: Instant) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let BuiltCell {
        mut cell,
        span,
        prefix,
        keys,
        sizes,
    } = workloads::build_cell(&args.workload, args.seed, args.scale_div)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    // The process clock started with the process: this is all of set-up.
    rep.host
        .insert("setup_s".into(), host::cpu_ns() as f64 / 1e9);
    rep.spans.push(("setup".into(), 0, ns_since(origin), None));
    if args.setup_only {
        return Ok(rep);
    }

    let before = api::cell_stats(&cell);
    let (allocs0, alloc_bytes0) = crate::alloc::counts();
    rep.spans.push(("run".into(), ns_since(origin), 0, None));
    let timer = PhaseTimer::start();
    let mut stages = StageTotals::default();
    let mut slice_ns_per_event_max = 0f64;
    if traced {
        cell.sim.enable_tracing();
        let start = cell.sim.now();
        for k in 1..=SLICES {
            let (t0, cpu0, ev0) = (
                ns_since(origin),
                host::cpu_ns(),
                cell.sim.events_processed(),
            );
            cell.sim
                .run_until(SimTime(start.nanos() + span.nanos() * k / SLICES));
            stages.drain(&mut cell);
            let events = cell.sim.events_processed() - ev0;
            if events > 0 {
                let per_event = (host::cpu_ns() - cpu0) as f64 / events as f64;
                slice_ns_per_event_max = slice_ns_per_event_max.max(per_event);
            }
            rep.spans
                .push((format!("slice:{k}"), t0, ns_since(origin), Some(RUN_SPAN)));
            rep.exact.insert(format!("slice.{k}.events"), events as f64);
        }
    } else {
        cell.run_for(span);
    }
    let run = timer.stop();
    rep.spans[RUN_SPAN].2 = ns_since(origin);
    let (allocs1, alloc_bytes1) = crate::alloc::counts();

    let after = api::cell_stats(&cell);
    let mut rng = SimRng::new(args.seed);
    let check = api::check_replicas(&mut cell, prefix, keys, &sizes, REPLICA_SAMPLES, &mut rng);

    rep.host.insert("run_cpu_s".into(), run.cpu_s());
    rep.host
        .insert("host.run_wall_s".into(), run.wall_ns as f64 / 1e9);
    rep.host
        .insert("host.runq_wait_share".into(), run.runq_wait_share());
    rep.host.insert("peak_rss_mib".into(), host::peak_rss_mib());
    if traced {
        rep.host
            .insert("host.slice_ns_per_event_max".into(), slice_ns_per_event_max);
        rep.exact
            .insert("allocs".into(), (allocs1 - allocs0) as f64);
        rep.exact
            .insert("alloc_bytes".into(), (alloc_bytes1 - alloc_bytes0) as f64);
        rep.exact.insert("traced_ops".into(), stages.ops as f64);
        for (stage, share) in stages.shares() {
            rep.exact.insert(stage_metric(stage), share);
        }
    }
    cell_exact(&mut rep.exact, &before, &after);
    rep.exact
        .insert("replicas_present".into(), check.present as f64);
    rep.exact.insert("replicas_bad".into(), check.bad as f64);
    Ok(rep)
}

/// The exact block of a cell rep: counts over the run phase and the
/// simulated statistics derived from them.
fn cell_exact(x: &mut BTreeMap<String, f64>, before: &CellStats, s: &CellStats) {
    let events = s.events - before.events;
    let ops = s.ops().max(1) as f64;
    let gets = s.gets.max(1) as f64;
    let sets = s.sets.max(1) as f64;
    let mut put = |k: &str, v: f64| {
        x.insert(k.to_string(), v);
    };
    put("events", events as f64);
    put("ops", s.ops() as f64);
    put("gets", s.gets as f64);
    put("sets", s.sets as f64);
    put("get_keys", s.get_keys as f64);
    put("hits", s.hits as f64);
    put("misses", s.misses as f64);
    put("attempted", s.attempted() as f64);
    put("failed", s.failed() as f64);
    put("sim_get_p50_ns", s.get_latency.0 as f64);
    put("sim_get_p99_ns", s.get_latency.1 as f64);
    put("sim_get_samples", s.get_latency.2 as f64);
    put("sim_set_p50_ns", s.set_latency.0 as f64);
    put("sim_set_p99_ns", s.set_latency.1 as f64);
    put("sim_set_samples", s.set_latency.2 as f64);
    put("sim_cpu_ns_per_op", s.cpu_busy_ns as f64 / ops);
    put(
        "op_ok_share",
        1.0 - s.failed() as f64 / s.attempted().max(1) as f64,
    );
    put("rma_frames", s.rma_frames as f64);
    put("backend_rma_ops", s.backend_rma_ops as f64);
    put("wal_appends", s.wal_appends as f64);
    put("events_per_op", events as f64 / ops);
    put("simnet.queue.hwm", s.queue_hwm as f64);
    put("simnet.pending_pool.len", s.pending_pool_len as f64);
    put("rma_frames_per_get", s.rma_frames as f64 / gets);
    put("backend_rma_ops_per_get", s.backend_rma_ops as f64 / gets);
    put("retries_per_op", s.retries as f64 / ops);
    put("rpc_bytes_per_op", s.rpc_bytes as f64 / ops);
    put("wire_bytes_per_op", s.tx_bytes as f64 / ops);
    put(
        "get_hit_share",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
    );
    put(
        "ccache_hit_share",
        s.ccache_hits as f64 / (s.ccache_hits + s.ccache_misses).max(1) as f64,
    );
    put("wal_appends_per_set", s.wal_appends as f64 / sets);
    put("wal_fsyncs_per_set", s.wal_fsyncs as f64 / sets);
    put("nodes", s.nodes as f64);
    // GET keys either hit, miss or fail with their op: nothing is lost.
    let resolved = s.hits + s.misses;
    let balanced = resolved <= s.get_keys && s.get_keys <= resolved + s.op_errors;
    put("get_keys_balanced", f64::from(u8::from(balanced)));
}

/// One experiment of `figures_all`: regenerate it and compare its CSV
/// byte for byte with the committed one.
fn figures_rep(args: &ChildArgs, origin: Instant) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let id = args.figure.as_deref().ok_or("figures_all needs --figure")?;
    if !api::FIGURE_IDS.contains(&id) {
        return Err(format!("unknown figure {id:?}"));
    }
    let path = format!("{}/../results/{id}.csv", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    rep.host
        .insert("setup_s".into(), host::cpu_ns() as f64 / 1e9);
    rep.spans.push(("setup".into(), 0, ns_since(origin), None));
    if args.setup_only {
        return Ok(rep);
    }

    rep.spans.push(("run".into(), ns_since(origin), 0, None));
    let timer = PhaseTimer::start();
    // A panicking experiment is a failed one, not a failed benchmark.
    let got = std::panic::catch_unwind(|| api::figure_csv(id));
    let run = timer.stop();
    rep.spans[RUN_SPAN].2 = ns_since(origin);
    let (run_start, run_end) = (rep.spans[RUN_SPAN].1, rep.spans[RUN_SPAN].2);
    rep.spans.push((
        format!("experiment:{id}"),
        run_start,
        run_end,
        Some(RUN_SPAN),
    ));
    let same = got.is_ok_and(|csv| csv == want);
    rep.host.insert("run_cpu_s".into(), run.cpu_s());
    rep.host.insert(figure_metric(id), run.cpu_s());
    rep.host
        .insert("host.run_wall_s".into(), run.wall_ns as f64 / 1e9);
    rep.host
        .insert("host.runq_wait_share".into(), run.runq_wait_share());
    rep.host.insert("peak_rss_mib".into(), host::peak_rss_mib());
    rep.exact
        .insert(format!("csv.{id}.identical"), f64::from(u8::from(same)));
    rep.exact.insert("attempted".into(), 1.0);
    rep.exact
        .insert("failed".into(), f64::from(u8::from(!same)));
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_lines_round_trip() {
        let mut rep = Rep::default();
        rep.exact.insert("events".into(), 14518928.0);
        rep.exact
            .insert("events_per_op".into(), 184.921_403_553_461_13);
        rep.host.insert("run_cpu_s".into(), 5.326_118_204);
        rep.spans.push(("setup".into(), 0, 38_000_000, None));
        rep.spans.push(("slice:1".into(), 40, 50, Some(1)));
        let text = rep.render();
        assert!(text.ends_with("s\tsetup\t0\t38000000\t-\ns\tslice:1\t40\t50\t1\n"));
        assert_eq!(Rep::parse(&text).unwrap(), rep);
        assert!(Rep::parse("x\tevents\n").is_err());
        assert!(Rep::parse("q\ta\t1\n").is_err());
    }
}
