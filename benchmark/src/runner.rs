//! Runs a workload as a series of fresh child processes, one at a time,
//! checks what they report, and turns it into the ledger's metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::api::FIGURE_IDS;
use crate::child::Rep;
use crate::json::Json;
use crate::metrics::{per_layer, Calls, Layer, E2E, NOT_APPLICABLE};
use crate::span::Spans;
use crate::stats::median;
use crate::workloads::{e2e_figures, WorkloadDef};

/// A rep that waited for a core longer than this share of its wall time
/// is flagged `disturbed` in the report (and kept).
const DISTURBED_RUNQ_SHARE: f64 = 0.05;

/// `setup_s` is the median of at least this many set-ups; a run with
/// fewer reps tops up with set-up-only children.
pub const SETUP_SAMPLES: usize = 5;

/// Untraced reps the traced run makes to measure `trace.overhead_share`.
const TRACED_BASELINE_REPS: usize = 2;

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Reported value: the median over `values` for host measurements,
    /// the one repeated value for exact ones.
    pub value: f64,
    /// Per-rep values behind `value`.
    pub values: Vec<f64>,
    /// Median absolute deviation over the microbench's reps (unit costs).
    pub mad: Option<f64>,
}

/// Result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Full reps made.
    pub reps: usize,
    /// Reps flagged as disturbed by the box.
    pub disturbed: usize,
    /// Every correctness check passed.
    pub correct: bool,
    /// What failed, when something did.
    pub problems: Vec<String>,
    /// Operations (or experiments) attempted over all reps.
    pub attempted: u64,
    /// Operations (or experiments) that failed over all reps.
    pub failed: u64,
    /// The metrics, in ledger order.
    pub metrics: Vec<Metric>,
    /// Exact values of the first rep, for `compare`.
    pub exact: BTreeMap<String, f64>,
    /// Most a faster layer could save: `(unit-cost metric, share of
    /// run_cpu_s)`; traced cell runs only.
    pub ceilings: Vec<(String, f64)>,
}

/// How the runner starts children; the tests shrink the cells with it.
#[derive(Debug, Clone)]
pub struct Launcher {
    /// Directory holding `cmbench` and `cmbench-traced`.
    pub bin_dir: PathBuf,
    /// Directory under which each run makes its scratch directory.
    pub out_dir: PathBuf,
    /// Divide each cell's simulated span and each unit cost's iteration
    /// count by this (1 in a real run).
    pub scale_div: u64,
    /// Set-up samples behind `setup_s` ([`SETUP_SAMPLES`] in a real run).
    pub setup_samples: usize,
    /// Figure ids of the end-to-end `figures_all` rep.
    pub e2e_figures: Vec<String>,
    /// Figure ids of the traced `figures_all` rep.
    pub traced_figures: Vec<String>,
}

impl Launcher {
    /// The launcher of a real run: binaries next to this one, scratch
    /// space under `benchmark/out/`, full-scale workloads.
    pub fn for_current_exe() -> Result<Launcher, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe
            .parent()
            .ok_or("current_exe has no directory")?
            .to_path_buf();
        Ok(Launcher {
            bin_dir,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            scale_div: 1,
            setup_samples: SETUP_SAMPLES,
            e2e_figures: e2e_figures(),
            traced_figures: FIGURE_IDS.iter().map(|id| id.to_string()).collect(),
        })
    }

    /// Run one child to completion in `cwd` and parse what it printed.
    fn child(&self, traced_bin: bool, args: &[String], cwd: &Path) -> Result<Rep, String> {
        let bin = self.bin_dir.join(if traced_bin {
            "cmbench-traced"
        } else {
            "cmbench"
        });
        let out = Command::new(&bin)
            .arg("child")
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        if !out.status.success() {
            return Err(format!("child {args:?} ended with {}", out.status));
        }
        Rep::parse(&String::from_utf8_lossy(&out.stdout))
    }

    fn child_args(&self, workload: &str, seed: u64) -> Vec<String> {
        vec![
            workload.to_string(),
            "--seed".into(),
            seed.to_string(),
            "--scale-div".into(),
            self.scale_div.to_string(),
        ]
    }
}

/// A fresh directory children run in, so nothing they write lands in the
/// repo (`experiments::trace` writes `results/trace_chrome.json` when its
/// cwd holds `results/`). Removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path, label: &str) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover empty directory under out/ is ignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The untraced reps of one run plus the extra set-up samples.
struct Reps {
    full: Vec<Rep>,
    setup_s: Vec<f64>,
}

/// One run of one workload in progress: where its children run and the
/// span they hang under.
struct Run<'a> {
    l: &'a Launcher,
    def: &'a WorkloadDef,
    seed: u64,
    seconds: f64,
    spans: &'a mut Spans,
    scratch: Scratch,
}

impl<'a> Run<'a> {
    fn new(
        l: &'a Launcher,
        def: &'a WorkloadDef,
        seed: u64,
        seconds: f64,
        spans: &'a mut Spans,
    ) -> Result<Run<'a>, String> {
        Ok(Run {
            l,
            def,
            seed,
            seconds,
            spans,
            scratch: Scratch::new(&l.out_dir, def.name)?,
        })
    }

    /// Run one child under a span `label` of `parent`, adopting the
    /// child's own spans beneath it.
    fn child(
        &mut self,
        label: String,
        parent: Option<usize>,
        workload: &str,
        traced_bin: bool,
        args: &[String],
    ) -> Result<Rep, String> {
        let span = self.spans.open(label, parent, workload);
        let at = self.spans.now_ns();
        let rep = self.l.child(traced_bin, args, &self.scratch.0)?;
        self.spans.close(span);
        let base = self.spans.all().len();
        for (name, start, end, p) in &rep.spans {
            let parent = p.map_or(span, |p| base + p);
            self.spans
                .push(name.clone(), at + start, at + end, Some(parent), workload);
        }
        Ok(rep)
    }

    /// One rep of this run's workload under span `label` of `root`. A
    /// cell is one child. `figures_all` is one child per experiment, run
    /// one after the other and merged: inside one process the peak RSS of
    /// the series depends on how the allocator happened to reuse what
    /// earlier experiments freed (264–374 MiB over ten runs of the same
    /// 25), while each experiment alone repeats to 0.3 %.
    fn rep(
        &mut self,
        label: String,
        root: usize,
        traced_bin: bool,
        figures: &[String],
        setup_only: bool,
    ) -> Result<Rep, String> {
        let name = self.def.name;
        let mut args = self.l.child_args(name, self.seed);
        if setup_only {
            args.push("--setup-only".into());
        }
        if name != "figures_all" {
            return self.child(label, Some(root), name, traced_bin, &args);
        }
        let span = self.spans.open(label, Some(root), name);
        let mut parts = Vec::with_capacity(figures.len());
        for id in figures {
            let mut args = args.clone();
            args.extend(["--figure".to_string(), id.clone()]);
            parts.push(self.child(format!("process:{id}"), Some(span), name, false, &args)?);
        }
        self.spans.close(span);
        Ok(merge_figures(&parts))
    }

    /// Make full reps while the budget lasts (at least `min_reps`, at
    /// most `max_reps`), then top `setup_s` up to the launcher's sample count.
    fn untraced_reps(
        &mut self,
        root: usize,
        min_reps: usize,
        max_reps: usize,
    ) -> Result<Reps, String> {
        let figures = self.l.e2e_figures.clone();
        let started = Instant::now();
        let mut full = Vec::new();
        loop {
            let rep_started = started.elapsed().as_secs_f64();
            full.push(self.rep(format!("rep:{}", full.len()), root, false, &figures, false)?);
            let elapsed = started.elapsed().as_secs_f64();
            let next_would_end = elapsed + (elapsed - rep_started);
            if full.len() >= max_reps || (full.len() >= min_reps && next_would_end > self.seconds) {
                break;
            }
        }
        let mut setup_s: Vec<f64> = full.iter().map(|r| r.h("setup_s")).collect();
        while setup_s.len() < self.l.setup_samples {
            let label = format!("setup:{}", setup_s.len());
            setup_s.push(self.rep(label, root, false, &figures, true)?.h("setup_s"));
        }
        Ok(Reps { full, setup_s })
    }
}

/// Fold the one-experiment reps of a `figures_all` rep into one: times
/// and counts add up, peak RSS is the largest child's, run-queue wait is
/// weighted by wall time.
fn merge_figures(parts: &[Rep]) -> Rep {
    let mut out = Rep::default();
    let mut waited_s = 0.0;
    for p in parts {
        for (k, v) in &p.exact {
            match k.as_str() {
                "attempted" | "failed" => *out.exact.entry(k.clone()).or_default() += v,
                _ => {
                    out.exact.insert(k.clone(), *v);
                }
            }
        }
        waited_s += p.h("host.runq_wait_share") * p.h("host.run_wall_s");
        for (k, v) in &p.host {
            let slot = out.host.entry(k.clone()).or_default();
            match k.as_str() {
                "peak_rss_mib" => *slot = slot.max(*v),
                k if k.starts_with("figures.") => *slot = *v,
                _ => *slot += v,
            }
        }
    }
    // Set-up-only children report neither a run nor an outcome.
    if let Some(wall) = out.host.get("host.run_wall_s").copied() {
        out.host
            .insert("host.runq_wait_share".into(), waited_s / wall.max(1e-9));
    }
    if let Some(attempted) = out.exact.get("attempted").copied() {
        let ok = 1.0 - out.x("failed") / attempted.max(1.0);
        out.exact.insert("op_ok_share".into(), ok);
    }
    out
}

/// Checks every run makes on its untraced reps.
fn check_reps(l: &Launcher, def: &WorkloadDef, reps: &[Rep], problems: &mut Vec<String>) {
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.exact != first.exact {
            let key = first
                .exact
                .iter()
                .find(|(k, v)| rep.exact.get(*k) != Some(v))
                .map_or("a missing key", |(k, _)| k.as_str());
            problems.push(format!("rep {i} differs from rep 0 on exact value {key}"));
        }
    }
    if first.x("attempted") < 1.0 {
        problems.push("nothing was attempted".into());
    }
    if def.name == "figures_all" {
        for (k, v) in &first.exact {
            if k.starts_with("csv.") && *v != 1.0 {
                problems.push(format!("{k} = {v}: regenerated CSV differs from results/"));
            }
        }
        return;
    }
    if first.x("get_keys_balanced") != 1.0 {
        problems.push("hits + misses does not equal completed GET keys".into());
    }
    if first.x("replicas_bad") != 0.0 || first.x("replicas_present") < 1.0 {
        problems.push(format!(
            "replica read-back: {} present, {} bad",
            first.x("replicas_present"),
            first.x("replicas_bad")
        ));
    }
    // A shrunk smoke run has too few samples by design.
    for h in ["sim_get_samples", "sim_set_samples"] {
        if l.scale_div == 1 && first.x(h) < 1_000.0 {
            problems.push(format!("{h} = {}: too few for a p99", first.x(h)));
        }
    }
}

fn disturbed(reps: &[Rep]) -> usize {
    reps.iter()
        .filter(|r| r.h("host.runq_wait_share") > DISTURBED_RUNQ_SHARE)
        .count()
}

fn host_metric(name: &str, unit: &'static str, values: Vec<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: median(&values),
        values,
        mad: None,
    }
}

fn exact_metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        values: vec![value],
        mad: None,
    }
}

/// The 11 end-to-end metrics of a run's untraced reps.
fn e2e_metrics(def: &WorkloadDef, reps: &Reps) -> Vec<Metric> {
    let is_cell = def.name != "figures_all";
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.full.iter().map(f).collect::<Vec<f64>>();
    E2E.iter()
        .map(|m| {
            if m.cells_only && !is_cell {
                return exact_metric(m.name, m.unit, NOT_APPLICABLE);
            }
            match m.name {
                "setup_s" => host_metric(m.name, m.unit, reps.setup_s.clone()),
                "events_per_cpu_s" => host_metric(
                    m.name,
                    m.unit,
                    per_rep(&|r| r.x("events") / r.h("run_cpu_s")),
                ),
                "sim_ops_per_cpu_s" => {
                    host_metric(m.name, m.unit, per_rep(&|r| r.x("ops") / r.h("run_cpu_s")))
                }
                name if m.exact => exact_metric(name, m.unit, reps.full[0].x(name)),
                name => host_metric(name, m.unit, per_rep(&|r| r.h(name))),
            }
        })
        .collect()
}

fn totals(reps: &[Rep]) -> (u64, u64) {
    let sum = |k: &str| reps.iter().map(|r| r.x(k)).sum::<f64>() as u64;
    (sum("attempted"), sum("failed"))
}

/// The end-to-end run: tracing and allocation counting off.
pub fn run_e2e(
    l: &Launcher,
    def: &WorkloadDef,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut run = Run::new(l, def, seed, seconds, spans)?;
    let root = run
        .spans
        .open(format!("workload:{}", def.name), None, def.name);
    let reps = run.untraced_reps(root, def.min_reps, usize::MAX)?;
    run.spans.close(root);
    let mut problems = Vec::new();
    check_reps(l, def, &reps.full, &mut problems);
    let (attempted, failed) = totals(&reps.full);
    Ok(Outcome {
        workload: def.name.to_string(),
        seed,
        traced: false,
        reps: reps.full.len(),
        disturbed: disturbed(&reps.full),
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics: e2e_metrics(def, &reps),
        exact: reps.full[0].exact.clone(),
        ceilings: Vec::new(),
    })
}

fn call_count(calls: Calls, rep: &Rep) -> Option<f64> {
    let key = match calls {
        Calls::Events => "events",
        Calls::RmaFrames => "rma_frames",
        Calls::BackendRmaOps => "backend_rma_ops",
        Calls::GetKeys => "get_keys",
        Calls::Ops => "ops",
        Calls::Sets => "sets",
        Calls::WalAppends => "wal_appends",
        Calls::None => return None,
    };
    Some(rep.x(key))
}

/// The traced pass: unit costs from the `layers` child, then for a cell
/// one rep with `Sim::enable_tracing()`, the counting allocator and 20
/// slices beside untraced baseline reps; for `figures_all` every figure
/// timed on its own. Reports all 107 per-layer metrics; the ones the
/// workload cannot show (per-figure times on a cell; counts and stages on
/// `figures_all`, whose `Sim`s are out of reach) read 0.
pub fn run_traced(
    l: &Launcher,
    def: &WorkloadDef,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut run = Run::new(l, def, seed, seconds, spans)?;
    let is_cell = def.name != "figures_all";
    let mut problems = Vec::new();

    let layer_args = l.child_args("layers", seed);
    let layers = run.child("layers".into(), None, "layers", false, &layer_args)?;

    let root = run
        .spans
        .open(format!("workload:{}", def.name), None, def.name);
    let (baseline, traced) = if is_cell {
        let reps = run.untraced_reps(
            root,
            TRACED_BASELINE_REPS.min(def.min_reps),
            TRACED_BASELINE_REPS,
        )?;
        check_reps(l, def, &reps.full, &mut problems);
        let traced = run.rep("rep:traced".into(), root, true, &[], false)?;
        // Tracing, slicing and the counting allocator must be invisible
        // to the simulation.
        for (k, v) in &reps.full[0].exact {
            if traced.exact.get(k) != Some(v) {
                problems.push(format!(
                    "traced rep differs from untraced on exact value {k}"
                ));
            }
        }
        (reps.full, traced)
    } else {
        let rep = run.rep("rep:0".into(), root, false, &l.traced_figures, false)?;
        check_reps(l, def, std::slice::from_ref(&rep), &mut problems);
        (Vec::new(), rep)
    };
    run.spans.close(root);

    let untraced_cpu_s = if baseline.is_empty() {
        traced.h("run_cpu_s")
    } else {
        median(
            &baseline
                .iter()
                .map(|r| r.h("run_cpu_s"))
                .collect::<Vec<_>>(),
        )
    };
    let events = traced.x("events").max(1.0);
    let value_of = |m: &Layer| -> f64 {
        match m.name.as_str() {
            "allocs_per_event" => traced.x("allocs") / events,
            "alloc_bytes_per_event" => traced.x("alloc_bytes") / events,
            "trace.overhead_share" if is_cell => traced.h("run_cpu_s") / untraced_cpu_s - 1.0,
            name if layers.host.contains_key(name) => layers.h(name),
            name if traced.host.contains_key(name) => traced.h(name),
            name => traced.x(name),
        }
    };
    let catalogue = per_layer();
    let metrics = catalogue
        .iter()
        .map(|m| Metric {
            name: m.name.clone(),
            unit: m.unit,
            value: value_of(m),
            values: vec![value_of(m)],
            mad: layers.host.get(&format!("{}.mad", m.name)).copied(),
        })
        .collect();
    // A row counts only on the workloads its `moves` text names: elsewhere
    // the counter behind it counts calls of another kind.
    let ceilings = catalogue
        .iter()
        .filter(|m| is_cell && (m.moves.contains(def.name) || m.moves.contains("every cell")))
        .filter_map(|m| {
            let calls = call_count(m.calls, &traced)?;
            Some((
                m.name.clone(),
                calls * layers.h(&m.name) / 1e9 / untraced_cpu_s,
            ))
        })
        .collect();

    let (base_attempted, base_failed) = totals(&baseline);
    let (attempted, failed) = totals(std::slice::from_ref(&traced));
    let (attempted, failed) = (attempted + base_attempted, failed + base_failed);
    Ok(Outcome {
        workload: def.name.to_string(),
        seed,
        traced: true,
        reps: baseline.len() + 1,
        disturbed: disturbed(&baseline) + disturbed(std::slice::from_ref(&traced)),
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
        exact: traced.exact,
        ceilings,
    })
}

impl Outcome {
    /// The one JSON object the driver reads from the last line of stdout.
    pub fn driver_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The entry of this run in a result file (`run --out`, `traced
    /// --out`), which `compare` reads.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("unit", Json::from(m.unit)),
                ("value", Json::Num(m.value)),
                ("values", Json::nums(&m.values)),
            ];
            if let Some(mad) = m.mad {
                fields.push(("mad", Json::Num(mad)));
            }
            (m.name.clone(), Json::obj(fields))
        });
        let exact = self.exact.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("traced", Json::from(self.traced)),
            ("reps", Json::from(self.reps as u64)),
            ("disturbed_reps", Json::from(self.disturbed as u64)),
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
            ("exact", Json::obj(exact)),
        ])
    }

    /// Every metric by name and unit, then the checks, for a person.
    pub fn report(&self) -> String {
        let mut out = format!(
            "== {} seed {} {} — {} rep(s){}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end to end" },
            self.reps,
            if self.disturbed > 0 {
                format!(", {} disturbed (run-queue wait > 5 %)", self.disturbed)
            } else {
                String::new()
            }
        );
        for m in &self.metrics {
            let spread = match (m.mad, m.values.as_slice()) {
                (Some(mad), _) => format!("  (MAD {mad:.3})"),
                (None, [_]) => String::new(),
                (None, v) => {
                    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    format!("  (min {min:.6} max {max:.6} over {})", v.len())
                }
            };
            out.push_str(&format!(
                "{:<44} {:>18.6} {}{spread}\n",
                m.name, m.value, m.unit
            ));
        }
        if !self.ceilings.is_empty() {
            out.push_str(
                "-- ceiling: calls x unit cost / run_cpu_s (most a faster layer can save)\n",
            );
            for (name, share) in &self.ceilings {
                out.push_str(&format!("{name:<44} {:>17.2} %\n", share * 100.0));
            }
        }
        if self.exact.contains_key("sim_get_samples") {
            out.push_str(&format!(
                "samples: {} GET latencies, {} SET latencies; {} events, {} ops\n",
                self.exact["sim_get_samples"],
                self.exact["sim_set_samples"],
                self.exact["events"],
                self.exact["ops"],
            ));
        }
        out.push_str(&format!(
            "attempted {} failed {} — {}\n",
            self.attempted,
            self.failed,
            if self.correct {
                "all checks passed"
            } else {
                "CHECKS FAILED"
            }
        ));
        for p in &self.problems {
            out.push_str(&format!("  problem: {p}\n"));
        }
        out
    }
}
