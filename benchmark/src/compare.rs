//! `compare A.json B.json`: hold two result files against the bounds.
//!
//! One row per (workload, metric): `same`, `better`, `worse`, or
//! `unresolved` when either side's reps spread (first to third quartile,
//! as a share of the median) wider than the bound — then the run cannot
//! tell. Exact metrics must be bit-identical, and so
//! must every exact value the two files share. Per-layer metrics are
//! printed against a 15 % band and never fail the comparison.

use crate::json::Json;
use crate::metrics::{per_layer, Better, E2E};
use crate::stats::{median, quartile_spread};

/// Band inside which a per-layer metric counts as unchanged.
const LAYER_BAND: f64 = 0.15;

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// A side's reps spread wider than the bound.
    Unresolved,
    /// An exact metric differs.
    Differs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// Judge B against A for one noisy metric. `a` and `b` are the per-rep
/// values; the medians are compared.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if quartile_spread(a) > bound || quartile_spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Members of object `key` of `j`; none when it is missing.
fn members<'a>(j: &'a Json, key: &str) -> impl Iterator<Item = (&'a String, &'a Json)> {
    j.get(key).and_then(Json::as_obj).into_iter().flatten()
}

fn rep_values(metric: Option<&Json>) -> Vec<f64> {
    metric
        .and_then(|m| m.get("values"))
        .and_then(Json::as_nums)
        .unwrap_or_default()
}

/// Compare two parsed result files; returns the printed table and
/// whether anything failed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let layers = per_layer();
    for side in [a, b] {
        if side.get("workloads").and_then(Json::as_obj).is_none() {
            return Err("result file has no \"workloads\" object".into());
        }
    }
    let mut out = format!(
        "{:<12} {:<44} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "B vs A"
    );
    let mut failed = false;
    for (name, ra) in members(a, "workloads") {
        let Some(rb) = b.get("workloads").and_then(|w| w.get(name)) else {
            out.push_str(&format!("{name:<12} missing from B\n"));
            failed = true;
            continue;
        };
        for (metric, va) in members(ra, "metrics") {
            let xa = rep_values(Some(va));
            let xb = rep_values(rb.get("metrics").and_then(|m| m.get(metric)));
            if xa.is_empty() || xb.is_empty() {
                out.push_str(&format!("{name:<12} {metric:<44} missing from a side\n"));
                failed = true;
                continue;
            }
            let e2e = E2E.iter().find(|m| m.name == metric.as_str());
            let verdict = match e2e {
                Some(m) if m.exact => {
                    if xa == xb {
                        Verdict::Same
                    } else {
                        Verdict::Differs
                    }
                }
                Some(m) => judge(&xa, &xb, m.better, m.bound),
                None => {
                    let better = layers
                        .iter()
                        .find(|l| l.name == *metric)
                        .map_or(Better::Lower, |l| l.better);
                    judge(&xa, &xb, better, LAYER_BAND)
                }
            };
            failed |= e2e.is_some() && verdict.fails();
            let (va, vb) = (median(&xa), median(&xb));
            let change = if va == 0.0 {
                0.0
            } else {
                (vb - va) / va.abs() * 100.0
            };
            out.push_str(&format!(
                "{name:<12} {metric:<44} {va:>16.6} {vb:>16.6} {change:>+8.2}%  {}{}\n",
                verdict.as_str(),
                if e2e.is_none() {
                    " (informational)"
                } else {
                    ""
                },
            ));
        }
        // Everything both runs counted exactly must agree when the seeds do.
        if ra.get("seed") == rb.get("seed") {
            for (k, v) in members(ra, "exact") {
                if rb
                    .get("exact")
                    .and_then(|e| e.get(k))
                    .is_some_and(|w| w != v)
                {
                    out.push_str(&format!("{name:<12} exact value {k} DIFFERS\n"));
                    failed = true;
                }
            }
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_reps() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&a, &[10.2, 10.3, 10.1], Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[8.5, 8.6, 8.4], Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[8.5, 8.6, 8.4], Better::Higher, 0.10),
            Verdict::Worse
        );
        // One side too noisy to tell.
        assert_eq!(
            judge(&a, &[9.0, 11.5, 10.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(judge(&[5.0], &[5.2], Better::Lower, 0.05), Verdict::Same);
    }

    fn file(run_cpu: &[f64], p99: f64, events: f64) -> Json {
        let metric = |values: &[f64]| Json::obj([("values", Json::nums(values))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "get_scar",
                Json::obj([
                    ("seed", Json::from(1u64)),
                    (
                        "metrics",
                        Json::obj([
                            ("run_cpu_s", metric(run_cpu)),
                            ("sim_get_p99_ns", metric(&[p99])),
                        ]),
                    ),
                    ("exact", Json::obj([("events", Json::Num(events))])),
                ]),
            )]),
        )])
    }

    #[test]
    fn files_agree_or_fail() {
        let a = file(&[5.0, 5.1, 5.05], 126976.0, 14518928.0);
        let (table, failed) = compare(&a, &file(&[5.1, 5.0, 5.2], 126976.0, 14518928.0)).unwrap();
        assert!(!failed, "{table}");
        assert!(table.contains("same"));
        // A simulated statistic moved: exact metrics allow no drift at all.
        let (table, failed) = compare(&a, &file(&[5.0, 5.1, 5.05], 126977.0, 14518928.0)).unwrap();
        assert!(failed && table.contains("DIFFERS"), "{table}");
        // An exact count moved although every metric agrees.
        let (table, failed) = compare(&a, &file(&[5.0, 5.1, 5.05], 126976.0, 14518929.0)).unwrap();
        assert!(failed && table.contains("exact value events"), "{table}");
        // Host time regressed past its bound.
        let (table, failed) = compare(&a, &file(&[7.0, 7.1, 7.05], 126976.0, 14518928.0)).unwrap();
        assert!(failed && table.contains("worse"), "{table}");
        assert!(compare(&Json::Null, &a).is_err());
    }
}
