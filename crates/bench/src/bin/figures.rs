//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- f7 f11 f15
//! cargo run --release -p bench --bin figures -- --filter f1
//! cargo run --release -p bench --bin figures -- all --jobs 4
//! cargo run --release -p bench --bin figures -- all --csv out/
//! cargo run --release -p bench --bin figures -- --verify
//! ```
//!
//! `--filter <fig>` selects every known experiment whose id contains the
//! given substring (`--filter f1` runs f10..f19 and f1-prefixed ids), and
//! may be repeated; it composes with explicitly named ids.
//!
//! Experiments are independent, deterministic simulations; `--jobs N` runs
//! them on N threads without changing any result. The default is one job
//! per available core; pass `--jobs 1` for serial runs.
//!
//! `--verify` (run from the workspace root) is the reproducibility gate:
//! it regenerates the selected experiments twice and compares each CSV
//! run-to-run and against the committed `results/<id>.csv` — and, for
//! `trace`, the `results/trace_chrome.json` it rewrites — printing the
//! differing ids and exiting 1 on any mismatch.

use std::sync::Mutex;

/// Run `ids` on `jobs` threads; reports come back in `ids` order, each with
/// its wall time.
fn run_all(ids: &[String], jobs: usize) -> Vec<(bench::Report, f64)> {
    let queue: Mutex<Vec<(usize, &String)>> = Mutex::new(ids.iter().enumerate().rev().collect());
    let reports: Mutex<Vec<(usize, bench::Report, f64)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let next = queue.lock().unwrap().pop();
                let Some((order, id)) = next else { break };
                let start = std::time::Instant::now();
                let report = bench::run_experiment(id);
                reports
                    .lock()
                    .unwrap()
                    .push((order, report, start.elapsed().as_secs_f64()));
            });
        }
    });
    let mut reports = reports.into_inner().unwrap();
    reports.sort_by_key(|(order, _, _)| *order);
    reports.into_iter().map(|(_, r, secs)| (r, secs)).collect()
}

/// What one pass leaves behind per experiment: `(artifact name, bytes)`.
/// The `trace` experiment also rewrites the Chrome export as a side effect.
fn artifacts(ids: &[String], jobs: usize) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = run_all(ids, jobs)
        .into_iter()
        .map(|(r, _)| (format!("{}.csv", r.id), r.to_csv().into_bytes()))
        .collect();
    if ids.iter().any(|id| id == "trace") {
        out.push((
            CHROME.to_string(),
            std::fs::read(committed(CHROME)).unwrap_or_default(),
        ));
    }
    out
}

const CHROME: &str = "trace_chrome.json";

fn committed(name: &str) -> String {
    format!("results/{name}")
}

/// Regenerate `ids` twice; every artifact must match run-to-run and the
/// bytes committed under `results/`. Returns the names that differ.
fn verify(ids: &[String], jobs: usize) -> Vec<String> {
    assert!(
        std::path::Path::new("results").is_dir(),
        "--verify compares against ./results; run it from the workspace root"
    );
    // Read the committed Chrome export before the first pass rewrites it.
    let chrome_before = std::fs::read(committed(CHROME)).unwrap_or_default();
    let first = artifacts(ids, jobs);
    let second = artifacts(ids, jobs);
    let mut differing = Vec::new();
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let want = if name == CHROME {
            chrome_before.clone()
        } else {
            std::fs::read(committed(name)).unwrap_or_default()
        };
        if a != b {
            eprintln!("{name}: two runs differ (nondeterministic)");
        } else if *a != want {
            eprintln!("{name}: differs from committed {}", committed(name));
        } else {
            continue;
        }
        differing.push(name.clone());
    }
    differing
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut csv_dir: Option<String> = None;
    let mut verifying = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = it.next().and_then(|v| v.parse().ok()).expect("--jobs N");
            }
            "--csv" => {
                csv_dir = Some(it.next().expect("--csv DIR"));
            }
            "--verify" => verifying = true,
            "--filter" => {
                let pat = it.next().expect("--filter FIG");
                let matched: Vec<String> = bench::ALL_EXPERIMENTS
                    .iter()
                    .filter(|id| id.contains(&pat))
                    .map(|s| s.to_string())
                    .collect();
                assert!(
                    !matched.is_empty(),
                    "--filter {pat:?} matches no experiment; known: {:?}",
                    bench::ALL_EXPERIMENTS
                );
                ids.extend(matched);
            }
            "--list" => {
                for id in bench::ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = bench::ALL_EXPERIMENTS
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    // Overlapping filters / explicit ids shouldn't run anything twice.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    if verifying {
        let differing = verify(&ids, jobs);
        if differing.is_empty() {
            println!(
                "verify OK: {} experiments, twice, byte-identical",
                ids.len()
            );
            return;
        }
        println!("verify FAILED: {}", differing.join(" "));
        std::process::exit(1);
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    for (report, secs) in run_all(&ids, jobs) {
        report.print();
        eprintln!("[{} took {secs:.1}s]", report.id);
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{}.csv", report.id);
            std::fs::write(&path, report.to_csv()).expect("write csv");
        }
    }
}
