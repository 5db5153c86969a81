//! Every workload through the real child-process path, shrunk: each cell
//! at 1/50 of its span, `figures_all` as `f10` alone, and one traced run.

use std::path::PathBuf;

use benchmark::metrics::{per_layer, E2E};
use benchmark::runner::{run_e2e, run_traced, Launcher};
use benchmark::span::Spans;
use benchmark::workloads::{WorkloadDef, WORKLOADS};

fn launcher(label: &str) -> Launcher {
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_cmbench"));
    assert!(
        PathBuf::from(env!("CARGO_BIN_EXE_cmbench-traced")).parent() == bin.parent(),
        "both binaries live in one directory"
    );
    Launcher {
        bin_dir: bin.parent().expect("binary has a directory").to_path_buf(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label),
        scale_div: 50,
        setup_samples: 1,
        e2e_figures: vec!["f10".into()],
        traced_figures: vec!["f10".into(), "a3".into()],
    }
}

/// One rep instead of the workload's floor: this checks plumbing.
fn one_rep(def: &WorkloadDef) -> WorkloadDef {
    WorkloadDef {
        min_reps: 1,
        ..*def
    }
}

#[test]
fn every_workload_runs_end_to_end_and_checks_out() {
    let l = launcher("e2e");
    for def in &WORKLOADS {
        let mut spans = Spans::default();
        let out = run_e2e(&l, &one_rep(def), 1, 0.0, &mut spans).expect(def.name);
        assert!(out.correct, "{}: {:?}", def.name, out.problems);
        assert_eq!(out.failed, 0, "{}", def.name);
        assert!(out.attempted >= 1, "{}", def.name);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", def.name);
        for m in &out.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{} {} = {}",
                def.name,
                m.name,
                m.value
            );
        }
        // workload > rep:0 > [process:<id> >] {setup, run}
        let spans = spans.all();
        assert_eq!(spans[0].name, format!("workload:{}", def.name));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("rep:0", Some(0))
        );
        assert!(spans.iter().any(|s| s.name == "run"));
    }
}

#[test]
fn traced_runs_report_every_layer_metric() {
    let l = launcher("traced");
    for name in ["mut_durable", "figures_all"] {
        let def = one_rep(WORKLOADS.iter().find(|w| w.name == name).expect("workload"));
        let mut spans = Spans::default();
        let out = run_traced(&l, &def, 2, 0.0, &mut spans).expect(name);
        assert!(out.correct, "{name}: {:?}", out.problems);
        let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        let want: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{name}");
        let value = |metric: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == metric)
                .map(|m| m.value)
                .expect(metric)
        };
        assert!(value("rpc.codec.request_enc_512_ns") > 0.0);
        if name == "mut_durable" {
            assert!(value("events_per_op") > 1.0);
            assert!(
                value("allocs_per_event") > 0.0,
                "counting allocator is installed"
            );
            assert!(value("wal_appends_per_set") > 0.0);
            let stages: f64 = out
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("obs.stage."))
                .map(|m| m.value)
                .sum();
            assert!((stages - 1.0).abs() < 1e-9, "stage shares sum to {stages}");
            assert!(!out.ceilings.is_empty());
            assert!(spans.all().iter().any(|s| s.name == "slice:20"));
        } else {
            assert!(value("figures.f10.cpu_s") > 0.0 && value("figures.a3.cpu_s") > 0.0);
            assert_eq!(
                value("figures.batch.cpu_s"),
                0.0,
                "not run in this smoke test"
            );
            assert!(spans.all().iter().any(|s| s.name == "experiment:a3"));
        }
        assert!(spans
            .all()
            .iter()
            .any(|s| s.name == "simnet.queue.push_pop_4k_ns"));
    }
}
