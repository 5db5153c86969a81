//! Figure 18: latency under varying GET/SET mixes at fixed 4 KB values.
//!
//! "It is no surprise that greater percentages of RPC-based SETs incur
//! greater overheads and worse typical latency, as progressively more of
//! the workload is unable to use RMA."

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use simnet::SimDuration;
use workloads::{MixWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{pctl_us as pctl, populate_cell, Report};

pub(crate) const KEYS: u64 = 2_000;

/// One mix run; returns the cell post-run for latency and CPU readouts.
pub(crate) fn run_mix(get_fraction: f64, value: usize, seed: u64) -> Cell {
    let mut spec: CellSpec = base_spec(LookupStrategy::TwoR, ReplicationMode::R32, 4);
    spec.seed = seed;
    spec.clients_per_host = 2;
    let workloads: Vec<Box<dyn Workload>> = (0..6)
        .map(|_| {
            Box::new(MixWorkload::new(
                "k",
                KEYS,
                0.5,
                get_fraction,
                SizeDist::fixed(value),
                8_000.0,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(value));
    cell.run_for(SimDuration::from_millis(20));
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    crate::harness::hist_mut(&mut cell, "cm.set.latency_ns").clear();
    cell.run_for(SimDuration::from_millis(300));
    cell
}

/// Regenerate Figure 18.
pub fn run() -> Report {
    let mut report = Report::new(
        "f18",
        "Latencies under varying GET/SET mixes (fixed 4KB values)",
    );
    report.line(format!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "mix", "get_p50", "get_p99", "set_p50", "set_p99"
    ));
    for (label, frac) in [("5% GETs", 0.05), ("50% GETs", 0.50), ("95% GETs", 0.95)] {
        let cell = run_mix(frac, 4096, 59);
        report.line(format!(
            "{label:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            pctl(&cell, "cm.get.latency_ns", 50.0),
            pctl(&cell, "cm.get.latency_ns", 99.0),
            pctl(&cell, "cm.set.latency_ns", 50.0),
            pctl(&cell, "cm.set.latency_ns", 99.0),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gets_far_faster_than_sets() {
        let cell = run_mix(0.5, 4096, 61);
        let get_p50 = pctl(&cell, "cm.get.latency_ns", 50.0);
        let set_p50 = pctl(&cell, "cm.set.latency_ns", 50.0);
        // RMA reads vs replicated RPC writes: a large constant factor.
        assert!(
            set_p50 > get_p50 * 2.0,
            "get {get_p50}us vs set {set_p50}us"
        );
        assert!(get_p50 > 1.0, "gets actually ran");
    }
}
