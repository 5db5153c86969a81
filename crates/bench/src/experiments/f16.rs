//! Figure 16: 1RMA load ramp — fabric + PCIe timestamps.
//!
//! On the all-hardware 1RMA transport the serving path has no software
//! bottleneck: the NIC-measured round trip (fabric + remote PCIe) rises
//! only marginally with load, staying far from saturation.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use rma::TransportKind;
use simnet::{HostCfg, SimDuration, SimTime};
use workloads::{RampWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{populate_cell, Report, WindowSampler};

const KEYS: u64 = 4_000;

/// Build the 1RMA ramp cell. C-states stay ON (the figure's companion,
/// Fig. 17, hinges on them).
pub(crate) fn build(seed: u64) -> Cell {
    let mut spec: CellSpec = base_spec(LookupStrategy::TwoR, ReplicationMode::R1, 8);
    spec.seed = seed;
    spec.host = HostCfg::with_gbps(50.0); // C-states enabled
    spec.transport = TransportKind::OneRma;
    spec.clients_per_host = 2;
    spec.client.max_in_flight = 4096;
    let workloads: Vec<Box<dyn Workload>> = (0..8)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys: KEYS,
                rate0: 500.0,
                rate1: 50_000.0,
                duration: SimDuration::from_secs(2),
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(4096));
    cell
}

/// Shared ramp timeline over an arbitrary histogram.
pub(crate) fn ramp_timeline(report: &mut Report, cell: &mut Cell, hist: &str) {
    report.line(format!(
        "{:>8} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "t_ms", "p50_us", "p90_us", "p99_us", "p99.9_us", "get_per_s"
    ));
    let mut sampler = WindowSampler::new(&[hist], &["cm.get.completed"]);
    cell.run_for(SimDuration::from_millis(10));
    sampler.sample(cell);
    let window = SimDuration::from_millis(100);
    let start = cell.sim.now();
    for w in 0..20u64 {
        cell.sim
            .run_until(SimTime(start.nanos() + (w + 1) * window.nanos()));
        let snap = sampler.sample(cell);
        let p = snap.hists[0].1;
        let rate = snap.counters[0].1 as f64 / window.as_secs_f64();
        report.line(format!(
            "{:>8.0} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>12.0}",
            (w + 1) as f64 * 100.0,
            p[0] as f64 / 1e3,
            p[1] as f64 / 1e3,
            p[2] as f64 / 1e3,
            p[3] as f64 / 1e3,
            rate
        ));
    }
}

/// Regenerate Figure 16.
pub fn run() -> Report {
    let mut report = Report::new(
        "f16",
        "1RMA load ramp: fabric+PCIe round-trip timestamps (hardware serving path)",
    );
    let mut cell = build(47);
    ramp_timeline(&mut report, &mut cell, "cm.rma.rtt_ns");
    report
}

#[allow(dead_code)] // used by the f16/f17 shape tests
pub(crate) fn parse_rows(report: &Report) -> Vec<Vec<f64>> {
    report
        .lines
        .iter()
        .skip(1)
        .filter_map(|l| {
            let cols: Vec<f64> = l
                .split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect();
            (cols.len() == 6).then_some(cols)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_path_insensitive_to_load() {
        let r = run();
        let rows = parse_rows(&r);
        assert_eq!(rows.len(), 20);
        // Offered load grows by >10x across the ramp...
        let first_rate = rows[1][5];
        let last_rate = rows[19][5];
        assert!(last_rate > first_rate * 8.0, "{first_rate} -> {last_rate}");
        // ...while the hardware round trip's median moves only marginally.
        let first_p50 = rows[1][1];
        let last_p50 = rows[19][1];
        assert!(
            last_p50 < first_p50 * 2.0,
            "1RMA RTT ballooned: {first_p50} -> {last_p50}"
        );
    }
}
