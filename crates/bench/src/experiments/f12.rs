//! Figure 12: SCAR vs 2×R with large values — the incast effect.
//!
//! With R=3.2 and 64 KB values, SCAR solicits three full copies of the
//! datum (≈195 KB per GET) where 2×R fetches one copy plus three buckets
//! (≈67 KB). When the client's downlink also carries competing load, the
//! incast turns SCAR's single-round-trip advantage into a loss.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use simnet::{AntagonistNode, HostCfg, SimDuration, SinkNode};
use workloads::{SingleKeyGets, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{populate_cell, Report};

const VALUE: usize = 64 << 10;

fn measure(strategy: LookupStrategy, client_load: bool) -> u64 {
    let mut spec: CellSpec = base_spec(strategy, ReplicationMode::R32, 3);
    spec.seed = 29;
    spec.host = HostCfg::with_gbps(50.0).no_cstates();
    let workloads: Vec<Box<dyn Workload>> =
        vec![Box::new(SingleKeyGets::new("big0", 3_000.0, u64::MAX)) as Box<dyn Workload>];
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "big", 1, &SizeDist::fixed(VALUE));
    if client_load {
        // Competing inbound traffic at the client host exacerbates incast.
        let client_host = cell.client_hosts[0];
        let blaster_host = cell.sim.add_host(HostCfg::with_gbps(50.0).no_cstates());
        let sink = cell
            .sim
            .add_node(client_host, Box::new(SinkNode::default()));
        cell.sim
            .add_node(blaster_host, Box::new(AntagonistNode::new(sink, 30.0)));
    }
    cell.run_for(SimDuration::from_millis(20));
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    cell.run_for(SimDuration::from_millis(200));
    crate::harness::pctl_ns(&cell, "cm.get.latency_ns", 50.0)
}

/// Regenerate Figure 12.
pub fn run() -> Report {
    let mut report = Report::new(
        "f12",
        "SCAR vs 2xR median GET latency with 64KB values, with/without client-side load",
    );
    report.line(format!(
        "{:>8} {:>22} {:>22}",
        "strategy", "no_load_median_us", "with_load_median_us"
    ));
    for (name, strategy) in [
        ("2xR", LookupStrategy::TwoR),
        ("SCAR", LookupStrategy::Scar),
    ] {
        let quiet = measure(strategy, false);
        let loaded = measure(strategy, true);
        report.line(format!(
            "{name:>8} {:>22.1} {:>22.1}",
            quiet as f64 / 1e3,
            loaded as f64 / 1e3
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_flips_the_winner_for_large_values() {
        let two_r_quiet = measure(LookupStrategy::TwoR, false);
        let scar_quiet = measure(LookupStrategy::Scar, false);
        let two_r_loaded = measure(LookupStrategy::TwoR, true);
        let scar_loaded = measure(LookupStrategy::Scar, true);
        // With 64KB values SCAR moves ~3x the bytes; it should lag 2xR
        // (the figure's headline), and competing client load should
        // amplify the gap.
        assert!(
            scar_quiet > two_r_quiet,
            "SCAR should lag at 64KB: scar {scar_quiet} vs 2xR {two_r_quiet}"
        );
        let quiet_gap = scar_quiet as f64 / two_r_quiet as f64;
        let loaded_gap = scar_loaded as f64 / two_r_loaded as f64;
        assert!(
            loaded_gap > quiet_gap * 0.9,
            "client load should not erase the gap: quiet {quiet_gap:.2} loaded {loaded_gap:.2}"
        );
    }
}
