//! Figure 11: preferred backend selection benefits under server load.
//!
//! A 3-backend cell, clients repeatedly GET the same 4 KB pair, and one
//! backend is put under ~95 Gbps of competing NIC demand by an antagonist.
//! R=3.2's first-responder preference routes data fetches away from the
//! loaded replica, so latency barely moves; R=1 has no choice and suffers
//! at both the median and the tail.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{place, DefaultHasher, KeyHasher};
use cliquemap::workload::Workload;
use simnet::{AntagonistNode, HostCfg, SimDuration, SinkNode};
use workloads::{Prefill, SingleKeyGets, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{populate_cell, Report};

const HOT_KEY: &str = "hot0";
const VALUE: usize = 4096;

fn measure(replication: ReplicationMode, load: bool) -> (u64, u64) {
    let mut spec: CellSpec = base_spec(LookupStrategy::TwoR, replication, 3);
    spec.seed = 23;
    spec.host = HostCfg::with_gbps(100.0).no_cstates();
    let workloads: Vec<Box<dyn Workload>> = (0..4)
        .map(|_| Box::new(SingleKeyGets::new(HOT_KEY, 20_000.0, u64::MAX)) as Box<dyn Workload>)
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "hot", 1, &SizeDist::fixed(VALUE));
    debug_assert_eq!(Prefill::key_name("hot", 0), bytes::Bytes::from(HOT_KEY));
    // The loaded backend: the key's primary replica.
    let hash = DefaultHasher.hash(HOT_KEY.as_bytes());
    let victim_shard = place(hash, 3, 1).shard;
    let victim_host = cell.backend_hosts[victim_shard as usize];
    if load {
        // ~95 Gbps of competing demand through the victim's NIC: inbound
        // (a remote blaster at its RX) and outbound (a co-tenant blaster
        // occupying its TX).
        let blaster_host = cell.sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let rx_sink = cell
            .sim
            .add_node(victim_host, Box::new(SinkNode::default()));
        cell.sim
            .add_node(blaster_host, Box::new(AntagonistNode::new(rx_sink, 95.0)));
        let remote_sink_host = cell.sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let tx_sink = cell
            .sim
            .add_node(remote_sink_host, Box::new(SinkNode::default()));
        cell.sim
            .add_node(victim_host, Box::new(AntagonistNode::new(tx_sink, 95.0)));
    }
    // Warm up (connections, speculation state), then measure.
    cell.run_for(SimDuration::from_millis(20));
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    cell.run_for(SimDuration::from_millis(200));
    (
        crate::harness::pctl_ns(&cell, "cm.get.latency_ns", 50.0),
        crate::harness::pctl_ns(&cell, "cm.get.latency_ns", 99.0),
    )
}

/// Regenerate Figure 11.
pub fn run() -> Report {
    let mut report = Report::new(
        "f11",
        "Preferred backend selection under a ~95 Gbps server antagonist (normalized to no-load)",
    );
    report.line(format!(
        "{:>22} {:>12} {:>12}",
        "configuration", "p50_norm", "p99_norm"
    ));
    for (name, replication) in [
        ("R=3.2", ReplicationMode::R32),
        ("R=1", ReplicationMode::R1),
    ] {
        let (base_p50, base_p99) = measure(replication, false);
        let (load_p50, load_p99) = measure(replication, true);
        report.line(format!(
            "{:>22} {:>12.2} {:>12.2}",
            format!("{name} no-load"),
            1.0,
            1.0
        ));
        report.line(format!(
            "{:>22} {:>12.2} {:>12.2}",
            format!("{name} loaded"),
            load_p50 as f64 / base_p50.max(1) as f64,
            load_p99 as f64 / base_p99.max(1) as f64
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoruming_tolerates_a_slow_server() {
        let (r32_base_p50, r32_base_p99) = measure(ReplicationMode::R32, false);
        let (r32_load_p50, r32_load_p99) = measure(ReplicationMode::R32, true);
        let (r1_base_p50, _r1_base_p99) = measure(ReplicationMode::R1, false);
        let (r1_load_p50, _r1_load_p99) = measure(ReplicationMode::R1, true);
        let r32_p50 = r32_load_p50 as f64 / r32_base_p50 as f64;
        let r32_p99 = r32_load_p99 as f64 / r32_base_p99 as f64;
        let r1_p50 = r1_load_p50 as f64 / r1_base_p50 as f64;
        // R=3.2 under load: near no-load latency.
        assert!(r32_p50 < 1.35, "R3.2 p50 blew up: {r32_p50:.2}x");
        assert!(r32_p99 < 2.0, "R3.2 p99 blew up: {r32_p99:.2}x");
        // R=1 under load: clearly elevated, and worse than R=3.2.
        assert!(r1_p50 > 1.25, "R1 unaffected?! {r1_p50:.2}x");
        assert!(r1_p50 > r32_p50);
    }
}
