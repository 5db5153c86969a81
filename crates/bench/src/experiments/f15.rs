//! Figure 15: Pony Express scale-out under a load ramp.
//!
//! An R=1 SCAR cell where offered load ramps up; Pony engines scale out to
//! additional cores — co-tenant hosts (backend + clients) first, then the
//! client-only band — and client-side scale-out *reduces* tail latency
//! even as load keeps rising, because receive processing parallelises.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use rma::PonyCfg;
use simnet::{HostId, SimDuration, SimTime};
use workloads::{RampWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{populate_cell, Report, WindowSampler};

const KEYS: u64 = 4_000;
const BACKENDS: u32 = 10;
const CLIENTS: usize = 20;

fn mean_engines(cell: &Cell, hosts: &[HostId]) -> f64 {
    if hosts.is_empty() {
        return 0.0;
    }
    let total: u32 = hosts.iter().map(|&h| cell.engines_on(h)).sum();
    total as f64 / hosts.len() as f64
}

/// Build the ramp cell; returns (cell, co-tenant hosts, client-only hosts).
///
/// Pony engine pools are host-level, so co-tenant hosts (backend + client)
/// aggregate both loads onto one pool and cross the scale-out watermark
/// before the client-only band does.
pub(crate) fn build() -> (Cell, Vec<HostId>, Vec<HostId>) {
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R1, BACKENDS);
    spec.seed = 43;
    // Half the clients ride on backend hosts (the co-tenant band); the
    // rest get one host each (the client-only band).
    spec.colocate_fraction = 0.5;
    spec.clients_per_host = 1;
    spec.client.max_in_flight = 4096;
    // Engines sized so the ramp's peak pushes a host's pool past the
    // scale-out watermark (the paper's engines run much higher absolute op
    // rates; the offered-load : engine-capacity ratio is what matters).
    spec.pony = PonyCfg {
        min_engines: 1,
        max_engines: 4,
        op_cost: SimDuration::from_micros(3),
        per_kb: SimDuration::from_nanos(500),
        window: SimDuration::from_millis(1),
    };
    let workloads: Vec<Box<dyn Workload>> = (0..CLIENTS)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys: KEYS,
                rate0: 2_000.0,
                rate1: 100_000.0,
                duration: SimDuration::from_secs(2),
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(4096));
    let cotenant = cell.backend_hosts.clone();
    let client_only = cell.client_hosts.clone();
    (cell, cotenant, client_only)
}

/// Regenerate Figure 15.
pub fn run() -> Report {
    let mut report = Report::new(
        "f15",
        "Pony Express scale-out during a load ramp (latency percentiles + engines/host)",
    );
    let (mut cell, cotenant, client_only) = build();
    report.line(format!(
        "{:>8} {:>9} {:>9} {:>9} {:>12} {:>14} {:>16}",
        "t_ms", "p50_us", "p90_us", "p99_us", "get_per_s", "cotenant_eng", "clientonly_eng"
    ));
    let mut sampler = WindowSampler::new(&["cm.get.latency_ns"], &["cm.get.completed"]);
    cell.run_for(SimDuration::from_millis(10));
    sampler.sample(&mut cell);
    let window = SimDuration::from_millis(100);
    let start = cell.sim.now();
    for w in 0..20u64 {
        cell.sim
            .run_until(SimTime(start.nanos() + (w + 1) * window.nanos()));
        let snap = sampler.sample(&mut cell);
        let p = snap.hists[0].1;
        let rate = snap.counters[0].1 as f64 / window.as_secs_f64();
        let co = mean_engines(&cell, &cotenant);
        let only = mean_engines(&cell, &client_only);
        report.line(format!(
            "{:>8.0} {:>9.1} {:>9.1} {:>9.1} {:>12.0} {:>14.2} {:>16.2}",
            (w + 1) as f64 * 100.0,
            p[0] as f64 / 1e3,
            p[1] as f64 / 1e3,
            p[2] as f64 / 1e3,
            rate,
            co,
            only
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cotenant_hosts_scale_out_first() {
        let (mut cell, cotenant, client_only) = build();
        // Early in the ramp: nobody scaled out.
        cell.run_for(SimDuration::from_millis(150));
        let co_early = mean_engines(&cell, &cotenant);
        let only_early = mean_engines(&cell, &client_only);
        assert!(co_early < 1.6, "premature scale-out {co_early}");
        // Mid-ramp: co-tenant band leads.
        cell.run_for(SimDuration::from_millis(900));
        let co_mid = mean_engines(&cell, &cotenant);
        let only_mid = mean_engines(&cell, &client_only);
        // Late: both bands scaled out.
        cell.run_for(SimDuration::from_millis(900));
        let co_late = mean_engines(&cell, &cotenant);
        let only_late = mean_engines(&cell, &client_only);
        assert!(
            co_late > 1.5,
            "co-tenant never scaled out: early {co_early} mid {co_mid} late {co_late}"
        );
        assert!(
            co_mid >= only_mid,
            "client-only led the scale-out: co {co_mid} vs only {only_mid}"
        );
        assert!(
            only_late > only_early,
            "client-only band never scaled: {only_early} -> {only_late}"
        );
    }
}
