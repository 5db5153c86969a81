//! Figure 13: planned maintenance via warm spares at a steady 100K GET/s.
//!
//! A timeline around a planned restart: the notified primary migrates its
//! shard to a warm spare over RPC (the byte spike), clients converge to
//! the spare via the config-id-in-bucket mechanism, the primary exits,
//! and later the process reverses to hand the shard back. Client-observed
//! latency barely moves — warm sparing "effectively hides planned
//! maintenance".

use cliquemap::cell::{Cell, CellSpec, InjectorNode};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::messages::{method, PrepareMaintenance};
use cliquemap::workload::Workload;
use simnet::{SimDuration, SimTime};
use workloads::{MixWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{populate_cell, Report, WindowSampler};

const KEYS: u64 = 2_000;
const CLIENTS: usize = 10;

/// Figure 13's cell, keeping a History from before its keys are loaded if
/// `history`.
pub(crate) fn maintenance_cell(seed: u64, history: bool) -> Cell {
    let mut spec: CellSpec = base_spec(LookupStrategy::TwoR, ReplicationMode::R32, 4);
    spec.seed = seed;
    spec.num_spares = 1;
    spec.clients_per_host = 2;
    // Short retry timeouts so failover is visible at this timescale.
    spec.client.attempt_timeout = SimDuration::from_micros(500);
    let workloads: Vec<Box<dyn Workload>> = (0..CLIENTS)
        .map(|_| {
            Box::new(MixWorkload::new(
                "k",
                KEYS,
                0.2,
                1.0,
                SizeDist::fixed(512),
                10_000.0,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    if history {
        cell.record_history();
    }
    populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(512));
    cell
}

pub(crate) fn timeline(
    report: &mut Report,
    cell: &mut Cell,
    total: SimDuration,
    window: SimDuration,
    warmup: SimDuration,
    marks: &[(SimTime, &str)],
) {
    report.line(format!(
        "{:>9} {:>9} {:>10} {:>14} {:>8} {:>8}",
        "t_ms", "p50_us", "p99.9_us", "rpc_MB_per_s", "errors", "event"
    ));
    let mut sampler = WindowSampler::new(&["cm.get.latency_ns"], &["cm.rpc_bytes", "cm.op_errors"]);
    cell.run_for(warmup);
    sampler.sample(cell);
    let start = cell.sim.now();
    let windows = total.nanos() / window.nanos();
    for w in 0..windows {
        let end = SimTime(start.nanos() + (w + 1) * window.nanos());
        cell.sim.run_until(end);
        let snap = sampler.sample(cell);
        let p = snap.hists[0].1;
        let mbps = snap.counters[0].1 as f64 / window.as_secs_f64() / 1e6;
        let errs = snap.counters[1].1;
        let event = marks
            .iter()
            .find(|(t, _)| t.nanos() > end.nanos() - window.nanos() && t.nanos() <= end.nanos())
            .map(|(_, e)| *e)
            .unwrap_or("");
        report.line(format!(
            "{:>9.1} {:>9.1} {:>10.1} {:>14.2} {:>8} {:>8}",
            (end.nanos() - start.nanos()) as f64 / 1e6,
            p[0] as f64 / 1e3,
            p[3] as f64 / 1e3,
            mbps,
            errs,
            event
        ));
    }
}

/// Regenerate Figure 13.
pub fn run() -> Report {
    run_cell(false).0
}

/// Figure 13's run, on a cell that keeps a History if `history`.
fn run_cell(history: bool) -> (Report, Cell) {
    let mut report = Report::new(
        "f13",
        "Planned maintenance via warm spares at steady load (latency + RPC byte timeline)",
    );
    let mut cell = maintenance_cell(37, history);
    // Notify backend 0 of planned maintenance at t=150ms (relative to the
    // 10ms warm-up): migrate to the spare.
    let injector_host = cell.sim.add_host(simnet::HostCfg::default());
    let spare = cell.spares[0];
    let body = PrepareMaintenance {
        spare_node: spare.0,
    }
    .encode_in(&bytes::Pool::new());
    let at = SimTime(160_000_000);
    cell.sim.add_node(
        injector_host,
        Box::new(InjectorNode::new(
            at,
            cell.backends[0],
            method::PREPARE_MAINTENANCE,
            body,
        )),
    );
    timeline(
        &mut report,
        &mut cell,
        SimDuration::from_millis(500),
        SimDuration::from_millis(25),
        SimDuration::from_millis(10),
        &[(at, "migrate")],
    );
    let takeovers = cell.sim.metrics().counter("cm.backend.takeovers");
    let migrated = cell.sim.metrics().counter("cm.backend.migrate_in_entries");
    report.line(format!(
        "takeovers={takeovers} migrated_entries={migrated} retired={}",
        cell.sim.metrics().counter("cm.backend.retired")
    ));
    (report, cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquemap::config::ReplicationMode::R32;
    use cliquemap::history::{self, Violation};

    /// ROADMAP 2(l), pinned: the fault-free planned maintenance leaves 38
    /// quorum GETs of clients 6, 8 and 12, invoked 173.1–180.0 ms, open at
    /// the run's end (510 ms, more than three deadlines later), and `check`
    /// finds nothing else. A guard for changes to the read path: the count
    /// moves only with a fix for 2(l).
    #[test]
    fn planned_maintenance_strands_38_gets() {
        let (_, mut cell) = run_cell(true);
        assert_eq!(cell.sim.now(), SimTime(510_000_000));
        let violations = history::check(&cell.history(), R32);
        let stuck: Vec<_> = violations
            .iter()
            .filter_map(|v| match v {
                Violation::Stuck(op) => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(stuck.len(), 38, "{violations:?}");
        assert_eq!(violations.len(), 38, "{violations:?}");
        let mut clients: Vec<u32> = stuck.iter().map(|op| op.client).collect();
        clients.sort_unstable();
        clients.dedup();
        assert_eq!(clients, [6, 8, 12]);
        let invoked = stuck.iter().map(|op| op.invoked);
        let (first, last) = (invoked.clone().min(), invoked.max());
        assert_eq!((first, last), (Some(173_079_123), Some(179_950_754)));
    }

    #[test]
    fn sparing_hides_planned_maintenance() {
        let r = run();
        let tail = r.lines.last().unwrap().clone();
        assert!(tail.contains("takeovers=1"), "{tail}");
        assert!(tail.contains("retired=1"), "{tail}");
        let rows: Vec<Vec<String>> = r
            .lines
            .iter()
            .skip(1)
            .filter(|l| !l.contains("takeovers"))
            .map(|l| l.split_whitespace().map(|s| s.to_string()).collect())
            .collect();
        // RPC bytes spike during the migration window.
        let mbps: Vec<f64> = rows.iter().map(|r| r[3].parse().unwrap()).collect();
        let pre = mbps[..5].iter().cloned().fold(0.0, f64::max);
        let during = mbps[5..12].iter().cloned().fold(0.0, f64::max);
        assert!(
            during > pre * 2.0,
            "no migration byte spike: pre {pre} during {during}"
        );
        // Client-observed errors stay rare throughout ("fewer than 1 op in
        // 1000 observes degraded performance").
        let total_errors: u64 = rows.iter().map(|r| r[4].parse::<u64>().unwrap()).sum();
        let gets = r.lines.iter().skip(1).count() as u64;
        let _ = gets;
        assert!(total_errors < 100, "errors {total_errors}");
        // Median latency in the last windows is comparable to the first.
        let p50_first: f64 = rows[1][1].parse().unwrap();
        let p50_last: f64 = rows[rows.len() - 2][1].parse().unwrap();
        assert!(
            p50_last < p50_first * 2.5,
            "median degraded: {p50_first} -> {p50_last}"
        );
    }
}
