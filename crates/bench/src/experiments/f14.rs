//! Figure 14: unplanned maintenance via repairs.
//!
//! A backend is forcibly crashed under steady load; the replacement task
//! restarts a bit later and pulls en-masse repairs from its cohort (the
//! RPC byte burst). Latency fluctuates only slightly — and can even trend
//! *down* while the cell is degraded, because clients that observed the
//! connection failure stop sending the third index fetch.

use cliquemap::cell::InjectorNode;
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use simnet::{SimDuration, SimTime};

use crate::experiments::f13::{maintenance_cell, timeline};
use crate::harness::Report;

/// Regenerate Figure 14.
pub fn run() -> Report {
    let mut report = Report::new(
        "f14",
        "Unplanned maintenance: crash, restart, and cohort repairs (latency + RPC bytes)",
    );
    let mut cell = maintenance_cell(41, false);
    let _ = (
        LookupStrategy::TwoR,
        ReplicationMode::R32,
        InjectorNode::new as fn(SimTime, simnet::NodeId, u16, bytes::Bytes) -> InjectorNode,
    );
    // Crash backend 0 at 150ms; restart it (same address, empty store,
    // recover-on-start) at 250ms.
    let crash_at = SimTime(160_000_000);
    let restart_at = SimTime(260_000_000);
    // Run the timeline manually so we can inject the crash/restart.
    report.line(format!(
        "crash at {:.0}ms, restart at {:.0}ms",
        crash_at.as_secs_f64() * 1e3,
        restart_at.as_secs_f64() * 1e3
    ));
    let victim = cell.backends[0];
    // Phase 1: pre-crash.
    let phase = |cell: &mut cliquemap::cell::Cell,
                 report: &mut Report,
                 until: SimTime,
                 warmup: SimDuration,
                 marks: &[(SimTime, &str)]| {
        let now = cell.sim.now();
        let span = until.since(now + warmup);
        timeline(
            report,
            cell,
            span,
            SimDuration::from_millis(25),
            warmup,
            marks,
        );
    };
    phase(
        &mut cell,
        &mut report,
        crash_at,
        SimDuration::from_millis(10),
        &[],
    );
    cell.sim.crash(victim);
    report.line("-- crash --".to_string());
    phase(&mut cell, &mut report, restart_at, SimDuration::ZERO, &[]);
    // Restart: a fresh backend task at the same address with an empty
    // store that recovers from the cohort.
    cell.restart_backend(0, true);
    report.line("-- restart + repairs --".to_string());
    phase(
        &mut cell,
        &mut report,
        SimTime(restart_at.nanos() + 300_000_000),
        SimDuration::ZERO,
        &[],
    );
    report.line(format!(
        "recovery_fetches={} recovered_entries={} errors={}",
        cell.sim.metrics().counter("cm.backend.recovery_fetches"),
        cell.sim.metrics().counter("cm.backend.recovered_entries"),
        cell.op_errors()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repairs_restore_the_replica_with_little_impact() {
        let r = run();
        let tail = r.lines.last().unwrap().clone();
        let recovered: u64 = tail
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("recovered_entries="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(recovered > 100, "too few entries recovered: {tail}");
        // GETs kept succeeding through the whole event (R=3.2 quorum).
        let errors: u64 = tail
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("errors="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(errors < 200, "{tail}");
        // The repair burst shows up in RPC bytes after the restart marker.
        let mut after_restart = false;
        let mut burst: f64 = 0.0;
        let mut pre: f64 = 0.0;
        for line in &r.lines {
            if line.contains("restart + repairs") {
                after_restart = true;
                continue;
            }
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() >= 5 {
                if let Ok(mbps) = cols[3].parse::<f64>() {
                    if after_restart {
                        burst = burst.max(mbps);
                    } else {
                        pre = pre.max(mbps);
                    }
                }
            }
        }
        assert!(
            burst > pre * 1.5,
            "no repair byte burst: pre {pre} post {burst}"
        );
    }
}
