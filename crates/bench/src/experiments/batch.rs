//! batch: the RDMA-vs-RPC batch crossover — CPU/op, engine occupancy,
//! p99 latency, and wire frames per batch as MultiGet batch size sweeps
//! {1..64} under each lookup strategy, with the doorbell-batched wire path
//! off and on.
//!
//! The economics the figure pins: the unbatched two-sided paths (MSG/RPC)
//! pay a fixed per-request dispatch on every sub-op, so their CPU/op is
//! flat in batch size; doorbell batching ships one frame per destination
//! host and one server dispatch per frame, so their CPU/op falls roughly
//! as 1/B until the per-key work floors it. The RMA paths (2xR/SCAR) keep
//! their near-zero server CPU and instead coalesce engine doorbells:
//! batched they issue at most `replicas x distinct hosts` frames per
//! phase, independent of B.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, Workload};
use simnet::{SimDuration, SimRng, SimTime};
use workloads::{Prefill, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{pctl_us, pony_cpu_ns, populate_cell, Report};

const KEYS: u64 = 2_000;
/// Sub-op rate per client (batches arrive at `RATE / b`).
const RATE: f64 = 50_000.0;
/// Batch sizes swept.
pub const BATCH_SIZES: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// Fixed-size MultiGet batches over a uniform corpus at a constant
/// *sub-op* rate (so every point of the sweep offers the same key load).
struct FixedBatchGets {
    prefix: String,
    keys: u64,
    batch: usize,
}

impl Workload for FixedBatchGets {
    fn next(&mut self, _now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        let gap = SimDuration::from_secs_f64(rng.exponential(self.batch as f64 / RATE));
        let keys = (0..self.batch)
            .map(|_| Prefill::key_name(&self.prefix, rng.gen_range(self.keys)))
            .collect();
        Some((gap, ClientOp::MultiGet { keys }))
    }
}

/// One sweep point's measurements, all normalized per *sub-op* except the
/// container latency and frame count.
pub struct BatchCost {
    /// Client-library CPU ns per sub-op.
    pub client_ns: f64,
    /// Backend host thread CPU ns per sub-op (the RPC dispatch economics).
    pub server_ns: f64,
    /// Transport engine occupancy ns per sub-op.
    pub pony_ns: f64,
    /// Container (whole-batch) p99 latency, microseconds.
    pub p99_us: f64,
    /// Client RMA wire frames per container (0 for the two-sided paths).
    pub frames_per_batch: f64,
}

impl BatchCost {
    /// Total CPU ns per sub-op (client + server threads) — the crossover
    /// series.
    pub fn cpu_ns(&self) -> f64 {
        self.client_ns + self.server_ns
    }
}

/// Run one (strategy, mode, batch-size) point.
pub fn measure(strategy: LookupStrategy, batched: bool, b: usize, span_ms: u64) -> BatchCost {
    let mut spec: CellSpec = base_spec(strategy, ReplicationMode::R32, 4);
    spec.seed = 23;
    spec.client.doorbell_batching = batched;
    let workloads: Vec<Box<dyn Workload>> = (0..4)
        .map(|_| {
            Box::new(FixedBatchGets {
                prefix: "key-".to_string(),
                keys: KEYS,
                batch: b,
            }) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "key-", KEYS, &SizeDist::fixed(64));
    // Warm start: geometry/CONNECT setup (and the cold, unbatchable first
    // containers) land outside the measurement window.
    cell.run_for(SimDuration::from_millis(20));
    let batches0 = cell.sim.metrics().counter("cm.get.batches");
    let cpu0 = cell.sim.metrics().counter("cm.client.cpu_ns");
    let frames0 = cell.client_rma_frames();
    let nodes: Vec<_> = cell
        .backends
        .iter()
        .chain(cell.clients.iter())
        .copied()
        .collect();
    let pony0 = pony_cpu_ns(&mut cell, &nodes);
    let host_busy = |cell: &Cell| -> u64 {
        cell.backend_hosts
            .iter()
            .map(|&h| cell.sim.host(h).cpu_busy_ns)
            .sum()
    };
    let busy0 = host_busy(&cell);
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    cell.run_for(SimDuration::from_millis(span_ms));
    let batches = (cell.sim.metrics().counter("cm.get.batches") - batches0).max(1);
    let sub_ops = (batches * b as u64).max(1);
    let cpu = cell.sim.metrics().counter("cm.client.cpu_ns") - cpu0;
    let pony = pony_cpu_ns(&mut cell, &nodes) - pony0;
    let busy = host_busy(&cell) - busy0;
    let frames = cell.client_rma_frames() - frames0;
    BatchCost {
        client_ns: cpu as f64 / sub_ops as f64,
        server_ns: busy as f64 / sub_ops as f64,
        pony_ns: pony as f64 / sub_ops as f64,
        p99_us: pctl_us(&cell, "cm.get.latency_ns", 99.0),
        frames_per_batch: frames as f64 / batches as f64,
    }
}

/// Every (strategy, mode) series of the sweep.
pub const STRATEGIES: &[(&str, LookupStrategy)] = &[
    ("2xR", LookupStrategy::TwoR),
    ("SCAR", LookupStrategy::Scar),
    ("MSG", LookupStrategy::Msg),
    ("RPC", LookupStrategy::Rpc),
];

/// Regenerate the batch crossover figure.
pub fn run() -> Report {
    let mut report = Report::new(
        "batch",
        "Doorbell batching crossover: CPU/op, engine and p99 vs MultiGet batch size",
    );
    report.line(format!(
        "{:>8} {:>10} {:>4} {:>10} {:>11} {:>11} {:>9} {:>9} {:>13}",
        "strategy",
        "mode",
        "b",
        "cpu_ns/op",
        "client_ns",
        "server_ns",
        "pony_ns",
        "p99_us",
        "frames/batch"
    ));
    for (name, strategy) in STRATEGIES {
        for &batched in &[false, true] {
            let mode = if batched { "batched" } else { "unbatched" };
            for &b in BATCH_SIZES {
                let c = measure(*strategy, batched, b, 300);
                report.line(format!(
                    "{name:>8} {mode:>10} {b:>4} {:>10.0} {:>11.0} {:>11.0} {:>9.0} {:>9.1} {:>13.1}",
                    c.cpu_ns(),
                    c.client_ns,
                    c.server_ns,
                    c.pony_ns,
                    c.p99_us,
                    c.frames_per_batch
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance economics, at a shortened span: at B >= 8 the
    /// doorbell-batched two-sided paths amortize their fixed per-request
    /// dispatch into a >= 2x CPU/op cut, and the batched RMA paths
    /// coalesce to at most `replicas x distinct hosts` frames per phase
    /// regardless of B.
    #[test]
    fn crossover_economics_hold() {
        for strategy in [LookupStrategy::Msg, LookupStrategy::Rpc] {
            let plain = measure(strategy, false, 8, 120);
            let batched = measure(strategy, true, 8, 120);
            assert!(
                batched.cpu_ns() * 2.0 <= plain.cpu_ns(),
                "{strategy:?} b=8: batched {:.0} vs unbatched {:.0} ns/op",
                batched.cpu_ns(),
                plain.cpu_ns()
            );
            assert_eq!(batched.frames_per_batch, 0.0, "{strategy:?} uses no RMA");
        }
        // RMA paths: frames per batch bounded by replicas x hosts per
        // phase (3 x 4 here; 2xR has an index and a data phase), where the
        // unbatched paths pay per key per replica.
        let replicas_x_hosts = 3.0 * 4.0;
        for (strategy, phases) in [(LookupStrategy::TwoR, 2.0), (LookupStrategy::Scar, 1.0)] {
            let plain = measure(strategy, false, 16, 120);
            let batched = measure(strategy, true, 16, 120);
            assert!(
                batched.frames_per_batch <= replicas_x_hosts * phases,
                "{strategy:?} b=16: {:.1} frames/batch",
                batched.frames_per_batch
            );
            assert!(
                batched.frames_per_batch * 2.0 <= plain.frames_per_batch,
                "{strategy:?} b=16: batched {:.1} vs unbatched {:.1} frames/batch",
                batched.frames_per_batch,
                plain.frames_per_batch
            );
        }
    }
}
