//! Flight-recorder semantics on the doorbell-batched wire path: every
//! sub-op still gets its own trace with exactly one CLOSE, the 7-stage
//! attribution partition invariant holds for every batched op, and engine
//! occupancy is recorded once per doorbell (batch frame) — not once per
//! sub-op — so the batched run shows strictly fewer ENGINE intervals than
//! the unbatched run for the same key set.

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use simnet::obs::event::{kind, stage};
use simnet::obs::{attribute, OpTrace};
use simnet::{SimDuration, SimTime};

const KEYS: u64 = 8;

fn key(i: u64) -> Bytes {
    Bytes::from(format!("tr{i}"))
}

/// Warm up (populate + establish geometry), then run one traced MultiGet
/// over every key. Returns the RMA frames the MultiGet issued and its
/// drained traces.
fn run_traced(strategy: LookupStrategy, batched: bool) -> (u64, Vec<OpTrace>) {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 4,
        ..CellSpec::default()
    };
    spec.backend.store.num_buckets = 64;
    spec.backend.store.data_capacity = 1 << 20;
    spec.backend.store.max_data_capacity = 8 << 20;
    spec.backend.scan_interval = None;
    spec.client.strategy = strategy;
    spec.client.doorbell_batching = batched;
    let mut ops: Vec<(SimDuration, ClientOp)> = Vec::new();
    for i in 0..KEYS {
        ops.push((
            SimDuration::from_micros(100),
            ClientOp::Set {
                key: key(i),
                value: Bytes::from_static(b"traced"),
            },
        ));
    }
    for i in 0..KEYS {
        ops.push((SimDuration::from_micros(100), ClientOp::Get { key: key(i) }));
    }
    ops.push((
        SimDuration::from_millis(100),
        ClientOp::MultiGet {
            keys: (0..KEYS).map(key).collect(),
        },
    ));
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    cell.sim.enable_tracing();
    // Past the warm-up, before the MultiGet fires at ~100ms.
    cell.sim.run_until(SimTime(50_000_000));
    let _ = cell.sim.drain_traces();
    let f0 = cell.client_rma_frames();
    cell.run_for(SimDuration::from_secs(1));
    assert_eq!(cell.op_errors(), 0, "{strategy:?} batched={batched}");
    let frames = cell.client_rma_frames() - f0;
    (frames, cell.sim.drain_traces())
}

fn engine_intervals(traces: &[OpTrace]) -> usize {
    traces
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.kind == kind::INTERVAL && e.stage == stage::ENGINE)
        .count()
}

#[test]
fn batched_path_keeps_trace_invariants() {
    for strategy in [LookupStrategy::TwoR, LookupStrategy::Scar] {
        let (frames, traces) = run_traced(strategy, true);
        // One trace per sub-op; the container itself issues no wire ops.
        assert_eq!(traces.len(), KEYS as usize, "{strategy:?}");
        for t in &traces {
            let closes = t.events.iter().filter(|e| e.kind == kind::CLOSE).count();
            assert_eq!(closes, 1, "{strategy:?}: trace {:#x}", t.trace);
            // The 7-stage attribution must partition the op's end-to-end
            // window exactly, batched wire path included.
            let a = attribute(t);
            assert_eq!(
                a.stages.iter().sum::<u64>(),
                a.e2e,
                "{strategy:?}: partition broke for trace {:#x}",
                t.trace
            );
        }
        // Engine occupancy is per doorbell, not per sub-op: each batch
        // frame records at most one ENGINE interval at each of its three
        // choke points (client issue, server serve, client completion),
        // and at least the serve-side one.
        let engines = engine_intervals(&traces) as u64;
        assert!(
            engines >= frames && engines <= 3 * frames,
            "{strategy:?}: {engines} ENGINE intervals for {frames} doorbells"
        );

        // The unbatched run pays engine occupancy per sub-op RMA and must
        // record strictly more ENGINE intervals for the same key set.
        let (plain_frames, plain_traces) = run_traced(strategy, false);
        assert_eq!(plain_traces.len(), KEYS as usize, "{strategy:?}");
        assert!(
            engine_intervals(&traces) < engine_intervals(&plain_traces),
            "{strategy:?}: batched {} vs unbatched {} ENGINE intervals",
            engine_intervals(&traces),
            engine_intervals(&plain_traces)
        );
        assert!(frames < plain_frames, "{strategy:?}");
    }
}
