//! Wire-path equivalence: doorbell batching, the lease cache and the four
//! lookup strategies are wire paths to one semantics (Storm's one-sided
//! read, RPC fallback and validation; Brock et al.'s one structure over RDMA
//! or RPC). The same seeded op stream must give every op the same outcome,
//! version and value in the cell's History under 2xR, SCAR, MSG and RPC,
//! batched or not, cached or not; and batched or not, every replica must
//! end up holding the same (version, value) for every key.

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::client_cache::ClientCacheCfg;
use cliquemap::config::ReplicationMode;
use cliquemap::history::{self, History};
use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload, Workload};
use proptest::prelude::*;
use simnet::{SimDuration, SimRng};

const STRATEGIES: [LookupStrategy; 4] = [
    LookupStrategy::TwoR,
    LookupStrategy::Scar,
    LookupStrategy::Msg,
    LookupStrategy::Rpc,
];

fn key(i: u64) -> Bytes {
    Bytes::from(format!("eq{i}"))
}

/// A seeded mixed script: populate every key singly (also warms geometry),
/// then a run of MultiSet/MultiGet containers with random membership —
/// including empty and duplicate-key batches and lookups of absent keys.
fn build_script(seed: u64, nkeys: u64) -> Vec<(SimDuration, ClientOp)> {
    let mut rng = SimRng::new(seed);
    let mut ops = Vec::new();
    let gap = |us: u64| SimDuration::from_micros(us);
    for i in 0..nkeys {
        ops.push((
            gap(100),
            ClientOp::Set {
                key: key(i),
                value: Bytes::from(format!("v0-{i}")),
            },
        ));
    }
    for i in 0..nkeys {
        ops.push((gap(100), ClientOp::Get { key: key(i) }));
    }
    let mut generation = 0u64;
    for _ in 0..8 {
        if rng.next_f64() < 0.5 {
            // Distinct keys per mutation batch: a MultiSet writing the same
            // key twice resolves last-writer-wins by version in both modes
            // (identical end state), but which duplicate reports Superseded
            // is wire-order dependent and so out of scope for the per-sub
            // outcome equivalence.
            let n = 1 + rng.gen_range(6);
            let mut idxs: Vec<u64> = (0..n).map(|_| rng.gen_range(nkeys)).collect();
            idxs.sort_unstable();
            idxs.dedup();
            let entries = idxs
                .into_iter()
                .map(|i| {
                    generation += 1;
                    (key(i), Bytes::from(format!("v{generation}-{i}")))
                })
                .collect();
            ops.push((gap(2_000), ClientOp::MultiSet { entries }));
        } else {
            // May be empty; `+ 2` reaches keys that were never written.
            let n = rng.gen_range(7) as usize;
            let keys = (0..n).map(|_| key(rng.gen_range(nkeys + 2))).collect();
            ops.push((gap(2_000), ClientOp::MultiGet { keys }));
        }
    }
    ops
}

/// Run one cell, the client under `strategy`, with doorbell batching and
/// the lease cache as given, and return its History once `check` finds
/// nothing in it.
fn run_mode(
    strategy: LookupStrategy,
    batched: bool,
    cached: bool,
    ops: Vec<(SimDuration, ClientOp)>,
) -> History {
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
    spec.client.cache = cached.then(ClientCacheCfg::default);
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    cell.record_history();
    cell.run_for(SimDuration::from_secs(2));
    let what = format!("{strategy:?} batched={batched} cached={cached}");
    assert_eq!(cell.op_errors(), 0, "{what}");
    let h = cell.history();
    assert_eq!(history::check(&h, ReplicationMode::R32), [], "{what}");
    h
}

/// Each op's (outcome, version, value hash), in admission order. The
/// `quorum` flag is left out on purpose: it says which path decided a
/// read, and that differs by design: an MSG or RPC lookup is one server's
/// word, and with the cache on a GET after the client's own write is
/// served by its lease, each with the same version and value.
fn per_op(h: &History) -> Vec<(Option<OpOutcome>, u128, Option<u64>)> {
    let outcome = |op: &history::Op| op.done.map(|d| d.outcome);
    h.ops
        .iter()
        .map(|op| (outcome(op), op.version, op.value))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched and unbatched runs agree op for op and replica for replica,
    /// and so do the four strategies, op for op.
    #[test]
    fn batched_and_unbatched_streams_are_equivalent(
        seed in any::<u64>(),
        nkeys in 4u64..12,
        cached in any::<bool>(),
    ) {
        let ops = build_script(seed, nkeys);
        let mut first = None;
        for strategy in STRATEGIES {
            let plain = run_mode(strategy, false, cached, ops.clone());
            let batch = run_mode(strategy, true, cached, ops.clone());
            prop_assert!(!plain.ops.is_empty());
            prop_assert_eq!(
                per_op(&plain), per_op(&batch),
                "per-op History diverged under batching ({:?})", strategy
            );
            // Every replica holds the same keys at the same values with the
            // same client-nominated VersionNumbers.
            prop_assert_eq!(
                &plain.copies, &batch.copies,
                "replica stores diverged under batching ({:?})", strategy
            );
            let first = first.get_or_insert_with(|| per_op(&plain));
            prop_assert_eq!(
                &per_op(&plain), first,
                "{:?} saw another History than 2xR (cached={})", strategy, cached
            );
        }
    }
}
