//! Batched-vs-unbatched equivalence: doorbell batching must be a wire
//! optimization, not a semantic change. The same seeded op stream run with
//! `doorbell_batching` on and off must produce identical per-op outcomes,
//! identical per-key values, and identical client-nominated
//! [`VersionNumber`]s on every replica's store.

use bytes::Bytes;
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::{ClientNode, LookupStrategy};
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::version::VersionNumber;
use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload, Workload};
use proptest::prelude::*;
use simnet::{SimDuration, SimRng};

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

type KeyState = Option<(Bytes, Bytes, VersionNumber)>;

/// Run one cell and distill its observable end state: the per-op outcome
/// stream plus every backend's (key, value, version) for every key.
fn run_mode(
    strategy: LookupStrategy,
    batched: bool,
    ops: Vec<(SimDuration, ClientOp)>,
    nkeys: u64,
) -> (Vec<OpOutcome>, Vec<Vec<KeyState>>) {
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
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    cell.run_for(SimDuration::from_secs(2));
    assert_eq!(cell.op_errors(), 0, "{strategy:?} batched={batched}");
    let outcomes = cell
        .sim
        .with_node::<ClientNode, _>(cell.clients[0], |c| {
            c.completions.iter().map(|(o, _)| *o).collect::<Vec<_>>()
        })
        .unwrap();
    let hasher = DefaultHasher;
    let stores: Vec<Vec<KeyState>> = cell
        .backends
        .clone()
        .into_iter()
        .map(|b| {
            (0..nkeys)
                .map(|i| {
                    let hash = hasher.hash(&key(i));
                    cell.sim
                        .with_node::<BackendNode, _>(b, |node| node.store().fetch(hash))
                        .unwrap()
                })
                .collect()
        })
        .collect();
    (outcomes, stores)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_and_unbatched_streams_are_equivalent(
        seed in any::<u64>(),
        nkeys in 4u64..12,
        strat in 0usize..4,
    ) {
        let strategy = [
            LookupStrategy::TwoR,
            LookupStrategy::Scar,
            LookupStrategy::Msg,
            LookupStrategy::Rpc,
        ][strat];
        let ops = build_script(seed, nkeys);
        let (out_plain, state_plain) =
            run_mode(strategy, false, ops.clone(), nkeys);
        let (out_batch, state_batch) = run_mode(strategy, true, ops, nkeys);
        prop_assert!(!out_plain.is_empty());
        prop_assert_eq!(
            &out_plain, &out_batch,
            "per-op outcomes diverged under batching ({:?})", strategy
        );
        // Every replica holds the same keys at the same values with the
        // same client-nominated VersionNumbers.
        prop_assert_eq!(
            &state_plain, &state_batch,
            "replica stores diverged under batching ({:?})", strategy
        );
    }
}
