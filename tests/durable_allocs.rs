//! Allocation gate on the durable SET path: logging a mutation copies its
//! bytes into the group-commit buffer and nothing else — no owned
//! `Record`, no key or value `Vec`, no re-encoded entry.

mod support;

use bytes::Bytes;
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use durable::{append_parts, GroupCommit, Media, KIND_SET};
use simnet::SimDuration;
use support::allocs;

const KEY: &[u8] = b"k000000000012345";

#[test]
fn borrowed_append_allocates_nothing() {
    let value = vec![9u8; 1024];
    // The encoder, into a buffer with capacity: no allocation at all.
    let mut buf = Vec::with_capacity(1 << 20);
    append_parts(&mut buf, KIND_SET, 1, KEY, &value);
    let before = allocs();
    for v in 2..=512u128 {
        append_parts(&mut buf, KIND_SET, v, KEY, &value);
    }
    assert_eq!(allocs() - before, 0, "append_parts allocated");
    assert!(buf.len() < buf.capacity());

    // The group-commit batcher adds nothing of its own: over batches of
    // 1024 appends the only heap calls are the pending buffer's doublings
    // (21 from empty to 1 MiB+), the log's segment queue growing and, in
    // the first batch only, the pending-key index and the log's key index
    // growing to 1024 keys and the log's dead-range list to 1024 ranges.
    // (Distinct keys within a batch: a repeated key would be absorbed
    // into its pending record and never reach the log.)
    let mut gc = GroupCommit::default();
    let mut media = Media::default();
    let before = allocs();
    for v in 0..8 * 1024u128 {
        let mut key = [0u8; KEY.len()];
        key.copy_from_slice(KEY);
        key[..2].copy_from_slice(&(v as u16 % 1024).to_le_bytes());
        gc.append_parts(KIND_SET, v + 1, &key, &value);
        if v % 1024 == 1023 {
            gc.start_commit().expect("batch pending");
            gc.finish_commit(&mut media);
        }
    }
    let per_append = (allocs() - before) as f64 / (8.0 * 1024.0);
    assert!(per_append < 0.03, "{per_append} allocations per append");
    // Each batch rewrites the same 1024 keys at newer versions, so it
    // supersedes the whole batch before it: the log holds the last one.
    assert_eq!(media.wal_records(), 1024);
}

#[test]
fn replay_visitor_allocates_nothing() {
    // A warm restart replays the snapshot and the log where they lie:
    // no owned `Record`, no key or value `Vec`, whatever the log's size.
    let value = vec![7u8; 1024];
    let mut gc = GroupCommit::default();
    let mut media = Media::default();
    for v in 0..2_000u128 {
        gc.append_parts(KIND_SET, v + 1, &(v as u32).to_le_bytes(), &value);
        if v % 500 == 499 {
            gc.start_commit().expect("batch pending");
            gc.finish_commit(&mut media);
        }
    }
    media.flush_prefix(300);
    let before = allocs();
    let (mut records, mut bytes) = (0u64, 0usize);
    let torn = media.for_each_record(|_kind, _version, key, value| {
        records += 1;
        bytes += key.len() + value.len();
    });
    assert_eq!(allocs() - before, 0, "for_each_record allocated");
    assert_eq!((records, bytes, torn), (2_000, 2_000 * 1028, false));
    // The owned form, kept for tests, pays two blocks a record.
    let before = allocs();
    assert_eq!(media.recover().records.len(), 2_000);
    assert!(allocs() - before >= 4_000);
}

const SETS: u64 = 2_000;

/// Allocations during a 3-backend R=3.2 run of 2,000 scripted 1 KiB SETs,
/// and the replica-side SETs (= WAL appends when durable) it performed.
fn run_cell(durable: bool) -> (u64, u64) {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    // No trickle flush inside the run: checkpointing a record legitimately
    // allocates its snapshot entry, and this gate is about the append.
    spec.durability = durable.then(|| DurabilitySpec {
        trickle_interval: SimDuration::from_secs(1),
        ..DurabilitySpec::default()
    });
    let value = Bytes::from(vec![5u8; 1024]);
    let ops = (0..SETS)
        .map(|i| {
            let key = Bytes::from(format!("k{:015}", i % 500));
            let value = value.clone();
            (SimDuration::from_micros(50), ClientOp::Set { key, value })
        })
        .collect();
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    let before = allocs();
    cell.run_for(SimDuration::from_millis(150));
    let spent = allocs() - before;
    assert_eq!(cell.op_errors(), 0);
    assert_eq!(cell.sets_completed(), SETS);
    let replica_sets: u64 = cell
        .backends
        .clone()
        .into_iter()
        .map(|b| {
            cell.sim
                .with_node::<BackendNode, _>(b, |node| node.store().stats.sets)
                .expect("backend node")
        })
        .sum();
    if durable {
        let appends = cell.sim.metrics().counter("cm.backend.wal_appends");
        assert_eq!(appends, replica_sets);
    }
    (spent, replica_sets)
}

#[test]
fn durable_set_path_allocation_budget() {
    let (plain, plain_sets) = run_cell(false);
    let (durable, replica_sets) = run_cell(true);
    assert_eq!(replica_sets, 3 * SETS);
    assert_eq!(plain_sets, replica_sets);
    // What durability adds per replica-side SET: the pending buffer
    // doubling up to each ~80-record batch, the device events, the
    // commit-done work items, and the log's key index, dead-range list and
    // segment rewrites (2,000 SETs over 500 keys: most supersede a durable
    // record) — 0.055 here — not a block per append. (Before the borrowed
    // append it added 2.015: the owned `Record`'s key and value.)
    let added = (durable as f64 - plain as f64) / replica_sets as f64;
    assert!(added < 0.1, "durability adds {added} allocations per SET");
    // Per replica-side SET, everything included (client, wire, store):
    // 6.428 at the parent commit with this same cell, 3.294 now — the
    // borrowed append removed two blocks and encoding the DataEntry
    // straight into its `Vec` a third.
    const PARENT_PER_SET: f64 = 6.428;
    let per_set = durable as f64 / replica_sets as f64;
    assert!(
        per_set <= PARENT_PER_SET - 2.0,
        "{per_set} allocations per replica-side SET (parent {PARENT_PER_SET})"
    );
}
