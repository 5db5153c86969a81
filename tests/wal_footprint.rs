//! Footprint gate for the durable log: `Media` holds what recovery can
//! install — about one record per key it logged — not every version the
//! device ever wrote, no segment keeps a quarter of its bytes as
//! superseded records, and the logs of a cell hold each record once in
//! their shared `RecordTable`, however many replicas logged it. Tier-1
//! checks the overwrite storm of `wal_absorption` and a small R=3.2 cell;
//! the release-only test checks a cell of the `mut_durable` benchmark's
//! shape (`ci.sh` runs it).

mod storm;

use std::collections::BTreeSet;

use bytes::Bytes;
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use durable::RECORD_HEADER;
use simnet::{HostCfg, SimDuration};
use workloads::{MixWorkload, SizeDist};

/// What the cell's logs hold: each log's own count of its records (the
/// media's resident bytes plus the batches not yet durable), the encoded
/// bytes of the distinct records among them, and the bytes of the table
/// they share.
fn shared_records(cell: &mut Cell) -> (u64, u64, u64) {
    let mut distinct = BTreeSet::new();
    let mut held = 0;
    let mut visit = |kind, version, key: &[u8], value: &[u8]| {
        distinct.insert((kind, version, key.to_vec(), value.to_vec()));
    };
    for media in &cell.media {
        let media = media.borrow();
        held += media.resident_bytes();
        let recovery = media.recover();
        for r in &recovery.records[recovery.from_snapshot as usize..] {
            visit(r.kind, r.version, &r.key, &r.value);
        }
    }
    for b in cell.backends.clone() {
        cell.sim
            .with_node::<BackendNode, _>(b, |node| {
                let batches = node.wal_batches().expect("a durable backend");
                held += batches.held_bytes();
                batches.for_each_record(&mut visit);
            })
            .expect("backend node");
    }
    let distinct = distinct
        .iter()
        .map(|(_, _, key, value)| (RECORD_HEADER + key.len() + value.len()) as u64)
        .sum();
    let table = cell.wal_records().expect("a durable cell has a table");
    (held, distinct, table.bytes())
}

#[test]
fn replicas_of_a_set_log_one_buffer() {
    // The allocation gate's cell (`durable_allocs.rs`): 3 backends at
    // R=3.2, 2,000 scripted 1 KiB SETs over 500 keys.
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    spec.durability = Some(DurabilitySpec {
        trickle_interval: SimDuration::from_secs(1),
        ..DurabilitySpec::default()
    });
    let value = Bytes::from(vec![5u8; 1024]);
    let ops = (0..2_000)
        .map(|i| {
            let key = Bytes::from(format!("k{:015}", i % 500));
            let value = value.clone();
            (SimDuration::from_micros(50), ClientOp::Set { key, value })
        })
        .collect();
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    cell.run_for(SimDuration::from_millis(150));
    assert_eq!(cell.op_errors(), 0);
    // Each of the 500 keys on three logs: the table holds one buffer per
    // distinct record, where the logs count three copies plus dead slack
    // (1,603,500 B logged, 534,500 B shared).
    let (held, distinct, shared) = shared_records(&mut cell);
    assert!(
        shared <= distinct,
        "{shared} B shared, {distinct} B distinct"
    );
    assert!(
        10 * shared < 4 * held,
        "{shared} B shared for {held} B logged"
    );
}

#[test]
fn storm_log_holds_one_record_per_key() {
    // 4,000 SETs over 50 keys: ~700 records reach each backend's device.
    let cell = storm::run();
    for media in &cell.media {
        let media = media.borrow();
        let (records, bytes, held) = (
            media.wal_records(),
            media.wal_bytes(),
            media.resident_bytes(),
        );
        assert!(
            records <= storm::KEYS,
            "{records} records for {} keys",
            storm::KEYS
        );
        assert!(3 * held <= 4 * bytes, "{held} bytes held for {bytes} live");
    }
}

/// 6 backends at R=3.2, 20K keys at Zipf 0.9, eight clients at 20K op/s
/// with 80 % SETs for 1.5 s: ~190K SETs, ~540K replica-side appends.
#[test]
#[ignore = "release-only: cargo test --release --test wal_footprint -- --ignored"]
fn durable_cell_log_follows_distinct_keys() {
    const KEYS: u64 = 20_000;
    let sizes = SizeDist {
        mu: 700f64.ln(),
        sigma: 1.0,
        min: 64,
        max: 4 << 10,
    };
    let mut spec = CellSpec {
        seed: 2,
        replication: ReplicationMode::R32,
        num_backends: 6,
        clients_per_host: 2,
        host: HostCfg::with_gbps(50.0).no_cstates(),
        ..CellSpec::default()
    };
    spec.backend.store.num_buckets = 4096;
    spec.backend.store.data_capacity = 8 << 20;
    spec.backend.store.max_data_capacity = 8 << 20;
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    spec.client.max_in_flight = 2048;
    spec.durability = Some(DurabilitySpec::default());
    let workloads = (0..8)
        .map(|_| {
            let mix = MixWorkload::new("k", KEYS, 0.9, 0.2, sizes.clone(), 20_000.0, u64::MAX);
            Box::new(mix) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    bench::populate_cell(&mut cell, "k", KEYS, &sizes);
    cell.run_for(SimDuration::from_millis(1_500));
    assert_eq!(cell.op_errors(), 0);
    assert!(cell.sim.metrics().counter("cm.backend.wal_committed") > 100_000);

    // Each key lives on three backends, so the six logs together hold at
    // most three records per distinct key in them; ~180,000 records reach
    // the devices.
    let (mut records, mut bytes, mut held) = (0, 0, 0);
    let mut keys = BTreeSet::new();
    for media in &cell.media {
        let media = media.borrow();
        records += media.wal_records();
        bytes += media.wal_bytes();
        held += media.resident_bytes();
        media.for_each_record(|_, _, key, _| {
            keys.insert(key.to_vec());
        });
    }
    assert!(
        records <= 3 * keys.len() as u64,
        "{records} records for {} distinct keys",
        keys.len()
    );
    assert!(2 * held <= 3 * bytes, "{held} bytes held for {bytes} live");
    // The six logs hold each distinct record once, batches in flight and
    // pending included.
    let (logged, distinct, shared) = shared_records(&mut cell);
    assert!(
        shared <= distinct,
        "{shared} B shared, {distinct} B distinct"
    );
    assert!(
        10 * shared < 4 * logged,
        "{shared} B shared for {logged} B logged"
    );
}
