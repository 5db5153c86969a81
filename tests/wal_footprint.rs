//! Footprint gate for the durable log: `Media` holds what recovery can
//! install — about one record per key it logged — not every version the
//! device ever wrote, and no segment keeps a quarter of its bytes as
//! superseded records. Tier-1 checks the overwrite storm of
//! `wal_absorption`; the release-only test checks a cell of the
//! `mut_durable` benchmark's shape (`ci.sh` runs it).

mod storm;

use std::collections::BTreeSet;

use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use simnet::{HostCfg, SimDuration};
use workloads::{MixWorkload, SizeDist};

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
}
