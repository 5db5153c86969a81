//! Footprint gate: what a cell's lease caches hold follows the distinct
//! versions cached in it, not the number of clients caching them. Many
//! clients reading one corpus fill their caches with the same (key hash,
//! version) pairs; the cell keeps one buffer per pair.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::{ClientNode, LookupStrategy};
use cliquemap::client_cache::{ClientCacheCfg, SharedStats};
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use simnet::SimDuration;
use workloads::{Prefill, ProductionSets, RampWorkload, SizeDist};

const KEYS: u64 = 200;
const READERS: usize = 600;
const VALUE_LEN: usize = 1024;

fn reader() -> Box<dyn Workload> {
    Box::new(RampWorkload {
        prefix: "k".into(),
        keys: KEYS,
        rate0: 1_000.0,
        rate1: 1_000.0,
        duration: SimDuration::from_millis(50),
        stop_at_end: false,
    })
}

fn writer() -> Box<dyn Workload> {
    let sizes = SizeDist::fixed(VALUE_LEN);
    Box::new(ProductionSets::steady("k", KEYS, sizes, 2_000.0))
}

fn table_stats(cell: &Cell) -> SharedStats {
    cell.shared_values().expect("the cache is on").stats()
}

/// Cache entries resident across all clients, counted key by key.
fn resident_entries(cell: &mut Cell) -> usize {
    let keys: Vec<_> = (0..KEYS).map(|i| Prefill::key_name("k", i)).collect();
    let mut resident = 0;
    for id in cell.clients.clone() {
        resident += cell
            .sim
            .with_node::<ClientNode, _>(id, |c| {
                keys.iter().filter(|k| c.cache_peek(k).is_some()).count()
            })
            .expect("client exists");
    }
    resident
}

#[test]
fn cached_values_cost_one_buffer_per_distinct_version() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        clients_per_host: 12,
        config_read_coalescing: true,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::Scar;
    spec.client.access_flush = None;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: 64 << 10,
    });
    let workloads = (0..READERS)
        .map(|_| reader())
        .chain([writer(), writer()])
        .collect();
    let mut cell = Cell::build(spec, workloads);
    bench::populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(VALUE_LEN));
    cell.run_for(SimDuration::from_millis(50));
    assert_eq!(cell.op_errors(), 0);

    let stats = table_stats(&cell);
    let sets = cell.sets_completed() as usize;
    assert!(sets > 0, "the writers wrote");
    // A pair enters the table with the corpus or with a SET, never with a
    // reader.
    assert!(
        stats.entries_hwm <= KEYS as usize + sets,
        "{stats:?} after {sets} SETs"
    );
    assert!(stats.bytes <= stats.entries_hwm * VALUE_LEN, "{stats:?}");
    let fills = stats.shared + stats.copied;
    assert!(
        stats.shared * 10 >= fills * 9,
        "under 90 % of fills shared: {stats:?}"
    );
    // One handle per resident cache entry — and an order of magnitude fewer
    // buffers than that (without the table: one buffer each).
    let resident = resident_entries(&mut cell);
    assert_eq!(resident as u64, fills - stats.released, "{stats:?}");
    assert!(
        resident >= 10 * stats.entries,
        "{resident} resident cache entries over {} buffers",
        stats.entries
    );
}

/// The 10,000-client gate (`ci.sh` runs it in release; minutes in debug).
#[test]
#[ignore = "release-only: cargo test --release --test client_footprint -- --ignored"]
fn cell950_caches_hold_thousands_of_values_not_a_hundred_thousand() {
    let mut cell = bench::simcore::cell950();
    cell.run_for(SimDuration::from_millis(450));
    assert_eq!(cell.op_errors(), 0);
    let stats = table_stats(&cell);
    assert!(stats.entries_hwm <= 8_000, "{stats:?}");
    assert!(stats.copied <= 8_000, "{stats:?}");
    assert!(stats.shared >= 80_000, "{stats:?}");
}
