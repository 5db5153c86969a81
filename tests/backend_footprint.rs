//! Footprint gate: a backend's host memory follows what was written into
//! it, not the size of the regions it registers. An index bucket nobody
//! wrote is 4 bytes of slot table; a data region grows without touching the
//! range nobody allocated.

mod support;

use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::layout::bucket_size;
use cliquemap::policy::LruPolicy;
use cliquemap::store::{BackendStore, StoreCfg};
use cliquemap::version::VersionNumber;
use rma::RegionTable;
use support::{allocs, live_bytes, zeroed_bytes};

const KIB: i64 = 1 << 10;
const DATA: usize = 64 << 10;
const INSTALLS: u64 = 104; // cell950's occupied buckets per backend

#[test]
fn index_costs_what_is_written() {
    let cfg = StoreCfg {
        num_buckets: 4096,
        data_capacity: DATA,
        max_data_capacity: DATA,
        slab_bytes: 4 << 10,
        ..StoreCfg::default()
    };
    let flat_index = cfg.num_buckets * bucket_size(cfg.assoc as usize) as u64;
    let before = live_bytes();
    let mut store = BackendStore::new(cfg, Box::new(LruPolicy::new()));
    let empty = live_bytes() - before - DATA as i64;
    // 16 KiB of slot table and one template bucket, against 2.9 MiB flat.
    assert!(empty <= 96 * KIB, "empty store holds {empty} B");
    // What the model reports is still the whole index.
    assert_eq!(store.resident_bytes(), flat_index + DATA as u64);

    for i in 0..INSTALLS {
        let key = i.to_le_bytes();
        let status = store.install(
            &key,
            &[i as u8; 64],
            DefaultHasher.hash(&key),
            VersionNumber::new(1, 1, 1),
        );
        assert_eq!(status, rpc::Status::Ok);
    }
    // At most one bucket (736 B) per install — policy node and bookkeeping
    // included, 1 KiB — in an arena that doubles.
    let grown = live_bytes() - before - DATA as i64 - empty;
    assert!(
        grown <= 2 * INSTALLS as i64 * KIB,
        "installs added {grown} B"
    );
    assert_eq!(store.resident_bytes(), flat_index + DATA as u64);
}

#[test]
fn growing_a_buffer_does_not_touch_the_new_range() {
    let mut regions = RegionTable::new();
    let b = regions.alloc_buffer(1 << 20);
    regions.write(b, 4096, b"populated");
    let (calls, live, zeroed) = (allocs(), live_bytes(), zeroed_bytes());
    regions.grow_buffer(b, 2 << 20);
    // One allocation of the new length, handed out zeroed by the system,
    // and the old one freed: no `realloc`, no fill of the grown range.
    assert_eq!(allocs() - calls, 1);
    assert_eq!(zeroed_bytes() - zeroed, 2 << 20);
    assert_eq!(live_bytes() - live, 1 << 20);
    assert_eq!(&regions.read_buffer(b, 4096, 9)[..], b"populated");
    assert!(regions
        .read_buffer(b, 1 << 20, 1 << 20)
        .iter()
        .all(|&x| x == 0));
}
