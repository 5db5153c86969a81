//! Footprint gate: a backend's host memory follows what was written into
//! it, not the size of the regions it registers. An index bucket nobody
//! wrote is 4 bytes of slot table, and a written one its room (the header
//! and the slots written so far, rounded up to 64 B doubling); a data
//! region costs the entry bytes written into it, not the slots they were
//! rounded up to, and grows without allocating anything. What a region
//! table holds, it reports (`RegionTable::reserved_bytes`).

mod support;

use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::layout::{bucket_size, data_entry_size};
use cliquemap::policy::LruPolicy;
use cliquemap::slab::{SlabAllocator, DEFAULT_SLAB_BYTES, MIN_SLOT};
use cliquemap::store::{BackendStore, StoreCfg};
use cliquemap::version::VersionNumber;
use rma::RegionTable;
use simnet::SimRng;
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
    // The data region's first 64 KiB segment, and per install at most a
    // 64 B room in an arena that doubles plus the policy node and
    // bookkeeping: 256 B. A whole 736 B bucket per written bucket took
    // 167,600 B here.
    let grown = live_bytes() - before - DATA as i64 - empty;
    let bound = 64 * KIB + INSTALLS as i64 * 256;
    assert!(grown <= bound, "installs added {grown} B (bound {bound} B)");
    assert_eq!(store.resident_bytes(), flat_index + DATA as u64);
}

#[test]
fn growing_a_buffer_does_not_touch_the_new_range() {
    let mut regions = RegionTable::new();
    let b = regions.alloc_buffer(1 << 20);
    regions.write(b, 4096, b"populated");
    let (calls, live, zeroed) = (allocs(), live_bytes(), zeroed_bytes());
    regions.grow_buffer(b, 2 << 20);
    // Only the length moves: no allocation, nothing zeroed or copied.
    assert_eq!(allocs() - calls, 0);
    assert_eq!(zeroed_bytes() - zeroed, 0);
    assert_eq!(live_bytes() - live, 0);
    assert_eq!(&regions.read_buffer(b, 4096, 9)[..], b"populated");
    assert!(regions
        .read_buffer(b, 1 << 20, 1 << 20)
        .iter()
        .all(|&x| x == 0));
}

/// Fill a data region the way a store does — the slab allocator hands
/// out a slot, the entry's extent is reserved, the entry is streamed in two
/// pieces — and return the heap that took with the entry bytes written.
/// The buffer is as long as the slabs the entries needed plus one slab per
/// size class (how a store right-sizes its region at restart), which is
/// what a flat buffer would have cost.
fn data_region_cost(values: &[usize]) -> (i64, i64) {
    let entries: Vec<usize> = values.iter().map(|&v| data_entry_size(8, v)).collect();
    let mut sizer = SlabAllocator::new(usize::MAX / 2);
    for &len in &entries {
        sizer.alloc(len).expect("unbounded");
    }
    let classes = (DEFAULT_SLAB_BYTES / MIN_SLOT).ilog2() as usize + 1;
    let capacity = (sizer.used_bytes().div_ceil(DEFAULT_SLAB_BYTES) + classes) * DEFAULT_SLAB_BYTES;
    let before = live_bytes();
    let mut regions = RegionTable::new();
    let b = regions.alloc_buffer(capacity);
    let mut slab = SlabAllocator::new(capacity);
    for (i, &len) in entries.iter().enumerate() {
        let at = slab.alloc(len).expect("sized to fit") as usize;
        regions.reserve(b, at, len);
        let entry = vec![i as u8 | 1; len];
        regions.write(b, at, &entry[..len / 2]);
        regions.write(b, at + len / 2, &entry[len / 2..]);
    }
    let grown = live_bytes() - before;
    std::hint::black_box(slab);
    (grown, entries.iter().sum::<usize>() as i64)
}

/// A data region costs what is written into it: at most a tenth over the
/// entry bytes, plus 2 KiB per 64 KiB page those bytes fill (page and
/// extent index) and one open segment of the store (at most 1 MiB). A flat
/// buffer costs the slots the entries were rounded up to.
fn assert_costs_what_is_written(shape: &str, values: &[usize]) {
    let (grown, written) = data_region_cost(values);
    let pages = written / (64 * KIB) + 1;
    let bound = written + written / 10 + pages * 2 * KIB + 1024 * KIB;
    assert!(
        grown <= bound,
        "{shape}: {written} entry bytes took {grown} B of heap (bound {bound} B)"
    );
}

#[test]
fn a_data_region_costs_what_is_written() {
    // Figure 3's values: log-normal around 2,500 B, sigma 0.6, 256 B-64 KiB.
    let mut rng = SimRng::new(3);
    let f3: Vec<usize> = (0..8_000)
        .map(|_| (rng.log_normal(2_500f64.ln(), 0.6) as usize).clamp(256, 64 << 10))
        .collect();
    assert_costs_what_is_written("f3", &f3);
    // Figure 20's: 16 KiB values, each in a 32 KiB slot.
    assert_costs_what_is_written("f20", &[16 << 10; 1_200]);
}

/// `RegionTable::reserved_bytes` is the heap the table holds: within a
/// tenth of what the allocator counts for an index and a data region
/// written the way a store writes them.
#[test]
fn a_region_table_reports_what_it_holds() {
    let (buckets, bucket) = (4096, bucket_size(14));
    let before = live_bytes();
    let mut regions = RegionTable::new();
    let index = regions.alloc_tiled_buffer(&vec![0; bucket], buckets);
    let data = regions.alloc_buffer(64 << 20);
    let mut rng = SimRng::new(5);
    let mut at = 0;
    for i in 0..6_000usize {
        // Index slots fill a bucket from its first: rooms of every class.
        let b = rng.gen_range(buckets as u64) as usize;
        let reach = 1 + rng.gen_range(14);
        let slot = rng.gen_range(reach) as usize;
        regions.write(index, b * bucket + 8 + slot * 52, &[i as u8 | 1; 52]);
        let len = data_entry_size(8, 200 + rng.gen_range(3_000) as usize);
        regions.reserve(data, at, len);
        regions.write(data, at, &vec![7; len]);
        at += len.next_multiple_of(64);
    }
    let held = (live_bytes() - before) as f64;
    let reported = regions.reserved_bytes() as f64;
    assert!(
        (reported - held).abs() <= held / 10.0,
        "reports {reported} B, holds {held} B"
    );
}
