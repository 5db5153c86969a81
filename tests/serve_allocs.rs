//! Allocation gate on the unified serving paths: resolve-then-admit, the
//! one completion shape and `BackendStore::install` add no heap calls, and
//! ERASE → SET churn retains no heap.

mod support;

use std::hint::black_box;

use bytes::{Bytes, Pool};
use cliquemap::hash::{DefaultHasher, KeyHash, KeyHasher};
use cliquemap::layout::bucket_size;
use cliquemap::policy::LruPolicy;
use cliquemap::store::{BackendStore, CliqueScarResolver, StoreCfg};
use cliquemap::version::VersionNumber;
use rma::{PonyCfg, ReadReq, RmaAnswer, RmaEnvelope, RmaStatus, ScarReq, ScarResp, Transport};
use simnet::SimTime;
use support::{allocs, live_bytes};

const KEYS: u64 = 256;

fn key(i: u64) -> ([u8; 8], KeyHash) {
    let k = i.to_le_bytes();
    (k, DefaultHasher.hash(&k))
}

fn populated() -> BackendStore {
    let mut store = BackendStore::new(StoreCfg::default(), Box::new(LruPolicy::new()));
    for i in 0..KEYS {
        let (k, hash) = key(i);
        let status = store.install(&k, &[i as u8; 512], hash, VersionNumber::new(1, 1, 1));
        assert_eq!(status, rpc::Status::Ok);
    }
    store
}

/// Single `ScarReq`/`ReadReq` frames and single-response answers: 0
/// allocations per op once the pool holds a frame to recycle — the count
/// measured before the serve paths merged.
#[test]
fn single_op_serve_and_completion_allocate_nothing() {
    let store = populated();
    let geo = store.geometry();
    let bucket_len = bucket_size(geo.assoc as usize) as u32;
    let mut frames = Vec::new();
    for i in 0..KEYS {
        let bucket_offset = store.bucket_offset(store.bucket_of(key(i).1));
        frames.push(RmaEnvelope::ScarReq(ScarReq {
            op_id: i,
            index_window: geo.index_window,
            index_generation: geo.index_generation,
            bucket_offset,
            bucket_len,
            key_hash: key(i).1,
        }));
        frames.push(RmaEnvelope::ReadReq(ReadReq {
            op_id: i,
            window: geo.index_window,
            generation: geo.index_generation,
            offset: bucket_offset,
            len: bucket_len,
        }));
    }
    let pool = Pool::new();
    let mut transport = Transport::pony(PonyCfg::default());
    let mut serve_all = |now| {
        for env in &frames {
            let served = rma::serve(
                env,
                store.regions(),
                &CliqueScarResolver,
                &mut transport,
                &pool,
                now,
            );
            black_box(served.expect("requests are served"));
        }
    };
    serve_all(SimTime(0));
    let before = allocs();
    serve_all(SimTime(1_000_000));
    assert_eq!(allocs() - before, 0, "single-op serve allocated");

    let responses: Vec<RmaEnvelope> = (0..KEYS)
        .map(|op_id| {
            let resp = ScarResp {
                op_id,
                status: RmaStatus::Ok,
                bucket: Bytes::from_static(&[1; 64]),
                data: Bytes::from_static(b"data"),
            };
            rma::decode(rma::encode_scar_resp(&resp)).expect("valid frame")
        })
        .collect();
    let before = allocs();
    for (i, env) in responses.into_iter().enumerate() {
        let answer = RmaAnswer::of(env).expect("a response");
        assert_eq!((answer.op_id, answer.payload_bytes()), (i as u64, 68));
        let sub = answer.op_id << 10;
        let mut results = answer.into_results(sub);
        assert!(results.next().is_some_and(|d| d.sub == sub));
        assert!(results.next().is_none());
    }
    assert_eq!(allocs() - before, 0, "single-op completion allocated");
}

/// `install` is the prepare → write → commit triple and costs no more.
#[test]
fn install_allocates_no_more_than_the_triple_it_replaces() {
    let overwrite_all = |one: &dyn Fn(&mut BackendStore, &[u8], KeyHash)| {
        let mut store = populated();
        let before = allocs();
        for i in 0..KEYS {
            let (k, hash) = key(i);
            one(&mut store, &k, hash);
        }
        allocs() - before
    };
    let (value, v2) = ([3u8; 512], VersionNumber::new(2, 1, 1));
    let triple = overwrite_all(&|store, k, hash| {
        let p = store.prepare_set(k, &value, hash, v2).expect("roomy store");
        store.write_data(p.data_offset, &p.entry_bytes);
        assert_eq!(store.commit_set(&p), rpc::Status::Ok);
    });
    let install = overwrite_all(&|store, k, hash| {
        assert_eq!(store.install(k, &value, hash, v2), rpc::Status::Ok);
    });
    assert!(install <= triple, "install {install} > triple {triple}");
}

/// ERASE → SET churn over a few keys retains no heap: a committed SET drops
/// its key's tombstone outright, so the tombstone cache holds no more than
/// the live tombstones (here at most one), whatever the history.
#[test]
fn erase_set_churn_retains_no_tombstone_heap() {
    let mut store = BackendStore::new(StoreCfg::default(), Box::new(LruPolicy::new()));
    let mut cycle = |i: u64| {
        let (k, hash) = key(i % 10);
        let erased = VersionNumber::new(2 * i + 1, 1, 1);
        assert_eq!(store.erase(hash, erased), rpc::Status::Ok);
        let set = VersionNumber::new(2 * i + 2, 1, 1);
        assert_eq!(store.install(&k, &[7; 64], hash, set), rpc::Status::Ok);
    };
    // One round of every key first: storage reaches its steady size.
    (0..10).for_each(&mut cycle);
    let before = live_bytes();
    (10..100_010).for_each(&mut cycle);
    let retained = live_bytes() - before;
    assert!(
        retained <= 1024,
        "100,000 ERASE → SET cycles retained {retained} B"
    );
}
