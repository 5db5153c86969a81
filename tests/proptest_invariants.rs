//! Property-based tests over the core data structures and protocols:
//! model-checked store semantics, allocator invariants, codec fuzzing, and
//! checksum torn-read detection.

use std::collections::HashMap;

use bytes::Bytes;
use proptest::prelude::*;

use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::layout::{encode_data_entry, parse_data_entry};
use cliquemap::policy::LruPolicy;
use cliquemap::slab::{AllocError, SlabAllocator};
use cliquemap::store::{BackendStore, StoreCfg};
use cliquemap::version::VersionNumber;

// ---- store vs. reference model ---------------------------------------

#[derive(Debug, Clone)]
enum StoreOp {
    Set {
        key: u8,
        value_len: u16,
        version: u64,
    },
    Erase {
        key: u8,
        version: u64,
    },
    Fetch {
        key: u8,
    },
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (any::<u8>(), 1u16..2048, 1u64..1000).prop_map(|(key, value_len, version)| {
            StoreOp::Set {
                key,
                value_len,
                version,
            }
        }),
        (any::<u8>(), 1u64..1000).prop_map(|(key, version)| StoreOp::Erase { key, version }),
        any::<u8>().prop_map(|key| StoreOp::Fetch { key }),
    ]
}

fn big_store() -> BackendStore {
    // Big enough that evictions never fire: the model has no eviction.
    BackendStore::new(
        StoreCfg {
            num_buckets: 512,
            assoc: 14,
            data_capacity: 8 << 20,
            max_data_capacity: 8 << 20,
            slab_bytes: 16 << 10,
            ..StoreCfg::default()
        },
        Box::new(LruPolicy::new()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store agrees with a simple map-with-version-floor model under
    /// arbitrary op sequences.
    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(store_op(), 1..200)) {
        let mut store = big_store();
        // Model: key -> (value, version); floor: key -> highest version seen.
        let mut model: HashMap<u8, (Vec<u8>, u64)> = HashMap::new();
        let mut floor: HashMap<u8, u64> = HashMap::new();
        let hasher = DefaultHasher;
        for op in ops {
            match op {
                StoreOp::Set { key, value_len, version } => {
                    let k = [b'k', key];
                    let v = vec![key ^ 0x5A; value_len as usize];
                    let hash = hasher.hash(&k);
                    let ver = VersionNumber::new(version, 1, 1);
                    let admitted = store.install(&k, &v, hash, ver) == rpc::Status::Ok;
                    let model_admits = version > *floor.get(&key).unwrap_or(&0);
                    prop_assert_eq!(admitted, model_admits,
                        "set admission diverged for key {} v{}", key, version);
                    if admitted {
                        model.insert(key, (v, version));
                        floor.insert(key, version);
                    }
                }
                StoreOp::Erase { key, version } => {
                    let k = [b'k', key];
                    let hash = hasher.hash(&k);
                    let status = store.erase(hash, VersionNumber::new(version, 1, 1));
                    let model_admits = version > *floor.get(&key).unwrap_or(&0);
                    prop_assert_eq!(status == rpc::Status::Ok, model_admits);
                    if model_admits {
                        model.remove(&key);
                        floor.insert(key, version);
                    }
                }
                StoreOp::Fetch { key } => {
                    let k = [b'k', key];
                    let hash = hasher.hash(&k);
                    match (store.fetch(hash), model.get(&key)) {
                        (Some((sk, sv, sver)), Some((mv, mver))) => {
                            prop_assert_eq!(&sk[..], &k[..]);
                            prop_assert_eq!(&sv[..], &mv[..]);
                            prop_assert_eq!(sver.truetime_ns(), *mver);
                        }
                        (None, None) => {}
                        (got, want) => prop_assert!(
                            false, "fetch diverged for {}: store {:?} model {:?}",
                            key, got.is_some(), want.is_some()
                        ),
                    }
                }
            }
        }
        prop_assert_eq!(store.live_entries(), model.len() as u64);
    }

    /// Index reshaping preserves the entire corpus, regardless of prior
    /// operations.
    #[test]
    fn reshape_preserves_corpus(keys in proptest::collection::btree_set(any::<u16>(), 1..300)) {
        let mut store = big_store();
        let hasher = DefaultHasher;
        for &key in &keys {
            let k = key.to_le_bytes();
            let hash = hasher.hash(&k);
            let status = store.install(&k, b"payload", hash, VersionNumber::new(1, 0, key as u32));
            prop_assert_eq!(status, rpc::Status::Ok);
        }
        store.begin_index_resize();
        store.finish_index_resize();
        for &key in &keys {
            let k = key.to_le_bytes();
            let hash = hasher.hash(&k);
            let (got_key, value, _) = store.fetch(hash).expect("key lost in reshape");
            prop_assert_eq!(&got_key[..], &k[..]);
            prop_assert_eq!(&value[..], b"payload");
        }
    }

    /// Compacting restarts preserve the corpus and never grow residency.
    #[test]
    fn compact_restart_preserves_corpus(sizes in proptest::collection::vec(1usize..4000, 1..100)) {
        let mut store = big_store();
        let hasher = DefaultHasher;
        for (i, &len) in sizes.iter().enumerate() {
            let k = (i as u32).to_le_bytes();
            let v = vec![i as u8; len];
            let hash = hasher.hash(&k);
            store.install(&k, &v, hash, VersionNumber::new(1, 0, i as u32 + 1));
        }
        let live_before = store.live_entries();
        store.compact_restart(0.1);
        prop_assert_eq!(store.live_entries(), live_before);
        for (i, &len) in sizes.iter().enumerate() {
            let k = (i as u32).to_le_bytes();
            let hash = hasher.hash(&k);
            let (_, value, _) = store.fetch(hash).expect("key lost in compaction");
            prop_assert_eq!(value.len(), len);
            prop_assert!(value.iter().all(|&b| b == i as u8));
        }
    }
}

// ---- slab allocator ----------------------------------------------------

#[derive(Debug, Clone)]
enum SlabOp {
    Alloc(usize),
    FreeNth(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Allocations never overlap, byte accounting balances, and freed
    /// space is reusable, under arbitrary alloc/free interleavings.
    #[test]
    fn slab_no_overlap_and_accounting(
        ops in proptest::collection::vec(
            prop_oneof![
                (1usize..20_000).prop_map(SlabOp::Alloc),
                (0usize..64).prop_map(SlabOp::FreeNth),
            ],
            1..300,
        )
    ) {
        let mut a = SlabAllocator::with_slab_size(1 << 20, 8 << 10);
        let mut live: Vec<(u64, usize)> = Vec::new();
        for op in ops {
            match op {
                SlabOp::Alloc(len) => match a.alloc(len) {
                    Ok(off) => {
                        let size = a.rounded_size(len) as u64;
                        for &(o, l) in &live {
                            let other = a.rounded_size(l) as u64;
                            prop_assert!(
                                off + size <= o || off >= o + other,
                                "overlap: [{}, {}) vs [{}, {})",
                                off, off + size, o, o + other
                            );
                        }
                        live.push((off, len));
                    }
                    Err(AllocError::OutOfMemory) => {}
                    Err(AllocError::Unsatisfiable) => prop_assert!(false, "len was nonzero"),
                },
                SlabOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (off, len) = live.swap_remove(n % live.len());
                        a.free(off, len);
                    }
                }
            }
            let expected: usize = live.iter().map(|&(_, l)| a.rounded_size(l)).sum();
            prop_assert_eq!(a.used_bytes(), expected, "accounting drifted");
        }
        // Drain everything: accounting returns to zero.
        for (off, len) in live {
            a.free(off, len);
        }
        prop_assert_eq!(a.used_bytes(), 0);
    }
}

// ---- codecs -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No byte string makes the decoders panic; truncating valid frames
    /// yields clean failures.
    #[test]
    fn codecs_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let b = Bytes::from(bytes);
        let _ = rpc::decode(b.clone());
        let _ = rma::decode(b.clone());
        let _ = parse_data_entry(&b);
        let _ = cliquemap::messages::SetReq::decode(b.clone());
        let _ = cliquemap::messages::ScanPage::decode(b.clone());
        let _ = cliquemap::messages::MigrateChunk::decode(b.clone());
        let _ = cliquemap::config::CellConfig::decode(b);
    }

    /// DataEntry roundtrip for arbitrary keys/values/versions.
    #[test]
    fn data_entry_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 0..128),
        value in proptest::collection::vec(any::<u8>(), 0..4096),
        tt in any::<u64>(), client in any::<u32>(), seq in any::<u32>(),
    ) {
        let version = VersionNumber::new(tt, client, seq);
        let raw = encode_data_entry(&key, &value, version);
        let parsed = parse_data_entry(&raw).unwrap();
        prop_assert_eq!(parsed.key, &key[..]);
        prop_assert_eq!(parsed.data, &value[..]);
        prop_assert_eq!(parsed.version, version);
    }

    /// Any torn mixture of two distinct valid entries fails validation:
    /// the self-validating-response guarantee.
    #[test]
    fn torn_entry_mixtures_always_detected(
        (value_a, value_b) in (8usize..512).prop_flat_map(|len| (
            proptest::collection::vec(any::<u8>(), len),
            proptest::collection::vec(any::<u8>(), len),
        )),
        cut_frac in 0.05f64..0.95,
    ) {
        prop_assume!(value_a != value_b);
        // Same length -> same slot -> a realistic in-place tear.
        let a = encode_data_entry(b"same-key", &value_a, VersionNumber::new(1, 1, 1));
        let b = encode_data_entry(b"same-key", &value_b, VersionNumber::new(1, 1, 1));
        let cut = ((a.len() as f64) * cut_frac) as usize;
        let mut torn = a.clone();
        torn[cut..].copy_from_slice(&b[cut..]);
        // Either the mixture equals one of the originals (no tear at all)
        // or validation must fail.
        if torn != a && torn != b {
            prop_assert!(parse_data_entry(&torn).is_err(), "undetected torn read");
        }
    }

    /// RPC envelope roundtrip for arbitrary field values.
    #[test]
    fn rpc_envelope_roundtrip(
        method in any::<u16>(), id in any::<u64>(), auth in any::<u64>(),
        deadline in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let req = rpc::Request {
            version: rpc::PROTOCOL_VERSION,
            method, id, auth, deadline_ns: deadline,
            body: Bytes::from(body),
        };
        match rpc::decode(rpc::encode_request(&req)) {
            Some(rpc::Envelope::Request(got)) => prop_assert_eq!(got, req),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// RMA ReadReq roundtrip for arbitrary field values.
    #[test]
    fn rma_read_req_roundtrip(
        op_id in any::<u64>(), window in any::<u32>(), generation in any::<u32>(),
        offset in any::<u64>(), len in any::<u32>(),
    ) {
        let req = rma::ReadReq { op_id, window, generation, offset, len };
        match rma::decode(rma::codec::encode_read_req_in(&req, &bytes::Pool::new())) {
            Some(rma::RmaEnvelope::ReadReq(got)) => prop_assert_eq!(got, req),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// RMA ReadResp roundtrip through the serving path's encoder.
    #[test]
    fn rma_read_resp_roundtrip(
        op_id in any::<u64>(), status in (0u8..=5).prop_map(rma::RmaStatus::from_u8),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let resp = rma::ReadResp { op_id, status, data: Bytes::from(data.clone()) };
        let wire = rma::codec::encode_read_resp_parts(op_id, status, &data, &bytes::Pool::new());
        match rma::decode(wire) {
            Some(rma::RmaEnvelope::ReadResp(got)) => prop_assert_eq!(got, resp),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// RMA ScarReq roundtrip.
    #[test]
    fn rma_scar_req_roundtrip(
        op_id in any::<u64>(), index_window in any::<u32>(), index_generation in any::<u32>(),
        bucket_offset in any::<u64>(), bucket_len in any::<u32>(), key_hash in any::<u128>(),
    ) {
        let req = rma::ScarReq {
            op_id, index_window, index_generation, bucket_offset, bucket_len, key_hash,
        };
        match rma::decode(rma::codec::encode_scar_req_in(&req, &bytes::Pool::new())) {
            Some(rma::RmaEnvelope::ScarReq(got)) => prop_assert_eq!(got, req),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// RMA ScarResp roundtrip. Bucket and data are length-prefixed
    /// independently, so both must survive.
    #[test]
    fn rma_scar_resp_roundtrip(
        op_id in any::<u64>(), status in (0u8..=5).prop_map(rma::RmaStatus::from_u8),
        bucket in proptest::collection::vec(any::<u8>(), 0..256),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let resp = rma::ScarResp {
            op_id,
            status,
            bucket: Bytes::from(bucket.clone()),
            data: Bytes::from(data.clone()),
        };
        let wire =
            rma::codec::encode_scar_resp_parts(op_id, status, &bucket, &data, &bytes::Pool::new());
        match rma::decode(wire) {
            Some(rma::RmaEnvelope::ScarResp(got)) => prop_assert_eq!(got, resp),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// Every strict prefix of a valid RMA frame is cleanly rejected: the
    /// payload lengths are explicit, so truncation can never mis-decode.
    #[test]
    fn rma_truncated_frames_rejected(
        kind in 0usize..4,
        op_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        cut_frac in 0.0f64..1.0,
    ) {
        let pool = bytes::Pool::new();
        let frame = match kind {
            0 => rma::codec::encode_read_req_in(&rma::ReadReq {
                op_id, window: 3, generation: 7, offset: 40, len: payload.len() as u32,
            }, &pool),
            1 => rma::codec::encode_read_resp_parts(op_id, rma::RmaStatus::Ok, &payload, &pool),
            2 => rma::codec::encode_scar_req_in(&rma::ScarReq {
                op_id, index_window: 1, index_generation: 2, bucket_offset: 64,
                bucket_len: 128, key_hash: 0xfeed,
            }, &pool),
            _ => rma::codec::encode_scar_resp_parts(
                op_id, rma::RmaStatus::NoMatch, &payload, &[], &pool,
            ),
        };
        prop_assert!(rma::decode(frame.clone()).is_some(), "full frame must decode");
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(
            rma::decode(frame.slice(0..cut)).is_none(),
            "truncated frame decoded ({} of {} bytes)", cut, frame.len()
        );
    }

    /// The frames whose decode feeds the client's quorum core — lookup
    /// responses, batch status vectors, and the mutation requests backends
    /// decode — and what carries them — the RPC envelopes and the batch
    /// request frames — survive truncation at every length and every
    /// single-bit flip: no panic, no allocation sized by an unchecked
    /// count, and a result that is `None` (a `Garbled` verdict, one retry,
    /// at the client) or accounts for no more bytes than the frame holds.
    #[test]
    fn message_frames_survive_truncation_and_bit_flips(
        key in proptest::collection::vec(any::<u8>(), 0..24),
        value in proptest::collection::vec(any::<u8>(), 0..24),
        n in 0usize..4,
        version in any::<u64>(),
    ) {
        use cliquemap::messages::*;
        let pool = bytes::Pool::new();
        let (key, value) = (Bytes::from(key), Bytes::from(value));
        let version = VersionNumber(version as u128);
        let subs: Vec<u64> = (0..n as u64).collect();
        let entries = subs.iter().map(|&sub| MultiGetEntry {
            sub, status: (sub % 2) as u8, version, value: value.clone(),
        }).collect();
        let statuses = subs.iter().map(|&sub| (sub, (sub % 3) as u8)).collect();
        let multi_get = MultiGetReq { subs: subs.clone(), keys: vec![key.clone(); n] };
        let multi_set = MultiSetReq {
            subs: subs.clone(),
            entries: vec![(key.clone(), value.clone(), version); n],
        };
        let request = rpc::Request {
            version: rpc::PROTOCOL_VERSION, method: method::SET, id: version.0 as u64,
            auth: 7, deadline_ns: 1_000, body: value.clone(),
        };
        let response = rpc::Response {
            version: rpc::PROTOCOL_VERSION, status: rpc::Status::Ok, id: version.0 as u64,
            body: value.clone(),
        };
        // Each decoder reports the bytes its message accounts for.
        type Sized = fn(Bytes) -> Option<usize>;
        fn envelope(b: Bytes) -> Option<usize> {
            Some(match rpc::decode(b)? {
                rpc::Envelope::Request(r) => 35 + r.body.len(),
                rpc::Envelope::Response(r) => 18 + r.body.len(),
            })
        }
        let frames: [(&str, Bytes, Sized); 10] = [
            ("rpc::Request", rpc::encode_request_in(&request, &pool), envelope),
            ("rpc::Response", rpc::encode_response_in(&response, &pool), envelope),
            ("MultiGetReq", multi_get.encode_in(&pool), |b| {
                let len = b.len();
                let m = MultiGetReq::decode(b)?;
                assert!(m.keys.capacity() * 12 <= len, "capacity from an unchecked count");
                Some(4 + m.keys.iter().map(|k| 12 + k.len()).sum::<usize>())
            }),
            ("MultiSetReq", multi_set.encode_in(&pool), |b| {
                let len = b.len();
                let m = MultiSetReq::decode(b)?;
                assert!(m.entries.capacity() * 32 <= len, "capacity from an unchecked count");
                Some(4 + m.entries.iter().map(|(k, v, _)| 32 + k.len() + v.len()).sum::<usize>())
            }),
            ("GetResp",
             GetResp { key: key.clone(), value: value.clone(), version }.encode_in(&pool),
             |b| GetResp::decode(b).map(|m| 24 + m.key.len() + m.value.len())),
            ("MultiGetResp", MultiGetResp { entries }.encode_in(&pool), |b| {
                let len = b.len();
                let m = MultiGetResp::decode(b)?;
                assert!(m.entries.capacity() * 29 <= len, "capacity from an unchecked count");
                Some(4 + m.entries.iter().map(|e| 29 + e.value.len()).sum::<usize>())
            }),
            ("MultiSetResp", MultiSetResp { statuses }.encode_in(&pool), |b| {
                let len = b.len();
                let m = MultiSetResp::decode(b)?;
                assert!(m.statuses.capacity() * 9 <= len, "capacity from an unchecked count");
                Some(4 + 9 * m.statuses.len())
            }),
            ("SetReq",
             SetReq { key: key.clone(), value: value.clone(), version }.encode_in(&pool),
             |b| SetReq::decode(b).map(|m| 24 + m.key.len() + m.value.len())),
            ("CasReq",
             CasReq { key: key.clone(), value: value.clone(), expected: version, new_version: version }
                 .encode_in(&pool),
             |b| CasReq::decode(b).map(|m| 40 + m.key.len() + m.value.len())),
            ("EraseReq", EraseReq { key: key.clone(), version }.encode_in(&pool),
             |b| EraseReq::decode(b).map(|m| 20 + m.key.len())),
        ];
        for (name, frame, decode) in frames {
            prop_assert_eq!(decode(frame.clone()), Some(frame.len()), "{}: full frame", name);
            for cut in 0..frame.len() {
                prop_assert!(decode(frame.slice(0..cut)).is_none(), "{} decoded at {}", name, cut);
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Some(accounted) = decode(Bytes::from(flipped)) {
                    prop_assert!(accounted <= frame.len(), "{}: bit {} over-reads", name, bit);
                }
            }
        }
        // A vector frame claiming u32::MAX entries is rejected before any
        // allocation is sized from the claim.
        let huge = Bytes::from(u32::MAX.to_le_bytes().to_vec());
        prop_assert!(MultiGetResp::decode(huge.clone()).is_none());
        prop_assert!(MultiSetResp::decode(huge.clone()).is_none());
        prop_assert!(MultiSetReq::decode(huge).is_none());
    }

    /// A cohort-scan page roundtrips with and without its trailing
    /// tombstone section, and without one it is the original format byte
    /// for byte. A page that carries tombstones survives truncation at every
    /// length — `None`, except the cut where the section starts, which is
    /// the same page without it — and every single-bit flip, and a count the
    /// body cannot hold is rejected before anything is sized from it.
    #[test]
    fn scan_page_tombstones_survive_truncation_and_bit_flips(
        page in any::<u32>(),
        done in any::<bool>(),
        pairs in proptest::collection::vec((any::<u128>(), any::<u128>()), 0..4),
        tombstones in proptest::collection::vec((any::<u128>(), any::<u128>()), 1..4),
    ) {
        use cliquemap::messages::ScanPage;
        let pool = bytes::Pool::new();
        let versioned = |v: &[(u128, u128)]| -> Vec<_> {
            v.iter().map(|&(h, v)| (h, VersionNumber(v))).collect()
        };
        let plain = ScanPage { page, done, pairs: versioned(&pairs), tombstones: Vec::new() };
        let erased = ScanPage { tombstones: versioned(&tombstones), ..plain.clone() };
        // The original format: page, done, a counted run of pairs.
        let mut original = page.to_le_bytes().to_vec();
        original.push(done as u8);
        original.extend((pairs.len() as u32).to_le_bytes());
        for (h, v) in &pairs {
            original.extend(h.to_le_bytes());
            original.extend(v.to_le_bytes());
        }
        let plain_wire = plain.encode_in(&pool);
        prop_assert_eq!(&plain_wire[..], &original[..]);
        prop_assert_eq!(ScanPage::decode(plain_wire), Some(plain.clone()));
        let wire = erased.encode_in(&pool);
        prop_assert_eq!(ScanPage::decode(wire.clone()), Some(erased.clone()));
        for cut in 0..wire.len() {
            if let Some(p) = ScanPage::decode(wire.slice(0..cut)) {
                prop_assert!(cut == original.len() && p == plain, "decoded at {}", cut);
            }
        }
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(p) = ScanPage::decode(Bytes::from(flipped)) {
                let entries = p.pairs.capacity() + p.tombstones.capacity();
                prop_assert!(9 + 32 * entries <= wire.len(), "bit {} over-reads", bit);
            }
        }
        // Counts that lie: u32::MAX pairs, or u32::MAX tombstones after none.
        let head = [&page.to_le_bytes()[..], &[1]].concat();
        let lie = u32::MAX.to_le_bytes();
        let pairs_lie = [&head[..], &lie[..]].concat();
        let tombstones_lie = [&head[..], &[0; 4], &lie[..]].concat();
        prop_assert!(ScanPage::decode(Bytes::from(pairs_lie)).is_none());
        prop_assert!(ScanPage::decode(Bytes::from(tombstones_lie)).is_none());
    }

    /// A handoff chunk roundtrips with and without its trailing `erased`
    /// section, and without one it is the original format byte for byte. A
    /// chunk that carries erases survives truncation at every length —
    /// `None`, except the cut where the section starts, which is the same
    /// chunk without it — and every single-bit flip, and a count the body
    /// cannot hold is rejected before anything is sized from it.
    #[test]
    fn migrate_chunk_erases_survive_truncation_and_bit_flips(
        last in any::<bool>(),
        shard in any::<u32>(),
        config_id in any::<u32>(),
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..6),
             proptest::collection::vec(any::<u8>(), 0..6),
             any::<u128>()),
            0..3),
        erased in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..6), any::<u128>()), 1..3),
    ) {
        use cliquemap::messages::MigrateChunk;
        let pool = bytes::Pool::new();
        let entries: Vec<_> = entries
            .into_iter()
            .map(|(k, v, ver)| (Bytes::from(k), Bytes::from(v), VersionNumber(ver)))
            .collect();
        let erased = erased.into_iter().map(|(k, ver)| (Bytes::from(k), VersionNumber(ver)));
        let plain = MigrateChunk { last, shard, new_config_id: config_id, entries, erased: Vec::new() };
        let erasing = MigrateChunk { erased: erased.collect(), ..plain.clone() };
        // The original format: last, shard, config id, then a counted run
        // of (version, length-prefixed key, length-prefixed value).
        let mut original = vec![last as u8];
        original.extend(shard.to_le_bytes());
        original.extend(config_id.to_le_bytes());
        original.extend((plain.entries.len() as u32).to_le_bytes());
        for (k, v, ver) in &plain.entries {
            original.extend(ver.0.to_le_bytes());
            for field in [k, v] {
                original.extend((field.len() as u32).to_le_bytes());
                original.extend(&field[..]);
            }
        }
        let plain_wire = plain.encode_in(&pool);
        prop_assert_eq!(&plain_wire[..], &original[..]);
        prop_assert_eq!(MigrateChunk::decode(plain_wire), Some(plain.clone()));
        let wire = erasing.encode_in(&pool);
        prop_assert_eq!(MigrateChunk::decode(wire.clone()), Some(erasing.clone()));
        for cut in 0..wire.len() {
            if let Some(c) = MigrateChunk::decode(wire.slice(0..cut)) {
                prop_assert!(cut == original.len() && c == plain, "decoded at {}", cut);
            }
        }
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(c) = MigrateChunk::decode(Bytes::from(flipped)) {
                let sized = 13 + 24 * c.entries.capacity() + 20 * c.erased.capacity();
                prop_assert!(sized <= wire.len(), "bit {} over-reads", bit);
            }
        }
        // Counts that lie: u32::MAX entries, or u32::MAX erases after none.
        let head = [&[last as u8][..], &shard.to_le_bytes(), &config_id.to_le_bytes()].concat();
        let lie = u32::MAX.to_le_bytes();
        let entries_lie = [&head[..], &lie[..]].concat();
        let erased_lie = [&head[..], &[0; 4], &lie[..]].concat();
        prop_assert!(MigrateChunk::decode(Bytes::from(entries_lie)).is_none());
        prop_assert!(MigrateChunk::decode(Bytes::from(erased_lie)).is_none());
    }

    /// Version ordering is total and the generator is monotonic under
    /// arbitrary TrueTime readings (including clock regressions).
    #[test]
    fn version_generator_monotonic(readings in proptest::collection::vec(any::<u32>(), 1..500)) {
        let mut g = cliquemap::version::VersionGen::new(7);
        let mut last = VersionNumber::ZERO;
        for r in readings {
            let ts = simnet::TrueTimestamp {
                earliest: r as u64,
                latest: r as u64 + 2_000_000,
            };
            let v = g.nominate(ts);
            prop_assert!(v > last);
            last = v;
        }
    }
}

// ---- quorum safety under random fault schedules -------------------------

/// A bounded random network-loss window.
#[derive(Debug, Clone, Copy)]
struct LossWindow {
    start_ms: u64,
    dur_ms: u64,
    drop: f64,
}

fn loss_window() -> impl Strategy<Value = LossWindow> {
    (5u64..60, 5u64..25, 0.1f64..0.6).prop_map(|(start_ms, dur_ms, drop)| LossWindow {
        start_ms,
        dur_ms,
        drop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Quorum safety: under ANY bounded schedule of packet loss and
    /// client→backend partitions, an acknowledged SET is never lost and
    /// never read stale after the network heals and repairs converge. Each
    /// client writes its own key twice (the second write mid-schedule) and
    /// reads it long after the last heal; if the second SET was acked, the
    /// read must hit and a write quorum of replicas must hold its bytes.
    #[test]
    fn quorum_safety_under_random_fault_schedules(
        plan_seed in any::<u64>(),
        losses in proptest::collection::vec(loss_window(), 0..3),
        partition in (any::<bool>(), 10u64..60, 5u64..30, 0usize..4),
    ) {
        use cliquemap::cell::{Cell, CellSpec};
        use cliquemap::client::LookupStrategy;
        use cliquemap::config::ReplicationMode;
        use cliquemap::history::{check, value_hash};
        use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload, Workload};
        use simnet::{Fault, FaultPlan, HostSet, LinkImpairment, SimDuration, SimTime};

        let ms = |n: u64| SimTime(n * 1_000_000);
        let mut spec = CellSpec {
            replication: ReplicationMode::R32,
            num_backends: 4,
            clients_per_host: 2,
            seed: 9,
            host: simnet::HostCfg::default().no_cstates(),
            ..CellSpec::default()
        };
        spec.client.strategy = LookupStrategy::TwoR;
        spec.transport = rma::TransportKind::Rdma;
        spec.client.attempt_timeout = SimDuration::from_micros(500);
        spec.client.retry.jitter = 0.5;
        spec.backend.scan_interval = Some(SimDuration::from_millis(10));
        let clients = 4usize;
        let key = |c: usize| Bytes::from(format!("inv-{c}"));
        let v1 = |c: usize| Bytes::from(format!("first-{c}"));
        let v2 = |c: usize| Bytes::from(format!("second-{c}"));
        // Delays are issue-relative: SET v1 at ~5ms, SET v2 at ~45ms (inside
        // the schedule), GET at ~200ms — after the last possible heal (90ms)
        // plus the 100ms op deadline of the mid-chaos SET.
        let workloads: Vec<Box<dyn Workload>> = (0..clients)
            .map(|c| {
                Box::new(ScriptWorkload::new(vec![
                    (
                        SimDuration::from_micros(5_000 + 50 * c as u64),
                        ClientOp::Set { key: key(c), value: v1(c) },
                    ),
                    (
                        SimDuration::from_millis(40),
                        ClientOp::Set { key: key(c), value: v2(c) },
                    ),
                    (SimDuration::from_millis(155), ClientOp::Get { key: key(c) }),
                ])) as Box<dyn Workload>
            })
            .collect();
        let mut cell = Cell::build(spec, workloads);
        cell.record_history();
        let mut plan = FaultPlan::new(plan_seed);
        for w in &losses {
            plan.add(
                ms(w.start_ms),
                ms(w.start_ms + w.dur_ms),
                Fault::Link {
                    src: HostSet::All,
                    dst: HostSet::All,
                    symmetric: false,
                    impair: LinkImpairment::loss(w.drop),
                },
            );
        }
        if let (true, start_ms, dur_ms, pair) = partition {
            let cuts = [[0, 1], [1, 2], [2, 3], [0, 3]][pair];
            let bh = &cell.backend_hosts;
            plan.add(
                ms(start_ms),
                ms(start_ms + dur_ms),
                Fault::Partition {
                    a: HostSet::of(&cell.client_hosts),
                    b: HostSet::of(&[bh[cuts[0]], bh[cuts[1]]]),
                    symmetric: false,
                },
            );
        }
        cell.sim.install_fault_plan(&plan);
        cell.run_for(SimDuration::from_millis(260));

        // No stale read and no acked SET lost: a write quorum of every
        // key's replicas holds its newest acked SET, and the read after it
        // saw it.
        let h = cell.history();
        let violations = check(&h, ReplicationMode::R32);
        prop_assert!(violations.is_empty(), "{:?}", violations);
        for c in 0..clients {
            let done = h.outcomes(cell.clients[c].0);
            prop_assert_eq!(done.len(), 3, "client {} outcomes: {:?}", c, done);
            // Any acknowledged write makes the key durable, so the
            // post-heal read must hit.
            if done[0] == OpOutcome::Done || done[1] == OpOutcome::Done {
                prop_assert_eq!(done[2], OpOutcome::Hit, "client {}: acked SET lost", c);
            }
            // An acked SET v2 is held by a write quorum, whenever it
            // completed (`check` waits two scan intervals after it).
            if done[1] == OpOutcome::Done {
                let hash = DefaultHasher.hash(&key(c));
                let v2 = Some(value_hash(&v2(c)));
                let holding = h.copies.iter().filter(|k| k.key == hash && k.live && k.value == v2);
                let holding = holding.count();
                prop_assert!(holding >= 2, "client {}: only {} replicas hold v2", c, holding);
            }
        }
    }
}

// ---- adaptive controller determinism ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two seeded runs of an adaptive cell produce identical strategy-
    /// choice streams, for ANY cell seed: each client's controller keeps an
    /// incremental FNV-1a hash over its (decision index, chosen strategy)
    /// stream, and folding every client's (hash, decision count) into one
    /// digest must reproduce bit-identically across runs. This is the
    /// whole-system determinism claim for the explorer's forked RNG — not
    /// just the unit-level controller check in `crates/adaptive`.
    #[test]
    fn adaptive_choice_streams_are_deterministic(seed in any::<u64>()) {
        use cliquemap::cell::{Cell, CellSpec};
        use cliquemap::client::ClientNode;
        use cliquemap::config::ReplicationMode;
        use cliquemap::workload::{UniformWorkload, Workload};
        use simnet::SimDuration;

        let run = || {
            let mut spec = CellSpec {
                replication: ReplicationMode::R32,
                num_backends: 4,
                clients_per_host: 2,
                seed,
                host: simnet::HostCfg::default().no_cstates(),
                ..CellSpec::default()
            };
            spec.client.adaptive = Some(adaptive::ControllerCfg::default());
            let wls: Vec<Box<dyn Workload>> = (0..3)
                .map(|_| {
                    Box::new(UniformWorkload::mix(200, 256, 0.8, 20_000.0, u64::MAX))
                        as Box<dyn Workload>
                })
                .collect();
            let mut cell = Cell::build(spec, wls);
            cell.run_for(SimDuration::from_millis(40));
            // FNV-1a over the choice dump: every client's stream hash and
            // decision count, in client order.
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            let mut fold = |v: u64| {
                for b in v.to_le_bytes() {
                    digest ^= b as u64;
                    digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            let mut decisions = 0u64;
            for &c in &cell.clients {
                let (hash, d) = cell
                    .sim
                    .with_node::<ClientNode, _>(c, |n| {
                        (
                            n.adaptive_choice_hash().expect("controller on"),
                            n.adaptive_stats().expect("controller on").0,
                        )
                    })
                    .unwrap();
                fold(hash);
                fold(d);
                decisions += d;
            }
            (digest, decisions)
        };
        let (digest_a, decisions_a) = run();
        let (digest_b, decisions_b) = run();
        prop_assert!(decisions_a > 0, "no adaptive decisions were made");
        prop_assert_eq!(decisions_a, decisions_b, "decision counts diverged");
        prop_assert_eq!(digest_a, digest_b, "choice streams diverged");
    }
}

// ---- calendar event queue vs. reference heap -------------------------

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simnet::CalendarQueue;

/// Scripted queue actions: `kind` selects push-near / push-mid / push-far /
/// push-tie / pop / burst, `mag` scales the push distance so scripts
/// exercise same-bucket splices, wheel-window rotation, far-future overflow
/// and, through bursts, the reuse of the slots popped events left.
fn queue_script() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The calendar queue must pop in exactly the reference heap's
    /// `(time, seq)` order: same-timestamp FIFO ties resolve by seq,
    /// bucket-window rotation never reorders, and events migrating back
    /// from the far-future overflow heap land in their correct slots. Every
    /// payload is its own `seq`, so a slot handed to two events at once
    /// shows as a payload that does not match its key.
    #[test]
    fn calendar_queue_matches_reference_heap(script in queue_script()) {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut h: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut last_at = 0u64;
        let mut seq = 0u64;
        for (kind, mag) in script {
            let at = match kind % 6 {
                // Near: same or adjacent 2048ns bucket.
                0 => now + (mag as u64 % 2_048),
                // Mid: inside the ~8.4ms wheel horizon.
                1 => now + (mag as u64 % 8_000_000),
                // Far: beyond the horizon, lands in the overflow heap.
                2 => now + 8_500_000 + (mag as u64 % 200_000_000),
                // Tie: exact same timestamp as the previous push.
                3 => last_at.max(now),
                // Burst: 1-256 pushes into one 2048ns window — the one
                // draining now, or one of the next 15 — with a pop after
                // every `every`th push, so popped slots are reused within
                // the burst and the window drains while it fills.
                4 => {
                    let (n, ahead) = (1 + mag as u64 % 256, (mag as u64 >> 8) % 16);
                    let every = 1 + (mag as u64 >> 12) % 4;
                    let window = (now / 2_048 + ahead) * 2_048;
                    for i in 0..n {
                        let at = now.max(window + (i * 733 + (mag as u64 >> 14)) % 2_048);
                        q.push(at, seq, seq);
                        h.push(Reverse((at, seq)));
                        seq += 1;
                        if i % every == every - 1 {
                            let got = q.pop();
                            let want = h.pop().map(|Reverse((at, s))| (at, s, s));
                            prop_assert_eq!(got, want);
                            now = got.expect("just pushed").0;
                        }
                    }
                    prop_assert_eq!(q.len(), h.len());
                    continue;
                }
                // Pop and cross-check against the reference.
                _ => {
                    let got = q.pop();
                    let want = h.pop().map(|Reverse((at, s))| (at, s, s));
                    prop_assert_eq!(got, want);
                    if let Some((at, _, _)) = got {
                        now = at;
                    }
                    continue;
                }
            };
            last_at = at;
            q.push(at, seq, seq);
            h.push(Reverse((at, seq)));
            seq += 1;
            prop_assert_eq!(q.len(), h.len());
        }
        // Drain the remainder: every pop must match the reference exactly.
        while let Some(Reverse((at, s))) = h.pop() {
            prop_assert_eq!(q.pop(), Some((at, s, s)));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }
}
