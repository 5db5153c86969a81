//! The client lease cache against a reference model, its allocation
//! behaviour at capacity, and — at cell level — the promise that a cached
//! value never pins the frame that carried it.

mod support;

use bytes::{Bytes, Pool};
use proptest::prelude::*;
use proptest::TestCaseError;

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::{ClientNode, LookupStrategy};
use cliquemap::client_cache::{CacheStats, ClientCache, ClientCacheCfg, Lookup};
use cliquemap::config::ReplicationMode;
use cliquemap::hash::KeyHash;
use cliquemap::version::VersionNumber;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use simnet::{SimDuration, SimTime, SinkNode};
use support::allocs;
use workloads::{Prefill, SizeDist};

// ---- reference model -------------------------------------------------------

/// The cache as a `Vec` in recency order (front = most recent).
struct Model {
    cfg: ClientCacheCfg,
    entries: Vec<(KeyHash, VersionNumber, Vec<u8>, SimTime)>,
    stats: CacheStats,
}

impl Model {
    fn pos(&self, hash: KeyHash) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == hash)
    }

    fn touch(&mut self, i: usize) {
        let e = self.entries.remove(i);
        self.entries.insert(0, e);
    }

    fn lookup(&mut self, hash: KeyHash, now: SimTime) -> Lookup {
        self.stats.lookups += 1;
        let Some(i) = self.pos(hash) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        self.touch(i);
        let (_, version, _, lease) = self.entries[0];
        if now <= lease {
            self.stats.hits += 1;
            Lookup::Hit(version)
        } else {
            self.stats.stale += 1;
            Lookup::Stale(version)
        }
    }

    fn insert(&mut self, hash: KeyHash, version: VersionNumber, value: &[u8], now: SimTime) {
        let pos = self.pos(hash);
        if pos.is_some_and(|i| version < self.entries[i].1) {
            return;
        }
        let oversized = value.len() > self.cfg.max_value_len;
        match pos {
            Some(i) => {
                self.entries.remove(i);
                self.stats.evictions += oversized as u64;
            }
            None if !oversized && self.entries.len() == self.cfg.capacity => {
                self.entries.pop();
                self.stats.evictions += 1;
            }
            None => {}
        }
        if !oversized {
            let lease = now + self.cfg.lease_ttl;
            self.entries
                .insert(0, (hash, version, value.to_vec(), lease));
            self.stats.inserts += 1;
        }
    }

    fn validate(&mut self, hash: KeyHash, version: VersionNumber, now: SimTime) -> bool {
        match self.pos(hash) {
            Some(i) if self.entries[i].1 == version => {
                self.entries[i].3 = now + self.cfg.lease_ttl;
                self.touch(i);
                self.stats.validations += 1;
                true
            }
            _ => false,
        }
    }

    fn invalidate(&mut self, hash: KeyHash) -> bool {
        let Some(i) = self.pos(hash) else {
            return false;
        };
        self.entries.remove(i);
        self.stats.invalidations += 1;
        true
    }

    fn peek(&self, hash: KeyHash) -> Option<(VersionNumber, Vec<u8>, SimTime)> {
        self.pos(hash).map(|i| {
            let (_, version, value, lease) = &self.entries[i];
            (*version, value.clone(), *lease)
        })
    }
}

/// Key `k` as a hash: small integers, high-half-only hashes and well-mixed
/// ones, so probe runs collide and wrap.
fn hash_of(k: u16) -> KeyHash {
    match k % 3 {
        0 => k as u128,
        1 => (k as u128) << 64,
        _ => (k as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835),
    }
}

/// (kind, key, version, length selector, microseconds since the last op).
type Step = (u8, u16, u64, u8, u64);

const MAX_VALUE_LEN: usize = 1024;
const VALUE_LENS: [usize; 5] = [0, 5, 40, 300, MAX_VALUE_LEN + 1];

fn check_tape(capacity: usize, tape: &[Step]) -> Result<(), TestCaseError> {
    let cfg = ClientCacheCfg {
        capacity,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: MAX_VALUE_LEN,
    };
    let mut cache = ClientCache::new(cfg.clone());
    let mut model = Model {
        cfg,
        entries: Vec::new(),
        stats: CacheStats::default(),
    };
    let domain = 2 * capacity as u16 + 3;
    let mut now = SimTime(0);
    for &(kind, key, version, len_sel, dt_us) in tape {
        now += SimDuration::from_micros(dt_us);
        let hash = hash_of(key % domain);
        let version = VersionNumber::new(version, 1, 0);
        match kind {
            0..=2 => prop_assert_eq!(cache.lookup(hash, now), model.lookup(hash, now)),
            3..=6 => {
                let len = VALUE_LENS[len_sel as usize % VALUE_LENS.len()];
                let value = vec![(key as u8) ^ (version.0 >> 64) as u8; len];
                model.insert(hash, version, &value, now);
                cache.insert(hash, version, Bytes::from(value), now);
            }
            7 => prop_assert_eq!(
                cache.validate(hash, version, now),
                model.validate(hash, version, now)
            ),
            _ => prop_assert_eq!(cache.invalidate(hash), model.invalidate(hash)),
        }
        let peeked = cache.peek(hash).map(|(v, b, l)| (v, b.to_vec(), l));
        prop_assert_eq!(
            peeked,
            model.peek(hash),
            "cap {} after {:?}",
            capacity,
            kind
        );
        prop_assert_eq!(cache.len(), model.entries.len());
        prop_assert_eq!(cache.stats, model.stats);
        prop_assert!(cache.reserved_bytes() <= ClientCache::reserved_bytes_bound(capacity));
    }
    for k in 0..domain {
        let peeked = cache.peek(hash_of(k)).map(|(v, b, l)| (v, b.to_vec(), l));
        prop_assert_eq!(peeked, model.peek(hash_of(k)), "cap {} key {}", capacity, k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same `Lookup` results, contents, length and counters as the model at
    /// every step of a random op tape, at four capacities.
    #[test]
    fn cache_matches_reference_model(
        tape in proptest::collection::vec(
            (0u8..10, any::<u16>(), 1u64..6, any::<u8>(), 0u64..4_000),
            1..600,
        )
    ) {
        for capacity in [1usize, 2, 7, 128] {
            check_tape(capacity, &tape)?;
        }
    }
}

// ---- footprint ---------------------------------------------------------------

/// At capacity every operation — hit, stale validate, refresh, fresh insert
/// with eviction, invalidate and refill — runs without touching the heap:
/// storage stopped growing and value buffers cycle through the pool.
#[test]
fn steady_state_allocates_nothing() {
    let capacity = 128usize;
    let pool = Pool::new();
    let mut cache = ClientCache::with_pool(
        ClientCacheCfg {
            capacity,
            lease_ttl: SimDuration::from_millis(5),
            max_value_len: 64 << 10,
        },
        pool.clone(),
    );
    assert_eq!(cache.reserved_bytes(), 0, "a fresh cache reserves nothing");
    let values: Vec<Bytes> = [64usize, 700, 1024]
        .iter()
        .map(|&n| Bytes::from(vec![n as u8; n]))
        .collect();
    let version = VersionNumber::new(1, 1, 1);
    let churn = |cache: &mut ClientCache, round: u64| {
        let now = SimTime(round * 1_000_000);
        for i in 0..4 * capacity as u64 {
            let hash = hash_of(i as u16) ^ ((round as u128) << 32);
            cache.insert(hash, version, values[i as usize % 3].clone(), now);
            cache.lookup(hash, now);
            cache.validate(hash, version, now + SimDuration::from_millis(9));
            if i % 5 == 0 {
                cache.invalidate(hash);
            }
            cache.insert(hash, version, values[(i as usize + 1) % 3].clone(), now);
        }
    };
    // Two rounds to reach capacity and put one buffer of each class on the
    // pool's freelists; from then on, nothing.
    churn(&mut cache, 0);
    churn(&mut cache, 1);
    let reserved = cache.reserved_bytes();
    let before = allocs();
    for round in 2..10 {
        churn(&mut cache, round);
    }
    assert_eq!(allocs() - before, 0, "steady-state cache ops allocated");
    assert_eq!(cache.len(), capacity);
    assert_eq!(cache.reserved_bytes(), reserved);
    assert!(reserved <= ClientCache::reserved_bytes_bound(capacity));
}

// ---- cell level: cached values do not pin their frames ----------------------

/// Eight doorbell-batched 16-key MultiGets per client, then silence.
fn multiget_script(client: u64) -> Box<dyn Workload> {
    let ops = (0..8u64)
        .map(|round| {
            let keys = (0..16u64)
                .map(|i| Prefill::key_name("k", (client * 7 + round * 16 + i) % 96))
                .collect();
            (SimDuration::from_micros(200), ClientOp::MultiGet { keys })
        })
        .collect();
    Box::new(ScriptWorkload::new(ops))
}

#[test]
fn cached_values_do_not_pin_backend_frames() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 4,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.doorbell_batching = true;
    spec.client.strategy = LookupStrategy::Scar;
    spec.client.access_flush = None;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(50),
        max_value_len: 64 << 10,
    });
    let mut cell = Cell::build(spec, (0..6).map(multiget_script).collect());
    bench::populate_cell(&mut cell, "k", 96, &SizeDist::fixed(1024));
    cell.run_for(SimDuration::from_millis(20));

    // The workload ran, hit, and left values behind in the caches.
    assert_eq!(cell.op_errors(), 0);
    assert_eq!(cell.hits(), 6 * 8 * 16);
    let cached: usize = cell
        .clients
        .clone()
        .into_iter()
        .map(|id| {
            cell.sim
                .with_node::<ClientNode, _>(id, |c| c.cache_stats().expect("cache on").inserts)
                .expect("client exists") as usize
        })
        .sum();
    assert!(cached >= 6 * 16, "caches hold values: {cached} inserts");

    // Quiesced: the pooled buffers still out of the cell's one pool are
    // exactly the lease caches' values, one per distinct (key hash,
    // version) — no cache holds a slice of a response frame.
    let pool = cell.sim.pool();
    let mut values = Vec::new();
    for &id in &cell.clients {
        cell.sim.with_node::<ClientNode, _>(id, |c| {
            values.extend((0..96).filter_map(|i| c.cache_peek(&Prefill::key_name("k", i))));
        });
    }
    let mut copies: Vec<*const u8> = values.iter().map(|(_, v)| v.as_ptr()).collect();
    copies.sort_unstable();
    copies.dedup();
    let shared = cell.shared_values().expect("caches share values").stats();
    assert_eq!(copies.len(), shared.entries, "one buffer per cached pair");
    assert_eq!(pool.buffers_out(), shared.entries, "{:?}", pool.stats());
    drop(values);

    // Clear the caches (a client's cache goes with its node): none are out,
    // and the last buffers home are those copies, each in the smallest
    // class that fits its 1 KiB value.
    for &id in &cell.clients {
        cell.sim.revive(id, Box::<SinkNode>::default());
    }
    assert_eq!(
        pool.buffers_out(),
        0,
        "frames still referenced: {:?}",
        pool.stats()
    );
    let mut reused: Vec<*const u8> = (0..copies.len())
        .map(|_| {
            let buf = pool.get(1024);
            assert_eq!(buf.capacity(), 1024);
            buf.as_ptr()
        })
        .collect();
    reused.sort_unstable();
    assert_eq!(reused, copies);
}
