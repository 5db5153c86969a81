//! Caches that share one value table against caches that each keep their
//! own: interning cached values by (key hash, version) must change nothing
//! a cache's owner can see, must account for every handle it gives out, and
//! must leak nothing.
//!
//! 2–6 [`ClientCache`]s of capacity 1–8 over one [`SharedValues`], and the
//! same number over private tables as the oracle, run one random tape of
//! inserts (12 keys; versions current, late by 1–3 or tied with what another
//! cache holds; lengths from empty to past `max_value_len`), lookups,
//! validations, invalidations and whole-cache drops. Every step must give
//! identical results, bytes and [`CacheStats`] on both sides, and on the
//! shared side the table must hold exactly one entry per distinct resident
//! (hash, version) and exactly one handle per resident cache entry. After
//! the last cache is dropped the table is empty and every buffer is back in
//! the pool it came from.
//!
//! Mutations this fails on (both tried): skipping `release_value` in
//! `insert`'s newer-version arm leaves a handle nobody holds (the handle
//! count exceeds the resident entries at the first superseded version);
//! skipping it in `Drop for ClientCache` leaves a dropped cache's entries in
//! the table (same check, at the first whole-cache drop).

use std::collections::BTreeMap;

use bytes::{Bytes, Pool};
use cliquemap::client_cache::{ClientCache, ClientCacheCfg, SharedValues};
use cliquemap::hash::KeyHash;
use cliquemap::version::VersionNumber;
use proptest::prelude::*;
use proptest::TestCaseError;
use simnet::{SimDuration, SimTime};

const KEYS: u8 = 12;
const MAX_VALUE_LEN: usize = 3 << 10;
const VALUE_LENS: [usize; 6] = [0, 17, 300, 1024, MAX_VALUE_LEN, MAX_VALUE_LEN + 1];

fn hash_of(key: u8) -> KeyHash {
    (key as u128 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835)
}

fn version_of(n: u64) -> VersionNumber {
    VersionNumber::new(n, 1, n as u32)
}

/// The one value (key, version `n`) ever names, as §5.2 promises of a real
/// SET stream: length and fill both follow from the pair.
fn value_of(key: u8, n: u64) -> Bytes {
    let len = VALUE_LENS[(key as usize * 5 + n as usize * 7) % VALUE_LENS.len()];
    Bytes::from(vec![key ^ (n as u8).wrapping_mul(31); len])
}

/// One side of the comparison: a cache and the pool its copies come from.
struct Side {
    caches: Vec<ClientCache>,
    pools: Vec<Pool>,
}

impl Side {
    fn build(capacities: &[usize], shared: Option<&SharedValues>) -> Side {
        let pools: Vec<Pool> = capacities.iter().map(|_| Pool::new()).collect();
        let caches = capacities
            .iter()
            .zip(&pools)
            .map(|(&capacity, pool)| Side::cache(capacity, pool, shared))
            .collect();
        Side { caches, pools }
    }

    fn cache(capacity: usize, pool: &Pool, shared: Option<&SharedValues>) -> ClientCache {
        let cfg = ClientCacheCfg {
            capacity,
            lease_ttl: SimDuration::from_millis(5),
            max_value_len: MAX_VALUE_LEN,
        };
        match shared {
            Some(shared) => ClientCache::with_shared(cfg, pool.clone(), shared.clone()),
            None => ClientCache::with_pool(cfg, pool.clone()),
        }
    }
}

/// (kind, cache, key, lateness, microseconds since the last step).
type Step = (u8, u8, u8, u8, u64);

fn check_tape(capacities: &[usize], tape: &[Step]) -> Result<(), TestCaseError> {
    let table = SharedValues::new();
    let mut shared = Side::build(capacities, Some(&table));
    let mut oracle = Side::build(capacities, None);
    // The newest version any SET has nominated, per key.
    let mut newest = [1u64; KEYS as usize];
    let mut now = SimTime(0);
    for &(kind, cache, key, late, dt_us) in tape {
        now += SimDuration::from_micros(dt_us);
        let c = cache as usize % capacities.len();
        let key = key % KEYS;
        let hash = hash_of(key);
        let (s, o) = (&mut shared.caches[c], &mut oracle.caches[c]);
        match kind {
            0..=3 => prop_assert_eq!(s.lookup(hash, now), o.lookup(hash, now)),
            4..=13 => {
                // late 7: a new SET; 0 or 4: the newest (a tie with whoever
                // cached it first); else a slow GET's version, 1–3 behind.
                if late == 7 {
                    newest[key as usize] += 1;
                }
                let n = newest[key as usize].saturating_sub(late as u64 % 4).max(1);
                s.insert(hash, version_of(n), value_of(key, n), now);
                o.insert(hash, version_of(n), value_of(key, n), now);
            }
            14..=15 => {
                let version = version_of(newest[key as usize]);
                prop_assert_eq!(
                    s.validate(hash, version, now),
                    o.validate(hash, version, now)
                );
            }
            16..=18 => prop_assert_eq!(s.invalidate(hash), o.invalidate(hash)),
            _ => {
                // The client crashed and came back: same pool, empty cache.
                *s = Side::cache(capacities[c], &shared.pools[c], Some(&table));
                *o = Side::cache(capacities[c], &oracle.pools[c], None);
            }
        }

        // Equivalence: what the owner of any cache can see.
        let mut resident = 0;
        let mut distinct: BTreeMap<(KeyHash, VersionNumber), usize> = BTreeMap::new();
        for (s, o) in shared.caches.iter().zip(&oracle.caches) {
            prop_assert_eq!(s.stats, o.stats);
            prop_assert_eq!(s.len(), o.len());
            resident += s.len();
            for k in 0..KEYS {
                let (seen, expect) = (s.peek(hash_of(k)), o.peek(hash_of(k)));
                prop_assert_eq!(&seen, &expect, "key {}", k);
                if let Some((version, bytes, _)) = seen {
                    distinct.insert((hash_of(k), version), bytes.len());
                }
            }
        }
        // Conservation: one handle per resident cache entry, one table
        // entry (and one buffer's worth of bytes) per distinct pair.
        let stats = table.stats();
        prop_assert_eq!(
            stats.shared + stats.copied - stats.released,
            resident as u64
        );
        prop_assert_eq!(stats.entries, distinct.len());
        prop_assert_eq!(stats.bytes, distinct.values().sum::<usize>());
        prop_assert!(stats.entries <= stats.entries_hwm);
    }

    // No leak: the table empties with its last holder, and every buffer any
    // pool handed out is back on that pool's freelists.
    drop(shared.caches);
    drop(oracle.caches);
    let stats = table.stats();
    prop_assert_eq!((stats.entries, stats.bytes), (0, 0));
    prop_assert_eq!(stats.shared + stats.copied, stats.released);
    for pool in shared.pools.iter().chain(&oracle.pools) {
        let traffic = pool.stats();
        prop_assert_eq!(
            pool.idle_buffers() as u64,
            traffic.acquires - traffic.reuses
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_table_changes_nothing_and_leaks_nothing(
        capacities in proptest::collection::vec(1usize..9, 2..7),
        tape in proptest::collection::vec(
            (0u8..20, any::<u8>(), any::<u8>(), 0u8..8, 0u64..4_000),
            1..400,
        ),
    ) {
        check_tape(&capacities, &tape)?;
    }
}
