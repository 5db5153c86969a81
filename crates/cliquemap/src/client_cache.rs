//! Client-side lease cache: the small fast tier in front of the RMA path.
//!
//! Production skew puts most GETs on a handful of keys; serving those from
//! the client's own memory removes both the fabric round trip and the hot
//! shard's engine occupancy. The cache is a bounded LRU keyed by the key's
//! 128-bit hash. Each entry carries its [`VersionNumber`] and a lease
//! deadline in **sim time** (no wall clock — two seeded runs make
//! identical lease decisions); its value is the cell's to hold (below):
//!
//! * **hit** — lease unexpired: the GET completes locally, touching no
//!   backend. The hit path allocates nothing: it probes and relinks the
//!   crate's one [`RecencyList`].
//! * **stale** — entry present, lease expired: the client runs a normal
//!   quorum GET; if the read quorum's version equals the cached version the
//!   entry is *validated* (lease renewed, served from cache — on the 2×R
//!   path this skips the data read entirely).
//! * **invalidate-on-mutation** — the client's own SET/ERASE/CAS drops the
//!   entry at issue, and a committed SET write-throughs the new value, so
//!   a client can never read its own stale write from the cache.
//!
//! Leases bound cross-client staleness to the TTL, the same contract
//! memcache-style deployments run with; quorum correctness is untouched
//! because every cache fill and validation passes through the normal
//! versioned read path.
//!
//! **Memory follows use.** A client that is allowed 128 entries but touches
//! ten pays for ten: the list grows by doubling up to `capacity`, never
//! past it. Value bytes are paid for once
//! per distinct cached version per *cell*, not once per cache: §5.2 makes a
//! version name exactly one SET, so two clients caching the same
//! (key hash, version) hold the same bytes by construction, and every cache
//! of a cell takes its values from one [`SharedValues`] table that keeps
//! one refcounted buffer per resident pair (on `cell950` 94 % of fills find
//! the pair already there). A cache entry keeps no handle of its own: the
//! table's row is the one holder of the buffer, and an entry's claim on it
//! is the row's count. That one buffer is still a right-sized *copy*,
//! taken from the simulation's one pool, never a slice of
//! the inbound frame: a slice would pin the sender's whole pooled frame — a
//! 16-entry batch response for one cached member — for as long as the entry
//! lives, so the resident bound is `distinct cached versions × value
//! bytes`, and inbound frames go back to the pool the moment the op
//! completes. An entry leaves the table, and its buffer goes home to the
//! pool, with its last holder.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::mem::size_of;
use std::rc::Rc;

use bytes::{Bytes, Pool};
use simnet::{IdMap, SimDuration, SimTime};

use crate::hash::KeyHash;
use crate::lru::{Node, RecencyList};
use crate::version::VersionNumber;

/// Client-cache configuration.
#[derive(Debug, Clone)]
pub struct ClientCacheCfg {
    /// Maximum resident entries. A bound, not a reservation: storage grows
    /// with occupancy.
    pub capacity: usize,
    /// Lease TTL in sim time.
    pub lease_ttl: SimDuration,
    /// Values longer than this are not cached (a client cache holding
    /// megabyte objects evicts its whole working set for one key).
    pub max_value_len: usize,
}

impl Default for ClientCacheCfg {
    fn default() -> Self {
        ClientCacheCfg {
            capacity: 1024,
            lease_ttl: SimDuration::from_millis(10),
            max_value_len: 64 << 10,
        }
    }
}

/// Lookup result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Lease valid: serve locally at this version.
    Hit(VersionNumber),
    /// Entry present but lease expired: validate via a versioned GET.
    Stale(VersionNumber),
    /// Not cached.
    Miss,
}

/// Running counters; the client mirrors the interesting ones into metrics,
/// tests reconcile them against op counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (hits + stale + misses).
    pub lookups: u64,
    /// Lease-valid hits served locally.
    pub hits: u64,
    /// Expired-lease lookups (validation required).
    pub stale: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries installed or refreshed with a new version.
    pub inserts: u64,
    /// Successful validations (quorum version matched; lease renewed).
    pub validations: u64,
    /// Entries dropped by the owner's own mutations.
    pub invalidations: u64,
    /// Entries displaced by capacity pressure, or by a refresh whose value
    /// outgrew `max_value_len`.
    pub evictions: u64,
}

/// What a [`SharedValues`] table holds and has done (the same
/// size / hit / miss / evict surface [`CacheStats`] gives one cache).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SharedStats {
    /// Distinct (key hash, version) pairs resident now.
    pub entries: usize,
    /// Most pairs ever resident at once.
    pub entries_hwm: usize,
    /// Value bytes held (one buffer per entry).
    pub bytes: usize,
    /// Fills that found their pair resident and took a claim on it.
    pub shared: u64,
    /// Fills that copied the value in (first holder of their pair).
    pub copied: u64,
    /// Claims given back, by eviction, invalidation, a newer version or a
    /// dropped cache (`shared + copied − released` are held now; an entry
    /// leaves with its last one).
    pub released: u64,
}

#[derive(Debug, Default)]
struct ValueTable {
    /// The one buffer of each resident pair and how many cache entries
    /// hold it (≥ 1, or the entry is gone).
    map: IdMap<(KeyHash, VersionNumber), (Bytes, u32)>,
    /// `map.capacity()` when it last grew (see [`ValueTable::make_room`]).
    room: usize,
    stats: SharedStats,
}

impl ValueTable {
    /// Keep the map at most half full. Entries come and go at a steady
    /// size, and hashbrown clears the tombstones that leaves behind in
    /// place only below half of capacity — fuller, it reallocates to do it,
    /// which would put an allocation into a cache that stopped growing.
    fn make_room(&mut self) {
        let need = 2 * (self.map.len() + 1);
        if need > self.room {
            self.map.reserve(need - self.map.len());
            self.room = self.map.capacity();
        }
    }
}

/// Cell-wide table of cached values, interned by (key hash, version): the
/// caches of one cell share one buffer per distinct cached version. A
/// cheap-clone handle; the simulator is single-threaded. The table needs no
/// cap of its own — every entry has a holder, so it is bounded by the sum
/// of the caches' resident entries (≤ clients × `capacity`).
#[derive(Debug, Clone, Default)]
pub struct SharedValues(Rc<RefCell<ValueTable>>);

/// A copy of `value` in the smallest class of `pool` that holds it.
fn copy_in(pool: &Pool, value: &[u8]) -> Bytes {
    let mut buf = pool.get(value.len());
    buf.extend_from_slice(value);
    buf.freeze()
}

impl SharedValues {
    /// An empty table.
    pub fn new() -> SharedValues {
        SharedValues::default()
    }

    /// Size and traffic counters.
    pub fn stats(&self) -> SharedStats {
        self.0.borrow().stats
    }

    /// The value of (`hash`, `version`), if some cache holds the pair.
    fn get(&self, hash: KeyHash, version: VersionNumber) -> Option<Bytes> {
        let table = self.0.borrow();
        table
            .map
            .get(&(hash, version))
            .map(|(bytes, _)| bytes.clone())
    }

    /// One more cache entry holds the value of (`hash`, `version`): the
    /// resident buffer if some cache already holds the pair, else a copy
    /// of `value` in the smallest class of `pool` that holds it.
    fn acquire(&self, hash: KeyHash, version: VersionNumber, value: &[u8], pool: &Pool) {
        let table = &mut *self.0.borrow_mut();
        table.make_room();
        match table.map.entry((hash, version)) {
            Entry::Occupied(mut e) => {
                let (bytes, refs) = e.get_mut();
                // The premise (§5.2): a version names exactly one SET.
                debug_assert_eq!(&bytes[..], value, "one version, two values");
                *refs += 1;
                table.stats.shared += 1;
            }
            Entry::Vacant(e) => {
                e.insert((copy_in(pool, value), 1));
                let stats = &mut table.stats;
                stats.copied += 1;
                stats.bytes += value.len();
                stats.entries += 1;
                stats.entries_hwm = stats.entries_hwm.max(stats.entries);
            }
        }
    }

    /// One cache entry let go of (`hash`, `version`); the last release
    /// sends the buffer home to its pool.
    fn release(&self, hash: KeyHash, version: VersionNumber) {
        let table = &mut *self.0.borrow_mut();
        let Entry::Occupied(mut e) = table.map.entry((hash, version)) else {
            debug_assert!(false, "released a value nobody acquired");
            return;
        };
        let (bytes, refs) = e.get_mut();
        *refs -= 1;
        table.stats.released += 1;
        if *refs == 0 {
            table.stats.bytes -= bytes.len();
            table.stats.entries -= 1;
            e.remove();
        }
    }
}

/// What the hit/validate path reads of one entry. The value lives in the
/// cell's [`SharedValues`] row for (key hash, `version`). Packed to 8-byte
/// alignment so that, with its key and links, an entry is 48 bytes.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
struct Lease {
    version: VersionNumber,
    until: SimTime,
}

const _: () = assert!(size_of::<Node<Lease>>() <= 48);

/// Bounded LRU lease cache. All operations are O(1). Storage is grown on
/// demand up to `capacity` entries; once it stops growing — at the latest
/// at capacity — no operation allocates (value buffers cycle through the
/// pool, value-table entries through its settled map).
#[derive(Debug)]
pub struct ClientCache {
    cfg: ClientCacheCfg,
    /// Where the value copies this cache is first to take come from (and
    /// go back to, whichever cache lets go last).
    pool: Pool,
    /// The cell's value table (a lone cache has one to itself).
    shared: SharedValues,
    /// Resident entries, least recently used oldest.
    entries: RecencyList<Lease>,
    /// Running counters.
    pub stats: CacheStats,
}

impl ClientCache {
    /// An empty cache copying values into a pool of its own.
    pub fn new(cfg: ClientCacheCfg) -> ClientCache {
        ClientCache::with_pool(cfg, Pool::new())
    }

    /// An empty cache copying values into `pool` (the simulation's, so
    /// buffers recycle cell-wide).
    pub fn with_pool(cfg: ClientCacheCfg, pool: Pool) -> ClientCache {
        ClientCache::with_shared(cfg, pool, SharedValues::new())
    }

    /// An empty cache whose values live in `shared` — one buffer per
    /// (key hash, version) however many caches of the cell hold it, copied
    /// into the pool of whichever cache fills it first.
    pub fn with_shared(cfg: ClientCacheCfg, pool: Pool, shared: SharedValues) -> ClientCache {
        ClientCache {
            entries: RecencyList::bounded(cfg.capacity),
            cfg,
            pool,
            shared,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn cfg(&self) -> &ClientCacheCfg {
        &self.cfg
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of entry and index storage currently reserved (value payloads
    /// live in pools, held by the value table, and are bounded by
    /// `capacity × max_value_len` separately).
    pub fn reserved_bytes(&self) -> usize {
        self.entries.reserved_bytes()
    }

    /// Upper bound of [`ClientCache::reserved_bytes`] for `capacity`
    /// entries.
    pub fn reserved_bytes_bound(capacity: usize) -> usize {
        RecencyList::<Lease>::reserved_bytes_bound(capacity)
    }

    /// Cached value for `hash`, read from the value table's row (test
    /// visibility; does not touch LRU order or stats).
    pub fn peek(&self, hash: KeyHash) -> Option<(VersionNumber, Bytes, SimTime)> {
        let &Lease { version, until } = self.entries.get(hash)?;
        let value = self
            .shared
            .get(hash, version)
            .expect("a resident entry's row");
        Some((version, value, until))
    }

    // ---- operations ------------------------------------------------------

    /// Look up `hash` at sim time `now`, bumping recency on hit/stale.
    pub fn lookup(&mut self, hash: KeyHash, now: SimTime) -> Lookup {
        self.stats.lookups += 1;
        let Some(&mut Lease { version, until }) = self.entries.touch(hash) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        if now <= until {
            self.stats.hits += 1;
            Lookup::Hit(version)
        } else {
            self.stats.stale += 1;
            Lookup::Stale(version)
        }
    }

    /// Install (or refresh) `hash` at `version`, leasing until
    /// `now + lease_ttl`; the bytes are copied, `value` itself is released.
    /// A refresh never regresses the version: VersionNumbers totally order
    /// mutations (backends resolve arrival races the same way), so a slow
    /// GET that read the pre-mutation value must not clobber the owner's
    /// newer write-through — it only renews the lease of the newer entry.
    /// Oversized values are not cached, and one that supersedes a cached
    /// version drops that entry: keeping it would answer `Stale` with a
    /// version no validation can match again until LRU reached it.
    pub fn insert(&mut self, hash: KeyHash, version: VersionNumber, value: Bytes, now: SimTime) {
        let cached = self.entries.get(hash).map(|l| l.version);
        if value.len() > self.cfg.max_value_len {
            if let Some(cached) = cached.filter(|&cached| version >= cached) {
                self.entries.remove(hash);
                self.shared.release(hash, cached);
                self.stats.evictions += 1;
            }
            return;
        }
        let lease = Lease {
            version,
            until: now + self.cfg.lease_ttl,
        };
        match cached {
            Some(cached) if version < cached => return,
            Some(cached) => {
                // The version it already holds (a slow GET, a retried
                // write-through) is a lease renewal: its row holds the bytes.
                // Compared, not assumed — no SET stream gives one version
                // two values, but the reference-model test does.
                if version != cached || self.shared.get(hash, cached).as_ref() != Some(&value) {
                    // Released before the new value is taken, so a lone
                    // holder's same-class refresh gets its buffer straight
                    // back.
                    self.shared.release(hash, cached);
                    self.shared.acquire(hash, version, &value, &self.pool);
                }
                *self.entries.touch(hash).expect("a resident entry") = lease;
            }
            None => {
                if let Some((old, evicted)) = self.entries.push(hash, lease) {
                    self.shared.release(old, evicted.version);
                    self.stats.evictions += 1;
                }
                self.shared.acquire(hash, version, &value, &self.pool);
            }
        }
        self.stats.inserts += 1;
    }

    /// Renew the lease iff the cached version for `hash` equals
    /// `version` (quorum agreement observed). Returns whether it matched.
    pub fn validate(&mut self, hash: KeyHash, version: VersionNumber, now: SimTime) -> bool {
        if self.entries.get(hash).map(|l| l.version) != Some(version) {
            return false;
        }
        self.entries.touch(hash).expect("a resident entry").until = now + self.cfg.lease_ttl;
        self.stats.validations += 1;
        true
    }

    /// Drop `hash` (the owner mutated the key). Returns whether an entry
    /// was dropped.
    pub fn invalidate(&mut self, hash: KeyHash) -> bool {
        let Some(lease) = self.entries.remove(hash) else {
            return false;
        };
        self.shared.release(hash, lease.version);
        self.stats.invalidations += 1;
        true
    }
}

impl Drop for ClientCache {
    /// A cache that goes away (its client crashed, or the run ended) gives
    /// up every value it holds; buffers it held last go home to their pools.
    fn drop(&mut self) {
        for (hash, lease) in self.entries.iter() {
            self.shared.release(hash, lease.version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::MIN_SLOTS;

    fn v(n: u64) -> VersionNumber {
        VersionNumber::new(n, 1, n as u32)
    }

    fn cache(cap: usize, ttl_ms: u64) -> ClientCache {
        ClientCache::new(ClientCacheCfg {
            capacity: cap,
            lease_ttl: SimDuration::from_millis(ttl_ms),
            max_value_len: 1 << 20,
        })
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime(SimDuration::from_millis(ms).nanos())
    }

    #[test]
    fn hit_within_lease_stale_after() {
        let mut c = cache(4, 10);
        c.insert(1, v(5), Bytes::from_static(b"x"), at_ms(0));
        assert_eq!(c.lookup(1, at_ms(5)), Lookup::Hit(v(5)));
        assert_eq!(c.lookup(1, at_ms(15)), Lookup::Stale(v(5)));
        assert_eq!(c.lookup(2, at_ms(5)), Lookup::Miss);
    }

    #[test]
    fn validate_renews_lease_only_on_version_match() {
        let mut c = cache(4, 10);
        c.insert(1, v(5), Bytes::from_static(b"x"), at_ms(0));
        assert!(!c.validate(1, v(6), at_ms(15)), "newer version: no renew");
        assert!(c.validate(1, v(5), at_ms(15)));
        assert_eq!(c.lookup(1, at_ms(20)), Lookup::Hit(v(5)));
        assert!(!c.validate(9, v(1), at_ms(0)), "absent key");
        assert_eq!(c.stats.validations, 1);
    }

    #[test]
    fn invalidate_drops_and_reuses_slot() {
        let mut c = cache(2, 10);
        c.insert(1, v(1), Bytes::from_static(b"a"), at_ms(0));
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1), "second invalidate is a no-op");
        assert_eq!(c.lookup(1, at_ms(1)), Lookup::Miss);
        c.insert(2, v(2), Bytes::from_static(b"b"), at_ms(1));
        c.insert(3, v(3), Bytes::from_static(b"c"), at_ms(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats.evictions, 0, "freed slot reused, no eviction");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(2, 100);
        c.insert(1, v(1), Bytes::from_static(b"a"), at_ms(0));
        c.insert(2, v(2), Bytes::from_static(b"b"), at_ms(1));
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.lookup(1, at_ms(2)), Lookup::Hit(v(1)));
        c.insert(3, v(3), Bytes::from_static(b"c"), at_ms(3));
        assert_eq!(c.lookup(2, at_ms(4)), Lookup::Miss, "LRU displaced");
        assert_eq!(c.lookup(1, at_ms(4)), Lookup::Hit(v(1)));
        assert_eq!(c.lookup(3, at_ms(4)), Lookup::Hit(v(3)));
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let mut c = ClientCache::new(ClientCacheCfg {
            capacity: 4,
            lease_ttl: SimDuration::from_millis(10),
            max_value_len: 4,
        });
        c.insert(1, v(1), Bytes::from(vec![0u8; 64]), at_ms(0));
        assert_eq!(c.lookup(1, at_ms(1)), Lookup::Miss);
    }

    #[test]
    fn oversized_refresh_drops_the_entry() {
        // A key whose value grew past the limit must not keep answering
        // `Stale` with a version no quorum will confirm again.
        let mut c = ClientCache::new(ClientCacheCfg {
            capacity: 4,
            lease_ttl: SimDuration::from_millis(10),
            max_value_len: 4,
        });
        c.insert(1, v(5), Bytes::from_static(b"tiny"), at_ms(0));
        c.insert(2, v(5), Bytes::from_static(b"stay"), at_ms(0));
        c.insert(1, v(6), Bytes::from(vec![0u8; 64]), at_ms(1));
        assert_eq!(c.peek(1), None, "the outgrown entry is gone");
        assert_eq!(c.lookup(1, at_ms(20)), Lookup::Miss, "not Stale(v5)");
        assert_eq!(c.len(), 1);
        assert_eq!((c.stats.evictions, c.stats.invalidations), (1, 0));
        // The freed slot is reused before the cache grows or evicts.
        c.insert(3, v(1), Bytes::from_static(b"new"), at_ms(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats.evictions, 1);
        // A slow GET carrying an *older* oversized value must not drop the
        // newer entry (same gate as a normal refresh).
        c.insert(2, v(4), Bytes::from(vec![0u8; 64]), at_ms(3));
        assert_eq!(c.peek(2).map(|(ver, ..)| ver), Some(v(5)));
    }

    #[test]
    fn storage_follows_occupancy_up_to_the_capacity_bound() {
        for cap in [1usize, 2, 7, 128] {
            let pool = Pool::new();
            let mut c = ClientCache::with_pool(
                ClientCacheCfg {
                    capacity: cap,
                    lease_ttl: SimDuration::from_millis(10),
                    max_value_len: 1 << 20,
                },
                pool.clone(),
            );
            assert_eq!(c.reserved_bytes(), 0, "a fresh cache reserves nothing");
            let bound = ClientCache::reserved_bytes_bound(cap);
            let value = Bytes::from(vec![7u8; 300]);
            for i in 0..cap as u128 {
                c.insert(i, v(1), value.clone(), at_ms(0));
                let (len, reserved) = (c.len(), c.reserved_bytes());
                assert_eq!(len, i as usize + 1);
                assert!(reserved <= bound, "cap {cap}: {reserved} > {bound}");
                // Doubling: never more than twice what `len` entries need
                // (four slots are the floor).
                let need = ClientCache::reserved_bytes_bound(len.max(MIN_SLOTS).min(cap));
                assert!(reserved <= 2 * need, "cap {cap} len {len}: {reserved}");
            }
            // Dropping the cache hands every value copy back to the pool.
            let fresh = pool.stats().acquires - pool.stats().reuses;
            drop(c);
            assert_eq!(pool.idle_buffers() as u64, fresh, "every copy returned");
        }
    }

    #[test]
    fn stats_reconcile() {
        let mut c = cache(8, 10);
        for i in 0..5u128 {
            c.insert(i, v(1), Bytes::from_static(b"x"), at_ms(0));
        }
        let mut n = 0;
        for i in 0..10u128 {
            c.lookup(i, at_ms(5));
            n += 1;
        }
        for i in 0..5u128 {
            c.lookup(i, at_ms(50));
            n += 1;
        }
        let s = c.stats;
        assert_eq!(s.lookups, n);
        assert_eq!(s.hits + s.stale + s.misses, s.lookups);
        assert_eq!((s.hits, s.stale, s.misses), (5, 5, 5));
    }

    #[test]
    fn insert_never_regresses_version() {
        // A slow quorum GET that read the pre-mutation value completes
        // after the owner's write-through: its insert must lose.
        let mut c = cache(2, 10);
        c.insert(1, v(9), Bytes::from_static(b"new"), at_ms(0));
        c.insert(1, v(3), Bytes::from_static(b"old"), at_ms(1));
        let (ver, val, _) = c.peek(1).unwrap();
        assert_eq!(ver, v(9));
        assert_eq!(&val[..], b"new");
        // Equal version refreshes the lease (validation by value).
        c.insert(1, v(9), Bytes::from_static(b"new"), at_ms(5));
        assert_eq!(c.lookup(1, at_ms(14)), Lookup::Hit(v(9)));
    }

    #[test]
    fn equal_version_refresh_touches_neither_table_nor_pool() {
        let (pool, shared) = (Pool::new(), SharedValues::new());
        let cfg = cache(2, 10).cfg.clone();
        let mut c = ClientCache::with_shared(cfg, pool.clone(), shared.clone());
        c.insert(1, v(9), Bytes::from_static(b"new"), at_ms(0));
        let (acquires, table) = (pool.stats().acquires, shared.stats());
        c.insert(1, v(9), Bytes::from_static(b"new"), at_ms(5));
        assert_eq!(c.lookup(1, at_ms(14)), Lookup::Hit(v(9)), "lease renewed");
        assert_eq!(c.stats.inserts, 2);
        assert_eq!(pool.stats().acquires, acquires, "no second copy");
        assert_eq!(shared.stats(), table, "no release, no re-acquire");
    }

    #[test]
    fn a_lone_cache_refreshed_at_its_version_with_new_bytes_swaps_them() {
        // No SET stream gives one version two values, but a lone cache is
        // the only holder of its row, so it takes the bytes it is given.
        let (pool, shared) = (Pool::new(), SharedValues::new());
        let cfg = cache(2, 10).cfg.clone();
        let mut c = ClientCache::with_shared(cfg, pool, shared.clone());
        c.insert(1, v(9), Bytes::from_static(b"old"), at_ms(0));
        c.insert(1, v(9), Bytes::from_static(b"new"), at_ms(5));
        let (ver, val, lease) = c.peek(1).unwrap();
        assert_eq!((ver, &val[..], lease), (v(9), &b"new"[..], at_ms(15)));
        let stats = shared.stats();
        assert_eq!((stats.entries, stats.copied, stats.released), (1, 2, 1));
    }

    #[test]
    fn caches_of_one_table_share_one_buffer_per_version() {
        let (pool_a, pool_b, shared) = (Pool::new(), Pool::new(), SharedValues::new());
        let cfg = cache(4, 10).cfg.clone();
        let mut a = ClientCache::with_shared(cfg.clone(), pool_a.clone(), shared.clone());
        let mut b = ClientCache::with_shared(cfg, pool_b.clone(), shared.clone());
        let value = Bytes::from(vec![3u8; 700]);
        a.insert(1, v(1), value.clone(), at_ms(0));
        b.insert(1, v(1), value.clone(), at_ms(0));
        let stats = shared.stats();
        assert_eq!((stats.copied, stats.shared), (1, 1));
        assert_eq!((stats.entries, stats.bytes), (1, 700));
        assert_eq!(
            pool_b.stats().acquires,
            0,
            "the second filler copies nothing"
        );
        assert_eq!(b.peek(1).unwrap().1, value);
        // A newer version in one cache leaves the other's entry alone.
        a.insert(1, v(2), Bytes::from(vec![4u8; 700]), at_ms(1));
        assert_eq!(shared.stats().entries, 2);
        assert_eq!(pool_a.idle_buffers(), 0, "b still holds a's first buffer");
        // The last holder's release sends the buffer home — to a's pool.
        assert!(b.invalidate(1));
        assert_eq!((shared.stats().entries, shared.stats().released), (1, 2));
        assert_eq!(pool_a.idle_buffers(), 1);
        drop(a);
        assert_eq!(shared.stats().entries, 0, "a dropped cache holds nothing");
        assert_eq!((shared.stats().bytes, pool_a.idle_buffers()), (0, 2));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = cache(2, 10);
        c.insert(1, v(1), Bytes::from_static(b"a"), at_ms(0));
        c.insert(1, v(2), Bytes::from_static(b"b"), at_ms(1));
        assert_eq!(c.len(), 1);
        let (ver, val, _) = c.peek(1).unwrap();
        assert_eq!(ver, v(2));
        assert_eq!(&val[..], b"b");
    }
}
