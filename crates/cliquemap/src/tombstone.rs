//! The tombstone cache for ERASEd keys (§5.2).
//!
//! "VersionNumbers for ERASEd elements cannot reside in the index region,
//! since such a design untenably spends DRAM capacity for erased elements.
//! ... they are stored in a per-backend sideband data structure — a fully
//! associative, fixed-size tombstone cache on the backend's heap. Further,
//! a summary VersionNumber tracks the largest VersionNumber ever evicted
//! from the tombstone cache."
//!
//! A mutation consults the tombstone cache, its summary, and the index when
//! reasoning about monotonicity: keys evicted from the cache are bounded
//! above by the summary — "sometimes coarse-grained but never inconsistent".

use crate::hash::KeyHash;
use crate::lru::RecencyList;
use crate::version::VersionNumber;

/// Fixed-size FIFO tombstone cache plus summary version: a bounded
/// [`RecencyList`] that is never touched, so its oldest tombstone is the
/// first in, and the one a full cache folds into the summary.
#[derive(Debug)]
pub struct TombstoneCache {
    by_key: RecencyList<VersionNumber>,
    summary: VersionNumber,
}

impl TombstoneCache {
    /// A cache holding at most `capacity` tombstones.
    pub fn new(capacity: usize) -> TombstoneCache {
        TombstoneCache {
            by_key: RecencyList::bounded(capacity),
            summary: VersionNumber::ZERO,
        }
    }

    /// Record an ERASE of `key` at `version`.
    pub fn insert(&mut self, key: KeyHash, version: VersionNumber) {
        if let Some(existing) = self.by_key.get_mut(key) {
            // Keep the highest version for the key.
            *existing = version.max(*existing);
        } else if let Some((_, evicted)) = self.by_key.push(key, version) {
            // The summary bounds every evicted tombstone from above.
            self.summary = self.summary.max(evicted);
        }
    }

    /// The erased-version floor for `key`: the exact tombstone if cached,
    /// otherwise the summary (a safe upper bound on anything forgotten).
    ///
    /// A proposed mutation must exceed this (and the index's version) to
    /// proceed — late-arriving SETs can never resurrect an erased value.
    pub fn floor(&self, key: KeyHash) -> VersionNumber {
        self.get(key).map_or(self.summary, |v| v.max(self.summary))
    }

    /// Exact tombstone lookup (repair logic wants to distinguish "known
    /// erased" from "unknown").
    pub fn get(&self, key: KeyHash) -> Option<VersionNumber> {
        self.by_key.get(key).copied()
    }

    /// Every exact tombstone, oldest first (cohort scans exchange them;
    /// what the summary covers is not exchanged).
    pub fn iter(&self) -> impl Iterator<Item = (KeyHash, VersionNumber)> + '_ {
        self.by_key.iter().map(|(k, &v)| (k, v))
    }

    /// Drop a tombstone (the key was re-installed at a higher version).
    pub fn remove(&mut self, key: KeyHash) {
        self.by_key.remove(key);
    }

    /// Current summary version.
    pub fn summary(&self) -> VersionNumber {
        self.summary
    }

    /// Number of live tombstones.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> VersionNumber {
        VersionNumber::new(n, 0, 0)
    }

    #[test]
    fn insert_and_floor() {
        let mut t = TombstoneCache::new(10);
        t.insert(1, v(100));
        assert_eq!(t.floor(1), v(100));
        assert_eq!(t.floor(2), VersionNumber::ZERO);
        assert_eq!(t.get(1), Some(v(100)));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn keeps_highest_version_per_key() {
        let mut t = TombstoneCache::new(10);
        t.insert(1, v(100));
        t.insert(1, v(50));
        assert_eq!(t.floor(1), v(100));
        t.insert(1, v(200));
        assert_eq!(t.floor(1), v(200));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn eviction_raises_summary() {
        let mut t = TombstoneCache::new(2);
        t.insert(1, v(10));
        t.insert(2, v(20));
        t.insert(3, v(30)); // evicts key 1
        assert_eq!(t.len(), 2);
        assert_eq!(t.summary(), v(10));
        // Key 1's floor is now the summary — coarse but never lower than
        // its true erased version.
        assert!(t.floor(1) >= v(10));
        // Unrelated keys inherit the summary too (coarse-grained).
        assert_eq!(t.floor(99), v(10));
    }

    #[test]
    fn floor_never_decreases_after_eviction() {
        let mut t = TombstoneCache::new(1);
        t.insert(1, v(100));
        t.insert(2, v(5)); // evicts 1, summary = 100
        assert_eq!(t.summary(), v(100));
        // Key 2's exact tombstone (5) is below the summary; the floor must
        // use the max so monotonicity reasoning is never weakened.
        assert_eq!(t.floor(2), v(100));
    }

    #[test]
    fn remove_forgets_exact_entry() {
        let mut t = TombstoneCache::new(4);
        t.insert(7, v(70));
        t.remove(7);
        assert_eq!(t.get(7), None);
        assert_eq!(t.floor(7), VersionNumber::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn lazy_order_cleanup_survives_remove() {
        let mut t = TombstoneCache::new(2);
        t.insert(1, v(1));
        t.insert(2, v(2));
        t.remove(1);
        // Cache has room now; inserting two more should evict key 2 only
        // after key 1's stale order entry is skipped.
        t.insert(3, v(3));
        t.insert(4, v(4));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), Some(v(3)));
        assert_eq!(t.get(4), Some(v(4)));
        assert_eq!(t.summary(), v(2));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut t = TombstoneCache::new(0);
        t.insert(1, v(1));
        assert_eq!(t.len(), 1);
        t.insert(2, v(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.summary(), v(1));
    }
}
