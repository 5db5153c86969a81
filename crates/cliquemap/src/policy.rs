//! Cache eviction (§4.2).
//!
//! "Because CliqueMap uses RMAs for GETs, backends have no direct record of
//! access information ... Instead, clients inform backends of data touches
//! via RPC, as a batched background process ... Backends ingest access
//! records en masse to implement configurable eviction policies — LRU,
//! ARC, and others."
//!
//! Every backend store, and the MemcacheG baseline, evicts by [`LruPolicy`].
//! The policy is *advisory*: it ranks victims; the store decides when to
//! evict (capacity vs. associativity conflicts) and then reports removals
//! back. `pick_among` serves associativity conflicts, where the victim must
//! come from one specific bucket. The alternatives ablation A5 compares LRU
//! against (FIFO, random, ARC) live with that ablation in `crates/bench`.
//!
//! The module also holds the hot-key tracker behind load-aware replication.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use simnet::IdMap;

use crate::hash::KeyHash;

/// "No node": list ends and the empty free list.
const NIL: u32 = u32::MAX;

/// One tracked key, linked into the recency list (or the free list, through
/// `next` alone).
#[derive(Debug, Clone, Copy)]
struct LruNode {
    key: KeyHash,
    /// Value of the policy's clock at the key's last bump; strictly
    /// increasing from list head to tail.
    stamp: u64,
    prev: u32,
    next: u32,
}

/// Least-recently-used, with recency fed by batched access records.
///
/// An intrusive doubly-linked list threaded through one `Vec` of nodes,
/// least recent at the head, plus a key → node index: every operation is
/// O(1) and none allocates once the node vector has grown to the live-key
/// high-water mark.
#[derive(Debug)]
pub struct LruPolicy {
    stamp: u64,
    nodes: Vec<LruNode>,
    index: IdMap<KeyHash, u32>,
    head: u32,
    tail: u32,
    free: u32,
}

impl Default for LruPolicy {
    fn default() -> LruPolicy {
        LruPolicy {
            stamp: 0,
            nodes: Vec::new(),
            index: IdMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }
}

impl LruPolicy {
    /// Empty LRU.
    pub fn new() -> LruPolicy {
        LruPolicy::default()
    }

    fn unlink(&mut self, at: u32) {
        let LruNode { prev, next, .. } = self.nodes[at as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Link `at` in as the most recent key, stamped with the next tick.
    fn push_tail(&mut self, at: u32) {
        self.stamp += 1;
        let old_tail = std::mem::replace(&mut self.tail, at);
        let node = &mut self.nodes[at as usize];
        node.stamp = self.stamp;
        node.prev = old_tail;
        node.next = NIL;
        match old_tail {
            NIL => self.head = at,
            t => self.nodes[t as usize].next = at,
        }
    }

    /// A key was installed (or re-installed: it becomes the most recent).
    pub fn on_insert(&mut self, key: KeyHash) {
        let at = match self.index.entry(key) {
            Entry::Occupied(e) => {
                let at = *e.get();
                self.unlink(at);
                at
            }
            Entry::Vacant(e) => {
                let node = LruNode {
                    key,
                    stamp: 0,
                    prev: NIL,
                    next: NIL,
                };
                let at = match self.free {
                    NIL => {
                        self.nodes.push(node);
                        (self.nodes.len() - 1) as u32
                    }
                    at => {
                        self.free = self.nodes[at as usize].next;
                        self.nodes[at as usize] = node;
                        at
                    }
                };
                *e.insert(at)
            }
        };
        self.push_tail(at);
    }

    /// A key was touched (batched client access records, or a mutation).
    pub fn on_touch(&mut self, key: KeyHash) {
        if let Some(&at) = self.index.get(&key) {
            self.unlink(at);
            self.push_tail(at);
        }
    }

    /// A key was removed (evicted, erased, or migrated away).
    pub fn on_remove(&mut self, key: KeyHash) {
        if let Some(at) = self.index.remove(&key) {
            self.unlink(at);
            self.nodes[at as usize].next = self.free;
            self.free = at;
        }
    }

    /// Least recent key: the victim of a capacity conflict. Does not remove.
    pub fn victim(&self) -> Option<KeyHash> {
        self.nodes.get(self.head as usize).map(|n| n.key)
    }

    /// Least recent of `candidates` (associativity conflict: the victim must
    /// live in the conflicted bucket), or the first when none is tracked.
    /// Does not remove.
    pub fn pick_among(&self, candidates: &[KeyHash]) -> Option<KeyHash> {
        candidates
            .iter()
            .filter_map(|k| self.index.get(k))
            .map(|&at| &self.nodes[at as usize])
            .min_by_key(|n| n.stamp)
            .map(|n| n.key)
            .or_else(|| candidates.first().copied())
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

// ---- load-aware hot-key replication ------------------------------------

/// Configuration for load-aware per-key replication: keys whose observed
/// share of recent touches crosses `promote_share_bp` while the serving
/// side is hot get promoted from the base R=3 replica set to R=5 (two
/// extra cohort members), and demoted again after `cooldown_epochs` whole
/// epochs below `demote_share_bp`. Quorum math is unchanged: reads and
/// writes still quorum against the base three replicas; the extra copies
/// only absorb load.
///
/// Shares are integer basis points of the tracker's per-epoch touch total,
/// so promotion decisions replay bit-identically from the same op stream.
#[derive(Debug, Clone)]
pub struct HotReplCfg {
    /// Epoch over which touch shares are accumulated.
    pub epoch: simnet::SimDuration,
    /// Promote when a key's share of epoch touches ≥ this (basis points).
    pub promote_share_bp: u32,
    /// Demote after `cooldown_epochs` epochs with share < this (bp).
    pub demote_share_bp: u32,
    /// Whole epochs below `demote_share_bp` before a hot key demotes.
    pub cooldown_epochs: u32,
    /// Minimum touches in an epoch before any promotion is considered
    /// (avoids promoting off a handful of early ops).
    pub min_epoch_touches: u64,
    /// Extra replicas a promoted key gains beyond the base set (the R=3 →
    /// R=5 step of the tentpole is 2).
    pub extra_copies: u32,
    /// Backend-side gate: only promote while engine occupancy over the
    /// last epoch is at least this fraction (ignored by client trackers,
    /// which cannot observe the serving side; they use 0.0).
    pub occupancy_gate: f64,
    /// Most keys allowed hot at once (promotion is for the head of the
    /// distribution; a runaway threshold must not replicate the corpus).
    pub max_hot: usize,
}

impl Default for HotReplCfg {
    fn default() -> Self {
        HotReplCfg {
            epoch: simnet::SimDuration::from_millis(20),
            promote_share_bp: 200, // 2% of epoch touches
            demote_share_bp: 100,  // 1%
            cooldown_epochs: 2,
            min_epoch_touches: 64,
            extra_copies: 2,
            occupancy_gate: 0.0,
            max_hot: 32,
        }
    }
}

/// What a [`HotKeyTracker`] epoch roll decided.
#[derive(Debug, Default)]
pub struct EpochDecisions {
    /// Keys newly promoted this epoch.
    pub promoted: Vec<KeyHash>,
    /// Keys demoted this epoch (cool-down expired).
    pub demoted: Vec<KeyHash>,
}

#[derive(Debug)]
struct HotState {
    /// Consecutive whole epochs the key's share stayed below the demote
    /// threshold.
    cold_epochs: u32,
}

/// Deterministic hot-key detector: per-epoch touch counts → promote /
/// demote decisions. Both the client (from its own op stream) and the
/// backend (from ingested access records + mutations, gated on engine
/// occupancy) run one; neither draws randomness, so the hot set replays
/// exactly from the same inputs.
#[derive(Debug)]
pub struct HotKeyTracker {
    cfg: HotReplCfg,
    counts: HashMap<KeyHash, u64>,
    total: u64,
    epoch_end: simnet::SimTime,
    hot: HashMap<KeyHash, HotState>,
    /// Promotions/demotions across the tracker's lifetime (test/metric
    /// visibility).
    pub promotions: u64,
    /// Lifetime demotion count.
    pub demotions: u64,
}

impl HotKeyTracker {
    /// Build a tracker; the first epoch ends `cfg.epoch` after time zero.
    pub fn new(cfg: HotReplCfg) -> HotKeyTracker {
        let epoch_end = simnet::SimTime(cfg.epoch.nanos());
        HotKeyTracker {
            cfg,
            counts: HashMap::new(),
            total: 0,
            epoch_end,
            hot: HashMap::new(),
            promotions: 0,
            demotions: 0,
        }
    }

    /// The tracker's configuration.
    pub fn cfg(&self) -> &HotReplCfg {
        &self.cfg
    }

    /// Whether `key` is currently promoted.
    #[inline]
    pub fn is_hot(&self, key: KeyHash) -> bool {
        !self.hot.is_empty() && self.hot.contains_key(&key)
    }

    /// Number of currently promoted keys.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// Count one touch of `key` without rolling the epoch. Backends use
    /// this feed (access records, mutations) and roll exclusively from
    /// their epoch timer, where engine occupancy is actually measurable.
    #[inline]
    pub fn record(&mut self, key: KeyHash) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// Record one touch of `key` at `now`. Rolls the epoch first if `now`
    /// has passed the epoch boundary; `occupancy` is the caller's engine
    /// occupancy over the elapsed epoch (clients pass 1.0 — their gate is
    /// configured as 0.0). Returns the roll's decisions when one happened.
    pub fn touch(
        &mut self,
        key: KeyHash,
        now: simnet::SimTime,
        occupancy: f64,
    ) -> Option<EpochDecisions> {
        let rolled = if now >= self.epoch_end {
            Some(self.roll_epoch(now, occupancy))
        } else {
            None
        };
        *self.counts.entry(key).or_insert(0) += 1;
        self.total += 1;
        rolled
    }

    /// Close the current epoch at `now`: compute shares, promote/demote,
    /// reset counters, and advance the epoch boundary past `now`.
    pub fn roll_epoch(&mut self, now: simnet::SimTime, occupancy: f64) -> EpochDecisions {
        let mut out = EpochDecisions::default();
        let total = self.total;
        let may_promote =
            total >= self.cfg.min_epoch_touches && occupancy >= self.cfg.occupancy_gate;
        // Promotions: hottest first, deterministic order (share, then key).
        if may_promote {
            let mut cands: Vec<(u64, KeyHash)> = self
                .counts
                .iter()
                .filter(|(k, _)| !self.hot.contains_key(k))
                .map(|(k, c)| (*c, *k))
                .collect();
            cands.sort_unstable_by(|a, b| b.cmp(a));
            for (count, key) in cands {
                if self.hot.len() >= self.cfg.max_hot {
                    break;
                }
                let share_bp = count.saturating_mul(10_000) / total.max(1);
                if share_bp < self.cfg.promote_share_bp as u64 {
                    break; // sorted: nothing below this qualifies either
                }
                self.hot.insert(key, HotState { cold_epochs: 0 });
                self.promotions += 1;
                out.promoted.push(key);
            }
        }
        // Demotions: cool-down counts whole epochs below the demote share.
        let mut demote: Vec<KeyHash> = Vec::new();
        for (key, state) in self.hot.iter_mut() {
            if out.promoted.contains(key) {
                continue; // promoted this very epoch
            }
            let count = self.counts.get(key).copied().unwrap_or(0);
            let share_bp = count.saturating_mul(10_000) / total.max(1);
            if total == 0 || share_bp < self.cfg.demote_share_bp as u64 {
                state.cold_epochs += 1;
                if state.cold_epochs >= self.cfg.cooldown_epochs {
                    demote.push(*key);
                }
            } else {
                state.cold_epochs = 0;
            }
        }
        demote.sort_unstable();
        for key in demote {
            self.hot.remove(&key);
            self.demotions += 1;
            out.demoted.push(key);
        }
        self.counts.clear();
        self.total = 0;
        // Advance past `now` (may skip idle epochs).
        let period = self.cfg.epoch.nanos().max(1);
        let behind = now.nanos().saturating_sub(self.epoch_end.nanos());
        self.epoch_end = simnet::SimTime(self.epoch_end.nanos() + period * (1 + behind / period));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn keys(n: u128) -> Vec<KeyHash> {
        (1..=n).collect()
    }

    /// The LRU as it was before the intrusive list: a stamp per key and a
    /// stamp-ordered map. Kept as the oracle the list must agree with.
    #[derive(Debug, Default)]
    struct StampLru {
        stamp: u64,
        by_key: HashMap<KeyHash, u64>,
        by_stamp: BTreeMap<u64, KeyHash>,
    }

    impl StampLru {
        fn bump(&mut self, key: KeyHash) {
            self.stamp += 1;
            if let Some(old) = self.by_key.insert(key, self.stamp) {
                self.by_stamp.remove(&old);
            }
            self.by_stamp.insert(self.stamp, key);
        }

        fn on_touch(&mut self, key: KeyHash) {
            if self.by_key.contains_key(&key) {
                self.bump(key);
            }
        }

        fn on_remove(&mut self, key: KeyHash) {
            if let Some(stamp) = self.by_key.remove(&key) {
                self.by_stamp.remove(&stamp);
            }
        }

        fn victim(&self) -> Option<KeyHash> {
            self.by_stamp.values().next().copied()
        }

        fn pick_among(&self, candidates: &[KeyHash]) -> Option<KeyHash> {
            candidates
                .iter()
                .filter_map(|k| self.by_key.get(k).map(|&s| (s, *k)))
                .min()
                .map(|(_, k)| k)
                .or_else(|| candidates.first().copied())
        }
    }

    #[derive(Debug, Clone)]
    enum PolicyOp {
        Insert(KeyHash),
        Touch(KeyHash),
        Remove(KeyHash),
        /// Evict the current victim this many times, as capacity conflicts
        /// do; 64 drains the policy.
        Evict(u8),
        PickAmong(Vec<KeyHash>),
    }

    /// A 64-key universe: re-inserts, touches of absent keys and emptying
    /// the policy all occur within a few hundred steps.
    fn policy_op() -> impl Strategy<Value = PolicyOp> {
        let key = || (1u8..=64).prop_map(KeyHash::from);
        prop_oneof![
            key().prop_map(PolicyOp::Insert),
            key().prop_map(PolicyOp::Insert),
            key().prop_map(PolicyOp::Touch),
            key().prop_map(PolicyOp::Remove),
            key().prop_map(PolicyOp::Remove),
            prop_oneof![Just(1u8), Just(1u8), Just(2u8), Just(64u8)].prop_map(PolicyOp::Evict),
            proptest::collection::vec(key(), 0..6).prop_map(PolicyOp::PickAmong),
        ]
    }

    /// Drive a fresh LRU and the oracle with one op stream; with
    /// `touches_count` false both see it with touches withheld, which is
    /// FIFO (ablation A5's `fifo`).
    fn check_against_oracle(
        touches_count: bool,
        ops: &[PolicyOp],
    ) -> Result<(), proptest::TestCaseError> {
        let mut policy = LruPolicy::new();
        let mut oracle = StampLru::default();
        let mut emptied = 0;
        for (step, op) in ops.iter().enumerate() {
            match op {
                PolicyOp::Insert(k) => {
                    policy.on_insert(*k);
                    oracle.bump(*k);
                }
                PolicyOp::Touch(k) => {
                    if touches_count {
                        policy.on_touch(*k);
                        oracle.on_touch(*k);
                    }
                }
                PolicyOp::Remove(k) => {
                    policy.on_remove(*k);
                    oracle.on_remove(*k);
                }
                PolicyOp::Evict(n) => {
                    for _ in 0..*n {
                        prop_assert_eq!(policy.victim(), oracle.victim(), "step {}", step);
                        let Some(v) = policy.victim() else { break };
                        policy.on_remove(v);
                        oracle.on_remove(v);
                    }
                }
                PolicyOp::PickAmong(c) => {
                    prop_assert_eq!(policy.pick_among(c), oracle.pick_among(c), "step {}", step);
                }
            }
            prop_assert_eq!(policy.victim(), oracle.victim(), "step {}", step);
            prop_assert_eq!(policy.len(), oracle.by_key.len(), "step {}", step);
            emptied += usize::from(policy.is_empty() && step > 0);
        }
        prop_assert!(emptied > 0, "stream never emptied the policy");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn lru_and_fifo_match_the_stamp_map_oracle(
            ops in proptest::collection::vec(policy_op(), 10_000..10_001),
        ) {
            check_against_oracle(true, &ops)?;
            check_against_oracle(false, &ops)?;
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new();
        for k in keys(5) {
            p.on_insert(k);
        }
        p.on_touch(1); // 1 becomes most recent
        assert_eq!(p.victim(), Some(2));
        p.on_remove(2);
        assert_eq!(p.victim(), Some(3));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn lru_touch_unknown_key_is_noop() {
        let mut p = LruPolicy::new();
        p.on_touch(99);
        assert_eq!(p.len(), 0);
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn lru_pick_among_respects_recency() {
        let mut p = LruPolicy::new();
        for k in keys(10) {
            p.on_insert(k);
        }
        p.on_touch(3);
        assert_eq!(p.pick_among(&[3, 7, 9]), Some(7));
        // Unknown candidates fall back to the first.
        assert_eq!(p.pick_among(&[100, 200]), Some(100));
        assert_eq!(p.pick_among(&[]), None);
    }

    // ---- hot-key tracker -------------------------------------------------

    fn hot_cfg() -> HotReplCfg {
        HotReplCfg {
            epoch: simnet::SimDuration::from_millis(10),
            promote_share_bp: 2000, // 20%
            demote_share_bp: 1000,  // 10%
            cooldown_epochs: 2,
            min_epoch_touches: 10,
            ..HotReplCfg::default()
        }
    }

    fn at_ms(ms: u64) -> simnet::SimTime {
        simnet::SimTime(simnet::SimDuration::from_millis(ms).nanos())
    }

    #[test]
    fn promotes_dominant_key_and_demotes_after_cooldown() {
        let mut t = HotKeyTracker::new(hot_cfg());
        // Epoch 1: key 7 takes half the traffic.
        for i in 0..20u128 {
            t.touch(if i % 2 == 0 { 7 } else { 100 + i }, at_ms(1), 1.0);
        }
        let d = t.touch(999, at_ms(11), 1.0).expect("epoch rolled");
        assert!(d.promoted.contains(&7));
        assert!(t.is_hot(7));
        // Two cold epochs -> demoted on the second roll.
        let d = t.roll_epoch(at_ms(21), 1.0);
        assert!(d.demoted.is_empty(), "one cold epoch is not enough");
        let d = t.roll_epoch(at_ms(31), 1.0);
        assert_eq!(d.demoted, vec![7]);
        assert!(!t.is_hot(7));
        assert_eq!((t.promotions, t.demotions), (1, 1));
    }

    #[test]
    fn occupancy_gate_blocks_promotion() {
        let mut cfg = hot_cfg();
        cfg.occupancy_gate = 0.5;
        let mut t = HotKeyTracker::new(cfg);
        for _ in 0..20 {
            t.touch(7, at_ms(1), 1.0);
        }
        let d = t.roll_epoch(at_ms(11), 0.1); // idle engines: no promotion
        assert!(d.promoted.is_empty());
        for _ in 0..20 {
            t.touch(7, at_ms(12), 1.0);
        }
        let d = t.roll_epoch(at_ms(21), 0.9); // hot engines: promote
        assert_eq!(d.promoted, vec![7]);
    }

    #[test]
    fn min_touches_and_max_hot_bound_promotions() {
        let mut cfg = hot_cfg();
        cfg.max_hot = 2;
        cfg.promote_share_bp = 100;
        let mut t = HotKeyTracker::new(cfg);
        // Below min_epoch_touches: no promotion even at 100% share.
        t.touch(3, at_ms(1), 1.0);
        let d = t.roll_epoch(at_ms(11), 1.0);
        assert!(d.promoted.is_empty());
        // Plenty of traffic over 4 keys, but max_hot caps at the 2 hottest.
        for _ in 0..40 {
            t.touch(1, at_ms(12), 1.0);
        }
        for _ in 0..30 {
            t.touch(2, at_ms(12), 1.0);
        }
        for _ in 0..20 {
            t.touch(3, at_ms(12), 1.0);
        }
        for _ in 0..10 {
            t.touch(4, at_ms(12), 1.0);
        }
        let d = t.roll_epoch(at_ms(21), 1.0);
        assert_eq!(d.promoted, vec![1, 2], "hottest two, deterministic order");
    }

    #[test]
    fn epoch_boundary_skips_idle_gaps() {
        let mut t = HotKeyTracker::new(hot_cfg());
        // Long idle gap: one roll covers it and the boundary lands ahead
        // of `now`, not repeatedly behind it.
        let d = t.touch(1, at_ms(95), 1.0);
        assert!(d.is_some());
        assert!(t.touch(2, at_ms(96), 1.0).is_none(), "no double roll");
    }

    #[test]
    fn tracker_replays_identically() {
        let run = || {
            let mut t = HotKeyTracker::new(hot_cfg());
            let mut log = Vec::new();
            for step in 0..500u64 {
                let key = (step % 7) as u128;
                if let Some(d) = t.touch(key, simnet::SimTime(step * 300_000), 1.0) {
                    log.push((step, d.promoted.clone(), d.demoted.clone()));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
