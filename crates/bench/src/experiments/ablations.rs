//! Ablation studies of design choices the paper calls out.
//!
//! * **A1** — preferred-backend selection on/off: why client-side
//!   quoruming beats a primary/backup read path under load (§5.1, §8).
//! * **A2** — tombstone cache size: the coarse-but-consistent summary
//!   version trades DRAM for spurious (retried) rejections (§5.2).
//! * **A3** — index load factor vs. associativity conflicts: why dynamic
//!   index scaling keeps bucket evictions rare (§4.2).
//! * **A4** — SCAR vs 2×R crossover as value size grows (§6.3/§7.2.2):
//!   where single-RTT stops paying for triple data transfer.
//! * **A5** — eviction policy hit rates on zipfian traffic with one-shot
//!   scans: the LRU every backend runs against FIFO, random and ARC, the
//!   "configurable eviction policies" of §4.2. The three alternatives live
//!   here, on a standalone trace: no cell runs them.

use std::collections::{HashMap, HashSet, VecDeque};

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{place, DefaultHasher, KeyHash, KeyHasher};
use cliquemap::policy::LruPolicy;
use cliquemap::store::{BackendStore, StoreCfg};
use cliquemap::version::VersionNumber;
use cliquemap::workload::Workload;
use simnet::{AntagonistNode, HostCfg, SimDuration, SimRng, SinkNode};
use workloads::{SingleKeyGets, SizeDist};

use crate::experiments::base_spec;
use crate::harness::{populate_cell, Report};

// ---- A1: preferred backend on/off ------------------------------------

pub(crate) fn a1_measure(prefer: bool) -> (u64, u64) {
    let mut spec: CellSpec = base_spec(LookupStrategy::TwoR, ReplicationMode::R32, 3);
    spec.seed = 97;
    spec.host = HostCfg::with_gbps(100.0).no_cstates();
    spec.client.prefer_first_responder = prefer;
    let workloads: Vec<Box<dyn Workload>> = (0..4)
        .map(|_| Box::new(SingleKeyGets::new("hot0", 20_000.0, u64::MAX)) as Box<dyn Workload>)
        .collect();
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "hot", 1, &SizeDist::fixed(4096));
    // Load the key's PRIMARY replica — the one the no-preference client is
    // chained to.
    let hash = DefaultHasher.hash(b"hot0");
    let victim_shard = place(hash, 3, 1).shard;
    let victim_host = cell.backend_hosts[victim_shard as usize];
    let blaster_host = cell.sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
    let rx_sink = cell
        .sim
        .add_node(victim_host, Box::new(SinkNode::default()));
    cell.sim
        .add_node(blaster_host, Box::new(AntagonistNode::new(rx_sink, 95.0)));
    let remote = cell.sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
    let tx_sink = cell.sim.add_node(remote, Box::new(SinkNode::default()));
    cell.sim
        .add_node(victim_host, Box::new(AntagonistNode::new(tx_sink, 95.0)));
    cell.run_for(SimDuration::from_millis(20));
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    cell.run_for(SimDuration::from_millis(200));
    (
        crate::harness::pctl_ns(&cell, "cm.get.latency_ns", 50.0),
        crate::harness::pctl_ns(&cell, "cm.get.latency_ns", 99.0),
    )
}

/// Regenerate ablation A1.
pub fn a1() -> Report {
    let mut report = Report::new(
        "a1",
        "Ablation: preferred-backend selection vs primary-pinned reads under primary load",
    );
    report.line(format!("{:>24} {:>10} {:>10}", "mode", "p50_us", "p99_us"));
    for (name, prefer) in [("first-responder", true), ("primary-pinned", false)] {
        let (p50, p99) = a1_measure(prefer);
        report.line(format!(
            "{name:>24} {:>10.1} {:>10.1}",
            p50 as f64 / 1e3,
            p99 as f64 / 1e3
        ));
    }
    report
}

// ---- A2: tombstone cache size ------------------------------------------

/// Count spurious rejections: SETs of *never-erased* keys refused because
/// the summary version (raised by evicted tombstones of other keys)
/// exceeds their proposed version.
pub(crate) fn a2_measure(tombstone_capacity: usize) -> u64 {
    let mut store = BackendStore::new(
        StoreCfg {
            num_buckets: 512,
            tombstone_capacity,
            ..StoreCfg::default()
        },
        Box::new(LruPolicy::new()),
    );
    let hasher = DefaultHasher;
    let mut spurious = 0u64;
    // Phase 1: erase 4096 distinct keys at high versions (tombstones).
    for i in 0..4096u64 {
        let key = format!("erased-{i}");
        store.erase(
            hasher.hash(key.as_bytes()),
            VersionNumber::new(1_000_000, 1, i as u32),
        );
    }
    // Phase 2: SET 2000 unrelated keys at modest versions; a too-small
    // tombstone cache pushed its summary high, so these get rejected and
    // must retry with higher (TrueTime-advanced) versions.
    for i in 0..2000u64 {
        let key = format!("fresh-{i}");
        let hash = hasher.hash(key.as_bytes());
        let v = VersionNumber::new(500_000, 2, i as u32);
        match store.install(key.as_bytes(), b"value", hash, v) {
            rpc::Status::Ok => {}
            rpc::Status::VersionRejected => spurious += 1,
            e => panic!("{e:?}"),
        }
    }
    spurious
}

/// Regenerate ablation A2.
pub fn a2() -> Report {
    let mut report = Report::new(
        "a2",
        "Ablation: tombstone cache size vs spurious (summary-version) rejections",
    );
    report.line(format!(
        "{:>18} {:>22}",
        "tombstone_entries", "spurious_rejections"
    ));
    for cap in [64usize, 512, 2048, 8192] {
        let spurious = a2_measure(cap);
        report.line(format!("{cap:>18} {spurious:>22}"));
    }
    report
}

// ---- A3: index load factor vs associativity conflicts -------------------

pub(crate) fn a3_measure(target_load: f64) -> f64 {
    let mut store = BackendStore::new(
        StoreCfg {
            num_buckets: 256,
            assoc: 8,
            // Resize disabled: this ablation shows what dynamic index
            // scaling prevents.
            resize_load_factor: 2.0,
            data_capacity: 64 << 20,
            max_data_capacity: 64 << 20,
            ..StoreCfg::default()
        },
        Box::new(LruPolicy::new()),
    );
    let hasher = DefaultHasher;
    let slots = 256.0 * 8.0;
    let inserts = (slots * target_load) as u64;
    for i in 0..inserts {
        let key = format!("lf-{i}");
        let hash = hasher.hash(key.as_bytes());
        store.install(
            key.as_bytes(),
            b"v",
            hash,
            VersionNumber::new(1, 0, i as u32 + 1),
        );
    }
    store.stats.assoc_conflicts as f64 / inserts as f64
}

/// Regenerate ablation A3.
pub fn a3() -> Report {
    let mut report = Report::new(
        "a3",
        "Ablation: index load factor vs associativity-conflict (bucket eviction) rate",
    );
    report.line(format!(
        "{:>12} {:>22}",
        "load_factor", "conflicts_per_insert"
    ));
    for load in [0.3, 0.5, 0.7, 0.9, 1.1] {
        let rate = a3_measure(load);
        report.line(format!("{load:>12.1} {rate:>22.4}"));
    }
    report
}

// ---- A4: SCAR vs 2xR crossover vs value size -----------------------------

pub(crate) fn a4_measure(strategy: LookupStrategy, value: usize) -> u64 {
    let mut spec: CellSpec = base_spec(strategy, ReplicationMode::R32, 3);
    spec.seed = 101;
    let workloads: Vec<Box<dyn Workload>> =
        vec![Box::new(SingleKeyGets::new("x0", 4_000.0, u64::MAX)) as Box<dyn Workload>];
    let mut cell = Cell::build(spec, workloads);
    populate_cell(&mut cell, "x", 1, &SizeDist::fixed(value));
    cell.run_for(SimDuration::from_millis(20));
    crate::harness::hist_mut(&mut cell, "cm.get.latency_ns").clear();
    cell.run_for(SimDuration::from_millis(150));
    crate::harness::pctl_ns(&cell, "cm.get.latency_ns", 50.0)
}

/// Regenerate ablation A4.
pub fn a4() -> Report {
    let mut report = Report::new(
        "a4",
        "Ablation: SCAR vs 2xR median latency across value sizes (the incast crossover)",
    );
    report.line(format!(
        "{:>10} {:>12} {:>12} {:>10}",
        "value", "2xR_us", "SCAR_us", "winner"
    ));
    for value in [256usize, 1 << 10, 4 << 10, 16 << 10, 64 << 10] {
        let two_r = a4_measure(LookupStrategy::TwoR, value);
        let scar = a4_measure(LookupStrategy::Scar, value);
        report.line(format!(
            "{:>10} {:>12.1} {:>12.1} {:>10}",
            value,
            two_r as f64 / 1e3,
            scar as f64 / 1e3,
            if scar <= two_r { "SCAR" } else { "2xR" }
        ));
    }
    report
}

// ---- A5: eviction policy hit rates ---------------------------------------

/// The policies A5 compares. FIFO is LRU with touches withheld.
enum A5Policy {
    Lru(LruPolicy),
    Fifo(LruPolicy),
    Random(RandomPolicy),
    Arc(ArcPolicy),
}

impl A5Policy {
    fn by_name(name: &str, cache_entries: usize) -> A5Policy {
        match name {
            "lru" => A5Policy::Lru(LruPolicy::new()),
            "fifo" => A5Policy::Fifo(LruPolicy::new()),
            "arc" => A5Policy::Arc(ArcPolicy::new(cache_entries)),
            "random" => A5Policy::Random(RandomPolicy::new(11)),
            other => panic!("unknown eviction policy {other:?}"),
        }
    }

    fn on_insert(&mut self, key: KeyHash) {
        match self {
            A5Policy::Lru(p) | A5Policy::Fifo(p) => p.on_insert(key),
            A5Policy::Random(p) => p.on_insert(key),
            A5Policy::Arc(p) => p.request(key),
        }
    }

    fn on_touch(&mut self, key: KeyHash) {
        match self {
            A5Policy::Lru(p) => p.on_touch(key),
            A5Policy::Fifo(_) | A5Policy::Random(_) => {}
            A5Policy::Arc(p) => p.on_touch(key),
        }
    }

    fn on_remove(&mut self, key: KeyHash) {
        match self {
            A5Policy::Lru(p) | A5Policy::Fifo(p) => p.on_remove(key),
            A5Policy::Random(p) => p.on_remove(key),
            A5Policy::Arc(p) => p.on_remove(key),
        }
    }

    fn victim(&mut self) -> Option<KeyHash> {
        match self {
            A5Policy::Lru(p) | A5Policy::Fifo(p) => p.victim(),
            A5Policy::Random(p) => p.victim(),
            A5Policy::Arc(p) => p.victim(),
        }
    }
}

/// Uniform-random victim selection.
struct RandomPolicy {
    rng: SimRng,
    keys: Vec<KeyHash>,
    index: HashMap<KeyHash, usize>,
}

impl RandomPolicy {
    fn new(seed: u64) -> RandomPolicy {
        RandomPolicy {
            rng: SimRng::new(seed),
            keys: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn on_insert(&mut self, key: KeyHash) {
        if !self.index.contains_key(&key) {
            self.index.insert(key, self.keys.len());
            self.keys.push(key);
        }
    }

    fn on_remove(&mut self, key: KeyHash) {
        if let Some(at) = self.index.remove(&key) {
            let last = self.keys.len() - 1;
            self.keys.swap(at, last);
            self.keys.pop();
            if at < self.keys.len() {
                self.index.insert(self.keys[at], at);
            }
        }
    }

    fn victim(&mut self) -> Option<KeyHash> {
        let n = self.keys.len() as u64;
        (n > 0).then(|| self.keys[self.rng.gen_range(n) as usize])
    }
}

/// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
///
/// Balances recency (T1) against frequency (T2) using ghost lists (B1, B2)
/// and an adaptation parameter `p`. Keys seen once sit in T1; keys seen
/// again promote to T2. A hit in ghost list B1 grows `p` (favor recency); a
/// hit in B2 shrinks it (favor frequency).
struct ArcPolicy {
    capacity: usize,
    p: usize,
    t1: VecDeque<KeyHash>,
    t2: VecDeque<KeyHash>,
    b1: VecDeque<KeyHash>,
    b2: VecDeque<KeyHash>,
    // Where each live key lives: 1 = T1, 2 = T2.
    location: HashMap<KeyHash, u8>,
}

impl ArcPolicy {
    /// Empty ARC sized for `capacity` cached entries.
    fn new(capacity: usize) -> ArcPolicy {
        ArcPolicy {
            capacity: capacity.max(2),
            p: 0,
            t1: VecDeque::new(),
            t2: VecDeque::new(),
            b1: VecDeque::new(),
            b2: VecDeque::new(),
            location: HashMap::new(),
        }
    }

    fn remove_from(list: &mut VecDeque<KeyHash>, key: KeyHash) -> bool {
        let at = list.iter().position(|&k| k == key);
        at.and_then(|at| list.remove(at)).is_some()
    }

    /// A key was installed or touched.
    fn request(&mut self, key: KeyHash) {
        match self.location.get(&key) {
            Some(1) => {
                // T1 hit: promote to T2 (now "frequent").
                Self::remove_from(&mut self.t1, key);
                self.t2.push_back(key);
                self.location.insert(key, 2);
            }
            Some(2) => {
                // T2 hit: move to MRU of T2.
                Self::remove_from(&mut self.t2, key);
                self.t2.push_back(key);
            }
            _ => {
                // Ghost hits adapt p; fresh keys enter T1.
                if Self::remove_from(&mut self.b1, key) {
                    let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                    self.p = (self.p + delta).min(self.capacity);
                    self.t2.push_back(key);
                    self.location.insert(key, 2);
                } else if Self::remove_from(&mut self.b2, key) {
                    let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                    self.p = self.p.saturating_sub(delta);
                    self.t2.push_back(key);
                    self.location.insert(key, 2);
                } else {
                    self.t1.push_back(key);
                    self.location.insert(key, 1);
                }
                self.trim_ghosts();
            }
        }
    }

    fn trim_ghosts(&mut self) {
        while self.b1.len() > self.capacity {
            self.b1.pop_front();
        }
        while self.b2.len() > self.capacity {
            self.b2.pop_front();
        }
    }

    fn on_touch(&mut self, key: KeyHash) {
        if self.location.contains_key(&key) {
            self.request(key);
        }
    }

    fn on_remove(&mut self, key: KeyHash) {
        match self.location.remove(&key) {
            Some(1) => {
                Self::remove_from(&mut self.t1, key);
                self.b1.push_back(key);
            }
            Some(2) => {
                Self::remove_from(&mut self.t2, key);
                self.b2.push_back(key);
            }
            _ => {}
        }
        self.trim_ghosts();
    }

    fn victim(&self) -> Option<KeyHash> {
        // ARC's REPLACE: evict from T1 when it exceeds the target p.
        if !self.t1.is_empty() && (self.t1.len() > self.p || self.t2.is_empty()) {
            self.t1.front().copied()
        } else {
            self.t2
                .front()
                .copied()
                .or_else(|| self.t1.front().copied())
        }
    }
}

/// Hit rate of a policy on a zipfian stream with periodic one-shot scans
/// (the access pattern that separates ARC from LRU).
pub(crate) fn a5_measure(policy_name: &str, cache_entries: usize) -> f64 {
    let mut policy = A5Policy::by_name(policy_name, cache_entries);
    let mut cached: HashSet<u128> = HashSet::new();
    let mut rng = SimRng::new(13);
    let zipf = simnet::Zipf::new(4_000, 0.9);
    let (mut hits, mut total) = (0u64, 0u64);
    let mut scan_cursor: u128 = 1_000_000;
    for i in 0..120_000u64 {
        // Every ~40 requests, a one-shot scan key pollutes the cache.
        let key: u128 = if i % 40 == 39 {
            scan_cursor += 1;
            scan_cursor
        } else {
            zipf.sample(&mut rng) as u128 + 1
        };
        total += 1;
        if cached.contains(&key) {
            hits += 1;
            policy.on_touch(key);
        } else {
            while cached.len() >= cache_entries {
                let victim = policy.victim().expect("cache non-empty");
                policy.on_remove(victim);
                cached.remove(&victim);
            }
            cached.insert(key);
            policy.on_insert(key);
        }
    }
    hits as f64 / total as f64
}

/// Regenerate ablation A5.
pub fn a5() -> Report {
    let mut report = Report::new(
        "a5",
        "Ablation: eviction policy hit rates on zipfian traffic with scan pollution",
    );
    report.line(format!("{:>10} {:>12}", "policy", "hit_rate"));
    for name in ["lru", "arc", "fifo", "random"] {
        let rate = a5_measure(name, 400);
        report.line(format!("{name:>10} {rate:>12.4}"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preferred_backend_beats_primary_pinning_under_load() {
        let (pref_p50, _) = a1_measure(true);
        let (pinned_p50, _) = a1_measure(false);
        assert!(
            pinned_p50 as f64 > pref_p50 as f64 * 1.2,
            "pinned {pinned_p50} vs preferred {pref_p50}"
        );
    }

    #[test]
    fn small_tombstone_caches_cause_spurious_rejections() {
        let tiny = a2_measure(64);
        let big = a2_measure(8192);
        assert_eq!(big, 0, "a big-enough cache never goes coarse");
        assert!(tiny > 100, "tiny cache should reject spuriously: {tiny}");
    }

    #[test]
    fn conflicts_explode_past_high_load_factors() {
        let low = a3_measure(0.3);
        let mid = a3_measure(0.7);
        let high = a3_measure(1.1);
        assert!(low < 0.01, "conflicts at 0.3 load: {low}");
        assert!(high > mid, "conflict rate must grow with load");
        assert!(high > 0.1, "overfull index must conflict often: {high}");
    }

    #[test]
    fn arc_resists_scans_better_than_fifo_and_random() {
        let arc = a5_measure("arc", 400);
        let lru = a5_measure("lru", 400);
        let fifo = a5_measure("fifo", 400);
        let random = a5_measure("random", 400);
        assert!(arc > fifo, "arc {arc} vs fifo {fifo}");
        assert!(arc > random, "arc {arc} vs random {random}");
        assert!(lru > fifo, "lru {lru} vs fifo {fifo}");
        // Recency-aware policies clear 50% on this mix.
        assert!(arc > 0.5 && lru > 0.5);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut p = A5Policy::by_name("fifo", 3);
        for k in 1..=3 {
            p.on_insert(k);
        }
        p.on_touch(1);
        assert_eq!(p.victim(), Some(1), "FIFO must ignore the touch");
    }

    #[test]
    fn random_victims_cover_keyspace() {
        let mut p = RandomPolicy::new(7);
        for k in 1..=20 {
            p.on_insert(k);
        }
        let mut seen = HashSet::new();
        for _ in 0..300 {
            seen.insert(p.victim().unwrap());
        }
        assert!(seen.len() > 10, "only {} distinct victims", seen.len());
        p.on_remove(5);
        assert_eq!(p.keys.len(), 19);
        for _ in 0..300 {
            assert_ne!(p.victim(), Some(5));
        }
    }

    #[test]
    fn random_remove_swaps_correctly() {
        let mut p = RandomPolicy::new(1);
        for k in 1..=4 {
            p.on_insert(k);
        }
        p.on_remove(1);
        p.on_remove(4);
        p.on_remove(2);
        assert_eq!(p.keys.len(), 1);
        assert_eq!(p.victim(), Some(3));
    }

    #[test]
    fn arc_promotes_frequent_keys() {
        let mut p = ArcPolicy::new(8);
        for k in 1..=8 {
            p.request(k);
        }
        // Touch 1..4 twice: they become T2 (frequent).
        for k in 1..=4 {
            p.on_touch(k);
        }
        // Victim should come from the recency-only set 5..8.
        let v = p.victim().unwrap();
        assert!((5..=8).contains(&v), "victim {v} came from T2");
    }

    #[test]
    fn arc_ghost_hit_adapts() {
        let mut p = ArcPolicy::new(4);
        for k in 1..=4 {
            p.request(k);
        }
        let v = p.victim().unwrap();
        p.on_remove(v); // v goes to ghost B1
        p.request(v); // ghost hit: p grows, v re-enters as T2
        assert!(p.p > 0, "adaptation parameter never moved");
        assert_eq!(p.location.len(), 4);
    }

    #[test]
    fn arc_scan_resistance() {
        // A hot working set plus a long scan: the scan must not flush the
        // hot keys tracked in T2.
        let mut p = ArcPolicy::new(10);
        for k in 1..=5 {
            p.request(k);
            p.on_touch(k); // promote to T2
        }
        for scan_key in 1000..1040 {
            p.request(scan_key);
            // Simulate the backend evicting on each conflict.
            if p.location.len() > 10 {
                let v = p.victim().unwrap();
                p.on_remove(v);
            }
        }
        let hot_alive = (1..=5).filter(|k| p.location.contains_key(k)).count();
        assert!(hot_alive >= 4, "scan flushed hot set: {hot_alive}/5 left");
    }

    #[test]
    #[should_panic(expected = "unknown eviction policy")]
    fn unknown_policy_panics() {
        A5Policy::by_name("clock", 400);
    }

    #[test]
    fn scar_wins_small_values_loses_large() {
        let small_2xr = a4_measure(LookupStrategy::TwoR, 256);
        let small_scar = a4_measure(LookupStrategy::Scar, 256);
        let large_2xr = a4_measure(LookupStrategy::TwoR, 64 << 10);
        let large_scar = a4_measure(LookupStrategy::Scar, 64 << 10);
        assert!(
            small_scar < small_2xr,
            "SCAR should win at 256B: {small_scar} vs {small_2xr}"
        );
        assert!(
            large_scar > large_2xr,
            "2xR should win at 64KB: {large_scar} vs {large_2xr}"
        );
    }
}
