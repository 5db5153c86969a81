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

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{place, DefaultHasher, KeyHasher};
use cliquemap::policy::LruPolicy;
use cliquemap::store::{BackendStore, StoreCfg};
use cliquemap::version::VersionNumber;
use cliquemap::workload::Workload;
use simnet::{AntagonistNode, HostCfg, SimDuration, SinkNode};
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

/// Hit rate of a policy on a zipfian stream with periodic one-shot scans
/// (the access pattern that separates ARC from LRU).
pub(crate) fn a5_measure(policy_name: &str, cache_entries: usize) -> f64 {
    let mut policy = cliquemap::policy::policy_by_name(policy_name, 11);
    policy.set_capacity_hint(cache_entries);
    let mut cached: std::collections::HashSet<u128> = std::collections::HashSet::new();
    let mut rng = simnet::SimRng::new(13);
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
