//! Figure 3: memory reshaping and subsequent DRAM savings.
//!
//! A 13-week timeline of aggregate resident DRAM across a fleet of
//! backends. Weeks 1–3: every backend pre-provisions its data region for
//! peak capacity (the naive "avoid memory registration at runtime" design).
//! Week 4: the reshaping feature launches — backends restart right-sized
//! and thereafter grow on demand (the paper saw ~10% / 50 TB savings at
//! launch). Around week 7 the underlying corpus shrinks by half, and
//! "without further human intervention" the fleet's resident DRAM follows
//! it down (~50% / 200 TB in the paper) as each backend independently
//! right-sizes at its next non-disruptive restart.

use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{place, DefaultHasher, KeyHasher};
use cliquemap::version::VersionNumber;
use cliquemap::workload::UniformWorkload;
use workloads::{Prefill, SizeDist};

use crate::experiments::base_spec;
use crate::harness::Report;

const BACKENDS: u32 = 8;
const KEYS: u64 = 32_000;
const PROVISIONED: usize = 24 << 20; // per-backend peak provision

/// Scale factor turning simulated bytes into reported "TB" so the output
/// reads like the figure's axis (512 TB fleet).
fn tb(bytes: u64) -> f64 {
    bytes as f64 * (512.0 / (BACKENDS as f64 * PROVISIONED as f64))
}

pub(crate) fn fleet_resident(cell: &mut Cell) -> u64 {
    let backends = cell.backends.clone();
    backends
        .iter()
        .map(|&b| {
            cell.sim
                .with_node::<BackendNode, _>(b, |n| {
                    // The timeline is the data region's: 4 K entries in 57 K
                    // slots per backend never reshape the index.
                    assert_eq!(n.store().stats.index_reshapes, 0);
                    n.store().resident_bytes()
                })
                .unwrap_or(0)
        })
        .sum()
}

fn install_corpus(cell: &mut Cell, keys: std::ops::Range<u64>, sizes: &SizeDist) {
    let n = cell.backends.len() as u32;
    for i in keys {
        let key = Prefill::key_name("k", i);
        let len = sizes.size_for_key(&key);
        let value = UniformWorkload::value_for(&key, len);
        let hash = DefaultHasher.hash(&key);
        let shard = place(hash, n, 1).shard;
        let backend = cell.backends[shard as usize];
        cell.sim
            .with_node::<BackendNode, _>(backend, |b| {
                let store = b.store_mut();
                // On-demand growth instead of eviction (the reshaped mode
                // grows toward max capacity).
                while store.needs_data_growth() {
                    store.grow_data();
                }
                store.install(&key, &value, hash, VersionNumber::new(1, 0, 1));
            })
            .expect("backend exists");
    }
}

fn erase_corpus(cell: &mut Cell, keys: std::ops::Range<u64>) {
    let n = cell.backends.len() as u32;
    for i in keys {
        let key = Prefill::key_name("k", i);
        let hash = DefaultHasher.hash(&key);
        let shard = place(hash, n, 1).shard;
        let backend = cell.backends[shard as usize];
        cell.sim
            .with_node::<BackendNode, _>(backend, |b| {
                b.store_mut().erase(hash, VersionNumber::new(2, 0, 1));
            })
            .expect("backend exists");
    }
}

fn compact_fleet(cell: &mut Cell, slack: f64) {
    let backends = cell.backends.clone();
    for b in backends {
        cell.sim
            .with_node::<BackendNode, _>(b, |n| n.store_mut().compact_restart(slack))
            .expect("backend exists");
    }
}

/// Regenerate Figure 3.
pub fn run() -> Report {
    let mut report = Report::new(
        "f3",
        "Memory reshaping in CliqueMap and subsequent DRAM savings",
    );
    let mut spec: CellSpec = base_spec(LookupStrategy::TwoR, ReplicationMode::R1, BACKENDS);
    // Pre-provisioned era: populated == reserved maximum.
    spec.backend.store.data_capacity = PROVISIONED;
    spec.backend.store.max_data_capacity = PROVISIONED;
    spec.backend.store.num_buckets = 4096;
    let mut cell = Cell::build(spec, vec![]);
    let sizes = SizeDist {
        mu: (2500f64).ln(),
        sigma: 0.6,
        min: 256,
        max: 64 << 10,
    };
    install_corpus(&mut cell, 0..KEYS, &sizes);

    report.line(format!("{:>6} {:>14} {:>10}", "week", "memory_TB", "event"));
    let row = |week: u32, cell: &mut Cell, event: &str| {
        let resident = fleet_resident(cell);
        format!("{week:>6} {:>14.1} {event:>10}", tb(resident))
    };
    // Weeks 1-3: flat at the provisioned ceiling.
    for w in 1..=3 {
        let l = row(w, &mut cell, "");
        report.line(l);
    }
    // Week 4: reshaping launches — every backend restarts right-sized.
    compact_fleet(&mut cell, 0.20);
    let l = row(4, &mut cell, "reshaping");
    report.line(l);
    // Weeks 5-6: steady state at the right-sized footprint.
    for w in 5..=6 {
        let l = row(w, &mut cell, "");
        report.line(l);
    }
    // Week 7: the corpus shrinks by half.
    erase_corpus(&mut cell, 0..KEYS / 2);
    let l = row(7, &mut cell, "shrink");
    report.line(l);
    // Week 8: backends right-size at their next restart, no human involved.
    compact_fleet(&mut cell, 0.20);
    for w in 8..=13 {
        let l = row(w, &mut cell, if w == 8 { "restart" } else { "" });
        report.line(l);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_shape_matches_figure() {
        let r = run();
        let parse =
            |line: &str| -> f64 { line.split_whitespace().nth(1).unwrap().parse().unwrap() };
        let week = |w: usize| parse(&r.lines[w]); // lines[0] is the header
                                                  // Flat pre-provisioned plateau.
        assert_eq!(week(1), week(3));
        // Launch saves roughly 10%.
        let saving = 1.0 - week(4) / week(3);
        assert!((0.03..0.35).contains(&saving), "launch saving {saving}");
        // Corpus shrink halves usage after restart.
        let drop = 1.0 - week(8) / week(3);
        assert!(drop > 0.35, "post-shrink drop {drop}");
        assert!(week(8) < week(4));
    }
}
