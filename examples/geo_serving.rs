//! Geo-style serving: road-traffic predictions with strongly diurnal reads
//! and a steady corpus-update stream from separate writer jobs — the
//! workload behind the paper's Figure 9.
//!
//! ```text
//! cargo run --release --example geo_serving
//! ```

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::hash::PrefixShardHasher;
use cliquemap::workload::Workload;
use simnet::SimDuration;
use std::sync::Arc;
use workloads::{ProductionGets, ProductionSets, SizeDist};

const SEGMENTS: u64 = 5_000;

fn main() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 6,
        clients_per_host: 2,
        ..CellSpec::default()
    };
    spec.client.strategy = LookupStrategy::Scar;
    spec.client.max_in_flight = 2048;
    // §6.5's customizable hash functions: every key shares the "k" prefix
    // here, so use the default hasher; a real Geo deployment could pick
    // PrefixShardHasher to co-locate a metro area's segments.
    let _available_if_needed = Arc::new(PrefixShardHasher { prefix_len: 3 });

    let day = SimDuration::from_millis(250);
    let sizes = SizeDist::geo();
    let mut workloads: Vec<Box<dyn Workload>> = (0..4)
        .map(|_| Box::new(ProductionGets::geo("k", SEGMENTS, 2_500.0, day)) as Box<dyn Workload>)
        .collect();
    // The model-update jobs: steady SET stream, separate from readers.
    for _ in 0..2 {
        workloads.push(Box::new(ProductionSets::steady(
            "k",
            SEGMENTS,
            sizes.clone(),
            1_500.0,
        )));
    }

    let mut cell = Cell::build(spec, workloads);
    bench::populate_cell(&mut cell, "k", SEGMENTS, &sizes);

    println!("serving one simulated day of Geo traffic...");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>10}",
        "phase", "p50_us", "p99.9_us", "get_per_s", "set_per_s"
    );
    let window = SimDuration(day.nanos() / 4);
    let phases = ["morning", "midday", "evening", "night"];
    let mut last = (0u64, 0u64);
    for phase in phases {
        cell.run_for(window);
        let h = bench::harness::hist_mut(&mut cell, "cm.get.latency_ns");
        let (p50, p999) = (h.percentile(50.0), h.percentile(99.9));
        h.clear();
        let m = cell.sim.metrics();
        let gets = m.counter("cm.get.completed") + m.counter("cm.get.batches");
        let sets = m.counter("cm.set.completed");
        println!(
            "{phase:>10} {:>10.1} {:>10.1} {:>12.0} {:>10.0}",
            p50 as f64 / 1e3,
            p999 as f64 / 1e3,
            (gets - last.0) as f64 / window.as_secs_f64(),
            (sets - last.1) as f64 / window.as_secs_f64(),
        );
        last = (gets, sets);
    }
    let m = cell.sim.metrics();
    assert_eq!(m.counter("cm.op_errors"), 0);
    println!(
        "\nhits={} misses={} retries={} — geo_serving OK",
        m.counter("cm.get.hits"),
        m.counter("cm.get.misses"),
        m.counter("cm.retries")
    );
}
