//! Ads-style serving: a realistic production scenario.
//!
//! A populated R=3.2 cell serves highly batched lookups (auction fan-out)
//! under a diurnal arrival process while writer jobs continuously refresh
//! the corpus. Mirrors the workload behind the paper's Figure 8.
//!
//! ```text
//! cargo run --release --example ads_serving
//! ```

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use simnet::SimDuration;
use workloads::{ProductionGets, ProductionSets, SizeDist};

const KEYS: u64 = 5_000;

fn main() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 6,
        clients_per_host: 2,
        ..CellSpec::default()
    };
    spec.client.strategy = LookupStrategy::Scar;
    spec.client.max_in_flight = 2048;
    spec.backend.scan_interval = Some(SimDuration::from_millis(200));

    let day = SimDuration::from_millis(200);
    let sizes = SizeDist::ads();
    // Four reader jobs (batched, diurnal) and one writer job with nightly
    // backfill bursts.
    let mut workloads: Vec<Box<dyn Workload>> = (0..4)
        .map(|_| Box::new(ProductionGets::ads("ad", KEYS, 2_000.0, day)) as Box<dyn Workload>)
        .collect();
    let mut writer = ProductionSets::steady("ad", KEYS, sizes.clone(), 1_000.0);
    writer.backfill_multiplier = 5.0;
    writer.backfill_period = day;
    writer.backfill_len = SimDuration::from_millis(20);
    workloads.push(Box::new(writer));

    let mut cell = Cell::build(spec, workloads);
    bench::populate_cell(&mut cell, "ad", KEYS, &sizes);

    println!("serving two simulated days of Ads traffic...");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>10}",
        "t_ms", "p50_us", "p99.9_us", "get_per_s", "set_per_s"
    );
    let window = SimDuration::from_millis(50);
    let mut last_gets = 0u64;
    let mut last_sets = 0u64;
    for w in 1..=8 {
        cell.run_for(window);
        let h = bench::harness::hist_mut(&mut cell, "cm.get.latency_ns");
        let (p50, p999) = (h.percentile(50.0), h.percentile(99.9));
        h.clear();
        let m = cell.sim.metrics();
        let gets = m.counter("cm.get.completed") + m.counter("cm.get.batches");
        let sets = m.counter("cm.set.completed");
        println!(
            "{:>8} {:>10.1} {:>10.1} {:>12.0} {:>10.0}",
            w * 50,
            p50 as f64 / 1e3,
            p999 as f64 / 1e3,
            (gets - last_gets) as f64 / window.as_secs_f64(),
            (sets - last_sets) as f64 / window.as_secs_f64(),
        );
        last_gets = gets;
        last_sets = sets;
    }
    let m = cell.sim.metrics();
    println!(
        "\ntotals: hits={} misses={} retries={} errors={}",
        m.counter("cm.get.hits"),
        m.counter("cm.get.misses"),
        m.counter("cm.retries"),
        m.counter("cm.op_errors"),
    );
    assert_eq!(m.counter("cm.op_errors"), 0);
    println!("ads_serving OK");
}
