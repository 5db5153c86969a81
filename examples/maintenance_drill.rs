//! Maintenance drill: planned migration to a warm spare, then an
//! unplanned crash with cohort repairs — both under live traffic.
//!
//! Walks through the §6.1 and §5.4 machinery end-to-end and prints what
//! each phase did to clients.
//!
//! ```text
//! cargo run --release --example maintenance_drill
//! ```

use bytes::Bytes;

use cliquemap::backend::{BackendCfg, BackendNode};
use cliquemap::cell::{Cell, CellSpec, InjectorNode};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::messages::{method, PrepareMaintenance};
use cliquemap::workload::Workload;
use simnet::{HostCfg, SimDuration, SimTime};
use workloads::{MixWorkload, SizeDist};

const KEYS: u64 = 1_500;

fn main() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 4,
        num_spares: 1,
        clients_per_host: 2,
        ..CellSpec::default()
    };
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.attempt_timeout = SimDuration::from_micros(500);
    let backend_template: BackendCfg = spec.backend.clone();

    let workloads: Vec<Box<dyn Workload>> = (0..6)
        .map(|_| {
            Box::new(MixWorkload::new(
                "k",
                KEYS,
                0.3,
                0.95,
                SizeDist::fixed(512),
                8_000.0,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, workloads);
    bench::populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(512));

    // Phase 1: steady state.
    cell.run_for(SimDuration::from_millis(100));
    checkpoint(&mut cell, "steady state");

    // Phase 2: planned maintenance — backend 0 migrates to the spare.
    let spare = cell.spares[0];
    let injector_host = cell.sim.add_host(HostCfg::default());
    let body = PrepareMaintenance {
        spare_node: spare.0,
    }
    .encode_in(&bytes::Pool::new());
    let at = SimTime(cell.sim.now().nanos() + 10_000_000);
    cell.sim.add_node(
        injector_host,
        Box::new(InjectorNode::new(
            at,
            cell.backends[0],
            method::PREPARE_MAINTENANCE,
            body,
        )),
    );
    cell.run_for(SimDuration::from_millis(250));
    checkpoint(&mut cell, "after planned migration");
    let m = cell.sim.metrics();
    println!(
        "  migrated_entries={} takeovers={} retired={}",
        m.counter("cm.backend.migrate_in_entries"),
        m.counter("cm.backend.takeovers"),
        m.counter("cm.backend.retired"),
    );
    assert_eq!(m.counter("cm.backend.takeovers"), 1);

    // Phase 3: unplanned crash of another backend, restart with recovery.
    let victim = cell.backends[2];
    cell.sim.crash(victim);
    cell.run_for(SimDuration::from_millis(100));
    checkpoint(&mut cell, "one replica down (quorum still serves)");
    let mut replacement = backend_template;
    replacement.store.shard = 2;
    replacement.config_store = Some(cell.config_store);
    replacement.recover_on_start = true;
    cell.sim
        .revive(victim, Box::new(BackendNode::new(replacement)));
    cell.run_for(SimDuration::from_millis(300));
    checkpoint(&mut cell, "after restart + cohort repairs");
    let m = cell.sim.metrics();
    println!(
        "  recovery_fetches={} recovered_entries={}",
        m.counter("cm.backend.recovery_fetches"),
        m.counter("cm.backend.recovered_entries"),
    );
    assert!(m.counter("cm.backend.recovered_entries") > 0);
    assert_eq!(m.counter("cm.op_errors"), 0, "clients saw hard errors");
    println!("\nmaintenance_drill OK");
    // Quiet-keep: the key type is exercised by the drill itself.
    let _ = Bytes::new();
}

fn checkpoint(cell: &mut Cell, label: &str) {
    let h = bench::harness::hist_mut(cell, "cm.get.latency_ns");
    let line = format!(
        "p50={:.1}us p99.9={:.1}us",
        h.percentile(50.0) as f64 / 1e3,
        h.percentile(99.9) as f64 / 1e3
    );
    h.clear();
    let m = cell.sim.metrics();
    let hits = m.counter("cm.get.hits");
    let misses = m.counter("cm.get.misses");
    println!("[{label}] {line} hits={hits} misses={misses}");
}
