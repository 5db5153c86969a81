//! The simulator-core macro cells the determinism regression tests pin.
//!
//! Fixed-seed, fixed-topology scenarios chosen to stress the simulator's
//! hot paths end to end: the Ads cell drives the batched GET + bursty SET
//! mix through SCAR at R=3.2, the Pony ramp pushes 20 clients through a
//! 50x offered-load ramp so host engine pools scale out under pressure,
//! and `cell950` is the paper-scale topology. Same seeds ⇒ same events ⇒
//! same metrics, so any divergence between runs (or across refactors that
//! claim to be behaviour-preserving) is a bug. Perf is measured by
//! `benchmark/`, which defines its own cells.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::client_cache::ClientCacheCfg;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use rma::PonyCfg;
use simnet::SimDuration;
use workloads::{ProductionGets, ProductionSets, RampWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::populate_cell;

/// F8-style Ads cell: batched production GETs + steady SETs with backfill
/// bursts against an R=3.2 SCAR cell, run for a fixed simulated span.
pub fn ads_cell() -> Cell {
    let keys = 4_000u64;
    let day = SimDuration::from_millis(150);
    let sizes = SizeDist {
        mu: (700f64).ln(),
        sigma: 1.0,
        min: 64,
        max: 64 << 10,
    };
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 8);
    spec.seed = 31;
    spec.clients_per_host = 2;
    spec.client.max_in_flight = 2048;
    let mut wls: Vec<Box<dyn Workload>> = Vec::new();
    for _ in 0..6 {
        wls.push(Box::new(ProductionGets::ads("k", keys, 2_500.0, day)));
    }
    for _ in 0..2 {
        let mut w = ProductionSets::steady("k", keys, sizes.clone(), 1_500.0);
        w.backfill_multiplier = 6.0;
        w.backfill_period = SimDuration::from_millis(150);
        w.backfill_len = SimDuration::from_millis(15);
        wls.push(Box::new(w));
    }
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", keys, &sizes);
    cell
}

/// F15-style Pony ramp: 20 clients ramp offered load 50x against an R=1
/// SCAR cell, pushing host engine pools through scale-out.
pub fn pony_ramp_cell() -> Cell {
    let keys = 4_000u64;
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R1, 10);
    spec.seed = 43;
    spec.colocate_fraction = 0.5;
    spec.clients_per_host = 1;
    spec.client.max_in_flight = 4096;
    let pony = PonyCfg {
        min_engines: 1,
        max_engines: 4,
        op_cost: SimDuration::from_micros(3),
        per_kb: SimDuration::from_nanos(500),
        window: SimDuration::from_millis(1),
    };
    spec.backend.pony = pony.clone();
    spec.client.pony = pony;
    let wls: Vec<Box<dyn Workload>> = (0..20)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys,
                rate0: 2_000.0,
                rate1: 100_000.0,
                duration: SimDuration::from_secs(2),
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", keys, &SizeDist::fixed(4096));
    cell
}

/// Paper-scale macro cell: 950 hosts (1 config store + 115 backends + 834
/// client hosts), 10,000 client tasks ramping offered load 10x. This is
/// the topology class the paper validated on (950-host testbeds) and the
/// cell that makes event-queue and host-state scaling visible: thousands
/// of concurrent same-window events, a node table an order of magnitude
/// past the other cells, and enough in-flight ops to exercise the pending
/// pool. Per-client rates are low — aggregate load is what matters here.
/// A modest client-side lease cache is on so the local-hit path runs at
/// scale.
pub fn cell950() -> Cell {
    let keys = 4_000u64;
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 115);
    spec.seed = 53;
    spec.clients_per_host = 12;
    spec.client.max_in_flight = 64;
    // 10K clients cold-starting against one config store: without read
    // coalescing the attempt-timeout retransmit herd outruns the store's
    // serve rate and exhausts its deferred-response namespace.
    spec.config_read_coalescing = true;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: 64 << 10,
    });
    let wls: Vec<Box<dyn Workload>> = (0..10_000)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys,
                rate0: 20.0,
                rate1: 200.0,
                duration: SimDuration::from_millis(450),
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", keys, &SizeDist::fixed(1024));
    cell
}
