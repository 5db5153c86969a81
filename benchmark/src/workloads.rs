//! The benchmark's workloads, defined here and nowhere else: `simperf`'s
//! cells in `bench::simcore` look similar but may change without notice,
//! and a ledger whose inputs drift cannot compare two commits.
//!
//! Every cell is an **open loop in simulated time** (clients issue on a
//! schedule whatever the backlog) and a **batch job in host time** (the
//! simulator runs the fixed simulated span as fast as it can). Cell `k` of
//! a run with `--seed N` uses `spec.seed = 1000·N + k`; the seed drives the
//! simulator's RNG and, through it, every client's workload stream.

use crate::api::{
    Cell, CellSpec, ClientCacheCfg, DurabilitySpec, HostCfg, LookupStrategy, MixWorkload,
    ProductionGets, ProductionSets, RampWorkload, ReplicationMode, SimDuration, SizeDist, Workload,
};

/// The four workloads, in ledger order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "get_scar",
        why: "read path, host state fits in cache: simnet dispatch, rma SCAR serve, store lookup, layout parse and client quorum do the work; WAL, eviction, RPC writes idle",
        min_reps: 3,
    },
    WorkloadDef {
        name: "mut_durable",
        why: "80% SETs with eviction and a WAL: rpc codec, messages, store set path, slab, policy, durable group commit, device model; SCAR and RMA serve barely run",
        min_reps: 3,
    },
    WorkloadDef {
        name: "cell950",
        why: "950 hosts, 10K clients: same code as get_scar at several times the host cost per event because state no longer fits in cache; memory diet shows here",
        min_reps: 3,
    },
    WorkloadDef {
        name: "figures_all",
        why: "the figure experiments users run, CSVs compared byte for byte: only workload on 2xR/MSG/RPC GETs, chaos, restart and baselines; cell layers gain little",
        min_reps: 1,
    },
];

/// Name, reason and rep floor of one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name used on the command line and in result files.
    pub name: &'static str,
    /// Why the workload exists and what it bypasses (one line).
    pub why: &'static str,
    /// A run makes at least this many reps, each a fresh child process,
    /// and more while its `--seconds` budget lasts.
    pub min_reps: usize,
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Figures the end-to-end `figures_all` run leaves to the traced pass:
/// the four that cost 4–12 cpu-s each (31 of 48 cpu-s together). With them
/// a single rep would overrun the per-run budget the driver allows; the
/// traced pass still times all 29 as `figures.<id>.cpu_s`.
pub const FIGURES_TRACED_ONLY: [&str; 4] = ["f15", "skew", "batch", "adaptive"];

/// Figure ids of the end-to-end `figures_all` rep, in figure order.
pub fn e2e_figures() -> Vec<String> {
    crate::api::FIGURE_IDS
        .iter()
        .filter(|id| !FIGURES_TRACED_ONLY.contains(id))
        .map(|id| id.to_string())
        .collect()
}

/// A built, populated cell and what is needed to drive and check it.
pub struct BuiltCell {
    /// The cell, populated, not yet run.
    pub cell: Cell,
    /// Simulated span of one rep.
    pub span: SimDuration,
    /// Key prefix of the corpus.
    pub prefix: &'static str,
    /// Keys in the corpus.
    pub keys: u64,
    /// Value sizes of the corpus.
    pub sizes: SizeDist,
}

/// Simulated span of each cell at full scale.
const GET_SCAR_SPAN_MS: u64 = 4_060;
const MUT_DURABLE_SPAN_MS: u64 = 1_500;
const CELL950_SPAN_MS: u64 = 200;

fn lognormal_700() -> SizeDist {
    SizeDist {
        mu: (700f64).ln(),
        sigma: 1.0,
        min: 64,
        max: 64 << 10,
    }
}

/// The spec all three cells start from: C-states off, cohort scans and
/// access-record flushes off, modest store geometry.
fn base_spec(strategy: LookupStrategy, num_backends: u32, seed: u64) -> CellSpec {
    let mut spec = CellSpec {
        seed,
        replication: ReplicationMode::R32,
        num_backends,
        host: HostCfg::with_gbps(50.0).no_cstates(),
        ..CellSpec::default()
    };
    spec.backend.store.num_buckets = 4096;
    spec.backend.store.data_capacity = 32 << 20;
    spec.backend.store.max_data_capacity = 128 << 20;
    spec.backend.scan_interval = None;
    spec.client.strategy = strategy;
    spec.client.access_flush = None;
    spec
}

fn span(full_ms: u64, scale_div: u64) -> SimDuration {
    SimDuration::from_micros(full_ms * 1_000 / scale_div.max(1))
}

/// Build a cell workload by name. `scale_div` divides the simulated span
/// (1 = full scale; the smoke tests use 50).
pub fn build_cell(name: &str, seed: u64, scale_div: u64) -> Option<BuiltCell> {
    match name {
        "get_scar" => Some(get_scar(1000 * seed + 1, scale_div)),
        "mut_durable" => Some(mut_durable(1000 * seed + 2, scale_div)),
        "cell950" => Some(cell950(1000 * seed + 3, scale_div)),
        _ => None,
    }
}

/// 8 backends, SCAR at R=3.2, unbatched wire: six Ads MultiGet streams and
/// two bursty SET streams over 4K log-normal(700 B) keys.
fn get_scar(seed: u64, scale_div: u64) -> BuiltCell {
    let keys = 4_000;
    let day = SimDuration::from_millis(150);
    let sizes = lognormal_700();
    let mut spec = base_spec(LookupStrategy::Scar, 8, seed);
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
    populated(spec, wls, span(GET_SCAR_SPAN_MS, scale_div), keys, sizes)
}

/// 6 backends, 2xR at R=3.2, durability on: eight clients at 20K op/s,
/// 80% SETs, Zipf 0.9 over 20K keys, stores capped at 8 MiB so SETs evict.
fn mut_durable(seed: u64, scale_div: u64) -> BuiltCell {
    let keys = 20_000;
    // Values stop at 4 KiB: with the 64 KiB tail a large slab class can
    // stay unevictable through a SET's whole retry budget, and the
    // benchmark runs only workloads on which no operation fails.
    let sizes = SizeDist {
        max: 4 << 10,
        ..lognormal_700()
    };
    let mut spec = base_spec(LookupStrategy::TwoR, 6, seed);
    spec.clients_per_host = 2;
    spec.client.max_in_flight = 2048;
    spec.backend.store.data_capacity = 8 << 20;
    spec.backend.store.max_data_capacity = 8 << 20;
    spec.durability = Some(DurabilitySpec::default());
    let wls: Vec<Box<dyn Workload>> = (0..8)
        .map(|_| {
            Box::new(MixWorkload::new(
                "k",
                keys,
                0.9,
                0.2,
                sizes.clone(),
                20_000.0,
                u64::MAX,
            )) as Box<dyn Workload>
        })
        .collect();
    populated(spec, wls, span(MUT_DURABLE_SPAN_MS, scale_div), keys, sizes)
}

/// 950 hosts (1 config store + 115 backends + 834 client hosts) and 10,000
/// clients, SCAR at R=3.2 with the lease cache on: 9,900 GET clients ramp
/// 20→200 op/s and 100 write a steady 100 SET/s each, so the SET-latency
/// metrics exist on this cell too.
fn cell950(seed: u64, scale_div: u64) -> BuiltCell {
    let (spec, wls) = cell950_parts(seed);
    populated(
        spec,
        wls,
        span(CELL950_SPAN_MS, scale_div),
        CELL950_KEYS,
        SizeDist::fixed(CELL950_VALUE_LEN),
    )
}

const CELL950_KEYS: u64 = 4_000;
const CELL950_VALUE_LEN: usize = 1024;

fn cell950_parts(seed: u64) -> (CellSpec, Vec<Box<dyn Workload>>) {
    let mut spec = base_spec(LookupStrategy::Scar, 115, seed);
    spec.clients_per_host = 12;
    spec.client.max_in_flight = 64;
    // Without it the 10K-client cold-start herd outruns the config store.
    spec.config_read_coalescing = true;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: 64 << 10,
    });
    let wls = (0..10_000)
        .map(|i| {
            if i % 100 == 99 {
                Box::new(ProductionSets::steady(
                    "k",
                    CELL950_KEYS,
                    SizeDist::fixed(CELL950_VALUE_LEN),
                    100.0,
                )) as Box<dyn Workload>
            } else {
                Box::new(RampWorkload {
                    prefix: "k".into(),
                    keys: CELL950_KEYS,
                    rate0: 20.0,
                    rate1: 200.0,
                    duration: SimDuration::from_millis(450),
                    stop_at_end: false,
                })
            }
        })
        .collect();
    (spec, wls)
}

/// `Cell::build` of the `cell950` spec alone, for
/// `cliquemap.cell.build_us_per_node`.
pub fn cell950_unpopulated(seed: u64) -> Cell {
    let (spec, wls) = cell950_parts(1000 * seed + 3);
    Cell::build(spec, wls)
}

fn populated(
    spec: CellSpec,
    wls: Vec<Box<dyn Workload>>,
    span: SimDuration,
    keys: u64,
    sizes: SizeDist,
) -> BuiltCell {
    let mut cell = Cell::build(spec, wls);
    crate::api::populate(&mut cell, "k", keys, &sizes);
    BuiltCell {
        cell,
        span,
        prefix: "k",
        keys,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2e_figures_leave_out_only_the_traced_four() {
        let all = crate::api::FIGURE_IDS;
        let ids = e2e_figures();
        assert_eq!(ids.len() + FIGURES_TRACED_ONLY.len(), all.len());
        assert!(FIGURES_TRACED_ONLY.iter().all(|id| all.contains(id)));
        assert!(!ids.iter().any(|id| id == "batch"));
    }
}
