//! The one adapter between the benchmark and the repo's crates.
//!
//! Every symbol the benchmark needs from `crates/*` is named here — as a
//! re-export when the benchmark only builds or passes the value, as a
//! function when it reads or checks something — so a refactor can see its
//! whole blast radius on the ledger in one file. `README.md` lists the
//! pinned symbols; a refactor that must change one is preceded by a
//! benchmark change that adapts this file without redefining any metric.

pub use bytes::{Bytes, Pool};

pub use adaptive::{Controller, ControllerCfg, Strategy};
pub use cliquemap::backend::BackendNode;
pub use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
pub use cliquemap::client::LookupStrategy;
pub use cliquemap::client_cache::{ClientCache, ClientCacheCfg};
pub use cliquemap::config::ReplicationMode;
pub use cliquemap::hash::{place, DefaultHasher, KeyHash, KeyHasher};
pub use cliquemap::layout::{
    bucket_size, bucket_slot_mut, checksum, encode_data_entry, parse_data_entry, scan_bucket,
    IndexEntry, Pointer,
};
pub use cliquemap::messages::{GetResp, SetReq};
pub use cliquemap::policy::{HotKeyTracker, HotReplCfg, LruPolicy};
pub use cliquemap::slab::SlabAllocator;
pub use cliquemap::store::{BackendStore, CliqueScarResolver, StoreCfg};
pub use cliquemap::version::VersionNumber;
pub use cliquemap::workload::{ClientOp, UniformWorkload, Workload};
pub use obs::Sketch;
pub use simnet::{
    CalendarQueue, Ctx, DeviceCfg, Event, FabricCfg, Histogram, HostCfg, HostId, Metrics, Node,
    NodeId, Sim, SimDuration, SimRng, SimTime,
};
pub use workloads::{
    MixWorkload, Prefill, ProductionGets, ProductionSets, RampWorkload, SizeDist, ZipfRanks,
};

/// `rma` symbols the unit costs time.
pub mod rma {
    pub use ::rma::codec::{encode_batch_scar_req_in, encode_scar_req_in, BatchRespWriter};
    pub use ::rma::{
        decode, encode_read_resp, encode_scar_resp, serve, BatchScarEntry, BatchScarReq, PonyCfg,
        ReadResp, RegionTable, RmaEnvelope, RmaStatus, ScarReq, ScarResp, Transport,
    };
}

/// `rpc` symbols the unit costs time.
pub mod rpc {
    pub use ::rpc::{decode, encode_request, Request, PROTOCOL_VERSION};
}

/// `durable` symbols the unit costs time.
pub mod durable {
    pub use ::durable::{append_record, decode_stream, GroupCommit, Media, Record, KIND_SET};
}

/// Ids of every figure experiment, in figure order.
pub const FIGURE_IDS: &[&str] = bench::ALL_EXPERIMENTS;

/// Regenerate one figure and render it the way `figures --csv` writes it.
pub fn figure_csv(id: &str) -> String {
    bench::run_experiment(id).to_csv()
}

/// Install keys `{prefix}{0..keys}` on every replica at one version.
pub fn populate(cell: &mut Cell, prefix: &str, keys: u64, sizes: &SizeDist) {
    bench::populate_cell(cell, prefix, keys, sizes);
}

/// Everything the ledger reads out of a cell's `Sim`, taken at one instant.
/// All fields are exact for a fixed seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellStats {
    /// `Sim::events_processed`.
    pub events: u64,
    /// Completed GET ops (single GETs + MultiGet containers).
    pub gets: u64,
    /// Completed mutation ops (single SETs + MultiSet containers).
    pub sets: u64,
    /// GET keys resolved, counting each MultiGet member.
    pub get_keys: u64,
    /// `cm.get.hits`.
    pub hits: u64,
    /// `cm.get.misses`.
    pub misses: u64,
    /// `cm.op_errors`.
    pub op_errors: u64,
    /// `cm.client.overload_drops`.
    pub overload_drops: u64,
    /// `cm.retries`.
    pub retries: u64,
    /// `cm.client.rma_frames`.
    pub rma_frames: u64,
    /// `cm.backend.rma_ops`.
    pub backend_rma_ops: u64,
    /// `cm.rpc_bytes`.
    pub rpc_bytes: u64,
    /// `cm.ccache.hits`.
    pub ccache_hits: u64,
    /// `cm.ccache.misses`.
    pub ccache_misses: u64,
    /// `cm.backend.wal_appends`.
    pub wal_appends: u64,
    /// `cm.backend.wal_fsyncs`.
    pub wal_fsyncs: u64,
    /// Σ `HostStats::cpu_busy_ns` over all hosts.
    pub cpu_busy_ns: u64,
    /// Σ `HostStats::tx_bytes` over all hosts.
    pub tx_bytes: u64,
    /// `cm.get.latency_ns`: (p50, p99, samples).
    pub get_latency: (u64, u64, u64),
    /// `cm.set.latency_ns`: (p50, p99, samples).
    pub set_latency: (u64, u64, u64),
    /// `Sim::queue_high_water`.
    pub queue_hwm: u64,
    /// `Sim::pending_pool_len`.
    pub pending_pool_len: u64,
    /// `Sim::node_count`.
    pub nodes: u64,
}

impl CellStats {
    /// Ops that completed.
    pub fn ops(&self) -> u64 {
        self.gets + self.sets
    }

    /// Ops that exhausted their retries or were shed at admission.
    pub fn failed(&self) -> u64 {
        self.op_errors + self.overload_drops
    }

    /// Ops the clients tried to issue.
    pub fn attempted(&self) -> u64 {
        self.ops() + self.overload_drops
    }
}

fn latency(m: &Metrics, name: &str) -> (u64, u64, u64) {
    m.hist_ref(name).map_or((0, 0, 0), |h| {
        (h.percentile(50.0), h.percentile(99.0), h.count())
    })
}

/// Snapshot the cell's counters, histograms and host accounting.
pub fn cell_stats(cell: &Cell) -> CellStats {
    let sim = &cell.sim;
    let m = sim.metrics();
    let (mut cpu_busy_ns, mut tx_bytes) = (0, 0);
    for h in 0..sim.host_count() {
        let s = sim.host(HostId(h as u32));
        cpu_busy_ns += s.cpu_busy_ns;
        tx_bytes += s.tx_bytes;
    }
    let single_gets = m.counter("cm.get.completed");
    let member_keys = m.hist_ref("cm.getkey.latency_ns").map_or(0, |h| h.count());
    CellStats {
        events: sim.events_processed(),
        gets: cell.gets_completed(),
        sets: cell.sets_completed(),
        get_keys: single_gets + member_keys,
        hits: cell.hits(),
        misses: cell.misses(),
        op_errors: cell.op_errors(),
        overload_drops: m.counter("cm.client.overload_drops"),
        retries: m.counter("cm.retries"),
        rma_frames: cell.client_rma_frames(),
        backend_rma_ops: m.counter("cm.backend.rma_ops"),
        rpc_bytes: m.counter("cm.rpc_bytes"),
        ccache_hits: m.counter("cm.ccache.hits"),
        ccache_misses: m.counter("cm.ccache.misses"),
        wal_appends: m.counter("cm.backend.wal_appends"),
        wal_fsyncs: m.counter("cm.backend.wal_fsyncs"),
        cpu_busy_ns,
        tx_bytes,
        get_latency: latency(m, "cm.get.latency_ns"),
        set_latency: latency(m, "cm.set.latency_ns"),
        queue_hwm: sim.queue_high_water() as u64,
        pending_pool_len: sim.pending_pool_len() as u64,
        nodes: sim.node_count() as u64,
    }
}

/// Outcome of reading sampled keys back from every replica's store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaCheck {
    /// (key, replica) pairs whose index holds the key.
    pub present: u64,
    /// Present pairs whose stored entry failed validation or whose key or
    /// value differ from what the workload wrote.
    pub bad: u64,
}

/// For `samples` keys drawn from `rng`, read the entry on each of the
/// key's replicas straight from the backend's store. A present entry must
/// pass `parse_data_entry` (`BackendStore::fetch` returns `None` when it
/// does not) and hold exactly `UniformWorkload::value_for(key, len)` —
/// every writer in the benchmark's cells installs that value.
pub fn check_replicas(
    cell: &mut Cell,
    prefix: &str,
    keys: u64,
    sizes: &SizeDist,
    samples: u64,
    rng: &mut SimRng,
) -> ReplicaCheck {
    let n = cell.backends.len() as u32;
    let config_store = cell.config_store;
    let copies = cell
        .sim
        .with_node::<cliquemap::config::ConfigStoreNode, _>(config_store, |cs| {
            cs.config().replication.copies()
        })
        .expect("config store node");
    let mut out = ReplicaCheck::default();
    for _ in 0..samples {
        let key = Prefill::key_name(prefix, rng.gen_range(keys));
        let want = UniformWorkload::value_for(&key, sizes.size_for_key(&key));
        let hash = DefaultHasher.hash(&key);
        let shard = place(hash, n, 1).shard;
        for r in 0..copies {
            let backend = cell.backends[((shard + r) % n) as usize];
            let (indexed, pair) = cell
                .sim
                .with_node::<BackendNode, _>(backend, |b| {
                    (b.store().lookup(hash).is_some(), b.store().fetch(hash))
                })
                .expect("backend node");
            if !indexed {
                continue;
            }
            out.present += 1;
            let good = pair.is_some_and(|(k, v, _)| k == key && v == want);
            out.bad += u64::from(!good);
        }
    }
    out
}

/// Names of the `obs` latency stages, in stage-id order.
pub fn stage_names() -> impl Iterator<Item = &'static str> {
    (0..obs::stage::COUNT).map(|s| obs::stage::name(s as u8))
}

/// Share of traced ops' end-to-end simulated time spent in each `obs`
/// stage, accumulated across drains of one traced run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Nanoseconds per stage, indexed by `obs::stage` id.
    pub stage_ns: [u64; obs::stage::COUNT],
    /// Ops attributed.
    pub ops: u64,
}

impl StageTotals {
    /// Drain the cell's completed traces and add their attribution.
    pub fn drain(&mut self, cell: &mut Cell) {
        for t in cell.sim.drain_traces() {
            let a = obs::attribute(&t);
            for (total, ns) in self.stage_ns.iter_mut().zip(a.stages) {
                *total += ns;
            }
            self.ops += 1;
        }
    }

    /// `(stage name, share of attributed time)` for every stage.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.stage_ns.iter().sum::<u64>().max(1) as f64;
        stage_names()
            .zip(self.stage_ns)
            .map(|(name, ns)| (name, ns as f64 / total))
            .collect()
    }
}
