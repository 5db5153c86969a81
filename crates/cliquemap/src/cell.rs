//! Cell builder: wire a complete CliqueMap deployment into a simulation.
//!
//! A *cell* is one deployment: a config store, `N` backends serving shards
//! `0..N`, optional warm spares, and a fleet of clients driving workloads.
//! The builder handles placement (dedicated or co-tenant client hosts),
//! identity assignment, and initial configuration distribution — the
//! boilerplate every integration test, example, and benchmark needs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use rma::PonyHost;
/// The transport types [`CellSpec`] and the node identities name.
pub use rma::{PonyCfg, Transport, TransportKind};
use simnet::{
    Ctx, DeviceCfg, Event, FabricCfg, HostCfg, HostId, Node, NodeId, Sim, SimDuration, SimTime,
};

use crate::backend::{BackendCfg, BackendIdentity, BackendNode};
use crate::client::{ClientCfg, ClientIdentity, ClientNode, ClientShared};
use crate::client_cache::SharedValues;
use crate::config::{CellConfig, ConfigStoreNode, ReplicationMode};
use crate::hash::{place, DefaultHasher, KeyHasher};
use crate::history::{self, History};
use crate::store::SharedEntries;
use crate::wal::DurableCfg;
use crate::workload::Workload;

/// A one-shot control-plane injector: sends a single RPC (e.g.
/// PREPARE_MAINTENANCE) at a scheduled instant. Used by maintenance
/// experiments to stand in for the operator tooling that notifies backends
/// of planned events.
#[derive(Debug)]
pub struct InjectorNode {
    /// When to fire.
    pub at: SimTime,
    /// Target node.
    pub dst: NodeId,
    /// RPC method id.
    pub method: u16,
    /// RPC body.
    pub body: Bytes,
    fired: bool,
}

impl InjectorNode {
    /// Schedule `method(body)` to `dst` at `at`.
    pub fn new(at: SimTime, dst: NodeId, method: u16, body: Bytes) -> InjectorNode {
        InjectorNode {
            at,
            dst,
            method,
            body,
            fired: false,
        }
    }
}

impl Node for InjectorNode {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                let delay = self.at.since(ctx.now());
                ctx.set_timer(delay, 1);
            }
            Event::Timer(_) if !self.fired => {
                self.fired = true;
                let req = rpc::Request {
                    version: rpc::PROTOCOL_VERSION,
                    method: self.method,
                    id: 1,
                    auth: 0,
                    deadline_ns: u64::MAX,
                    body: self.body.clone(),
                };
                ctx.send(self.dst, rpc::encode_request(&req));
            }
            _ => {}
        }
    }

    fn label(&self) -> String {
        "injector".into()
    }
}

/// Per-cell RAM-first durability: gives every backend a WAL on its host's
/// timed storage device (see [`crate::wal`]). The cell builder keeps a
/// handle to each backend's [`durable::Media`] in [`Cell::media`], and
/// [`Cell::restart_backend`] hands the same media to the replacement node —
/// which is what makes its restart warm.
#[derive(Clone, Debug)]
pub struct DurabilitySpec {
    /// Storage device timing model installed on every host.
    pub device: DeviceCfg,
    /// Trickle-flush period (idle-slot checkpoint checks).
    pub trickle_interval: SimDuration,
}

impl Default for DurabilitySpec {
    fn default() -> Self {
        DurabilitySpec {
            device: DeviceCfg::default(),
            trickle_interval: crate::wal::TRICKLE_INTERVAL,
        }
    }
}

/// Declarative description of a cell: the choices every node of the cell
/// must agree on, stated once, and a template for each kind of node. What
/// differs per node (shard, client id, host transport, media) the builder
/// assigns.
pub struct CellSpec {
    /// Simulation seed.
    pub seed: u64,
    /// Fabric parameters.
    pub fabric: FabricCfg,
    /// Host template (NIC speed, cores, C-states).
    pub host: HostCfg,
    /// Replication mode.
    pub replication: ReplicationMode,
    /// The RMA protocol every host speaks.
    pub transport: TransportKind,
    /// Pony Express engine configuration of every host's engine pool (used
    /// when the transport is Pony Express).
    pub pony: PonyCfg,
    /// Key hasher every client and backend places keys with (§6.5).
    pub hasher: Arc<dyn KeyHasher>,
    /// Number of primary backends (== shards).
    pub num_backends: u32,
    /// Number of warm spares.
    pub num_spares: u32,
    /// Clients per client host.
    pub clients_per_host: u32,
    /// Fraction of clients placed co-tenant on backend hosts (the Fig. 15
    /// fleet mixes dedicated client hosts with co-tenant ones). 0 = all
    /// clients on their own hosts; 1 = all co-tenant.
    pub colocate_fraction: f64,
    /// Backend template.
    pub backend: BackendCfg,
    /// Client template (the config-store field is overridden).
    pub client: ClientCfg,
    /// Coalesce retransmitted GET_CONFIGs at the config store (see
    /// [`ConfigStoreNode::with_read_coalescing`]). Required for macro
    /// cells where the cold-start herd outruns the store's serve rate;
    /// off by default so existing figure schedules are untouched.
    pub config_read_coalescing: bool,
    /// RAM-first durability (WAL + group commit + warm restart). `None`
    /// (the default) builds the cell without the subsystem entirely:
    /// committed figures regenerate byte-identical.
    pub durability: Option<DurabilitySpec>,
}

impl Default for CellSpec {
    fn default() -> Self {
        CellSpec {
            seed: 42,
            fabric: FabricCfg::default(),
            host: HostCfg::default(),
            replication: ReplicationMode::R32,
            transport: TransportKind::PonyExpress,
            pony: PonyCfg::default(),
            hasher: Arc::new(DefaultHasher),
            num_backends: 3,
            num_spares: 0,
            clients_per_host: 1,
            colocate_fraction: 0.0,
            backend: BackendCfg::default(),
            client: ClientCfg::default(),
            config_read_coalescing: false,
            durability: None,
        }
    }
}

/// A built cell: the simulation plus the ids a harness needs.
pub struct Cell {
    /// The simulation world.
    pub sim: Sim,
    /// Config store node.
    pub config_store: NodeId,
    /// Primary backends, indexed by shard.
    pub backends: Vec<NodeId>,
    /// Warm spares.
    pub spares: Vec<NodeId>,
    /// Clients.
    pub clients: Vec<NodeId>,
    /// Hosts running backends (index parallel to `backends`).
    pub backend_hosts: Vec<HostId>,
    /// Hosts running clients.
    pub client_hosts: Vec<HostId>,
    /// Host-level Pony engine pools (one per host that runs Pony nodes),
    /// for engine-count sampling.
    pub pony_pools: HashMap<HostId, Rc<RefCell<PonyHost>>>,
    /// Per-backend durable media, parallel to `backends` (empty unless
    /// [`CellSpec::durability`] was set). [`Cell::restart_backend`] hands
    /// the victim's media to its replacement, which replays it.
    pub media: Vec<Rc<RefCell<durable::Media>>>,
    /// The one table every backend's log keeps its records in, so the
    /// replicas of a SET log one buffer (`None` unless durable).
    wal_records: Option<durable::RecordTable>,
    /// The one table every backend's data region keeps its committed
    /// entries in, so the replicas of a SET hold one buffer (`None` unless
    /// the cell is replicated).
    entries: Option<SharedEntries>,
    /// What the clients hold the same way: the hasher, interned configs
    /// and geometries, metric handles, and the lease caches' value table
    /// (only when `client.cache` is set).
    client_shared: ClientShared,
    /// The spec the cell was built from: restarts build from it again.
    spec: CellSpec,
}

impl Cell {
    /// Build a cell. `workloads` supplies one workload per client; the
    /// client count is `workloads.len()`.
    pub fn build(spec: CellSpec, workloads: Vec<Box<dyn Workload>>) -> Cell {
        let mut sim = Sim::new(spec.fabric.clone(), spec.seed);
        if let Some(d) = &spec.durability {
            sim.enable_devices(d.device.clone());
        }
        // The config store occupies node id 0 on its own host; it is
        // populated with the real configuration once all ids are known.
        let cs_host = sim.add_host(spec.host.clone());
        let mut cs_node = ConfigStoreNode::new(CellConfig {
            config_id: 0,
            replication: spec.replication,
            shards: Vec::new(),
            spares: Vec::new(),
        });
        if spec.config_read_coalescing {
            cs_node = cs_node.with_read_coalescing();
        }
        let config_store = sim.add_node(cs_host, Box::new(cs_node));
        // One value table for all the cell's lease caches: clients reading
        // one corpus cache the same versions.
        let shared_values = spec.client.cache.as_ref().map(|_| SharedValues::new());
        let client_shared = ClientShared::new(spec.hasher.clone(), shared_values);
        let wal_records = spec
            .durability
            .as_ref()
            .map(|_| durable::RecordTable::new());
        let entries = (spec.replication.copies() > 1).then(SharedEntries::new);
        let mut cell = Cell {
            sim,
            config_store,
            backends: Vec::new(),
            spares: Vec::new(),
            clients: Vec::new(),
            backend_hosts: Vec::new(),
            client_hosts: Vec::new(),
            pony_pools: HashMap::new(),
            media: Vec::new(),
            wal_records,
            entries,
            client_shared,
            spec,
        };

        // Backends, then warm spares (no shard identity yet).
        for shard in 0..cell.spec.num_backends {
            let (id, host) = cell.add_backend(Some(shard));
            cell.backends.push(id);
            cell.backend_hosts.push(host);
        }
        for _ in 0..cell.spec.num_spares {
            let (id, _) = cell.add_backend(None);
            cell.spares.push(id);
        }

        // Clients: packed onto hosts, possibly co-tenant with backends.
        let per_host = cell.spec.clients_per_host.max(1) as usize;
        let total = workloads.len();
        let colocate = cell.spec.colocate_fraction.clamp(0.0, 1.0);
        let cotenant = (colocate * total as f64).round() as usize;
        let mut dedicated_placed = 0usize;
        let mut client_cfg = cell.spec.client.clone();
        client_cfg.config_store = config_store;
        let client_cfg = Rc::new(client_cfg);
        for (i, workload) in workloads.into_iter().enumerate() {
            let host = if i < cotenant {
                cell.backend_hosts[i % cell.backend_hosts.len()]
            } else {
                if dedicated_placed.is_multiple_of(per_host) {
                    let h = cell.sim.add_host(cell.spec.host.clone());
                    cell.client_hosts.push(h);
                }
                dedicated_placed += 1;
                *cell.client_hosts.last().expect("pushed above")
            };
            let client_id = i as u32 + 1;
            let me = ClientIdentity {
                client_id,
                // Seed inside the gate: with adaptive off the builder draws
                // nothing from the sim RNG, so existing schedules are
                // bit-for-bit untouched.
                adaptive_seed: match client_cfg.adaptive {
                    Some(_) => cell.sim.fork_rng().next_u64() ^ client_id as u64,
                    None => 0,
                },
                transport: cell.transport(host),
                shared: cell.client_shared.clone(),
            };
            let node = ClientNode::new(client_cfg.clone(), me, workload);
            cell.clients.push(cell.sim.add_node(host, Box::new(node)));
        }

        // Install the real configuration.
        let config = cell.config();
        cell.sim
            .with_node::<ConfigStoreNode, _>(config_store, |cs| cs.set_config(config))
            .expect("config store exists");
        cell
    }

    /// A node's transport on `host`: Pony Express nodes share their host's
    /// engine pool, made on first use.
    fn transport(&mut self, host: HostId) -> Transport {
        match self.spec.transport {
            TransportKind::PonyExpress => {
                let pony = &self.spec.pony;
                let pool = self
                    .pony_pools
                    .entry(host)
                    .or_insert_with(|| Rc::new(RefCell::new(PonyHost::new(pony.clone()))));
                Transport::pony_shared(pool.clone())
            }
            TransportKind::OneRma => Transport::one_rma(),
            TransportKind::Rdma => Transport::rdma(),
        }
    }

    /// Add backend `shard` (`None`: a warm spare) on a host of its own;
    /// only a shard gets media.
    fn add_backend(&mut self, shard: Option<u32>) -> (NodeId, HostId) {
        let host = self.sim.add_host(self.spec.host.clone());
        if let Some(table) = self.wal_records.as_ref().filter(|_| shard.is_some()) {
            let media = durable::Media::new(table.clone());
            self.media.push(Rc::new(RefCell::new(media)));
        }
        let me = self.identity(shard, host, false);
        let node = BackendNode::new(self.spec.backend.clone(), me);
        (self.sim.add_node(host, Box::new(node)), host)
    }

    /// What the cell assigns backend `shard` on `host`, at build and
    /// restart alike: the host's transport, the shard's media when the cell
    /// is durable, the cell's config store and hasher.
    fn identity(&mut self, shard: Option<u32>, host: HostId, recover: bool) -> BackendIdentity {
        let durable = self
            .spec
            .durability
            .as_ref()
            .zip(shard)
            .map(|(d, s)| DurableCfg {
                media: self.media[s as usize].clone(),
                trickle_interval: d.trickle_interval,
            });
        BackendIdentity {
            shard,
            config_store: Some(self.config_store),
            transport: self.transport(host),
            durable,
            hasher: self.spec.hasher.clone(),
            entries: self.entries.clone(),
            recover,
            history: self.client_shared.history().clone(),
        }
    }

    /// Backend `i` as the cell built it, pulling repairs from its cohort
    /// at start when `recover` is set (§5.4): a closure that owns what it
    /// needs, so a fault plan's reviver can rebuild it at every restart.
    pub fn backend_reviver(
        &mut self,
        i: usize,
        recover: bool,
    ) -> impl Fn() -> BackendNode + 'static {
        let me = self.identity(Some(i as u32), self.backend_hosts[i], recover);
        let cfg = self.spec.backend.clone();
        move || BackendNode::new(cfg.clone(), me.clone())
    }

    /// Revive crashed backend `i` as the cell built it: the same host
    /// engine pool, its media, the cell's first config.
    pub fn restart_backend(&mut self, i: usize, recover: bool) {
        let node = self.backend_reviver(i, recover)();
        self.sim.revive(self.backends[i], Box::new(node));
    }

    /// The value table the cell's lease caches share (`None` when
    /// `client.cache` is off: nothing is built).
    pub fn shared_values(&self) -> Option<&SharedValues> {
        self.client_shared.values()
    }

    /// The table the backends' logs keep their records in (`None` when
    /// the cell is not durable).
    pub fn wal_records(&self) -> Option<&durable::RecordTable> {
        self.wal_records.as_ref()
    }

    /// The table the backends' data regions keep their committed entries
    /// in (`None` when the cell is not replicated).
    pub fn shared_entries(&self) -> Option<&SharedEntries> {
        self.entries.as_ref()
    }

    /// The tables every client of the cell shares.
    pub fn client_shared(&self) -> &ClientShared {
        &self.client_shared
    }

    /// Keep a [`History`] of the cell from now on: every op a client
    /// admits and every commit a backend makes. Off (the default), each
    /// recording site costs one branch and nothing else.
    pub fn record_history(&mut self) {
        let mut tap = self.client_shared.history().borrow_mut();
        tap.get_or_insert_with(Box::default);
    }

    /// The cell's History so far, with every touched key as each replica
    /// of it (base set, current config) holds it now. Panics
    /// unless [`Cell::record_history`] was called.
    pub fn history(&mut self) -> History {
        let tap = self.client_shared.history().borrow();
        let mut h = *tap.clone().expect("record_history first");
        drop(tap);
        let config = self
            .sim
            .with_node::<ConfigStoreNode, _>(self.config_store, |cs| cs.config().clone())
            .unwrap_or_else(|| self.config());
        let copies = config.replication.copies().min(config.num_shards());
        let mut keys: Vec<u128> = h.ops.iter().map(|op| op.key).collect();
        keys.extend(h.commits.iter().map(|c| c.key));
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let mut replicas = [NodeId(0); 8];
            let shard = place(key, config.num_shards(), 1).shard;
            let n = config.replicas_n_buf(shard, copies, &mut replicas);
            for &replica in &replicas[..n] {
                let live = self.sim.is_alive(replica);
                let held = self.sim.with_node::<BackendNode, _>(replica, |b| {
                    let store = b.store();
                    match store.fetch(key) {
                        Some((_, value, version)) => (version, Some(history::value_hash(&value))),
                        None => (store.tombstones().get(key).unwrap_or_default(), None),
                    }
                });
                let (version, value) = held.filter(|_| live).unwrap_or_default();
                let (replica, version) = (replica.0, version.0);
                h.copies.push(history::Copy {
                    key,
                    replica,
                    live,
                    version,
                    value,
                });
            }
        }
        let mut nodes = [self.backends.clone(), self.spares.clone()].concat();
        nodes.retain(|&b| self.sim.is_alive(b));
        h.evicted = nodes.into_iter().any(|b| {
            let evictions = self
                .sim
                .with_node::<BackendNode, _>(b, |b| b.store().stats.evictions);
            evictions.unwrap_or(0) > 0
        });
        h.end = self.sim.now().nanos();
        h.deadline = self.spec.client.retry.op_deadline.nanos();
        h.scan = self.spec.backend.scan_interval.map(|s| s.nanos());
        h
    }

    /// The config the cell was built with.
    fn config(&self) -> CellConfig {
        CellConfig {
            config_id: 1,
            replication: self.spec.replication,
            shards: self.backends.iter().map(|n| n.0).collect(),
            spares: self.spares.iter().map(|n| n.0).collect(),
        }
    }

    /// Engine count on one host (1 when the host runs no Pony pool).
    pub fn engines_on(&self, host: HostId) -> u32 {
        self.pony_pools
            .get(&host)
            .map(|p| p.borrow().engine_count())
            .unwrap_or(1)
    }

    /// Run the cell for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Total completed GETs across the cell.
    pub fn gets_completed(&self) -> u64 {
        self.sim.metrics().counter("cm.get.completed")
            + self.sim.metrics().counter("cm.get.batches")
    }

    /// GET hit count.
    pub fn hits(&self) -> u64 {
        self.sim.metrics().counter("cm.get.hits")
    }

    /// GET miss count.
    pub fn misses(&self) -> u64 {
        self.sim.metrics().counter("cm.get.misses")
    }

    /// Completed mutations (MultiSet containers count once, like their
    /// GET-side counterpart in [`Cell::gets_completed`]).
    pub fn sets_completed(&self) -> u64 {
        self.sim.metrics().counter("cm.set.completed")
            + self.sim.metrics().counter("cm.set.batches")
    }

    /// RMA wire frames issued by all clients (single ops and batched
    /// doorbells both count one per frame).
    pub fn client_rma_frames(&self) -> u64 {
        self.sim.metrics().counter("cm.client.rma_frames")
    }

    /// Operations that exhausted their retry budget.
    pub fn op_errors(&self) -> u64 {
        self.sim.metrics().counter("cm.op_errors")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LookupStrategy;
    use crate::workload::{ClientOp, OpOutcome, ScriptWorkload};
    use bytes::Bytes;
    use simnet::SimTime;

    fn script(ops: Vec<(u64, ClientOp)>) -> Box<dyn Workload> {
        Box::new(ScriptWorkload::new(
            ops.into_iter()
                .map(|(us, op)| (SimDuration::from_micros(us), op))
                .collect(),
        ))
    }

    fn get(key: &str) -> ClientOp {
        ClientOp::Get {
            key: Bytes::from(key.to_string()),
        }
    }

    fn set(key: &str, value: &str) -> ClientOp {
        ClientOp::Set {
            key: Bytes::from(key.to_string()),
            value: Bytes::from(value.to_string()),
        }
    }

    /// A cell of one client running `ops`, keeping a History.
    fn recorded(spec: CellSpec, ops: Vec<(u64, ClientOp)>) -> Cell {
        let mut cell = Cell::build(spec, vec![script(ops)]);
        cell.record_history();
        cell
    }

    /// The client's outcomes after `run`, once `check` finds nothing.
    fn checked(cell: &mut Cell, replication: ReplicationMode) -> Vec<OpOutcome> {
        let h = cell.history();
        assert_eq!(history::check(&h, replication), [], "{h:?}");
        h.outcomes(cell.clients[0].0)
    }

    fn small_spec(strategy: LookupStrategy, replication: ReplicationMode) -> CellSpec {
        let mut spec = CellSpec {
            replication,
            num_backends: 4,
            ..CellSpec::default()
        };
        spec.backend.store.num_buckets = 64;
        spec.backend.store.data_capacity = 1 << 20;
        spec.backend.store.max_data_capacity = 8 << 20;
        spec.backend.scan_interval = None;
        spec.client.strategy = strategy;
        spec
    }

    fn run_script_cell(
        strategy: LookupStrategy,
        replication: ReplicationMode,
        ops: Vec<(u64, ClientOp)>,
    ) -> (Cell, Vec<OpOutcome>) {
        let mut cell = recorded(small_spec(strategy, replication), ops);
        cell.run_for(SimDuration::from_secs(1));
        let done = checked(&mut cell, replication);
        (cell, done)
    }

    #[test]
    fn value_table_exists_iff_the_cache_is_on() {
        let spec = small_spec(LookupStrategy::Scar, ReplicationMode::R32);
        let cell = Cell::build(spec, vec![script(vec![])]);
        assert!(cell.shared_values().is_none(), "cache off: nothing built");
        let mut spec = small_spec(LookupStrategy::Scar, ReplicationMode::R32);
        spec.client.cache = Some(crate::client_cache::ClientCacheCfg::default());
        let writer = script(vec![(0, set("k", "v"))]);
        let reader = script(vec![(500, get("k"))]);
        let mut cell = Cell::build(spec, vec![writer, reader]);
        cell.run_for(SimDuration::from_millis(5));
        // The writer's write-through copied the value in; the reader's
        // fill of the same version found it there.
        let stats = cell.shared_values().expect("cache on").stats();
        assert_eq!((stats.copied, stats.shared, stats.entries), (1, 1, 1));
    }

    #[test]
    fn set_then_get_hits_r32_2xr() {
        let (cell, done) = run_script_cell(
            LookupStrategy::TwoR,
            ReplicationMode::R32,
            vec![
                (0, set("hello", "world")),
                (500, get("hello")),
                (600, get("absent")),
            ],
        );
        assert_eq!(done.len(), 3, "all ops completed: {done:?}");
        assert_eq!(done[0], OpOutcome::Done);
        assert_eq!(done[1], OpOutcome::Hit);
        assert_eq!(done[2], OpOutcome::Miss);
        assert_eq!(cell.op_errors(), 0);
    }

    #[test]
    fn set_then_get_hits_r32_scar() {
        let (_, done) = run_script_cell(
            LookupStrategy::Scar,
            ReplicationMode::R32,
            vec![(0, set("k", "v")), (500, get("k")), (600, get("nope"))],
        );
        assert_eq!(done.len(), 3, "{done:?}");
        assert_eq!(done[0], OpOutcome::Done);
        assert_eq!(done[1], OpOutcome::Hit);
        assert_eq!(done[2], OpOutcome::Miss);
    }

    #[test]
    fn set_then_get_hits_r1() {
        let (_, done) = run_script_cell(
            LookupStrategy::TwoR,
            ReplicationMode::R1,
            vec![(0, set("a", "1")), (500, get("a"))],
        );
        assert_eq!(done.len(), 2, "{done:?}");
        assert_eq!(done[1], OpOutcome::Hit);
    }

    #[test]
    fn msg_lookup_path() {
        let (_, done) = run_script_cell(
            LookupStrategy::Msg,
            ReplicationMode::R1,
            vec![(0, set("m", "msg")), (500, get("m")), (600, get("none"))],
        );
        assert_eq!(done.len(), 3, "{done:?}");
        assert_eq!(done[1], OpOutcome::Hit);
        assert_eq!(done[2], OpOutcome::Miss);
    }

    #[test]
    fn erase_then_get_misses() {
        let (_, done) = run_script_cell(
            LookupStrategy::TwoR,
            ReplicationMode::R32,
            vec![
                (0, set("e", "1")),
                (
                    500,
                    ClientOp::Erase {
                        key: Bytes::from_static(b"e"),
                    },
                ),
                (1000, get("e")),
            ],
        );
        assert_eq!(done.len(), 3, "{done:?}");
        assert_eq!(done[1], OpOutcome::Done);
        assert_eq!(done[2], OpOutcome::Miss);
    }

    #[test]
    fn cas_uses_memoized_version() {
        let (_, done) = run_script_cell(
            LookupStrategy::TwoR,
            ReplicationMode::R32,
            vec![
                (0, set("c", "v1")),
                (500, get("c")),
                (
                    600,
                    ClientOp::Cas {
                        key: Bytes::from_static(b"c"),
                        value: Bytes::from_static(b"v2"),
                    },
                ),
                (1200, get("c")),
            ],
        );
        assert_eq!(done.len(), 4, "{done:?}");
        assert_eq!(done[2], OpOutcome::Done, "CAS should succeed");
        assert_eq!(done[3], OpOutcome::Hit);
    }

    /// A generator that yields one CAS but keeps `issues_cas`'s `false`.
    struct UndeclaredCas(bool);

    impl Workload for UndeclaredCas {
        fn next(&mut self, _: SimTime, _: &mut simnet::SimRng) -> Option<(SimDuration, ClientOp)> {
            let key = Bytes::from_static(b"c");
            let value = Bytes::from_static(b"v");
            std::mem::take(&mut self.0).then_some((SimDuration::ZERO, ClientOp::Cas { key, value }))
        }
    }

    #[test]
    #[should_panic(expected = "Workload::issues_cas")]
    fn a_cas_the_workload_did_not_declare_panics() {
        let spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        let mut cell = Cell::build(spec, vec![Box::new(UndeclaredCas(true))]);
        cell.run_for(SimDuration::from_millis(5));
    }

    #[test]
    fn only_a_cas_capable_workload_keeps_a_version_memo() {
        let spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        let uniform = Box::new(crate::workload::UniformWorkload::mix(50, 16, 0.5, 1e5, 200));
        let cas = ClientOp::Cas {
            key: Bytes::from_static(b"c"),
            value: Bytes::from_static(b"v"),
        };
        let scripted = script(vec![(0, set("c", "v0")), (500, get("c")), (600, cas)]);
        let mut cell = Cell::build(spec, vec![uniform, scripted]);
        cell.run_for(SimDuration::from_millis(20));
        assert!(cell.gets_completed() > 0);
        let memo = |cell: &mut Cell, i: usize| {
            let client = cell.clients[i];
            cell.sim
                .with_node::<ClientNode, _>(client, |c| c.holds_version_memo())
        };
        assert_eq!(
            memo(&mut cell, 0),
            Some(false),
            "UniformWorkload never CASes"
        );
        assert_eq!(memo(&mut cell, 1), Some(true));
    }

    #[test]
    fn multiget_batch_completes() {
        let (cell, done) = run_script_cell(
            LookupStrategy::TwoR,
            ReplicationMode::R32,
            vec![
                (0, set("b1", "x")),
                (100, set("b2", "y")),
                (
                    1000,
                    ClientOp::MultiGet {
                        keys: vec![
                            Bytes::from_static(b"b1"),
                            Bytes::from_static(b"b2"),
                            Bytes::from_static(b"b3"),
                        ],
                    },
                ),
            ],
        );
        assert_eq!(done.len(), 3, "{done:?}");
        assert_eq!(cell.sim.metrics().counter("cm.get.batches"), 1);
        assert_eq!(cell.hits(), 2);
        assert_eq!(cell.misses(), 1);
    }

    fn multiget(keys: &[&str]) -> ClientOp {
        ClientOp::MultiGet {
            keys: keys.iter().map(|k| Bytes::from(k.to_string())).collect(),
        }
    }

    fn multiset(entries: &[(&str, &str)]) -> ClientOp {
        ClientOp::MultiSet {
            entries: entries
                .iter()
                .map(|(k, v)| (Bytes::from(k.to_string()), Bytes::from(v.to_string())))
                .collect(),
        }
    }

    fn run_batched_cell(
        strategy: LookupStrategy,
        replication: ReplicationMode,
        ops: Vec<(u64, ClientOp)>,
    ) -> (Cell, Vec<OpOutcome>) {
        let mut spec = small_spec(strategy, replication);
        spec.client.doorbell_batching = true;
        let mut cell = recorded(spec, ops);
        cell.run_for(SimDuration::from_secs(1));
        let done = checked(&mut cell, replication);
        (cell, done)
    }

    /// The doorbell-batched wire path must resolve every sub-op with the
    /// same per-key outcomes as the unbatched path, on all four lookup
    /// strategies.
    #[test]
    fn doorbell_batched_multiget_and_multiset_all_strategies() {
        for strategy in [
            LookupStrategy::TwoR,
            LookupStrategy::Scar,
            LookupStrategy::Msg,
            LookupStrategy::Rpc,
        ] {
            let (cell, done) = run_batched_cell(
                strategy,
                ReplicationMode::R32,
                vec![
                    (0, multiset(&[("d1", "x"), ("d2", "y")])),
                    (5000, multiget(&["d1", "d2", "d3"])),
                ],
            );
            assert_eq!(done.len(), 2, "{strategy:?}: {done:?}");
            assert_eq!(done[0], OpOutcome::Done, "{strategy:?}: {done:?}");
            assert_eq!(
                cell.sim.metrics().counter("cm.set.batches"),
                1,
                "{strategy:?}"
            );
            assert_eq!(
                cell.sim.metrics().counter("cm.get.batches"),
                1,
                "{strategy:?}"
            );
            assert_eq!(cell.hits(), 2, "{strategy:?}");
            assert_eq!(cell.misses(), 1, "{strategy:?}");
            assert_eq!(cell.op_errors(), 0, "{strategy:?}");
        }
    }

    /// A zero-key batch completes immediately (latency 0, no leaked batch
    /// state, the client keeps issuing), batched or not.
    #[test]
    fn empty_batches_complete_immediately() {
        for batched in [false, true] {
            let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
            spec.client.doorbell_batching = batched;
            let mut cell = recorded(
                spec,
                vec![
                    (0, ClientOp::MultiGet { keys: vec![] }),
                    (100, ClientOp::MultiSet { entries: vec![] }),
                    (200, set("after", "1")),
                    (1000, get("after")),
                ],
            );
            cell.run_for(SimDuration::from_secs(1));
            let done = checked(&mut cell, ReplicationMode::R32);
            let latencies = cell.history().latencies(cell.clients[0].0);
            assert_eq!(done.len(), 4, "batched={batched}: {done:?}");
            assert_eq!(done[0], OpOutcome::Hit, "batched={batched}");
            assert_eq!(done[1], OpOutcome::Done, "batched={batched}");
            assert_eq!(latencies[..2], [0, 0], "batched={batched}");
            assert_eq!(done[3], OpOutcome::Hit, "batched={batched}");
            assert_eq!(cell.sim.metrics().counter("cm.get.batches"), 1);
            assert_eq!(cell.sim.metrics().counter("cm.set.batches"), 1);
            assert_eq!(cell.op_errors(), 0, "batched={batched}");
        }
    }

    /// Duplicate keys in one MultiGet are distinct sub-ops: each resolves
    /// on its own and the container completes exactly once.
    #[test]
    fn duplicate_key_multiget_completes() {
        for batched in [false, true] {
            let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
            spec.client.doorbell_batching = batched;
            let mut cell = recorded(
                spec,
                vec![
                    (0, set("dup", "v")),
                    (1000, multiget(&["dup", "dup", "dup", "gone"])),
                ],
            );
            cell.run_for(SimDuration::from_secs(1));
            let done = checked(&mut cell, ReplicationMode::R32);
            assert_eq!(done.len(), 2, "batched={batched}: {done:?}");
            assert_eq!(cell.sim.metrics().counter("cm.get.batches"), 1);
            assert_eq!(cell.hits(), 3, "batched={batched}");
            assert_eq!(cell.misses(), 1, "batched={batched}");
            assert_eq!(cell.op_errors(), 0, "batched={batched}");
        }
    }

    /// The acceptance bound for RMA strategies: a warmed-up batched k-key
    /// MultiGet coalesces to at most `replicas x distinct hosts` frames
    /// per phase — independent of k — where the unbatched path pays per
    /// key. The warm-up GETs establish geometry first (a cold first batch
    /// parks on CONNECT and issues unbatched when released). With 16 keys
    /// over 4 backends at R=3.2 the batched MultiGet must use at most
    /// `3 x 4` frames per phase and at least halve the unbatched count.
    #[test]
    fn doorbell_batching_coalesces_rma_frames() {
        let keys: Vec<String> = (0..16).map(|i| format!("fr{i}")).collect();
        let script_ops = |keys: &[String]| {
            let mut ops: Vec<(u64, ClientOp)> =
                keys.iter().map(|k| (100, set(k, "payload"))).collect();
            ops.extend(keys.iter().map(|k| (100, get(k))));
            ops.push((
                100_000,
                ClientOp::MultiGet {
                    keys: keys.iter().map(|k| Bytes::from(k.clone())).collect(),
                },
            ));
            ops
        };
        for (strategy, phases) in [(LookupStrategy::TwoR, 2), (LookupStrategy::Scar, 1)] {
            let run = |batched: bool| {
                let mut spec = small_spec(strategy, ReplicationMode::R32);
                spec.client.doorbell_batching = batched;
                let mut cell = Cell::build(spec, vec![script(script_ops(&keys))]);
                // Past the warm-up (sets + gets finish within a few ms) but
                // before the MultiGet fires at ~100ms.
                cell.run_for(SimDuration::from_millis(50));
                let warmup = cell.client_rma_frames();
                cell.run_for(SimDuration::from_secs(1));
                assert_eq!(cell.op_errors(), 0, "{strategy:?} batched={batched}");
                assert_eq!(cell.hits(), 32, "{strategy:?} batched={batched}");
                cell.client_rma_frames() - warmup
            };
            let unbatched = run(false);
            let batched = run(true);
            let replicas = 3u64; // R=3.2 read quorum fan-out
            let hosts = 4u64;
            assert!(
                batched <= replicas * hosts * phases,
                "{strategy:?}: {batched} frames exceeds {replicas}x{hosts}x{phases}"
            );
            assert!(
                batched * 2 <= unbatched,
                "{strategy:?}: batched {batched} vs unbatched {unbatched} is not a 2x cut"
            );
        }
    }

    #[test]
    fn r2_immutable_reads_single_replica() {
        let (cell, done) = run_script_cell(
            LookupStrategy::TwoR,
            ReplicationMode::R2Immutable,
            vec![(0, set("imm", "data")), (500, get("imm"))],
        );
        assert_eq!(done.len(), 2, "{done:?}");
        assert_eq!(done[1], OpOutcome::Hit);
        // Only one index read per GET (plus the data read).
        let _ = cell;
    }

    #[test]
    fn crashed_backend_still_serves_quorum() {
        let spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        let mut cell = recorded(spec, vec![(0, set("q", "quorum")), (100_000, get("q"))]);
        // Let the SET land everywhere, then crash one replica of "q".
        cell.run_for(SimDuration::from_millis(50));
        // Crash every backend's neighbour... simpler: crash backend 0 and
        // rely on the op retrying against whatever quorum remains.
        cell.sim.crash(cell.backends[0]);
        cell.run_for(SimDuration::from_secs(2));
        let done = checked(&mut cell, ReplicationMode::R32);
        assert_eq!(done.len(), 2, "{done:?}");
        assert_eq!(done[0], OpOutcome::Done);
        assert_eq!(
            done[1],
            OpOutcome::Hit,
            "R=3.2 must tolerate a single failure"
        );
    }

    #[test]
    fn overflow_rpc_fallback_serves_displaced_keys() {
        // Tiny 1-slot buckets force associativity displacement; a GET of a
        // displaced key still hits via the RPC fallback (§4.2).
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R1);
        spec.backend.store.num_buckets = 1;
        spec.backend.store.assoc = 1;
        spec.backend.store.overflow_capacity = 16;
        // Write enough same-shard keys that some are displaced, then read
        // them all back.
        let mut ops = Vec::new();
        for i in 0..6u32 {
            ops.push((100, set(&format!("ov{i}"), "value")));
        }
        for i in 0..6u32 {
            ops.push((200, get(&format!("ov{i}"))));
        }
        let mut cell = Cell::build(spec, vec![script(ops)]);
        cell.run_for(SimDuration::from_secs(1));
        let m = cell.sim.metrics();
        assert!(
            m.counter("cm.get.overflow_hits") > 0,
            "fallback path never served a hit"
        );
        // Every key is a hit: index hits + overflow hits together.
        assert_eq!(cell.hits(), 6, "misses: {}", cell.misses());
    }

    #[test]
    fn without_an_overflow_table_displaced_keys_miss() {
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R1);
        spec.backend.store.num_buckets = 1;
        spec.backend.store.assoc = 1;
        spec.backend.store.overflow_capacity = 0;
        let mut ops = Vec::new();
        for i in 0..6u32 {
            ops.push((100, set(&format!("ov{i}"), "value")));
        }
        for i in 0..6u32 {
            ops.push((200, get(&format!("ov{i}"))));
        }
        let mut cell = Cell::build(spec, vec![script(ops)]);
        cell.run_for(SimDuration::from_secs(1));
        assert!(
            cell.misses() > 0,
            "displaced keys should miss without an overflow table"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (_, done) = run_script_cell(
                LookupStrategy::TwoR,
                ReplicationMode::R32,
                vec![(0, set("d", "x")), (500, get("d"))],
            );
            done
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn index_reshaping_under_live_traffic_is_invisible() {
        // A tiny index that must double (twice) while GETs and SETs run:
        // clients hit revoked windows, re-CONNECT, and keep succeeding.
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        spec.backend.store.num_buckets = 8;
        spec.backend.store.assoc = 4;
        spec.backend.store.resize_load_factor = 0.6;
        spec.backend.reshape_check = SimDuration::from_millis(5);
        // A bucket can still overflow between reshape checks; the RPC
        // fallback keeps those keys servable.
        let mut ops = Vec::new();
        // 300 inserts (vs ~128 initial slots per backend) interleaved with
        // reads of earlier keys.
        for i in 0..300u32 {
            ops.push((200, set(&format!("grow{i}"), "v")));
            if i % 3 == 0 && i > 0 {
                ops.push((50, get(&format!("grow{}", i / 2))));
            }
        }
        let mut cell = Cell::build(spec, vec![script(ops)]);
        cell.run_for(SimDuration::from_secs(2));
        let m = cell.sim.metrics();
        assert!(
            m.counter("cm.backend.index_resizes_done") > 0,
            "index never reshaped"
        );
        assert!(
            m.counter("cm.client.geometry_invalidations") > 0,
            "clients never saw a revoked window"
        );
        assert_eq!(cell.op_errors(), 0, "reshaping broke client ops");
        assert_eq!(cell.misses(), 0, "reshaping lost keys");
    }

    #[test]
    fn data_region_growth_under_live_traffic() {
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R1);
        spec.backend.store.data_capacity = 64 << 10;
        spec.backend.store.max_data_capacity = 1 << 20;
        spec.backend.store.slab_bytes = 16 << 10;
        spec.backend.store.data_high_watermark = 0.6;
        let mut ops = Vec::new();
        for i in 0..120u32 {
            ops.push((
                300,
                ClientOp::Set {
                    key: Bytes::from(format!("big{i}")),
                    value: Bytes::from(vec![7u8; 3000]),
                },
            ));
        }
        for i in 0..120u32 {
            ops.push((100, get(&format!("big{i}"))));
        }
        let mut cell = Cell::build(spec, vec![script(ops)]);
        cell.run_for(SimDuration::from_secs(2));
        let m = cell.sim.metrics();
        assert!(
            m.counter("cm.backend.data_growths") > 0,
            "data region never grew"
        );
        assert_eq!(cell.op_errors(), 0);
        // Growth (not eviction) absorbed the corpus: everything still hit.
        assert_eq!(cell.hits(), 120, "misses: {}", cell.misses());
    }

    #[test]
    fn access_records_flow_to_backends() {
        // §4.2: clients batch RMA-read touches and report them via RPC so
        // backends can run recency-based eviction.
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        spec.client.access_flush = Some(SimDuration::from_millis(5));
        let mut ops = vec![(0, set("touched", "v"))];
        for _ in 0..50 {
            ops.push((100, get("touched")));
        }
        let mut cell = Cell::build(spec, vec![script(ops)]);
        cell.run_for(SimDuration::from_millis(200));
        let m = cell.sim.metrics();
        assert!(m.counter("cm.client.access_flushes") > 0, "never flushed");
        assert!(
            m.counter("cm.backend.access_records") >= 50,
            "records lost: {}",
            m.counter("cm.backend.access_records")
        );
    }

    #[test]
    fn open_loop_overload_sheds_load() {
        // An open-loop client offered far more than it can carry caps its
        // in-flight ops and counts the shed load instead of queueing
        // unboundedly.
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R1);
        spec.client.max_in_flight = 4;
        let ops: Vec<(u64, ClientOp)> = (0..5_000)
            .map(|i| (0, get(&format!("absent{}", i % 10))))
            .collect();
        let mut cell = Cell::build(spec, vec![script(ops)]);
        cell.run_for(SimDuration::from_millis(100));
        let m = cell.sim.metrics();
        assert!(
            m.counter("cm.client.overload_drops") > 0,
            "no load shedding under 5k instant ops"
        );
        assert_eq!(m.counter("cm.op_errors"), 0);
    }

    /// End-to-end warm restart: with durability on, a backend's committed
    /// SETs survive its crash via WAL replay from the attached media —
    /// before any peer repair can possibly have run (the restart does not
    /// recover, so local replay is the *only* recovery path).
    #[test]
    fn warm_restart_replays_wal_without_peer_repair() {
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        spec.durability = Some(DurabilitySpec::default());
        let mut ops = Vec::new();
        for i in 0..40u32 {
            ops.push((100, set(&format!("wal{i}"), "durable-value")));
        }
        let mut cell = Cell::build(spec, vec![script(ops)]);
        // Let every SET land and its group commit fsync (fsync_latency is
        // 4ms; 40 sets arrive within ~4ms and coalesce into few batches).
        cell.run_for(SimDuration::from_millis(100));
        assert_eq!(cell.op_errors(), 0);
        let victim = cell.backends[1];
        let pre = cell
            .sim
            .with_node::<BackendNode, _>(victim, |b| b.store().live_entries())
            .expect("victim exists");
        assert!(pre > 0, "victim held no entries before the crash");
        let m = cell.sim.metrics();
        assert!(
            m.counter("cm.backend.wal_fsyncs") > 0,
            "no group commit ever fsynced"
        );
        assert!(
            m.counter("cm.backend.wal_appends") >= 40,
            "SET path never appended to the WAL"
        );
        // Crash and revive with the SAME media, peer repair disabled.
        cell.sim.crash(victim);
        cell.restart_backend(1, false);
        cell.run_for(SimDuration::from_millis(50));
        let post = cell
            .sim
            .with_node::<BackendNode, _>(victim, |b| b.store().live_entries())
            .expect("victim revived");
        assert_eq!(
            post,
            pre,
            "warm replay restored {post}/{pre} entries (replayed={})",
            cell.sim.metrics().counter("cm.backend.wal_replayed")
        );
        assert!(cell.sim.metrics().counter("cm.backend.wal_replayed") >= pre);
        // Replay is idempotent: crash + revive again, identical store.
        let dump_once = cell
            .sim
            .with_node::<BackendNode, _>(victim, |b| {
                b.store()
                    .all_entries()
                    .into_iter()
                    .map(|(k, v, ver)| (k.to_vec(), v.to_vec(), ver))
                    .collect::<Vec<_>>()
            })
            .expect("victim alive");
        cell.sim.crash(victim);
        cell.restart_backend(1, false);
        cell.run_for(SimDuration::from_millis(50));
        let dump_twice = cell
            .sim
            .with_node::<BackendNode, _>(victim, |b| {
                b.store()
                    .all_entries()
                    .into_iter()
                    .map(|(k, v, ver)| (k.to_vec(), v.to_vec(), ver))
                    .collect::<Vec<_>>()
            })
            .expect("victim alive");
        assert_eq!(dump_once, dump_twice, "replay is not idempotent");
    }

    /// A restart builds the node the cell built: on the host's engine pool,
    /// at shard `i` and config id 1, replaying the shard's media, trickling
    /// at the spec's period (1 s here, not the 5 ms default).
    #[test]
    fn a_restart_matches_the_build() {
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        spec.durability = Some(DurabilitySpec {
            trickle_interval: SimDuration::from_secs(1),
            ..DurabilitySpec::default()
        });
        let ops = (0..40u32).map(|i| (100, set(&format!("r{i}"), "v")));
        let mut cell = Cell::build(spec, vec![script(ops.collect())]);
        cell.run_for(SimDuration::from_millis(100));
        let (i, victim) = (1, cell.backends[1]);
        let live = |cell: &mut Cell| {
            let live = cell
                .sim
                .with_node::<BackendNode, _>(victim, |b| b.store().live_entries());
            live.expect("victim alive")
        };
        let pre = live(&mut cell);
        let records = cell.media[i].borrow().wal_records();
        assert!(pre > 0 && records > 0, "nothing durable to replay");
        cell.sim.crash(victim);
        cell.restart_backend(i, false);
        cell.run_for(SimDuration::from_millis(800));
        let pool = cell.pony_pools[&cell.backend_hosts[i]].clone();
        let built = cell.sim.with_node::<BackendNode, _>(victim, |b| {
            let own = b.transport.pony.as_ref().expect("a Pony cell");
            (
                Rc::ptr_eq(own, &pool),
                b.store().shard(),
                b.store().config_id(),
            )
        });
        assert_eq!(
            built,
            Some((true, i as u32, 1)),
            "(host pool, shard, config id)"
        );
        assert_eq!(live(&mut cell), pre);
        let m = cell.sim.metrics();
        assert!(m.counter("cm.backend.wal_replayed") >= records);
        assert_eq!(
            m.counter("cm.backend.wal_trickled"),
            0,
            "a trickle before 1 s"
        );
    }

    /// Durability off is the byte-identical default: the same cell with
    /// `durability: None` runs without device state and its completion
    /// stream matches a build that never knew about the subsystem.
    #[test]
    fn durability_off_is_inert() {
        let run = |durable: bool| {
            let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
            if durable {
                spec.durability = Some(DurabilitySpec::default());
            }
            let mut cell = recorded(spec, vec![(0, set("same", "x")), (500, get("same"))]);
            cell.run_for(SimDuration::from_secs(1));
            (cell.history(), cell.sim.devices_enabled())
        };
        let (off, devs_off) = run(false);
        let (on, devs_on) = run(true);
        assert!(!devs_off && devs_on);
        // Same outcomes AND same latencies: the WAL is off the serving
        // path (fsyncs are asynchronous), so client-visible timing is
        // unchanged even with durability on.
        assert_eq!(off, on);
        assert_eq!(history::check(&on, ReplicationMode::R32), []);
    }

    /// Adaptive off is the do-nothing default: no controller exists on any
    /// client (`adaptive_choice_hash` is `None`) and identically-seeded
    /// builds replay the same completion stream — the builder draws zero
    /// extra RNG values. Byte-identity of committed figures with adaptive
    /// off is enforced end-to-end by ci.sh.
    #[test]
    fn adaptive_off_is_inert() {
        let run = || {
            let spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
            let mut cell = recorded(spec, vec![(0, set("k", "v")), (500, get("k"))]);
            cell.run_for(SimDuration::from_secs(1));
            let hashes: Vec<Option<u64>> = cell
                .clients
                .clone()
                .into_iter()
                .map(|c| {
                    cell.sim
                        .with_node::<ClientNode, _>(c, |n| n.adaptive_choice_hash())
                        .expect("client alive")
                })
                .collect();
            (cell.history(), hashes)
        };
        let (a, ha) = run();
        let (b, hb) = run();
        assert_eq!(a, b);
        assert!(ha.iter().all(|h| h.is_none()), "controller built while off");
        assert_eq!(ha, hb);
    }

    /// An adaptive cell makes per-op choices (decisions advance, the choice
    /// hash exists) and stays deterministic: same seed, same
    /// strategy-choice stream, same History.
    #[test]
    fn adaptive_cell_is_deterministic() {
        let run = || {
            let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
            spec.client.adaptive = Some(adaptive::ControllerCfg::default());
            let ops: Vec<(u64, ClientOp)> = (0..40)
                .map(|i| {
                    let k = format!("k{}", i % 8);
                    if i % 4 == 0 {
                        (i * 100, set(&k, "v"))
                    } else {
                        (i * 100, get(&k))
                    }
                })
                .collect();
            let mut cell = recorded(spec, ops);
            cell.run_for(SimDuration::from_secs(1));
            let (hash, decisions) = cell
                .sim
                .with_node::<ClientNode, _>(cell.clients[0], |n| {
                    (
                        n.adaptive_choice_hash().expect("controller on"),
                        n.adaptive_stats().expect("controller on").0,
                    )
                })
                .expect("client alive");
            (checked(&mut cell, ReplicationMode::R32), hash, decisions)
        };
        let (c1, h1, d1) = run();
        let (c2, h2, d2) = run();
        assert!(d1 > 0, "no adaptive decisions were made");
        assert_eq!(h1, h2, "strategy-choice stream diverged");
        assert_eq!(d1, d2);
        assert_eq!(c1, c2);
    }

    /// `spec.client.adaptive` alone must fork a distinct explorer seed per
    /// client. With always-explore and an unreachable SLO a client's choice
    /// stream is a pure function of its seed and decision count, so clients
    /// that made equally many decisions share a hash iff they share a seed
    /// (re-parked GETs re-choose, so the counts may differ by one or two).
    #[test]
    fn client_adaptive_cfg_forks_distinct_seeds() {
        let mut spec = small_spec(LookupStrategy::TwoR, ReplicationMode::R32);
        spec.client.adaptive = Some(adaptive::ControllerCfg {
            epsilon_inv: 1,
            slo_ns: u64::MAX,
            ..adaptive::ControllerCfg::default()
        });
        let wls = (0..4)
            .map(|_| script((0..32).map(|i| (200, get(&format!("s{i}")))).collect()))
            .collect();
        let mut cell = Cell::build(spec, wls);
        cell.run_for(SimDuration::from_secs(1));
        let mut seen: Vec<(u64, u64)> = cell
            .clients
            .clone()
            .into_iter()
            .map(|c| {
                cell.sim
                    .with_node::<ClientNode, _>(c, |n| {
                        let stats = n.adaptive_stats().expect("controller on");
                        (stats.0, n.adaptive_choice_hash().expect("controller on"))
                    })
                    .expect("client alive")
            })
            .collect();
        seen.sort_unstable();
        assert!(
            seen.windows(2).any(|w| w[0].0 == w[1].0),
            "no two clients made equally many decisions: {seen:?}"
        );
        assert!(
            seen.windows(2).all(|w| w[0] != w[1]),
            "clients share an explorer seed: {seen:?}"
        );
    }

    #[test]
    fn cell_builder_shapes() {
        let spec = CellSpec {
            num_backends: 5,
            num_spares: 2,
            clients_per_host: 2,
            ..small_spec(LookupStrategy::TwoR, ReplicationMode::R32)
        };
        let cell = Cell::build(spec, vec![script(vec![]), script(vec![]), script(vec![])]);
        assert_eq!(cell.backends.len(), 5);
        assert_eq!(cell.spares.len(), 2);
        assert_eq!(cell.clients.len(), 3);
        // 3 clients at 2/host = 2 hosts.
        assert_eq!(cell.client_hosts.len(), 2);
        let _ = SimTime::ZERO;
    }
}
