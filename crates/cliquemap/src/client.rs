//! The CliqueMap client library, as a simulation node.
//!
//! The client owns the paper's read path end to end:
//!
//! * **2×R GETs** (§3): bucket fetch → client-side scan → data fetch →
//!   self-validation (checksum, full-key compare, config id);
//! * **SCAR GETs** (§6.3): one Scan-and-Read per replica, single RTT;
//! * **R=3.2 quoruming** (§5.1): index fetch from all three replicas, data
//!   from the *first responder* (preferred backend), hit iff ≥2 replicas
//!   agree on VersionNumber and the data came from a quorum member;
//! * **mutations** (§5.2): SET/ERASE/CAS RPCs to every replica with a
//!   client-nominated `{TrueTime, ClientId, Seq}` version, success on a
//!   write quorum, retried with a *fresh, higher* version;
//! * **layered retries** (§3, §9): checksum failures retry the RMA ops,
//!   failed RMAs re-CONNECT (geometry refresh), config-id mismatches
//!   refresh the cell config from the config store;
//! * **batched access records** (§4.2) so backends can run LRU/ARC without
//!   seeing the reads.

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::{Arc, LazyLock};

use bytes::{Bytes, Pool};

use rma::{RmaOpTable, RmaStatus, Transport};
use rpc::{CallTable, RetryPolicy, RpcCostModel, Status};
use simnet::{
    Ctx, Deferred, Event, IdMap, IdSet, MetricId, Metrics, Node, NodeId, SimDuration, SimTime,
};

use adaptive::{Controller, ControllerCfg};

use crate::attempt::{Attempt, Batch, Step};
use crate::client_cache::{ClientCache, ClientCacheCfg, Lookup, SharedValues};
use crate::config::{CellConfig, ReplicationMode};
use crate::hash::{place, DefaultHasher, KeyHash, KeyHasher};
use crate::layout::{self, bucket_size, parse_data_entry, Pointer};
use crate::messages::{self, method, Geometry};
use crate::policy::{HotKeyTracker, HotReplCfg};
use crate::quorum::{
    consult_set, GetQuorum, GetRules, GetStep, MutationQuorum, MutationStep, Replica, Reply,
    RetryReason, Vote, MAX_CONSULT,
};
use crate::shim::ShimSpec;
use crate::version::{VersionGen, VersionNumber};
use crate::workload::{ClientOp, OpOutcome, Pacing, VersionMemo, Workload};
use crate::{MSG_COST, RPC_COST};

/// How the client performs lookups: 2×R (two sequential one-sided reads),
/// SCAR (one programmable-NIC scan per replica), MSG (two-sided messaging —
/// the comparison point / WAN fallback) or full-framework RPC (same wire
/// shape as MSG but served at full RPC cost, so per-op framework overhead
/// dominates until batching amortizes it). The adaptive controller's arms
/// are exactly these, so the two crates share one type.
pub use adaptive::Strategy as LookupStrategy;

/// Everything the client knows about a lookup strategy; the wire path
/// below is strategy-blind apart from reading its row.
struct StrategyRow {
    /// Which health path its responses travel: one-sided RMA ops are
    /// served by the remote NIC, MSG/RPC lookups by the remote CPU.
    path: adaptive::Path,
    /// The data entry is a second read from one chosen voter (2×R), not
    /// part of the index response.
    data_is_separate: bool,
    /// The index sub-op each consulted replica gets, from the key's bucket
    /// extent and hash (`None`: one server does the whole lookup).
    first: Option<fn(Pointer, KeyHash) -> SubOp>,
    /// RPC method of a single lookup and of a coalesced frame of them.
    methods: (u16, u16),
    /// The cost model a server-side lookup is billed at.
    cost: Option<&'static LazyLock<RpcCostModel>>,
}

/// One row per [`LookupStrategy`], in [`LookupStrategy::index`] order: 2×R,
/// SCAR, MSG, RPC.
const STRATEGIES: [StrategyRow; 4] = [
    StrategyRow {
        path: adaptive::Path::Rma,
        data_is_separate: true,
        first: Some(|bucket, _| SubOp::Read(bucket)),
        methods: (0, 0),
        cost: None,
    },
    StrategyRow {
        path: adaptive::Path::Rma,
        data_is_separate: false,
        first: Some(SubOp::Scar),
        methods: (0, 0),
        cost: None,
    },
    StrategyRow {
        path: adaptive::Path::Rpc,
        data_is_separate: false,
        first: None,
        methods: (method::MSG_GET, method::MSG_MULTI_GET),
        cost: Some(&MSG_COST),
    },
    StrategyRow {
        path: adaptive::Path::Rpc,
        data_is_separate: false,
        first: None,
        methods: (method::GET_RPC, method::MULTI_GET_RPC),
        cost: Some(&RPC_COST),
    },
];

fn strategy_row(s: LookupStrategy) -> &'static StrategyRow {
    &STRATEGIES[s.index()]
}

impl StrategyRow {
    fn cost(&self) -> &'static RpcCostModel {
        self.cost.expect("only server-side lookups are billed")
    }

    /// Client CPU of one GET that consulted `consulted` replicas — the
    /// controller's CPU/op signal, from the same calibrated constants the
    /// simulator bills, so no per-charge-site bookkeeping is needed.
    fn cpu_ns(&self, consulted: u64) -> u64 {
        let fan_out = match self.cost {
            Some(cost) => (cost.client_send + cost.client_recv).nanos(),
            // An index read per consulted replica, plus 2×R's data fetch.
            None => RMA_OP_CPU.nanos() * (consulted + self.data_is_separate as u64),
        };
        GET_CPU.nanos() + fan_out
    }
}

/// Fixed client-library CPU per GET attempt.
const GET_CPU: SimDuration = SimDuration::from_nanos(900);
/// Fixed client-library CPU per mutation attempt.
const SET_CPU: SimDuration = SimDuration::from_micros(2);
/// Per-RMA-op client CPU (issue + completion handling).
const RMA_OP_CPU: SimDuration = SimDuration::from_nanos(350);
/// Per-key client CPU for a sub-op inside a coalesced container. A
/// standalone GET/SET pays [`GET_CPU`]/[`SET_CPU`] — API entry, pacing, and
/// completion arming included — but a doorbell-batched container pays that
/// boundary cost once at expansion; each member only marshals its key/entry
/// into the shared frame.
const BATCHED_KEY_CPU: SimDuration = SimDuration::from_nanos(350);

/// Client configuration: everything the clients of one cell have in
/// common. A [`ClientNode`] holds it behind an `Rc`, so 10K clients cost one
/// copy; what differs per client is its [`ClientIdentity`].
#[derive(Clone)]
pub struct ClientCfg {
    /// Lookup strategy.
    pub strategy: LookupStrategy,
    /// Retry budget shared by all op types.
    pub retry: RetryPolicy,
    /// Per-attempt sub-op timeout (RMA and RPC).
    pub attempt_timeout: SimDuration,
    /// The cell's config store.
    pub config_store: NodeId,
    /// Access-record flush period (`None` disables recency reporting).
    pub access_flush: Option<SimDuration>,
    /// Open- or closed-loop issue pacing.
    pub pacing: Pacing,
    /// Maximum concurrently outstanding logical ops (open loop).
    pub max_in_flight: usize,
    /// Fetch data from the first replica whose index response arrives
    /// (§5.1 preferred-backend selection). Disabling it always fetches
    /// from the key's primary replica — the ablation showing why the
    /// paper chose quoruming over primary/backup.
    pub prefer_first_responder: bool,
    /// Client-side lease cache in front of the RMA path (`None` disables
    /// it; see [`crate::client_cache`]).
    pub cache: Option<ClientCacheCfg>,
    /// Load-aware hot-key replication: track the client's own op stream
    /// and route promoted keys across an extended replica set (`None`
    /// disables it; see [`HotReplCfg`]).
    pub hot_repl: Option<HotReplCfg>,
    /// Doorbell batching: coalesce a MultiGet/MultiSet's sub-ops by
    /// destination host and ship each group as one wire frame with one
    /// transport issue admission, one SER/FABRIC traversal, and one
    /// completion admission. Per-sub-op quorum resolution is unchanged;
    /// only the wire path is batched. Retries always go unbatched.
    pub doorbell_batching: bool,
    /// Language-shim cost model (`None` = native C++ client).
    pub shim: Option<ShimSpec>,
    /// Adaptive dataplane controller (`None` = fixed `strategy`, no
    /// demotion — the pre-controller client, byte for byte).
    pub adaptive: Option<ControllerCfg>,
}

/// What distinguishes one client from the others sharing its [`ClientCfg`].
pub struct ClientIdentity {
    /// Identity baked into nominated versions.
    pub client_id: u32,
    /// Seed for the adaptive controller's explorer; the cell forks it off
    /// the sim RNG only when [`ClientCfg::adaptive`] is set.
    pub adaptive_seed: u64,
    /// The RMA transport of the client's host (a Pony Express transport
    /// shares the host's engine pool).
    pub transport: Transport,
    /// The tables this client holds the same way as the rest of its cell
    /// (`ClientShared::default()` outside a cell: a cell of one).
    pub shared: ClientShared,
}

/// What every client of a cell holds the same way, stored once per cell:
/// the key hasher; the decoded configs clients hold and the geometries
/// backends advertised at CONNECT, each interned by content; the metric
/// handles; and the lease caches' value table. Each client still decides which config and which
/// geometry per backend it holds, and when it refreshes or drops one, so
/// its staleness is its own — only the bytes are shared. Host-side only:
/// nothing simulated reads a table. No cap: one entry per distinct config
/// or advertised geometry, and the tables never shrink.
#[derive(Clone)]
pub struct ClientShared(Rc<SharedTables>);

struct SharedTables {
    hasher: Arc<dyn KeyHasher>,
    values: Option<SharedValues>,
    configs: RefCell<Vec<Rc<CellConfig>>>,
    geometries: RefCell<(Vec<Geometry>, HashMap<Geometry, GeomId>)>,
    mids: OnceCell<ClientMetricIds>,
}

/// A row of [`ClientShared`]'s geometry table.
#[derive(Debug, Clone, Copy)]
struct GeomId(u32);

impl Default for ClientShared {
    fn default() -> Self {
        ClientShared::new(Arc::new(DefaultHasher), None)
    }
}

impl ClientShared {
    /// Tables for one cell's clients, which hash keys with `hasher`;
    /// `values` is its lease caches' value table (`None`: each cache keeps
    /// a table of its own).
    pub fn new(hasher: Arc<dyn KeyHasher>, values: Option<SharedValues>) -> ClientShared {
        ClientShared(Rc::new(SharedTables {
            hasher,
            values,
            configs: RefCell::default(),
            geometries: RefCell::default(),
            mids: OnceCell::new(),
        }))
    }

    /// The lease caches' value table, if the cell has one.
    pub fn values(&self) -> Option<&SharedValues> {
        self.0.values.as_ref()
    }

    /// Distinct configs some client of the cell has held.
    pub fn configs(&self) -> usize {
        self.0.configs.borrow().len()
    }

    /// Distinct geometries some client of the cell has held.
    pub fn geometries(&self) -> usize {
        self.0.geometries.borrow().0.len()
    }

    fn intern_config(&self, config: CellConfig) -> Rc<CellConfig> {
        let mut configs = self.0.configs.borrow_mut();
        // A handful of generations per run: a scan beats a map.
        if let Some(held) = configs.iter().find(|c| ***c == config) {
            return held.clone();
        }
        configs.push(Rc::new(config));
        configs.last().expect("pushed above").clone()
    }

    fn intern_geometry(&self, geom: Geometry) -> GeomId {
        let (all, ids) = &mut *self.0.geometries.borrow_mut();
        *ids.entry(geom).or_insert_with(|| {
            all.push(geom);
            GeomId(all.len() as u32 - 1)
        })
    }

    fn geometry(&self, id: GeomId) -> Geometry {
        self.0.geometries.borrow().0[id.0 as usize]
    }
}

impl Default for ClientCfg {
    fn default() -> Self {
        ClientCfg {
            strategy: LookupStrategy::TwoR,
            retry: RetryPolicy::default(),
            attempt_timeout: SimDuration::from_millis(2),
            config_store: NodeId(0),
            access_flush: Some(SimDuration::from_millis(50)),
            pacing: Pacing::Open,
            max_in_flight: 256,
            prefer_first_responder: true,
            doorbell_batching: false,
            cache: None,
            hot_repl: None,
            shim: None,
            adaptive: None,
        }
    }
}

impl std::fmt::Debug for ClientCfg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCfg")
            .field("strategy", &self.strategy)
            .finish()
    }
}

/// What every issued op carries, GET or mutation.
#[derive(Debug, Default)]
struct OpHeader {
    key: Bytes,
    hash: KeyHash,
    batch: Option<u64>,
    /// Its lifecycle: the attempt core's state.
    attempt: Attempt,
    /// The key's replica set. A [`Replica`] of the quorum core is a
    /// position in it.
    replicas: Vec<NodeId>,
    /// Prefix of `replicas` that is the base (quorum-bearing) set; any
    /// suffix beyond it is extended hot-key copies that absorb load (and
    /// receive mutations) but carry no quorum weight. At least 1.
    n_base: u8,
}

impl OpHeader {
    fn position(&self, replica: NodeId) -> Option<Replica> {
        let at = self.replicas.iter().position(|&r| r == replica);
        at.map(|i| i as Replica)
    }
}

/// The default is the blank state of the recycling freelist (no `replicas`
/// capacity yet; it accrues on first use and is retained across reuses).
#[derive(Debug, Default)]
struct GetState {
    h: OpHeader,
    quorum: GetQuorum,
    /// The value behind the quorum's data input: a zero-copy slice of the
    /// inbound frame (shares its pooled storage, no allocation).
    data: Option<Bytes>,
    /// The wire strategy resolved for this op at issue (fixed
    /// `cfg.strategy` without the adaptive controller).
    strategy: LookupStrategy,
}

impl GetState {
    /// Reset for reuse, keeping the `replicas` allocation.
    fn recycle(&mut self) {
        let mut replicas = std::mem::take(&mut self.h.replicas);
        replicas.clear();
        *self = GetState::default();
        self.h.replicas = replicas;
    }
}

/// Completed [`GetState`]s kept for reuse; beyond this they are dropped.
const FREE_GETS_CAP: usize = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MutationKind {
    Set,
    Erase,
    Cas,
}

impl MutationKind {
    /// The kind's RPC method and its trace OPEN aux code.
    fn wire(self) -> (u16, u64) {
        match self {
            MutationKind::Set => (method::SET, trace_aux::SET),
            MutationKind::Erase => (method::ERASE, trace_aux::ERASE),
            MutationKind::Cas => (method::CAS, trace_aux::CAS),
        }
    }
}

#[derive(Debug)]
struct MutationState {
    h: OpHeader,
    /// The config `h.replicas` was resolved under.
    config_id: u32,
    kind: MutationKind,
    value: Bytes,
    expected: Option<VersionNumber>,
    version: VersionNumber,
    quorum: MutationQuorum,
}

/// An issued op. Boxed states keep the `ops` B-tree's nodes (11 inline
/// values each, and the root leaf outlives its last entry) at 16 B a slot;
/// GET boxes recycle through `free_gets`.
#[derive(Debug)]
enum OpState {
    Get(Box<GetState>),
    Mutation(Box<MutationState>),
}

impl OpState {
    fn header_mut(&mut self) -> &mut OpHeader {
        match self {
            OpState::Get(g) => &mut g.h,
            OpState::Mutation(m) => &mut m.h,
        }
    }
}

/// An admitted op not yet issued: it waits for the cell config, or for a
/// read quorum of its replicas' geometry.
#[derive(Debug)]
struct Parked {
    key: Bytes,
    /// Empty unless a SET or CAS.
    value: Bytes,
    /// `None`: a GET.
    kind: Option<MutationKind>,
    batch: Option<u64>,
    /// Its lifecycle from admission.
    attempt: Attempt,
}

// One `ops` slot; per-client state is multiplied by 10,000 (DESIGN.md §8).
const _: () = assert!(std::mem::size_of::<OpState>() == 16);
// One client; per-client state is multiplied by 10,000 (DESIGN.md §8).
const _: () = assert!(std::mem::size_of::<ClientNode>() <= 880);

/// What an issue site wants on the wire for one sub-op; [`ClientNode::emit`]
/// turns it into a single-op frame or a member of a coalesced one.
#[derive(Debug, Clone)]
enum SubOp {
    /// One-sided read of a window extent: a 2xR index bucket or data entry.
    Read(Pointer),
    /// Scan-and-Read of the index bucket at this extent for this key hash.
    Scar(Pointer, KeyHash),
    /// Server-side lookup, served at lean MSG or full RPC cost.
    Lookup(Bytes, LookupStrategy),
    /// A mutation at its nominated version (`expected` is CAS-only).
    Mutate {
        kind: MutationKind,
        key: Bytes,
        value: Bytes,
        version: VersionNumber,
        expected: VersionNumber,
    },
}

/// The batch frame a coalesced sub-op rides. The derived order is the flush
/// order within one doorbell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FrameKind {
    /// `rma::BatchRead`: 2xR index/data reads.
    Read,
    /// `rma::BatchScar`.
    Scar,
    /// `MSG_MULTI_GET` or `MULTI_GET_RPC`. MSG and RPC lookups never share
    /// a frame, so an adaptive client cannot mislabel a frame's cost model.
    Lookup(LookupStrategy),
    /// `MULTI_SET`.
    Set,
}

impl SubOp {
    /// The batch frame this sub-op can join (`None`: it always travels as
    /// its own frame — ERASE and CAS have no vectored form).
    fn frame_kind(&self) -> Option<FrameKind> {
        match self {
            SubOp::Read(_) => Some(FrameKind::Read),
            SubOp::Scar(..) => Some(FrameKind::Scar),
            SubOp::Lookup(_, strategy) => Some(FrameKind::Lookup(*strategy)),
            SubOp::Mutate { kind, .. } if *kind == MutationKind::Set => Some(FrameKind::Set),
            SubOp::Mutate { .. } => None,
        }
    }
}

/// Accumulates one MultiGet/MultiSet's wire traffic while its sub-ops issue
/// synchronously; flushed as one frame per `(kind, destination)` group. A
/// BTreeMap makes the flush order deterministic (std HashMap iteration
/// order is not).
#[derive(Debug, Default)]
struct BatchAccum {
    /// [`ClientNode::emit`] diverts into the accumulator while set: inside
    /// a container expansion or the demux of a *batch* RMA frame. Retries
    /// and single-frame demux never set it.
    active: bool,
    /// Pending `(sub tag, sub-op)` members per `(kind, destination node)`.
    frames: BTreeMap<(FrameKind, u32), Vec<(u64, SubOp)>>,
}

/// Distinguishes batch-frame user tags from per-sub-op tags. Control tags
/// (`CONFIG_TAG` etc.) also carry this bit, so they are always excluded
/// *before* the bit is tested.
const BATCH_TAG_BIT: u64 = 1 << 63;

/// The sub-ops riding one wire frame.
#[derive(Debug, PartialEq)]
enum Members {
    /// A single-op frame: the frame's user tag is its one member's sub tag.
    One([u64; 1]),
    /// A registered batch frame and its member sub tags.
    Batch(FrameKind, Vec<u64>),
}

impl Members {
    fn tags(&self) -> &[u64] {
        match self {
            Members::One(tag) => tag,
            Members::Batch(_, subs) => subs,
        }
    }
}

/// Outstanding wire frames under one view: a frame and its members. Only
/// batch frames are stored; a single-op frame is recognized by its tag, so
/// the unbatched path never touches the table.
#[derive(Debug, Default)]
struct Frames {
    /// Monotonic batch-frame counter (tag allocator).
    next: u64,
    batches: IdMap<u64, (FrameKind, Vec<u64>)>,
}

impl Frames {
    /// Register an outgoing batch frame; returns its user tag.
    fn register(&mut self, kind: FrameKind, subs: Vec<u64>) -> u64 {
        let tag = BATCH_TAG_BIT | self.next;
        self.next += 1;
        self.batches.insert(tag, (kind, subs));
        tag
    }

    /// Claim the members of the frame tagged `tag`, once: control tags and
    /// unknown (already claimed) batch tags have none.
    fn members(&mut self, tag: u64) -> Option<Members> {
        if tag >= IGNORE_TAG {
            None
        } else if tag & BATCH_TAG_BIT != 0 {
            let (kind, subs) = self.batches.remove(&tag)?;
            Some(Members::Batch(kind, subs))
        } else {
            Some(Members::One([tag]))
        }
    }
}

/// What one replica said — or failed to say — about one sub-op.
#[derive(Debug)]
enum Verdict {
    /// A one-sided result: status, SCAR bucket segment, data segment.
    Rma(RmaStatus, Bytes, Bytes),
    /// A server verdict. Lookup hits carry `(version, value)`; mutation
    /// verdicts and misses leave them zero/empty.
    Rpc(Status, VersionNumber, Bytes),
    /// A single-frame lookup response whose Ok body did not decode.
    Garbled,
    /// The frame carrying the sub-op never came back on this wire path.
    Lost(adaptive::Path),
}

impl Verdict {
    /// A bare server status (no lookup payload).
    fn status(status: Status) -> Verdict {
        Verdict::Rpc(status, VersionNumber::ZERO, Bytes::new())
    }
}

/// Client-internal deferred work.
#[derive(Debug)]
enum Work {
    /// Pacing timer: pull the next op from the workload.
    NextOp,
    /// A new logical op's start timer fired: admit and issue it.
    Start(u64, ClientOp),
    /// A logical op's backoff is over: issue its next attempt.
    Retry(u64),
    /// Flush batched access records.
    AccessFlush,
    /// Send pre-encoded bytes (after transport issue delay), stamped with
    /// the issuing op's trace id (0 = untraced).
    SendWire(NodeId, Bytes, u64),
    /// Client-library CPU for a GET attempt finished; issue its sub-ops.
    IssueAttempt(u64),
}

/// The client node.
pub struct ClientNode {
    cfg: Rc<ClientCfg>,
    client_id: u32,
    workload: Box<dyn Workload>,
    /// Client-side transport (public for harness engine sampling).
    pub transport: Transport,
    rma: RmaOpTable,
    calls: CallTable,
    work: Deferred<Work>,
    versions: VersionGen,
    memo: VersionMemo,
    /// Rc: cloned on every op issue (the config must outlive the borrow of
    /// `self.ops`), so a deep copy here would put two `Vec` clones on the
    /// per-op hot path.
    config: Option<Rc<CellConfig>>,
    config_refreshing: bool,
    geometry: IdMap<NodeId, GeomId>,
    connecting: IdSet<NodeId>,
    /// The cell's interned configs, geometries, metric handles and lease
    /// value table.
    shared: ClientShared,
    /// Issued ops.
    ops: BTreeMap<u64, OpState>,
    /// Admitted ops waiting to issue (empty, and unallocated, outside cold
    /// start and first contact with a backend).
    parked: BTreeMap<u64, Parked>,
    /// Recycled [`GetState`]s: completed GETs return here so steady-state
    /// issue reuses their `replicas`/`votes` capacity (no allocation).
    #[allow(clippy::vec_box)]
    free_gets: Vec<Box<GetState>>,
    /// Client-side lease cache (`cfg.cache`), built over the host's pool
    /// and the cell's value table at [`Event::Start`].
    ccache: Option<ClientCache>,
    /// Hot-key detector driving extended-replica routing (`cfg.hot_repl`).
    /// Boxed, like the controller: most cells run without either, and
    /// inline they are 1.1 KB of every client.
    hot: Option<Box<HotKeyTracker>>,
    /// Adaptive dataplane controller (`cfg.adaptive`).
    adaptive: Option<Box<Controller>>,
    /// Open MultiGet/MultiSet containers, each with the strategy chosen
    /// once for it (adaptive mode decides at expansion; members inherit so
    /// a coalesced frame is never mixed).
    batches: IdMap<u64, (Batch, LookupStrategy)>,
    /// Doorbell-batching accumulator (active only inside a MultiGet /
    /// MultiSet expansion or a batch-completion demux).
    coalesce: BatchAccum,
    /// Outstanding batch frames.
    frames: Frames,
    next_op_id: u64,
    in_flight: usize,
    workload_done: bool,
    access_buffer: BTreeMap<NodeId, Vec<KeyHash>>,
    /// Completed-op log for tests (bounded).
    pub completions: Vec<(OpOutcome, u64)>,
    /// Frame-buffer pool bodies are encoded into; swapped for the
    /// host-shared pool at [`Event::Start`].
    pool: Pool,
}

impl std::fmt::Debug for ClientNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientNode")
            .field("cfg", &self.cfg)
            .field("client_id", &self.client_id)
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

const COMPLETION_LOG_CAP: usize = 100_000;

/// The counter behind each [`RetryReason`], in declaration order.
const RETRY_REASONS: [(RetryReason, &str); 11] = [
    (RetryReason::Inquorate, "cm.retry.inquorate"),
    (RetryReason::Speculation, "cm.retry.speculation"),
    (RetryReason::ConfigMismatch, "cm.retry.config_mismatch"),
    (RetryReason::TornRead, "cm.retry.torn_read"),
    (RetryReason::MsgDecode, "cm.retry.msg_decode"),
    (RetryReason::MsgError, "cm.retry.msg_error"),
    (RetryReason::MsgTimeout, "cm.retry.msg_timeout"),
    (RetryReason::FallbackDecode, "cm.retry.fallback_decode"),
    (RetryReason::FallbackError, "cm.retry.fallback_error"),
    (RetryReason::FallbackTimeout, "cm.retry.fallback_timeout"),
    (RetryReason::MutationFailures, "cm.retry.mutation_failures"),
];

/// Declares [`ClientMetricIds`]: one interned handle per `field: "name"`,
/// plus one per [`RetryReason`].
macro_rules! metric_ids {
    ($($field:ident: $name:literal,)*) => {
        /// Interned handles for every metric the client writes per-op;
        /// resolved once per cell, at the first client's [`Event::Start`],
        /// so the GET/SET hot paths never touch a name.
        #[derive(Clone, Copy)]
        struct ClientMetricIds {
            $($field: MetricId,)*
            retry: [MetricId; RETRY_REASONS.len()],
        }

        impl ClientMetricIds {
            fn resolve(m: &mut Metrics) -> ClientMetricIds {
                let retry = RETRY_REASONS.map(|(_, name)| m.handle(name));
                ClientMetricIds { $($field: m.handle($name),)* retry }
            }
        }
    };
}

metric_ids! {
    overload_drops: "cm.client.overload_drops",
    cpu_ns: "cm.client.cpu_ns",
    op_errors: "cm.op_errors",
    get_hits: "cm.get.hits",
    get_misses: "cm.get.misses",
    get_overflow_fallbacks: "cm.get.overflow_fallbacks",
    get_overflow_hits: "cm.get.overflow_hits",
    get_torn_reads: "cm.get.torn_reads",
    get_hash_collisions: "cm.get.hash_collisions",
    get_batches: "cm.get.batches",
    get_completed: "cm.get.completed",
    set_batches: "cm.set.batches",
    set_completed: "cm.set.completed",
    rma_frames: "cm.client.rma_frames",
    set_acked: "cm.set.acked",
    set_superseded: "cm.set.superseded",
    retries: "cm.retries",
    rpc_bytes: "cm.rpc_bytes",
    config_refreshes: "cm.client.config_refreshes",
    config_mismatches: "cm.client.config_mismatches",
    stale_backend_config: "cm.client.stale_backend_config",
    geometry_invalidations: "cm.client.geometry_invalidations",
    access_flushes: "cm.client.access_flushes",
    rma_timeouts: "cm.client.rma_timeouts",
    rpc_timeouts: "cm.client.rpc_timeouts",
    rma_rtt_ns: "cm.rma.rtt_ns",
    getkey_latency_ns: "cm.getkey.latency_ns",
    get_latency_ns: "cm.get.latency_ns",
    set_latency_ns: "cm.set.latency_ns",
    ccache_hits: "cm.ccache.hits",
    ccache_stale: "cm.ccache.stale",
    ccache_misses: "cm.ccache.misses",
    ccache_validations: "cm.ccache.validations",
    ccache_invalidations: "cm.ccache.invalidations",
    hot_promotions: "cm.client.hot_promotions",
    hot_demotions: "cm.client.hot_demotions",
    hot_routed: "cm.client.hot_routed_gets",
}

impl ClientMetricIds {
    fn retry_reason(&self, reason: RetryReason) -> MetricId {
        self.retry[reason as usize]
    }
}

impl ClientNode {
    /// Build a client that will drive `workload`.
    pub fn new(cfg: Rc<ClientCfg>, me: ClientIdentity, workload: Box<dyn Workload>) -> ClientNode {
        let scar = me.transport.supports_scar();
        ClientNode {
            client_id: me.client_id,
            versions: VersionGen::new(me.client_id),
            calls: CallTable::new(me.client_id as u64),
            ccache: None,
            shared: me.shared,
            hot: cfg
                .hot_repl
                .clone()
                .map(|h| Box::new(HotKeyTracker::new(h))),
            adaptive: cfg.adaptive.clone().map(|a| {
                let mut ctl = Controller::new(a, me.adaptive_seed);
                // SCAR needs the programmable Pony Express NIC; on the
                // hardware transports the server bounces every scan with
                // Unsupported. Mask the arm rather than learn that from a
                // stream of doomed ops.
                if !scar {
                    ctl.set_arm_enabled(adaptive::Strategy::Scar, false);
                }
                Box::new(ctl)
            }),
            cfg,
            workload,
            transport: me.transport,
            rma: RmaOpTable::new(),
            work: Deferred::aux1(),
            memo: VersionMemo::default(),
            config: None,
            config_refreshing: false,
            geometry: IdMap::default(),
            connecting: IdSet::default(),
            ops: BTreeMap::new(),
            parked: BTreeMap::new(),
            free_gets: Vec::new(),
            batches: IdMap::default(),
            coalesce: BatchAccum::default(),
            frames: Frames::default(),
            next_op_id: 1,
            in_flight: 0,
            workload_done: false,
            access_buffer: BTreeMap::new(),
            completions: Vec::new(),
            pool: Pool::new(),
        }
    }

    /// Cached metric handles (resolved before any op can run).
    #[inline]
    fn m(&self) -> &ClientMetricIds {
        self.shared
            .0
            .mids
            .get()
            .expect("metric ids resolved at Start")
    }

    /// The cell config this client holds (`None` before the first one
    /// arrives). Clients holding the same config hold the same `Rc`.
    pub fn config(&self) -> Option<&Rc<CellConfig>> {
        self.config.as_ref()
    }

    /// The geometry this client holds for `backend`, if it has connected.
    pub fn geometry_of(&self, backend: NodeId) -> Option<Geometry> {
        let id = *self.geometry.get(&backend)?;
        Some(self.shared.geometry(id))
    }

    /// When the longest-waiting of the admitted ops that wait for config or
    /// geometry was admitted (`None`: no op waits).
    pub fn parked_since(&self) -> Option<SimTime> {
        self.parked
            .values()
            .map(|p| SimTime(p.attempt.started()))
            .min()
    }

    /// The trace id for a logical op: `(node + 1) << 40 | op_id` — globally
    /// unique across clients (op ids stay below 2^40 by the sub-op tag
    /// packing), never 0. Returns 0 when tracing is off, which turns every
    /// downstream trace hook into a no-op.
    #[inline]
    fn trace_of(&self, ctx: &Ctx<'_>, op_id: u64) -> u64 {
        if ctx.tracing() {
            ((ctx.self_id().0 as u64 + 1) << 40) | op_id
        } else {
            0
        }
    }

    /// Bill `cost` of client CPU to this event and to `cm.client.cpu_ns`,
    /// attributed to `trace` (0 = untraced).
    fn charge(&self, ctx: &mut Ctx<'_>, cost: SimDuration, trace: u64) {
        ctx.charge_cpu_traced(cost, trace, simnet::obs::stage::CLIENT_CPU);
        ctx.metrics().add_id(self.m().cpu_ns, cost.nanos());
    }

    // ---- adaptive controller bridge --------------------------------------

    /// Resolve the wire strategy for a GET about to issue. Fixed clients
    /// return `cfg.strategy`; adaptive clients let the controller decide —
    /// batch members inherit their container's choice (made once at
    /// expansion) so one coalesced frame never mixes strategies. Re-parked
    /// singles re-choose on release, which is deterministic.
    fn resolve_strategy(&mut self, batch: Option<u64>) -> LookupStrategy {
        let Some(ctl) = self.adaptive.as_mut() else {
            return self.cfg.strategy;
        };
        if let Some(&(_, strategy)) = batch.and_then(|bid| self.batches.get(&bid)) {
            return strategy;
        }
        ctl.choose(batch.is_some())
    }

    /// Running FNV-1a fingerprint of this client's strategy-choice stream
    /// (`None` without the controller) — the determinism-suite hook.
    pub fn adaptive_choice_hash(&self) -> Option<u64> {
        self.adaptive.as_ref().map(|c| c.choice_hash())
    }

    /// Controller counters: (decisions, per-strategy counts, explored,
    /// demotions, probes). `None` without the controller.
    pub fn adaptive_stats(&self) -> Option<(u64, [u64; 4], u64, u64, u64)> {
        self.adaptive.as_ref().map(|c| {
            (
                c.decisions(),
                c.choice_counts(),
                c.explored(),
                c.demotions(),
                c.probes(),
            )
        })
    }

    /// Feed an external health hint (e.g. a postmortem verdict naming a
    /// backend node) into the controller. No-op without it.
    pub fn adaptive_hint_unhealthy(&mut self, replica: u32) {
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.hint_unhealthy(replica);
        }
    }

    // ---- op intake -------------------------------------------------------

    fn schedule_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.workload_done {
            return;
        }
        let now = ctx.now();
        let res = {
            let rng = ctx.rng();
            self.workload.next(now, rng)
        };
        match res {
            None => {
                self.workload_done = true;
            }
            Some((gap, op)) => {
                let op_id = self.next_op_id;
                self.next_op_id += 1;
                let tok = self.work.defer(Work::Start(op_id, op));
                ctx.set_timer(gap, tok);
                if self.cfg.pacing == Pacing::Open {
                    let tok = self.work.defer(Work::NextOp);
                    ctx.set_timer(gap, tok);
                }
            }
        }
    }

    /// Admit a logical op under `max_in_flight` and issue it: a new op off
    /// its start timer, or a MultiGet/MultiSet member with its `batch`.
    fn start_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64, op: ClientOp, batch: Option<u64>) {
        if self.in_flight >= self.cfg.max_in_flight {
            ctx.metrics().add_id(self.m().overload_drops, 1);
            // A dropped batch member must still resolve its container, or
            // the batch would leak and never complete.
            if let Some(batch_id) = batch {
                self.batch_member_done(ctx, batch_id, OpOutcome::Error, SimDuration::ZERO);
            }
            return;
        }
        if let Some(shim) = &self.cfg.shim {
            self.charge(ctx, shim.per_op_cpu(Self::op_bytes(&op)), 0);
        }
        let (key, value, kind) = match op {
            ClientOp::MultiGet { keys } => {
                let subs = keys.into_iter().map(|key| ClientOp::Get { key });
                return self.expand_batch(ctx, op_id, subs.collect(), true);
            }
            ClientOp::MultiSet { entries } => {
                let subs = entries
                    .into_iter()
                    .map(|(key, value)| ClientOp::Set { key, value });
                return self.expand_batch(ctx, op_id, subs.collect(), false);
            }
            ClientOp::Get { key } => (key, Bytes::new(), None),
            ClientOp::Set { key, value } => (key, value, Some(MutationKind::Set)),
            ClientOp::Erase { key } => (key, Bytes::new(), Some(MutationKind::Erase)),
            ClientOp::Cas { key, value } => (key, value, Some(MutationKind::Cas)),
        };
        self.in_flight += 1;
        let attempt = Attempt::admit(ctx.now().nanos());
        let p = Parked {
            key,
            value,
            kind,
            batch,
            attempt,
        };
        self.try_issue(ctx, op_id, p);
    }

    /// Expand a MultiGet (`gets`) or MultiSet container into its per-key
    /// sub-ops, sharing a [`Batch`]. With doorbell batching on, the
    /// sub-ops' wire traffic coalesces into one frame per destination host,
    /// flushed at the end of the expansion.
    fn expand_batch(&mut self, ctx: &mut Ctx<'_>, op_id: u64, subs: Vec<ClientOp>, gets: bool) {
        if subs.is_empty() {
            // A zero-key batch resolves vacuously: it still reports a batch
            // completion (latency 0) so callers and pacing see it finish.
            let outcome = if gets {
                OpOutcome::Hit
            } else {
                OpOutcome::Done
            };
            return self.report_finished(ctx, gets, true, outcome, 0);
        }
        // Adaptive GET containers choose their strategy once here (as the
        // batched arm class); every member inherits it (mutation
        // containers keep the fixed default — mutations are
        // strategy-independent RPCs).
        let strategy = match self.adaptive.as_mut() {
            Some(ctl) if gets => ctl.choose(true),
            _ => self.cfg.strategy,
        };
        let batch = Batch::new(subs.len(), ctx.now().nanos(), gets);
        self.batches.insert(op_id, (batch, strategy));
        let coalescing = self.cfg.doorbell_batching && !self.coalesce.active;
        if coalescing {
            self.coalesce.active = true;
            // The API boundary (entry, pacing, completion arming) is paid
            // once per container; members then pay `BATCHED_KEY_CPU` each.
            let api = if gets { GET_CPU } else { SET_CPU };
            self.charge(ctx, api, 0);
        }
        for sub_op in subs {
            let sub = self.next_op_id;
            self.next_op_id += 1;
            self.start_op(ctx, sub, sub_op, Some(op_id));
        }
        if coalescing {
            self.coalesce_flush(ctx);
        }
    }

    fn op_bytes(op: &ClientOp) -> usize {
        match op {
            ClientOp::Set { value, .. } | ClientOp::Cas { value, .. } => value.len(),
            ClientOp::MultiSet { entries } => {
                entries.iter().map(|(_, v)| v.len()).sum::<usize>().max(64)
            }
            _ => 64,
        }
    }

    /// Move an admitted op into flight, or park it until config or a read
    /// quorum's geometry arrives (`release_parked` tries again); the
    /// attempt core decides which, and when the op's deadline fails it.
    fn try_issue(&mut self, ctx: &mut Ctx<'_>, op_id: u64, mut p: Parked) {
        let (now, policy) = (ctx.now().nanos(), self.cfg.retry);
        let Some(config) = self.config.clone() else {
            self.refresh_config(ctx);
            let step = p.attempt.ready(now, &policy, true);
            return self.run_step(ctx, op_id, step, Some(p));
        };
        let (hash, is_get, batch) = (self.shared.0.hasher.hash(&p.key), p.kind.is_none(), p.batch);
        let shard = place(hash, config.num_shards(), 1).shard;
        // Load-aware hot-key replication: feed the detector with the
        // client's own op stream; promoted keys get `extra_copies` more
        // replicas so the base set stops serving every fast-path read.
        let hot_now = match self.hot.as_mut() {
            Some(t) => {
                let rolled = t.touch(hash, ctx.now(), 1.0);
                let hot = t.is_hot(hash);
                if let Some(d) = rolled {
                    if !d.promoted.is_empty() {
                        ctx.metrics()
                            .add_id(self.m().hot_promotions, d.promoted.len() as u64);
                    }
                    if !d.demoted.is_empty() {
                        ctx.metrics()
                            .add_id(self.m().hot_demotions, d.demoted.len() as u64);
                    }
                }
                hot
            }
            None => false,
        };
        let base_copies = config.replication.copies().min(config.num_shards()) as usize;
        let extra = self.hot.as_ref().map(|t| t.cfg().extra_copies).unwrap_or(0) as usize;
        // Extended sets only make sense for mutable quorumed mode with
        // enough distinct shards to walk past the base replicas.
        let want = if hot_now
            && config.replication == ReplicationMode::R32
            && config.num_shards() as usize >= base_copies + extra
        {
            base_copies + extra
        } else {
            base_copies
        };
        let mut replica_buf = [NodeId(0); 8];
        let nreplicas = config.replicas_n_buf(shard, want as u32, &mut replica_buf);
        let n_base = base_copies.min(nreplicas);
        let replicas = &replica_buf[..nreplicas];
        // Per-op strategy: fixed clients use `cfg.strategy`; adaptive
        // clients consult the controller (batch members inherit their
        // container's choice).
        let strategy = if is_get {
            self.resolve_strategy(batch)
        } else {
            self.cfg.strategy
        };
        // GETs need geometry for every replica (RMA addressing), and go
        // once a read quorum's worth of base connections exist; mutations
        // are plain RPCs and can go immediately.
        let rq = config.replication.read_quorum() as usize;
        let (missing, nmissing, short) = match strategy_row(strategy).path {
            adaptive::Path::Rma if is_get => self.geometry_gaps(replicas, n_base, rq),
            _ => ([NodeId(0); 8], 0, false),
        };
        // Client-side lease cache: a mutation drops the owner's entry at
        // issue, so a client can never read its own stale write from the
        // cache.
        let mut expected = None;
        if let Some(kind) = p.kind {
            if self.ccache.as_mut().is_some_and(|c| c.invalidate(hash)) {
                ctx.metrics().add_id(self.m().ccache_invalidations, 1);
            }
            if kind == MutationKind::Cas {
                expected = self.memo.get(hash);
                if expected.is_none() {
                    // Nothing to expect: refused, not given up on (no
                    // `cm.op_errors`), latency from admission.
                    return self.complete(ctx, op_id, OpOutcome::Error, Some(p));
                }
            }
        }
        let step = p.attempt.ready(now, &policy, short);
        self.heal(ctx, step, &missing[..nmissing]);
        if !matches!(step, Step::Issue(_)) {
            return self.run_step(ctx, op_id, step, Some(p));
        }
        // A GET consults the lease cache only once it actually leaves the
        // parked state (so cache counters reconcile 1:1 with issued ops).
        let (mut cached_version, mut leased) = (None, None);
        if let (Some(cache), true) = (self.ccache.as_mut(), is_get) {
            match cache.lookup(hash, ctx.now()) {
                Lookup::Hit(version) => {
                    ctx.metrics().add_id(self.m().ccache_hits, 1);
                    leased = Some(version);
                }
                Lookup::Stale(version) => {
                    ctx.metrics().add_id(self.m().ccache_stale, 1);
                    cached_version = Some(version);
                }
                Lookup::Miss => {
                    ctx.metrics().add_id(self.m().ccache_misses, 1);
                }
            }
        }
        let header = move |key, replicas| OpHeader {
            key,
            hash,
            batch,
            attempt: p.attempt,
            replicas,
            n_base: n_base as u8,
        };
        let (state, aux) = match p.kind {
            None => {
                let mut state = self.free_gets.pop().unwrap_or_default();
                let mut recycled = std::mem::take(&mut state.h.replicas);
                // A valid lease completes the GET locally: no backend is
                // contacted, no sub-ops issue and nothing is allocated. The
                // op still passes through the normal completion path
                // (trace, latency, batch accounting).
                if leased.is_none() {
                    if nreplicas > n_base {
                        ctx.metrics().add_id(self.m().hot_routed, 1);
                    }
                    recycled.extend_from_slice(replicas);
                    state.quorum = GetQuorum::new(cached_version);
                    state.strategy = strategy;
                }
                state.h = header(p.key, recycled);
                (OpState::Get(state), trace_aux::GET)
            }
            Some(kind) => {
                let state = MutationState {
                    h: header(p.key, replicas.to_vec()),
                    config_id: config.config_id,
                    kind,
                    value: p.value,
                    expected,
                    version: VersionNumber::ZERO,
                    quorum: MutationQuorum::default(),
                };
                (OpState::Mutation(Box::new(state)), kind.wire().1)
            }
        };
        self.ops.insert(op_id, state);
        ctx.trace_open(self.trace_of(ctx, op_id), aux);
        match leased {
            Some(version) => self.finish_hit(ctx, op_id, version, None, false),
            None => self.issue_attempt(ctx, op_id),
        }
    }

    /// Lease-cache counters (`None` when the cache is disabled).
    pub fn cache_stats(&self) -> Option<crate::client_cache::CacheStats> {
        self.ccache.as_ref().map(|c| c.stats)
    }

    /// Currently promoted hot keys (0 when hot replication is disabled).
    pub fn hot_keys(&self) -> usize {
        self.hot.as_ref().map(|t| t.hot_len()).unwrap_or(0)
    }

    /// Inspect the cached entry for a key regardless of lease state
    /// (harness/test visibility; `None` when absent or cache disabled).
    pub fn cache_peek(&self, key: &[u8]) -> Option<(VersionNumber, Bytes)> {
        let hash = self.shared.0.hasher.hash(key);
        self.ccache
            .as_ref()
            .and_then(|c| c.peek(hash))
            .map(|(v, data, _lease)| (v, data))
    }

    // ---- GET path --------------------------------------------------------

    /// Send op `op_id`'s next attempt on its way, at issue and when a
    /// backoff ends. A mutation goes now. A GET attempt first pays
    /// client-library CPU on a real core (so op rate is CPU-bound at
    /// saturation and idle hosts pay C-state exits — the Fig. 16/17
    /// low-load latency hump), then issues its sub-ops.
    fn issue_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        match self.ops.get(&op_id) {
            Some(OpState::Get(_)) => {}
            Some(OpState::Mutation(_)) => return self.issue_mutation_attempt(ctx, op_id),
            None => return,
        }
        let trace = self.trace_of(ctx, op_id);
        if self.coalesce.active {
            // Doorbell batching: the sub-op must issue inside the expansion
            // event so its wire traffic lands in the accumulator before the
            // flush. It pays only the per-key marshal cost — the container
            // paid the API-boundary `GET_CPU` once at expansion.
            self.charge(ctx, BATCHED_KEY_CPU, trace);
            self.do_issue_attempt(ctx, op_id);
            return;
        }
        ctx.metrics().add_id(self.m().cpu_ns, GET_CPU.nanos());
        let tok = self.work.defer(Work::IssueAttempt(op_id));
        ctx.spawn_cpu_traced(GET_CPU, tok, trace, simnet::obs::stage::CLIENT_CPU);
    }

    fn do_issue_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let (Some(OpState::Get(get)), Some(config)) = (self.ops.get(&op_id), &self.config) else {
            return;
        };
        let (mode, quorum) = (config.replication, config.replication.read_quorum());
        // The strategy was resolved at issue and rides the op state, so
        // retries keep the arm that will be credited at completion.
        let row = strategy_row(get.strategy);
        // A retry whose geometry was invalidated (reshape, growth, restart)
        // must re-learn it before burning another attempt — "failed RMA
        // operations may retry on new connections" (§3).
        let (replicas, n_base) = (&get.h.replicas, get.h.n_base as usize);
        let (missing, nmissing, short) = match row.path {
            adaptive::Path::Rma => self.geometry_gaps(replicas, n_base, quorum as usize),
            adaptive::Path::Rpc => ([NodeId(0); 8], 0, false),
        };
        let (now, policy) = (ctx.now().nanos(), self.cfg.retry);
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        let step = get.h.attempt.ready(now, &policy, short);
        self.heal(ctx, step, &missing[..nmissing]);
        let Step::Issue(attempt) = step else {
            return self.run_step(ctx, op_id, step, None);
        };
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        get.data = None;
        let (hash, key) = (get.h.hash, get.h.key.clone());
        let (n_replicas, n_base) = (get.h.replicas.len(), get.h.n_base as usize);
        let immutable = mode == ReplicationMode::R2Immutable;
        // Gray-failure evasion: the controller names the demoted replicas
        // of a full consult set, floored at a read quorum (probe
        // pass-throughs are its business).
        let (replicas, adaptive) = (&get.h.replicas, self.adaptive.as_mut());
        let demoted = |n| {
            let mut ids = [0u32; MAX_CONSULT];
            for (id, r) in ids.iter_mut().zip(replicas) {
                *id = r.0;
            }
            adaptive.map_or(0, |ctl| ctl.skip_mask(&ids[..n], quorum as usize, row.path))
        };
        let (set, consulted) = consult_set(immutable, n_replicas, n_base, attempt, op_id, demoted);
        let consulted = &set.map(|r| get.h.replicas[r as usize])[..consulted];
        let tag = sub_tag(op_id, attempt, 0);
        let Some(first) = row.first else {
            get.quorum.begin_lookup();
            let strategy = get.strategy;
            return self.emit(ctx, &consulted[..1], tag, SubOp::Lookup(key, strategy));
        };
        get.quorum.begin(GetRules {
            read_quorum: quorum as u8,
            expected_votes: consulted.len() as u8,
            n_base: n_base as u8,
            n_replicas: n_replicas as u8,
            data_is_separate: row.data_is_separate,
            prefer_first_responder: self.cfg.prefer_first_responder,
        });
        for &r in consulted {
            let Some(geom) = self.geometry_of(r) else {
                self.on_vote(ctx, tag, r, Vote::Failed, false);
                continue;
            };
            let len = bucket_size(geom.assoc as usize) as u32;
            let bucket = Pointer {
                window: geom.index_window,
                generation: geom.index_generation,
                offset: (hash as u64) % geom.num_buckets * len as u64,
                len,
            };
            self.emit(ctx, &[r], tag, first(bucket, hash));
        }
    }

    /// Which of `replicas` still lack geometry (the first of the returned
    /// count), and whether fewer than a read quorum `rq` of the base
    /// (quorum-bearing) prefix have it.
    fn geometry_gaps(
        &self,
        replicas: &[NodeId],
        n_base: usize,
        rq: usize,
    ) -> ([NodeId; 8], usize, bool) {
        let mut missing = [NodeId(0); 8];
        let (mut nmissing, mut have_base) = (0, 0);
        for (i, r) in replicas.iter().enumerate() {
            if !self.geometry.contains_key(r) {
                missing[nmissing] = *r;
                nmissing += 1;
            } else if i < n_base {
                have_base += 1;
            }
        }
        (missing, nmissing, have_base < rq)
    }

    /// Keep connecting to the replicas an op is `missing` unless its
    /// `step` ended it: a dead replica must not park reads forever (its
    /// vote simply fails), and a revived one rejoins this way.
    fn heal(&mut self, ctx: &mut Ctx<'_>, step: Step, missing: &[NodeId]) {
        if !matches!(step, Step::Complete(_)) {
            for &m in missing {
                self.ensure_connect(ctx, m);
            }
        }
    }

    /// Put sub-op `tag` on the wire toward each of `dsts` — the one place
    /// that chooses between joining the doorbell accumulator and leaving
    /// now as a single-op frame. Every RMA sub-op pays `RMA_OP_CPU` either
    /// way; a coalesced lookup or SET pays its send-side cost once per
    /// frame at flush instead of once per op here (that amortization IS
    /// the batching win on the MSG/RPC path).
    fn emit(&mut self, ctx: &mut Ctx<'_>, dsts: &[NodeId], tag: u64, sub: SubOp) {
        let trace = self.trace_of(ctx, tag >> 10);
        let kind = sub.frame_kind();
        if matches!(kind, Some(FrameKind::Read | FrameKind::Scar)) {
            for _ in dsts {
                self.charge(ctx, RMA_OP_CPU, trace);
            }
        }
        if let (true, Some(kind)) = (self.coalesce.active, kind) {
            for dst in dsts {
                let frame = self.coalesce.frames.entry((kind, dst.0)).or_default();
                frame.push((tag, sub.clone()));
            }
            return;
        }
        let now = ctx.now();
        let (method_id, send_cost, body) = match sub {
            SubOp::Read(at) => {
                let (w, g) = (at.window_id(), at.generation);
                for &dst in dsts {
                    let op = self.rma.begin_read(dst, w, g, at.offset, at.len, now, tag);
                    self.send_rma(ctx, dst, op, trace);
                }
                return;
            }
            SubOp::Scar(at, hash) => {
                let (w, g) = (at.window_id(), at.generation);
                for &dst in dsts {
                    let op = self
                        .rma
                        .begin_scar(dst, w, g, at.offset, at.len, hash, now, tag);
                    self.send_rma(ctx, dst, op, trace);
                }
                return;
            }
            SubOp::Lookup(key, strategy) => {
                let row = strategy_row(strategy);
                let body = messages::GetReq { key }.encode_in(&self.pool);
                (row.methods.0, row.cost().client_send, body)
            }
            SubOp::Mutate {
                kind,
                key,
                value,
                version,
                expected,
            } => {
                let new_version = version;
                let body = match kind {
                    MutationKind::Set => messages::SetReq {
                        key,
                        value,
                        version,
                    }
                    .encode_in(&self.pool),
                    MutationKind::Erase => {
                        messages::EraseReq { key, version }.encode_in(&self.pool)
                    }
                    MutationKind::Cas => messages::CasReq {
                        key,
                        value,
                        expected,
                        new_version,
                    }
                    .encode_in(&self.pool),
                };
                (kind.wire().0, RPC_COST.client_send, body)
            }
        };
        // An RPC body encodes once and is shared across `dsts`.
        for &dst in dsts {
            self.charge(ctx, send_cost, trace);
            self.send_rpc(ctx, dst, method_id, body.clone(), tag, trace);
        }
    }

    /// Send one RMA frame (single or batched) through the client-side
    /// transport and arm its attempt timer.
    fn send_rma(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, op: (u64, Bytes), trace: u64) {
        let (rma_id, wire) = op;
        // Every RMA wire frame (single or batched) counts once — the
        // frames-per-batch economics of doorbell batching read from here.
        ctx.metrics().add_id(self.m().rma_frames, 1);
        // Annotate (don't alter) traced sub-ops aimed at a CPU-dead
        // replica: the postmortem uses this to name the gray failure.
        if trace != 0 && ctx.peer_cpu_dead(dst) {
            ctx.trace_mark(
                trace,
                simnet::obs::stage::SERVER_CPU,
                ctx.host_of(dst).0 as u64,
            );
        }
        // Client-side transport issue cost (engine queueing on Pony).
        let ready = self.transport.admit_issue(ctx.now());
        let delay = ready.since(ctx.now());
        if delay == SimDuration::ZERO {
            ctx.send_traced(dst, wire, trace);
        } else {
            ctx.trace_interval(trace, simnet::obs::stage::ENGINE, ctx.now(), ready);
            let tok = self.work.defer(Work::SendWire(dst, wire, trace));
            ctx.set_timer(delay, tok);
        }
        ctx.set_timer(self.cfg.attempt_timeout, RmaOpTable::timer_token(rma_id));
    }

    /// Feed one replica's index vote on sub-op `tag` to the op's quorum and
    /// act on its step.
    fn on_vote(
        &mut self,
        ctx: &mut Ctx<'_>,
        tag: u64,
        replica: NodeId,
        vote: Vote,
        overflow: bool,
    ) {
        let (op_id, attempt, _) = split_tag(tag);
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        if get.h.attempt.number() != attempt {
            return; // stale sub-op from an earlier attempt
        }
        // Any substantive answer (even an absent key) proves the path that
        // carried it and resets that path's demotion streak.
        if let (Some(ctl), true) = (self.adaptive.as_mut(), vote != Vote::Failed) {
            ctl.record_success(replica.0, strategy_row(get.strategy).path);
        }
        let Some(from) = get.h.position(replica) else {
            return;
        };
        let step = get.quorum.vote(from, vote, overflow);
        self.run_get_step(ctx, op_id, step, None);
    }

    /// Execute the one step the quorum core returned for GET `op_id`.
    /// `served` is the value of the server answer that decided a hit;
    /// without one the hit was read one-sidedly and its value is in the op.
    fn run_get_step(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        step: GetStep,
        served: Option<Bytes>,
    ) {
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        match step {
            GetStep::Wait => {}
            GetStep::FetchData { from, ptr } => {
                let node = get.h.replicas[from as usize];
                let tag = sub_tag(op_id, get.h.attempt.number(), 1);
                // Issued while demuxing a batched index response, this
                // re-coalesces into the follow-up frame.
                self.emit(ctx, &[node], tag, SubOp::Read(ptr));
            }
            GetStep::ValidateLease(version) => {
                let cache = self.ccache.as_mut();
                if cache.is_some_and(|c| c.validate(get.h.hash, version, ctx.now())) {
                    ctx.metrics().add_id(self.m().ccache_validations, 1);
                    return self.finish_hit(ctx, op_id, version, None, true);
                }
                let step = get.quorum.lease_gone();
                self.run_get_step(ctx, op_id, step, None);
            }
            GetStep::Fallback => {
                let replicas = get.h.replicas.clone();
                let key = get.h.key.clone();
                let tag = sub_tag(op_id, get.h.attempt.number(), 2);
                ctx.metrics().add_id(self.m().get_overflow_fallbacks, 1);
                // The fallback round always travels as single-op RPCs.
                let trace = self.trace_of(ctx, op_id);
                for replica in replicas {
                    let body = messages::GetReq { key: key.clone() }.encode_in(&self.pool);
                    self.send_rpc(ctx, replica, method::GET_RPC, body, tag, trace);
                }
            }
            GetStep::Hit(version) => {
                let one_sided = served.is_none();
                let value = served.or_else(|| get.data.take());
                self.finish_hit(ctx, op_id, version, value, one_sided);
            }
            GetStep::Miss => self.finish_miss(ctx, op_id),
            GetStep::Retry(reason) => self.retry(ctx, op_id, reason),
        }
    }

    /// The one GET hit: remember the version, report a read the backends
    /// did not see (`one_sided`) for their recency tracking, fill the lease
    /// cache with `value` (`None`: the cached value itself was served),
    /// count, complete.
    fn finish_hit(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        version: VersionNumber,
        value: Option<Bytes>,
        one_sided: bool,
    ) {
        let Some(OpState::Get(get)) = self.ops.get(&op_id) else {
            return;
        };
        let hash = get.h.hash;
        self.memo.remember(hash, version);
        if one_sided && self.cfg.access_flush.is_some() {
            for &r in &get.h.replicas {
                self.access_buffer.entry(r).or_default().push(hash);
            }
        }
        if let (Some(cache), Some(value)) = (self.ccache.as_mut(), value) {
            // The cache copies the value, so the inbound frame goes back
            // to its sender's pool here.
            cache.insert(hash, version, value, ctx.now());
        }
        ctx.metrics().add_id(self.m().get_hits, 1);
        self.settle(ctx, op_id, OpOutcome::Hit);
    }

    /// The one GET miss: the cell says the key is gone, so the stale lease
    /// entry the op found at issue goes too.
    fn finish_miss(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        if let (Some(OpState::Get(get)), Some(cache)) = (self.ops.get(&op_id), &mut self.ccache) {
            if get.quorum.holds_lease() {
                cache.invalidate(get.h.hash);
            }
        }
        ctx.metrics().add_id(self.m().get_misses, 1);
        self.settle(ctx, op_id, OpOutcome::Miss);
    }

    /// The live attempt of op `op_id` failed for `reason`.
    fn retry(&mut self, ctx: &mut Ctx<'_>, op_id: u64, reason: RetryReason) {
        ctx.metrics().add_id(self.m().retry_reason(reason), 1);
        let (now, policy) = (ctx.now().nanos(), self.cfg.retry);
        if let Some(state) = self.ops.get_mut(&op_id) {
            let attempt = &mut state.header_mut().attempt;
            let step = attempt.failed(now, &policy, || ctx.rng().next_f64());
            self.run_step(ctx, op_id, step, None);
        }
    }

    /// Op `op_id` settled with `outcome`.
    fn settle(&mut self, ctx: &mut Ctx<'_>, op_id: u64, outcome: OpOutcome) {
        if let Some(state) = self.ops.get_mut(&op_id) {
            let step = state.header_mut().attempt.settled(outcome);
            self.run_step(ctx, op_id, step, None);
        }
    }

    /// Act on a step of op `op_id`'s attempt core (`parked`: the op is
    /// not issued). An `Issue` is acted on where the attempt leaves.
    fn run_step(&mut self, ctx: &mut Ctx<'_>, op_id: u64, step: Step, parked: Option<Parked>) {
        match step {
            Step::Wait | Step::Issue(_) => {}
            Step::Park => {
                // An issued op is parked in its core, and stays in `ops`.
                if let Some(p) = parked {
                    self.parked.insert(op_id, p);
                }
            }
            Step::Backoff(ns) => {
                ctx.metrics().add_id(self.m().retries, 1);
                let (now, backoff) = (ctx.now(), SimDuration(ns));
                let trace = self.trace_of(ctx, op_id);
                ctx.trace_interval(trace, simnet::obs::stage::RETRY, now, now + backoff);
                let tok = self.work.defer(Work::Retry(op_id));
                ctx.set_timer(backoff, tok);
            }
            Step::Complete(outcome) => {
                if outcome == OpOutcome::Error {
                    ctx.metrics().add_id(self.m().op_errors, 1);
                }
                self.complete(ctx, op_id, outcome, parked);
            }
        }
    }

    // ---- mutations -------------------------------------------------------

    /// Drop demoted replicas from a mutation's fan-out. Base-prefix sends
    /// never fall below the write quorum `wq`; extended (hot) copies are
    /// skipped whenever demoted, since they carry no quorum weight. A
    /// skipped replica will never respond, so the count of them goes to
    /// the quorum as up-front failures. The op's `replicas` itself is left
    /// untouched, so base-prefix membership checks stay correct.
    fn filter_mutation_targets(
        &mut self,
        replicas: Vec<NodeId>,
        n_base: usize,
        wq: usize,
    ) -> (Vec<NodeId>, u8) {
        let Some(ctl) = self.adaptive.as_mut() else {
            return (replicas, 0);
        };
        if replicas.len() <= 1 || replicas.len() > 64 {
            return (replicas, 0);
        }
        let ids: Vec<u32> = replicas[..n_base].iter().map(|r| r.0).collect();
        let mask = ctl.skip_mask(&ids, wq, adaptive::Path::Rpc);
        let mut kept = Vec::with_capacity(replicas.len());
        let mut skipped = 0;
        for (i, r) in replicas.into_iter().enumerate() {
            let skip = if i < n_base {
                mask & (1 << i) != 0
            } else {
                ctl.is_demoted_on(r.0, adaptive::Path::Rpc)
            };
            if skip {
                skipped += 1;
            } else {
                kept.push(r);
            }
        }
        (kept, skipped)
    }

    fn issue_mutation_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let trace = self.trace_of(ctx, op_id);
        let (Some(OpState::Mutation(m)), Some(config)) = (self.ops.get(&op_id), &self.config)
        else {
            return;
        };
        let (kind, write_quorum) = (m.kind, config.replication.write_quorum() as u8);
        // A coalesced MultiSet member pays only per-entry marshal; the
        // container paid the `SET_CPU` API boundary once at expansion.
        let issue_cpu = if self.coalesce.active && kind == MutationKind::Set {
            BATCHED_KEY_CPU
        } else {
            SET_CPU
        };
        self.charge(ctx, issue_cpu, trace);
        let (tt, now, policy) = (ctx.truetime(), ctx.now().nanos(), self.cfg.retry);
        let (Some(OpState::Mutation(m)), Some(config)) = (self.ops.get_mut(&op_id), &self.config)
        else {
            return;
        };
        if m.config_id != config.config_id {
            // The shard moved since the replica list was resolved (a
            // `WrongShard` answer refreshed the config): resolve it again,
            // as wide as before.
            let shard = place(m.h.hash, config.num_shards(), 1).shard;
            let mut buf = [NodeId(0); 8];
            let n = config.replicas_n_buf(shard, m.h.replicas.len() as u32, &mut buf);
            let base = config.replication.copies().min(config.num_shards()) as usize;
            m.h.replicas.clear();
            m.h.replicas.extend_from_slice(&buf[..n]);
            m.h.n_base = base.min(n) as u8;
            m.config_id = config.config_id;
        }
        let Step::Issue(attempt) = m.h.attempt.ready(now, &policy, false) else {
            return;
        };
        // Every attempt nominates a fresh, higher version (§5.2): retried
        // mutations eventually win. Batched or not, the nomination happens
        // in the same event, at the same truetime, in the same order.
        m.version = self.versions.nominate(tt);
        let tag = sub_tag(op_id, attempt, 0);
        let sub = SubOp::Mutate {
            kind,
            key: m.h.key.clone(),
            value: m.value.clone(),
            version: m.version,
            expected: m.expected.unwrap_or(VersionNumber::ZERO),
        };
        let (replicas, n_base) = (m.h.replicas.clone(), m.h.n_base);
        let copies = replicas.len() as u8;
        let (targets, skipped) =
            self.filter_mutation_targets(replicas, n_base as usize, write_quorum as usize);
        if let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) {
            m.quorum = MutationQuorum::begin(write_quorum, n_base, copies, skipped);
        }
        self.emit(ctx, &targets, tag, sub);
    }

    /// One replica's verdict on a mutation: feed the write quorum and act
    /// on its step.
    fn on_mutation_reply(&mut self, ctx: &mut Ctx<'_>, tag: u64, from: NodeId, reply: Reply) {
        let (op_id, attempt, _) = split_tag(tag);
        let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) else {
            return;
        };
        if m.h.attempt.number() != attempt {
            return;
        }
        // Any substantive verdict (even a version rejection) proves the
        // replica answered its RPC — reset its demotion streak.
        if let (Some(ctl), true) = (self.adaptive.as_mut(), reply != Reply::Failure) {
            ctl.record_success(from.0, adaptive::Path::Rpc);
        }
        let base = m.h.position(from).is_some_and(|i| i < m.h.n_base);
        let (hash, kind) = (m.h.hash, m.kind);
        match m.quorum.reply(base, reply) {
            MutationStep::Wait => {}
            MutationStep::Done => {
                let (version, value) = (m.version, m.value.clone());
                match kind {
                    MutationKind::Erase => self.memo.forget(hash),
                    _ => self.memo.remember(hash, version),
                }
                if let Some(cache) = self.ccache.as_mut() {
                    // Write-through: the committed version replaces whatever
                    // the issue-time invalidation left behind.
                    match kind {
                        MutationKind::Erase => {
                            cache.invalidate(hash);
                        }
                        _ => cache.insert(hash, version, value, ctx.now()),
                    }
                }
                ctx.metrics().add_id(self.m().set_acked, 1);
                self.settle(ctx, op_id, OpOutcome::Done);
            }
            MutationStep::Superseded => {
                if let Some(cache) = self.ccache.as_mut() {
                    cache.invalidate(hash);
                }
                ctx.metrics().add_id(self.m().set_superseded, 1);
                self.settle(ctx, op_id, OpOutcome::Superseded);
            }
            MutationStep::Retry => self.retry(ctx, op_id, RetryReason::MutationFailures),
        }
    }

    // ---- RPC plumbing ----------------------------------------------------

    /// Send one RPC frame carrying user tag `tag` (a sub-op tag, a batch
    /// frame tag, or a control tag) and arm its attempt timer.
    fn send_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        m: u16,
        body: Bytes,
        tag: u64,
        trace: u64,
    ) {
        let deadline = ctx.now().nanos() + self.cfg.attempt_timeout.nanos();
        let (id, wire) = self.calls.begin(dst, m, body, ctx.now(), deadline, tag);
        ctx.metrics().add_id(self.m().rpc_bytes, wire.len() as u64);
        if trace != 0 && ctx.peer_cpu_dead(dst) {
            ctx.trace_mark(
                trace,
                simnet::obs::stage::SERVER_CPU,
                ctx.host_of(dst).0 as u64,
            );
        }
        ctx.send_traced(dst, wire, trace);
        ctx.set_timer(self.cfg.attempt_timeout, CallTable::timer_token(id));
    }

    /// Flush the doorbell-batching accumulator: one wire frame, one
    /// transport issue admission (or one send-side RPC charge — the
    /// amortization the batch crossover figure measures), and one timer per
    /// `(kind, destination)` group.
    fn coalesce_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.coalesce.active = false;
        for ((kind, dst), members) in std::mem::take(&mut self.coalesce.frames) {
            let dst = NodeId(dst);
            // One pass sorts the members into the frame's wire vector (the
            // others stay empty and unallocated).
            let mut subs = Vec::with_capacity(members.len());
            let (mut reads, mut scars) = (Vec::new(), Vec::new());
            let (mut keys, mut entries) = (Vec::new(), Vec::new());
            // All sub-ops aimed at one replica share its geometry entry, so
            // the first SCAR's (window, generation) speaks for the frame.
            let mut scar_at = Pointer::default();
            for (sub, s) in members {
                subs.push(sub);
                match s {
                    SubOp::Read(at) => reads.push(rma::BatchReadEntry {
                        sub,
                        window: at.window,
                        generation: at.generation,
                        offset: at.offset,
                        len: at.len,
                    }),
                    SubOp::Scar(at, key_hash) => {
                        if scars.is_empty() {
                            scar_at = at;
                        }
                        scars.push(rma::BatchScarEntry {
                            sub,
                            bucket_offset: at.offset,
                            bucket_len: at.len,
                            key_hash,
                        });
                    }
                    SubOp::Lookup(key, _) => keys.push(key),
                    SubOp::Mutate {
                        key,
                        value,
                        version,
                        ..
                    } => entries.push((key, value, version)),
                }
            }
            // The frame is traced under its first member's op (a batch is
            // one doorbell; per-sub attribution happens at demux).
            let trace = self.trace_of(ctx, subs[0] >> 10);
            let (now, pool) = (ctx.now(), &self.pool);
            let (method_id, cost, body) = match kind {
                FrameKind::Read => {
                    let btag = self.frames.register(kind, subs);
                    let op = self.rma.begin_batch_read(dst, reads, now, btag);
                    self.send_rma(ctx, dst, op, trace);
                    continue;
                }
                FrameKind::Scar => {
                    let btag = self.frames.register(kind, subs);
                    let (w, g) = (scar_at.window_id(), scar_at.generation);
                    let op = self.rma.begin_batch_scar(dst, w, g, scars, now, btag);
                    self.send_rma(ctx, dst, op, trace);
                    continue;
                }
                // The RPC vectors echo the member tags on the wire too.
                FrameKind::Lookup(strategy) => {
                    let subs = subs.clone();
                    let body = messages::MultiGetReq { subs, keys }.encode_in(pool);
                    let row = strategy_row(strategy);
                    (row.methods.1, row.cost(), body)
                }
                FrameKind::Set => {
                    let subs = subs.clone();
                    let body = messages::MultiSetReq { subs, entries }.encode_in(pool);
                    (method::MULTI_SET, &*RPC_COST, body)
                }
            };
            self.charge(ctx, cost.client_send, trace);
            let btag = self.frames.register(kind, subs);
            self.send_rpc(ctx, dst, method_id, body, btag, trace);
        }
    }

    fn ensure_connect(&mut self, ctx: &mut Ctx<'_>, backend: NodeId) {
        if self.connecting.contains(&backend) {
            return;
        }
        self.connecting.insert(backend);
        self.send_rpc(ctx, backend, method::CONNECT, Bytes::new(), CONNECT_TAG, 0);
    }

    fn refresh_config(&mut self, ctx: &mut Ctx<'_>) {
        if self.config_refreshing {
            return;
        }
        self.config_refreshing = true;
        ctx.metrics().add_id(self.m().config_refreshes, 1);
        let deadline = ctx.now().nanos() + self.cfg.attempt_timeout.nanos();
        let (id, wire) = self.calls.begin(
            self.cfg.config_store,
            method::GET_CONFIG,
            Bytes::new(),
            ctx.now(),
            deadline,
            CONFIG_TAG,
        );
        ctx.send(self.cfg.config_store, wire);
        ctx.set_timer(self.cfg.attempt_timeout, CallTable::timer_token(id));
    }

    fn release_parked(&mut self, ctx: &mut Ctx<'_>) {
        // Every parked op tries again, in admission order; what still
        // cannot go parks again.
        for (id, p) in std::mem::take(&mut self.parked) {
            self.try_issue(ctx, id, p);
        }
        // Then the issued GETs parked on geometry re-learning.
        let parked: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, s)| matches!(s, OpState::Get(g) if g.h.attempt.parked()))
            .map(|(&id, _)| id)
            .collect();
        for id in parked {
            self.do_issue_attempt(ctx, id);
        }
    }

    fn on_rpc_completion(&mut self, ctx: &mut Ctx<'_>, done: rpc::Completion) {
        match done.call.user_tag {
            CONFIG_TAG => {
                self.config_refreshing = false;
                if done.status == Status::Ok {
                    if let Some(config) = CellConfig::decode(done.body) {
                        // A new config invalidates geometry learned from
                        // nodes that changed roles.
                        let changed = self
                            .config
                            .as_ref()
                            .map(|old| old.config_id != config.config_id)
                            .unwrap_or(true);
                        if changed {
                            self.geometry.clear();
                            self.connecting.clear();
                        }
                        self.config = Some(self.shared.intern_config(config));
                        self.release_parked(ctx);
                    }
                }
            }
            CONNECT_TAG => {
                self.connecting.remove(&done.call.dst);
                if done.status == Status::Ok {
                    if let Some(geom) = Geometry::decode(done.body) {
                        // Validate the backend agrees with our config.
                        let ours = self.config.as_ref().map(|c| c.config_id);
                        if ours == Some(geom.config_id) {
                            let id = self.shared.intern_geometry(geom);
                            self.geometry.insert(done.call.dst, id);
                        } else {
                            self.refresh_config(ctx);
                        }
                    }
                } else if done.status == Status::WrongShard {
                    self.refresh_config(ctx);
                }
                self.release_parked(ctx);
            }
            // An access-record ack resolves nothing but still costs a
            // single-frame receive (uncounted, like every such receive).
            IGNORE_TAG => ctx.charge_cpu(RPC_COST.client_recv),
            tag => {
                let from = done.call.dst;
                let Some(members) = self.frames.members(tag) else {
                    return;
                };
                let rep_trace = self.trace_of(ctx, members.tags()[0] >> 10);
                let decoded = done.status == Status::Ok;
                match members {
                    Members::One([sub]) => {
                        // Model-cost quirk, pinned by the committed CSVs: a
                        // single-op frame's receive is billed at full RPC
                        // cost but not counted in `cm.client.cpu_ns`, and a
                        // live MSG/RPC lookup then pays its strategy's
                        // `client_recv` again (counted). Batch frames pay
                        // once, counted.
                        ctx.charge_cpu_traced(
                            RPC_COST.client_recv,
                            rep_trace,
                            simnet::obs::stage::CLIENT_CPU,
                        );
                        let (op_id, attempt, phase) = split_tag(sub);
                        let get = match self.ops.get(&op_id) {
                            Some(OpState::Get(g)) => Some((
                                strategy_row(g.strategy).cost,
                                g.h.attempt.number() == attempt,
                            )),
                            _ => None,
                        };
                        if let (Some((Some(cost), true)), 0) = (get, phase) {
                            self.charge(ctx, cost.client_recv, rep_trace);
                        }
                        // Only lookups answer with a body; a mutation's
                        // verdict is its status.
                        let verdict = if decoded && get.is_some() {
                            match messages::GetResp::decode(done.body) {
                                Some(resp) => Verdict::Rpc(Status::Ok, resp.version, resp.value),
                                None => Verdict::Garbled,
                            }
                        } else {
                            Verdict::status(done.status)
                        };
                        self.deliver(ctx, sub, from, verdict);
                    }
                    // One receive-side charge for the whole frame, then
                    // per-member resolution identical to the single path. A
                    // failed or undecodable frame is an Internal verdict
                    // from this replica for every member.
                    Members::Batch(kind, subs) => {
                        let cost = match kind {
                            FrameKind::Lookup(strategy) => strategy_row(strategy).cost(),
                            _ => &RPC_COST,
                        };
                        self.charge(ctx, cost.client_recv, rep_trace);
                        let mut demuxed = false;
                        if decoded && kind == FrameKind::Set {
                            if let Some(resp) = messages::MultiSetResp::decode(done.body) {
                                demuxed = true;
                                for (sub, s) in resp.statuses {
                                    let verdict = Verdict::status(Status::from_u8(s));
                                    self.deliver(ctx, sub, from, verdict);
                                }
                            }
                        } else if decoded {
                            if let Some(resp) = messages::MultiGetResp::decode(done.body) {
                                demuxed = true;
                                for e in resp.entries {
                                    let status = Status::from_u8(e.status);
                                    let verdict = Verdict::Rpc(status, e.version, e.value);
                                    self.deliver(ctx, e.sub, from, verdict);
                                }
                            }
                        }
                        if !demuxed {
                            for sub in subs {
                                self.deliver(ctx, sub, from, Verdict::status(Status::Internal));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every sub-op outcome, from any frame shape on any wire path, lands
    /// here: `verdict` is what `replica` said (or failed to say) about the
    /// sub-op `tag`. It becomes one input to the op's quorum.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, tag: u64, replica: NodeId, verdict: Verdict) {
        let (op_id, attempt, phase) = split_tag(tag);
        let verdict = match verdict {
            Verdict::Rma(status, bucket, data) => {
                return self.on_rma_result(ctx, replica, tag, status, bucket, data);
            }
            Verdict::Lost(adaptive::Path::Rma) => {
                return self.on_vote(ctx, tag, replica, Vote::Failed, false);
            }
            rpc => rpc,
        };
        match self.ops.get_mut(&op_id) {
            Some(OpState::Mutation(_)) => {
                // A lost frame is the verdict a failed RPC would have been.
                let reply = match verdict {
                    Verdict::Rpc(Status::Ok, ..) => Reply::Ack,
                    Verdict::Rpc(Status::VersionRejected | Status::NotFound, ..) => Reply::Reject,
                    // The replica handed its shard away: learn who holds
                    // it before the retry.
                    Verdict::Rpc(Status::WrongShard, ..) => {
                        self.refresh_config(ctx);
                        Reply::Failure
                    }
                    _ => Reply::Failure,
                };
                self.on_mutation_reply(ctx, tag, replica, reply);
            }
            // A server's answer: to an MSG/RPC lookup, or (phase 2) as one
            // verdict of an overflow-fallback round.
            Some(OpState::Get(get)) if get.h.attempt.number() == attempt => {
                let fallback = phase == 2;
                let (answer, value) = match verdict {
                    Verdict::Rpc(Status::Ok, version, value) => (Ok(Some(version)), Some(value)),
                    Verdict::Rpc(Status::NotFound, ..) => (Ok(None), None),
                    failure => {
                        let (lookup, round) = match failure {
                            Verdict::Garbled => {
                                (RetryReason::MsgDecode, RetryReason::FallbackDecode)
                            }
                            Verdict::Lost(_) => {
                                (RetryReason::MsgTimeout, RetryReason::FallbackTimeout)
                            }
                            _ => (RetryReason::MsgError, RetryReason::FallbackError),
                        };
                        (Err(if fallback { round } else { lookup }), None)
                    }
                };
                let step = get.quorum.served(answer);
                if fallback && matches!(step, GetStep::Hit(_)) {
                    ctx.metrics().add_id(self.m().get_overflow_hits, 1);
                }
                self.run_get_step(ctx, op_id, step, value);
            }
            _ => {}
        }
    }

    // ---- RMA completions ---------------------------------------------------

    /// One RMA frame came back: one completion admission for the whole
    /// frame, then per-member routing. Data fetches that the demux of a
    /// *batch* frame triggers (2×R) re-coalesce into a follow-up frame; a
    /// single-op frame never re-arms coalescing.
    fn on_rma_completion(&mut self, ctx: &mut Ctx<'_>, done: rma::OpCompletion) {
        let Some(members) = self.frames.members(done.op.user_tag) else {
            return;
        };
        let batch = matches!(members, Members::Batch(..));
        let rep_trace = self.trace_of(ctx, members.tags()[0] >> 10);
        // Client-side transport completion processing cost.
        let bytes = done.results().map(|d| d.data.len() + d.bucket.len()).sum();
        let ready = self.transport.admit_completion(ctx.now(), bytes);
        ctx.trace_interval(rep_trace, simnet::obs::stage::ENGINE, ctx.now(), ready);
        // Engine occupancy is tracked; latency impact is folded into
        // RMA_OP_CPU to keep the event count low. The admission backlog is
        // the cheapest live proxy for remote engine pressure, so the
        // controller taps it here.
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.observe_engine(ready.since(ctx.now()).nanos());
        }
        // Fabric + target-serve round trip, as a hardware timestamper on
        // the NIC would report it (the Fig. 16 quantity).
        ctx.metrics().record_id(self.m().rma_rtt_ns, done.rtt_ns);
        let replica = done.op.dst;
        if done.results().next().is_none() {
            // Defensive: a frame-level failure with no per-entry verdicts
            // fails every member's vote from this replica.
            for &sub in members.tags() {
                self.deliver(ctx, sub, replica, Verdict::Lost(adaptive::Path::Rma));
            }
            return;
        }
        let rearm = batch && self.cfg.doorbell_batching && !self.coalesce.active;
        self.coalesce.active |= rearm;
        for d in done.into_results() {
            let trace = self.trace_of(ctx, d.sub >> 10);
            self.charge(ctx, RMA_OP_CPU, trace);
            self.deliver(
                ctx,
                d.sub,
                replica,
                Verdict::Rma(d.status, d.bucket, d.data),
            );
        }
        if rearm {
            self.coalesce_flush(ctx);
        }
    }

    /// A frame's attempt timer fired with no response: every member (a
    /// single op is its own one member) sees it lost on `path`. The stall
    /// from issue to expiry is charged to each still-live op's retry tier —
    /// a late expiry after quorum completion attributes nothing. Whatever
    /// retries follow go out unbatched.
    fn on_frame_lost(
        &mut self,
        ctx: &mut Ctx<'_>,
        tag: u64,
        dst: NodeId,
        issued_at: SimTime,
        path: adaptive::Path,
    ) {
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.record_timeout(dst.0, path);
        }
        let Some(members) = self.frames.members(tag) else {
            return;
        };
        for &sub in members.tags() {
            let op_id = sub >> 10;
            if self.ops.contains_key(&op_id) {
                let trace = self.trace_of(ctx, op_id);
                ctx.trace_interval(trace, simnet::obs::stage::RETRY, issued_at, ctx.now());
            }
            self.deliver(ctx, sub, dst, Verdict::Lost(path));
        }
    }

    /// One RMA result (a single op's completion or one batch entry): apply
    /// the shared status policy, self-validate what came back, and turn it
    /// into the op's next quorum input.
    fn on_rma_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        replica: NodeId,
        tag: u64,
        status: RmaStatus,
        bucket: Bytes,
        data: Bytes,
    ) {
        let (op_id, attempt, phase) = split_tag(tag);
        if !matches!(status, RmaStatus::Ok | RmaStatus::NoMatch) {
            if status != RmaStatus::Unsupported {
                // Stale geometry (reshape, growth, restart): drop it and
                // re-learn via CONNECT on the retry path (§4.1).
                ctx.metrics().add_id(self.m().geometry_invalidations, 1);
                self.geometry.remove(&replica);
            }
            return self.on_vote(ctx, tag, replica, Vote::Failed, false);
        }
        let m = self.m();
        let (torn_reads, hash_collisions) = (m.get_torn_reads, m.get_hash_collisions);
        let (config_mismatches, stale_config) = (m.config_mismatches, m.stale_backend_config);
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        let live = get.h.attempt.number() == attempt;
        let Some(from) = get.h.position(replica) else {
            return;
        };
        if phase == 1 {
            // The data read of a 2×R GET, validated end to end (§3 step 5).
            if !live {
                return;
            }
            let version = match parse_value(&data, &get.h.key) {
                // Torn read — rare, but normal (§3).
                Err(_) => {
                    ctx.metrics().add_id(torn_reads, 1);
                    None
                }
                // 128-bit hash collision: affirmatively not our key.
                Ok(None) => {
                    ctx.metrics().add_id(hash_collisions, 1);
                    return self.finish_miss(ctx, op_id);
                }
                Ok(Some((version, value))) => {
                    get.data = Some(value);
                    Some(version)
                }
            };
            let step = get.quorum.data(from, version);
            return self.run_get_step(ctx, op_id, step, None);
        }
        // An index response. 2×R read the bucket as plain data; a SCAR
        // returns the bucket and, on a match, the entry it points at.
        let (bucket, inline) = match strategy_row(get.strategy).data_is_separate {
            true => (data, Bytes::new()),
            false => (bucket, data),
        };
        if bucket.len() < layout::BUCKET_HEADER_BYTES {
            return self.on_vote(ctx, tag, replica, Vote::Failed, false);
        }
        // Validate the bucket's config stamp against ours.
        let expected = self.config.as_ref().map(|c| c.config_id).unwrap_or(0);
        let got = layout::bucket_config_id(&bucket);
        if got > expected {
            // The backend knows a newer configuration than we do (e.g. it
            // migrated its shard away): refresh and retry (§6.1). Votes
            // still outstanding may yet settle the op first.
            ctx.metrics().add_id(config_mismatches, 1);
            get.quorum.shun_data_source();
            self.refresh_config(ctx);
            return self.retry(ctx, op_id, RetryReason::ConfigMismatch);
        }
        if got < expected {
            // The backend is lagging behind a config update that doesn't
            // concern it (we selected it from the *current* config, so its
            // data is still authoritative). Tolerate the stale stamp.
            ctx.metrics().add_id(stale_config, 1);
        }
        let vote = match layout::scan_bucket(&bucket, get.h.hash).0 {
            Some((_, e)) => Vote::Entry(e.version, e.ptr),
            None => Vote::Absent,
        };
        // Inline data: the first valid copy becomes the preferred one.
        if live && status == RmaStatus::Ok && !inline.is_empty() && get.data.is_none() {
            match parse_value(&inline, &get.h.key) {
                Ok(Some((version, value))) => {
                    get.quorum.inline_data(from, version);
                    get.data = Some(value);
                }
                Ok(None) => ctx.metrics().add_id(hash_collisions, 1),
                Err(_) => ctx.metrics().add_id(torn_reads, 1),
            }
        }
        let overflowed = layout::bucket_overflowed(&bucket);
        self.on_vote(ctx, tag, replica, vote, overflowed);
    }

    // ---- completion ------------------------------------------------------

    /// The one completion of an admitted op: issued (its state leaves
    /// `ops`) or failed while parked (`p`).
    fn complete(&mut self, ctx: &mut Ctx<'_>, op_id: u64, outcome: OpOutcome, p: Option<Parked>) {
        let (attempt, batch, is_get, get) = match p {
            Some(p) => (p.attempt, p.batch, p.kind.is_none(), None),
            None => match self.ops.remove(&op_id) {
                None => return,
                Some(OpState::Mutation(m)) => (m.h.attempt, m.h.batch, false, None),
                Some(OpState::Get(g)) => (g.h.attempt, g.h.batch, true, Some(g)),
            },
        };
        let (at, started) = (ctx.now(), SimTime(attempt.started()));
        let shim_overhead = self.shim_overhead();
        let observed = at.since(started) + shim_overhead;
        if let Some(mut g) = get {
            // Feed the arm that actually served this GET: the
            // caller-observed latency plus the model-derived client CPU for
            // the fan-out the op really used. Mutations are
            // strategy-independent (always RPC) and carry no signal.
            if let Some(ctl) = self.adaptive.as_mut() {
                let cpu = strategy_row(g.strategy).cpu_ns(g.quorum.rules().expected_votes as u64);
                ctl.observe(g.strategy, batch.is_some(), observed.nanos(), cpu);
            }
            // Recycle the state so the next op reuses its `replicas`
            // capacity.
            if self.free_gets.len() < FREE_GETS_CAP {
                g.recycle();
                self.free_gets.push(g);
            }
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        let trace = self.trace_of(ctx, op_id);
        ctx.trace_close(trace, started, at, trace_aux::outcome_code(outcome));
        if let Some(shim) = &self.cfg.shim {
            self.charge(ctx, shim.per_op_cpu(0), 0);
        }
        match batch {
            Some(batch_id) => {
                if is_get {
                    ctx.metrics()
                        .record_id(self.m().getkey_latency_ns, observed.nanos());
                }
                self.batch_member_done(ctx, batch_id, outcome, shim_overhead);
            }
            None => self.report_finished(ctx, is_get, false, outcome, observed.nanos()),
        }
    }

    /// What the application-side caller observes beyond the client library:
    /// pipe traversals in both directions plus shim marshalling on the way
    /// in and out.
    fn shim_overhead(&self) -> SimDuration {
        self.cfg.shim.as_ref().map_or(SimDuration::ZERO, |s| {
            s.round_trip_overhead() + s.per_op_cpu(0).saturating_mul(2)
        })
    }

    /// A caller-visible op — a single, or a whole container — finished:
    /// record its latency and count, log it, and let pacing move on.
    fn report_finished(
        &mut self,
        ctx: &mut Ctx<'_>,
        gets: bool,
        container: bool,
        outcome: OpOutcome,
        latency_ns: u64,
    ) {
        let m = *self.m();
        let (lat, count) = match (gets, container) {
            (true, false) => (m.get_latency_ns, m.get_completed),
            (true, true) => (m.get_latency_ns, m.get_batches),
            (false, false) => (m.set_latency_ns, m.set_completed),
            (false, true) => (m.set_latency_ns, m.set_batches),
        };
        ctx.metrics().record_id(lat, latency_ns);
        ctx.metrics().add_id(count, 1);
        if self.completions.len() < COMPLETION_LOG_CAP {
            self.completions.push((outcome, latency_ns));
        }
        self.on_op_finished(ctx);
    }

    /// One member of container `batch_id` resolved with `outcome` (a member
    /// dropped at admission resolves as an Error); the last one finishes
    /// the container.
    fn batch_member_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        batch_id: u64,
        outcome: OpOutcome,
        shim_overhead: SimDuration,
    ) {
        let Some((batch, _)) = self.batches.get_mut(&batch_id) else {
            return;
        };
        let Some(outcome) = batch.member_done(outcome) else {
            return;
        };
        let (b, _) = self.batches.remove(&batch_id).expect("present above");
        let latency = ctx.now().since(SimTime(b.started)) + shim_overhead;
        self.report_finished(ctx, b.gets, true, outcome, latency.nanos());
    }

    fn on_op_finished(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.pacing == Pacing::Closed {
            match &self.cfg.shim {
                // Closed-loop callers behind a shim can't issue the next op
                // until the response crosses the pipe back and the next
                // request is marshalled — the Fig. 6a rate gap.
                Some(_) => {
                    let tok = self.work.defer(Work::NextOp);
                    ctx.set_timer(self.shim_overhead(), tok);
                }
                None => self.schedule_next(ctx),
            }
        }
    }

    fn flush_access_records(&mut self, ctx: &mut Ctx<'_>) {
        let buffered = std::mem::take(&mut self.access_buffer);
        for (backend, hashes) in buffered {
            if hashes.is_empty() {
                continue;
            }
            ctx.metrics().add_id(self.m().access_flushes, 1);
            let body = messages::AccessRecords { hashes }.encode_in(&self.pool);
            self.send_rpc(ctx, backend, method::ACCESS_RECORDS, body, IGNORE_TAG, 0);
        }
        if let Some(interval) = self.cfg.access_flush {
            let tok = self.work.defer(Work::AccessFlush);
            ctx.set_timer(interval, tok);
        }
    }
}

const CONFIG_TAG: u64 = u64::MAX;
const CONNECT_TAG: u64 = u64::MAX - 1;
const IGNORE_TAG: u64 = u64::MAX - 2;

/// Aux codes stamped on trace OPEN (op kind) and CLOSE (outcome) events.
pub mod trace_aux {
    use crate::workload::OpOutcome;

    /// OPEN aux: the op is a GET.
    pub const GET: u64 = 1;
    /// OPEN aux: the op is a SET.
    pub const SET: u64 = 2;
    /// OPEN aux: the op is an ERASE.
    pub const ERASE: u64 = 3;
    /// OPEN aux: the op is a CAS.
    pub const CAS: u64 = 4;

    /// CLOSE aux: outcome code for an [`OpOutcome`].
    pub fn outcome_code(o: OpOutcome) -> u64 {
        match o {
            OpOutcome::Hit => 1,
            OpOutcome::Miss => 2,
            OpOutcome::Done => 3,
            OpOutcome::Superseded => 4,
            OpOutcome::Error => 5,
        }
    }
}

/// Self-validate a fetched data entry (§3 step 5: checksum, then full
/// key). `Err`: torn. `Ok(None)`: intact, but another key's. Otherwise its
/// version and its value — a zero-copy slice of the inbound frame.
fn parse_value(data: &Bytes, key: &[u8]) -> Result<Option<(VersionNumber, Bytes)>, ()> {
    let entry = parse_data_entry(data).map_err(|_| ())?;
    if entry.key != key {
        return Ok(None);
    }
    let at = layout::DATA_ENTRY_HEADER_BYTES + entry.key.len();
    Ok(Some((entry.version, data.slice(at..at + entry.data.len()))))
}

/// Pack (op, attempt, phase) into a sub-op tag.
fn sub_tag(op_id: u64, attempt: u64, phase: u8) -> u64 {
    (op_id << 10) | ((attempt & 0xFF) << 2) | phase as u64
}

fn split_tag(tag: u64) -> (u64, u64, u8) {
    (tag >> 10, (tag >> 2) & 0xFF, (tag & 0b11) as u8)
}

impl Node for ClientNode {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                let mids = &self.shared.0.mids;
                mids.get_or_init(|| ClientMetricIds::resolve(ctx.metrics()));
                self.pool = ctx.pool();
                self.calls.set_pool(self.pool.clone());
                self.rma.set_pool(self.pool.clone());
                let shared = self.shared.values().cloned().unwrap_or_default();
                self.ccache = self
                    .cfg
                    .cache
                    .clone()
                    .map(|c| ClientCache::with_shared(c, self.pool.clone(), shared));
                self.refresh_config(ctx);
                self.schedule_next(ctx);
                if let Some(interval) = self.cfg.access_flush {
                    let tok = self.work.defer(Work::AccessFlush);
                    ctx.set_timer(interval, tok);
                }
            }
            Event::Frame(frame) => {
                if let Some(env) = rma::decode(frame.payload.clone()) {
                    if let Some(done) = self.rma.complete(env, ctx.now()) {
                        self.on_rma_completion(ctx, done);
                    }
                    return;
                }
                if let Some(rpc::Envelope::Response(resp)) = rpc::decode(frame.payload) {
                    if let Some(done) = self.calls.complete(resp, ctx.now()) {
                        self.on_rpc_completion(ctx, done);
                    }
                }
            }
            Event::Timer(token) | Event::CpuDone(token) => {
                if let Some(work) = self.work.take(token) {
                    match work {
                        Work::NextOp => self.schedule_next(ctx),
                        Work::Start(id, op) => self.start_op(ctx, id, op, None),
                        Work::Retry(op) => self.issue_attempt(ctx, op),
                        Work::AccessFlush => self.flush_access_records(ctx),
                        Work::SendWire(dst, wire, trace) => ctx.send_traced(dst, wire, trace),
                        Work::IssueAttempt(op) => self.do_issue_attempt(ctx, op),
                    }
                } else if let Some(rma_id) = RmaOpTable::op_of_timer(token) {
                    if let Some(op) = self.rma.expire(rma_id) {
                        ctx.metrics().add_id(self.m().rma_timeouts, 1);
                        let path = adaptive::Path::Rma;
                        self.on_frame_lost(ctx, op.user_tag, op.dst, op.issued_at, path);
                    }
                } else if let Some(call_id) = CallTable::call_of_timer(token) {
                    if let Some(call) = self.calls.expire(call_id) {
                        ctx.metrics().add_id(self.m().rpc_timeouts, 1);
                        match call.user_tag {
                            CONFIG_TAG => {
                                self.config_refreshing = false;
                                // Nothing arrived to release the parked ops:
                                // each meets its deadline here, in order.
                                let (now, policy) = (ctx.now().nanos(), self.cfg.retry);
                                for (id, mut p) in std::mem::take(&mut self.parked) {
                                    let step = p.attempt.ready(now, &policy, true);
                                    self.run_step(ctx, id, step, Some(p));
                                }
                                self.refresh_config(ctx);
                            }
                            CONNECT_TAG => {
                                self.connecting.remove(&call.dst);
                                // A dead backend: refresh config in case the
                                // cell moved the shard.
                                self.refresh_config(ctx);
                            }
                            IGNORE_TAG => {}
                            tag => {
                                let path = adaptive::Path::Rpc;
                                self.on_frame_lost(ctx, tag, call.dst, call.issued_at, path);
                            }
                        }
                    }
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("client[{}]", self.client_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_tag_roundtrip() {
        for op in [1u64, 255, 1 << 20, (1 << 40) - 1] {
            for attempt in [1u64, 7, 255] {
                for phase in [0u8, 1, 2] {
                    let tag = sub_tag(op, attempt, phase);
                    assert_eq!(split_tag(tag), (op, attempt, phase));
                }
            }
        }
    }

    #[test]
    fn attempt_wraps_at_256_without_op_collision() {
        let a = sub_tag(5, 256, 0);
        let b = sub_tag(5, 0, 0);
        assert_eq!(a, b, "attempt is mod-256 by design");
        assert_ne!(sub_tag(5, 1, 0), sub_tag(6, 1, 0));
    }

    #[test]
    fn control_tags_outside_sub_tag_space() {
        // Reserved control tags must never collide with op tags for any
        // plausible op id.
        for tag in [CONFIG_TAG, CONNECT_TAG, IGNORE_TAG] {
            let (op, _, _) = split_tag(tag);
            assert!(op > (1 << 50), "control tag decodes to plausible op {op}");
        }
    }

    #[test]
    fn members_view_of_single_batch_and_control_tags() {
        let mut frames = Frames::default();
        // A single op is a frame with one member: its own tag, every time,
        // with nothing registered.
        let single = sub_tag(42, 3, 1);
        assert_eq!(frames.members(single), Some(Members::One([single])));
        assert_eq!(frames.members(single).unwrap().tags(), [single]);
        assert!(frames.batches.is_empty());
        // A registered batch tag yields its member list exactly once.
        let subs = vec![sub_tag(7, 1, 0), sub_tag(8, 1, 0)];
        let a = frames.register(FrameKind::Scar, subs.clone());
        let b = frames.register(FrameKind::Set, vec![sub_tag(9, 2, 0)]);
        assert_ne!(a, b);
        assert_eq!(
            frames.members(a),
            Some(Members::Batch(FrameKind::Scar, subs))
        );
        assert_eq!(frames.members(a), None, "a frame demuxes once");
        assert_eq!(frames.members(b).unwrap().tags(), [sub_tag(9, 2, 0)]);
        // Control tags carry the batch bit but are never frames.
        for tag in [CONFIG_TAG, CONNECT_TAG, IGNORE_TAG] {
            assert_eq!(frames.members(tag), None);
        }
    }

    #[test]
    fn default_cfg_is_sane() {
        let cfg = ClientCfg::default();
        assert!(cfg.prefer_first_responder);
        assert!(cfg.max_in_flight > 0);
        assert!(cfg.retry.max_attempts > 1);
        assert_eq!(cfg.strategy, LookupStrategy::TwoR);
    }
}
