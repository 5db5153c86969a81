//! The CliqueMap client library, as a simulation node.
//!
//! The client owns the paper's read path end to end:
//!
//! * **2×R GETs** (§3): bucket fetch → client-side scan → data fetch →
//!   self-validation (checksum, full-key compare, config id), each answer
//!   judged by the read core ([`crate::read`]);
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
use std::sync::Arc;

use bytes::{Bytes, Pool};

use rma::codec::{
    encode_batch_read_req_in, encode_batch_scar_req_in, encode_read_req_in, encode_scar_req_in,
};
use rma::Transport;
use rpc::{RetryPolicy, Status};
use simnet::obs::stage::CLIENT_CPU;
use simnet::{Ctx, Deferred, Event, IdMap, MetricId, Node, NodeId, SimDuration, SimTime};

use adaptive::{Controller, ControllerCfg};

use crate::attempt::{Attempt, Batch, Step};
use crate::client_cache::{ClientCache, ClientCacheCfg, Lookup, SharedValues};
use crate::config::{CellConfig, ReplicationMode};
use crate::hash::{place, DefaultHasher, KeyHash, KeyHasher};
use crate::history::{self, value_hash, History, Kind, Tap, Who};
use crate::layout::{bucket_size, Pointer};
use crate::messages::{self, method, Geometry};
use crate::policy::{HotKeyTracker, HotReplCfg};
use crate::quorum::{
    consult_set, GetQuorum, GetRules, GetStep, MutationQuorum, MutationStep, Replica, Reply,
    RetryReason, Vote, MAX_CONSULT,
};
use crate::read::{self, Answer, Phase, Verdict};
use crate::shim::ShimSpec;
use crate::version::{VersionGen, VersionNumber};
use crate::workload::{ClientOp, OpOutcome, Pacing, VersionMemo, Workload};
use crate::RPC_COST;

/// How the client performs lookups: 2×R (two sequential one-sided reads),
/// SCAR (one programmable-NIC scan per replica), MSG (two-sided messaging —
/// the comparison point / WAN fallback) or full-framework RPC (same wire
/// shape as MSG but served at full RPC cost, so per-op framework overhead
/// dominates until batching amortizes it). The adaptive controller's arms
/// are exactly these, so the two crates share one type.
pub use adaptive::Strategy as LookupStrategy;

/// Client CPU of one GET under `strategy` that consulted `consulted`
/// replicas — the controller's CPU/op signal, from the same calibrated
/// constants the simulator bills, so no per-charge-site bookkeeping is
/// needed.
fn get_cpu_ns(strategy: LookupStrategy, consulted: u64) -> u64 {
    let row = read::row(strategy);
    let fan_out = match row.cost {
        Some(cost) => (cost.client_send + cost.client_recv).nanos(),
        // An index read per consulted replica, plus 2×R's data fetch.
        None => RMA_OP_CPU.nanos() * (consulted + row.data_is_separate as u64),
    };
    GET_CPU.nanos() + fan_out
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
/// handles; the lease caches' value table; the blank GET states
/// completed GETs leave for the next one; the History tap. Each client
/// still decides which config and which geometry per backend it holds, and when it refreshes
/// or drops one, so its staleness is its own — only the bytes are shared.
/// Host-side only: nothing simulated reads a table. No cap on configs; at
/// most 65,533 geometries; one entry per distinct config or advertised
/// geometry, and those tables never shrink. Each backend a client meets
/// gets a dense slot here, the index of its entry in every client's
/// per-backend row (DESIGN.md §8).
#[derive(Clone)]
pub struct ClientShared(Rc<SharedTables>);

struct SharedTables {
    hasher: Arc<dyn KeyHasher>,
    values: Option<SharedValues>,
    configs: RefCell<Vec<Rc<CellConfig>>>,
    geometries: RefCell<(Vec<Geometry>, HashMap<Geometry, GeomId>)>,
    /// Backend node id (`NodeId.0`) → its slot in every client's
    /// [`BackendRow`], numbered in the order the cell's clients first met
    /// them. One table per cell; no client keeps a per-backend map.
    slots: RefCell<IdMap<u32, u32>>,
    mids: OnceCell<ClientMetricIds>,
    /// Recycled [`GetState`]s: a completed GET returns its state here so
    /// the cell's next GET, whichever client issues it, reuses its
    /// `replicas` capacity (no allocation). The list is as long as the most
    /// GETs the cell ever had in flight at once, up to [`FREE_GETS_CAP`].
    #[allow(clippy::vec_box)]
    recycled_gets: RefCell<Vec<Box<GetState>>>,
    history: Tap,
}

/// A row of [`ClientShared`]'s geometry table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GeomId(u16);

/// Most distinct geometries one cell's [`ClientShared`] interns: a
/// [`BackendRow`] entry spends two of its `u16` values on "unknown" and
/// "connecting" and keeps `u16::MAX` spare. Interning one more panics.
const MAX_GEOMETRIES: usize = u16::MAX as usize - 2;

/// What a client holds per backend, one `u16` per backend slot of its
/// cell's [`ClientShared`]: `0` nothing, `1` a CONNECT in flight, `k + 2`
/// the geometry `GeomId(k)`. One field serves for both because a backend is
/// never both connecting and held: a client connects only to a backend it
/// holds no geometry for, and every CONNECT answer ends "connecting" before
/// it installs a geometry. Grows only to the highest slot the client has
/// touched (DESIGN.md §8).
#[derive(Debug, Default)]
struct BackendRow(Vec<u16>);

impl BackendRow {
    const UNKNOWN: u16 = 0;
    const CONNECTING: u16 = 1;

    fn state(&self, slot: usize) -> u16 {
        self.0.get(slot).copied().unwrap_or(Self::UNKNOWN)
    }

    fn set(&mut self, slot: usize, state: u16) {
        if slot >= self.0.len() {
            if state == Self::UNKNOWN {
                return;
            }
            // Exact: a row is as long as its highest slot, not twice that.
            self.0.reserve_exact(slot + 1 - self.0.len());
            self.0.resize(slot + 1, Self::UNKNOWN);
        }
        self.0[slot] = state;
    }

    /// The geometry held for the backend at `slot`, if any.
    fn geometry(&self, slot: usize) -> Option<GeomId> {
        self.state(slot).checked_sub(2).map(GeomId)
    }

    /// Mark a CONNECT to the backend at `slot`, which the client holds no
    /// geometry for, in flight: whether one must be sent (none already is).
    fn start_connect(&mut self, slot: usize) -> bool {
        debug_assert!(
            self.geometry(slot).is_none(),
            "connecting to a held backend"
        );
        let idle = self.state(slot) != Self::CONNECTING;
        self.set(slot, Self::CONNECTING);
        idle
    }

    /// A CONNECT to the backend at `slot` was answered or timed out: it is
    /// no longer connecting (a geometry it already holds stays).
    fn settle(&mut self, slot: usize) {
        if self.state(slot) == Self::CONNECTING {
            self.set(slot, Self::UNKNOWN);
        }
    }

    fn install(&mut self, slot: usize, id: GeomId) {
        self.set(slot, id.0 + 2);
    }

    /// Drop the geometry held at `slot` (a CONNECT in flight stays).
    fn drop_geometry(&mut self, slot: usize) {
        if self.geometry(slot).is_some() {
            self.set(slot, Self::UNKNOWN);
        }
    }

    /// Forget every backend (a new config).
    fn clear(&mut self) {
        self.0.clear();
    }
}

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
            slots: RefCell::default(),
            mids: OnceCell::new(),
            recycled_gets: RefCell::default(),
            history: Tap::default(),
        }))
    }

    /// The cell's History tap: what every client and backend of the cell
    /// records through, once it is started.
    pub fn history(&self) -> &Tap {
        &self.0.history
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
            assert!(
                all.len() < MAX_GEOMETRIES,
                "a cell holds at most {MAX_GEOMETRIES} distinct geometries"
            );
            all.push(geom);
            GeomId(all.len() as u16 - 1)
        })
    }

    fn geometry(&self, id: GeomId) -> Geometry {
        self.0.geometries.borrow().0[id.0 as usize]
    }

    /// `backend`'s slot in every client's [`BackendRow`], assigned the
    /// first time any client of the cell meets it.
    fn slot(&self, backend: NodeId) -> usize {
        let mut slots = self.0.slots.borrow_mut();
        let next = slots.len() as u32;
        *slots.entry(backend.0).or_insert(next) as usize
    }

    /// A blank GET state, recycled if the cell has one.
    fn get_state(&self) -> Box<GetState> {
        self.0.recycled_gets.borrow_mut().pop().unwrap_or_default()
    }

    /// Keep a completed GET's state for the cell's next GET.
    fn recycle_get(&self, mut state: Box<GetState>) {
        let mut free = self.0.recycled_gets.borrow_mut();
        if free.len() < FREE_GETS_CAP {
            state.recycle();
            free.push(state);
        }
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

/// Completed [`GetState`]s a cell keeps for reuse; beyond this they are
/// dropped.
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

/// An issued op. Boxed states keep an `ops` slot at 16 B; GET boxes
/// recycle through the cell's [`ClientShared`].
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
const _: () = assert!(std::mem::size_of::<ClientNode>() <= 592);

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

/// A client's MultiGet/MultiSet state.
#[derive(Debug, Default)]
struct Containers {
    /// Open containers, each with the strategy chosen once for it
    /// (adaptive mode decides at expansion; members inherit so a coalesced
    /// frame is never mixed).
    open: IdMap<u64, (Batch, LookupStrategy)>,
    /// Doorbell-batching accumulator (active only inside a container
    /// expansion or a batch-completion demux).
    coalesce: BatchAccum,
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

/// A control call: what its answer resolves.
#[derive(Debug)]
enum Control {
    /// `GET_CONFIG` to the config store.
    Config,
    /// `CONNECT` to a backend: its geometry.
    Connect,
    /// An `ACCESS_RECORDS` flush: nothing waits on its ack.
    Ack,
}

/// One frame in flight, kept under the [`Deferred::in_flight`] token that
/// is both its wire id and its attempt timer's token: where it went, when,
/// and what its answer resolves.
#[derive(Debug)]
enum Flight {
    /// A control call to a node, issued at a time.
    Control(Control, NodeId, SimTime),
    /// A single-op frame on a path to a node, issued at a time: its one
    /// sub-op's tag.
    Sub(adaptive::Path, NodeId, SimTime, u64),
    /// A doorbell-batched frame to a node: its issue time (ns), then its
    /// members' sub tags in wire order. The time rides the member list so
    /// that no record holds a slice beside a time, which keeps every record
    /// at 24 B.
    Batch(FrameKind, NodeId, Box<[u64]>),
}

// One in-flight record, the size of a record of the RMA op table it
// replaces; per-client state is multiplied by 10,000 (DESIGN.md §8).
const _: () = assert!(std::mem::size_of::<Flight>() == 24);

impl Flight {
    fn dst(&self) -> NodeId {
        match self {
            Flight::Control(_, dst, _) | Flight::Sub(_, dst, ..) | Flight::Batch(_, dst, _) => *dst,
        }
    }

    fn issued_at(&self) -> SimTime {
        match self {
            Flight::Control(_, _, at) | Flight::Sub(_, _, at, _) => *at,
            Flight::Batch(_, _, stamped) => SimTime(stamped[0]),
        }
    }

    /// The wire path the frame travels.
    fn path(&self) -> adaptive::Path {
        match self {
            Flight::Sub(path, ..) => *path,
            Flight::Batch(FrameKind::Read | FrameKind::Scar, ..) => adaptive::Path::Rma,
            _ => adaptive::Path::Rpc,
        }
    }

    /// The sub-ops the frame carries (none for a control call).
    fn members(&self) -> &[u64] {
        match self {
            Flight::Control(..) => &[],
            Flight::Sub(.., sub) => std::slice::from_ref(sub),
            Flight::Batch(_, _, stamped) => &stamped[1..],
        }
    }
}

/// Claim the record an answer on `path` resolves, once: `None` for a token
/// already claimed (a late or duplicate answer) and for a record of the
/// other path, which stays in flight.
fn claim(flights: &mut Deferred<Flight>, id: u64, path: adaptive::Path) -> Option<Flight> {
    let on_path = flights.get(id)?.path() == path;
    on_path.then(|| flights.take(id)).flatten()
}

/// Client-internal deferred work. It rides the token of its timer or CPU
/// task ([`Work::token`]), below [`Deferred::in_flight`]'s namespace, so a
/// client keeps no table of pending continuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    /// Pacing timer: pull the next op from the workload.
    NextOp,
    /// The start timer of the op drawn last fired: admit and issue it (the
    /// op waits in `ClientNode::next_op`).
    Start(u64),
    /// A logical op's backoff is over: issue its next attempt.
    Retry(u64),
    /// Flush batched access records.
    AccessFlush,
    /// Client-library CPU for a GET attempt finished; issue its sub-ops.
    IssueAttempt(u64),
}

/// Low bits of a [`Work`] token: the op id. The kind sits above them.
const WORK_OP_BITS: u32 = 40;

impl Work {
    /// The largest op id a token carries (op ids stay below 2^40, see
    /// `ClientNode::trace_of`).
    const MAX_OP: u64 = (1 << WORK_OP_BITS) - 1;

    /// The timer or CPU token that carries this work: kind 1–5 above the
    /// op id, so every token is below 6 · 2^40, clear of
    /// [`Deferred::in_flight`]'s namespace at 2^44.
    fn token(self) -> u64 {
        let (kind, op) = match self {
            Work::NextOp => (1, 0),
            Work::Start(op) => (2, op),
            Work::Retry(op) => (3, op),
            Work::AccessFlush => (4, 0),
            Work::IssueAttempt(op) => (5, op),
        };
        assert!(op <= Work::MAX_OP, "op id {op} does not fit a work token");
        (kind << WORK_OP_BITS) | op
    }

    /// The work `token` carries (`None`: a token of another namespace).
    fn of_token(token: u64) -> Option<Work> {
        Some(match (token >> WORK_OP_BITS, token & Work::MAX_OP) {
            (1, 0) => Work::NextOp,
            (2, op) => Work::Start(op),
            (3, op) => Work::Retry(op),
            (4, 0) => Work::AccessFlush,
            (5, op) => Work::IssueAttempt(op),
            _ => return None,
        })
    }
}

/// The client node.
pub struct ClientNode {
    cfg: Rc<ClientCfg>,
    workload: Box<dyn Workload>,
    /// Client-side transport (public for harness engine sampling).
    pub transport: Transport,
    /// Frames in flight: RMA ops and RPC calls, one record per frame.
    flights: Deferred<Flight>,
    /// The op drawn from the workload whose start timer is armed; its id
    /// rides the timer's token. At most one is ever drawn ahead.
    next_op: Option<ClientOp>,
    versions: VersionGen,
    /// The versions a CAS expects, kept only for a workload that
    /// [`Workload::issues_cas`].
    memo: Option<Box<VersionMemo>>,
    /// Rc: cloned on every op issue (the config must outlive the borrow of
    /// `self.ops`), so a deep copy here would put two `Vec` clones on the
    /// per-op hot path.
    config: Option<Rc<CellConfig>>,
    config_refreshing: bool,
    /// Per backend: its geometry, or whether a CONNECT to it is in flight.
    backends: BackendRow,
    /// The cell's interned configs, geometries, metric handles and lease
    /// value table.
    shared: ClientShared,
    /// Issued ops, by op id. The one walk over them (the GETs a released
    /// geometry wakes) sorts the ids it collects, so the map's order never
    /// reaches the schedule.
    ops: IdMap<u64, OpState>,
    /// Admitted ops waiting to issue (empty, and unallocated, outside cold
    /// start and first contact with a backend).
    parked: BTreeMap<u64, Parked>,
    /// Client-side lease cache (`cfg.cache`), built over the simulation's
    /// pool and the cell's value table at [`Event::Start`].
    ccache: Option<ClientCache>,
    /// Hot-key detector driving extended-replica routing (`cfg.hot_repl`).
    /// Boxed, like the controller: most cells run without either, and
    /// inline they are 1.1 KB of every client.
    hot: Option<Box<HotKeyTracker>>,
    /// Adaptive dataplane controller (`cfg.adaptive`).
    adaptive: Option<Box<Controller>>,
    /// MultiGet/MultiSet state, built at the first container expansion: a
    /// client whose workload issues none never pays for it.
    containers: Option<Box<Containers>>,
    next_op_id: u64,
    /// Admitted ops not yet complete (at most `cfg.max_in_flight`).
    in_flight: u32,
    workload_done: bool,
    access_buffer: BTreeMap<NodeId, Vec<KeyHash>>,
    /// Frame-buffer pool bodies are encoded into; swapped for the
    /// simulation's pool at [`Event::Start`].
    pool: Pool,
}

impl std::fmt::Debug for ClientNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientNode")
            .field("cfg", &self.cfg)
            .field("client_id", &self.versions.client_id())
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

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

simnet::metric_ids! {
    /// Interned handles for every metric the client writes per-op, one per
    /// [`RetryReason`] among them; resolved once per cell, at the first
    /// client's [`Event::Start`], so the GET/SET hot paths never touch a
    /// name.
    struct ClientMetricIds {
        [retry]: RETRY_REASONS,
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
        let memo = workload.issues_cas().then(Box::default);
        ClientNode {
            versions: VersionGen::new(me.client_id),
            ccache: None,
            shared: me.shared,
            hot: cfg.hot_repl.clone().map(HotKeyTracker::new).map(Box::new),
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
            flights: Deferred::in_flight(),
            next_op: None,
            memo,
            config: None,
            config_refreshing: false,
            backends: BackendRow::default(),
            ops: IdMap::default(),
            parked: BTreeMap::new(),
            containers: None,
            next_op_id: 1,
            in_flight: 0,
            workload_done: false,
            access_buffer: BTreeMap::new(),
            pool: Pool::new(),
        }
    }

    /// Cached metric handles (resolved before any op can run).
    #[inline]
    fn m(&self) -> &ClientMetricIds {
        let mids = self.shared.0.mids.get();
        mids.expect("metric ids resolved at Start")
    }

    /// The cell config this client holds (`None` before the first one
    /// arrives). Clients holding the same config hold the same `Rc`.
    pub fn config(&self) -> Option<&Rc<CellConfig>> {
        self.config.as_ref()
    }

    /// The geometry this client holds for `backend`, if it has connected.
    pub fn geometry_of(&self, backend: NodeId) -> Option<Geometry> {
        let id = self.backends.geometry(self.shared.slot(backend))?;
        Some(self.shared.geometry(id))
    }

    /// Whether this client keeps a CAS version memo (only a workload that
    /// [`Workload::issues_cas`] gets one).
    #[doc(hidden)]
    pub fn holds_version_memo(&self) -> bool {
        self.memo.is_some()
    }

    /// When the longest-waiting of the admitted ops that wait for config or
    /// geometry was admitted (`None`: no op waits).
    pub fn parked_since(&self) -> Option<SimTime> {
        let started = self.parked.values().map(|p| p.attempt.started());
        started.min().map(SimTime)
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
        ctx.charge_cpu_traced(cost, trace, CLIENT_CPU);
        ctx.metrics().add_id(self.m().cpu_ns, cost.nanos());
    }

    /// Whether [`ClientNode::emit`] diverts into the doorbell accumulator.
    fn coalescing(&self) -> bool {
        self.containers.as_ref().is_some_and(|c| c.coalesce.active)
    }

    /// The doorbell accumulator. Only a container's expansion, or the
    /// answer to a batch frame one sent, reaches it, so it is built.
    fn accum(&mut self) -> &mut BatchAccum {
        let containers = self.containers.as_mut();
        &mut containers.expect("a container's state is built").coalesce
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
        let open = |bid| self.containers.as_ref()?.open.get(&bid);
        if let Some(&(_, strategy)) = batch.and_then(open) {
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
        let Some((gap, op)) = self.workload.next(ctx.now(), ctx.rng()) else {
            self.workload_done = true;
            return;
        };
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        // This is the only producer of start timers, and each call has one
        // trigger: `Event::Start`, a closed-loop completion, or a `NextOp`
        // timer armed after the start timer it paces, so firing after it.
        let ahead = self.next_op.replace(op);
        assert!(ahead.is_none(), "an op drawn ahead still waits to start");
        ctx.set_timer(gap, Work::Start(op_id).token());
        if self.cfg.pacing == Pacing::Open {
            ctx.set_timer(gap, Work::NextOp.token());
        }
    }

    /// Admit a logical op under `max_in_flight` and issue it: a new op off
    /// its start timer, or a MultiGet/MultiSet member with its `batch`.
    fn start_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64, op: ClientOp, batch: Option<u64>) {
        if self.in_flight as usize >= self.cfg.max_in_flight {
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
        let (key, value, kind, recorded) = match op {
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
            ClientOp::Get { key } => (key, Bytes::new(), None, Kind::Get),
            ClientOp::Set { key, value } => (key, value, Some(MutationKind::Set), Kind::Set),
            ClientOp::Erase { key } => (key, Bytes::new(), Some(MutationKind::Erase), Kind::Erase),
            ClientOp::Cas { key, value } => (key, value, Some(MutationKind::Cas), Kind::Cas),
        };
        self.in_flight += 1;
        let key_value = || (self.shared.0.hasher.hash(&key), value_hash(&value));
        let invoke = |h: &mut History, who, at| h.invoke(who, recorded, key_value(), batch, at);
        self.record(ctx, op_id, invoke);
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
        let kind = if gets { Kind::MultiGet } else { Kind::MultiSet };
        self.record(ctx, op_id, |h, w, at| h.invoke(w, kind, (0, 0), None, at));
        if subs.is_empty() {
            // A zero-key batch resolves vacuously: it still reports a batch
            // completion (latency 0) so callers and pacing see it finish.
            let outcome = if gets {
                OpOutcome::Hit
            } else {
                OpOutcome::Done
            };
            return self.report_finished(ctx, op_id, gets, true, outcome, 0);
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
        let containers = self.containers.get_or_insert_with(Box::default);
        containers.open.insert(op_id, (batch, strategy));
        let coalescing = self.cfg.doorbell_batching && !containers.coalesce.active;
        if coalescing {
            containers.coalesce.active = true;
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
        let rma = is_get && read::row(strategy).path == adaptive::Path::Rma;
        let (missing, nmissing, short) = self.geometry_gaps(rma, replicas, n_base, rq);
        // Client-side lease cache: a mutation drops the owner's entry at
        // issue, so a client can never read its own stale write from the
        // cache.
        let mut expected = None;
        if let Some(kind) = p.kind {
            if self.ccache.as_mut().is_some_and(|c| c.invalidate(hash)) {
                ctx.metrics().add_id(self.m().ccache_invalidations, 1);
            }
            if kind == MutationKind::Cas {
                let memo = self.memo.as_ref();
                let memo = memo.expect("a CAS from a workload whose Workload::issues_cas is false");
                expected = memo.get(hash);
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
                let mut state = self.shared.get_state();
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

    /// Inspect the cached entry for a key regardless of lease state
    /// (harness/test visibility; `None` when absent or cache disabled).
    pub fn cache_peek(&self, key: &[u8]) -> Option<(VersionNumber, Bytes)> {
        let hash = self.shared.0.hasher.hash(key);
        let (version, data, _lease) = self.ccache.as_ref()?.peek(hash)?;
        Some((version, data))
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
        if self.coalescing() {
            // Doorbell batching: the sub-op must issue inside the expansion
            // event so its wire traffic lands in the accumulator before the
            // flush. It pays only the per-key marshal cost — the container
            // paid the API-boundary `GET_CPU` once at expansion.
            self.charge(ctx, BATCHED_KEY_CPU, trace);
            self.do_issue_attempt(ctx, op_id);
            return;
        }
        ctx.metrics().add_id(self.m().cpu_ns, GET_CPU.nanos());
        let tok = Work::IssueAttempt(op_id).token();
        ctx.spawn_cpu_traced(GET_CPU, tok, trace, CLIENT_CPU);
    }

    fn do_issue_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let (Some(OpState::Get(get)), Some(config)) = (self.ops.get(&op_id), &self.config) else {
            return;
        };
        let (mode, quorum) = (config.replication, config.replication.read_quorum());
        // The strategy was resolved at issue and rides the op state, so
        // retries keep the arm that will be credited at completion.
        let row = read::row(get.strategy);
        // A retry whose geometry was invalidated (reshape, growth, restart)
        // must re-learn it before burning another attempt — "failed RMA
        // operations may retry on new connections" (§3).
        let (replicas, n_base) = (&get.h.replicas, get.h.n_base as usize);
        let rma = row.path == adaptive::Path::Rma;
        let (missing, nmissing, short) = self.geometry_gaps(rma, replicas, n_base, quorum as usize);
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
        if row.path == adaptive::Path::Rpc {
            get.quorum.begin_lookup();
            let strategy = get.strategy;
            return self.emit(ctx, &consulted[..1], tag, SubOp::Lookup(key, strategy));
        }
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
                self.feed(ctx, op_id, r, Verdict::FAILED_VOTE, Phase::Index);
                continue;
            };
            let len = bucket_size(geom.assoc as usize) as u32;
            let bucket = Pointer {
                window: geom.index_window,
                generation: geom.index_generation,
                offset: (hash as u64) % geom.num_buckets * len as u64,
                len,
            };
            let sub = match row.data_is_separate {
                true => SubOp::Read(bucket),
                false => SubOp::Scar(bucket, hash),
            };
            self.emit(ctx, &[r], tag, sub);
        }
    }

    /// For an RMA GET (`rma`; anything else addresses no window): which of
    /// `replicas` still lack geometry (the first of the returned count),
    /// and whether fewer than a read quorum `rq` of the base
    /// (quorum-bearing) prefix have it.
    fn geometry_gaps(
        &self,
        rma: bool,
        replicas: &[NodeId],
        n_base: usize,
        rq: usize,
    ) -> ([NodeId; 8], usize, bool) {
        let mut missing = [NodeId(0); 8];
        if !rma {
            return (missing, 0, false);
        }
        let (mut nmissing, mut have_base) = (0, 0);
        for (i, r) in replicas.iter().enumerate() {
            if self.backends.geometry(self.shared.slot(*r)).is_none() {
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
        if let (true, Some(kind)) = (self.coalescing(), kind) {
            let frames = &mut self.accum().frames;
            for dst in dsts {
                let frame = frames.entry((kind, dst.0)).or_default();
                frame.push((tag, sub.clone()));
            }
            return;
        }
        let (method_id, send_cost, body) = match sub {
            SubOp::Read(at) => {
                for &dst in dsts {
                    let flight = Flight::Sub(adaptive::Path::Rma, dst, ctx.now(), tag);
                    self.send_rma(ctx, flight, trace, |op_id, pool| {
                        let req = rma::ReadReq {
                            op_id,
                            window: at.window,
                            generation: at.generation,
                            offset: at.offset,
                            len: at.len,
                        };
                        encode_read_req_in(&req, pool)
                    });
                }
                return;
            }
            SubOp::Scar(at, key_hash) => {
                for &dst in dsts {
                    let flight = Flight::Sub(adaptive::Path::Rma, dst, ctx.now(), tag);
                    self.send_rma(ctx, flight, trace, |op_id, pool| {
                        let req = rma::ScarReq {
                            op_id,
                            index_window: at.window,
                            index_generation: at.generation,
                            bucket_offset: at.offset,
                            bucket_len: at.len,
                            key_hash,
                        };
                        encode_scar_req_in(&req, pool)
                    });
                }
                return;
            }
            SubOp::Lookup(key, strategy) => {
                let row = read::row(strategy);
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
            let flight = Flight::Sub(adaptive::Path::Rpc, dst, ctx.now(), tag);
            self.send_rpc(ctx, flight, method_id, body.clone(), trace);
        }
    }

    /// Put RMA frame `flight` (single or batched) in flight: its record's
    /// token is the op id `encode` writes into the request. The frame goes
    /// through the client-side transport, then its attempt timer is armed.
    fn send_rma(
        &mut self,
        ctx: &mut Ctx<'_>,
        flight: Flight,
        trace: u64,
        encode: impl FnOnce(u64, &Pool) -> Bytes,
    ) {
        let dst = flight.dst();
        let op_id = self.flights.defer(flight);
        let wire = encode(op_id, &self.pool);
        // Every RMA wire frame (single or batched) counts once — the
        // frames-per-batch economics of doorbell batching read from here.
        ctx.metrics().add_id(self.m().rma_frames, 1);
        mark_gray(ctx, trace, dst);
        // Client-side transport issue cost (engine queueing on Pony).
        let ready = self.transport.admit_issue(ctx.now());
        let delay = ready.since(ctx.now());
        if delay == SimDuration::ZERO {
            ctx.send_traced(dst, wire, trace);
        } else {
            ctx.trace_interval(trace, simnet::obs::stage::ENGINE, ctx.now(), ready);
            ctx.send_after(delay, dst, wire, trace);
        }
        ctx.set_timer(self.cfg.attempt_timeout, op_id);
    }

    /// Feed a verdict on GET `op_id`'s live attempt — `replica`'s index
    /// vote (after the inline data copy that rode it), its data read, or a
    /// server's answer in `phase` — to the op's quorum and act on the step.
    fn feed(&mut self, ctx: &mut Ctx<'_>, op_id: u64, replica: NodeId, fed: Verdict, phase: Phase) {
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        let (step, value) = match (fed, get.h.position(replica)) {
            (Verdict::Vote(vote, overflowed, inline), Some(from)) => {
                if let Some((version, value)) = inline {
                    get.quorum.inline_data(from, version);
                    get.data = Some(value);
                }
                // Any substantive answer (even an absent key) proves the
                // path that carried it and resets that path's demotion
                // streak.
                if let (Some(ctl), true) = (self.adaptive.as_mut(), vote != Vote::Failed) {
                    ctl.record_success(replica.0, read::row(get.strategy).path);
                }
                (get.quorum.vote(from, vote, overflowed), None)
            }
            (Verdict::Data(read), Some(from)) => {
                let version = read.map(|(version, value)| {
                    get.data = Some(value);
                    version
                });
                (get.quorum.data(from, version), None)
            }
            (Verdict::Served(answer, value), _) => {
                let step = get.quorum.served(answer);
                if phase == Phase::Fallback && matches!(step, GetStep::Hit(_)) {
                    ctx.metrics().add_id(self.m().get_overflow_hits, 1);
                }
                if step == GetStep::Miss {
                    // The servers' word, not a read quorum's votes.
                    self.record(ctx, op_id, |h, who, _| h.observe(who, 0, None, false));
                }
                (step, value)
            }
            _ => return,
        };
        self.run_get_step(ctx, op_id, step, value);
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
                    let flight = Flight::Sub(adaptive::Path::Rpc, replica, ctx.now(), tag);
                    self.send_rpc(ctx, flight, method::GET_RPC, body, trace);
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
        // Read one-sidedly, a hit is a read quorum's; otherwise it is the
        // lease's or one server's word.
        let held = || Some(self.ccache.as_ref()?.peek(hash)?.1);
        let value_of = || value.clone().or_else(held).map(|v| value_hash(&v));
        let observe = |h: &mut History, who, _| h.observe(who, version.0, value_of(), one_sided);
        self.record(ctx, op_id, observe);
        if let Some(memo) = self.memo.as_mut() {
            memo.remember(hash, version);
        }
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
                ctx.set_timer(backoff, Work::Retry(op_id).token());
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
        let batched = self.coalescing() && kind == MutationKind::Set;
        let issue_cpu = if batched { BATCHED_KEY_CPU } else { SET_CPU };
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
            let left_out = m.h.replicas.iter().filter(|r| !targets.contains(r));
            history::record(self.shared.history(), |h| {
                let who = (ctx.self_id().0, op_id);
                h.observe(who, m.version.0, None, true);
                left_out.for_each(|r| h.missed(who, r.0));
            });
        }
        self.emit(ctx, &targets, tag, sub);
    }

    /// One replica's verdict on mutation `op_id`'s live attempt: feed the
    /// write quorum and act on its step.
    fn on_mutation_reply(&mut self, ctx: &mut Ctx<'_>, op_id: u64, from: NodeId, reply: Reply) {
        let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) else {
            return;
        };
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
                if let Some(memo) = self.memo.as_mut() {
                    match kind {
                        MutationKind::Erase => memo.forget(hash),
                        _ => memo.remember(hash, version),
                    }
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

    /// Put RPC frame `flight` in flight: its record's token is the request
    /// id. The request, stamped with this client's id and the attempt's
    /// deadline, goes out, then its attempt timer is armed.
    fn send_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        flight: Flight,
        method: u16,
        body: Bytes,
        trace: u64,
    ) {
        // Config refreshes are not counted in `cm.rpc_bytes`.
        let counted = !matches!(flight, Flight::Control(Control::Config, ..));
        let dst = flight.dst();
        let id = self.flights.defer(flight);
        let req = rpc::Request {
            version: rpc::PROTOCOL_VERSION,
            method,
            id,
            auth: self.versions.client_id() as u64,
            deadline_ns: ctx.now().nanos() + self.cfg.attempt_timeout.nanos(),
            body,
        };
        let wire = rpc::encode_request_in(&req, &self.pool);
        if counted {
            ctx.metrics().add_id(self.m().rpc_bytes, wire.len() as u64);
        }
        mark_gray(ctx, trace, dst);
        ctx.send_traced(dst, wire, trace);
        ctx.set_timer(self.cfg.attempt_timeout, id);
    }

    /// Flush the doorbell-batching accumulator: one wire frame, one
    /// transport issue admission (or one send-side RPC charge — the
    /// amortization the batch crossover figure measures), and one timer per
    /// `(kind, destination)` group.
    fn coalesce_flush(&mut self, ctx: &mut Ctx<'_>) {
        let accum = self.accum();
        accum.active = false;
        for ((kind, dst), members) in std::mem::take(&mut accum.frames) {
            let dst = NodeId(dst);
            // One pass sorts the members into the frame's wire vector (the
            // others stay empty and unallocated) and, behind the issue time,
            // into the frame's record.
            let mut stamped = Vec::with_capacity(members.len() + 1);
            stamped.push(ctx.now().nanos());
            let (mut reads, mut scars) = (Vec::new(), Vec::new());
            let (mut keys, mut entries) = (Vec::new(), Vec::new());
            // All sub-ops aimed at one replica share its geometry entry, so
            // the first SCAR's (window, generation) speaks for the frame.
            let mut scar_at = Pointer::default();
            for (sub, s) in members {
                stamped.push(sub);
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
            let trace = self.trace_of(ctx, stamped[1] >> 10);
            let flight = Flight::Batch(kind, dst, stamped.into_boxed_slice());
            let (pool, subs) = (&self.pool, flight.members());
            let (method_id, cost, body) = match kind {
                FrameKind::Read => {
                    self.send_rma(ctx, flight, trace, |op_id, pool| {
                        let req = rma::BatchReadReq {
                            op_id,
                            entries: reads,
                        };
                        encode_batch_read_req_in(&req, pool)
                    });
                    continue;
                }
                FrameKind::Scar => {
                    self.send_rma(ctx, flight, trace, |op_id, pool| {
                        let req = rma::BatchScarReq {
                            op_id,
                            index_window: scar_at.window,
                            index_generation: scar_at.generation,
                            entries: scars,
                        };
                        encode_batch_scar_req_in(&req, pool)
                    });
                    continue;
                }
                // The RPC vectors echo the member tags on the wire too.
                FrameKind::Lookup(strategy) => {
                    let subs = subs.to_vec();
                    let body = messages::MultiGetReq { subs, keys }.encode_in(pool);
                    let row = read::row(strategy);
                    (row.methods.1, row.cost(), body)
                }
                FrameKind::Set => {
                    let subs = subs.to_vec();
                    let body = messages::MultiSetReq { subs, entries }.encode_in(pool);
                    (method::MULTI_SET, &*RPC_COST, body)
                }
            };
            self.charge(ctx, cost.client_send, trace);
            self.send_rpc(ctx, flight, method_id, body, trace);
        }
    }

    fn ensure_connect(&mut self, ctx: &mut Ctx<'_>, backend: NodeId) {
        if !self.backends.start_connect(self.shared.slot(backend)) {
            return;
        }
        let flight = Flight::Control(Control::Connect, backend, ctx.now());
        self.send_rpc(ctx, flight, method::CONNECT, Bytes::new(), 0);
    }

    fn refresh_config(&mut self, ctx: &mut Ctx<'_>) {
        if self.config_refreshing {
            return;
        }
        self.config_refreshing = true;
        ctx.metrics().add_id(self.m().config_refreshes, 1);
        let flight = Flight::Control(Control::Config, self.cfg.config_store, ctx.now());
        self.send_rpc(ctx, flight, method::GET_CONFIG, Bytes::new(), 0);
    }

    fn release_parked(&mut self, ctx: &mut Ctx<'_>) {
        // Every parked op tries again, in admission order; what still
        // cannot go parks again.
        for (id, p) in std::mem::take(&mut self.parked) {
            self.try_issue(ctx, id, p);
        }
        // Then the issued GETs parked on geometry re-learning, in admission
        // (op id) order.
        let mut parked: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, s)| matches!(s, OpState::Get(g) if g.h.attempt.parked()))
            .map(|(&id, _)| id)
            .collect();
        parked.sort_unstable();
        for id in parked {
            self.do_issue_attempt(ctx, id);
        }
    }

    /// The answer to RPC `flight` came back with `status` and `body`.
    fn on_rpc_answer(&mut self, ctx: &mut Ctx<'_>, flight: Flight, status: Status, body: Bytes) {
        let from = flight.dst();
        match flight {
            Flight::Control(Control::Config, ..) => {
                self.config_refreshing = false;
                if status == Status::Ok {
                    if let Some(config) = CellConfig::decode(body) {
                        // A new config invalidates geometry learned from
                        // nodes that changed roles.
                        if self.config.as_ref().map(|c| c.config_id) != Some(config.config_id) {
                            self.backends.clear();
                        }
                        self.config = Some(self.shared.intern_config(config));
                        self.release_parked(ctx);
                    }
                }
            }
            Flight::Control(Control::Connect, ..) => {
                let slot = self.shared.slot(from);
                self.backends.settle(slot);
                if status == Status::Ok {
                    if let Some(geom) = Geometry::decode(body) {
                        // Validate the backend agrees with our config.
                        let ours = self.config.as_ref().map(|c| c.config_id);
                        if ours == Some(geom.config_id) {
                            let id = self.shared.intern_geometry(geom);
                            self.backends.install(slot, id);
                        } else {
                            self.refresh_config(ctx);
                        }
                    }
                } else if status == Status::WrongShard {
                    self.refresh_config(ctx);
                }
                self.release_parked(ctx);
            }
            // An access-record ack resolves nothing but still costs a
            // single-frame receive (uncounted, like every such receive).
            Flight::Control(Control::Ack, ..) => ctx.charge_cpu(RPC_COST.client_recv),
            Flight::Sub(.., sub) => {
                let rep_trace = self.trace_of(ctx, sub >> 10);
                // Model-cost quirk, pinned by the committed CSVs: a
                // single-op frame's receive is billed at full RPC cost but
                // not counted in `cm.client.cpu_ns`, and a live MSG/RPC
                // lookup then pays its strategy's `client_recv` again
                // (counted). Batch frames pay once, counted.
                ctx.charge_cpu_traced(RPC_COST.client_recv, rep_trace, CLIENT_CPU);
                let (op_id, attempt, phase) = split_tag(sub);
                let get = match self.ops.get(&op_id) {
                    Some(OpState::Get(g)) => {
                        Some((read::row(g.strategy).cost, g.h.attempt.number() == attempt))
                    }
                    _ => None,
                };
                if let (Some((Some(cost), true)), 0) = (get, phase) {
                    self.charge(ctx, cost.client_recv, rep_trace);
                }
                // Only lookups answer with a body; a mutation's verdict is
                // its status.
                let answer = if status == Status::Ok && get.is_some() {
                    match messages::GetResp::decode(body) {
                        Some(resp) => Answer::Rpc(Status::Ok, resp.version, resp.value),
                        None => Answer::Garbled,
                    }
                } else {
                    Answer::status(status)
                };
                self.deliver(ctx, sub, from, answer);
            }
            // One receive-side charge for the whole frame, then per-member
            // resolution identical to the single path. A failed or
            // undecodable frame is an Internal verdict from this replica
            // for every member.
            Flight::Batch(kind, _, ref stamped) => {
                let subs = &stamped[1..];
                let rep_trace = self.trace_of(ctx, subs[0] >> 10);
                let cost = match kind {
                    FrameKind::Lookup(strategy) => read::row(strategy).cost(),
                    _ => &RPC_COST,
                };
                self.charge(ctx, cost.client_recv, rep_trace);
                let (decoded, mut demuxed) = (status == Status::Ok, false);
                if decoded && kind == FrameKind::Set {
                    if let Some(resp) = messages::MultiSetResp::decode(body) {
                        demuxed = true;
                        for (sub, s) in resp.statuses {
                            let answer = Answer::status(Status::from_u8(s));
                            self.deliver(ctx, sub, from, answer);
                        }
                    }
                } else if decoded {
                    if let Some(resp) = messages::MultiGetResp::decode(body) {
                        demuxed = true;
                        for e in resp.entries {
                            let status = Status::from_u8(e.status);
                            let answer = Answer::Rpc(status, e.version, e.value);
                            self.deliver(ctx, e.sub, from, answer);
                        }
                    }
                }
                if !demuxed {
                    for &sub in subs.iter() {
                        self.deliver(ctx, sub, from, Answer::status(Status::Internal));
                    }
                }
            }
        }
    }

    /// Every sub-op outcome, from any frame shape on any wire path, lands
    /// here: `answer` is what `replica` said (or failed to say) about the
    /// sub-op `tag`. The read core judges it against the op; the verdict
    /// becomes one input to the op's quorum.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, tag: u64, replica: NodeId, answer: Answer) {
        let (op_id, attempt, phase) = split_tag(tag);
        let (op, live) = match self.ops.get(&op_id) {
            Some(OpState::Get(g)) => {
                let (key, hash, strategy) = (&g.h.key[..], g.h.hash, g.strategy);
                let holds_data = g.data.is_some();
                let get = read::Op::Get {
                    key,
                    hash,
                    strategy,
                    holds_data,
                };
                (get, g.h.attempt.number() == attempt)
            }
            Some(OpState::Mutation(m)) => (read::Op::Mutation, m.h.attempt.number() == attempt),
            None => (read::Op::Gone, false),
        };
        let (is_get, phase) = (matches!(op, read::Op::Get { .. }), Phase::of(phase));
        let config_id = self.config.as_ref().map_or(0, |c| c.config_id);
        let cx = read::Context {
            op,
            phase,
            live,
            config_id,
        };
        let (verdict, tally) = read::judge(&cx, answer);
        let m = self.m();
        let counted = [
            (tally.torn_reads, m.get_torn_reads),
            (tally.hash_collisions, m.get_hash_collisions),
            (tally.stale_backend_config, m.stale_backend_config),
            (tally.config_mismatches, m.config_mismatches),
        ];
        for (_, id) in counted.into_iter().filter(|c| c.0) {
            ctx.metrics().add_id(id, 1);
        }
        if tally.missed {
            self.record(ctx, op_id, |h, who, _| h.missed(who, replica.0));
        }
        match verdict {
            Verdict::Ignore => {}
            Verdict::Collision => self.finish_miss(ctx, op_id),
            Verdict::Reply(reply) => self.on_mutation_reply(ctx, op_id, replica, reply),
            Verdict::Moved => {
                if let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) {
                    get.quorum.shun_data_source();
                }
                self.refresh_config(ctx);
                if is_get {
                    self.retry(ctx, op_id, RetryReason::ConfigMismatch);
                } else if live {
                    self.on_mutation_reply(ctx, op_id, replica, Reply::Failure);
                }
            }
            Verdict::GeometryStale => {
                // Re-learned via CONNECT on the retry path (§4.1).
                ctx.metrics().add_id(self.m().geometry_invalidations, 1);
                self.backends.drop_geometry(self.shared.slot(replica));
                if live {
                    self.feed(ctx, op_id, replica, Verdict::FAILED_VOTE, phase);
                }
            }
            fed => self.feed(ctx, op_id, replica, fed, phase),
        }
    }

    // ---- RMA completions ---------------------------------------------------

    /// One RMA frame came back: one completion admission for the whole
    /// frame, then per-member routing. Data fetches that the demux of a
    /// *batch* frame triggers (2×R) re-coalesce into a follow-up frame; a
    /// single-op frame never re-arms coalescing.
    fn on_rma_answer(&mut self, ctx: &mut Ctx<'_>, answer: rma::RmaAnswer) {
        let Some(flight) = claim(&mut self.flights, answer.op_id, adaptive::Path::Rma) else {
            return;
        };
        let members = flight.members();
        let batch = matches!(flight, Flight::Batch(..));
        let rep_trace = self.trace_of(ctx, members[0] >> 10);
        // Client-side transport completion processing cost.
        let bytes = answer.payload_bytes();
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
        let rtt = ctx.now().since(flight.issued_at());
        ctx.metrics().record_id(self.m().rma_rtt_ns, rtt.nanos());
        let replica = flight.dst();
        if answer.is_empty() {
            // Defensive: a frame-level failure with no per-entry verdicts
            // fails every member's vote from this replica.
            for &sub in members {
                self.deliver(ctx, sub, replica, Answer::Lost(adaptive::Path::Rma));
            }
            return;
        }
        let rearm = batch && self.cfg.doorbell_batching && !self.coalescing();
        if rearm {
            self.accum().active = true;
        }
        for d in answer.into_results(members[0]) {
            let trace = self.trace_of(ctx, d.sub >> 10);
            self.charge(ctx, RMA_OP_CPU, trace);
            let answer = Answer::Rma(d.status, d.bucket, d.data);
            self.deliver(ctx, d.sub, replica, answer);
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
    fn on_frame_lost(&mut self, ctx: &mut Ctx<'_>, flight: &Flight) {
        let (dst, path, issued_at) = (flight.dst(), flight.path(), flight.issued_at());
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.record_timeout(dst.0, path);
        }
        for &sub in flight.members() {
            let op_id = sub >> 10;
            if self.ops.contains_key(&op_id) {
                let trace = self.trace_of(ctx, op_id);
                ctx.trace_interval(trace, simnet::obs::stage::RETRY, issued_at, ctx.now());
            }
            self.deliver(ctx, sub, dst, Answer::Lost(path));
        }
    }

    /// Frame `flight`'s attempt timer fired first: the timer claims the
    /// record, so an answer arriving later finds nothing to resolve.
    fn on_expired(&mut self, ctx: &mut Ctx<'_>, flight: Flight) {
        let path = flight.path();
        let timeouts = match path {
            adaptive::Path::Rma => self.m().rma_timeouts,
            adaptive::Path::Rpc => self.m().rpc_timeouts,
        };
        ctx.metrics().add_id(timeouts, 1);
        match flight {
            Flight::Control(Control::Config, ..) => {
                self.config_refreshing = false;
                // Nothing arrived to release the parked ops: each meets its
                // deadline here, in order.
                let (now, policy) = (ctx.now().nanos(), self.cfg.retry);
                for (id, mut p) in std::mem::take(&mut self.parked) {
                    let step = p.attempt.ready(now, &policy, true);
                    self.run_step(ctx, id, step, Some(p));
                }
                self.refresh_config(ctx);
            }
            Flight::Control(Control::Connect, dst, _) => {
                self.backends.settle(self.shared.slot(dst));
                // A dead backend: refresh config in case the cell moved the
                // shard.
                self.refresh_config(ctx);
            }
            Flight::Control(Control::Ack, ..) => {}
            Flight::Sub(..) | Flight::Batch(..) => self.on_frame_lost(ctx, &flight),
        }
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
        let latency = observed.nanos();
        self.record(ctx, op_id, |h, w, at| h.complete(w, at, outcome, latency));
        if let Some(g) = get {
            // Feed the arm that actually served this GET: the
            // caller-observed latency plus the model-derived client CPU for
            // the fan-out the op really used. Mutations are
            // strategy-independent (always RPC) and carry no signal.
            if let Some(ctl) = self.adaptive.as_mut() {
                let cpu = get_cpu_ns(g.strategy, g.quorum.rules().expected_votes as u64);
                ctl.observe(g.strategy, batch.is_some(), latency, cpu);
            }
            self.shared.recycle_get(g);
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
                    ctx.metrics().record_id(self.m().getkey_latency_ns, latency);
                }
                self.batch_member_done(ctx, batch_id, outcome, shim_overhead);
            }
            None => self.report_finished(ctx, op_id, is_get, false, outcome, latency),
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
        id: u64,
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
        if container {
            self.record(ctx, id, |h, w, at| h.complete(w, at, outcome, latency_ns));
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
        let Some(open) = self.containers.as_mut().map(|c| &mut c.open) else {
            return;
        };
        let Some((batch, _)) = open.get_mut(&batch_id) else {
            return;
        };
        let Some(outcome) = batch.member_done(outcome) else {
            return;
        };
        let (b, _) = open.remove(&batch_id).expect("present above");
        let latency = ctx.now().since(SimTime(b.started)) + shim_overhead;
        self.report_finished(ctx, batch_id, b.gets, true, outcome, latency.nanos());
    }

    fn on_op_finished(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.pacing == Pacing::Closed {
            match &self.cfg.shim {
                // Closed-loop callers behind a shim can't issue the next op
                // until the response crosses the pipe back and the next
                // request is marshalled — the Fig. 6a rate gap.
                Some(_) => ctx.set_timer(self.shim_overhead(), Work::NextOp.token()),
                None => self.schedule_next(ctx),
            }
        }
    }

    /// Append to the cell's History, if one is kept, about this client's
    /// op `id` at this instant.
    #[inline]
    fn record(&self, ctx: &Ctx<'_>, id: u64, f: impl FnOnce(&mut History, Who, u64)) {
        let client = || ctx.self_id().0;
        history::record(self.shared.history(), |h| {
            f(h, (client(), id), ctx.now().nanos())
        });
    }

    fn flush_access_records(&mut self, ctx: &mut Ctx<'_>) {
        let buffered = std::mem::take(&mut self.access_buffer);
        for (backend, hashes) in buffered {
            if hashes.is_empty() {
                continue;
            }
            ctx.metrics().add_id(self.m().access_flushes, 1);
            let body = messages::AccessRecords { hashes }.encode_in(&self.pool);
            let flight = Flight::Control(Control::Ack, backend, ctx.now());
            self.send_rpc(ctx, flight, method::ACCESS_RECORDS, body, 0);
        }
        if let Some(interval) = self.cfg.access_flush {
            ctx.set_timer(interval, Work::AccessFlush.token());
        }
    }
}

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

/// Annotate (don't alter) a traced sub-op aimed at a CPU-dead replica: the
/// postmortem uses this to name the gray failure.
fn mark_gray(ctx: &mut Ctx<'_>, trace: u64, dst: NodeId) {
    if trace != 0 && ctx.peer_cpu_dead(dst) {
        let host = ctx.host_of(dst).0 as u64;
        ctx.trace_mark(trace, simnet::obs::stage::SERVER_CPU, host);
    }
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
                let shared = self.shared.values().cloned().unwrap_or_default();
                self.ccache = self
                    .cfg
                    .cache
                    .clone()
                    .map(|c| ClientCache::with_shared(c, self.pool.clone(), shared));
                self.refresh_config(ctx);
                self.schedule_next(ctx);
                if let Some(interval) = self.cfg.access_flush {
                    ctx.set_timer(interval, Work::AccessFlush.token());
                }
            }
            Event::Frame(frame) => {
                if let Some(env) = rma::decode(frame.payload.clone()) {
                    if let Some(answer) = rma::RmaAnswer::of(env) {
                        self.on_rma_answer(ctx, answer);
                    }
                    return;
                }
                if let Some(rpc::Envelope::Response(resp)) = rpc::decode(frame.payload) {
                    let path = adaptive::Path::Rpc;
                    if let Some(flight) = claim(&mut self.flights, resp.id, path) {
                        self.on_rpc_answer(ctx, flight, resp.status, resp.body);
                    }
                }
            }
            Event::Timer(token) | Event::CpuDone(token) => {
                if let Some(work) = Work::of_token(token) {
                    match work {
                        Work::NextOp => self.schedule_next(ctx),
                        Work::Start(id) => {
                            let op = self.next_op.take().expect("a start timer's op waits");
                            self.start_op(ctx, id, op, None);
                        }
                        Work::Retry(op) => self.issue_attempt(ctx, op),
                        Work::AccessFlush => self.flush_access_records(ctx),
                        Work::IssueAttempt(op) => self.do_issue_attempt(ctx, op),
                    }
                } else if let Some(flight) = self.flights.take(token) {
                    self.on_expired(ctx, flight);
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("client[{}]", self.versions.client_id())
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
    fn every_work_rides_its_token_clear_of_the_in_flight_namespace() {
        let mut flights: Deferred<Flight> = Deferred::in_flight();
        for op in [0, Work::MAX_OP] {
            let all = [
                Work::NextOp,
                Work::Start(op),
                Work::Retry(op),
                Work::AccessFlush,
                Work::IssueAttempt(op),
            ];
            for work in all {
                let token = work.token();
                assert_eq!(Work::of_token(token), Some(work), "token {token:#x}");
                assert!(!flights.owns(token), "{work:?} collides with a flight");
            }
        }
        // A flight's token is never read as work.
        let at = SimTime(1);
        let token = flights.defer(Flight::Control(Control::Ack, NodeId(0), at));
        assert_eq!(Work::of_token(token), None);
        assert_eq!(Work::of_token(0), None);
    }

    #[test]
    #[should_panic(expected = "does not fit a work token")]
    fn an_op_id_past_the_token_bits_panics() {
        Work::Retry(Work::MAX_OP + 1).token();
    }

    #[test]
    fn attempt_wraps_at_256_without_op_collision() {
        let a = sub_tag(5, 256, 0);
        let b = sub_tag(5, 0, 0);
        assert_eq!(a, b, "attempt is mod-256 by design");
        assert_ne!(sub_tag(5, 1, 0), sub_tag(6, 1, 0));
    }

    #[test]
    fn an_answer_claims_only_a_record_of_its_own_path_and_only_once() {
        use adaptive::Path::{Rma, Rpc};
        let mut flights: Deferred<Flight> = Deferred::in_flight();
        let (dst, at) = (NodeId(3), SimTime(5));
        let single = flights.defer(Flight::Sub(Rma, dst, at, sub_tag(42, 3, 1)));
        let stamped: Box<[u64]> = Box::new([5, sub_tag(7, 1, 0), sub_tag(8, 1, 0)]);
        let batch = flights.defer(Flight::Batch(FrameKind::Set, dst, stamped.clone()));
        let config = flights.defer(Flight::Control(Control::Config, dst, at));
        // An RPC response cannot claim an RMA record, nor the reverse; the
        // record stays in flight for its own answer or timer.
        assert!(claim(&mut flights, single, Rpc).is_none());
        assert!(claim(&mut flights, batch, Rma).is_none());
        let f = claim(&mut flights, single, Rma).expect("in flight");
        assert_eq!(f.members(), [sub_tag(42, 3, 1)]);
        let f = claim(&mut flights, batch, Rpc).expect("in flight");
        assert_eq!((f.dst(), f.issued_at()), (dst, at));
        assert_eq!(f.members(), [sub_tag(7, 1, 0), sub_tag(8, 1, 0)]);
        // Claimed once: a late or duplicate answer finds nothing.
        assert!(claim(&mut flights, single, Rma).is_none());
        assert!(claim(&mut flights, batch, Rpc).is_none());
        // Control calls travel the RPC path and carry no sub-ops.
        let f = flights.take(config).expect("the timer claims it");
        assert_eq!((f.path(), f.members()), (Rpc, &[][..]));
        assert!(flights.is_empty());
    }

    #[test]
    fn batch_frames_travel_the_path_of_their_kind() {
        use adaptive::Path::{Rma, Rpc};
        let path = |kind| Flight::Batch(kind, NodeId(1), Box::new([0, 1])).path();
        assert_eq!((path(FrameKind::Read), path(FrameKind::Scar)), (Rma, Rma));
        let lookup = FrameKind::Lookup(LookupStrategy::Msg);
        assert_eq!((path(lookup), path(FrameKind::Set)), (Rpc, Rpc));
    }

    /// `BackendRow` reads exactly what the `IdMap<NodeId, GeomId>` +
    /// `IdSet<NodeId>` pair it replaced read, after every step of every
    /// sequence of 5 events on 2 backends (20,927 leaves; every shorter
    /// sequence is a prefix of one): CONNECT sent (only to a backend
    /// without geometry, as `heal` guarantees), answered with a geometry
    /// of our config, answered with one of another, timed out, a stale
    /// RMA's drop, a config-id change, and an answer arriving for a
    /// backend no longer marked connecting (a CONNECT from before a config
    /// change). Geometry ids count down from the largest the row encodes.
    #[test]
    fn backend_row_reads_what_the_geometry_map_and_connecting_set_read() {
        use simnet::IdSet;
        #[derive(Debug, Clone, Copy)]
        enum Ev {
            Connect(usize),
            Answer(usize),
            Mismatch(usize),
            Timeout(usize),
            StaleDrop(usize),
            NewConfig,
            LateAnswer(usize),
        }
        #[derive(Clone, Default)]
        struct Maps {
            geometry: IdMap<NodeId, GeomId>,
            connecting: IdSet<NodeId>,
        }
        struct Walk {
            shared: ClientShared,
            backends: [NodeId; 2],
            leaves: u64,
        }
        impl Walk {
            fn step(&mut self, row: &BackendRow, maps: &Maps, depth: usize, trail: &mut Vec<Ev>) {
                for (i, &b) in self.backends.iter().enumerate() {
                    let slot = self.shared.slot(b);
                    let held = maps.geometry.get(&b).copied();
                    assert_eq!(row.geometry(slot), held, "{b:?} after {trail:?}");
                    let connecting = row.state(slot) == BackendRow::CONNECTING;
                    assert_eq!(connecting, maps.connecting.contains(&b), "after {trail:?}");
                    assert!(i == slot, "slots are dense, in order of first meeting");
                }
                if depth == 5 {
                    self.leaves += 1;
                    return;
                }
                let id = GeomId((MAX_GEOMETRIES - 1 - depth) as u16);
                let mut events = vec![Ev::NewConfig];
                for b in 0..2 {
                    events.extend([Ev::Answer(b), Ev::Mismatch(b), Ev::Timeout(b)]);
                    events.extend([Ev::StaleDrop(b), Ev::LateAnswer(b), Ev::Connect(b)]);
                }
                for ev in events {
                    let (mut row, mut maps) = (BackendRow(row.0.clone()), maps.clone());
                    let node = |b: usize| self.backends[b];
                    let slot = |b: usize| self.shared.slot(node(b));
                    let in_flight = |m: &Maps, b| m.connecting.contains(&node(b));
                    match ev {
                        Ev::Connect(b) if maps.geometry.contains_key(&node(b)) => continue,
                        Ev::Connect(b) => {
                            let send = row.start_connect(slot(b));
                            assert_eq!(send, maps.connecting.insert(node(b)));
                        }
                        Ev::Answer(b) | Ev::Mismatch(b) | Ev::Timeout(b)
                            if !in_flight(&maps, b) =>
                        {
                            continue
                        }
                        Ev::LateAnswer(b) if in_flight(&maps, b) => continue,
                        Ev::Answer(b) | Ev::LateAnswer(b) => {
                            row.settle(slot(b));
                            row.install(slot(b), id);
                            maps.connecting.remove(&node(b));
                            maps.geometry.insert(node(b), id);
                        }
                        Ev::Mismatch(b) | Ev::Timeout(b) => {
                            row.settle(slot(b));
                            maps.connecting.remove(&node(b));
                        }
                        Ev::StaleDrop(b) => {
                            row.drop_geometry(slot(b));
                            maps.geometry.remove(&node(b));
                        }
                        Ev::NewConfig => {
                            row.clear();
                            maps.geometry.clear();
                            maps.connecting.clear();
                        }
                    }
                    trail.push(ev);
                    self.step(&row, &maps, depth + 1, trail);
                    trail.pop();
                }
            }
        }
        let shared = ClientShared::default();
        let backends = [NodeId(40), NodeId(7)];
        let mut walk = Walk {
            shared,
            backends,
            leaves: 0,
        };
        walk.step(&BackendRow::default(), &Maps::default(), 0, &mut Vec::new());
        assert_eq!(walk.leaves, 20_927);
    }

    #[test]
    #[should_panic(expected = "at most 65533 distinct geometries")]
    fn interning_one_geometry_past_the_row_encoding_panics() {
        let shared = ClientShared::default();
        let geom = |shard| Geometry {
            config_id: 1,
            index_window: 2,
            index_generation: 3,
            num_buckets: 64,
            assoc: 14,
            data_window: 4,
            data_generation: 5,
            shard,
        };
        for shard in 0..MAX_GEOMETRIES as u32 {
            assert_eq!(shared.intern_geometry(geom(shard)), GeomId(shard as u16));
        }
        assert_eq!(
            shared.intern_geometry(geom(0)),
            GeomId(0),
            "held: no new id"
        );
        shared.intern_geometry(geom(u32::MAX));
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
