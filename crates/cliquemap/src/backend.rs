//! The backend process: a [`BackendStore`] wired into the simulation.
//!
//! One `BackendNode` is one CliqueMap backend task. It:
//!
//! * serves **RMA frames** (READ / SCAR) straight out of its region table —
//!   charging only NIC/transport cost, never application CPU (§3);
//! * serves **RPCs** for everything else: mutations (applied in timed
//!   chunks so racing RMA reads can tear, §5.3), geometry handshakes, the
//!   RPC lookup fallback, batched access records (§4.2), cohort scans and
//!   repairs (§5.4), and warm-spare migration (§6.1);
//! * runs background maintenance: index reshaping and high-watermark data
//!   region growth (§4.1), periodic cohort scans, and en-masse recovery
//!   after an unplanned restart.

use std::sync::Arc;

use bytes::{Bytes, Pool};

use rma::{RmaEnvelope, Transport};
use rpc::Status;
use simnet::{Ctx, Deferred, Event, Node, NodeId, SimDuration, SimTime};

use crate::config::CellConfig;
use crate::handoff::{self, Admit, Handoff};
use crate::hash::{KeyHash, KeyHasher};
use crate::history::{self, Commit, Tap};
use crate::messages::{self, method};
use crate::repair::{self, Repair, Step};
use crate::store::{BackendStore, CliqueScarResolver, PreparedSet, StoreCfg};
use crate::version::{VersionGen, VersionNumber};
use crate::wal::{DurableCfg, REPLAY_NS_PER_RECORD, TRICKLE_RECORDS};
use crate::{MSG_COST, RPC_COST};

/// Index rebuild time per live entry, ns.
const RESIZE_NS_PER_ENTRY: u64 = 100;
/// Buckets per cohort-scan page.
const SCAN_PAGE_BUCKETS: u64 = 64;
/// Client-id base (offset by the shard) of the versions a backend
/// nominates when it repairs a dirty quorum.
const REPAIR_CLIENT_ID: u32 = 0x8000_0000;
/// The store's shard while the backend is a warm spare.
const NO_SHARD: u32 = u32::MAX;
/// How often to poll the config store for cell reconfigurations (the
/// production system watches Chubby; we poll).
const CONFIG_POLL: SimDuration = SimDuration::from_millis(100);
/// How long a backend that handed its shard to a spare keeps serving
/// (self-invalidating) reads while clients converge, before it exits.
const GRACE: SimDuration = SimDuration::from_millis(100);

/// What every backend of a cell has in common (the cell's template).
#[derive(Clone, Debug)]
pub struct BackendCfg {
    /// Store geometry and policies (shard and config id are the node's).
    pub store: StoreCfg,
    /// Number of timed chunks a SET's data bytes are written in.
    pub set_chunks: u32,
    /// Gap between consecutive chunks.
    pub chunk_gap: SimDuration,
    /// How often to check reshape/growth triggers.
    pub reshape_check: SimDuration,
    /// Cohort scan period (§5.4: "tens of seconds is typical"); `None`
    /// disables scanning.
    pub scan_interval: Option<SimDuration>,
    /// Load-aware hot-key replication (`None` disables): detect keys
    /// dominating this backend's serve load from access records and
    /// mutations, gated on engine occupancy, and seed extended replicas
    /// via REPAIR_SET pushes so hot-routed clients find fresh copies.
    pub hot_repl: Option<crate::policy::HotReplCfg>,
}

impl Default for BackendCfg {
    fn default() -> Self {
        BackendCfg {
            store: StoreCfg::default(),
            set_chunks: 2,
            chunk_gap: SimDuration::from_nanos(400),
            reshape_check: SimDuration::from_millis(50),
            scan_interval: None,
            hot_repl: None,
        }
    }
}

/// What distinguishes one backend from the others sharing its
/// [`BackendCfg`]: what the cell assigns it when it builds or restarts it.
#[derive(Clone)]
pub struct BackendIdentity {
    /// The shard served; `None` is a warm spare (no shard until a
    /// migration lands).
    pub shard: Option<u32>,
    /// The external config store, if the cell has one.
    pub config_store: Option<NodeId>,
    /// The RMA transport of the backend's host (a Pony Express transport
    /// shares the host's engine pool).
    pub transport: Transport,
    /// RAM-first durability (`None` disables — the default): committed
    /// mutations are appended to a WAL on the attached media,
    /// group-committed to the host's timed storage device, a trickle
    /// flusher checkpoints the log, and a restart replays the media before
    /// delta-repairing from peers. Requires [`simnet::Sim::enable_devices`].
    pub durable: Option<DurableCfg>,
    /// Key hasher shared with clients.
    pub hasher: Arc<dyn KeyHasher>,
    /// Pull repairs from the cohort right after (re)start (§5.4 en-masse).
    pub recover: bool,
    /// The cell's History tap: every commit is recorded through it while
    /// the cell keeps a History.
    pub history: Tap,
}

/// An RPC request whose server-side dispatch CPU is queued; when it is
/// done the handler runs. One per admitted request: the namespace RPC
/// intake sheds on when it is full.
#[derive(Debug)]
struct Dispatch {
    src: NodeId,
    req: rpc::Request,
    trace: u64,
}

/// What a request handler returns: `None` when the request body does not
/// decode (`dispatch` answers it `Internal`).
type Handled = Option<()>;

/// The backend's own deferred continuations (timers and device ops), in a
/// namespace of their own so a full RPC intake cannot starve them.
#[derive(Debug)]
enum Work {
    /// Write the next chunk of a prepared SET.
    SetChunk {
        src: NodeId,
        req_id: u64,
        prepared: PreparedSet,
        written: usize,
        trace: u64,
    },
    /// Periodic reshape/growth trigger check.
    ReshapeCheck,
    /// Index rebuild finished.
    FinishResize,
    /// Deferred data-region growth (off the critical path).
    GrowData,
    /// Periodic cohort scan kick-off.
    ScanTick,
    /// The handoff's grace period is over.
    GraceExpired,
    /// Periodic config-store poll.
    ConfigPoll,
    /// Hot-key epoch boundary: measure occupancy, promote/demote, push
    /// extended copies.
    HotEpoch,
    /// Group-commit device transaction (batch write + fsync) completed.
    WalCommitDone,
    /// Periodic trickle-flush check for an idle device slot.
    WalTrickleTick,
    /// Checkpoint device write for the oldest WAL prefix completed.
    WalTrickleDone,
}

/// What an outgoing call's answer resolves. It is kept, with the peer the
/// call went to, under the call's [`Deferred::in_flight`] token; a call
/// whose timer fires first is answered `Internal`, so the scan and handoff
/// cores advance rather than stall.
#[derive(Debug)]
enum Call {
    /// A page of the scan of this generation.
    Scan(u32),
    /// A key fetched by hash for a Pull scan.
    Fetch,
    /// A REPAIR_SET: nothing waits on its answer (a lost one is caught by
    /// the next scan).
    Repair,
    /// A handoff chunk.
    Chunk,
    /// GET_CONFIG, for this purpose.
    Config(ConfigFor),
    /// UPDATE_CONFIG publishing a handoff's configuration.
    Publish,
}

// One in-flight call's record.
const _: () = assert!(std::mem::size_of::<(NodeId, Call)>() == 12);

/// What a GET_CONFIG answer is for.
#[derive(Debug)]
enum ConfigFor {
    /// A handoff about to cut over.
    Handoff,
    /// A scan about to start.
    Scan,
    /// The periodic poll (or a hot-key push waiting for a config).
    Poll,
}

/// The backend task.
pub struct BackendNode {
    cfg: BackendCfg,
    hasher: Arc<dyn KeyHasher>,
    config_store: Option<NodeId>,
    recover: bool,
    history: Tap,
    store: BackendStore,
    /// RMA transport state (public so harnesses can sample engine counts).
    pub transport: Transport,
    dispatches: Deferred<Dispatch>,
    work: Deferred<Work>,
    /// Outgoing calls in flight, with the peer each went to.
    calls: Deferred<(NodeId, Call)>,
    versions: VersionGen,
    /// Cohort scans (§5.4): the core decides, this node sends.
    repair: Repair,
    /// Warm-spare handoff (§6.1): the core decides, this node sends.
    handoff: Handoff,
    config: Option<CellConfig>,
    growth_pending: bool,
    /// Trace id of the request currently being handled (0 outside a traced
    /// request). Set from the inbound frame / continuation, read by
    /// [`BackendNode::respond_rpc`] so responses carry the op's trace.
    cur_trace: u64,
    /// Interned metric handles; resolved on [`Event::Start`].
    mids: Option<BackendMetricIds>,
    /// Hot-key detector (`cfg.hot_repl`), fed by access records and
    /// mutations, rolled from the [`Work::HotEpoch`] timer.
    hot: Option<crate::policy::HotKeyTracker>,
    /// `transport.sw_cpu_ns()` at the last hot epoch boundary (occupancy
    /// is the busy-ns delta over the epoch).
    hot_busy_mark: u64,
    /// Keys promoted before the cell config was learned: their extended
    /// copies are pushed at the next epoch once a config exists.
    hot_push_pending: Vec<KeyHash>,
    /// Frame-buffer pool every response/request is encoded into; swapped
    /// for the simulation's pool at [`Event::Start`].
    pool: Pool,
    /// WAL group-commit engine (`BackendIdentity::durable`); `None` leaves every
    /// mutation path exactly as it was before durability existed.
    wal: Option<crate::wal::WalEngine>,
}

simnet::metric_ids! {
    /// Interned handles for every metric the backend writes; resolved once
    /// at [`Event::Start`] so serving paths (RMA, RPC) never touch a metric
    /// name.
    struct BackendMetricIds {
        rpc_bytes: "cm.rpc_bytes",
        rma_ops: "cm.backend.rma_ops",
        repair_sets_in: "cm.backend.repair_sets_in",
        index_resizes: "cm.backend.index_resizes",
        index_resizes_done: "cm.backend.index_resizes_done",
        dirty_quorums: "cm.backend.dirty_quorums",
        recovery_fetches: "cm.backend.recovery_fetches",
        recovered_entries: "cm.backend.recovered_entries",
        repairs: "cm.backend.repairs",
        repair_erases: "cm.backend.repair_erases",
        stale_scan_pages: "cm.backend.stale_scan_pages",
        migrations_started: "cm.backend.migrations_started",
        migrations_aborted: "cm.backend.migrations_aborted",
        migrate_in_entries: "cm.backend.migrate_in_entries",
        takeovers: "cm.backend.takeovers",
        config_adoptions: "cm.backend.config_adoptions",
        data_growths: "cm.backend.data_growths",
        exits: "cm.backend.retired",
        rpc_timeouts: "cm.backend.rpc_timeouts",
        shed: "cm.backend.shed",
        access_records: "cm.backend.access_records",
        rpc_dropped_cpu_dead: "cm.backend.rpc_dropped_cpu_dead",
        rma_dropped_cpu_dead: "cm.backend.rma_dropped_cpu_dead",
        hot_promotions: "cm.backend.hot_promotions",
        hot_demotions: "cm.backend.hot_demotions",
        hot_pushes: "cm.backend.hot_pushes",
        wal_appends: "cm.backend.wal_appends",
        wal_absorbed: "cm.backend.wal_absorbed",
        wal_fsyncs: "cm.backend.wal_fsyncs",
        wal_committed: "cm.backend.wal_committed",
        wal_replayed: "cm.backend.wal_replayed",
        wal_trickled: "cm.backend.wal_trickled",
        recovery_bytes: "cm.backend.recovery_bytes",
    }
}

impl std::fmt::Debug for BackendNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendNode")
            .field("store", &self.store)
            .finish()
    }
}

impl BackendNode {
    /// Build backend `me` of a cell whose backends share `cfg`. It starts
    /// at the cell's first configuration (config id 1).
    pub fn new(cfg: BackendCfg, me: BackendIdentity) -> BackendNode {
        let store_cfg = StoreCfg {
            shard: me.shard.unwrap_or(NO_SHARD),
            config_id: 1,
            ..cfg.store.clone()
        };
        let repair_id = REPAIR_CLIENT_ID.wrapping_add(store_cfg.shard);
        let store = BackendStore::new(store_cfg, Box::new(crate::policy::LruPolicy::new()));
        BackendNode {
            hasher: me.hasher,
            config_store: me.config_store,
            recover: me.recover,
            history: me.history,
            store,
            transport: me.transport,
            dispatches: Deferred::responses(),
            work: Deferred::aux1(),
            calls: Deferred::in_flight(),
            versions: VersionGen::new(repair_id),
            repair: Repair::default(),
            handoff: Handoff::default(),
            config: None,
            growth_pending: false,
            cur_trace: 0,
            mids: None,
            hot: cfg.hot_repl.clone().map(crate::policy::HotKeyTracker::new),
            hot_busy_mark: 0,
            hot_push_pending: Vec::new(),
            pool: Pool::new(),
            wal: me.durable.map(crate::wal::WalEngine::new),
            cfg,
        }
    }

    /// Cached metric handles (resolved before any request can arrive).
    #[inline]
    fn m(&self) -> &BackendMetricIds {
        self.mids.as_ref().expect("metric ids resolved at Start")
    }

    /// Store access for harness inspection.
    pub fn store(&self) -> &BackendStore {
        &self.store
    }

    /// Mutable store access (test setup).
    pub fn store_mut(&mut self) -> &mut BackendStore {
        &mut self.store
    }

    /// Install a pair straight into the store, as a harness's corpus load
    /// (no WAL record, no handoff delta), and record it as the cell's
    /// History commits every pair.
    pub fn load(&mut self, key: &[u8], value: &[u8], version: VersionNumber) -> Status {
        let hash = self.hasher.hash(key);
        let status = self.store.install(key, value, hash, version);
        if status == Status::Ok {
            history::record(&self.history, |h| {
                h.commits.push(Commit {
                    key: hash,
                    version: version.0,
                    value: Some(history::value_hash(value)),
                    loaded: true,
                })
            });
        }
        status
    }

    /// Run `work` after `delay`.
    fn after(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration, work: Work) {
        let tok = self.work.defer(work);
        ctx.set_timer(delay, tok);
    }

    fn respond_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        req_id: u64,
        status: Status,
        body: Bytes,
    ) {
        let resp = rpc::encode_response_in(
            &rpc::Response {
                version: rpc::PROTOCOL_VERSION,
                status,
                id: req_id,
                body,
            },
            &self.pool,
        );
        ctx.metrics().add_id(self.m().rpc_bytes, resp.len() as u64);
        ctx.send_traced(dst, resp, self.cur_trace);
    }

    // ---- RMA path -------------------------------------------------------

    fn on_rma(&mut self, ctx: &mut Ctx<'_>, src: NodeId, env: RmaEnvelope) {
        let now = ctx.now();
        let served = rma::serve(
            &env,
            self.store.regions(),
            &CliqueScarResolver,
            &mut self.transport,
            &self.pool,
            now,
        );
        if let Some(served) = served {
            ctx.metrics().add_id(self.m().rma_ops, 1);
            let delay = served.ready_at.since(now);
            // Serving-side engine occupancy (Pony engine queueing; zero for
            // hardware transports beyond the fixed serve latency).
            ctx.trace_interval(
                self.cur_trace,
                simnet::obs::stage::ENGINE,
                now,
                served.ready_at,
            );
            // `cur_trace` stamps the response so the client's op trace sees
            // the return path.
            ctx.send_after(delay, src, served.response, self.cur_trace);
        }
    }

    // ---- RPC path -------------------------------------------------------

    fn on_rpc_request(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) {
        if !rpc::version_compatible(req.version) {
            self.respond_rpc(ctx, src, req.id, Status::ProtocolMismatch, Bytes::new());
            return;
        }
        ctx.metrics()
            .add_id(self.m().rpc_bytes, req.body.len() as u64 + 35);
        if self.dispatches.is_full() {
            // Every dispatch slot is queued behind the CPU: answer now and
            // let the caller's retry budget pace it.
            ctx.metrics().add_id(self.m().shed, 1);
            self.respond_rpc(ctx, src, req.id, Status::Overloaded, Bytes::new());
            return;
        }
        // Server framework CPU before the handler runs; the lean messaging
        // path (MSG_GET) charges far less — that difference is Fig. 7.
        // A batched frame pays this fixed cost ONCE for all its sub-ops
        // (single dispatch, vectored serve) — the server half of the
        // doorbell-batching crossover.
        let cost = if req.method == method::MSG_GET || req.method == method::MSG_MULTI_GET {
            // Messages still flow through the software NIC's engines (rx
            // here, tx on the response) before a server thread wakes up.
            self.transport.admit_serve(ctx.now(), req.body.len(), 0);
            MSG_COST.server_total(req.body.len(), 0)
        } else {
            RPC_COST.server_total(req.body.len(), 0)
        };
        let trace = self.cur_trace;
        let tok = self.dispatches.defer(Dispatch { src, req, trace });
        ctx.spawn_cpu_traced(cost, tok, trace, simnet::obs::stage::SERVER_CPU);
    }

    /// Run `req`'s handler; a body that does not decode, and an unknown
    /// method, are answered `Internal`.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) {
        let id = req.id;
        if self.handle(ctx, src, req).is_none() {
            self.respond_rpc(ctx, src, id, Status::Internal, Bytes::new());
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) -> Handled {
        match req.method {
            method::CONNECT => {
                let (status, body) = if self.store.is_resizing() {
                    (Status::Stalled, Bytes::new())
                } else if !self.has_identity() {
                    (Status::WrongShard, Bytes::new())
                } else {
                    (Status::Ok, self.store.geometry().encode_in(&self.pool))
                };
                self.respond_rpc(ctx, src, req.id, status, body);
                Some(())
            }
            method::SET | method::REPAIR_SET | method::CAS => self.handle_set(ctx, src, req),
            method::ERASE => {
                let erase = messages::EraseReq::decode(req.body)?;
                let hash = self.hasher.hash(&erase.key);
                let status = self.apply(ctx, &erase.key, hash, None, erase.version);
                self.respond_rpc(ctx, src, req.id, status, Bytes::new());
                Some(())
            }
            method::GET_RPC | method::MSG_GET => self.handle_get_rpc(ctx, src, req),
            method::MULTI_GET_RPC | method::MSG_MULTI_GET => self.handle_multi_get(ctx, src, req),
            method::MULTI_SET => self.handle_multi_set(ctx, src, req),
            method::FETCH_BY_HASH => self.handle_fetch(ctx, src, req),
            method::ACCESS_RECORDS => {
                let recs = messages::AccessRecords::decode(req.body)?;
                ctx.metrics()
                    .add_id(self.m().access_records, recs.hashes.len() as u64);
                for &h in &recs.hashes {
                    self.note_serve(h);
                }
                self.store.apply_access_records(&recs.hashes);
                self.respond_rpc(ctx, src, req.id, Status::Ok, Bytes::new());
                Some(())
            }
            method::SCAN => {
                let scan = messages::ScanReq::decode(req.body)?;
                let page = self.store.scan_page(scan.page, SCAN_PAGE_BUCKETS);
                let body = page.encode_in(&self.pool);
                self.respond_rpc(ctx, src, req.id, Status::Ok, body);
                Some(())
            }
            method::MIGRATE_CHUNK => self.handle_migrate_chunk(ctx, src, req),
            method::PREPARE_MAINTENANCE => {
                let prep = messages::PrepareMaintenance::decode(req.body)?;
                let store = &self.store;
                let step = self
                    .handoff
                    .prepare(prep.spare_node, || store.fetchable_entries());
                let busy = step == handoff::Step::Busy;
                let status = if busy { Status::Overloaded } else { Status::Ok };
                self.respond_rpc(ctx, src, req.id, status, Bytes::new());
                self.step_handoff(ctx, |_| Some(step));
                Some(())
            }
            _ => None,
        }
    }

    /// Count a serve of `hash` toward the hot-key detector, if it runs.
    fn note_serve(&mut self, hash: KeyHash) {
        if let Some(t) = self.hot.as_mut() {
            t.record(hash);
        }
    }

    fn has_identity(&self) -> bool {
        self.store.shard() != NO_SHARD
    }

    /// SET, REPAIR_SET and CAS: prepare the entry and stream it in; a
    /// prepare the store refuses is answered at once.
    fn handle_set(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) -> Handled {
        let prepared = if req.method == method::CAS {
            let cas = messages::CasReq::decode(req.body)?;
            let hash = self.hasher.hash(&cas.key);
            let (expected, version) = (cas.expected, cas.new_version);
            self.store
                .prepare_cas(&cas.key, &cas.value, hash, expected, version)
        } else {
            let is_repair = req.method == method::REPAIR_SET;
            let set = messages::SetReq::decode(req.body)?;
            let hash = self.hasher.hash(&set.key);
            if !is_repair {
                self.note_serve(hash);
            }
            let prepared = self
                .store
                .prepare_set(&set.key, &set.value, hash, set.version);
            if is_repair && prepared.is_ok() {
                ctx.metrics().add_id(self.m().repair_sets_in, 1);
            }
            prepared
        };
        match prepared {
            Err(status) => self.respond_rpc(ctx, src, req.id, status, Bytes::new()),
            Ok(prepared) => self.write_chunks(ctx, src, req.id, prepared, 0),
        }
        Some(())
    }

    /// Stream the prepared entry's bytes in `set_chunks` timed pieces,
    /// `written` of them already in place; the final piece commits and
    /// responds.
    fn write_chunks(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        req_id: u64,
        prepared: PreparedSet,
        written: usize,
    ) {
        let len = prepared.entry_bytes.len();
        let chunk_len = len.div_ceil(self.cfg.set_chunks.max(1) as usize);
        let next = (written + chunk_len).min(len);
        self.store.write_data(
            prepared.data_offset + written as u64,
            &prepared.entry_bytes[written..next],
        );
        if next >= len {
            self.finish_set(ctx, src, req_id, prepared);
        } else {
            let work = Work::SetChunk {
                src,
                req_id,
                prepared,
                written: next,
                trace: self.cur_trace,
            };
            self.after(ctx, self.cfg.chunk_gap, work);
        }
    }

    fn finish_set(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req_id: u64, p: PreparedSet) {
        let status = if self.handoff.admit() == Admit::Reject {
            self.store.abort_set(&p);
            Status::WrongShard
        } else {
            self.store.commit_set(&p)
        };
        if status == Status::Ok {
            // The prepared entry is the committed wire form: the key and
            // value that won are the ones it was encoded from.
            self.committed(ctx, p.key(), Some(p.value()), p.version);
        }
        self.respond_rpc(ctx, src, req_id, status, Bytes::new());
        self.maybe_schedule_growth(ctx);
    }

    /// The pair stored under exactly `key`, if any (counted as a serve by
    /// the hot-key detector either way).
    fn lookup(&mut self, key: &[u8]) -> Option<(Bytes, Bytes, VersionNumber)> {
        let hash = self.hasher.hash(key);
        self.note_serve(hash);
        self.store
            .fetch(hash)
            .filter(|(stored, _, _)| stored == key)
    }

    /// Answer a single lookup: the pair as a `GetResp`, or `NotFound`.
    fn respond_pair(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        req_id: u64,
        pair: Option<(Bytes, Bytes, VersionNumber)>,
    ) {
        let Some((key, value, version)) = pair else {
            return self.respond_rpc(ctx, src, req_id, Status::NotFound, Bytes::new());
        };
        let body = messages::GetResp {
            key,
            value,
            version,
        }
        .encode_in(&self.pool);
        self.respond_rpc(ctx, src, req_id, Status::Ok, body);
    }

    fn handle_get_rpc(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) -> Handled {
        let get = messages::GetReq::decode(req.body)?;
        let pair = self.lookup(&get.key);
        self.respond_pair(ctx, src, req.id, pair);
        Some(())
    }

    /// Vectored serve for a batched lookup frame: one dispatch already paid
    /// the per-request framework cost; each sub-op is now a plain store
    /// probe, and every verdict rides one pooled response frame.
    fn handle_multi_get(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) -> Handled {
        let mget = messages::MultiGetReq::decode(req.body)?;
        let mut entries = Vec::with_capacity(mget.keys.len());
        for (&sub, key) in mget.subs.iter().zip(&mget.keys) {
            let (status, version, value) = match self.lookup(key) {
                Some((_, value, version)) => (Status::Ok, version, value),
                None => (Status::NotFound, VersionNumber::ZERO, Bytes::new()),
            };
            entries.push(messages::MultiGetEntry {
                sub,
                status: status as u8,
                version,
                value,
            });
        }
        let body = messages::MultiGetResp { entries }.encode_in(&self.pool);
        self.respond_rpc(ctx, src, req.id, Status::Ok, body);
        Some(())
    }

    /// Vectored serve for a batched mutation frame. Unlike the single-SET
    /// path, entries are written synchronously (no chunk gaps inside a
    /// batch frame): a concurrent one-sided read can still observe a torn
    /// entry via the usual memory snapshot, but the batch itself commits
    /// each sub-op atomically within the dispatch event. Per-sub-op
    /// verdicts travel back in one status vector.
    fn handle_multi_set(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) -> Handled {
        let mset = messages::MultiSetReq::decode(req.body)?;
        let mut statuses = Vec::with_capacity(mset.entries.len());
        for (sub, (key, value, version)) in mset.subs.iter().zip(&mset.entries) {
            let hash = self.hasher.hash(key);
            self.note_serve(hash);
            let status = self.apply(ctx, key, hash, Some(value), *version);
            statuses.push((*sub, status as u8));
        }
        self.maybe_schedule_growth(ctx);
        let body = messages::MultiSetResp { statuses }.encode_in(&self.pool);
        self.respond_rpc(ctx, src, req.id, Status::Ok, body);
        Some(())
    }

    fn handle_fetch(&mut self, ctx: &mut Ctx<'_>, src: NodeId, req: rpc::Request) -> Handled {
        let fetch = messages::FetchByHashReq::decode(req.body)?;
        let pair = self.store.fetch(fetch.key_hash);
        self.respond_pair(ctx, src, req.id, pair);
        Some(())
    }

    // ---- The commit point ------------------------------------------------

    /// Commit one mutation in one step — a pair, or an ERASE when `value`
    /// is `None` — and, if the store took it, settle what the commit owes.
    /// Every mutation but the chunked SET/CAS handler's
    /// ([`Self::finish_set`]) commits through here; WAL replay alone calls
    /// the store directly, since a replayed record is already on the log.
    /// Both ask the handoff first: once this backend has cut its last chunk
    /// to a spare, a mutation is refused `WrongShard` and the store never
    /// sees it.
    fn apply(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &[u8],
        hash: KeyHash,
        value: Option<&[u8]>,
        version: VersionNumber,
    ) -> Status {
        if self.handoff.admit() == Admit::Reject {
            return Status::WrongShard;
        }
        let status = match value {
            Some(value) => self.store.install(key, value, hash, version),
            None => self.store.erase(hash, version),
        };
        if status == Status::Ok {
            self.committed(ctx, key, value, version);
        }
        status
    }

    /// The one commit hook: what a mutation the store has just accepted
    /// owes. With durability on, a WAL record; while a handoff is open, a
    /// place in its delta; while the cell keeps a History, a commit row.
    fn committed(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &[u8],
        value: Option<&[u8]>,
        version: VersionNumber,
    ) {
        let kind = match value {
            Some(_) => durable::KIND_SET,
            None => durable::KIND_ERASE,
        };
        self.wal_append(ctx, kind, key, value.unwrap_or_default(), version);
        self.handoff.committed(key, value, version);
        history::record(&self.history, |h| {
            h.commits.push(Commit {
                key: self.hasher.hash(key),
                version: version.0,
                value: value.map(history::value_hash),
                loaded: false,
            })
        });
    }

    // ---- RAM-first durability (WAL + group commit + warm restart) -------

    /// Append one committed mutation to the WAL (no-op without
    /// durability). The append itself is RAM-speed; durability comes from
    /// the asynchronous group commit — if a device transaction is already
    /// in flight, this record coalesces into the next batch and will share
    /// its single fsync, which is the whole amortization story.
    fn wal_append(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: u8,
        key: &[u8],
        value: &[u8],
        version: VersionNumber,
    ) {
        let Some(w) = self.wal.as_mut() else { return };
        let before = w.gc.pending_records();
        let batch = w.gc.append_parts(kind, version.0, key, value);
        ctx.metrics().add_id(self.m().wal_appends, 1);
        if batch == before {
            // The append replaced a pending older version of its key.
            ctx.metrics().add_id(self.m().wal_absorbed, 1);
        }
        // Batch-join annotation: a traced mutation records how many
        // records its fsync will cover (ENGINE marks are ignored by the
        // postmortem verdict, which keys on SERVER_CPU marks only).
        ctx.trace_mark(self.cur_trace, simnet::obs::stage::ENGINE, batch);
        if let Some(done) = self.wal_kick(ctx) {
            // The append sealed a batch and its fsync rides this op's
            // wall-clock shadow: attribute the device transaction as WAL
            // time so durable slow-op postmortems name the log, not the
            // server CPU. Coalesced appends (commit already in flight)
            // record nothing — their wait is genuine group-commit overlap.
            ctx.trace_interval(self.cur_trace, simnet::obs::stage::WAL, ctx.now(), done);
        }
    }

    /// Start a group-commit device transaction if one isn't in flight and
    /// appends are pending. Returns the device completion time when a
    /// commit was actually issued.
    fn wal_kick(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        let (bytes, _records) = self.wal.as_mut()?.gc.start_commit()?;
        let tok = self.work.defer(Work::WalCommitDone);
        Some(ctx.device_commit(bytes, tok))
    }

    /// The sealed batch's write+fsync completed: publish it to media and
    /// immediately commit whatever coalesced in the meantime.
    fn on_wal_commit_done(&mut self, ctx: &mut Ctx<'_>) {
        let mids = *self.m();
        if let Some(w) = self.wal.as_mut() {
            let records = w.gc.finish_commit(&mut w.cfg.media.borrow_mut());
            ctx.metrics().add_id(mids.wal_fsyncs, 1);
            ctx.metrics().add_id(mids.wal_committed, records);
        }
        let _ = self.wal_kick(ctx);
    }

    /// Periodic trickle flush: when the device has an idle slot (no group
    /// commit in flight, no checkpoint already outstanding), write the
    /// oldest WAL prefix into the checkpoint snapshot. Completion
    /// ([`Work::WalTrickleDone`]) folds the prefix into the snapshot and
    /// truncates the log front, bounding WAL length and replay time.
    fn on_wal_trickle_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(w) = self.wal.as_mut() else { return };
        let interval = w.cfg.trickle_interval;
        if !w.gc.in_flight() && w.trickle_inflight.is_none() {
            let (records, bytes) = w.cfg.media.borrow().prefix(TRICKLE_RECORDS);
            if records > 0 {
                w.trickle_inflight = Some(records);
                let tok = self.work.defer(Work::WalTrickleDone);
                ctx.device_commit(bytes, tok);
            }
        }
        self.after(ctx, interval, Work::WalTrickleTick);
    }

    fn on_wal_trickle_done(&mut self, ctx: &mut Ctx<'_>) {
        let mids = *self.m();
        let Some(w) = self.wal.as_mut() else { return };
        let Some(n) = w.trickle_inflight.take() else {
            return;
        };
        let (flushed, _bytes) = w.cfg.media.borrow_mut().flush_prefix(n);
        if flushed > 0 {
            ctx.metrics().add_id(mids.wal_trickled, flushed);
            ctx.metrics().add_id(mids.wal_fsyncs, 1);
        }
    }

    /// Warm restart: replay the attached media (checkpoint snapshot, then
    /// WAL in log order) into the store before the Pull recovery scan
    /// runs. Replay goes through the normal version-gated prepare/commit
    /// path, so it is idempotent and can never regress an entry; the
    /// subsequent scan then fetches only keys whose version is still
    /// behind the cohort — the un-fsynced tail — instead of the whole
    /// shard.
    fn wal_replay(&mut self, ctx: &mut Ctx<'_>) {
        let mids = *self.m();
        let Some(w) = self.wal.as_ref() else { return };
        let (mut records, mut applied) = (0u64, 0u64);
        // Borrowed straight from the snapshot and the log segments: a
        // restart never holds a second copy of what it replays.
        w.cfg
            .media
            .borrow()
            .for_each_record(|kind, version, key, value| {
                records += 1;
                let hash = self.hasher.hash(key);
                let version = VersionNumber(version);
                let status = if kind == durable::KIND_ERASE {
                    self.store.erase(hash, version)
                } else {
                    self.store.install(key, value, hash, version)
                };
                applied += u64::from(status == Status::Ok);
            });
        if records == 0 {
            return;
        }
        ctx.metrics().add_id(mids.wal_replayed, applied);
        // Replay is local CPU, charged in bulk — it delays this host's
        // first serves but needs no forward-progress gate.
        ctx.charge_cpu(SimDuration(REPLAY_NS_PER_RECORD * records));
    }

    // ---- Maintenance: reshaping ----------------------------------------

    fn reshape_check(&mut self, ctx: &mut Ctx<'_>) {
        if self.store.needs_index_resize() && self.handoff.idle() {
            self.store.begin_index_resize();
            ctx.metrics().add_id(self.m().index_resizes, 1);
            let dur = SimDuration(RESIZE_NS_PER_ENTRY * self.store.live_entries().max(1));
            self.after(ctx, dur, Work::FinishResize);
        }
        self.maybe_schedule_growth(ctx);
        self.after(ctx, self.cfg.reshape_check, Work::ReshapeCheck);
    }

    fn maybe_schedule_growth(&mut self, ctx: &mut Ctx<'_>) {
        if self.growth_pending || !self.store.needs_data_growth() {
            return;
        }
        self.growth_pending = true;
        // Kernel memory operations have unpredictable duration; growth is
        // triggered by a high watermark and runs off the critical path.
        self.after(ctx, SimDuration::from_millis(2), Work::GrowData);
    }

    // ---- Cohort scans & repairs (§5.4) ----------------------------------

    fn scan_tick(&mut self, ctx: &mut Ctx<'_>) {
        if !self.repair.running() && self.handoff.idle() && self.has_identity() {
            let step = self.repair.begin(repair::Mode::Push);
            self.repair_steps(ctx, [step]);
        }
        if let Some(interval) = self.cfg.scan_interval {
            self.after(ctx, interval, Work::ScanTick);
        }
    }

    /// Execute the repair core's steps, in the order it emitted them.
    fn repair_steps(&mut self, ctx: &mut Ctx<'_>, steps: impl IntoIterator<Item = Step>) {
        for step in steps {
            match step {
                Step::GetConfig => self.get_config(ctx, ConfigFor::Scan),
                Step::RequestPage { peer, page, scan } => {
                    let body = messages::ScanReq { page }.encode_in(&self.pool);
                    self.call(ctx, NodeId(peer), method::SCAN, body, Call::Scan(scan));
                }
                Step::Fetch { peer, hash } => {
                    let body = messages::FetchByHashReq { key_hash: hash }.encode_in(&self.pool);
                    self.call(ctx, NodeId(peer), method::FETCH_BY_HASH, body, Call::Fetch);
                }
                Step::Pulled { fetches } => {
                    ctx.metrics()
                        .add_id(self.m().recovery_fetches, u64::from(fetches));
                }
                Step::Repair { hash } => {
                    ctx.metrics().add_id(self.m().dirty_quorums, 1);
                    self.repair_key(ctx, hash);
                }
                Step::EraseLocal { hash, version } => {
                    // Erased through the commit point: the WAL logs it, an
                    // open handoff forwards it.
                    let Some((key, _, _)) = self.store.fetch(hash) else {
                        continue;
                    };
                    if self.apply(ctx, &key, hash, None, version) == Status::Ok {
                        ctx.metrics().add_id(self.m().repair_erases, 1);
                    }
                }
                Step::Done => {}
            }
        }
    }

    /// §5.4 repair: install the key at a fresh version N at all replicas.
    fn repair_key(&mut self, ctx: &mut Ctx<'_>, hash: KeyHash) {
        let Some((key, value, _old_version)) = self.store.fetch(hash) else {
            return;
        };
        let version = self.versions.nominate(ctx.truetime());
        let config = self.config.as_ref().expect("a scan runs under a config");
        let shard = crate::hash::place(hash, config.num_shards(), 1).shard;
        let replicas = config.replicas_for(shard);
        if replicas.contains(&ctx.self_id()) {
            // Apply locally, directly (we are the repairer).
            self.apply(ctx, &key, hash, Some(&value), version);
        }
        self.repair_sets(ctx, &replicas, key, value, version);
        ctx.metrics().add_id(self.m().repairs, 1);
    }

    /// The one REPAIR_SET fan-out (§5.4 repair, hot-key copies): `key`'s
    /// pair at `version` to every node of `replicas` but this one, in
    /// order. Returns how many went out.
    fn repair_sets(
        &mut self,
        ctx: &mut Ctx<'_>,
        replicas: &[NodeId],
        key: Bytes,
        value: Bytes,
        version: VersionNumber,
    ) -> u64 {
        let me = ctx.self_id();
        let body = messages::SetReq {
            key,
            value,
            version,
        }
        .encode_in(&self.pool);
        let mut sent = 0;
        for &replica in replicas.iter().filter(|&&r| r != me) {
            self.call(ctx, replica, method::REPAIR_SET, body.clone(), Call::Repair);
            sent += 1;
        }
        sent
    }

    // ---- Load-aware hot-key replication ---------------------------------

    /// Close a hot epoch: measure engine occupancy over the elapsed
    /// period, promote/demote, push newly promoted keys to their extended
    /// replicas, and re-arm the timer.
    fn on_hot_epoch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(epoch) = self.hot.as_ref().map(|t| t.cfg().epoch) else {
            return;
        };
        // Occupancy = software-NIC busy core-ns over the epoch, per
        // engine. Hardware transports report 0 busy-ns; pair them with an
        // occupancy_gate of 0.0.
        let busy = self.transport.sw_cpu_ns();
        let delta = busy.saturating_sub(self.hot_busy_mark);
        self.hot_busy_mark = busy;
        let engines = self.transport.engine_count().max(1) as u64;
        let occupancy = delta as f64 / (epoch.nanos().max(1) as f64 * engines as f64);
        let decisions = self
            .hot
            .as_mut()
            .expect("checked above")
            .roll_epoch(ctx.now(), occupancy);
        if !decisions.promoted.is_empty() {
            ctx.metrics()
                .add_id(self.m().hot_promotions, decisions.promoted.len() as u64);
            for &key in &decisions.promoted {
                self.push_hot_copies(ctx, key);
            }
        }
        // Keys promoted before the config was learned retry here (the
        // config poll runs on a much longer period than hot epochs).
        if self.config.is_some() && !self.hot_push_pending.is_empty() {
            let pending = std::mem::take(&mut self.hot_push_pending);
            for key in pending {
                if self.hot.as_ref().is_some_and(|t| t.is_hot(key)) {
                    self.push_hot_copies(ctx, key);
                }
            }
        }
        if !decisions.demoted.is_empty() {
            ctx.metrics()
                .add_id(self.m().hot_demotions, decisions.demoted.len() as u64);
        }
        self.after(ctx, epoch, Work::HotEpoch);
    }

    /// Seed a newly promoted key's extended replicas with its *current*
    /// version via REPAIR_SET (same mechanism as §5.4 repair, but the
    /// version is preserved rather than re-nominated — the extended
    /// copies' index votes must agree with the base quorum's).
    fn push_hot_copies(&mut self, ctx: &mut Ctx<'_>, hash: KeyHash) {
        let Some(config) = self.config.clone() else {
            // Config not yet learned: remember the key and fetch the
            // config now (without re-arming the poll timer) so the next
            // epoch can push. Bounded; hot sets are tiny.
            if self.hot_push_pending.len() < 64 {
                self.hot_push_pending.push(hash);
            }
            self.fetch_config(ctx);
            return;
        };
        let Some(extra) = self.hot.as_ref().map(|t| t.cfg().extra_copies) else {
            return;
        };
        let n = config.num_shards();
        let base = config.replication.copies().min(n);
        if extra == 0 || n < base + extra {
            return;
        }
        let Some((key, value, version)) = self.store.fetch(hash) else {
            return; // nothing stored here (e.g. promoted off SET churn)
        };
        let shard = crate::hash::place(hash, n, 1).shard;
        let extended: Vec<NodeId> = (0..extra)
            .map(|i| config.node_for((shard + base + i) % n))
            .collect();
        let pushes = self.repair_sets(ctx, &extended, key, value, version);
        if pushes > 0 {
            ctx.metrics().add_id(self.m().hot_pushes, pushes);
        }
    }

    // ---- Warm-spare handoff (§6.1) --------------------------------------

    /// Feed the handoff core one input and execute the step it returns.
    fn step_handoff(
        &mut self,
        ctx: &mut Ctx<'_>,
        input: impl FnOnce(&mut Handoff) -> Option<handoff::Step>,
    ) {
        use handoff::Step;
        let Some(step) = input(&mut self.handoff) else {
            return;
        };
        match step {
            Step::Busy => {}
            Step::GetConfig => {
                ctx.metrics().add_id(self.m().migrations_started, 1);
                self.get_config(ctx, ConfigFor::Handoff);
            }
            Step::SendChunk(spare, chunk) => {
                let body = chunk.encode_in(&self.pool);
                self.call(ctx, NodeId(spare), method::MIGRATE_CHUNK, body, Call::Chunk);
            }
            Step::Publish(config) => {
                // Restamp our buckets with the new config id: clients that
                // still RMA-read from us during the handoff see a config
                // mismatch in the bucket header and refresh their config —
                // discovering the spare without ever hitting a timeout (§6.1).
                self.store.set_config_id(config.config_id);
                if let Some(store) = self.config_store {
                    let body = config.encode();
                    self.call(ctx, store, method::UPDATE_CONFIG, body, Call::Publish);
                }
            }
            Step::StartGrace => self.after(ctx, GRACE, Work::GraceExpired),
            Step::Exit => {
                ctx.metrics().add_id(self.m().exits, 1);
                ctx.exit_self();
            }
            Step::Aborted => ctx.metrics().add_id(self.m().migrations_aborted, 1),
        }
    }

    /// The spare's side: install a chunk through the commit point and, on
    /// the last one, adopt the shard.
    fn handle_migrate_chunk(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        req: rpc::Request,
    ) -> Handled {
        let chunk = messages::MigrateChunk::decode(req.body)?;
        for (key, value, version) in &chunk.entries {
            let hash = self.hasher.hash(key);
            self.apply(ctx, key, hash, Some(value), *version);
            ctx.metrics().add_id(self.m().migrate_in_entries, 1);
        }
        for (key, version) in &chunk.erased {
            let hash = self.hasher.hash(key);
            self.apply(ctx, key, hash, None, *version);
        }
        if chunk.last {
            // Adopt the shard identity; restamp buckets with the new config
            // id so clients validate correctly against us.
            self.store.set_shard(chunk.shard);
            self.store.set_config_id(chunk.new_config_id);
            ctx.metrics().add_id(self.m().takeovers, 1);
        }
        self.respond_rpc(ctx, src, req.id, Status::Ok, Bytes::new());
        Some(())
    }

    /// Ask the config store for the current configuration (adopted, and
    /// restamped into the buckets, when the answer arrives) — unless this
    /// backend is handing its shard away.
    fn fetch_config(&mut self, ctx: &mut Ctx<'_>) {
        if self.handoff.idle() {
            self.get_config(ctx, ConfigFor::Poll);
        }
    }

    /// Ask the config store (if the cell has one) for the configuration;
    /// `purpose` is what the answer is for.
    fn get_config(&mut self, ctx: &mut Ctx<'_>, purpose: ConfigFor) {
        if let Some(store) = self.config_store {
            let call = Call::Config(purpose);
            self.call(ctx, store, method::GET_CONFIG, Bytes::new(), call);
        }
    }

    /// Poll the config store, so that clients validating bucket config ids
    /// converge after migrations.
    fn config_poll(&mut self, ctx: &mut Ctx<'_>) {
        self.fetch_config(ctx);
        self.after(ctx, CONFIG_POLL, Work::ConfigPoll);
    }

    // ---- Outgoing RPC plumbing ------------------------------------------

    /// Send a call to `dst` under a 50 ms timer; the request id is the
    /// call's token, which the answer and the timer each claim once.
    fn call(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, m: u16, body: Bytes, call: Call) {
        let timeout = SimDuration::from_millis(50);
        ctx.charge_cpu(RPC_COST.client_send);
        let id = self.calls.defer((dst, call));
        let req = rpc::Request {
            version: rpc::PROTOCOL_VERSION,
            method: m,
            id,
            auth: 0xBAC0,
            deadline_ns: ctx.now().nanos() + timeout.nanos(),
            body,
        };
        let wire = rpc::encode_request_in(&req, &self.pool);
        ctx.metrics().add_id(self.m().rpc_bytes, wire.len() as u64);
        ctx.send(dst, wire);
        ctx.set_timer(timeout, id);
    }

    /// The answer to `call` from `peer` (`Internal` when its timer fired).
    fn on_answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: NodeId,
        call: Call,
        status: Status,
        body: Bytes,
    ) {
        ctx.charge_cpu(RPC_COST.client_recv);
        match call {
            Call::Scan(scan) => {
                let (ok, peer) = (status == Status::Ok, peer.0);
                let steps = match ok.then(|| messages::ScanPage::decode(body)).flatten() {
                    Some(page) => {
                        let config = self.config.as_ref().expect("a scan runs under a config");
                        let store = &self.store;
                        let live = |hash| {
                            store
                                .lookup(hash)
                                .map_or(VersionNumber::ZERO, |e| e.2.version)
                        };
                        let pairs = || store.scan_all_pairs();
                        self.repair.page(scan, peer, page, config, pairs, live)
                    }
                    // Peer unreachable or the page garbled.
                    None => self.repair.page_failed(scan, peer),
                };
                if steps.is_empty() {
                    ctx.metrics().add_id(self.m().stale_scan_pages, 1);
                }
                self.repair_steps(ctx, steps);
            }
            Call::Fetch if status == Status::Ok => {
                // Fabric bytes spent on peer repair (the quantity warm
                // restart shrinks to the un-fsynced delta).
                ctx.metrics()
                    .add_id(self.m().recovery_bytes, body.len() as u64);
                if let Some(r) = messages::GetResp::decode(body) {
                    let hash = self.hasher.hash(&r.key);
                    if self.apply(ctx, &r.key, hash, Some(&r.value[..]), r.version) == Status::Ok {
                        ctx.metrics().add_id(self.m().recovered_entries, 1);
                    }
                }
            }
            // A failed chunk aborts (a later PREPARE_MAINTENANCE can try
            // another spare).
            Call::Chunk if status == Status::Ok => self.step_handoff(ctx, Handoff::chunk_acked),
            Call::Chunk => self.step_handoff(ctx, Handoff::chunk_failed),
            Call::Publish => self.step_handoff(ctx, Handoff::published),
            Call::Config(purpose) if status == Status::Ok => {
                let Some(config) = CellConfig::decode(body) else {
                    return;
                };
                match purpose {
                    ConfigFor::Handoff => {
                        let shard = self.store.shard();
                        self.step_handoff(ctx, |h| h.config(config, shard));
                    }
                    ConfigFor::Scan => {
                        let me = ctx.self_id().0;
                        let steps = self.repair.config(&config, self.store.shard(), me);
                        self.config = Some(config);
                        self.repair_steps(ctx, steps);
                    }
                    ConfigFor::Poll => {
                        if config.config_id > self.store.config_id() {
                            ctx.metrics().add_id(self.m().config_adoptions, 1);
                            self.store.set_config_id(config.config_id);
                        }
                        self.config = Some(config);
                    }
                }
            }
            Call::Fetch | Call::Repair | Call::Config(_) => {}
        }
    }
}

impl Node for BackendNode {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                self.mids = Some(BackendMetricIds::resolve(ctx.metrics()));
                self.pool = ctx.pool();
                self.after(ctx, self.cfg.reshape_check, Work::ReshapeCheck);
                if let Some(interval) = self.cfg.scan_interval {
                    self.after(ctx, interval, Work::ScanTick);
                }
                if let Some(interval) = self.wal.as_ref().map(|w| w.cfg.trickle_interval) {
                    let devices = ctx.device_enabled();
                    assert!(devices, "durable backend requires Sim::enable_devices");
                    // Warm restart: replay local media first, so the Pull
                    // scan below only delta-repairs the un-fsynced tail.
                    self.wal_replay(ctx);
                    self.after(ctx, interval, Work::WalTrickleTick);
                }
                if self.recover {
                    let step = self.repair.begin(repair::Mode::Pull);
                    self.repair_steps(ctx, [step]);
                }
                self.after(ctx, CONFIG_POLL, Work::ConfigPoll);
                if let Some(epoch) = self.cfg.hot_repl.as_ref().map(|h| h.epoch) {
                    self.after(ctx, epoch, Work::HotEpoch);
                }
            }
            Event::Frame(frame) => {
                let src = frame.src;
                // Gray-failure gate (CPU-dead window): every process on the
                // host is frozen, so RPC traffic — requests *and* responses,
                // which need a server thread to look at them — falls on the
                // floor until heal. RMA survives iff the transport's serving
                // path is NIC hardware ([`Transport::cpu_independent`]):
                // the paper's RMA read window keeps answering GETs while
                // the host is otherwise unresponsive. (Timers still fire:
                // the coarse model freezes only frame intake, which is
                // where the protocol-visible divergence lives.)
                let cpu_dead = ctx.host_cpu_dead();
                self.cur_trace = frame.trace;
                if let Some(env) = rma::decode(frame.payload.clone()) {
                    if cpu_dead && !self.transport.cpu_independent() {
                        ctx.metrics().add_id(self.m().rma_dropped_cpu_dead, 1);
                    } else {
                        self.on_rma(ctx, src, env);
                    }
                } else if cpu_dead {
                    ctx.metrics().add_id(self.m().rpc_dropped_cpu_dead, 1);
                } else {
                    match rpc::decode(frame.payload) {
                        Some(rpc::Envelope::Request(req)) => self.on_rpc_request(ctx, src, req),
                        Some(rpc::Envelope::Response(resp)) => {
                            if let Some((peer, call)) = self.calls.take(resp.id) {
                                self.on_answer(ctx, peer, call, resp.status, resp.body);
                            }
                        }
                        None => {}
                    }
                }
                self.cur_trace = 0;
            }
            Event::Timer(token) | Event::CpuDone(token) => {
                if let Some(Dispatch { src, req, trace }) = self.dispatches.take(token) {
                    self.cur_trace = trace;
                    self.dispatch(ctx, src, req);
                    self.cur_trace = 0;
                } else if let Some(work) = self.work.take(token) {
                    match work {
                        Work::SetChunk {
                            src,
                            req_id,
                            prepared,
                            written,
                            trace,
                        } => {
                            self.cur_trace = trace;
                            self.write_chunks(ctx, src, req_id, prepared, written);
                            self.cur_trace = 0;
                        }
                        Work::ReshapeCheck => self.reshape_check(ctx),
                        Work::FinishResize => {
                            self.store.finish_index_resize();
                            ctx.metrics().add_id(self.m().index_resizes_done, 1);
                        }
                        Work::GrowData => {
                            self.growth_pending = false;
                            if self.store.needs_data_growth() {
                                self.store.grow_data();
                                ctx.metrics().add_id(self.m().data_growths, 1);
                            }
                        }
                        Work::ScanTick => self.scan_tick(ctx),
                        Work::GraceExpired => self.step_handoff(ctx, Handoff::grace_expired),
                        Work::ConfigPoll => self.config_poll(ctx),
                        Work::HotEpoch => self.on_hot_epoch(ctx),
                        Work::WalCommitDone => self.on_wal_commit_done(ctx),
                        Work::WalTrickleTick => self.on_wal_trickle_tick(ctx),
                        Work::WalTrickleDone => self.on_wal_trickle_done(ctx),
                    }
                } else if let Some((peer, call)) = self.calls.take(token) {
                    ctx.metrics().add_id(self.m().rpc_timeouts, 1);
                    // A failed answer, so the scan and handoff cores advance
                    // rather than stall.
                    self.on_answer(ctx, peer, call, Status::Internal, Bytes::new());
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("backend[shard={}]", self.store.shard())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::hash::DefaultHasher;
    use crate::messages::{Geometry, GetReq, GetResp, SetReq};
    use crate::version::VersionNumber;
    use simnet::{FabricCfg, HostCfg, Sim};

    /// A minimal RPC probe: sends scripted requests (request `i` under id
    /// `i`), records responses.
    struct Probe {
        target: NodeId,
        script: Vec<(u16, Bytes)>,
        /// (method, status, body) per completed call, in completion order.
        responses: Vec<(u16, Status, Bytes)>,
    }

    impl Probe {
        fn new(target: NodeId, script: Vec<(u16, Bytes)>) -> Probe {
            Probe {
                target,
                script,
                responses: Vec::new(),
            }
        }
    }

    impl Node for Probe {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => {
                    for (i, (method, body)) in self.script.clone().into_iter().enumerate() {
                        let req = rpc::Request {
                            version: rpc::PROTOCOL_VERSION,
                            method,
                            id: i as u64,
                            auth: 1,
                            deadline_ns: u64::MAX,
                            body,
                        };
                        ctx.send(self.target, rpc::encode_request(&req));
                    }
                }
                Event::Frame(frame) => {
                    if let Some(rpc::Envelope::Response(resp)) = rpc::decode(frame.payload) {
                        let method = self.script[resp.id as usize].0;
                        self.responses.push((method, resp.status, resp.body));
                    }
                }
                _ => {}
            }
        }
    }

    /// A backend of its own cell: shard 0, a private Pony engine pool, no
    /// config store.
    fn backend_sim(cfg: BackendCfg, durable: Option<DurableCfg>) -> (Sim, NodeId) {
        let mut sim = Sim::new(FabricCfg::default(), 7);
        let bh = sim.add_host(HostCfg::default().no_cstates());
        let me = BackendIdentity {
            shard: Some(0),
            config_store: None,
            transport: Transport::pony(rma::PonyCfg::default()),
            durable,
            hasher: Arc::new(DefaultHasher),
            recover: false,
            history: Tap::default(),
        };
        let backend = sim.add_node(bh, Box::new(BackendNode::new(cfg, me)));
        (sim, backend)
    }

    /// Add a probe on host `ph` that sends `script` to `backend`, run the
    /// sim for `ms` milliseconds, and return the probe's responses.
    fn probe(
        sim: &mut Sim,
        ph: simnet::HostId,
        backend: NodeId,
        script: Vec<(u16, Bytes)>,
        ms: u64,
    ) -> Vec<(u16, Status, Bytes)> {
        let probe = sim.add_node(ph, Box::new(Probe::new(backend, script)));
        sim.run_for(SimDuration::from_millis(ms));
        sim.with_node::<Probe, _>(probe, |p| p.responses.clone())
            .unwrap()
    }

    fn probe_run(cfg: BackendCfg, script: Vec<(u16, Bytes)>) -> Vec<(u16, Status, Bytes)> {
        let (mut sim, backend) = backend_sim(cfg, None);
        let ph = sim.add_host(HostCfg::default().no_cstates());
        probe(&mut sim, ph, backend, script, 50)
    }

    fn v(n: u64) -> VersionNumber {
        VersionNumber::new(n, 1, 1)
    }

    #[test]
    fn connect_returns_geometry() {
        let responses = probe_run(BackendCfg::default(), vec![(method::CONNECT, Bytes::new())]);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1, Status::Ok);
        let g = Geometry::decode(responses[0].2.clone()).unwrap();
        assert_eq!(g.num_buckets, StoreCfg::default().num_buckets);
        assert_eq!(g.assoc, StoreCfg::default().assoc);
    }

    #[test]
    fn set_then_get_rpc_roundtrip() {
        let set = SetReq {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"value"),
            version: v(1),
        };
        let get = GetReq {
            key: Bytes::from_static(b"k"),
        };
        // Requests are issued concurrently; the SET's chunked write keeps
        // it in flight past the GET's dispatch, so run two probes serially
        // instead: set first, then get.
        let (mut sim, backend) = backend_sim(BackendCfg::default(), None);
        let ph = sim.add_host(HostCfg::default().no_cstates());
        let r1 = probe(&mut sim, ph, backend, vec![(method::SET, set.encode())], 20);
        assert_eq!(r1[0].1, Status::Ok);
        let get = vec![(method::GET_RPC, get.encode_in(&Pool::new()))];
        let r2 = probe(&mut sim, ph, backend, get, 20);
        assert_eq!(r2[0].1, Status::Ok);
        let resp = GetResp::decode(r2[0].2.clone()).unwrap();
        assert_eq!(&resp.value[..], b"value");
        assert_eq!(resp.version, v(1));
    }

    #[test]
    fn msg_get_is_cheaper_than_full_rpc() {
        // Same lookup via MSG vs GET_RPC: the lean path must respond much
        // faster (less dispatch CPU).
        let set = SetReq {
            key: Bytes::from_static(b"m"),
            value: Bytes::from_static(b"x"),
            version: v(1),
        };
        let (mut sim, backend) = backend_sim(BackendCfg::default(), None);
        let ph = sim.add_host(HostCfg::default().no_cstates());
        probe(&mut sim, ph, backend, vec![(method::SET, set.encode())], 20);
        let get = GetReq {
            key: Bytes::from_static(b"m"),
        }
        .encode_in(&Pool::new());
        // Backend-host CPU a probe running `method` costs.
        let mut cpu_of = |method| {
            let before = sim.host(simnet::HostId(0)).cpu_busy_ns;
            let r = probe(&mut sim, ph, backend, vec![(method, get.clone())], 20);
            assert_eq!(r[0].1, Status::Ok);
            sim.host(simnet::HostId(0)).cpu_busy_ns - before
        };
        let msg_cpu = cpu_of(method::MSG_GET);
        let full_cpu = cpu_of(method::GET_RPC);
        assert!(
            full_cpu > msg_cpu * 5,
            "full RPC {full_cpu}ns vs MSG {msg_cpu}ns"
        );
    }

    #[test]
    fn version_rejected_surface_via_rpc() {
        let hi = SetReq {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v10"),
            version: v(10),
        };
        let (mut sim, backend) = backend_sim(BackendCfg::default(), None);
        let ph = sim.add_host(HostCfg::default().no_cstates());
        probe(&mut sim, ph, backend, vec![(method::SET, hi.encode())], 20);
        let lo = SetReq {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v5"),
            version: v(5),
        };
        let r = probe(&mut sim, ph, backend, vec![(method::SET, lo.encode())], 20);
        assert_eq!(r[0].1, Status::VersionRejected);
    }

    #[test]
    fn ancient_protocol_version_rejected() {
        let (mut sim, backend) = backend_sim(BackendCfg::default(), None);
        let ph = sim.add_host(HostCfg::default().no_cstates());
        // Hand-roll a request with protocol version 0.
        struct OldClient {
            target: NodeId,
            status: Option<Status>,
        }
        impl Node for OldClient {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Start => {
                        let req = rpc::Request {
                            version: 0,
                            method: method::CONNECT,
                            id: 1,
                            auth: 0,
                            deadline_ns: u64::MAX,
                            body: Bytes::new(),
                        };
                        ctx.send(self.target, rpc::encode_request(&req));
                    }
                    Event::Frame(f) => {
                        if let Some(rpc::Envelope::Response(r)) = rpc::decode(f.payload) {
                            self.status = Some(r.status);
                        }
                    }
                    _ => {}
                }
            }
        }
        let c = sim.add_node(
            ph,
            Box::new(OldClient {
                target: backend,
                status: None,
            }),
        );
        sim.run_for(SimDuration::from_millis(20));
        let status = sim.with_node::<OldClient, _>(c, |n| n.status).unwrap();
        assert_eq!(status, Some(Status::ProtocolMismatch));
    }

    /// Floods a backend with `flood` GET_RPCs, then sends one RMA read of
    /// `read` and one SET, resending the SET for as long as it is shed.
    struct Flood {
        target: NodeId,
        flood: u64,
        read: rma::ReadReq,
        set: Bytes,
        /// Status of every flood response.
        flood_statuses: Vec<Status>,
        read_status: Option<rma::RmaStatus>,
        set_status: Option<Status>,
    }

    impl Flood {
        const SET_ID: u64 = 0;

        fn request(method: u16, id: u64, body: Bytes) -> Bytes {
            rpc::encode_request(&rpc::Request {
                version: rpc::PROTOCOL_VERSION,
                method,
                id,
                auth: 0,
                deadline_ns: u64::MAX,
                body,
            })
        }
    }

    impl Node for Flood {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => {
                    let get = GetReq {
                        key: Bytes::from_static(b"absent"),
                    }
                    .encode_in(&Pool::new());
                    for id in 1..=self.flood {
                        ctx.send(
                            self.target,
                            Flood::request(method::GET_RPC, id, get.clone()),
                        );
                    }
                    let read = rma::codec::encode_read_req_in(&self.read, &Pool::new());
                    ctx.send(self.target, read);
                    let set = Flood::request(method::SET, Flood::SET_ID, self.set.clone());
                    ctx.send(self.target, set);
                }
                Event::Frame(frame) => {
                    if let Some(RmaEnvelope::ReadResp(r)) = rma::decode(frame.payload.clone()) {
                        self.read_status = Some(r.status);
                    } else if let Some(rpc::Envelope::Response(r)) = rpc::decode(frame.payload) {
                        if r.id != Flood::SET_ID {
                            self.flood_statuses.push(r.status);
                        } else if r.status == Status::Overloaded {
                            let set = Flood::request(method::SET, Flood::SET_ID, self.set.clone());
                            ctx.send(self.target, set);
                        } else {
                            self.set_status = Some(r.status);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn full_rpc_intake_leaves_rma_and_wal_continuations_running() {
        // 70,000 RPCs in one burst fill the 65,536 dispatch slots. An RMA
        // read's response timer, a SET's chunk write, its WAL commit and
        // the trickle ticks are the backend's own continuations: none of
        // them may wait on (or trip over) the full RPC intake.
        let media = Rc::new(RefCell::new(durable::Media::default()));
        let durable = DurableCfg::new(media.clone());
        let (mut sim, backend) = backend_sim(BackendCfg::default(), Some(durable));
        sim.enable_devices(simnet::DeviceCfg::default());
        let g = sim
            .with_node::<BackendNode, _>(backend, |b| b.store().geometry())
            .unwrap();
        let set = SetReq {
            key: Bytes::from_static(b"durable"),
            value: Bytes::from_static(b"value"),
            version: v(1),
        };
        let flood = Flood {
            target: backend,
            flood: 70_000,
            read: rma::ReadReq {
                op_id: 1,
                window: g.index_window,
                generation: g.index_generation,
                offset: 0,
                len: 64,
            },
            set: set.encode(),
            flood_statuses: Vec::new(),
            read_status: None,
            set_status: None,
        };
        let ph = sim.add_host(HostCfg::default().no_cstates());
        let probe = sim.add_node(ph, Box::new(flood));
        sim.run_for(SimDuration::from_secs(2));
        let (statuses, read, set) = sim
            .with_node::<Flood, _>(probe, |p| {
                (p.flood_statuses.clone(), p.read_status, p.set_status)
            })
            .unwrap();
        let count = |status| statuses.iter().filter(|&&s| s == status).count();
        let (served, shed) = (count(Status::NotFound), count(Status::Overloaded));
        assert_eq!(served + shed, 70_000);
        assert!(
            served >= 1 << 16 && shed > 0,
            "{served} served, {shed} shed"
        );
        assert_eq!(read, Some(rma::RmaStatus::Ok));
        assert_eq!(set, Some(Status::Ok));
        let recovered = media.borrow().recover().records;
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].key, b"durable");
    }

    #[test]
    fn access_records_steer_eviction() {
        // Fill a tiny store, touch one key via ACCESS_RECORDS, then force
        // evictions: the touched key must survive.
        let mut cfg = BackendCfg::default();
        cfg.store.num_buckets = 64;
        cfg.store.data_capacity = 16 << 10;
        cfg.store.max_data_capacity = 16 << 10;
        cfg.store.slab_bytes = 4 << 10;
        let (mut sim, backend) = backend_sim(cfg, None);
        let ph = sim.add_host(HostCfg::default().no_cstates());
        let hasher = DefaultHasher;
        // Install 8 keys of 1.5KB (capacity ~10 slots of 2K).
        for i in 0..6u32 {
            let set = SetReq {
                key: Bytes::from(format!("key{i}")),
                value: Bytes::from(vec![0u8; 1500]),
                version: v(i as u64 + 1),
            };
            probe(&mut sim, ph, backend, vec![(method::SET, set.encode())], 5);
        }
        // Touch key0 (otherwise the LRU victim).
        let touch = messages::AccessRecords {
            hashes: vec![hasher.hash(b"key0")],
        };
        let touch = vec![(method::ACCESS_RECORDS, touch.encode_in(&Pool::new()))];
        probe(&mut sim, ph, backend, touch, 5);
        // Insert more until evictions occur.
        for i in 10..14u32 {
            let set = SetReq {
                key: Bytes::from(format!("key{i}")),
                value: Bytes::from(vec![0u8; 1500]),
                version: v(i as u64 + 1),
            };
            probe(&mut sim, ph, backend, vec![(method::SET, set.encode())], 5);
        }
        let (key0_alive, key1_alive, evictions) = sim
            .with_node::<BackendNode, _>(backend, |b| {
                (
                    b.store().fetch(hasher.hash(b"key0")).is_some()
                        || b.store().lookup(hasher.hash(b"key0")).is_some(),
                    b.store().lookup(hasher.hash(b"key1")).is_some(),
                    b.store().stats.evictions,
                )
            })
            .unwrap();
        assert!(evictions > 0, "no eviction pressure");
        assert!(key0_alive, "touched key was evicted");
        let _ = key1_alive; // key1 may or may not have been the victim
    }
}
