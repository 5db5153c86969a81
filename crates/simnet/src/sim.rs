//! The discrete-event simulation engine.
//!
//! [`Sim`] owns the clock, the event queue, all hosts and nodes, the fabric
//! configuration, a deterministic RNG, and the metrics registry. Nodes act
//! on the world exclusively through [`Ctx`], so every state change flows
//! through the (totally ordered) event queue and two runs with the same seed
//! are bit-identical.

use std::collections::VecDeque;

use bytes::{Bytes, Pool};

use crate::device::{DeviceCfg, DeviceStats, Devices};
use crate::fault::{Fault, FaultPlan, FaultState};
use crate::host::{HostCfg, HostId, HostStats, Hosts, NodeId};
use crate::node::{Event, Frame, Node};
use crate::queue::CalendarQueue;
use crate::rng::SimRng;
use crate::stats::Metrics;
use crate::time::{SimDuration, SimTime};
use crate::truetime::{TrueTime, TrueTimestamp};

/// Fabric-wide configuration: propagation latency, jitter, framing overhead.
#[derive(Debug, Clone)]
pub struct FabricCfg {
    /// One-way propagation + switching latency between distinct hosts.
    pub base_latency: SimDuration,
    /// Maximum additional uniform jitter per frame.
    pub jitter: SimDuration,
}

/// Delivery latency between co-located nodes (kernel loopback / IPC).
const LOOPBACK_LATENCY: SimDuration = SimDuration::from_micros(1);

/// Maximum transmission unit; larger payloads pay per-packet headers. The
/// paper's testbed uses a 5KB MTU so a 4KB value + framing fits in one
/// frame.
const MTU: u64 = 5_000;

/// Per-packet header overhead in bytes (Ethernet + IP + transport).
const HEADER_BYTES: u64 = 66;

impl Default for FabricCfg {
    fn default() -> Self {
        // Base fabric RTT in modern datacenters is a few µs.
        FabricCfg {
            base_latency: SimDuration::from_micros(2),
            jitter: SimDuration::from_nanos(300),
        }
    }
}

impl FabricCfg {
    /// Bytes charged on the wire for a payload of `len` bytes, including
    /// per-packet headers for each MTU-sized packet.
    pub fn wire_size(&self, len: usize) -> u64 {
        let len = len as u64;
        let packets = len.div_ceil(MTU).max(1);
        len + packets * HEADER_BYTES
    }
}

#[derive(Debug)]
enum Pending {
    /// Deliver an event to a node (already past fabric + NIC queues).
    /// `incarnation` is the incarnation the event was addressed to: stale
    /// events (frames sent to, or timers set by, a previous incarnation)
    /// are dropped as `simnet.dropped_stale`.
    Deliver {
        dst: NodeId,
        incarnation: u32,
        ev: Event,
    },
    /// Frame reached the destination host; contend for its RX link.
    /// `incarnation` was captured when the frame was put on the wire — a
    /// restart while the frame is in flight must not deliver it to the new
    /// incarnation.
    RxArrive { frame: Frame, incarnation: u32 },
    /// A delayed send ([`Ctx::send_after`]) is due: put `frame` on the wire
    /// from its sender, unless the sender has died or restarted since.
    /// `incarnation` is the sender's at the call, checked the way a timer's
    /// [`Pending::Deliver`] is; the sender's node is never called.
    SendAt { frame: Frame, incarnation: u32 },
    /// A scheduled fault-plan action (crash or reviver-driven restart).
    FaultAt(FaultAction),
}

// One arena slot's payload; a delayed send is the size of a frame in
// flight, so holding it here costs the queue nothing per slot.
const _: () = assert!(std::mem::size_of::<Pending>() == 80);

/// Node-level fault actions compiled out of a [`FaultPlan`].
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Crash(NodeId),
    Restart(NodeId),
}

/// Hot per-node fields, split off from the boxed node object and the
/// (cold) clock skew so the dispatch and send paths touch a 12-byte
/// record: at 10K nodes the whole table is ~120KB and mostly
/// cache-resident, where the former array-of-structs row dragged the
/// `Box<dyn Node>` fat pointer and skew along on every liveness check.
#[derive(Clone, Copy)]
struct NodeMeta {
    host: HostId,
    incarnation: u32,
    alive: bool,
}

/// The simulation world.
pub struct Sim {
    now: SimTime,
    seq: u64,
    events: u64,
    /// The sharded calendar queue: near-horizon time buckets with an
    /// overflow heap for the far tail, popping in exact `(at, seq)` order;
    /// each event's `Pending` lives in a slot of its one arena.
    queue: CalendarQueue<Pending>,
    /// Same-timestamp fast path: events scheduled for exactly `now` while
    /// the queue provably holds nothing at `now` bypass it entirely. They
    /// run before anything queued (which is strictly later) in insertion
    /// (= seq) order, so total order is unchanged.
    fifo: VecDeque<Pending>,
    hosts: Hosts,
    /// The frame-buffer pool every host encodes through: a buffer freed on
    /// one host is the next one any host acquires.
    pool: Pool,
    /// Hot per-node fields (host, incarnation, liveness), SoA with...
    node_meta: Vec<NodeMeta>,
    /// ...the boxed node objects, touched only to dispatch, and...
    node_objs: Vec<Option<Box<dyn Node>>>,
    /// ...the cold per-node clock skews (TrueTime reads only).
    node_skew: Vec<i64>,
    /// High-water mark of total queued events (fifo + calendar queue).
    queue_high_water: usize,
    fabric: FabricCfg,
    rng: SimRng,
    metrics: Metrics,
    mids: SimMetricIds,
    truetime: TrueTime,
    /// Compiled fault plan, if one is installed. `None` (the default) makes
    /// every fault hook a single branch — a simulation without a plan is
    /// byte-identical to one built before fault injection existed.
    fault: Option<Box<FaultState>>,
    /// Trace recorder, if tracing is enabled. Mirrors the fault layer's
    /// contract: `None` (the default) makes every trace hook a single
    /// branch, draws no randomness, and schedules nothing — a simulation
    /// without a recorder is byte-identical to one built before the obs
    /// subsystem existed.
    obs: Option<Box<obs::Recorder>>,
    /// Per-host timed storage devices, if durability is enabled. Same
    /// contract as the fault/obs layers: `None` (the default) means device
    /// ops are unreachable, no branch on any hot path, no RNG draws, and
    /// the schedule is byte-identical to a build without the layer.
    devices: Option<Box<Devices>>,
    /// Builds the replacement node when a scheduled `Restart` fires.
    #[allow(clippy::type_complexity)]
    fault_reviver: Option<Box<dyn FnMut(NodeId) -> Option<Box<dyn Node>>>>,
}

crate::metric_ids! {
    /// Interned handles for the engine's own counters, resolved at
    /// construction so the dispatch loop never touches a metric name.
    struct SimMetricIds {
        dropped_dead: "simnet.dropped_dead",
        dropped_stale: "simnet.dropped_stale",
        cstate_exits: "simnet.cstate_exits",
    }
}

impl Sim {
    /// Create a simulation with the given fabric and RNG seed.
    pub fn new(fabric: FabricCfg, seed: u64) -> Sim {
        let mut metrics = Metrics::new();
        let mids = SimMetricIds::resolve(&mut metrics);
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            events: 0,
            queue: CalendarQueue::new(),
            fifo: VecDeque::new(),
            hosts: Hosts::new(),
            pool: Pool::new(),
            node_meta: Vec::new(),
            node_objs: Vec::new(),
            node_skew: Vec::new(),
            queue_high_water: 0,
            fabric,
            rng: SimRng::new(seed),
            metrics,
            mids,
            truetime: TrueTime::default(),
            fault: None,
            fault_reviver: None,
            obs: None,
            devices: None,
        }
    }

    /// Give every host a timed storage device following `cfg`. Device ops
    /// ([`Ctx::device_write`], [`Ctx::device_fsync`], [`Ctx::device_commit`])
    /// panic unless this has been called — durability is opt-in per cell,
    /// and an unconfigured device op is a wiring bug, not a soft error.
    pub fn enable_devices(&mut self, cfg: DeviceCfg) {
        self.devices = Some(Box::new(Devices::new(cfg)));
    }

    /// Whether storage devices are enabled.
    pub fn devices_enabled(&self) -> bool {
        self.devices.is_some()
    }

    /// Device counters for `host` (zeros when devices are disabled or the
    /// host never touched its device).
    pub fn device_stats(&self, host: HostId) -> DeviceStats {
        match self.devices.as_deref() {
            Some(d) => d.stats(host.0 as usize),
            None => DeviceStats::default(),
        }
    }

    /// Enable per-op tracing: install a flight recorder with the default
    /// per-host ring capacity. Nodes observe this via
    /// [`Ctx::tracing`] and start stamping frames/CPU work with trace ids;
    /// with tracing off all of that is skipped entirely.
    pub fn enable_tracing(&mut self) {
        self.obs = Some(Box::new(obs::Recorder::new()));
    }

    /// Drain every completed (closed) trace from the flight recorder.
    /// Returns an empty vec when tracing is disabled. Events of still-open
    /// traces are retained until they close or exceed the recorder's
    /// retention window (late sub-op timeouts of already-drained ops).
    pub fn drain_traces(&mut self) -> Vec<obs::OpTrace> {
        let now = self.now.nanos();
        match self.obs.as_mut() {
            Some(r) => r.drain_completed(now, obs::recorder::DEFAULT_RETENTION_NS),
            None => Vec::new(),
        }
    }

    /// Recorder statistics (None when tracing is disabled).
    pub fn recorder(&self) -> Option<&obs::Recorder> {
        self.obs.as_deref()
    }

    /// Install (compile and arm) a fault plan. Link and CPU faults become
    /// interval queries on the frame-delivery and CPU-admission paths;
    /// crash/restart events are scheduled into the event queue (times
    /// already in the past fire immediately). Fault randomness comes from a
    /// dedicated RNG stream forked off the simulation RNG and folded with
    /// `plan.seed`, so a given (simulation seed, plan) is bit-reproducible
    /// and fault draws never perturb workload randomness.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let stream = SimRng::new(self.rng.fork().next_u64() ^ plan.seed);
        let state = FaultState::compile(plan, stream, &mut self.metrics);
        self.fault = Some(Box::new(state));
        for e in &plan.events {
            match e.fault {
                Fault::Crash { node } => {
                    self.schedule(
                        e.at.max(self.now),
                        Pending::FaultAt(FaultAction::Crash(node)),
                    );
                    if e.heal_at > e.at {
                        self.schedule(e.heal_at, Pending::FaultAt(FaultAction::Restart(node)));
                    }
                }
                Fault::Restart { node } => {
                    self.schedule(
                        e.at.max(self.now),
                        Pending::FaultAt(FaultAction::Restart(node)),
                    );
                }
                _ => {}
            }
        }
    }

    /// Install the closure that builds replacement nodes for scheduled
    /// [`Fault::Restart`] (and healing [`Fault::Crash`]) events. Returning
    /// `None` skips the restart. Without a reviver, restarts are no-ops.
    pub fn set_fault_reviver(&mut self, f: impl FnMut(NodeId) -> Option<Box<dyn Node>> + 'static) {
        self.fault_reviver = Some(Box::new(f));
    }

    /// Whether a fault plan is currently installed.
    pub fn fault_plan_installed(&self) -> bool {
        self.fault.is_some()
    }

    /// Fault-adjusted CPU submission: a CPU-dead host queues work until the
    /// window heals, a straggler host scales its execution time.
    fn cpu_fault_adjust(&mut self, now: SimTime, host: HostId) -> (SimTime, f64) {
        match self.fault.as_deref() {
            None => (now, 1.0),
            Some(f) => {
                let submit = match f.cpu_dead_until(now, host) {
                    Some(until) => {
                        self.metrics.add_id(f.mids.cpu_stalls, 1);
                        until
                    }
                    None => now,
                };
                (submit, f.cpu_scale(submit, host))
            }
        }
    }

    fn apply_fault_action(&mut self, action: FaultAction) {
        match action {
            FaultAction::Crash(node) => {
                if self.node_meta[node.0 as usize].alive {
                    self.crash(node);
                    if let Some(f) = self.fault.as_deref() {
                        self.metrics.add_id(f.mids.crashes, 1);
                    }
                }
            }
            FaultAction::Restart(node) => {
                // Take the reviver out so it can't alias `self` while the
                // revive mutates the node table.
                let mut reviver = self.fault_reviver.take();
                if let Some(build) = reviver.as_mut() {
                    if let Some(fresh) = build(node) {
                        self.revive(node, fresh);
                        if let Some(f) = self.fault.as_deref() {
                            self.metrics.add_id(f.mids.restarts, 1);
                        }
                    }
                }
                self.fault_reviver = reviver;
            }
        }
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, cfg: HostCfg) -> HostId {
        self.hosts.add(cfg)
    }

    /// Add a node on `host`; the node receives [`Event::Start`] at the
    /// current simulation time. Returns its id.
    pub fn add_node(&mut self, host: HostId, node: Box<dyn Node>) -> NodeId {
        assert!((host.0 as usize) < self.hosts.len(), "unknown host {host}");
        let skew = self.truetime.sample_skew(&mut self.rng);
        let id = NodeId(self.node_meta.len() as u32);
        self.node_meta.push(NodeMeta {
            host,
            incarnation: 0,
            alive: true,
        });
        self.node_objs.push(Some(node));
        self.node_skew.push(skew);
        self.schedule(
            self.now,
            Pending::Deliver {
                dst: id,
                incarnation: 0,
                ev: Event::Start,
            },
        );
        id
    }

    /// Mark a node as crashed: pending and future frames/timers to it are
    /// dropped. The node's state is retained for post-mortem inspection.
    pub fn crash(&mut self, id: NodeId) {
        self.node_meta[id.0 as usize].alive = false;
    }

    /// Install a fresh node at an existing id (a process restart on the same
    /// address). Everything addressed to the previous incarnation is
    /// discarded and counted as `simnet.dropped_stale`: timers and CPU
    /// completions it scheduled, **and frames that were already in flight
    /// toward it when it died** — a real restart never receives packets
    /// sent to its predecessor, and delivering them would hand the new
    /// process responses to requests it never made. Frames sent after the
    /// revive are delivered normally.
    pub fn revive(&mut self, id: NodeId, node: Box<dyn Node>) {
        let idx = id.0 as usize;
        self.node_objs[idx] = Some(node);
        let meta = &mut self.node_meta[idx];
        meta.alive = true;
        meta.incarnation += 1;
        let inc = meta.incarnation;
        self.schedule(
            self.now,
            Pending::Deliver {
                dst: id,
                incarnation: inc,
                ev: Event::Start,
            },
        );
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.node_meta[id.0 as usize].alive
    }

    /// Host a node lives on.
    pub fn host_of(&self, id: NodeId) -> HostId {
        self.node_meta[id.0 as usize].host
    }

    /// Snapshot of a host's accounting counters (for harness-side reads).
    pub fn host(&self, id: HostId) -> HostStats {
        self.hosts.stats(id)
    }

    /// Handle to the simulation's frame-buffer pool (harness-side reads of
    /// [`Pool::stats`] / [`Pool::idle_buffers`]).
    pub fn pool(&self) -> Pool {
        self.pool.clone()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of nodes (including crashed ones).
    pub fn node_count(&self) -> usize {
        self.node_meta.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed since construction (perf accounting; one per
    /// [`Sim::step`] that found work).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Metrics registry (harness-side reads and writes).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Run a closure against a node's concrete state (downcast); returns
    /// `None` if the node is of a different type or currently crashed-and-
    /// removed. Used by benchmark harnesses between `run_until` steps.
    pub fn with_node<T: Node, R>(&mut self, id: NodeId, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let node = self.node_objs.get_mut(id.0 as usize)?.as_mut()?;
        let any: &mut dyn std::any::Any = node.as_mut();
        any.downcast_mut::<T>().map(f)
    }

    fn schedule(&mut self, at: SimTime, pending: Pending) {
        let seq = self.seq;
        self.seq += 1;
        // Fast path: an event for *right now* while the calendar queue
        // provably holds nothing at or before `now` skips it. Correctness:
        // every queued entry is then strictly later, and this event's seq
        // is larger than that of any earlier fifo entry, so
        // fifo-before-queue in insertion order is exactly the (at, seq)
        // total order. `none_at_or_before` is conservative (may say `false`
        // when the queue is in fact clear), which only costs the shortcut —
        // the queue itself pops in exact (at, seq) order either way.
        if at == self.now && self.queue.none_at_or_before(self.now.0) {
            self.fifo.push_back(pending);
        } else {
            self.queue.push(at.0, seq, pending);
        }
        let depth = self.queue.len() + self.fifo.len();
        if depth > self.queue_high_water {
            self.queue_high_water = depth;
        }
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        // One binding per branch, so each source moves the payload once.
        let (at, pending);
        if let Some(p) = self.fifo.pop_front() {
            (at, pending) = (self.now, p);
        } else if let Some((t, _seq, p)) = self.queue.pop() {
            (at, pending) = (SimTime(t), p);
        } else {
            return false;
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events += 1;
        match pending {
            Pending::RxArrive { frame, incarnation } => {
                let dst_host = self.node_meta[frame.dst.0 as usize].host;
                // Pre-read the RX link's busy horizon: the gap between
                // arrival and serialization start is queueing, and the
                // tracer wants the two attributed separately.
                let rx_start = at.max(self.hosts.rx_free_at(dst_host));
                let deliver_at = self.hosts.admit_rx(dst_host, at, frame.wire_bytes);
                if frame.trace != 0 {
                    if let Some(rec) = self.obs.as_deref_mut() {
                        let h = dst_host.0;
                        if rx_start > at {
                            rec.record(
                                h as usize,
                                obs::TraceEvent {
                                    trace: frame.trace,
                                    host: h,
                                    stage: obs::stage::QUEUE,
                                    kind: obs::kind::INTERVAL,
                                    t0: at.nanos(),
                                    t1: rx_start.nanos(),
                                    aux: frame.wire_bytes,
                                },
                            );
                        }
                        rec.record(
                            h as usize,
                            obs::TraceEvent {
                                trace: frame.trace,
                                host: h,
                                stage: obs::stage::SER,
                                kind: obs::kind::INTERVAL,
                                t0: rx_start.nanos(),
                                t1: deliver_at.nanos(),
                                aux: frame.wire_bytes,
                            },
                        );
                    }
                }
                self.schedule(
                    deliver_at,
                    Pending::Deliver {
                        dst: frame.dst,
                        incarnation,
                        ev: Event::Frame(frame),
                    },
                );
            }
            Pending::FaultAt(action) => self.apply_fault_action(action),
            Pending::SendAt { frame, incarnation } => {
                if self.check_live(frame.src, incarnation) {
                    self.transmit(frame);
                }
            }
            Pending::Deliver {
                dst,
                incarnation,
                ev,
            } => {
                if !self.check_live(dst, incarnation) {
                    return true;
                }
                let idx = dst.0 as usize;
                // Take the node out so we can hand the rest of the world to it.
                let mut node = self.node_objs[idx].take().expect("checked above");
                {
                    let mut ctx = Ctx { sim: self, id: dst };
                    node.on_event(ev, &mut ctx);
                }
                // The node may have exited (exit_self) during the event.
                if self.node_objs[idx].is_none() {
                    self.node_objs[idx] = Some(node);
                }
            }
        }
        true
    }

    /// Whether `id` is alive at `incarnation`; if not, counts the event
    /// addressed to (or sent by) it as `simnet.dropped_dead` or
    /// `simnet.dropped_stale`.
    fn check_live(&mut self, id: NodeId, incarnation: u32) -> bool {
        let idx = id.0 as usize;
        let meta = self.node_meta[idx];
        if !meta.alive || self.node_objs[idx].is_none() {
            self.metrics.add_id(self.mids.dropped_dead, 1);
            return false;
        }
        if meta.incarnation != incarnation {
            self.metrics.add_id(self.mids.dropped_stale, 1);
            return false;
        }
        true
    }

    /// Put `frame` (built by [`Ctx`], which checked its destination) on the
    /// wire from its sender: the sender host's TX link,
    /// the fabric (propagation, jitter, the fault layer), then the
    /// destination host's RX link. Co-located nodes use the loopback path.
    fn transmit(&mut self, frame: Frame) {
        let (dst, trace, wire_bytes) = (frame.dst, frame.trace, frame.wire_bytes);
        let src_host = self.node_meta[frame.src.0 as usize].host;
        let dst_host = self.node_meta[dst.0 as usize].host;
        // Capture the destination's incarnation at send time: a frame on
        // the wire is addressed to the process that exists *now*, and must
        // not reach a later incarnation (see [`Sim::revive`]).
        let inc = self.node_meta[dst.0 as usize].incarnation;
        if src_host == dst_host {
            // Loopback (kernel IPC) is below the fault layer's fabric
            // model: link impairments never apply to co-located nodes.
            let at = self.now + LOOPBACK_LATENCY;
            if trace != 0 {
                let (t0, t1) = (self.now.nanos(), at.nanos());
                self.record_trace(src_host, trace, obs::stage::FABRIC, t0, t1, wire_bytes);
            }
            self.schedule(
                at,
                Pending::Deliver {
                    dst,
                    incarnation: inc,
                    ev: Event::Frame(frame),
                },
            );
            return;
        }
        let now = self.now;
        let txq_start = now.max(self.hosts.tx_free_at(src_host));
        let depart = self.hosts.admit_tx(src_host, now, wire_bytes);
        let jitter = SimDuration(self.rng.gen_range(self.fabric.jitter.nanos() + 1));
        let mut arrive = depart + self.fabric.base_latency + jitter;
        if trace != 0 {
            // TX-side queueing (waiting for the NIC) then serialization
            // (the bytes going onto the wire).
            if txq_start > now {
                self.record_trace(
                    src_host,
                    trace,
                    obs::stage::QUEUE,
                    now.nanos(),
                    txq_start.nanos(),
                    wire_bytes,
                );
            }
            self.record_trace(
                src_host,
                trace,
                obs::stage::SER,
                txq_start.nanos(),
                depart.nanos(),
                wire_bytes,
            );
        }
        // Fault layer: the frame has left the NIC (TX was charged), now the
        // fabric decides whether it survives, slows, or forks.
        let fate = self
            .fault
            .as_deref_mut()
            .map(|f| (f.frame_fate(now, src_host, dst_host, wire_bytes), f.mids));
        if let Some((fate, mids)) = fate {
            if fate.drop {
                self.metrics.add_id(mids.frames_dropped, 1);
                // No fabric interval: the frame died on the wire, and the
                // op's eventual retry tier owns the lost time.
                return;
            }
            if fate.extra > SimDuration::ZERO {
                self.metrics.add_id(mids.frames_delayed, 1);
                arrive += fate.extra;
            }
            if let Some(dup_delay) = fate.duplicate {
                self.metrics.add_id(mids.frames_duplicated, 1);
                self.schedule(
                    arrive + dup_delay,
                    Pending::RxArrive {
                        frame: frame.clone(),
                        incarnation: inc,
                    },
                );
            }
        }
        if trace != 0 {
            let (t0, t1) = (depart.nanos(), arrive.nanos());
            self.record_trace(src_host, trace, obs::stage::FABRIC, t0, t1, wire_bytes);
        }
        self.schedule(
            arrive,
            Pending::RxArrive {
                frame,
                incarnation: inc,
            },
        );
    }

    /// Record one INTERVAL event against `host` if tracing is enabled.
    /// Single `Option` check when it isn't.
    fn record_trace(&mut self, host: HostId, trace: u64, stage: u8, t0: u64, t1: u64, aux: u64) {
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.record(
                host.0 as usize,
                obs::TraceEvent {
                    trace,
                    host: host.0,
                    stage,
                    kind: obs::kind::INTERVAL,
                    t0,
                    t1,
                    aux,
                },
            );
        }
    }

    /// Run until the queue drains or the clock passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            if !self.fifo.is_empty() {
                // Fifo events fire at exactly `now`; only run them inside
                // the deadline (`run_until` never rewinds a later clock).
                if self.now > deadline {
                    break;
                }
            } else {
                match self.queue.peek_at() {
                    Some(at) if at <= deadline.0 => {}
                    _ => break,
                }
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// High-water mark of queued events (calendar queue + same-time fifo).
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// Events currently queued (calendar queue + same-time fifo).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.fifo.len()
    }

    /// Idle slots in the calendar queue's event arena: storage a retired
    /// event left for the next one to reuse.
    pub fn pending_pool_len(&self) -> usize {
        self.queue.idle_slots()
    }

    /// Host bytes the event queue holds (calendar queue + same-time fifo),
    /// counted at capacity.
    pub fn queue_reserved_bytes(&self) -> usize {
        self.queue.reserved_bytes() + self.fifo.capacity() * std::mem::size_of::<Pending>()
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Drain the queue completely (bounded by `max_events` as a safety net).
    pub fn run_to_completion(&mut self, max_events: u64) {
        for _ in 0..max_events {
            if !self.step() {
                return;
            }
        }
        panic!("simulation did not quiesce within {max_events} events");
    }

    /// Harness-side RNG fork (e.g. to build workloads off the master seed).
    pub fn fork_rng(&mut self) -> SimRng {
        self.rng.fork()
    }
}

/// A node's handle to the world while it processes an event.
pub struct Ctx<'a> {
    sim: &'a mut Sim,
    id: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// The node currently executing.
    pub fn self_id(&self) -> NodeId {
        self.id
    }

    /// The host this node runs on.
    pub fn self_host(&self) -> HostId {
        self.sim.node_meta[self.id.0 as usize].host
    }

    /// Host of an arbitrary node.
    pub fn host_of(&self, id: NodeId) -> HostId {
        self.sim.node_meta[id.0 as usize].host
    }

    /// Send `payload` to `dst`. The frame contends for this host's TX link,
    /// crosses the fabric (propagation + jitter), then contends for the
    /// destination host's RX link. Co-located nodes use the loopback path.
    pub fn send(&mut self, dst: NodeId, payload: Bytes) {
        let wire = self.sim.fabric.wire_size(payload.len());
        self.send_wire_traced(dst, payload, wire, 0);
    }

    /// Like [`Ctx::send`] but stamping the frame with a trace id so the
    /// recorder attributes its TX queueing / serialization / fabric time.
    pub fn send_traced(&mut self, dst: NodeId, payload: Bytes, trace: u64) {
        let wire = self.sim.fabric.wire_size(payload.len());
        self.send_wire_traced(dst, payload, wire, trace);
    }

    /// The full send path: explicit wire size plus a trace id (0 = untraced).
    /// The trace id rides the frame out-of-band — it never changes wire
    /// size, timing, or any RNG draw, so a traced run's schedule is
    /// identical to an untraced one.
    pub fn send_wire_traced(&mut self, dst: NodeId, payload: Bytes, wire_bytes: u64, trace: u64) {
        let frame = self.frame(dst, payload, wire_bytes, trace);
        self.sim.transmit(frame);
    }

    /// [`Ctx::send_traced`] after `delay`: the frame leaves this node then,
    /// from the event slot a timer set now for `delay` would take. The
    /// simulator holds it meanwhile and never calls this node for it; if
    /// this node has crashed by then it sends nothing (counted as
    /// `simnet.dropped_dead`), and if it has restarted, its predecessor's
    /// send is `simnet.dropped_stale`. A zero delay still waits its turn
    /// behind events already queued for now.
    pub fn send_after(&mut self, delay: SimDuration, dst: NodeId, payload: Bytes, trace: u64) {
        let wire = self.sim.fabric.wire_size(payload.len());
        let frame = self.frame(dst, payload, wire, trace);
        let at = self.sim.now + delay;
        let inc = self.sim.node_meta[self.id.0 as usize].incarnation;
        self.sim.schedule(
            at,
            Pending::SendAt {
                frame,
                incarnation: inc,
            },
        );
    }

    /// A frame from this node.
    fn frame(&self, dst: NodeId, payload: Bytes, wire_bytes: u64, trace: u64) -> Frame {
        assert!(
            (dst.0 as usize) < self.sim.node_meta.len(),
            "unknown node {dst}"
        );
        Frame {
            src: self.id,
            dst,
            payload,
            wire_bytes,
            trace,
        }
    }

    /// Arrange for [`Event::Timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.sim.now + delay;
        let inc = self.sim.node_meta[self.id.0 as usize].incarnation;
        self.sim.schedule(
            at,
            Pending::Deliver {
                dst: self.id,
                incarnation: inc,
                ev: Event::Timer(token),
            },
        );
    }

    /// Whether this simulation has storage devices enabled
    /// ([`Sim::enable_devices`]). Nodes configured for durability may
    /// assert on this at start instead of panicking mid-run.
    pub fn device_enabled(&self) -> bool {
        self.sim.devices.is_some()
    }

    /// Queue a write of `bytes` payload bytes on this node's host device;
    /// [`Event::Timer`] with `token` fires at completion. Returns the
    /// completion time. Like timers, the completion captures the current
    /// incarnation, so a crash between issue and completion fences the
    /// event out — in-flight device ops die with the process.
    ///
    /// Panics if devices are not enabled: durability is opt-in per cell
    /// and calling a device op without the layer is a wiring bug.
    pub fn device_write(&mut self, bytes: u64, token: u64) -> SimTime {
        let host = self.self_host().0 as usize;
        let now = self.sim.now;
        let d = self
            .sim
            .devices
            .as_deref_mut()
            .expect("devices not enabled");
        let done = d.admit_write(host, now, bytes);
        self.complete_device_op(done, token);
        done
    }

    /// Queue an fsync on this node's host device; [`Event::Timer`] with
    /// `token` fires at completion. See [`Ctx::device_write`] for the
    /// fencing and panic contract.
    pub fn device_fsync(&mut self, token: u64) -> SimTime {
        let host = self.self_host().0 as usize;
        let now = self.sim.now;
        let d = self
            .sim
            .devices
            .as_deref_mut()
            .expect("devices not enabled");
        let done = d.admit_fsync(host, now);
        self.complete_device_op(done, token);
        done
    }

    /// Queue a combined write-then-fsync commit of `bytes` payload bytes —
    /// the group-commit primitive: one device transaction, one fsync, the
    /// whole batch durable at completion. [`Event::Timer`] with `token`
    /// fires at completion. See [`Ctx::device_write`] for the fencing and
    /// panic contract.
    pub fn device_commit(&mut self, bytes: u64, token: u64) -> SimTime {
        let host = self.self_host().0 as usize;
        let now = self.sim.now;
        let d = self
            .sim
            .devices
            .as_deref_mut()
            .expect("devices not enabled");
        let done = d.admit_commit(host, now, bytes);
        self.complete_device_op(done, token);
        done
    }

    fn complete_device_op(&mut self, done: SimTime, token: u64) {
        let inc = self.sim.node_meta[self.id.0 as usize].incarnation;
        self.sim.schedule(
            done,
            Pending::Deliver {
                dst: self.id,
                incarnation: inc,
                ev: Event::Timer(token),
            },
        );
    }

    /// Run `work` worth of CPU on this node's host; [`Event::CpuDone`] with
    /// `token` fires when it completes (after queueing for a core and any
    /// C-state exit penalty). Under an installed fault plan, a CPU-dead
    /// host queues the work until its window heals and a straggler host
    /// inflates the execution time.
    pub fn spawn_cpu(&mut self, work: SimDuration, token: u64) {
        self.spawn_cpu_traced(work, token, 0, 0);
    }

    /// Like [`Ctx::spawn_cpu`] but recording the core wait as
    /// [`obs::stage::QUEUE`] and the execution as `stage` (the caller names
    /// which side of the op it is: [`obs::stage::CLIENT_CPU`] or
    /// [`obs::stage::SERVER_CPU`]). `trace == 0` is the untraced fast path.
    pub fn spawn_cpu_traced(&mut self, work: SimDuration, token: u64, trace: u64, stage: u8) {
        let host = self.self_host();
        let now = self.sim.now;
        let (submit, scale) = self.sim.cpu_fault_adjust(now, host);
        let admission = self.sim.hosts.admit_cpu_scaled(host, submit, work, scale);
        if admission.cold_start {
            self.sim.metrics.add_id(self.sim.mids.cstate_exits, 1);
        }
        if trace != 0 {
            if admission.start > now {
                let (t0, t1) = (now.nanos(), admission.start.nanos());
                self.sim
                    .record_trace(host, trace, obs::stage::QUEUE, t0, t1, 0);
            }
            let (t0, t1) = (admission.start.nanos(), admission.done.nanos());
            self.sim.record_trace(host, trace, stage, t0, t1, 0);
        }
        let inc = self.sim.node_meta[self.id.0 as usize].incarnation;
        self.sim.schedule(
            admission.done,
            Pending::Deliver {
                dst: self.id,
                incarnation: inc,
                ev: Event::CpuDone(token),
            },
        );
    }

    /// Charge CPU time on this host without a completion event (background
    /// accounting for costs that don't gate forward progress).
    pub fn charge_cpu(&mut self, work: SimDuration) {
        self.charge_cpu_traced(work, 0, 0);
    }

    /// Like [`Ctx::charge_cpu`] but attributing the execution window to
    /// `stage` on trace `trace` (0 = untraced).
    pub fn charge_cpu_traced(&mut self, work: SimDuration, trace: u64, stage: u8) {
        let host = self.self_host();
        let now = self.sim.now;
        let (submit, scale) = self.sim.cpu_fault_adjust(now, host);
        let admission = self.sim.hosts.admit_cpu_scaled(host, submit, work, scale);
        if trace != 0 {
            if admission.start > now {
                let (t0, t1) = (now.nanos(), admission.start.nanos());
                self.sim
                    .record_trace(host, trace, obs::stage::QUEUE, t0, t1, 0);
            }
            let (t0, t1) = (admission.start.nanos(), admission.done.nanos());
            self.sim.record_trace(host, trace, stage, t0, t1, 0);
        }
    }

    /// Whether tracing is enabled for this run. Nodes check this once per
    /// op to decide whether to allocate a trace id; everything downstream
    /// keys off `trace != 0`.
    pub fn tracing(&self) -> bool {
        self.sim.obs.is_some()
    }

    /// Open a trace: the op's life starts now. `aux` is a caller-defined
    /// op descriptor (e.g. op kind).
    pub fn trace_open(&mut self, trace: u64, aux: u64) {
        if trace == 0 {
            return;
        }
        let host = self.self_host();
        let now = self.sim.now.nanos();
        if let Some(rec) = self.sim.obs.as_deref_mut() {
            rec.record(
                host.0 as usize,
                obs::TraceEvent {
                    trace,
                    host: host.0,
                    stage: 0,
                    kind: obs::kind::OPEN,
                    t0: now,
                    t1: now,
                    aux,
                },
            );
        }
    }

    /// Close a trace with its full `[start, end)` window and an outcome
    /// code. The recorder releases the trace on the next drain.
    pub fn trace_close(&mut self, trace: u64, start: SimTime, end: SimTime, aux: u64) {
        if trace == 0 {
            return;
        }
        let host = self.self_host();
        if let Some(rec) = self.sim.obs.as_deref_mut() {
            rec.record(
                host.0 as usize,
                obs::TraceEvent {
                    trace,
                    host: host.0,
                    stage: 0,
                    kind: obs::kind::CLOSE,
                    t0: start.nanos(),
                    t1: end.nanos(),
                    aux,
                },
            );
        }
    }

    /// Record an arbitrary stage interval on this node's host (protocol
    /// layers annotating costs the engine can't see, e.g. engine occupancy
    /// or retry backoff).
    pub fn trace_interval(&mut self, trace: u64, stage: u8, t0: SimTime, t1: SimTime) {
        if trace == 0 {
            return;
        }
        let host = self.self_host();
        self.sim
            .record_trace(host, trace, stage, t0.nanos(), t1.nanos(), 0);
    }

    /// Record a point annotation (no duration) — e.g. "this sub-op targeted
    /// a CPU-dead replica", with the replica's host in `aux`.
    pub fn trace_mark(&mut self, trace: u64, stage: u8, aux: u64) {
        if trace == 0 {
            return;
        }
        let host = self.self_host();
        let now = self.sim.now.nanos();
        if let Some(rec) = self.sim.obs.as_deref_mut() {
            rec.record(
                host.0 as usize,
                obs::TraceEvent {
                    trace,
                    host: host.0,
                    stage,
                    kind: obs::kind::MARK,
                    t0: now,
                    t1: now,
                    aux,
                },
            );
        }
    }

    /// Whether `node`'s host is currently in a CPU-dead fault window, as
    /// observable by the tracer. Read-only: no RNG draws, no scheduling —
    /// used to annotate (not alter) traced ops.
    pub fn peer_cpu_dead(&self, node: NodeId) -> bool {
        match self.sim.fault.as_deref() {
            Some(f) => {
                let host = self.sim.node_meta[node.0 as usize].host;
                f.host_cpu_dead(self.sim.now, host)
            }
            None => false,
        }
    }

    /// Whether this node's host is currently in a [`Fault::CpuDead`] window
    /// (its CPUs frozen but its memory still remotely readable). Protocol
    /// layers use this to decide which paths survive: hardware RMA reads
    /// do, RPC serving does not.
    pub fn host_cpu_dead(&self) -> bool {
        match self.sim.fault.as_deref() {
            Some(f) => f.host_cpu_dead(self.sim.now, self.self_host()),
            None => false,
        }
    }

    /// The simulation's frame-buffer pool. The returned handle is a cheap
    /// clone sharing the one set of freelists; nodes typically cache it at
    /// [`Event::Start`] and encode outbound frames through it so buffers
    /// recycle once the receiver drops them.
    pub fn pool(&self) -> Pool {
        self.sim.pool.clone()
    }

    /// The deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.sim.rng
    }

    /// Metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.sim.metrics
    }

    /// A TrueTime read as observed by this node (bounded-uncertainty
    /// interval around the true simulation time, offset by this node's
    /// deterministic clock skew).
    pub fn truetime(&mut self) -> TrueTimestamp {
        let skew = self.sim.node_skew[self.id.0 as usize];
        self.sim.truetime.read(self.sim.now, skew)
    }

    /// Terminate this node after the current event (planned exit, e.g. a
    /// backend that has migrated its shard away).
    pub fn exit_self(&mut self) {
        self.sim.node_meta[self.id.0 as usize].alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Echoes every frame back to its sender and counts timer fires.
    struct Echo {
        frames: u64,
        timers: Arc<AtomicU64>,
    }

    impl Node for Echo {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => ctx.set_timer(SimDuration::from_micros(10), 1),
                Event::Frame(f) => {
                    self.frames += 1;
                    if f.src != ctx.self_id() {
                        ctx.send(f.src, f.payload);
                    }
                }
                Event::Timer(_) => {
                    self.timers.fetch_add(1, Ordering::Relaxed);
                }
                Event::CpuDone(_) => {}
            }
        }
    }

    struct Pinger {
        peer: NodeId,
        rtts: Vec<SimDuration>,
        sent_at: SimTime,
    }

    impl Node for Pinger {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => {
                    self.sent_at = ctx.now();
                    ctx.send(self.peer, Bytes::from_static(b"ping"));
                }
                Event::Frame(_) => {
                    self.rtts.push(ctx.now().since(self.sent_at));
                    if self.rtts.len() < 5 {
                        self.sent_at = ctx.now();
                        ctx.send(self.peer, Bytes::from_static(b"ping"));
                    }
                }
                _ => {}
            }
        }
    }

    fn two_host_sim() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(FabricCfg::default(), 1);
        let h1 = sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let h2 = sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let timers = Arc::new(AtomicU64::new(0));
        let echo = sim.add_node(h2, Box::new(Echo { frames: 0, timers }));
        let pinger = sim.add_node(
            h1,
            Box::new(Pinger {
                peer: echo,
                rtts: Vec::new(),
                sent_at: SimTime::ZERO,
            }),
        );
        (sim, pinger, echo)
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut sim, pinger, _) = two_host_sim();
        sim.run_to_completion(1_000_000);
        let rtts = sim
            .with_node::<Pinger, _>(pinger, |p| p.rtts.clone())
            .unwrap();
        assert_eq!(rtts.len(), 5);
        for rtt in &rtts {
            // 2x (2us base + <=0.3us jitter + serialization) — small frames.
            assert!(rtt.nanos() > 4_000, "rtt {rtt}");
            assert!(rtt.nanos() < 8_000, "rtt {rtt}");
        }
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let (mut sim, pinger, _) = two_host_sim();
            let _ = seed;
            sim.run_to_completion(1_000_000);
            sim.with_node::<Pinger, _>(pinger, |p| p.rtts.clone())
                .unwrap()
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn crash_drops_frames() {
        let (mut sim, _pinger, echo) = two_host_sim();
        sim.crash(echo);
        sim.run_to_completion(1_000_000);
        assert!(sim.metrics().counter("simnet.dropped_dead") >= 1);
    }

    #[test]
    fn revive_discards_stale_timers() {
        struct TimerBomb;
        impl Node for TimerBomb {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if matches!(ev, Event::Start) {
                    ctx.set_timer(SimDuration::from_millis(10), 7);
                }
            }
        }
        struct Quiet {
            fired: bool,
        }
        impl Node for Quiet {
            fn on_event(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
                if matches!(ev, Event::Timer(_)) {
                    self.fired = true;
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 3);
        let h = sim.add_host(HostCfg::default());
        let id = sim.add_node(h, Box::new(TimerBomb));
        sim.run_for(SimDuration::from_millis(1));
        sim.crash(id);
        sim.revive(id, Box::new(Quiet { fired: false }));
        sim.run_to_completion(1_000);
        let fired = sim.with_node::<Quiet, _>(id, |q| q.fired).unwrap();
        assert!(!fired, "stale timer leaked into new incarnation");
        assert_eq!(sim.metrics().counter("simnet.dropped_stale"), 1);
    }

    #[test]
    fn revive_drops_in_flight_frames_to_old_incarnation() {
        // A frame already on the wire when its destination restarts must be
        // counted as stale, not delivered to the new incarnation.
        struct Shooter {
            dst: NodeId,
        }
        impl Node for Shooter {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if let Event::Start = ev {
                    ctx.send(self.dst, Bytes::from_static(b"stale"));
                }
            }
        }
        struct Counter {
            frames: u64,
        }
        impl Node for Counter {
            fn on_event(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
                if let Event::Frame(_) = ev {
                    self.frames += 1;
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 21);
        let h1 = sim.add_host(HostCfg::default().no_cstates());
        let h2 = sim.add_host(HostCfg::default().no_cstates());
        let dst = sim.add_node(h2, Box::new(Counter { frames: 0 }));
        sim.add_node(h1, Box::new(Shooter { dst }));
        // The frame takes ~2us of fabric latency; restart the destination
        // while it is still in flight.
        sim.run_for(SimDuration::from_micros(1));
        sim.crash(dst);
        sim.revive(dst, Box::new(Counter { frames: 0 }));
        sim.run_to_completion(1_000);
        let frames = sim.with_node::<Counter, _>(dst, |c| c.frames).unwrap();
        assert_eq!(frames, 0, "in-flight frame leaked into new incarnation");
        assert_eq!(sim.metrics().counter("simnet.dropped_stale"), 1);
        // A frame sent *after* the revive is delivered normally.
        let h3 = sim.add_host(HostCfg::default().no_cstates());
        sim.add_node(h3, Box::new(Shooter { dst }));
        sim.run_to_completion(1_000);
        let frames = sim.with_node::<Counter, _>(dst, |c| c.frames).unwrap();
        assert_eq!(frames, 1);
    }

    #[test]
    fn fault_plan_partition_drops_and_heals() {
        use crate::fault::{Fault, FaultPlan, HostSet};
        // Ping-pong across a symmetric partition window: traffic stops
        // inside the window and resumes after the heal.
        let (mut sim, pinger, _) = two_host_sim();
        let mut plan = FaultPlan::new(5);
        plan.add(
            SimTime::ZERO,
            SimTime(30_000),
            Fault::Partition {
                a: HostSet::one(HostId(0)),
                b: HostSet::one(HostId(1)),
                symmetric: true,
            },
        );
        sim.install_fault_plan(&plan);
        assert!(sim.fault_plan_installed());
        sim.run_for(SimDuration::from_micros(25));
        let before = sim
            .with_node::<Pinger, _>(pinger, |p| p.rtts.len())
            .unwrap();
        assert_eq!(before, 0, "frames crossed an active partition");
        assert!(sim.metrics().counter("simnet.fault.frames_dropped") >= 1);
        // The pinger got no response and has no retry logic, so kick it
        // again after the heal: the same ping-pong now completes.
        sim.with_node::<Pinger, _>(pinger, |p| p.rtts.clear());
        sim.run_until(SimTime(40_000));
        // (No new send after the drop — drive one manually via a fresh
        // pinger on the same hosts to prove the link healed.)
        let echo_host = HostId(1);
        let timers = Arc::new(AtomicU64::new(0));
        let echo2 = sim.add_node(echo_host, Box::new(Echo { frames: 0, timers }));
        let p2 = sim.add_node(
            HostId(0),
            Box::new(Pinger {
                peer: echo2,
                rtts: Vec::new(),
                sent_at: SimTime::ZERO,
            }),
        );
        sim.run_to_completion(1_000_000);
        let rtts = sim.with_node::<Pinger, _>(p2, |p| p.rtts.len()).unwrap();
        assert_eq!(rtts, 5, "partition did not heal");
    }

    #[test]
    fn fault_plan_cpu_dead_defers_work_until_heal() {
        struct OneShot {
            done_at: Option<SimTime>,
        }
        impl Node for OneShot {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Start => ctx.spawn_cpu(SimDuration::from_micros(10), 1),
                    Event::CpuDone(_) => self.done_at = Some(ctx.now()),
                    _ => {}
                }
            }
        }
        use crate::fault::{Fault, FaultPlan, HostSet};
        let mut sim = Sim::new(FabricCfg::default(), 6);
        let h = sim.add_host(HostCfg::default().no_cstates());
        let mut plan = FaultPlan::new(1);
        plan.add(
            SimTime::ZERO,
            SimTime(1_000_000),
            Fault::CpuDead {
                hosts: HostSet::one(h),
            },
        );
        sim.install_fault_plan(&plan);
        let id = sim.add_node(h, Box::new(OneShot { done_at: None }));
        sim.run_to_completion(1_000);
        let done_at = sim
            .with_node::<OneShot, _>(id, |n| n.done_at)
            .unwrap()
            .expect("work completed");
        // 10us of work submitted into a dead window ending at 1ms: it runs
        // only after the heal.
        assert_eq!(done_at, SimTime(1_010_000));
        assert!(sim.metrics().counter("simnet.fault.cpu_stalls") >= 1);
    }

    #[test]
    fn fault_plan_crash_and_reviver_restart() {
        use crate::fault::{Fault, FaultPlan};
        struct Probe {
            started_at: SimTime,
        }
        impl Node for Probe {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if let Event::Start = ev {
                    self.started_at = ctx.now();
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 8);
        let h = sim.add_host(HostCfg::default().no_cstates());
        let id = sim.add_node(
            h,
            Box::new(Probe {
                started_at: SimTime::ZERO,
            }),
        );
        let mut plan = FaultPlan::new(2);
        plan.add(SimTime(10_000), SimTime(50_000), Fault::Crash { node: id });
        sim.install_fault_plan(&plan);
        sim.set_fault_reviver(|_| {
            Some(Box::new(Probe {
                started_at: SimTime::ZERO,
            }))
        });
        sim.run_until(SimTime(20_000));
        assert!(!sim.is_alive(id), "crash event did not fire");
        sim.run_to_completion(1_000);
        assert!(sim.is_alive(id), "reviver did not restart the node");
        let started = sim.with_node::<Probe, _>(id, |p| p.started_at).unwrap();
        assert_eq!(started, SimTime(50_000));
        assert_eq!(sim.metrics().counter("simnet.fault.crashes"), 1);
        assert_eq!(sim.metrics().counter("simnet.fault.restarts"), 1);
    }

    #[test]
    fn fault_plan_duplication_forks_frames() {
        use crate::fault::{Fault, FaultPlan, HostSet, LinkImpairment};
        struct Sender {
            dst: NodeId,
        }
        impl Node for Sender {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if let Event::Start = ev {
                    for _ in 0..50 {
                        ctx.send(self.dst, Bytes::from_static(b"x"));
                    }
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 12);
        let h1 = sim.add_host(HostCfg::default().no_cstates());
        let h2 = sim.add_host(HostCfg::default().no_cstates());
        let sink = sim.add_node(h2, Box::new(crate::util::SinkNode::default()));
        sim.add_node(h1, Box::new(Sender { dst: sink }));
        let mut plan = FaultPlan::new(3);
        plan.add(
            SimTime::ZERO,
            SimTime(1_000_000_000),
            Fault::Link {
                src: HostSet::All,
                dst: HostSet::All,
                symmetric: false,
                impair: LinkImpairment {
                    duplicate_prob: 1.0,
                    ..LinkImpairment::default()
                },
            },
        );
        sim.install_fault_plan(&plan);
        sim.run_to_completion(10_000);
        assert_eq!(sim.metrics().counter("simnet.fault.frames_duplicated"), 50);
        // Every frame arrives twice on the receiver's NIC.
        assert_eq!(sim.host(h2).rx_bytes, 2 * sim.host(h1).tx_bytes);
    }

    #[test]
    fn cpu_done_fires_in_order() {
        struct Worker {
            done: Vec<u64>,
        }
        impl Node for Worker {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Start => {
                        ctx.spawn_cpu(SimDuration::from_micros(30), 1);
                        ctx.spawn_cpu(SimDuration::from_micros(10), 2);
                    }
                    Event::CpuDone(t) => self.done.push(t),
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 4);
        let h = sim.add_host(HostCfg {
            cores: 2,
            ..HostCfg::default().no_cstates()
        });
        let id = sim.add_node(h, Box::new(Worker { done: vec![] }));
        sim.run_to_completion(100);
        let done = sim.with_node::<Worker, _>(id, |w| w.done.clone()).unwrap();
        // Two cores: the 10us task finishes before the 30us one.
        assert_eq!(done, vec![2, 1]);
    }

    #[test]
    fn wire_size_accounts_per_packet_headers() {
        let f = FabricCfg::default();
        assert_eq!(f.wire_size(100), 166);
        // 12_000 bytes over 5_000 MTU = 3 packets.
        assert_eq!(f.wire_size(12_000), 12_000 + 3 * 66);
        // Empty payload still requires one packet.
        assert_eq!(f.wire_size(0), 66);
    }

    #[test]
    fn incast_serializes_on_receiver_rx() {
        // N senders fire a large frame at one receiver simultaneously; the
        // deliveries must spread out by at least the RX serialization time
        // of each frame (the incast effect behind Fig. 12).
        struct Blast {
            dst: NodeId,
        }
        impl Node for Blast {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if let Event::Start = ev {
                    ctx.send(self.dst, Bytes::from(vec![0u8; 64 * 1024]));
                }
            }
        }
        struct Recorder {
            arrivals: Vec<SimTime>,
        }
        impl Node for Recorder {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if let Event::Frame(_) = ev {
                    self.arrivals.push(ctx.now());
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 9);
        let rx_host = sim.add_host(HostCfg::with_gbps(50.0).no_cstates());
        let rx = sim.add_node(rx_host, Box::new(Recorder { arrivals: vec![] }));
        for _ in 0..6 {
            let h = sim.add_host(HostCfg::with_gbps(50.0).no_cstates());
            sim.add_node(h, Box::new(Blast { dst: rx }));
        }
        sim.run_to_completion(10_000);
        let arrivals = sim
            .with_node::<Recorder, _>(rx, |r| r.arrivals.clone())
            .unwrap();
        assert_eq!(arrivals.len(), 6);
        // 64KB at 50 Gbps ≈ 10.5us serialization per frame on the shared
        // RX link: consecutive deliveries must be spaced by at least that.
        for w in arrivals.windows(2) {
            let gap = w[1].since(w[0]);
            assert!(gap.nanos() >= 10_000, "incast not serialized: gap {gap}");
        }
        // Total spread ~ 6 frames' worth, not one.
        let spread = arrivals.last().unwrap().since(arrivals[0]);
        assert!(spread.nanos() > 50_000, "spread {spread}");
    }

    #[test]
    fn host_bandwidth_accounting() {
        struct Sender {
            dst: NodeId,
        }
        impl Node for Sender {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if let Event::Start = ev {
                    for _ in 0..10 {
                        ctx.send(self.dst, Bytes::from(vec![0u8; 1000]));
                    }
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 10);
        let h1 = sim.add_host(HostCfg::default().no_cstates());
        let h2 = sim.add_host(HostCfg::default().no_cstates());
        let sink = sim.add_node(h2, Box::new(crate::util::SinkNode::default()));
        sim.add_node(h1, Box::new(Sender { dst: sink }));
        sim.run_to_completion(1_000);
        // 10 frames of 1000B payload + 66B header each.
        assert_eq!(sim.host(h1).tx_bytes, 10 * 1066);
        assert_eq!(sim.host(h2).rx_bytes, 10 * 1066);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Sim::new(FabricCfg::default(), 5);
        sim.run_until(SimTime(1_000_000));
        assert_eq!(sim.now(), SimTime(1_000_000));
    }

    #[test]
    fn queue_and_pool_stats_track() {
        let (mut sim, _pinger, _) = two_host_sim();
        sim.run_to_completion(1_000_000);
        assert!(sim.queue_high_water() >= 1);
        assert_eq!(sim.queue_len(), 0);
        assert!(sim.pending_pool_len() >= 1);
    }

    #[test]
    fn one_pool_per_simulation() {
        /// Encodes a frame to `to` at start; without one, acquires a
        /// buffer on a later timer. Keeps where its buffer points.
        struct PoolUser {
            to: Option<NodeId>,
            buf_at: usize,
        }
        impl Node for PoolUser {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match (ev, self.to) {
                    (Event::Start, Some(to)) => {
                        let mut buf = ctx.pool().get(100);
                        buf.extend_from_slice(b"encoded on host A");
                        self.buf_at = buf.as_ptr() as usize;
                        ctx.send(to, buf.freeze());
                    }
                    (Event::Start, None) => ctx.set_timer(SimDuration::from_millis(1), 0),
                    (Event::Timer(_), _) => self.buf_at = ctx.pool().get(100).as_ptr() as usize,
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 1);
        let [a, b, c] = [(); 3].map(|_| sim.add_host(HostCfg::with_gbps(100.0).no_cstates()));
        let sink = sim.add_node(b, Box::<crate::util::SinkNode>::default());
        let user = |to| Box::new(PoolUser { to, buf_at: 0 });
        let encoder = sim.add_node(a, user(Some(sink)));
        let acquirer = sim.add_node(c, user(None));
        sim.run_to_completion(1_000);
        let mut buf_at = |id| sim.with_node::<PoolUser, _>(id, |n| n.buf_at).unwrap();
        let sent = buf_at(encoder);
        assert_ne!(sent, 0);
        assert_eq!(
            buf_at(acquirer),
            sent,
            "host C reuses the buffer host B dropped"
        );
        let stats = sim.pool().stats();
        assert_eq!((stats.acquires, stats.reuses, stats.recycles), (2, 1, 1));
    }

    #[test]
    fn same_timestamp_fastpath_preserves_order() {
        // A node that fans out a burst of zero-delay timers from one event:
        // every self-schedule lands at `now` and must fire in schedule
        // order, interleaved correctly with strictly-later heap events.
        struct Burst {
            fired: Vec<u64>,
        }
        impl Node for Burst {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Start => {
                        ctx.set_timer(SimDuration::from_micros(5), 100);
                        for t in 0..8 {
                            ctx.set_timer(SimDuration::ZERO, t);
                        }
                    }
                    Event::Timer(t) => {
                        self.fired.push(t);
                        if t == 3 {
                            // Nested zero-delay timers from a fifo event.
                            ctx.set_timer(SimDuration::ZERO, 50);
                            ctx.set_timer(SimDuration::ZERO, 51);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(FabricCfg::default(), 11);
        let h = sim.add_host(HostCfg::default().no_cstates());
        let id = sim.add_node(h, Box::new(Burst { fired: vec![] }));
        sim.run_to_completion(1_000);
        let fired = sim.with_node::<Burst, _>(id, |b| b.fired.clone()).unwrap();
        // Zero-delay timers in schedule order (the nested 50/51 join the
        // back of the same-timestamp queue), the 5us timer strictly last.
        assert_eq!(fired, vec![0, 1, 2, 3, 4, 5, 6, 7, 50, 51, 100]);
        assert_eq!(sim.events_processed(), 12); // Start + 11 timers
    }

    /// Records the first payload byte of every frame it receives.
    #[derive(Default)]
    struct Tally {
        seen: Vec<u8>,
    }

    impl Node for Tally {
        fn on_event(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
            if let Event::Frame(f) = ev {
                self.seen.push(f.payload[0]);
            }
        }
    }

    /// On start, sends one byte to `dst` per entry of `plan`, each after
    /// `delay`: by a timer whose handler sends (`false`) or by
    /// [`Ctx::send_after`] (`true`). Every send is stamped with `trace`, and
    /// a trace that is not 0 is opened with an ENGINE interval over the wait
    /// and closed at 1 ms.
    struct Delayed {
        dst: NodeId,
        delay: SimDuration,
        plan: Vec<bool>,
        trace: u64,
    }

    const CLOSE: u64 = u64::MAX;

    impl Delayed {
        fn payload(i: usize) -> Bytes {
            // The first send is a 64 KiB frame, so the ones behind it queue
            // for the TX link.
            let len = if i == 0 { 64 << 10 } else { 64 };
            Bytes::from(vec![i as u8; len])
        }
    }

    impl Node for Delayed {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => {
                    if self.trace != 0 {
                        ctx.trace_open(self.trace, 0);
                        let (now, ready) = (ctx.now(), ctx.now() + self.delay);
                        ctx.trace_interval(self.trace, obs::stage::ENGINE, now, ready);
                        ctx.set_timer(SimDuration::from_millis(1), CLOSE);
                    }
                    for (i, &by_sim) in self.plan.iter().enumerate() {
                        if by_sim {
                            let payload = Delayed::payload(i);
                            ctx.send_after(self.delay, self.dst, payload, self.trace);
                        } else {
                            ctx.set_timer(self.delay, i as u64);
                        }
                    }
                }
                Event::Timer(CLOSE) => {
                    ctx.trace_close(self.trace, SimTime::ZERO, ctx.now(), 1);
                }
                Event::Timer(i) => {
                    let payload = Delayed::payload(i as usize);
                    ctx.send_traced(self.dst, payload, self.trace);
                }
                _ => {}
            }
        }
    }

    fn delayed(dst: NodeId, delay: SimDuration, plan: &[bool]) -> Box<Delayed> {
        Box::new(Delayed {
            dst,
            delay,
            plan: plan.to_vec(),
            trace: 0,
        })
    }

    #[test]
    fn send_after_takes_the_slot_of_the_timer_it_replaces() {
        // Co-located sender and receiver: loopback latency is fixed, so
        // frames arrive in the order they left.
        for delay in [SimDuration::ZERO, SimDuration::from_micros(5)] {
            let mut sim = Sim::new(FabricCfg::default(), 13);
            let h = sim.add_host(HostCfg::default().no_cstates());
            let rx = sim.add_node(h, Box::new(Tally::default()));
            let plan = [true, false, false, true, false, true, true, false];
            sim.add_node(h, delayed(rx, delay, &plan));
            sim.run_to_completion(1_000);
            let seen = sim.with_node::<Tally, _>(rx, |t| t.seen.clone()).unwrap();
            assert_eq!(seen, (0..plan.len() as u8).collect::<Vec<_>>(), "{delay}");
            // A delayed send is one event, as a timer is.
            assert_eq!(sim.events_processed(), 2 + 2 * plan.len() as u64);
        }
    }

    #[test]
    fn a_dead_or_restarted_sender_sends_nothing() {
        let run = |restart: bool| {
            let mut sim = Sim::new(FabricCfg::default(), 14);
            let (h1, h2) = (
                sim.add_host(HostCfg::default()),
                sim.add_host(HostCfg::default()),
            );
            let rx = sim.add_node(h2, Box::new(Tally::default()));
            let delay = SimDuration::from_micros(10);
            let tx = sim.add_node(h1, delayed(rx, delay, &[true]));
            sim.run_for(SimDuration::from_micros(1));
            sim.crash(tx);
            if restart {
                sim.revive(tx, Box::new(Tally::default()));
            }
            sim.run_to_completion(1_000);
            let seen = sim.with_node::<Tally, _>(rx, |t| t.seen.len()).unwrap();
            assert_eq!((seen, sim.host(h1).tx_bytes), (0, 0), "restart {restart}");
            let m = sim.metrics();
            (
                m.counter("simnet.dropped_dead"),
                m.counter("simnet.dropped_stale"),
            )
        };
        assert_eq!(run(false), (1, 0));
        assert_eq!(run(true), (0, 1));
    }

    #[test]
    fn a_traced_send_after_records_what_a_timer_and_send_traced_do() {
        let run = |by_sim: bool| {
            let mut sim = Sim::new(FabricCfg::default(), 15);
            sim.enable_tracing();
            let (h1, h2) = (
                sim.add_host(HostCfg::default()),
                sim.add_host(HostCfg::default()),
            );
            let rx = sim.add_node(h2, Box::new(Tally::default()));
            sim.add_node(
                h1,
                Box::new(Delayed {
                    dst: rx,
                    delay: SimDuration::from_micros(3),
                    plan: vec![by_sim; 3],
                    trace: 9,
                }),
            );
            sim.run_to_completion(1_000);
            let traces = sim.drain_traces();
            assert_eq!(traces.len(), 1);
            (traces[0].events.clone(), sim.events_processed())
        };
        let (by_timer, by_sim) = (run(false), run(true));
        assert_eq!(by_timer, by_sim);
        let stages = |s: u8| by_sim.0.iter().filter(|e| e.stage == s).count();
        // The wait, each frame's TX and RX serialization and fabric
        // crossing, and the queueing behind the 64 KiB frame.
        assert_eq!(stages(obs::stage::ENGINE), 1);
        assert_eq!(
            (stages(obs::stage::SER), stages(obs::stage::FABRIC)),
            (6, 3)
        );
        assert!(stages(obs::stage::QUEUE) >= 2, "{:?}", by_sim.0);
    }
}
