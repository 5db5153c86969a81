//! Deterministic fault injection: chaos schedules for the simulated fabric.
//!
//! A [`FaultPlan`] is a declarative, serializable schedule of timed fault
//! events, each active from `at` until `heal_at`. The vocabulary covers the
//! failure regimes a production cache actually meets:
//!
//! * **link impairments** — per-direction drop probability, latency
//!   inflation, bandwidth clamps, duplication, and reordering between host
//!   sets ([`Fault::Link`]),
//! * **partitions** — symmetric or asymmetric host-set cuts, sugar for a
//!   100% drop link fault ([`Fault::Partition`]),
//! * **gray failures** — CPU-slowdown stragglers (a multiplier applied in
//!   [`Hosts::admit_cpu_scaled`](crate::host::Hosts::admit_cpu_scaled)) and
//!   the RMA-specific *CPU-dead* mode in which a host's memory stays
//!   remotely readable while every process on it is frozen (Aguilera et
//!   al., "The Impact of RDMA on Agreement"),
//! * **crash / restart** — whole-node failures that drive warm-spare
//!   promotion and en-masse recovery, restarts going through the reviver
//!   installed with [`Sim::set_fault_reviver`](crate::sim::Sim::set_fault_reviver).
//!
//! The plan compiles into a `FaultState` held by the
//! [`Sim`](crate::sim::Sim). Link and CPU faults are pure interval queries
//! against the current time — they add no events to the queue — while
//! crash/restart events are scheduled like any other event. All randomness
//! draws from a dedicated [`SimRng`] stream forked off the simulation seed,
//! so a run with a given (plan, seed) is bit-reproducible, and a simulation
//! with **no plan installed is byte-identical** to one built before this
//! module existed: the hooks reduce to a single `Option` check.

use crate::host::{HostId, NodeId};
use crate::rng::SimRng;
use crate::stats::Metrics;
use crate::time::{serialization_delay, SimDuration, SimTime};

/// The set of hosts a fault applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostSet {
    /// Every host in the simulation.
    All,
    /// An explicit list of hosts.
    Hosts(Vec<HostId>),
}

impl HostSet {
    /// A set containing a single host.
    pub fn one(h: HostId) -> HostSet {
        HostSet::Hosts(vec![h])
    }

    /// A set from a slice of hosts.
    pub fn of(hs: &[HostId]) -> HostSet {
        HostSet::Hosts(hs.to_vec())
    }

    /// Whether `h` is in the set.
    pub fn contains(&self, h: HostId) -> bool {
        match self {
            HostSet::All => true,
            HostSet::Hosts(v) => v.contains(&h),
        }
    }

    fn encode(&self) -> String {
        match self {
            HostSet::All => "*".to_string(),
            HostSet::Hosts(v) => {
                let ids: Vec<String> = v.iter().map(|h| h.0.to_string()).collect();
                ids.join(",")
            }
        }
    }

    fn decode(s: &str) -> Result<HostSet, String> {
        if s == "*" {
            return Ok(HostSet::All);
        }
        let mut hosts = Vec::new();
        for part in s.split(',') {
            let id: u32 = part
                .parse()
                .map_err(|_| format!("bad host id {part:?} in host set {s:?}"))?;
            hosts.push(HostId(id));
        }
        Ok(HostSet::Hosts(hosts))
    }
}

/// Per-link impairment parameters. The default is a no-op; set only the
/// dimensions the fault should impair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkImpairment {
    /// Probability each frame is silently dropped.
    pub drop_prob: f64,
    /// Fixed additional one-way latency per frame.
    pub extra_latency: SimDuration,
    /// Bandwidth clamp in Gbps: each frame pays serialization at this rate
    /// on top of the normal path (a congested middle link). Zero disables.
    pub bandwidth_gbps: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a frame is delayed by a uniform draw from
    /// `[0, reorder_spread]`, letting later frames overtake it.
    pub reorder_prob: f64,
    /// Maximum extra delay for reordered frames (and duplicate copies).
    pub reorder_spread: SimDuration,
}

impl Default for LinkImpairment {
    fn default() -> Self {
        LinkImpairment {
            drop_prob: 0.0,
            extra_latency: SimDuration::ZERO,
            bandwidth_gbps: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_spread: SimDuration::ZERO,
        }
    }
}

impl LinkImpairment {
    /// A pure loss impairment.
    pub fn loss(p: f64) -> LinkImpairment {
        LinkImpairment {
            drop_prob: p,
            ..LinkImpairment::default()
        }
    }
}

/// One fault in the vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Impair frames from `src` hosts to `dst` hosts; `symmetric` also
    /// impairs the reverse direction.
    Link {
        /// Sending host set.
        src: HostSet,
        /// Receiving host set.
        dst: HostSet,
        /// Apply in both directions.
        symmetric: bool,
        /// What the impairment does.
        impair: LinkImpairment,
    },
    /// Total cut between host sets `a` and `b` (sugar for a 100% drop
    /// [`Fault::Link`]); `symmetric: false` cuts only a→b (an asymmetric
    /// partition: b's replies still arrive, a's requests vanish).
    Partition {
        /// One side of the cut.
        a: HostSet,
        /// The other side.
        b: HostSet,
        /// Cut both directions.
        symmetric: bool,
    },
    /// Gray failure: every CPU task on these hosts runs `multiplier`×
    /// slower (a straggler, e.g. a co-tenant antagonist or thermal event).
    CpuSlow {
        /// Affected hosts.
        hosts: HostSet,
        /// Work multiplier (> 1 slows down).
        multiplier: f64,
    },
    /// Gray failure, RMA flavor: the hosts' CPUs are unresponsive for the
    /// window — RPC serving stops and queued CPU work stalls until heal —
    /// but host memory stays remotely readable, so hardware RMA transports
    /// keep serving reads.
    CpuDead {
        /// Affected hosts.
        hosts: HostSet,
    },
    /// Crash a node at `at`; if `heal_at > at` and a fault reviver is
    /// installed, the node restarts (new incarnation) at `heal_at`.
    Crash {
        /// The node to crash.
        node: NodeId,
    },
    /// Restart a node at `at` via the installed fault reviver (no implicit
    /// crash; pair with [`Fault::Crash`] or use on an already-dead node).
    Restart {
        /// The node to restart.
        node: NodeId,
    },
}

/// One scheduled fault: active in `[at, heal_at)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: SimTime,
    /// When the fault heals. Ignored by [`Fault::Restart`]; for
    /// [`Fault::Crash`] it is the restart instant (if a reviver is set).
    pub heal_at: SimTime,
    /// What happens.
    pub fault: Fault,
}

/// A declarative, serializable chaos schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed folded into the fault RNG stream, so distinct plans draw
    /// distinct randomness even under one simulation seed.
    pub seed: u64,
    /// The schedule.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Append a fault active in `[at, heal_at)`.
    pub fn add(&mut self, at: SimTime, heal_at: SimTime, fault: Fault) -> &mut FaultPlan {
        self.events.push(FaultEvent { at, heal_at, fault });
        self
    }

    /// When the last fault heals (`ZERO` for an empty plan).
    pub fn last_heal(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.heal_at.max(e.at))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Serialize to the line-oriented text format (see [`FaultPlan::decode`]).
    pub fn encode(&self) -> String {
        let mut out = format!("faultplan v1 seed={}\n", self.seed);
        for e in &self.events {
            let (at, heal) = (e.at.nanos(), e.heal_at.nanos());
            match &e.fault {
                Fault::Link {
                    src,
                    dst,
                    symmetric,
                    impair: i,
                } => out.push_str(&format!(
                    "link at={at} heal={heal} src={} dst={} sym={} drop={} lat={} bw={} dup={} ro={} spread={}\n",
                    src.encode(),
                    dst.encode(),
                    *symmetric as u8,
                    i.drop_prob,
                    i.extra_latency.nanos(),
                    i.bandwidth_gbps,
                    i.duplicate_prob,
                    i.reorder_prob,
                    i.reorder_spread.nanos(),
                )),
                Fault::Partition { a, b, symmetric } => out.push_str(&format!(
                    "partition at={at} heal={heal} a={} b={} sym={}\n",
                    a.encode(),
                    b.encode(),
                    *symmetric as u8,
                )),
                Fault::CpuSlow { hosts, multiplier } => out.push_str(&format!(
                    "cpuslow at={at} heal={heal} hosts={} mult={multiplier}\n",
                    hosts.encode(),
                )),
                Fault::CpuDead { hosts } => out.push_str(&format!(
                    "cpudead at={at} heal={heal} hosts={}\n",
                    hosts.encode(),
                )),
                Fault::Crash { node } => {
                    out.push_str(&format!("crash at={at} heal={heal} node={}\n", node.0))
                }
                Fault::Restart { node } => {
                    out.push_str(&format!("restart at={at} heal={heal} node={}\n", node.0))
                }
            }
        }
        out
    }

    /// Parse the text format produced by [`FaultPlan::encode`]. The format
    /// is one `key=value` line per event after a `faultplan v1` header —
    /// hand-rolled (the workspace carries no serde) but stable: every field
    /// round-trips exactly.
    pub fn decode(text: &str) -> Result<FaultPlan, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty fault plan")?;
        let mut hdr = header.split_whitespace();
        if hdr.next() != Some("faultplan") || hdr.next() != Some("v1") {
            return Err(format!("bad header {header:?}"));
        }
        let seed = field(header, "seed")?.parse::<u64>().map_err(bad("seed"))?;
        let mut plan = FaultPlan::new(seed);
        for line in lines {
            let kind = line.split_whitespace().next().unwrap_or("");
            let at = SimTime(field(line, "at")?.parse().map_err(bad("at"))?);
            let heal_at = SimTime(field(line, "heal")?.parse().map_err(bad("heal"))?);
            let fault = match kind {
                "link" => Fault::Link {
                    src: HostSet::decode(field(line, "src")?)?,
                    dst: HostSet::decode(field(line, "dst")?)?,
                    symmetric: field(line, "sym")? == "1",
                    impair: LinkImpairment {
                        drop_prob: field(line, "drop")?.parse().map_err(bad("drop"))?,
                        extra_latency: SimDuration(
                            field(line, "lat")?.parse().map_err(bad("lat"))?,
                        ),
                        bandwidth_gbps: field(line, "bw")?.parse().map_err(bad("bw"))?,
                        duplicate_prob: field(line, "dup")?.parse().map_err(bad("dup"))?,
                        reorder_prob: field(line, "ro")?.parse().map_err(bad("ro"))?,
                        reorder_spread: SimDuration(
                            field(line, "spread")?.parse().map_err(bad("spread"))?,
                        ),
                    },
                },
                "partition" => Fault::Partition {
                    a: HostSet::decode(field(line, "a")?)?,
                    b: HostSet::decode(field(line, "b")?)?,
                    symmetric: field(line, "sym")? == "1",
                },
                "cpuslow" => Fault::CpuSlow {
                    hosts: HostSet::decode(field(line, "hosts")?)?,
                    multiplier: field(line, "mult")?.parse().map_err(bad("mult"))?,
                },
                "cpudead" => Fault::CpuDead {
                    hosts: HostSet::decode(field(line, "hosts")?)?,
                },
                "crash" => Fault::Crash {
                    node: NodeId(field(line, "node")?.parse().map_err(bad("node"))?),
                },
                "restart" => Fault::Restart {
                    node: NodeId(field(line, "node")?.parse().map_err(bad("node"))?),
                },
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            plan.events.push(FaultEvent { at, heal_at, fault });
        }
        Ok(plan)
    }
}

fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| format!("missing field {key:?} in {line:?}"))
}

fn bad<E: std::fmt::Debug>(key: &'static str) -> impl Fn(E) -> String {
    move |e| format!("bad value for {key:?}: {e:?}")
}

crate::metric_ids! {
    /// Interned handles for the fault subsystem's counters.
    pub(crate) struct FaultMetricIds {
        frames_dropped: "simnet.fault.frames_dropped",
        frames_duplicated: "simnet.fault.frames_duplicated",
        frames_delayed: "simnet.fault.frames_delayed",
        cpu_stalls: "simnet.fault.cpu_stalls",
        crashes: "simnet.fault.crashes",
        restarts: "simnet.fault.restarts",
    }
}

/// A directed link-impairment window compiled from the plan.
#[derive(Debug, Clone)]
struct LinkWindow {
    from: SimTime,
    to: SimTime,
    src: HostSet,
    dst: HostSet,
    impair: LinkImpairment,
}

/// A CPU-fault window compiled from the plan.
#[derive(Debug, Clone)]
struct CpuWindow {
    from: SimTime,
    to: SimTime,
    hosts: HostSet,
    multiplier: f64,
}

/// What the fault layer decided about one frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameFate {
    /// Silently drop the frame.
    pub(crate) drop: bool,
    /// Extra one-way delay (latency inflation + bandwidth clamp + reorder).
    pub(crate) extra: SimDuration,
    /// Deliver a second copy this much later than the original.
    pub(crate) duplicate: Option<SimDuration>,
}

const CLEAN: FrameFate = FrameFate {
    drop: false,
    extra: SimDuration::ZERO,
    duplicate: None,
};

/// Compiled runtime state of an installed [`FaultPlan`].
#[derive(Debug)]
pub(crate) struct FaultState {
    rng: SimRng,
    links: Vec<LinkWindow>,
    slows: Vec<CpuWindow>,
    deads: Vec<CpuWindow>,
    pub(crate) mids: FaultMetricIds,
}

impl FaultState {
    /// Compile `plan` with a dedicated RNG stream. Crash/restart events are
    /// the caller's job (they are scheduled into the event queue).
    pub(crate) fn compile(plan: &FaultPlan, rng: SimRng, metrics: &mut Metrics) -> FaultState {
        let mut links = Vec::new();
        let mut slows = Vec::new();
        let mut deads = Vec::new();
        for e in &plan.events {
            match &e.fault {
                Fault::Link {
                    src,
                    dst,
                    symmetric,
                    impair,
                } => {
                    links.push(LinkWindow {
                        from: e.at,
                        to: e.heal_at,
                        src: src.clone(),
                        dst: dst.clone(),
                        impair: *impair,
                    });
                    if *symmetric {
                        links.push(LinkWindow {
                            from: e.at,
                            to: e.heal_at,
                            src: dst.clone(),
                            dst: src.clone(),
                            impair: *impair,
                        });
                    }
                }
                Fault::Partition { a, b, symmetric } => {
                    let cut = LinkImpairment::loss(1.0);
                    links.push(LinkWindow {
                        from: e.at,
                        to: e.heal_at,
                        src: a.clone(),
                        dst: b.clone(),
                        impair: cut,
                    });
                    if *symmetric {
                        links.push(LinkWindow {
                            from: e.at,
                            to: e.heal_at,
                            src: b.clone(),
                            dst: a.clone(),
                            impair: cut,
                        });
                    }
                }
                Fault::CpuSlow { hosts, multiplier } => slows.push(CpuWindow {
                    from: e.at,
                    to: e.heal_at,
                    hosts: hosts.clone(),
                    multiplier: *multiplier,
                }),
                Fault::CpuDead { hosts } => deads.push(CpuWindow {
                    from: e.at,
                    to: e.heal_at,
                    hosts: hosts.clone(),
                    multiplier: 1.0,
                }),
                Fault::Crash { .. } | Fault::Restart { .. } => {}
            }
        }
        FaultState {
            rng,
            links,
            slows,
            deads,
            mids: FaultMetricIds::resolve(metrics),
        }
    }

    /// Decide the fate of one cross-host frame sent at `now`. Draws from
    /// the fault RNG only for impairments that are active and match, so
    /// inactive windows cost nothing and perturb nothing.
    pub(crate) fn frame_fate(
        &mut self,
        now: SimTime,
        src: HostId,
        dst: HostId,
        wire_bytes: u64,
    ) -> FrameFate {
        let mut fate = CLEAN;
        for i in 0..self.links.len() {
            let w = &self.links[i];
            if now < w.from || now >= w.to || !w.src.contains(src) || !w.dst.contains(dst) {
                continue;
            }
            let imp = w.impair;
            if imp.drop_prob > 0.0 && self.rng.gen_bool(imp.drop_prob) {
                fate.drop = true;
                return fate;
            }
            fate.extra += imp.extra_latency;
            if imp.bandwidth_gbps > 0.0 {
                fate.extra += serialization_delay(wire_bytes, imp.bandwidth_gbps);
            }
            if imp.duplicate_prob > 0.0 && self.rng.gen_bool(imp.duplicate_prob) {
                let spread = imp.reorder_spread.nanos().max(1_000);
                fate.duplicate = Some(SimDuration(self.rng.gen_range(spread) + 1));
            }
            if imp.reorder_prob > 0.0 && self.rng.gen_bool(imp.reorder_prob) {
                fate.extra += SimDuration(self.rng.gen_range(imp.reorder_spread.nanos() + 1));
            }
        }
        fate
    }

    /// Product of active straggler multipliers on `host` at `now`.
    pub(crate) fn cpu_scale(&self, now: SimTime, host: HostId) -> f64 {
        let mut scale = 1.0;
        for w in &self.slows {
            if now >= w.from && now < w.to && w.hosts.contains(host) {
                scale *= w.multiplier;
            }
        }
        scale
    }

    /// If `host`'s CPU is dead at `now`, when it heals (the latest active
    /// dead window's end).
    pub(crate) fn cpu_dead_until(&self, now: SimTime, host: HostId) -> Option<SimTime> {
        let mut until = None;
        for w in &self.deads {
            if now >= w.from && now < w.to && w.hosts.contains(host) {
                until = Some(until.map_or(w.to, |u: SimTime| u.max(w.to)));
            }
        }
        until
    }

    /// Whether `host`'s CPU is dead at `now`.
    pub(crate) fn host_cpu_dead(&self, now: SimTime, host: HostId) -> bool {
        self.cpu_dead_until(now, host).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime(n * 1_000_000)
    }

    fn sample_plan() -> FaultPlan {
        let mut plan = FaultPlan::new(0xC0FFEE);
        plan.add(
            ms(10),
            ms(20),
            Fault::Link {
                src: HostSet::Hosts(vec![HostId(0), HostId(2)]),
                dst: HostSet::All,
                symmetric: true,
                impair: LinkImpairment {
                    drop_prob: 0.25,
                    extra_latency: SimDuration::from_micros(50),
                    bandwidth_gbps: 1.5,
                    duplicate_prob: 0.01,
                    reorder_prob: 0.1,
                    reorder_spread: SimDuration::from_micros(20),
                },
            },
        )
        .add(
            ms(30),
            ms(40),
            Fault::Partition {
                a: HostSet::one(HostId(1)),
                b: HostSet::Hosts(vec![HostId(3), HostId(4)]),
                symmetric: false,
            },
        )
        .add(
            ms(50),
            ms(60),
            Fault::CpuSlow {
                hosts: HostSet::one(HostId(2)),
                multiplier: 8.0,
            },
        )
        .add(
            ms(70),
            ms(80),
            Fault::CpuDead {
                hosts: HostSet::one(HostId(3)),
            },
        )
        .add(ms(90), ms(100), Fault::Crash { node: NodeId(5) })
        .add(ms(110), ms(110), Fault::Restart { node: NodeId(5) });
        plan
    }

    #[test]
    fn plan_roundtrips_through_text() {
        let plan = sample_plan();
        let text = plan.encode();
        let back = FaultPlan::decode(&text).expect("decode");
        assert_eq!(plan, back);
        // And the re-encoding is identical (stable format).
        assert_eq!(text, back.encode());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FaultPlan::decode("").is_err());
        assert!(FaultPlan::decode("notaplan v1 seed=1").is_err());
        assert!(FaultPlan::decode("faultplan v1 seed=1\nwarp at=0 heal=1").is_err());
        assert!(FaultPlan::decode("faultplan v1 seed=1\nlink at=0 heal=1 src=*").is_err());
        assert!(FaultPlan::decode("faultplan v1 seed=1\ncrash at=0 heal=1 node=x").is_err());
    }

    #[test]
    fn host_set_membership() {
        assert!(HostSet::All.contains(HostId(17)));
        let s = HostSet::of(&[HostId(1), HostId(3)]);
        assert!(s.contains(HostId(3)));
        assert!(!s.contains(HostId(2)));
        assert_eq!(HostSet::decode("*").unwrap(), HostSet::All);
        assert!(HostSet::decode("1,x").is_err());
    }

    #[test]
    fn last_heal_spans_the_schedule() {
        assert_eq!(FaultPlan::new(1).last_heal(), SimTime::ZERO);
        assert_eq!(sample_plan().last_heal(), ms(110));
    }

    fn state(plan: &FaultPlan) -> FaultState {
        let mut m = Metrics::new();
        FaultState::compile(plan, SimRng::new(7), &mut m)
    }

    #[test]
    fn partition_drops_only_the_cut_direction() {
        let mut plan = FaultPlan::new(1);
        plan.add(
            ms(0),
            ms(10),
            Fault::Partition {
                a: HostSet::one(HostId(0)),
                b: HostSet::one(HostId(1)),
                symmetric: false,
            },
        );
        let mut fs = state(&plan);
        for _ in 0..100 {
            assert!(fs.frame_fate(ms(5), HostId(0), HostId(1), 100).drop);
            assert!(!fs.frame_fate(ms(5), HostId(1), HostId(0), 100).drop);
        }
        // Outside the window the cut heals.
        assert!(!fs.frame_fate(ms(10), HostId(0), HostId(1), 100).drop);
    }

    #[test]
    fn symmetric_link_impairs_both_directions() {
        let mut plan = FaultPlan::new(1);
        plan.add(
            ms(0),
            ms(10),
            Fault::Link {
                src: HostSet::one(HostId(0)),
                dst: HostSet::one(HostId(1)),
                symmetric: true,
                impair: LinkImpairment {
                    extra_latency: SimDuration::from_micros(100),
                    ..LinkImpairment::default()
                },
            },
        );
        let mut fs = state(&plan);
        assert_eq!(
            fs.frame_fate(ms(1), HostId(0), HostId(1), 100).extra,
            SimDuration::from_micros(100)
        );
        assert_eq!(
            fs.frame_fate(ms(1), HostId(1), HostId(0), 100).extra,
            SimDuration::from_micros(100)
        );
        // An uninvolved pair is untouched.
        let clean = fs.frame_fate(ms(1), HostId(2), HostId(3), 100);
        assert!(!clean.drop && clean.extra == SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_clamp_charges_serialization() {
        let mut plan = FaultPlan::new(1);
        plan.add(
            ms(0),
            ms(10),
            Fault::Link {
                src: HostSet::All,
                dst: HostSet::All,
                symmetric: false,
                impair: LinkImpairment {
                    bandwidth_gbps: 1.0,
                    ..LinkImpairment::default()
                },
            },
        );
        let mut fs = state(&plan);
        // 1250 bytes at 1 Gbps = 10us.
        let fate = fs.frame_fate(ms(1), HostId(0), HostId(1), 1250);
        assert_eq!(fate.extra, SimDuration::from_micros(10));
    }

    #[test]
    fn cpu_windows_gate_on_time_and_host() {
        let plan = sample_plan();
        let fs = state(&plan);
        assert_eq!(fs.cpu_scale(ms(55), HostId(2)), 8.0);
        assert_eq!(fs.cpu_scale(ms(55), HostId(1)), 1.0);
        assert_eq!(fs.cpu_scale(ms(65), HostId(2)), 1.0);
        assert_eq!(fs.cpu_dead_until(ms(75), HostId(3)), Some(ms(80)));
        assert_eq!(fs.cpu_dead_until(ms(75), HostId(2)), None);
        assert!(fs.host_cpu_dead(ms(75), HostId(3)));
        assert!(!fs.host_cpu_dead(ms(85), HostId(3)));
    }

    #[test]
    fn overlapping_stragglers_compound() {
        let mut plan = FaultPlan::new(1);
        for _ in 0..2 {
            plan.add(
                ms(0),
                ms(10),
                Fault::CpuSlow {
                    hosts: HostSet::All,
                    multiplier: 3.0,
                },
            );
        }
        let fs = state(&plan);
        assert_eq!(fs.cpu_scale(ms(5), HostId(0)), 9.0);
    }

    #[test]
    fn fate_decisions_are_deterministic() {
        let plan = sample_plan();
        let run = || {
            let mut fs = state(&plan);
            let mut out = Vec::new();
            for i in 0..500u64 {
                let f = fs.frame_fate(ms(10 + (i % 10)), HostId(0), HostId(1), 1_000);
                out.push((f.drop, f.extra.nanos(), f.duplicate.map(|d| d.nanos())));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_probability_is_roughly_honored() {
        let mut plan = FaultPlan::new(1);
        plan.add(
            ms(0),
            ms(1_000),
            Fault::Link {
                src: HostSet::All,
                dst: HostSet::All,
                symmetric: false,
                impair: LinkImpairment::loss(0.3),
            },
        );
        let mut fs = state(&plan);
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| fs.frame_fate(ms(1), HostId(0), HostId(1), 100).drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
    }
}
