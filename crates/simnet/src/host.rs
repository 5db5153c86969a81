//! Host model: identifiers, NIC serialization state, and a multi-core CPU
//! with optional C-state (power-saving) exit penalties.
//!
//! A host is the unit of physical resource sharing. Multiple logical
//! [`Node`](crate::node::Node)s may be co-located on one host (e.g. a
//! CliqueMap backend plus several clients, as in the paper's "co-tenant"
//! machines) and then contend for its NIC and cores.
//!
//! Host state is stored structure-of-arrays in [`Hosts`], indexed by
//! [`HostId`]: the per-frame NIC fields, the per-admission CPU fields, and
//! the per-core free-at instants each live in their own contiguous array.
//! At paper scale (~1000 hosts) the whole NIC table is ~48KB and the CPU
//! table ~24KB — both cache-resident — where the former array-of-structs
//! layout dragged the cold config, core vector header, and frame-pool
//! handle into every NIC touch.

use crate::time::{serialization_delay, SimDuration, SimTime};

/// Identifies a host (machine) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Identifies a logical node (process) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Static configuration of one host.
#[derive(Debug, Clone)]
pub struct HostCfg {
    /// Sustained NIC transmit bandwidth in Gbps.
    pub tx_gbps: f64,
    /// Sustained NIC receive bandwidth in Gbps.
    pub rx_gbps: f64,
    /// Number of general-purpose cores available to application work.
    pub cores: u32,
    /// Idle gap after which a core enters a deep C-state; the next task on
    /// that core pays [`HostCfg::cstate_exit`]. Zero disables the model.
    pub cstate_idle: SimDuration,
    /// Latency penalty to wake a core from a deep C-state.
    pub cstate_exit: SimDuration,
}

impl Default for HostCfg {
    fn default() -> Self {
        // A Skylake-era host on a 50 Gbps fabric, per the paper's testbed.
        HostCfg {
            tx_gbps: 50.0,
            rx_gbps: 50.0,
            cores: 8,
            cstate_idle: SimDuration::from_micros(200),
            cstate_exit: SimDuration::from_micros(20),
        }
    }
}

impl HostCfg {
    /// Convenience: a host with symmetric bandwidth and the default CPU.
    pub fn with_gbps(gbps: f64) -> HostCfg {
        HostCfg {
            tx_gbps: gbps,
            rx_gbps: gbps,
            ..HostCfg::default()
        }
    }

    /// Disable C-state modelling (cores always hot).
    pub fn no_cstates(mut self) -> HostCfg {
        self.cstate_idle = SimDuration::ZERO;
        self.cstate_exit = SimDuration::ZERO;
        self
    }
}

/// Hot NIC state of one host: everything the per-frame TX/RX admission
/// path reads or writes, and nothing else (48 bytes).
#[derive(Debug, Clone, Copy)]
struct Nic {
    tx_free_at: SimTime,
    rx_free_at: SimTime,
    tx_gbps: f64,
    rx_gbps: f64,
    tx_bytes: u64,
    rx_bytes: u64,
}

/// Hot CPU state of one host. The per-core free-at instants live in the
/// shared [`Hosts::cores`] arena at `core_off .. core_off + core_cnt`.
#[derive(Debug, Clone, Copy)]
struct Cpu {
    core_off: u32,
    core_cnt: u32,
    cstate_idle_ns: u64,
    cstate_exit_ns: u64,
    busy_ns: u64,
}

/// Result of admitting a task onto a host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuAdmission {
    /// When the task actually begins executing (>= submission time).
    pub start: SimTime,
    /// When the task completes.
    pub done: SimTime,
    /// Whether a C-state exit penalty was charged.
    pub cold_start: bool,
}

/// By-value accounting snapshot of one host, returned by
/// [`Sim::host`](crate::sim::Sim::host) for harness-side reads.
#[derive(Debug, Clone, Copy)]
pub struct HostStats {
    /// Cumulative busy nanoseconds across all cores (for utilization).
    pub cpu_busy_ns: u64,
    /// Cumulative bytes through TX (for bandwidth accounting).
    pub tx_bytes: u64,
    /// Cumulative bytes through RX.
    pub rx_bytes: u64,
    /// Number of cores on the host.
    pub cores: usize,
}

/// All hosts of a simulation, structure-of-arrays, indexed by [`HostId`].
#[derive(Debug, Default)]
pub struct Hosts {
    nic: Vec<Nic>,
    cpu: Vec<Cpu>,
    /// Flattened per-core free-at instants for every host.
    cores: Vec<SimTime>,
    /// Cold: construction-time configuration (kept for inspection).
    cfgs: Vec<HostCfg>,
}

impl Hosts {
    /// An empty host table.
    pub fn new() -> Hosts {
        Hosts::default()
    }

    /// Add a host; returns its id.
    pub fn add(&mut self, cfg: HostCfg) -> HostId {
        let id = HostId(self.nic.len() as u32);
        let core_cnt = cfg.cores.max(1);
        let core_off = self.cores.len() as u32;
        self.cores
            .extend(std::iter::repeat_n(SimTime::ZERO, core_cnt as usize));
        self.nic.push(Nic {
            tx_free_at: SimTime::ZERO,
            rx_free_at: SimTime::ZERO,
            tx_gbps: cfg.tx_gbps,
            rx_gbps: cfg.rx_gbps,
            tx_bytes: 0,
            rx_bytes: 0,
        });
        self.cpu.push(Cpu {
            core_off,
            core_cnt,
            cstate_idle_ns: cfg.cstate_idle.nanos(),
            cstate_exit_ns: cfg.cstate_exit.nanos(),
            busy_ns: 0,
        });
        self.cfgs.push(cfg);
        id
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.nic.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.nic.is_empty()
    }

    /// Admit `wire_bytes` to `h`'s TX path at `now`; returns the departure
    /// time of the last bit.
    pub fn admit_tx(&mut self, h: HostId, now: SimTime, wire_bytes: u64) -> SimTime {
        let n = &mut self.nic[h.0 as usize];
        let start = now.max(n.tx_free_at);
        let done = start + serialization_delay(wire_bytes, n.tx_gbps);
        n.tx_free_at = done;
        n.tx_bytes += wire_bytes;
        done
    }

    /// Instant at which `h`'s TX path frees up (trace attribution).
    pub fn tx_free_at(&self, h: HostId) -> SimTime {
        self.nic[h.0 as usize].tx_free_at
    }

    /// Instant at which `h`'s RX path frees up (trace attribution).
    pub fn rx_free_at(&self, h: HostId) -> SimTime {
        self.nic[h.0 as usize].rx_free_at
    }

    /// Admit `wire_bytes` to `h`'s RX path when the first bit arrives at
    /// `arrival`; returns the delivery time of the last bit. This is where
    /// incast shows up: concurrent senders serialize on the receiver's link.
    pub fn admit_rx(&mut self, h: HostId, arrival: SimTime, wire_bytes: u64) -> SimTime {
        let n = &mut self.nic[h.0 as usize];
        let start = arrival.max(n.rx_free_at);
        let done = start + serialization_delay(wire_bytes, n.rx_gbps);
        n.rx_free_at = done;
        n.rx_bytes += wire_bytes;
        done
    }

    /// Admit a CPU task of length `work` submitted at `now` on `h`. Tasks
    /// are scheduled work-conserving FIFO onto the earliest-free core.
    pub fn admit_cpu(&mut self, h: HostId, now: SimTime, work: SimDuration) -> CpuAdmission {
        self.admit_cpu_scaled(h, now, work, 1.0)
    }

    /// Like [`Hosts::admit_cpu`] but with the task's execution time scaled
    /// by `scale` (> 1 runs slower). This is the fault-injection straggler
    /// hook: a gray-failed host executes the *same logical work* at a
    /// multiple of its normal cost, and the inflation shows up in busy-ns
    /// accounting just like real antagonist interference would.
    pub fn admit_cpu_scaled(
        &mut self,
        h: HostId,
        now: SimTime,
        work: SimDuration,
        scale: f64,
    ) -> CpuAdmission {
        let c = &mut self.cpu[h.0 as usize];
        let work = if scale == 1.0 {
            work
        } else {
            SimDuration((work.nanos() as f64 * scale).round() as u64)
        };
        let cores = &mut self.cores[c.core_off as usize..(c.core_off + c.core_cnt) as usize];
        // Earliest-free core (first minimum, matching the pre-SoA layout).
        let (idx, &free_at) = cores
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("host has at least one core");
        let mut start = now.max(free_at);
        let idle = start.since(free_at);
        let mut cold = false;
        if c.cstate_idle_ns > 0 && idle.nanos() >= c.cstate_idle_ns && c.cstate_exit_ns > 0 {
            start += SimDuration(c.cstate_exit_ns);
            cold = true;
        }
        let done = start + work;
        cores[idx] = done;
        c.busy_ns += work.nanos();
        CpuAdmission {
            start,
            done,
            cold_start: cold,
        }
    }

    /// Number of cores on host `h`.
    pub fn core_count(&self, h: HostId) -> usize {
        self.cpu[h.0 as usize].core_cnt as usize
    }

    /// How many of `h`'s cores are busy at instant `t`.
    pub fn busy_cores_at(&self, h: HostId, t: SimTime) -> usize {
        let c = &self.cpu[h.0 as usize];
        self.cores[c.core_off as usize..(c.core_off + c.core_cnt) as usize]
            .iter()
            .filter(|&&free| free > t)
            .count()
    }

    /// Configuration host `h` was created with.
    pub fn cfg(&self, h: HostId) -> &HostCfg {
        &self.cfgs[h.0 as usize]
    }

    /// Accounting snapshot of host `h`.
    pub fn stats(&self, h: HostId) -> HostStats {
        let n = &self.nic[h.0 as usize];
        let c = &self.cpu[h.0 as usize];
        HostStats {
            cpu_busy_ns: c.busy_ns,
            tx_bytes: n.tx_bytes,
            rx_bytes: n.rx_bytes,
            cores: c.core_cnt as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_host() -> (Hosts, HostId) {
        let mut hs = Hosts::new();
        let h = hs.add(HostCfg::with_gbps(100.0).no_cstates());
        (hs, h)
    }

    #[test]
    fn tx_serializes_back_to_back() {
        let (mut hs, h) = one_host();
        // 1250 bytes at 100 Gbps = 100ns each.
        let d1 = hs.admit_tx(h, SimTime(0), 1250);
        let d2 = hs.admit_tx(h, SimTime(0), 1250);
        assert_eq!(d1, SimTime(100));
        assert_eq!(d2, SimTime(200));
        assert_eq!(hs.stats(h).tx_bytes, 2500);
    }

    #[test]
    fn tx_idle_gap_resets_queue() {
        let (mut hs, h) = one_host();
        hs.admit_tx(h, SimTime(0), 1250);
        let d = hs.admit_tx(h, SimTime(1_000), 1250);
        assert_eq!(d, SimTime(1_100));
    }

    #[test]
    fn rx_incast_serializes() {
        let (mut hs, h) = one_host();
        // Three frames arriving simultaneously queue behind each other.
        let a = hs.admit_rx(h, SimTime(500), 1250);
        let b = hs.admit_rx(h, SimTime(500), 1250);
        let c = hs.admit_rx(h, SimTime(500), 1250);
        assert_eq!(a, SimTime(600));
        assert_eq!(b, SimTime(700));
        assert_eq!(c, SimTime(800));
    }

    #[test]
    fn cpu_fifo_across_cores() {
        let mut hs = Hosts::new();
        let h = hs.add(HostCfg {
            cores: 2,
            ..HostCfg::with_gbps(100.0).no_cstates()
        });
        let w = SimDuration::from_micros(10);
        let a = hs.admit_cpu(h, SimTime(0), w);
        let b = hs.admit_cpu(h, SimTime(0), w);
        let c = hs.admit_cpu(h, SimTime(0), w);
        assert_eq!(a.start, SimTime(0));
        assert_eq!(b.start, SimTime(0));
        // Third task waits for a core.
        assert_eq!(c.start, a.done.min(b.done));
        assert_eq!(hs.stats(h).cpu_busy_ns, 30_000);
    }

    #[test]
    fn cstate_penalty_applies_after_idle() {
        let cfg = HostCfg {
            cores: 1,
            cstate_idle: SimDuration::from_micros(100),
            cstate_exit: SimDuration::from_micros(20),
            ..HostCfg::with_gbps(100.0)
        };
        let mut hs = Hosts::new();
        let h = hs.add(cfg);
        let w = SimDuration::from_micros(1);
        // First task at t=200us: core idle since 0 -> cold start.
        let a = hs.admit_cpu(h, SimTime(200_000), w);
        assert!(a.cold_start);
        assert_eq!(a.start, SimTime(220_000));
        // Back-to-back task: hot.
        let b = hs.admit_cpu(h, SimTime(221_000), w);
        assert!(!b.cold_start);
        assert_eq!(b.start, SimTime(221_000));
    }

    #[test]
    fn scaled_admission_inflates_work() {
        let mut hs = Hosts::new();
        let h = hs.add(HostCfg {
            cores: 1,
            ..HostCfg::with_gbps(100.0).no_cstates()
        });
        let w = SimDuration::from_micros(10);
        let slow = hs.admit_cpu_scaled(h, SimTime(0), w, 8.0);
        assert_eq!(slow.done, SimTime(80_000));
        assert_eq!(hs.stats(h).cpu_busy_ns, 80_000);
        // Scale 1.0 is exactly the unscaled path.
        let (mut a, ha) = one_host();
        let (mut b, hb) = one_host();
        assert_eq!(
            a.admit_cpu(ha, SimTime(5), w),
            b.admit_cpu_scaled(hb, SimTime(5), w, 1.0)
        );
    }

    #[test]
    fn busy_cores_counts() {
        let mut hs = Hosts::new();
        let h = hs.add(HostCfg {
            cores: 4,
            ..HostCfg::with_gbps(100.0).no_cstates()
        });
        hs.admit_cpu(h, SimTime(0), SimDuration::from_micros(10));
        hs.admit_cpu(h, SimTime(0), SimDuration::from_micros(10));
        assert_eq!(hs.busy_cores_at(h, SimTime(5_000)), 2);
        assert_eq!(hs.busy_cores_at(h, SimTime(20_000)), 0);
        assert_eq!(hs.core_count(h), 4);
    }

    #[test]
    fn core_arena_isolates_hosts() {
        // Two hosts with different core counts: admissions on one must not
        // perturb the other's arena slice.
        let mut hs = Hosts::new();
        let h1 = hs.add(HostCfg {
            cores: 2,
            ..HostCfg::with_gbps(100.0).no_cstates()
        });
        let h2 = hs.add(HostCfg {
            cores: 1,
            ..HostCfg::with_gbps(100.0).no_cstates()
        });
        let w = SimDuration::from_micros(10);
        hs.admit_cpu(h1, SimTime(0), w);
        hs.admit_cpu(h1, SimTime(0), w);
        let b = hs.admit_cpu(h2, SimTime(0), w);
        assert_eq!(b.start, SimTime(0), "h2's core must be free");
        assert_eq!(hs.busy_cores_at(h1, SimTime(1)), 2);
        assert_eq!(hs.busy_cores_at(h2, SimTime(1)), 1);
        assert_eq!(hs.stats(h1).cpu_busy_ns, 20_000);
        assert_eq!(hs.stats(h2).cpu_busy_ns, 10_000);
    }
}
