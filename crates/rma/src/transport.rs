//! RMA transport profiles: Pony Express, 1RMA, and conventional RDMA.
//!
//! "Our data centers operate across several generations of networking
//! technology and RMA protocols" (Table 1, challenge 5). The three profiles
//! differ in exactly the ways the paper's §7.2.4 measures:
//!
//! | | serving path | SCAR | fixed target latency |
//! |---|---|---|---|
//! | Pony Express | software engines (scale out) | yes | engine queueing |
//! | 1RMA         | all hardware                 | no  | low, load-insensitive |
//! | RDMA         | NIC hardware                 | no  | moderate |

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{SimDuration, SimTime};

use crate::pony::{PonyCfg, PonyHost};

/// Which RMA protocol a host speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Software-defined NIC (Snap/Pony Express): programmable, supports
    /// SCAR, costs engine CPU, scales out under load.
    PonyExpress,
    /// All-hardware single-RTT RMA (1RMA): no server software on the
    /// serving path, optimized NIC↔memory PCIe interaction.
    OneRma,
    /// Conventional RDMA NIC.
    Rdma,
}

/// Per-host transport state: the protocol plus any software datapath.
///
/// The Pony engine pool is behind `Rc<RefCell<..>>` because Pony Express is
/// a *host-level* service (Snap): every process on a machine shares one set
/// of engines. Co-located nodes are handed the same pool, so co-tenant
/// hosts aggregate load exactly as the paper's Fig. 15 fleet does. A clone
/// shares the engine pool.
#[derive(Debug, Clone)]
pub struct Transport {
    /// Protocol in use.
    pub kind: TransportKind,
    /// Engine pool when `kind == PonyExpress` (shared per host).
    pub pony: Option<Rc<RefCell<PonyHost>>>,
    /// Hardware serve latency (NIC + PCIe) for hardware transports.
    pub hw_serve_latency: SimDuration,
    /// Per-kilobyte hardware payload cost (DMA).
    pub hw_per_kb: SimDuration,
}

impl Transport {
    /// A Pony Express transport with a private engine pool.
    pub fn pony(cfg: PonyCfg) -> Transport {
        Transport::pony_shared(Rc::new(RefCell::new(PonyHost::new(cfg))))
    }

    /// A Pony Express transport sharing a host-level engine pool with the
    /// other nodes on the machine.
    pub fn pony_shared(pool: Rc<RefCell<PonyHost>>) -> Transport {
        Transport {
            kind: TransportKind::PonyExpress,
            pony: Some(pool),
            hw_serve_latency: SimDuration::ZERO,
            hw_per_kb: SimDuration::ZERO,
        }
    }

    /// A 1RMA transport: ~600ns NIC+PCIe serve path, insensitive to load.
    pub fn one_rma() -> Transport {
        Transport {
            kind: TransportKind::OneRma,
            pony: None,
            hw_serve_latency: SimDuration::from_nanos(600),
            hw_per_kb: SimDuration::from_nanos(30),
        }
    }

    /// A conventional RDMA NIC: a bit slower on the target PCIe path.
    pub fn rdma() -> Transport {
        Transport {
            kind: TransportKind::Rdma,
            pony: None,
            hw_serve_latency: SimDuration::from_nanos(1_200),
            hw_per_kb: SimDuration::from_nanos(40),
        }
    }

    /// Whether the SCAR op is available (requires a programmable NIC).
    pub fn supports_scar(&self) -> bool {
        self.kind == TransportKind::PonyExpress
    }

    /// Whether the serving path runs entirely in NIC hardware, independent
    /// of the host's CPUs. This is the property behind the RMA-alive/
    /// CPU-dead gray-failure regime (Aguilera et al.): a 1RMA or RDMA host
    /// whose every process is frozen still serves remote reads from its
    /// registered memory, while Pony Express — software engines on host
    /// cores — stops with the CPU.
    pub fn cpu_independent(&self) -> bool {
        match self.kind {
            TransportKind::PonyExpress => false,
            TransportKind::OneRma | TransportKind::Rdma => true,
        }
    }

    /// Admit a serve-side op: returns when the response can go on the wire.
    /// `scan_entries` is nonzero only for SCAR.
    pub fn admit_serve(
        &mut self,
        now: SimTime,
        payload_len: usize,
        scan_entries: usize,
    ) -> SimTime {
        match self.kind {
            TransportKind::PonyExpress => {
                let pony = self.pony.as_ref().expect("pony transport has engines");
                let mut pony = pony.borrow_mut();
                let cost = if scan_entries > 0 {
                    pony.scar_cost(scan_entries, payload_len)
                } else {
                    pony.read_cost(payload_len)
                };
                pony.admit(now, cost)
            }
            TransportKind::OneRma | TransportKind::Rdma => {
                let dma = SimDuration(self.hw_per_kb.nanos() * (payload_len as u64).div_ceil(1024));
                now + self.hw_serve_latency + dma
            }
        }
    }

    /// Admit a client-side op issue (doorbell + descriptor). Hardware
    /// transports are nearly free here; Pony charges an engine.
    pub fn admit_issue(&mut self, now: SimTime) -> SimTime {
        match self.kind {
            TransportKind::PonyExpress => {
                let pony = self.pony.as_ref().expect("pony transport has engines");
                let mut pony = pony.borrow_mut();
                let cost = pony.read_cost(0);
                pony.admit(now, cost)
            }
            TransportKind::OneRma | TransportKind::Rdma => now + SimDuration::from_nanos(150),
        }
    }

    /// Admit a client-side completion (response landed; engine or
    /// completion-queue processing before the application sees it).
    pub fn admit_completion(&mut self, now: SimTime, payload_len: usize) -> SimTime {
        match self.kind {
            TransportKind::PonyExpress => {
                let pony = self.pony.as_ref().expect("pony transport has engines");
                let mut pony = pony.borrow_mut();
                let cost = pony.read_cost(payload_len);
                pony.admit(now, cost)
            }
            TransportKind::OneRma | TransportKind::Rdma => now + SimDuration::from_nanos(200),
        }
    }

    /// Engine count for heatmap sampling (1 for hardware transports).
    pub fn engine_count(&self) -> u32 {
        self.pony
            .as_ref()
            .map(|p| p.borrow().engine_count())
            .unwrap_or(1)
    }

    /// Cumulative software-NIC CPU consumed, ns (0 for hardware).
    pub fn sw_cpu_ns(&self) -> u64 {
        self.pony
            .as_ref()
            .map(|p| p.borrow().total_busy_ns)
            .unwrap_or(0)
    }

    /// Cumulative ops processed by the software NIC.
    pub fn sw_ops(&self) -> u64 {
        self.pony
            .as_ref()
            .map(|p| p.borrow().total_ops)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rma_latency_insensitive_to_load() {
        let mut t = Transport::one_rma();
        // Back-to-back ops don't queue (hardware pipeline).
        let a = t.admit_serve(SimTime(0), 4096, 0);
        let b = t.admit_serve(SimTime(0), 4096, 0);
        assert_eq!(a, b);
        assert!(a.nanos() >= 600);
    }

    #[test]
    fn pony_queues_under_load() {
        let mut t = Transport::pony(PonyCfg {
            min_engines: 1,
            max_engines: 1,
            ..PonyCfg::default()
        });
        let a = t.admit_serve(SimTime(0), 4096, 0);
        let b = t.admit_serve(SimTime(0), 4096, 0);
        assert!(b > a, "software engine must serialize");
    }

    #[test]
    fn scar_only_on_pony() {
        assert!(Transport::pony(PonyCfg::default()).supports_scar());
        assert!(!Transport::one_rma().supports_scar());
        assert!(!Transport::rdma().supports_scar());
    }

    #[test]
    fn hardware_transports_survive_cpu_death() {
        assert!(!Transport::pony(PonyCfg::default()).cpu_independent());
        assert!(Transport::one_rma().cpu_independent());
        assert!(Transport::rdma().cpu_independent());
    }

    #[test]
    fn issue_and_completion_cheap_on_hardware() {
        let mut t = Transport::one_rma();
        let i = t.admit_issue(SimTime(0));
        let c = t.admit_completion(SimTime(0), 4096);
        assert!(i.nanos() < 1_000);
        assert!(c.nanos() < 1_000);
        assert_eq!(t.sw_cpu_ns(), 0);
        assert_eq!(t.engine_count(), 1);
    }

    #[test]
    fn pony_accounts_cpu() {
        let mut t = Transport::pony(PonyCfg::default());
        t.admit_serve(SimTime(0), 1024, 0);
        t.admit_serve(SimTime(10_000), 1024, 14);
        assert!(t.sw_cpu_ns() > 0);
        assert_eq!(t.sw_ops(), 2);
    }

    #[test]
    fn rdma_slower_than_one_rma() {
        let mut r = Transport::rdma();
        let mut o = Transport::one_rma();
        assert!(r.admit_serve(SimTime(0), 4096, 0) > o.admit_serve(SimTime(0), 4096, 0));
    }
}
