//! Pony Express engine model: a software-defined NIC that scales out.
//!
//! Pony Express (Snap/SOSP'19) runs the RMA datapath in user-space engines —
//! single-threaded event loops that may time-multiplex one core or each
//! scale out to a dedicated core under load. CliqueMap's Figure 15 shows
//! the consequence: as offered load ramps, hosts progressively dedicate
//! more cores to Pony engines (co-tenant hosts first), and tail latency
//! *drops* when client-side engines scale out because receive processing
//! parallelises.
//!
//! The model: a [`PonyHost`] owns `N` virtual engines, each a FIFO queue
//! with a `busy_until` horizon. Ops go to the least-busy engine. A
//! utilization window drives scale-out (add an engine when recent
//! utilization crosses the high watermark) and scale-in (remove when it
//! falls below the low watermark), bounded by `[min_engines, max_engines]`.

use simnet::{SimDuration, SimTime};

/// Configuration of the Pony Express engine pool on one host.
#[derive(Debug, Clone)]
pub struct PonyCfg {
    /// Engines at startup (and the scale-in floor).
    pub min_engines: u32,
    /// Scale-out ceiling (bounded by host cores in practice).
    pub max_engines: u32,
    /// Fixed engine CPU cost to process one RMA op (issue or serve).
    pub op_cost: SimDuration,
    /// Per-kilobyte payload touch cost (copies, checksums).
    pub per_kb: SimDuration,
    /// Utilization accounting window.
    pub window: SimDuration,
}

/// Additional SCAR cost per IndexEntry scanned.
const SCAN_PER_ENTRY: SimDuration = SimDuration::from_nanos(15);

/// Scale out when windowed utilization exceeds this.
const HIGH_WATERMARK: f64 = 0.75;

/// Scale in when windowed utilization falls below this.
const LOW_WATERMARK: f64 = 0.25;

impl Default for PonyCfg {
    fn default() -> Self {
        // Calibrated against the paper's Fig. 7: a Pony RMA op costs a few
        // hundred ns of engine CPU on each side.
        PonyCfg {
            min_engines: 1,
            max_engines: 4,
            op_cost: SimDuration::from_nanos(400),
            per_kb: SimDuration::from_nanos(40),
            window: SimDuration::from_micros(100),
        }
    }
}

/// Runtime state of one host's Pony engine pool.
#[derive(Debug)]
pub struct PonyHost {
    cfg: PonyCfg,
    engines: Vec<SimTime>,
    window_start: SimTime,
    window_busy_ns: u64,
    /// Total engine CPU nanoseconds consumed (for CPU/op accounting).
    pub total_busy_ns: u64,
    /// Total ops processed.
    pub total_ops: u64,
}

impl PonyHost {
    /// Create an engine pool.
    pub fn new(cfg: PonyCfg) -> PonyHost {
        let n = cfg.min_engines.max(1) as usize;
        PonyHost {
            cfg,
            engines: vec![SimTime::ZERO; n],
            window_start: SimTime::ZERO,
            window_busy_ns: 0,
            total_busy_ns: 0,
            total_ops: 0,
        }
    }

    /// Current engine count (the Fig. 15 heatmap quantity).
    pub fn engine_count(&self) -> u32 {
        self.engines.len() as u32
    }

    /// Admit one op of the given engine cost at `now`; returns when the
    /// engine completes it (queueing + processing).
    pub fn admit(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        self.maybe_rescale(now);
        let (idx, &free_at) = self
            .engines
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one engine");
        let start = now.max(free_at);
        let done = start + cost;
        self.engines[idx] = done;
        self.window_busy_ns += cost.nanos();
        self.total_busy_ns += cost.nanos();
        self.total_ops += 1;
        done
    }

    /// Engine cost of a plain RMA read of `payload_len` bytes.
    pub fn read_cost(&self, payload_len: usize) -> SimDuration {
        self.cfg.op_cost + self.touch_cost(payload_len)
    }

    /// Engine cost of serving a SCAR op that scans `entries` IndexEntries
    /// and returns `payload_len` bytes.
    pub fn scar_cost(&self, entries: usize, payload_len: usize) -> SimDuration {
        self.cfg.op_cost
            + SCAN_PER_ENTRY.saturating_mul(entries as u64)
            + self.touch_cost(payload_len)
    }

    fn touch_cost(&self, payload_len: usize) -> SimDuration {
        SimDuration(self.cfg.per_kb.nanos() * (payload_len as u64).div_ceil(1024))
    }

    fn maybe_rescale(&mut self, now: SimTime) {
        let elapsed = now.since(self.window_start);
        if elapsed < self.cfg.window {
            return;
        }
        let capacity_ns = elapsed.nanos().saturating_mul(self.engines.len() as u64);
        let utilization = if capacity_ns == 0 {
            0.0
        } else {
            self.window_busy_ns as f64 / capacity_ns as f64
        };
        if utilization > HIGH_WATERMARK && (self.engines.len() as u32) < self.cfg.max_engines {
            self.engines.push(now);
        } else if utilization < LOW_WATERMARK && (self.engines.len() as u32) > self.cfg.min_engines
        {
            self.engines.pop();
        }
        self.window_start = now;
        self.window_busy_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PonyCfg {
        PonyCfg {
            min_engines: 1,
            max_engines: 4,
            window: SimDuration::from_micros(10),
            ..PonyCfg::default()
        }
    }

    #[test]
    fn single_engine_serializes() {
        let mut p = PonyHost::new(cfg());
        let c = SimDuration::from_nanos(400);
        let a = p.admit(SimTime(0), c);
        let b = p.admit(SimTime(0), c);
        assert_eq!(a, SimTime(400));
        assert_eq!(b, SimTime(800));
        assert_eq!((p.total_ops, p.total_busy_ns), (2, 800));
    }

    #[test]
    fn scales_out_under_load() {
        let mut p = PonyHost::new(cfg());
        // Saturate one engine: 400ns ops arriving every 100ns.
        let mut t = 0u64;
        for _ in 0..2_000 {
            p.admit(SimTime(t), SimDuration::from_nanos(400));
            t += 100;
        }
        assert!(p.engine_count() > 1, "never scaled out");
        assert!(p.engine_count() <= 4);
    }

    #[test]
    fn scales_back_in_when_idle() {
        let mut p = PonyHost::new(cfg());
        let mut t = 0u64;
        for _ in 0..2_000 {
            p.admit(SimTime(t), SimDuration::from_nanos(400));
            t += 100;
        }
        let peak = p.engine_count();
        assert!(peak > 1);
        // Now trickle: one tiny op per 100us.
        for _ in 0..50 {
            t += 100_000;
            p.admit(SimTime(t), SimDuration::from_nanos(400));
        }
        assert_eq!(p.engine_count(), 1, "did not scale back in");
    }

    #[test]
    fn respects_max_engines() {
        let mut p = PonyHost::new(PonyCfg {
            max_engines: 2,
            ..cfg()
        });
        let mut t = 0u64;
        for _ in 0..5_000 {
            p.admit(SimTime(t), SimDuration::from_micros(1));
            t += 100;
        }
        assert_eq!(p.engine_count(), 2);
    }

    #[test]
    fn scar_cost_exceeds_read_cost() {
        let p = PonyHost::new(PonyCfg::default());
        let read = p.read_cost(1024);
        let scar = p.scar_cost(14, 1024);
        assert!(scar > read);
        // But far below a second full op.
        assert!(scar < read.saturating_mul(2));
    }

    #[test]
    fn payload_size_increases_cost() {
        let p = PonyHost::new(PonyCfg::default());
        assert!(p.read_cost(64 * 1024) > p.read_cost(64));
    }
}
