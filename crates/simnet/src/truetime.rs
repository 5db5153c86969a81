//! A TrueTime-style bounded-uncertainty clock.
//!
//! CliqueMap's `VersionNumber` puts a TrueTime reading in its uppermost bits
//! so that retried mutations from one client eventually nominate the highest
//! version (per-client forward progress, §5.2 of the paper). The simulator
//! reproduces the *interface*: a read returns an interval `[earliest,
//! latest]` guaranteed to contain the true instant, where each node's local
//! clock deviates from true simulation time by a fixed, deterministic skew
//! bounded by the configured uncertainty.

use crate::rng::SimRng;
use crate::time::SimTime;

/// Global TrueTime configuration.
#[derive(Debug, Clone)]
pub struct TrueTime {
    /// Worst-case clock uncertainty (ε), in nanoseconds. Spanner reports
    /// single-digit milliseconds; we default to 1 ms.
    pub epsilon_ns: u64,
    /// Maximum per-node skew from true time, in nanoseconds. Must be less
    /// than or equal to `epsilon_ns` for intervals to be truthful.
    pub max_skew_ns: u64,
}

impl Default for TrueTime {
    fn default() -> Self {
        TrueTime {
            epsilon_ns: 1_000_000,
            max_skew_ns: 500_000,
        }
    }
}

/// One TrueTime read: an interval guaranteed to contain true time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrueTimestamp {
    /// Lower bound on the true instant (ns since sim start).
    pub earliest: u64,
    /// Upper bound on the true instant (ns since sim start).
    pub latest: u64,
}

impl TrueTimestamp {
    /// The midpoint, used as the physical component of version numbers.
    pub fn midpoint(&self) -> u64 {
        self.earliest + (self.latest - self.earliest) / 2
    }
}

impl TrueTime {
    /// Draw a deterministic per-node skew in `[-max_skew, +max_skew]`.
    pub fn sample_skew(&self, rng: &mut SimRng) -> i64 {
        if self.max_skew_ns == 0 {
            return 0;
        }
        let span = 2 * self.max_skew_ns + 1;
        rng.gen_range(span) as i64 - self.max_skew_ns as i64
    }

    /// Produce a read at true time `now` for a node with the given skew.
    pub fn read(&self, now: SimTime, skew_ns: i64) -> TrueTimestamp {
        let local = now.nanos() as i64 + skew_ns;
        let local = local.max(0) as u64;
        TrueTimestamp {
            earliest: local.saturating_sub(self.epsilon_ns),
            latest: local + self.epsilon_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_true_time() {
        let tt = TrueTime::default();
        let mut rng = SimRng::new(1);
        for i in 0..1000u64 {
            let now = SimTime(i * 1_000_000);
            let skew = tt.sample_skew(&mut rng);
            assert!(skew.unsigned_abs() <= tt.max_skew_ns);
            let ts = tt.read(now, skew);
            assert!(ts.earliest <= now.nanos() || now.nanos() < tt.epsilon_ns);
            assert!(ts.latest >= now.nanos());
        }
    }

    #[test]
    fn midpoint_monotone_per_node() {
        let tt = TrueTime::default();
        let skew = -250_000;
        let a = tt.read(SimTime(10_000_000), skew);
        let b = tt.read(SimTime(20_000_000), skew);
        assert!(a.midpoint() < b.midpoint());
    }

    #[test]
    fn zero_skew_configuration() {
        let tt = TrueTime {
            epsilon_ns: 0,
            max_skew_ns: 0,
        };
        let mut rng = SimRng::new(2);
        assert_eq!(tt.sample_skew(&mut rng), 0);
        let ts = tt.read(SimTime(5), 0);
        assert_eq!(ts.earliest, 5);
        assert_eq!(ts.latest, 5);
        assert_eq!(ts.midpoint(), 5);
    }
}
