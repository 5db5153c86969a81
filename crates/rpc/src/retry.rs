//! Retry policy: attempt budgets, exponential backoff, and deadlines.
//!
//! CliqueMap clients "transparently retry GET/SET operations ... subject to
//! both a user-specified deadline and retry count" (§3). This is the
//! configuration of that rule and its arithmetic: the deadline and the
//! backoff schedule a policy grants. The CliqueMap client's attempt core
//! (`cliquemap::attempt`) is the one place that applies it to an op, one
//! budget per logical operation.

use simnet::SimDuration;

/// Static retry configuration for a class of operations.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum total attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: SimDuration,
    /// Multiplier applied per subsequent attempt.
    pub multiplier: f64,
    /// Cap on a single backoff interval.
    pub max_backoff: SimDuration,
    /// Overall operation deadline from first issue.
    pub op_deadline: SimDuration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a uniform
    /// draw from `[1 - jitter, 1]`.
    /// Zero (the default) disables jitter and draws nothing from the RNG.
    /// Without jitter, clients that fail together — the signature of a
    /// fault window, not of independent load — retry together, and every
    /// backoff tier re-delivers the original incast.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: SimDuration::from_micros(10),
            multiplier: 2.0,
            max_backoff: SimDuration::from_millis(5),
            op_deadline: SimDuration::from_millis(100),
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// The deadline (ns) of an op whose clock started at `started` (ns).
    pub fn deadline(&self, started: u64) -> u64 {
        started + self.op_deadline.nanos()
    }

    /// The backoff (ns) after an attempt that failed at `now`, for an op
    /// whose clock started at `started` and that has been granted `granted`
    /// backoffs so far; `None` when the attempt budget or the deadline
    /// gives up. The exponential schedule is scaled by `1 - jitter *
    /// draw()`, so clients that failed together (a fault window, a
    /// partition heal) decorrelate instead of re-colliding at every tier;
    /// `draw` (uniform in `[0, 1)`) is called only when `jitter` is
    /// non-zero and the budget has not given up first.
    pub fn backoff(
        &self,
        granted: u32,
        started: u64,
        now: u64,
        draw: impl FnOnce() -> f64,
    ) -> Option<u64> {
        let deadline = self.deadline(started);
        if granted + 1 >= self.max_attempts || now >= deadline {
            return None;
        }
        let exp = granted.min(30) as i32;
        let backoff = self.base_backoff.nanos() as f64 * self.multiplier.powi(exp);
        let mut backoff = (backoff as u64).min(self.max_backoff.nanos());
        if self.jitter > 0.0 {
            let scale = 1.0 - self.jitter.min(1.0) * draw();
            backoff = (backoff as f64 * scale).round() as u64;
        }
        // No retry is scheduled at or past the deadline.
        (now + backoff < deadline).then_some(backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimRng;

    /// The backoffs granted to an op started at 0 that fails again the
    /// moment each backoff ends, until the policy gives up.
    fn schedule(policy: &RetryPolicy, rng: &mut SimRng) -> Vec<u64> {
        let (mut now, mut backoffs) = (0, Vec::new());
        while let Some(b) = policy.backoff(backoffs.len() as u32, 0, now, || rng.next_f64()) {
            backoffs.push(b);
            now += b;
        }
        backoffs
    }

    #[test]
    fn backoff_grows_then_gives_up() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_micros(10),
            multiplier: 2.0,
            max_backoff: SimDuration::from_millis(1),
            op_deadline: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        // 4 attempts => 3 retries.
        let backoffs = schedule(&policy, &mut SimRng::new(1));
        assert_eq!(backoffs, [10_000, 20_000, 40_000]);
    }

    #[test]
    fn backoff_caps() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: SimDuration::from_micros(100),
            multiplier: 10.0,
            max_backoff: SimDuration::from_micros(500),
            op_deadline: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff(1, 0, 0, || unreachable!()), Some(500_000));
    }

    #[test]
    fn deadline_stops_retries() {
        let policy = RetryPolicy {
            max_attempts: 1_000,
            op_deadline: SimDuration::from_micros(50),
            base_backoff: SimDuration::from_micros(10),
            ..RetryPolicy::default()
        };
        // Past the deadline: give up immediately.
        assert_eq!(policy.backoff(0, 0, 60_000, || 0.0), None);
        // Within the deadline, but the backoff (40 µs at the third grant)
        // would overshoot it.
        assert_eq!(policy.backoff(2, 0, 49_000, || 0.0), None);
        assert_eq!(policy.backoff(2, 0, 0, || 0.0), Some(40_000));
    }

    #[test]
    fn no_retries_policy() {
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff(0, 0, 0, || unreachable!()), None);
    }

    #[test]
    fn zero_jitter_is_exactly_the_unjittered_path() {
        let policy = RetryPolicy {
            max_attempts: 8,
            op_deadline: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::new(42);
        // The exponential schedule, to the nanosecond: base 10 µs doubling.
        let expected: Vec<u64> = (0..7).map(|i| 10_000u64 << i).collect();
        assert_eq!(schedule(&policy, &mut rng), expected);
        // And no randomness was consumed: the stream is untouched.
        assert_eq!(SimRng::new(42).next_u64(), rng.next_u64());
    }

    #[test]
    fn jittered_clients_decorrelate() {
        // A retry storm: many clients whose first attempts all fail at the
        // same instant. With jitter, their second attempts must spread out
        // instead of landing on one tick.
        let policy = RetryPolicy {
            jitter: 0.5,
            base_backoff: SimDuration::from_micros(100),
            op_deadline: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        let first_backoffs = |seed| {
            let mut master = SimRng::new(seed);
            (0..64)
                .map(|_| {
                    let mut rng = master.fork();
                    policy.backoff(0, 0, 0, || rng.next_f64()).expect("a retry")
                })
                .collect::<Vec<_>>()
        };
        let backoffs = first_backoffs(7);
        // Scaled into [0.5, 1.0]x of the base backoff.
        assert!(backoffs.iter().all(|b| (50_000..=100_000).contains(b)));
        let ticks: std::collections::BTreeSet<_> = backoffs.iter().collect();
        assert!(
            ticks.len() > 32,
            "retry instants collapsed onto {} ticks",
            ticks.len()
        );
        // Determinism: the same seeds produce the same schedule.
        assert_eq!(first_backoffs(7), backoffs);
    }

    #[test]
    fn deadline_accessor() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.deadline(1_000), 1_000 + policy.op_deadline.nanos());
    }
}
