//! Retry policy: attempt budgets, exponential backoff, and deadlines.
//!
//! CliqueMap clients "transparently retry GET/SET operations ... subject to
//! both a user-specified deadline and retry count" (§3). The policy object
//! is shared by the CliqueMap client library and the RPC layer; retries
//! happen *at the layer appropriate to the error*, but the budget is always
//! accounted against one [`RetryState`] per logical operation.

use simnet::{SimDuration, SimRng, SimTime};

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
    /// Jitter fraction in `[0, 1]` applied by [`RetryState::on_failure`]:
    /// each backoff is scaled by a uniform draw from `[1 - jitter, 1]`.
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
    /// Begin tracking an operation issued at `now`.
    pub fn start(&self, now: SimTime) -> RetryState {
        RetryState {
            attempts: 1,
            started_at: now,
        }
    }
}

/// Dynamic per-operation retry bookkeeping. The default is a placeholder
/// for state not yet started with [`RetryPolicy::start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryState {
    /// Attempts made so far (>=1).
    pub attempts: u32,
    /// When the first attempt was issued.
    pub started_at: SimTime,
}

/// Decision for what to do after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Try again after this backoff.
    RetryAfter(SimDuration),
    /// Budget exhausted — surface the error to the caller.
    GiveUp,
}

impl RetryState {
    /// Account a failure at `now` and decide whether to retry. The backoff
    /// is scaled by a uniform draw from `[1 - policy.jitter, 1]`, so clients
    /// whose attempts failed simultaneously (a fault window, a partition
    /// heal) decorrelate instead of re-colliding at every exponential tier.
    /// With `jitter == 0.0` the schedule is deterministic and nothing is
    /// drawn from `rng`.
    pub fn on_failure(
        &mut self,
        policy: &RetryPolicy,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RetryDecision {
        if self.attempts >= policy.max_attempts {
            return RetryDecision::GiveUp;
        }
        let elapsed = now.since(self.started_at);
        if elapsed >= policy.op_deadline {
            return RetryDecision::GiveUp;
        }
        let exp = (self.attempts - 1).min(30);
        let mut backoff_ns =
            (policy.base_backoff.nanos() as f64 * policy.multiplier.powi(exp as i32)) as u64;
        backoff_ns = backoff_ns.min(policy.max_backoff.nanos());
        if policy.jitter > 0.0 {
            let scale = 1.0 - policy.jitter.min(1.0) * rng.next_f64();
            backoff_ns = (backoff_ns as f64 * scale).round() as u64;
        }
        let backoff = SimDuration(backoff_ns);
        // Don't schedule a retry beyond the deadline.
        if elapsed + backoff >= policy.op_deadline {
            return RetryDecision::GiveUp;
        }
        self.attempts += 1;
        RetryDecision::RetryAfter(backoff)
    }

    /// Absolute deadline of the operation under `policy`.
    pub fn deadline(&self, policy: &RetryPolicy) -> SimTime {
        self.started_at + policy.op_deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_gives_up() {
        let rng = &mut SimRng::new(1);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_micros(10),
            multiplier: 2.0,
            max_backoff: SimDuration::from_millis(1),
            op_deadline: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        let mut st = policy.start(SimTime(0));
        let mut backoffs = Vec::new();
        let mut now = SimTime(0);
        while let RetryDecision::RetryAfter(b) = st.on_failure(&policy, now, rng) {
            backoffs.push(b);
            now += b;
        }
        assert_eq!(backoffs.len(), 3); // 4 attempts => 3 retries
        assert_eq!(backoffs[0], SimDuration::from_micros(10));
        assert_eq!(backoffs[1], SimDuration::from_micros(20));
        assert_eq!(backoffs[2], SimDuration::from_micros(40));
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
        let rng = &mut SimRng::new(1);
        let mut st = policy.start(SimTime(0));
        st.on_failure(&policy, SimTime(0), rng);
        match st.on_failure(&policy, SimTime(0), rng) {
            RetryDecision::RetryAfter(b) => assert_eq!(b, SimDuration::from_micros(500)),
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn deadline_stops_retries() {
        let policy = RetryPolicy {
            max_attempts: 1_000,
            op_deadline: SimDuration::from_micros(50),
            base_backoff: SimDuration::from_micros(10),
            ..RetryPolicy::default()
        };
        let rng = &mut SimRng::new(1);
        let mut st = policy.start(SimTime(0));
        // Past the deadline: give up immediately.
        assert_eq!(
            st.on_failure(&policy, SimTime(60_000), rng),
            RetryDecision::GiveUp
        );
        // Within deadline but backoff would overshoot it.
        let mut st2 = policy.start(SimTime(0));
        st2.attempts = 3;
        assert_eq!(
            st2.on_failure(&policy, SimTime(49_000), rng),
            RetryDecision::GiveUp
        );
    }

    #[test]
    fn no_retries_policy() {
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let mut st = policy.start(SimTime(0));
        let decision = st.on_failure(&policy, SimTime(0), &mut SimRng::new(1));
        assert_eq!(decision, RetryDecision::GiveUp);
    }

    #[test]
    fn zero_jitter_is_exactly_the_unjittered_path() {
        let policy = RetryPolicy {
            max_attempts: 8,
            op_deadline: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::new(42);
        let mut st = policy.start(SimTime(0));
        let mut now = SimTime(0);
        let mut backoffs = Vec::new();
        while let RetryDecision::RetryAfter(d) = st.on_failure(&policy, now, &mut rng) {
            backoffs.push(d.nanos());
            now += d;
        }
        // The exponential schedule, to the nanosecond: base 10 µs doubling.
        let expected: Vec<u64> = (0..7).map(|i| 10_000u64 << i).collect();
        assert_eq!(backoffs, expected);
        // And no randomness was consumed: the stream is untouched.
        assert_eq!(SimRng::new(42).next_u64(), rng.next_u64());
    }

    #[test]
    fn jittered_clients_decorrelate() {
        // Model a retry storm: many clients whose first attempts all fail
        // at the same instant. With jitter, their second attempts must
        // spread out instead of landing on one tick.
        let policy = RetryPolicy {
            jitter: 0.5,
            base_backoff: SimDuration::from_micros(100),
            op_deadline: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        let mut master = SimRng::new(7);
        let mut schedule = std::collections::BTreeSet::new();
        let clients = 64;
        for _ in 0..clients {
            let mut rng = master.fork();
            let mut st = policy.start(SimTime(0));
            match st.on_failure(&policy, SimTime(0), &mut rng) {
                RetryDecision::RetryAfter(b) => {
                    // Scaled into [0.5, 1.0]x of the base backoff.
                    assert!(b.nanos() >= 50_000 && b.nanos() <= 100_000, "{b}");
                    schedule.insert(b.nanos());
                }
                d => panic!("{d:?}"),
            }
        }
        assert!(
            schedule.len() > clients / 2,
            "retry instants collapsed onto {} ticks",
            schedule.len()
        );
        // Determinism: the same seeds produce the same schedule.
        let mut master2 = SimRng::new(7);
        for _ in 0..clients {
            let mut rng = master2.fork();
            let mut st = policy.start(SimTime(0));
            match st.on_failure(&policy, SimTime(0), &mut rng) {
                RetryDecision::RetryAfter(b) => assert!(schedule.contains(&b.nanos())),
                d => panic!("{d:?}"),
            }
        }
    }

    #[test]
    fn deadline_accessor() {
        let policy = RetryPolicy::default();
        let st = policy.start(SimTime(1_000));
        assert_eq!(st.deadline(&policy), SimTime(1_000) + policy.op_deadline);
    }
}
