//! An op's fate as a sans-IO core: one input in, one step out.
//!
//! The client "transparently retr\[ies\] GET/SET operations … subject to both
//! a user-specified deadline and retry count" (§3). This module is that
//! rule and nothing else: whether an admitted op parks (no config yet, or
//! an RMA GET short of a read quorum's geometry) or issues, when its
//! deadline fails it, how long it backs off after a failed attempt, when
//! its retry budget gives up, and that it completes once. It sends nothing,
//! counts nothing and draws no randomness of its own: the backoff jitter is
//! a closure, called only where a draw is due. Time is nanoseconds.
//! [`crate::client`] feeds it and acts on the step it gets back, so
//! `tests/attempt_exhaustive.rs` walks every order of its inputs.
//!
//! Four behaviours of the pre-extraction client are kept on purpose, each
//! on one commented line below; ROADMAP item 9 changes those lines:
//! - 9(i): a failure while backing off arms another backoff;
//! - 9(ii): an issued attempt arms no deadline of its own, so one whose
//!   lost data read leaves a quorum answered never completes;
//! - 9(vi): the latency and deadline clocks restart at issue;
//! - 9(vii): an op that has what it needs goes even past its deadline;
//!   only a short one meets it.

use rpc::RetryPolicy;

use crate::workload::OpOutcome;

/// What the client does next about an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Nothing: inputs are outstanding, or the op is over.
    Wait,
    /// Wait for a config or geometry to arrive, then ask
    /// [`Attempt::ready`] again.
    Park,
    /// The attempt with this number (from 1) may go. To a parked op this
    /// means *enter flight*: the client builds the op and asks again where
    /// the attempt leaves (a GET after paying its attempt CPU), and that
    /// answer puts it on the wire.
    Issue(u64),
    /// Ask [`Attempt::ready`] again after this many ns.
    Backoff(u64),
    /// The op is over. Its latency runs from [`Attempt::started`].
    Complete(OpOutcome),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Admitted, not yet issued.
    #[default]
    Parked,
    /// In flight, or between a launch and its wire send.
    Issued,
    /// A failed attempt is waiting out its backoff (or, its relaunch
    /// having parked, for its geometry).
    BackingOff,
    /// Completed.
    Done,
}

/// One op's lifecycle: admitted, parked, issued, retried, completed. The
/// default is a placeholder for an op not yet admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attempt {
    admitted: u64,
    /// When it left parking (its admission until then).
    issued: u64,
    /// The attempt on the wire (0: none yet); stale answers carry another.
    attempt: u64,
    /// Backoffs the retry budget has granted.
    backoffs: u32,
    phase: Phase,
    /// Issued, but parked until geometry is re-learned.
    waiting: bool,
}

impl Attempt {
    /// An op admitted at `now`.
    pub fn admit(now: u64) -> Attempt {
        let (admitted, issued) = (now, now);
        Attempt {
            admitted,
            issued,
            ..Attempt::default()
        }
    }

    /// The attempt on the wire (0: none yet).
    pub fn number(&self) -> u64 {
        self.attempt
    }

    /// Whether the op waits for a release ([`Step::Park`]).
    pub fn parked(&self) -> bool {
        self.phase == Phase::Parked || self.waiting
    }

    /// The instant the op's latency and its deadline run from.
    pub fn started(&self) -> u64 {
        match self.phase {
            Phase::Parked => self.admitted,
            // 9(vi), pinned: the latency and deadline clocks restart at issue.
            _ => self.issued,
        }
    }

    /// The op deadline, stated once: a short op fails at it, and no backoff
    /// ends at or past it.
    fn deadline(&self, policy: &RetryPolicy) -> u64 {
        policy.deadline(self.started())
    }

    fn complete(&mut self, outcome: OpOutcome) -> Step {
        (self.phase, self.waiting) = (Phase::Done, false);
        Step::Complete(outcome)
    }

    /// The op asks to go at `now`: at admission, when a config or CONNECT
    /// answer releases it, at a config timeout (with `short` set), and
    /// where each attempt leaves (a GET's after its attempt CPU, a retry's
    /// when its backoff fires). `short`: it lacks the config, or is an RMA
    /// GET short of a read quorum of base geometry. A short op parks until
    /// its deadline fails it; an op that has what it needs issues.
    pub fn ready(&mut self, now: u64, policy: &RetryPolicy, short: bool) -> Step {
        if self.phase == Phase::Done {
            return Step::Wait;
        }
        let parked = self.phase == Phase::Parked;
        self.waiting = false;
        // 9(vii), pinned: an op that has what it needs goes even past its deadline.
        if short {
            if now >= self.deadline(policy) {
                return self.complete(OpOutcome::Error);
            }
            self.waiting = !parked;
            return Step::Park;
        }
        // A parked op enters flight as the attempt it will launch; a
        // launch puts that attempt on the wire.
        match parked {
            true => self.issued = now,
            false => self.attempt += 1,
        }
        self.phase = Phase::Issued;
        // 9(ii), pinned: no deadline is armed here, so an attempt whose lost
        // data read leaves a quorum answered never completes.
        Step::Issue(self.attempt + parked as u64)
    }

    /// The attempt failed at `now`: back off on the policy's schedule, or
    /// give up on the retry budget or the deadline
    /// ([`RetryPolicy::backoff`], which calls `draw` for the jitter).
    pub fn failed(&mut self, now: u64, policy: &RetryPolicy, draw: impl FnOnce() -> f64) -> Step {
        match self.phase {
            Phase::Parked | Phase::Done => return Step::Wait,
            // 9(i), pinned: a failure while backing off arms another backoff.
            Phase::Issued | Phase::BackingOff => {}
        }
        match policy.backoff(self.backoffs, self.started(), now, draw) {
            None => self.complete(OpOutcome::Error),
            Some(backoff) => {
                self.backoffs += 1;
                self.phase = Phase::BackingOff;
                Step::Backoff(backoff)
            }
        }
    }

    /// The op settled with `outcome`: the quorum's `Hit`, `Miss`, `Done`
    /// or `Superseded`.
    pub fn settled(&mut self, outcome: OpOutcome) -> Step {
        if self.phase == Phase::Done {
            return Step::Wait;
        }
        self.complete(outcome)
    }
}

/// A MultiGet/MultiSet container's outcome: an order-independent aggregate
/// of its members', because member completion order differs between the
/// batched and unbatched wire paths and must not leak into results. Any
/// failure dominates; a GET batch is a hit when any key resolved; a
/// mutation batch is superseded when any write lost to a newer version.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// When the container was admitted.
    pub started: u64,
    /// A MultiGet, not a MultiSet.
    pub gets: bool,
    remaining: usize,
    outcome: OpOutcome,
}

impl Batch {
    /// A container of `remaining` members (at least one) admitted at
    /// `started`.
    pub fn new(remaining: usize, started: u64, gets: bool) -> Batch {
        let outcome = if gets {
            OpOutcome::Miss
        } else {
            OpOutcome::Done
        };
        Batch {
            started,
            gets,
            remaining,
            outcome,
        }
    }

    /// One member completed with `outcome`; the last one yields the
    /// container's.
    pub fn member_done(&mut self, outcome: OpOutcome) -> Option<OpOutcome> {
        let rank = |o| match o {
            OpOutcome::Error => 2,
            OpOutcome::Hit | OpOutcome::Superseded => 1,
            OpOutcome::Miss | OpOutcome::Done => 0,
        };
        if rank(outcome) > rank(self.outcome) {
            self.outcome = outcome;
        }
        self.remaining -= 1;
        (self.remaining == 0).then_some(self.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimRng};

    /// An op issued at `t` ns, with its first attempt on the wire.
    fn in_flight(policy: &RetryPolicy, t: u64) -> Attempt {
        let mut a = Attempt::admit(t);
        assert!(matches!(a.ready(t, policy, false), Step::Issue(1)));
        assert_eq!(a.ready(t, policy, false), Step::Issue(1));
        a
    }

    /// The backoffs granted to an op failing at once after each one, until
    /// it gives up.
    fn schedule(policy: &RetryPolicy, rng: &mut SimRng) -> Vec<u64> {
        let mut a = in_flight(policy, 0);
        let (mut now, mut backoffs) = (0, Vec::new());
        while let Step::Backoff(b) = a.failed(now, policy, || rng.next_f64()) {
            backoffs.push(b);
            now += b;
            a.ready(now, policy, false);
        }
        backoffs
    }

    #[test]
    fn a_failing_op_backs_off_on_the_policy_schedule_then_errors() {
        let policy = RetryPolicy {
            max_attempts: 4,
            jitter: 0.5,
            op_deadline: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::new(3);
        let backoffs = schedule(&policy, &mut rng);
        // The grants are the policy's, counted by the core: 4 attempts => 3.
        let mut rng = SimRng::new(3);
        let (mut now, mut want) = (0, Vec::new());
        for granted in 0..3 {
            let b = policy.backoff(granted, 0, now, || rng.next_f64());
            want.push(b.expect("a grant"));
            now += want[granted as usize];
        }
        assert_eq!(backoffs, want);
        // The budget spent, the next failure ends the op, and once only.
        let mut a = in_flight(&policy, 0);
        for _ in 0..3 {
            assert!(matches!(a.failed(0, &policy, || 0.0), Step::Backoff(_)));
        }
        let step = a.failed(0, &policy, || unreachable!());
        assert_eq!(step, Step::Complete(OpOutcome::Error));
        assert_eq!(a.failed(0, &policy, || unreachable!()), Step::Wait);
    }

    #[test]
    fn deadline_runs_from_admission_while_parked_and_from_issue_after() {
        let policy = RetryPolicy::default();
        let deadline = policy.op_deadline.nanos();
        let mut a = Attempt::admit(1_000);
        assert_eq!(a.ready(1_000 + deadline - 1, &policy, true), Step::Park);
        assert_eq!(a.started(), 1_000);
        assert!(matches!(a.ready(5_000, &policy, false), Step::Issue(_)));
        assert_eq!(a.started(), 5_000);
        assert_eq!(a.ready(5_000 + deadline - 1, &policy, true), Step::Park);
        assert!(a.parked());
        let step = a.ready(5_000 + deadline, &policy, true);
        assert_eq!(step, Step::Complete(OpOutcome::Error));
        assert_eq!(a.settled(OpOutcome::Hit), Step::Wait);
    }

    #[test]
    fn a_batch_outcome_ignores_member_order() {
        use OpOutcome::*;
        for (gets, members, want) in [
            (true, [Miss, Hit, Miss], Hit),
            (true, [Hit, Error, Miss], Error),
            (true, [Miss, Miss, Miss], Miss),
            (false, [Done, Superseded, Done], Superseded),
            (false, [Superseded, Done, Error], Error),
        ] {
            for rotate in 0..3 {
                let mut b = Batch::new(3, 0, gets);
                let mut order = members;
                order.rotate_left(rotate);
                assert_eq!(b.member_done(order[0]), None);
                assert_eq!(b.member_done(order[1]), None);
                assert_eq!(b.member_done(order[2]), Some(want));
            }
        }
    }
}
