//! Every order of one op's lifecycle inputs, enumerated: the attempt core
//! (`cliquemap::attempt`) beside the quorum, repair and handoff cores.
//!
//! An op is admitted with or without what it needs (a config, and for an
//! RMA GET a read quorum of geometry). From there the walk feeds the core
//! every input its interpreter can, in every order: releases (a config or
//! CONNECT answer) and config timeouts while it is parked; the launch of
//! each attempt (after admission, when a backoff fires) and the release of
//! a launch that parked; and each attempt's answers — 0–3 failures (a
//! quorum `Retry`, the second `Retry` of 9(i), a `ConfigMismatch` per
//! newer-stamped bucket) and then a settle or nothing (9(ii)). Every input
//! comes at a time before, at or after the op's deadline, under
//! `max_attempts` ∈ {1, 2, 3} with jitter off and on. After every step the
//! walk checks the rules below against a reference model, and it counts
//! the leaves where each pinned behaviour (ROADMAP 9) shows.

use std::cell::Cell;

use cliquemap::attempt::{Attempt, Step};
use cliquemap::workload::OpOutcome;
use rpc::RetryPolicy;
use simnet::SimDuration;

/// The op deadline, in ns.
const D: u64 = 100;
/// When the op is admitted.
const ADMIT: u64 = 1_000;
/// What the jitter draw returns.
const DRAW: f64 = 0.5;
/// Inputs per path, past which the walk stops (an op that parks forever
/// would otherwise take config timeouts forever).
const MAX_INPUTS: u8 = 9;

struct Case {
    policy: RetryPolicy,
    /// An RMA GET: a launch can find it short of geometry.
    geometry: bool,
}

/// One path through the op so far. `Copy`, like the core, so the walk
/// branches by value.
#[derive(Clone, Copy)]
struct World {
    a: Attempt,
    now: u64,
    inputs: u8,
    /// The admission `Issue` came: the op is in flight.
    issued: bool,
    /// Launches the interpreter owes: the first one after admission, then
    /// one per backoff timer.
    owed: u8,
    /// Backoffs the budget granted.
    backoffs: u32,
    /// A backoff was armed since the last launch.
    backing_off: bool,
    /// The live attempt's answers still to come: failures, then a settle
    /// if `settles`.
    failures: u8,
    settles: bool,
    /// Pinned behaviours this path has shown.
    double_backoff: bool,
    late_issue: bool,
}

#[derive(Default, Debug)]
struct Tally {
    leaves: u64,
    errors: u64,
    settled: u64,
    cut: u64,
    draws: u64,
    /// 9(i): a failure while backing off armed another backoff.
    double_backoffs: u64,
    /// 9(ii): an issued attempt got no terminal answer and nothing ever
    /// completes the op.
    hangs: u64,
    /// 9(vi): a completed op's latency and deadline ran from its issue,
    /// not its admission.
    restarted_clocks: u64,
    /// 9(vii): an attempt issued at or past its deadline.
    late_issues: u64,
}

impl World {
    /// The instants an input can come at: now, or just before, at or just
    /// after the op's deadline.
    fn times(&self) -> Vec<u64> {
        let dl = self.a.started() + D;
        let mut at: Vec<u64> = [self.now, dl - 1, dl, dl + 1]
            .into_iter()
            .filter(|&t| t >= self.now)
            .collect();
        at.dedup();
        at
    }
}

/// The backoff the reference schedule grants after `backoffs` of them.
fn reference_backoff(policy: &RetryPolicy, backoffs: u32) -> u64 {
    let exp = policy.base_backoff.nanos() as f64 * policy.multiplier.powi(backoffs as i32);
    let ns = (exp as u64).min(policy.max_backoff.nanos());
    match policy.jitter > 0.0 {
        true => (ns as f64 * (1.0 - policy.jitter * DRAW)).round() as u64,
        false => ns,
    }
}

fn walk(case: &Case, w: World, t: &mut Tally) {
    if w.inputs >= MAX_INPUTS {
        t.leaves += 1;
        t.cut += 1;
        return;
    }
    let mut any = false;
    let shorts: &[bool] = if case.geometry {
        &[true, false]
    } else {
        &[false]
    };
    // Parked: admission, a release, or (short) a config timeout.
    if !w.issued {
        for now in w.times() {
            for short in [true, false] {
                any = true;
                ready(case, w, now, short, false, t);
            }
        }
    }
    // An owed launch; the release of a launch that parked.
    for launch in [true, false] {
        if w.issued && (if launch { w.owed > 0 } else { w.a.parked() }) {
            for now in w.times() {
                for &short in shorts {
                    any = true;
                    ready(case, w, now, short, launch, t);
                }
            }
        }
    }
    // The live attempt's next answer.
    if w.failures > 0 {
        for now in w.times() {
            any = true;
            failed(case, w, now, t);
        }
    } else if w.settles {
        any = true;
        for outcome in [
            OpOutcome::Hit,
            OpOutcome::Miss,
            OpOutcome::Done,
            OpOutcome::Superseded,
        ] {
            let mut n = w;
            n.inputs += 1;
            assert_eq!(n.a.settled(outcome), Step::Complete(outcome));
            t.settled += 1;
            finish(case, &n, t);
        }
    }
    if !any {
        // Issued, nothing owed, nothing parked, no answer coming.
        assert!(w.issued && w.owed == 0 && !w.a.parked() && !w.settles);
        t.leaves += 1;
        t.hangs += 1;
    }
}

/// Feed `ready`; `launch`: an owed launch is spent on it.
fn ready(case: &Case, mut w: World, now: u64, short: bool, launch: bool, t: &mut Tally) {
    let (before, deadline) = (w.a, w.a.started() + D);
    w.now = now;
    w.inputs += 1;
    w.owed -= launch as u8;
    match w.a.ready(now, &case.policy, short) {
        Step::Complete(outcome) => {
            assert_eq!(outcome, OpOutcome::Error);
            assert!(
                short && now >= deadline,
                "only a short op meets its deadline"
            );
            t.errors += 1;
            finish(case, &w, t);
        }
        Step::Park => {
            assert!(
                short && now < deadline,
                "a short op parks until its deadline"
            );
            assert!(w.a.parked());
            walk(case, w, t);
        }
        Step::Issue(attempt) => {
            assert!(!short, "a short op never issues");
            assert!(!w.a.parked());
            assert_eq!(attempt, before.number() + 1);
            w.late_issue |= now >= deadline;
            if !w.issued {
                // Admission: in flight, the first launch owed.
                assert_eq!(w.a.number(), before.number());
                assert_eq!(w.a.started(), now);
                (w.issued, w.owed) = (true, 1);
                return walk(case, w, t);
            }
            assert_eq!(w.a.number(), attempt);
            let budget = case.policy.max_attempts as u64;
            assert!(
                attempt <= budget,
                "attempt {attempt} past a budget of {budget}"
            );
            w.backing_off = false;
            // Earlier attempts' answers are stale now; this one's script.
            for failures in 0..=3 {
                for settles in [true, false] {
                    walk(
                        case,
                        World {
                            failures,
                            settles,
                            ..w
                        },
                        t,
                    );
                }
            }
        }
        step => panic!("ready returned {step:?}"),
    }
}

fn failed(case: &Case, mut w: World, now: u64, t: &mut Tally) {
    let policy = &case.policy;
    let (elapsed, deadline) = (now - w.a.started(), w.a.started() + D);
    let draws = Cell::new(0);
    w.now = now;
    w.inputs += 1;
    w.failures -= 1;
    let step = w.a.failed(now, policy, || {
        draws.set(draws.get() + 1);
        DRAW
    });
    let budget_left = w.backoffs + 1 < policy.max_attempts;
    let drawn = policy.jitter > 0.0 && budget_left && elapsed < D;
    assert_eq!(
        draws.get(),
        drawn as u32,
        "a draw exactly when jitter is on and the budget has not given up first"
    );
    t.draws += draws.get() as u64;
    let backoff = reference_backoff(policy, w.backoffs);
    let goes = budget_left && elapsed + backoff < D;
    match step {
        Step::Backoff(ns) => {
            assert!(goes, "a backoff the budget or the deadline forbids");
            assert_eq!(ns, backoff);
            assert!(now + ns < deadline, "a backoff past the deadline");
            w.double_backoff |= w.backing_off;
            w.backing_off = true;
            w.backoffs += 1;
            w.owed += 1;
            walk(case, w, t);
        }
        Step::Complete(outcome) => {
            assert!(!goes, "gave up with budget and time left");
            assert_eq!(outcome, OpOutcome::Error);
            t.errors += 1;
            finish(case, &w, t);
        }
        step => panic!("failed returned {step:?}"),
    }
}

/// The op completed: nothing follows, and the pinned behaviours of its
/// path are counted.
fn finish(case: &Case, w: &World, t: &mut Tally) {
    let mut a = w.a;
    for short in [true, false] {
        assert_eq!(a.ready(w.now + D, &case.policy, short), Step::Wait);
    }
    let step = a.failed(w.now, &case.policy, || panic!("a draw after completion"));
    assert_eq!(step, Step::Wait);
    assert_eq!(a.settled(OpOutcome::Hit), Step::Wait, "a second Complete");
    assert!(!a.parked());
    t.leaves += 1;
    t.double_backoffs += w.double_backoff as u64;
    t.late_issues += w.late_issue as u64;
    t.restarted_clocks += (a.started() != ADMIT) as u64;
}

impl Tally {
    fn add(&mut self, t: &Tally) {
        self.leaves += t.leaves;
        self.errors += t.errors;
        self.settled += t.settled;
        self.cut += t.cut;
        self.draws += t.draws;
        self.double_backoffs += t.double_backoffs;
        self.hangs += t.hangs;
        self.restarted_clocks += t.restarted_clocks;
        self.late_issues += t.late_issues;
    }
}

#[test]
fn every_input_order_of_one_op() {
    let mut total = Tally::default();
    for max_attempts in 1..=3 {
        for jitter in [0.0, 0.5] {
            for geometry in [false, true] {
                let policy = RetryPolicy {
                    max_attempts,
                    base_backoff: SimDuration(10),
                    multiplier: 2.0,
                    max_backoff: SimDuration(30),
                    op_deadline: SimDuration(D),
                    jitter,
                };
                let world = World {
                    a: Attempt::admit(ADMIT),
                    now: ADMIT,
                    inputs: 0,
                    issued: false,
                    owed: 0,
                    backoffs: 0,
                    backing_off: false,
                    failures: 0,
                    settles: false,
                    double_backoff: false,
                    late_issue: false,
                };
                let mut t = Tally::default();
                walk(&Case { policy, geometry }, world, &mut t);
                println!(
                    "max_attempts {max_attempts}, jitter {jitter}, geometry {geometry}: {t:?}"
                );
                assert!(t.errors > 0 && t.settled > 0 && t.hangs > 0);
                assert_eq!(t.draws > 0, jitter > 0.0 && max_attempts > 1);
                // 9(i) needs a budget of two backoffs.
                assert_eq!(t.double_backoffs > 0, max_attempts > 2);
                total.add(&t);
            }
        }
    }
    println!("total: {total:?}");
    // The pinned behaviours, counted (ROADMAP 9 flips each to zero).
    assert_eq!(total.double_backoffs, 2_156_348, "9(i)");
    assert_eq!(total.hangs, 197_052, "9(ii)");
    assert_eq!(total.restarted_clocks, 3_354_600, "9(vi)");
    assert_eq!(total.late_issues, 3_003_388, "9(vii)");
    assert_eq!(total.leaves, 6_924_320);
}
