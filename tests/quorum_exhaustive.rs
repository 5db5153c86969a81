//! Every vote order of the quorum core, enumerated — the repo's stand-in for
//! the paper's TLA+ proof (§5.1–5.2), next to the whole-cell sampling of
//! `tests/quorum_protocol.rs`.
//!
//! `cliquemap::quorum` is pure, so a GET attempt is a small tree: what each
//! consulted replica holds × the order the votes arrive in × where the data
//! read lands between them and how it comes back × whether the op holds a
//! stale lease × the rules. This file walks the whole tree for R=3.2
//! (2×R and SCAR), hot-routed and R=2/Immutable GETs, for overflow-fallback
//! rounds, and for mutations, checking after every input that the step the
//! core returns is one the paper's rules allow.

use cliquemap::layout::Pointer;
use cliquemap::quorum::{
    consult_set, GetQuorum, GetRules, GetStep, MutationQuorum, MutationStep, Replica, Reply,
    RetryReason, Vote,
};
use cliquemap::version::VersionNumber;

const V1: VersionNumber = VersionNumber(10);
const V2: VersionNumber = VersionNumber(20);

/// Distinct per replica and version, so `FetchData` can be checked to read
/// where its chosen voter's index entry points.
fn entry(r: Replica, v: VersionNumber) -> Vote {
    let ptr = Pointer {
        offset: r as u64 * 1024 + v.0 as u64,
        len: 64,
        ..Pointer::default()
    };
    Vote::Entry(v, ptr)
}

/// How a data read comes back.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Read {
    /// Intact, at this version (which need not be the index entry's: the
    /// replica may have been overwritten between the two reads).
    Valid(VersionNumber),
    Torn,
    /// The read failed; it arrives as the replica's `Failed` vote.
    Lost,
}

/// One attempt's fixed setting.
struct Case {
    rules: GetRules,
    /// The consult set, and the vote each member casts.
    cast: Vec<(Replica, Vote)>,
    lease: Option<VersionNumber>,
    avoid: Option<Replica>,
}

/// One path through the attempt so far. `Copy`, like the core, so the walk
/// branches by value.
#[derive(Clone, Copy)]
struct Path {
    q: GetQuorum,
    /// Votes delivered, in arrival order (a lost data read rewrites its
    /// replica's entry to `Failed`, as the core does).
    voted: [Option<(Replica, Vote)>; 3],
    fetching: Option<Replica>,
    fetches: u32,
    data: Option<(Replica, VersionNumber)>,
    lease_alive: bool,
    retries: u32,
    torn: bool,
    lost: bool,
    /// `Hit` / `Miss` / a validated lease: the op is over.
    done: bool,
}

#[derive(Default)]
struct Tally {
    leaves: u64,
    hits: u64,
    misses: u64,
    lease_hits: u64,
    retries: u64,
    double_retries: u64,
    hangs: u64,
}

impl Path {
    fn votes(&self) -> impl Iterator<Item = (Replica, Vote)> + '_ {
        self.voted.iter().flatten().copied()
    }

    fn agree(&self, v: VersionNumber) -> usize {
        let at = |vote| matches!(vote, Vote::Entry(ver, _) if ver == v);
        self.votes().filter(|&(_, vote)| at(vote)).count()
    }

    fn answered(&self) -> usize {
        self.votes().filter(|(_, v)| *v != Vote::Failed).count()
    }

    fn base_absent(&self, case: &Case) -> usize {
        let n_base = case.rules.n_base;
        self.votes()
            .filter(|&(r, v)| v == Vote::Absent && r < n_base)
            .count()
    }

    fn n_voted(&self) -> usize {
        self.votes().count()
    }
}

/// Check `step` against the rules, given everything delivered so far.
fn check(case: &Case, p: &mut Path, step: GetStep, tally: &mut Tally) {
    let rq = case.rules.read_quorum as usize;
    let all_voted = p.n_voted() == case.cast.len();
    if p.done {
        assert_eq!(step, GetStep::Wait, "a step after the op was decided");
        return;
    }
    match step {
        GetStep::Wait => {}
        GetStep::Hit(v) => {
            assert!(p.agree(v) >= rq, "hit at {v:?} without a read quorum");
            let (from, dv) = p.data.expect("hit without validated data");
            assert_eq!(dv, v, "hit at a version other than the data's");
            let member = p.votes().any(|(r, vote)| r == from && vote == entry(r, v));
            assert!(member, "data came from outside the quorum");
            p.done = true;
            tally.hits += 1;
        }
        GetStep::Miss => {
            assert!(
                p.base_absent(case) >= rq,
                "miss without a base absent quorum"
            );
            p.done = true;
            tally.misses += 1;
        }
        GetStep::ValidateLease(cv) => {
            assert!(p.lease_alive && case.lease == Some(cv), "no such lease");
            assert!(
                p.agree(cv) >= rq,
                "lease validated without a quorum at its version"
            );
            assert!(
                p.data.is_none() && p.fetching.is_none() && p.fetches == 0,
                "lease validated over a data read"
            );
            p.lease_alive = false;
        }
        GetStep::FetchData { from, ptr } => {
            assert!(case.rules.data_is_separate, "SCAR never fetches data");
            assert_eq!(p.fetches, 0, "a second data fetch in one attempt");
            // While a quorum on the leased version is reachable, hold off.
            if let (true, Some(cv)) = (p.lease_alive, case.lease) {
                let outstanding = case.cast.len() - p.n_voted();
                assert!(
                    p.agree(cv) + outstanding < rq,
                    "fetched under an open lease"
                );
            }
            // The preferred backend: the first entry voter the rules allow,
            // or — everyone in, nobody allowed — the first entry voter.
            let entries = || {
                p.votes()
                    .filter(|(_, v)| matches!(v, Vote::Entry(..)))
                    .map(|(r, _)| r)
            };
            let allowed = entries()
                .filter(|&r| case.rules.prefer_first_responder || r == 0)
                .find(|&r| Some(r) != case.avoid);
            let want = allowed.or_else(|| entries().next().filter(|_| all_voted));
            assert_eq!(Some(from), want, "wrong preferred backend");
            let voted = p.votes().find(|&(r, _)| r == from).expect("voter").1;
            assert!(
                matches!(voted, Vote::Entry(_, at) if at == ptr),
                "wrong ptr"
            );
            p.fetching = Some(from);
            p.fetches += 1;
        }
        GetStep::Fallback => unreachable!("fallback is off in these cases"),
        GetStep::Retry(reason) => {
            p.retries += 1;
            tally.retries += 1;
            match reason {
                RetryReason::TornRead => assert!(p.torn, "torn without a torn read"),
                RetryReason::Inquorate => {
                    assert!(all_voted, "inquorate before every vote was in");
                    assert!(
                        p.answered() < rq || p.fetches == 0,
                        "inquorate with a quorum answering and data fetched"
                    );
                }
                RetryReason::Speculation => {
                    let (from, v) = p.data.expect("speculation failed without data");
                    assert!(all_voted && p.fetches == 1 && p.answered() >= rq);
                    let member = p.votes().any(|(r, vote)| r == from && vote == entry(r, v));
                    assert!(!(member && p.agree(v) >= rq), "retried a hit");
                }
                other => panic!("the core never fails an attempt with {other:?}"),
            }
            // A second Retry in one attempt is the pre-extraction client's
            // behaviour, pinned by the committed goldens (ROADMAP 2(f)): it
            // takes a data fetch and fewer than a quorum answering.
            if p.retries > 1 {
                assert!(p.retries == 2 && p.fetches == 1 && p.answered() < rq);
                tally.double_retries += 1;
            }
        }
    }
}

/// Deliver every input not yet delivered, in every order.
fn walk(case: &Case, p: Path, inline: &[Option<VersionNumber>], tally: &mut Tally) {
    let mut leaf = true;
    for (i, &(r, vote)) in case.cast.iter().enumerate() {
        if p.votes().any(|(voter, _)| voter == r) {
            continue;
        }
        leaf = false;
        let mut next = p;
        if let Some(v) = inline[i] {
            // SCAR: a validated data entry rides the vote; first one wins.
            next.q.inline_data(r, v);
            next.data.get_or_insert((r, v));
        }
        let step = next.q.vote(r, vote, false);
        let slot = next.voted.iter_mut().find(|s| s.is_none()).expect("room");
        *slot = Some((r, vote));
        after(case, next, step, inline, tally);
    }
    if let Some(from) = p.fetching {
        leaf = false;
        for read in [Read::Valid(V1), Read::Valid(V2), Read::Torn, Read::Lost] {
            let mut next = p;
            next.fetching = None;
            let step = match read {
                Read::Valid(v) => {
                    next.data = Some((from, v));
                    next.q.data(from, Some(v))
                }
                Read::Torn => {
                    next.torn = true;
                    next.q.data(from, None)
                }
                Read::Lost => {
                    next.lost = true;
                    for slot in next.voted.iter_mut().flatten() {
                        if slot.0 == from {
                            slot.1 = Vote::Failed;
                        }
                    }
                    next.q.vote(from, Vote::Failed, false)
                }
            };
            after(case, next, step, inline, tally);
        }
    }
    if leaf {
        tally.leaves += 1;
        // No hang: with every vote and any requested data in, the attempt
        // has said something. The one exception is the pre-extraction
        // client's, pinned by the committed goldens (ROADMAP 2(f)): a lost
        // data read whose withdrawn vote still leaves a quorum answering
        // waits for data that is not coming.
        let spoke = p.done || p.retries > 0;
        let known_hang = p.lost && p.answered() >= case.rules.read_quorum as usize;
        assert!(spoke || known_hang, "attempt hangs with every input in");
        tally.hangs += !spoke as u64;
    }
}

/// Check the step and carry on; a `ValidateLease` is answered both ways.
fn after(
    case: &Case,
    mut p: Path,
    step: GetStep,
    inline: &[Option<VersionNumber>],
    tally: &mut Tally,
) {
    check(case, &mut p, step, tally);
    if !p.done && matches!(step, GetStep::ValidateLease(_)) {
        // Validated: the client serves the cached value and the op is over
        // (it feeds the core nothing more). The entry being gone instead,
        // the attempt carries on without it.
        tally.lease_hits += 1;
        let step = p.q.lease_gone();
        return after(case, p, step, inline, tally);
    }
    walk(case, p, inline, tally);
}

/// A quorum that has been through one failed attempt whose data came from
/// `avoid` (none if `None`), holding a stale lease at `lease`.
fn seasoned(rules: GetRules, lease: Option<VersionNumber>, avoid: Option<Replica>) -> GetQuorum {
    let mut q = GetQuorum::new(lease);
    if let Some(r) = avoid {
        // The first attempt: `r` alone has the key; its data comes back at
        // another version and every other vote fails.
        q.begin(GetRules {
            expected_votes: 2,
            data_is_separate: true,
            prefer_first_responder: true,
            ..rules
        });
        let step = q.vote(r, entry(r, V1), false);
        if lease.is_none() {
            assert!(matches!(step, GetStep::FetchData { from, .. } if from == r));
        }
        let other = if r == 0 { 1 } else { 0 };
        let _ = q.vote(other, Vote::Failed, false);
        let _ = q.data(r, Some(V2));
    }
    q
}

/// Walk every assignment × order × data interleaving of one GET shape.
fn walk_shape(rules: GetRules, set: &[Replica], tally: &mut Tally) {
    let k = set.len();
    let holds = |r: Replica| [entry(r, V1), entry(r, V2), Vote::Absent, Vote::Failed];
    for code in 0..4usize.pow(k as u32) {
        let cast: Vec<(Replica, Vote)> = (0..k)
            .map(|i| (set[i], holds(set[i])[code / 4usize.pow(i as u32) % 4]))
            .collect();
        // SCAR: each entry vote carries inline data at its own version, at
        // the other one (overwritten under the scan), or none (torn).
        let mut inlines: Vec<Vec<Option<VersionNumber>>> = vec![vec![]];
        for &(_, vote) in &cast {
            let options: &[Option<VersionNumber>] = match vote {
                Vote::Entry(..) if !rules.data_is_separate => &[Some(V1), Some(V2), None],
                _ => &[None],
            };
            inlines = inlines
                .iter()
                .flat_map(|head| options.iter().map(move |o| [&head[..], &[*o]].concat()))
                .collect();
        }
        let avoids = std::iter::once(None).chain(set.iter().map(|&r| Some(r)));
        for avoid in avoids.filter(|a| a.is_none() || rules.data_is_separate) {
            for lease in [None, Some(V1), Some(V2)] {
                for prefer_first_responder in [true, false] {
                    let rules = GetRules {
                        prefer_first_responder,
                        ..rules
                    };
                    // The failed first attempt consumes no lease only when
                    // it cannot validate: skip the combinations it would.
                    if avoid.is_some() && lease == Some(V1) {
                        continue;
                    }
                    let mut q = seasoned(rules, lease, avoid);
                    q.begin(rules);
                    let case = Case {
                        rules,
                        cast: cast.clone(),
                        lease,
                        avoid,
                    };
                    for inline in &inlines {
                        let p = Path {
                            q,
                            voted: [None; 3],
                            fetching: None,
                            fetches: 0,
                            data: None,
                            lease_alive: lease.is_some(),
                            retries: 0,
                            torn: false,
                            lost: false,
                            done: false,
                        };
                        walk(&case, p, inline, tally);
                    }
                }
            }
        }
    }
}

fn r32(data_is_separate: bool) -> GetRules {
    GetRules {
        read_quorum: 2,
        expected_votes: 3,
        n_base: 3,
        n_replicas: 3,
        data_is_separate,
        prefer_first_responder: true,
    }
}

#[test]
fn every_vote_order_of_an_r32_get() {
    for data_is_separate in [true, false] {
        let mut tally = Tally::default();
        walk_shape(r32(data_is_separate), &[0, 1, 2], &mut tally);
        assert!(tally.hits > 0 && tally.misses > 0 && tally.lease_hits > 0);
        assert!(tally.retries > 0 && tally.leaves > 10_000);
        // The two inherited warts exist only where there is a data read.
        assert_eq!(tally.double_retries > 0, data_is_separate);
        assert_eq!(tally.hangs > 0, data_is_separate);
    }
}

#[test]
fn every_vote_order_of_a_hot_routed_get() {
    // Three base replicas and two extended copies: every consult set the
    // picker can produce (a rotating base pair plus one extended copy).
    let mut sets = std::collections::BTreeSet::new();
    for spin in 1..=6 {
        let (set, n) = consult_set(false, 5, 3, spin, 0, |_| unreachable!("curated subset"));
        assert_eq!(n, 3);
        assert!(set[0] < 3 && set[1] < 3 && set[0] != set[1] && set[2] >= 3);
        sets.insert(set);
    }
    assert_eq!(sets.len(), 6, "3 base pairs x 2 extended copies");
    for data_is_separate in [true, false] {
        let mut tally = Tally::default();
        for set in &sets {
            let rules = GetRules {
                n_replicas: 5,
                ..r32(data_is_separate)
            };
            walk_shape(rules, set, &mut tally);
        }
        // An extended copy joins a hit quorum but never a miss quorum: the
        // `Miss` check above counts base replicas only.
        assert!(tally.hits > 0 && tally.misses > 0 && tally.retries > 0);
    }
}

#[test]
fn every_vote_order_of_an_immutable_get() {
    // R=2/Immutable: one vote decides, and retries alternate replicas.
    let picks: Vec<Replica> = (1..=4)
        .map(|attempt| consult_set(true, 2, 2, attempt, 9, |_| unreachable!("one replica")))
        .map(|(set, n)| {
            assert_eq!(n, 1);
            set[0]
        })
        .collect();
    assert_eq!(picks, [0, 1, 0, 1]);
    for data_is_separate in [true, false] {
        let rules = GetRules {
            read_quorum: 1,
            expected_votes: 1,
            n_base: 2,
            n_replicas: 2,
            ..r32(data_is_separate)
        };
        let mut tally = Tally::default();
        walk_shape(rules, &[0], &mut tally);
        walk_shape(rules, &[1], &mut tally);
        assert!(tally.hits > 0 && tally.misses > 0 && tally.retries > 0);
        // One vote: nothing outstanding can disagree with the data.
        assert_eq!(tally.double_retries, 0);
    }
}

#[test]
fn a_full_consult_set_drops_only_demoted_replicas() {
    for mask in 0..8u64 {
        let mut asked = 0;
        let (set, n) = consult_set(false, 3, 3, 1, 7, |size| {
            asked += 1;
            assert_eq!(size, 3);
            mask
        });
        assert_eq!(asked, 1, "the controller is asked once");
        let kept: Vec<Replica> = (0..3).filter(|r| mask & (1 << r) == 0).collect();
        assert_eq!(&set[..n], &kept[..]);
    }
    // A set of one is never filtered (R=1).
    let (set, n) = consult_set(false, 1, 1, 3, 7, |_| unreachable!("single replica"));
    assert_eq!((set[0], n), (0, 1));
}

/// A fallback round: every answer class from every replica, interleaved
/// with the votes still outstanding, in every order.
#[test]
fn every_order_of_an_overflow_fallback_round() {
    #[derive(Clone, Copy)]
    struct Round {
        q: GetQuorum,
        voted: u8,
        answered: u8,
        launched: bool,
        decided: bool,
        absent: u32,
    }
    fn go(r: Round, cast: &[(Vote, bool); 3], answers: &[Option<bool>; 3], tally: &mut [u64; 4]) {
        let mut leaf = true;
        let mut judge = |mut next: Round, step: GetStep| {
            if next.decided {
                assert_eq!(step, GetStep::Wait, "a step after the round resolved");
            }
            match step {
                GetStep::Wait => {}
                GetStep::Fallback => {
                    assert!(!next.launched, "a second fallback round in one attempt");
                    assert!(next.absent >= 2, "fallback without a miss quorum");
                    next.launched = true;
                }
                GetStep::Hit(v) => {
                    assert!(next.launched && v == V1, "hit outside the round");
                    next.decided = true;
                    tally[0] += 1;
                }
                GetStep::Miss => {
                    assert!(next.absent >= 2, "miss without a base absent quorum");
                    next.decided = true;
                    tally[1] += 1;
                }
                GetStep::Retry(RetryReason::FallbackError) => {
                    assert!(next.launched && next.answered == 3, "round failed early");
                    next.decided = true;
                    tally[2] += 1;
                }
                GetStep::Retry(RetryReason::Inquorate) => tally[3] += 1,
                other => panic!("unexpected {other:?}"),
            }
            go(next, cast, answers, tally);
        };
        for (i, &(vote, overflowed)) in cast.iter().enumerate() {
            if r.voted & (1 << i) == 0 {
                leaf = false;
                let mut next = r;
                next.voted |= 1 << i;
                next.absent += (vote == Vote::Absent) as u32;
                let step = next.q.vote(i as Replica, vote, overflowed);
                judge(next, step);
            }
        }
        if r.launched && r.answered < 3 {
            leaf = false;
            let mut next = r;
            let answer = match answers[r.answered as usize] {
                Some(true) => Ok(Some(V1)),
                Some(false) => Ok(None),
                None => Err(RetryReason::FallbackError),
            };
            next.answered += 1;
            let step = next.q.served(answer);
            judge(next, step);
        }
        if leaf {
            assert!(r.decided || !r.launched, "round never resolved");
        }
    }
    let votes = [
        (Vote::Absent, true),
        (Vote::Absent, false),
        (Vote::Failed, false),
    ];
    let classes = [Some(true), Some(false), None];
    let mut tally = [0u64; 4];
    for code in 0..27 {
        let cast = [votes[code % 3], votes[code / 3 % 3], votes[code / 9]];
        for acode in 0..27 {
            let answers = [
                classes[acode % 3],
                classes[acode / 3 % 3],
                classes[acode / 9],
            ];
            let mut q = GetQuorum::new(None);
            q.begin(GetRules { ..r32(true) });
            let start = Round {
                q,
                voted: 0,
                answered: 0,
                launched: false,
                decided: false,
                absent: 0,
            };
            go(start, &cast, &answers, &mut tally);
        }
    }
    assert!(
        tally.iter().all(|&n| n > 0),
        "an outcome never occurred: {tally:?}"
    );
}

#[test]
fn every_reply_order_of_a_mutation() {
    // (write quorum, base replicas, extended copies): R=1, R=2/Immutable,
    // R=3.2, and R=3.2 with a hot key's two extended copies.
    for (wq, n_base, ext) in [(1u8, 1u8, 0u8), (2, 2, 0), (2, 3, 0), (2, 3, 2)] {
        let copies = n_base + ext;
        let replies = [Reply::Ack, Reply::Reject, Reply::Failure];
        for skipped in 0..=(copies > 1) as u8 {
            let n = (copies - skipped) as usize;
            for code in 0..3usize.pow(n as u32) {
                // The skipped replica, if any, is the last one; the rest
                // reply in every order.
                let cast: Vec<Reply> = (0..n)
                    .map(|i| replies[code / 3usize.pow(i as u32) % 3])
                    .collect();
                let mut order: Vec<usize> = (0..n).collect();
                permute(&mut order, 0, &mut |order| {
                    let mut q = MutationQuorum::begin(wq, n_base, copies, skipped);
                    let (mut acks, mut rejects, mut terminal) = (0u8, 0u8, None);
                    for &i in order {
                        let base = (i as u8) < n_base;
                        acks += (base && cast[i] == Reply::Ack) as u8;
                        rejects += (base && cast[i] == Reply::Reject) as u8;
                        let step = q.reply(base, cast[i]);
                        if terminal.is_some() {
                            assert_eq!(step, MutationStep::Wait, "a step after the terminal");
                            continue;
                        }
                        match step {
                            MutationStep::Wait => continue,
                            MutationStep::Done => assert!(acks >= wq, "done short of quorum"),
                            MutationStep::Superseded => {
                                assert!(acks < wq && rejects > n_base - wq, "bad veto")
                            }
                            MutationStep::Retry => assert!(
                                acks < wq && rejects <= n_base - wq,
                                "retried a decidable mutation"
                            ),
                        }
                        terminal = Some(step);
                    }
                    assert!(terminal.is_some(), "every reply in and no verdict");
                });
            }
        }
    }
}

/// Every permutation of `items`, by Heap-free recursion (small inputs).
fn permute(items: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        return visit(items);
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, visit);
        items.swap(at, i);
    }
}
