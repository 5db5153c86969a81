//! Every small cohort's repair, enumerated — `tests/quorum_exhaustive.rs`'s
//! method applied to §5.4's cohort scans.
//!
//! `cliquemap::repair` is pure, so one scan is a small tree: what each
//! replica holds of each key × the mode × the page at which each peer's
//! scan fails. This file walks it for R=3.2 over 3 and 4 shards, applies
//! the core's steps to a model of the replicas' stores (version-gated, as
//! `BackendStore` is), and checks §5.4's rules after every scan. The cell
//! test at the end replays the acked ERASE a Push scan used to resurrect.

use std::collections::VecDeque;

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::{CellConfig, ReplicationMode};
use cliquemap::hash::{place, replicas, DefaultHasher, KeyHash, KeyHasher};
use cliquemap::history;
use cliquemap::messages::ScanPage;
use cliquemap::repair::{Mode, Peer, Repair, Step};
use cliquemap::version::VersionNumber;
use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload};
use simnet::fault::{Fault, FaultPlan, HostSet};
use simnet::{SimDuration, SimTime};

const ZERO: VersionNumber = VersionNumber::ZERO;

/// What one replica holds of one key. A tombstone's version is its ERASE's,
/// which is never a SET's: 15 and 25 erase after the SETs at 10 and 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    Absent,
    Live(VersionNumber),
    Erased(VersionNumber),
}

const HELD: [Held; 5] = [
    Held::Absent,
    Held::Live(VersionNumber(10)),
    Held::Live(VersionNumber(20)),
    Held::Erased(VersionNumber(15)),
    Held::Erased(VersionNumber(25)),
];

impl Held {
    fn live(self) -> VersionNumber {
        match self {
            Held::Live(v) => v,
            _ => ZERO,
        }
    }

    /// What a mutation must exceed, as `BackendStore::version_floor`.
    fn floor(self) -> VersionNumber {
        match self {
            Held::Live(v) | Held::Erased(v) => v,
            Held::Absent => ZERO,
        }
    }

    fn install(&mut self, v: VersionNumber) {
        if v > self.floor() {
            *self = Held::Live(v);
        }
    }

    fn erase(&mut self, v: VersionNumber) {
        if v > self.floor() {
            *self = Held::Erased(v);
        }
    }
}

/// `shards` backends (node id = shard) at R=3.2, and the keys they hold,
/// in ascending hash order. Each key is a page of its own.
struct Cohort {
    config: CellConfig,
    keys: Vec<KeyHash>,
    /// Each key's replicas (node ids), in replica order.
    replicas: Vec<Vec<usize>>,
}

/// `held[node][key]`, indexed like [`Cohort::keys`].
type Held2 = Vec<Vec<Held>>;

impl Cohort {
    /// Key `i` has its primary at shard `primaries[i]`.
    fn new(shards: u32, primaries: &[u32]) -> Cohort {
        let config = CellConfig {
            config_id: 1,
            replication: ReplicationMode::R32,
            shards: (0..shards).collect(),
            spares: Vec::new(),
        };
        let keys = (primaries.iter().enumerate())
            .map(|(i, &p)| (p as u128) << 96 | (i as u128 + 1))
            .collect::<Vec<_>>();
        assert!(keys.is_sorted(), "pages walk keys in hash order");
        let replicas = (keys.iter())
            .map(|&hash| replicas(place(hash, shards, 1).shard, 3, shards))
            .map(|set| set.into_iter().map(|s| s as usize).collect())
            .collect();
        Cohort {
            config,
            keys,
            replicas,
        }
    }

    fn index(&self, hash: KeyHash) -> usize {
        self.keys
            .iter()
            .position(|&h| h == hash)
            .expect("a known key")
    }

    /// Page `page` of `node`'s inventory: key `page`'s pair or tombstone.
    fn page(&self, held: &Held2, node: Peer, page: u32) -> ScanPage {
        let (hash, held) = (self.keys[page as usize], held[node as usize][page as usize]);
        let at = |v| vec![(hash, v)];
        ScanPage {
            page,
            done: page as usize + 1 == self.keys.len(),
            pairs: if let Held::Live(v) = held {
                at(v)
            } else {
                vec![]
            },
            tombstones: if let Held::Erased(v) = held {
                at(v)
            } else {
                vec![]
            },
        }
    }

    /// The work a reconcile of `me` with `peer` must emit, in order: the
    /// rules restated over the model — the repeats they imply are the
    /// pinned duplicate-work quirks (a key newer at k peers is fetched k
    /// times, one dirty at k peers is repaired k times).
    fn expected(&self, held: &Held2, me: usize, peer: usize, mode: Mode) -> Vec<Step> {
        let mut work = Vec::new();
        let mut erases = Vec::new();
        for (k, &hash) in self.keys.iter().enumerate() {
            let (mine, theirs) = (held[me][k], held[peer][k]);
            let holder = if mode == Mode::Push { peer } else { me };
            if !self.replicas[k].contains(&holder) {
                continue;
            }
            if let (Held::Live(lv), Held::Erased(t)) = (mine, theirs) {
                if t >= lv {
                    erases.push(Step::EraseLocal { hash, version: t });
                    continue;
                }
            }
            match mode {
                Mode::Push if mine.live() > ZERO && theirs.live() < mine.live() => {
                    work.push(Step::Repair { hash })
                }
                Mode::Pull if theirs.live() > mine.live() => work.push(Step::Fetch {
                    peer: peer as Peer,
                    hash,
                }),
                _ => {}
            }
        }
        if mode == Mode::Pull {
            let fetches = work.len() as u32;
            work.push(Step::Pulled { fetches });
        }
        work.extend(erases);
        work
    }
}

/// What the walk saw.
#[derive(Default, Debug)]
struct Tally {
    leaves: u64,
    fetches: u64,
    repairs: u64,
    erases: u64,
    /// A key fetched / repaired more than once in one scan.
    refetched: u64,
    repeated_repairs: u64,
    /// A lone tombstone (fewer than a write quorum: no acked ERASE) that a
    /// repair overruled.
    lone_overruled: u64,
}

/// What outlives one scan: the versions repairs nominate (fresh, and above
/// every version in [`HELD`]) and the REPAIR_SETs sent, of which the
/// `lose`-th never arrives.
#[derive(Default)]
struct Net {
    nominated: u128,
    sent: usize,
    lose: Option<usize>,
}

/// One scan by `me` in `mode`, its steps applied to `held`. Peer `p`'s
/// scan fails at page `fail[p]`, if any. Fetches and REPAIR_SETs are in
/// flight until the scan ends. Returns the work steps it emitted.
fn scan(
    c: &Cohort,
    held: &mut Held2,
    me: usize,
    mode: Mode,
    fail: &[Option<u32>],
    net: &mut Net,
) -> Vec<Step> {
    let mut r = Repair::default();
    assert_eq!(r.begin(mode), Step::GetConfig);
    let mut queue: VecDeque<Step> = r.config(&c.config, me as u32, me as Peer).into();
    let (mut work, mut in_flight, mut last, mut done) = (Vec::new(), Vec::new(), None, false);
    // An answer the running scan does not wait for reconciles nothing.
    let nothing = || -> Vec<(KeyHash, VersionNumber)> { unreachable!("a dropped page reconciled") };
    while let Some(step) = queue.pop_front() {
        assert!(!done, "a step after Done");
        match step {
            Step::GetConfig => panic!("one config request per scan"),
            Step::RequestPage { peer, page, scan } => {
                last = Some((scan, peer));
                if fail[peer as usize] == Some(page) {
                    queue.extend(r.page_failed(scan, peer));
                    // The page arrives after all, too late: dropped.
                    let late = c.page(held, peer, page);
                    assert!(r
                        .page(scan, peer, late, &c.config, nothing, |_| ZERO)
                        .is_empty());
                    continue;
                }
                let p = c.page(held, peer, page);
                let expected = p.done.then(|| c.expected(held, me, peer as usize, mode));
                let live = |(&hash, held): (&KeyHash, &Held)| match held {
                    Held::Live(v) => Some((hash, *v)),
                    _ => None,
                };
                let pairs = || c.keys.iter().zip(&held[me]).filter_map(live).collect();
                let live_version = |hash| held[me][c.index(hash)].live();
                let steps = r.page(scan, peer, p, &c.config, pairs, live_version);
                if let Some(expected) = expected {
                    assert_eq!(
                        steps[..steps.len() - 1],
                        expected,
                        "reconcile of {me} with {peer}"
                    );
                }
                queue.extend(steps);
            }
            Step::Fetch { peer, hash } => {
                work.push(step);
                let k = c.index(hash);
                if let Held::Live(v) = held[peer as usize][k] {
                    in_flight.push((me, k, v));
                }
            }
            Step::Pulled { .. } => {}
            Step::Repair { hash } => {
                work.push(step);
                let k = c.index(hash);
                if let Held::Live(_) = held[me][k] {
                    net.nominated += 1;
                    let v = VersionNumber(100 + net.nominated);
                    held[me][k].install(v);
                    for node in c.replicas[k].iter().copied().filter(|&n| n != me) {
                        if net.lose != Some(net.sent) {
                            in_flight.push((node, k, v));
                        }
                        net.sent += 1;
                    }
                }
            }
            Step::EraseLocal { hash, version } => {
                work.push(step);
                let k = c.index(hash);
                if let Held::Live(_) = held[me][k] {
                    held[me][k].erase(version);
                }
            }
            Step::Done => done = true,
        }
    }
    assert!(done, "the scan never ended");
    for (node, k, v) in in_flight {
        held[node][k].install(v);
    }
    // An answer for the scan that has ended is dropped, also once the next
    // scan waits on the same peer.
    let (scan, _) = last.expect("a page was asked for");
    r.begin(mode);
    let Step::RequestPage { peer, .. } = r.config(&c.config, me as u32, me as Peer)[0] else {
        panic!("a cohort to scan");
    };
    let stale = c.page(held, peer, 0);
    assert!(r
        .page(scan, peer, stale, &c.config, nothing, |_| ZERO)
        .is_empty());
    assert!(r.page_failed(scan, peer).is_empty());
    work
}

/// Every assignment of [`HELD`] to each key's replicas (a node that is not
/// a key's replica holds nothing of it).
fn assignments(c: &Cohort) -> impl Iterator<Item = Held2> + '_ {
    let nodes = c.config.num_shards() as usize;
    let slots: Vec<(usize, usize)> = (0..c.keys.len())
        .flat_map(|k| c.replicas[k].iter().map(move |&node| (node, k)))
        .collect();
    (0..HELD.len().pow(slots.len() as u32)).map(move |code| {
        let mut held = vec![vec![Held::Absent; c.keys.len()]; nodes];
        for (i, &(node, k)) in slots.iter().enumerate() {
            held[node][k] = HELD[code / HELD.len().pow(i as u32) % HELD.len()];
        }
        held
    })
}

/// Every way node 0's peers' scans can go, indexed by node: complete
/// (`None`) or fail at one of the cohort's pages.
fn failures(c: &Cohort) -> Vec<Vec<Option<u32>>> {
    let outcomes: Vec<Option<u32>> = std::iter::once(None)
        .chain((0..c.keys.len() as u32).map(Some))
        .collect();
    let mut all = vec![vec![None]];
    for _peer in 1..c.config.num_shards() {
        all = (all.iter())
            .flat_map(|head| outcomes.iter().map(move |&o| [&head[..], &[o]].concat()))
            .collect();
    }
    all
}

/// Whether every replica of every key holds the same thing.
fn consistent(c: &Cohort, held: &Held2) -> bool {
    (0..c.keys.len()).all(|k| {
        let reps = &c.replicas[k];
        reps.iter().all(|&n| held[n][k] == held[reps[0]][k])
    })
}

/// Walk every assignment × mode × failure pattern of one scan by node 0
/// in which at most `failing` peers fail.
fn walk(c: &Cohort, failing: usize, tally: &mut Tally) {
    let failures = failures(c);
    let failures = failures
        .iter()
        .filter(|f| f.iter().flatten().count() <= failing);
    for before in assignments(c) {
        for mode in [Mode::Push, Mode::Pull] {
            for fail in failures.clone() {
                let mut held = before.clone();
                let work = scan(c, &mut held, 0, mode, fail, &mut Net::default());
                check(c, &before, &held, mode, fail, &work, tally);
            }
        }
    }
}

fn check(
    c: &Cohort,
    before: &Held2,
    after: &Held2,
    mode: Mode,
    fail: &[Option<u32>],
    work: &[Step],
    tally: &mut Tally,
) {
    tally.leaves += 1;
    let failed = fail.iter().any(Option::is_some);
    if consistent(c, before) {
        assert!(work.is_empty(), "work among consistent replicas: {work:?}");
    }
    for (k, &hash) in c.keys.iter().enumerate() {
        let count = |f: fn(&Step) -> Option<KeyHash>| {
            work.iter().filter(|s| f(s) == Some(hash)).count() as u64
        };
        let fetches = count(|s| match *s {
            Step::Fetch { hash, .. } => Some(hash),
            _ => None,
        });
        let repairs = count(|s| match *s {
            Step::Repair { hash } => Some(hash),
            _ => None,
        });
        tally.fetches += fetches;
        tally.repairs += repairs;
        tally.refetched += u64::from(fetches > 1);
        tally.repeated_repairs += u64::from(repairs > 1);
        let reps = &c.replicas[k];
        let newest = reps.iter().map(|&n| before[n][k].live()).max().unwrap();
        let tombs = (reps.iter())
            .filter(|&&n| matches!(before[n][k], Held::Erased(t) if t >= newest))
            .count();
        let raised = reps
            .iter()
            .any(|&n| after[n][k].live() > before[n][k].live());
        // No resurrection: an acked ERASE — a write quorum of tombstones at
        // or above every live copy — stays erased: no copy gains or raises
        // a live version, and the scanner drops its stale one unless a page
        // failed. A lone tombstone is no acked ERASE; a repair may overrule
        // it.
        if tombs >= 2 {
            assert!(!raised, "key {k} resurrected: {before:?} -> {after:?}");
            if !failed && reps.contains(&0) {
                assert_eq!(after[0][k].live(), ZERO, "stale copy kept: {before:?}");
            }
        } else if tombs == 1 && raised {
            tally.lone_overruled += 1;
        }
        // Pull completeness: the scanner ends at or above every peer's copy.
        if mode == Mode::Pull && !failed && reps.contains(&0) {
            let peers = reps.iter().filter(|&&n| n != 0);
            let newest = peers.map(|&n| before[n][k].live()).max().unwrap();
            assert!(after[0][k].floor() >= newest, "{before:?} -> {after:?}");
        }
    }
    tally.erases += work
        .iter()
        .filter(|s| matches!(s, Step::EraseLocal { .. }))
        .count() as u64;
}

/// One Push scan from every node in turn, nothing failing.
fn round(c: &Cohort, held: &mut Held2, net: &mut Net) {
    let none = vec![None; c.config.num_shards() as usize];
    for me in 0..held.len() {
        scan(c, held, me, Mode::Push, &none, net);
    }
}

/// Push convergence: one round from every replica makes every key's
/// replicas agree (on one live version, or on holding it live nowhere);
/// for one key, a round that loses one REPAIR_SET — each one in turn — is
/// made good by the next.
fn converge(c: &Cohort) -> u64 {
    let agree = |held: &Held2| {
        (0..c.keys.len()).all(|k| {
            let reps = &c.replicas[k];
            reps.iter()
                .all(|&n| held[n][k].live() == held[reps[0]][k].live())
        })
    };
    let mut leaves = 0;
    for before in assignments(c) {
        let mut held = before.clone();
        let mut net = Net::default();
        round(c, &mut held, &mut net);
        assert!(agree(&held), "{before:?} -> {held:?}");
        leaves += 1;
        let losses = if c.keys.len() == 1 { net.sent } else { 0 };
        for lose in 0..losses {
            let mut held = before.clone();
            let mut net = Net {
                lose: Some(lose),
                ..Net::default()
            };
            round(c, &mut held, &mut net);
            net.lose = None;
            round(c, &mut held, &mut net);
            assert!(agree(&held), "lost #{lose}: {before:?} -> {held:?}");
            leaves += 1;
        }
    }
    leaves
}

/// The cohorts walked: R=3.2 over 3 shards (every key on every node) and
/// over 4 (node 0 holds keys whose primary is 0, 2 or 3, not 1) — one key,
/// at every primary, and two keys, one held by node 0 and one not. (Keys
/// reconcile independently; two pages are what a fold or a failure can
/// fall between.)
fn cohorts() -> Vec<Cohort> {
    let one = [3, 4, 4, 4, 4]
        .into_iter()
        .zip(0..)
        .map(|(n, p)| Cohort::new(n, &[p % 4]));
    let two = [Cohort::new(3, &[0, 0]), Cohort::new(4, &[0, 1])];
    one.chain(two).collect()
}

#[test]
fn every_scan_of_a_small_cohort() {
    let mut tally = Tally::default();
    for c in cohorts() {
        // Every failure pattern of one page; one failing peer at a time of
        // two.
        let failing = if c.keys.len() == 1 { usize::MAX } else { 1 };
        walk(&c, failing, &mut tally);
    }
    println!("repair_exhaustive: {tally:?}");
    assert!(tally.fetches > 0 && tally.repairs > 0 && tally.erases > 0);
    // The two pinned quirks occur, and a lone tombstone can be overruled.
    assert!(tally.refetched > 0 && tally.repeated_repairs > 0);
    assert!(tally.lone_overruled > 0);
}

#[test]
fn push_rounds_converge() {
    let leaves: u64 = cohorts().iter().map(converge).sum();
    println!("repair_exhaustive: {leaves} converged rounds");
}

/// An acked ERASE survives the cohort scans. Backend 2 misses the ERASE (an
/// asymmetric partition cuts the client's requests to it), the other two
/// ack it, and backend 2 keeps its live copy. A Push scan used to read the
/// peers' "missing" key as a dirty quorum and re-install it everywhere at a
/// fresh version, turning the later GET into a Hit; the peers' tombstones
/// now reach the scan, and backend 2 erases its stale copy instead.
#[test]
fn an_acked_erase_stays_erased() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.client.strategy = LookupStrategy::TwoR;
    spec.backend.scan_interval = Some(SimDuration::from_millis(20));
    let key = Bytes::from_static(b"k");
    let us = SimDuration::from_micros;
    let value = Bytes::from_static(b"v");
    let script = ScriptWorkload::new(vec![
        (
            us(100),
            ClientOp::Set {
                key: key.clone(),
                value,
            },
        ),
        (us(5_000), ClientOp::Erase { key: key.clone() }),
        (us(100_000), ClientOp::Get { key: key.clone() }),
    ]);
    let mut cell = Cell::build(spec, vec![Box::new(script)]);
    cell.record_history();
    let mut plan = FaultPlan::new(1);
    let cut = Fault::Partition {
        a: HostSet::of(&cell.client_hosts),
        b: HostSet::one(cell.backend_hosts[2]),
        symmetric: false,
    };
    plan.add(SimTime(4_000_000), SimTime(8_000_000), cut);
    cell.sim.install_fault_plan(&plan);
    cell.run_for(SimDuration::from_millis(200));
    let h = cell.history();
    assert_eq!(history::check(&h, ReplicationMode::R32), [], "{h:?}");
    assert_eq!(
        h.outcomes(cell.clients[0].0),
        [OpOutcome::Done, OpOutcome::Done, OpOutcome::Miss]
    );
    // Every replica holds the key erased, backend 2 included.
    let hash = DefaultHasher.hash(&key);
    let copies: Vec<_> = h.copies.iter().filter(|c| c.key == hash).collect();
    assert_eq!(copies.len(), 3, "{copies:?}");
    assert!(copies.iter().all(|c| c.value.is_none()), "{copies:?}");
    let counter = |name| cell.sim.metrics().counter(name);
    assert_eq!(counter("cm.backend.repair_erases"), 1);
    assert_eq!(counter("cm.backend.repairs"), 0);
}
