//! A cell's op history and the §5 contract checked over it.
//!
//! A [`History`] is opt-in (`Cell::record_history`): clients append an
//! [`Op`] per admitted op, backends a [`Commit`] per mutation their store
//! accepts, and `Cell::history` adds a [`Copy`](struct@Copy) per replica of each touched
//! key. [`check`] is a pure function of the rows, time in `u64` ns; nothing
//! here names the simulator. Off, a [`Tap`] costs a recording site one
//! branch: no allocation, no RNG draw.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use crate::config::ReplicationMode;
use crate::workload::OpOutcome::{self, Hit, Miss};

/// What a client op is, as its caller issued it (a container has no key).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
    Erase,
    Cas,
    MultiGet,
    MultiSet,
}

/// One admitted op of one client (`client`: its node id; `id`: its op id).
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub client: u32,
    pub id: u64,
    pub kind: Kind,
    /// Key hash (0: a container).
    pub key: u128,
    /// The container of a MultiGet/MultiSet member.
    pub batch: Option<u64>,
    /// The version a mutation last nominated, or a read observed.
    pub version: u128,
    /// The hash of the value a SET/CAS nominated, or a hit observed.
    pub value: Option<u64>,
    /// A read a read quorum's votes decided: not a lease-cache hit, nor a
    /// server's word (an MSG/RPC lookup, an overflow fallback round).
    pub quorum: bool,
    /// Admission time.
    pub invoked: u64,
    /// `None` while the op is open.
    pub done: Option<Done>,
}

/// How an op completed, and the latency its client reported.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    pub at: u64,
    pub outcome: OpOutcome,
    pub latency: u64,
}

/// A mutation a replica's store accepted: a write, a repair, a handoff
/// chunk, or (`loaded`) a harness's direct load. `value: None` is an ERASE.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    pub key: u128,
    pub version: u128,
    pub value: Option<u64>,
    pub loaded: bool,
}

/// What one replica (node id) of a touched key holds when the History is
/// read: `version` 0 is nothing, `value: None` a tombstone; a crashed
/// replica is not `live` and holds nothing here.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Copy {
    pub key: u128,
    pub replica: u32,
    pub live: bool,
    pub version: u128,
    pub value: Option<u64>,
}

/// A cell's record, and what `Cell::history` adds when it reads it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Every admitted op, in admission order.
    pub ops: Vec<Op>,
    /// Every commit on every replica.
    pub commits: Vec<Commit>,
    /// (key, replica) pairs a write of the key failed or timed out at.
    pub lagging: HashSet<(u128, u32)>,
    /// Each replica (base set, current config) of each touched key at `end`.
    pub copies: Vec<Copy>,
    /// When the History was read.
    pub end: u64,
    /// The clients' op deadline.
    pub deadline: u64,
    /// The backends' cohort scan interval (`None`: no scans).
    pub scan: Option<u64>,
    /// Some live replica has evicted an entry: absence proves nothing.
    pub evicted: bool,
    rows: HashMap<Who, usize>,
}

/// An op's client (node id) and op id.
pub type Who = (u32, u64);

/// The hash a History keeps of a value.
pub fn value_hash(value: &[u8]) -> u64 {
    crate::layout::checksum(value)
}

impl History {
    /// Op `who`, of `kind` on `key` (a SET or CAS nominating the value
    /// hashing to `value`; a MultiGet/MultiSet member of `batch`), was
    /// admitted `at`.
    pub fn invoke(&mut self, who: Who, kind: Kind, key: (u128, u64), batch: Option<u64>, at: u64) {
        self.rows.insert(who, self.ops.len());
        let ((client, id), (key, value)) = (who, key);
        let value = matches!(kind, Kind::Set | Kind::Cas).then_some(value);
        let op = Op {
            client,
            id,
            kind,
            key,
            batch,
            version: 0,
            value,
            quorum: true,
            invoked: at,
            done: None,
        };
        self.ops.push(op);
    }

    fn open(&mut self, who: Who) -> Option<&mut Op> {
        let row = *self.rows.get(&who)?;
        self.ops.get_mut(row).filter(|op| op.done.is_none())
    }

    /// Open op `who` read (version, value), by a read `quorum` or not, or
    /// nominated `version` for its latest attempt.
    pub fn observe(&mut self, who: Who, version: u128, value: Option<u64>, quorum: bool) {
        if let Some(op) = self.open(who) {
            (op.version, op.quorum, op.value) = (version, quorum, value.or(op.value));
        }
    }

    /// Open op `who` completed `at`, its client reporting `latency`.
    pub fn complete(&mut self, who: Who, at: u64, outcome: OpOutcome, latency: u64) {
        if let Some(op) = self.open(who) {
            op.done = Some(Done {
                at,
                outcome,
                latency,
            });
        }
    }

    /// A write frame of op `who` to `replica` failed or timed out, maybe
    /// after the op completed.
    pub fn missed(&mut self, who: Who, replica: u32) {
        let op = self.rows.get(&who).map(|&row| &self.ops[row]);
        if let Some(key) = op.filter(|op| op.kind != Kind::Get).map(|op| op.key) {
            self.lagging.insert((key, replica));
        }
    }

    /// `client`'s caller-visible ops (a container counts once) that
    /// completed, in completion order.
    fn finished(&self, client: u32) -> Vec<Done> {
        let mine = |op: &&Op| op.client == client && op.batch.is_none();
        let mut done: Vec<Done> = self
            .ops
            .iter()
            .filter(mine)
            .filter_map(|op| op.done)
            .collect();
        done.sort_by_key(|d| d.at);
        done
    }

    /// The outcomes `client`'s caller saw, in completion order.
    pub fn outcomes(&self, client: u32) -> Vec<OpOutcome> {
        self.finished(client).iter().map(|d| d.outcome).collect()
    }

    /// The latencies `client` reported, in the order of [`Self::outcomes`].
    pub fn latencies(&self, client: u32) -> Vec<u64> {
        self.finished(client).iter().map(|d| d.latency).collect()
    }
}

/// A break of the §5 contract [`check`] found, with the op or key that
/// broke it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Rule 1: a hit whose (version, value) no replica committed, or whose
    /// value no SET nominated and no load installed.
    Uncommitted(Op),
    /// Rule 2: a hit below a version its client had already seen.
    Regressed(Op, u128),
    /// Rule 3: a quorum read invoked after a `Done` at the second field saw
    /// an older version, or a value first written below it, or missed.
    Stale(Op, u128),
    /// Rule 4: fewer than a write quorum of the key's replicas hold its
    /// newest acked version, counting a crashed one as holding it (key,
    /// version, live replicas holding it).
    Underreplicated(u128, u128, usize),
    /// Rule 4: the key's live replicas disagree.
    Diverged(u128, Vec<Copy>),
    /// Rule 5: an op invoked more than two deadlines before the end is
    /// still open.
    Stuck(Op),
}

/// Check `h` against §5's rules under `mode`, with DESIGN.md §5's
/// exemptions: rules 2 and 3 bind quorum reads only; a miss proves nothing
/// at R=2/Immutable or R=1, or once a replica has evicted; rule 4 binds a
/// key once its mutations have completed and, with scans on, two scan
/// intervals have passed (scans off, a replica a write missed may lag).
pub fn check(h: &History, mode: ReplicationMode) -> Vec<Violation> {
    let mut out = Vec::new();
    // Each key's ops, commits and copies.
    type Rows<'a> = (Vec<&'a Op>, Vec<&'a Commit>, Vec<Copy>);
    let mut keys: BTreeMap<u128, Rows> = BTreeMap::new();
    for op in &h.ops {
        if op.done.is_none() && op.invoked + 2 * h.deadline < h.end {
            out.push(Violation::Stuck(op.clone()));
        }
        if !matches!(op.kind, Kind::MultiGet | Kind::MultiSet) {
            keys.entry(op.key).or_default().0.push(op);
        }
    }
    for c in &h.commits {
        keys.entry(c.key).or_default().1.push(c);
    }
    for c in &h.copies {
        keys.entry(c.key).or_default().2.push(*c);
    }
    let outcome = |op: &Op| op.done.map(|d| d.outcome);
    let misses_count = mode == ReplicationMode::R32 && !h.evicted;
    for (key, (ops, commits, mut copies)) in keys {
        let (gets, sets): (Vec<&Op>, Vec<&Op>) = ops.iter().partition(|op| op.kind == Kind::Get);
        // (version, acked at, an ERASE) of every mutation acked `Done`.
        let acked = sets.iter().filter_map(|op| {
            let done = op.done.filter(|d| d.outcome == OpOutcome::Done)?;
            Some((op.version, done.at, op.kind == Kind::Erase))
        });
        let acked: Vec<_> = acked.collect();
        for &op in &gets {
            let mut seen = op.version;
            if outcome(op) == Some(Hit) {
                // The version the value was first written at: the newest
                // SET, CAS or load of it (a repair re-nominates it).
                let same = |c: &&&Commit| c.value == op.value;
                let committed = commits.iter().filter(same).any(|c| c.version == op.version);
                let nominated = sets.iter().filter(|o| o.value == op.value);
                let loaded = commits.iter().filter(same).filter(|c| c.loaded);
                let loaded = loaded.map(|c| c.version);
                let origin = nominated.map(|o| o.version).chain(loaded);
                match origin.max().filter(|_| committed) {
                    Some(origin) => seen = seen.min(origin),
                    None => out.push(Violation::Uncommitted(op.clone())),
                }
                let mine = gets.iter().filter(|o| o.client == op.client && o.quorum);
                let seen_by = |d: Done| d.outcome == Hit && d.at <= op.invoked;
                let before = mine.filter(|o| o.done.is_some_and(seen_by));
                let newer = before.map(|o| o.version).max();
                if let Some(v) = newer.filter(|&v| v > op.version && op.quorum) {
                    out.push(Violation::Regressed(op.clone(), v));
                }
            }
            // The newest mutation acked before this read began.
            let last = acked.iter().filter(|a| a.1 < op.invoked).max();
            let (hit, miss) = (outcome(op) == Some(Hit), outcome(op) == Some(Miss));
            if let Some(&(acked, _, erased)) = last.filter(|_| op.quorum) {
                if (hit && seen < acked) || (miss && misses_count && !erased) {
                    out.push(Violation::Stale(op.clone(), acked));
                }
            }
        }
        // Rule 4, once the key's mutations have completed and settled.
        let settle = h.scan.map_or(0, |scan| 2 * scan);
        if !sets
            .iter()
            .all(|op| op.done.is_some_and(|d| d.at + settle <= h.end))
        {
            continue;
        }
        if let Some(&(acked, ..)) = acked.iter().max() {
            let (down, up): (Vec<&Copy>, _) = copies.iter().partition(|c| !c.live);
            let holding = up.into_iter().filter(|c| c.version >= acked).count();
            if holding + down.len() < mode.write_quorum() as usize && !h.evicted {
                out.push(Violation::Underreplicated(key, acked, holding));
            }
        }
        let lags = |c: &Copy| h.scan.is_none() && h.lagging.contains(&(key, c.replica));
        copies.retain(|c| c.version > 0 && !lags(c));
        let differs = |c: &Copy| (c.version, c.value) != (copies[0].version, copies[0].value);
        if copies.iter().any(differs) {
            out.push(Violation::Diverged(key, copies));
        }
    }
    out
}

/// A cell's handle on its History (`None`: not recording), cloned into
/// every node that records.
pub type Tap = Rc<RefCell<Option<Box<History>>>>;

/// Append to `tap`'s History, if one is recording.
#[inline]
pub fn record(tap: &Tap, f: impl FnOnce(&mut History)) {
    if let Some(h) = tap.borrow_mut().as_deref_mut() {
        f(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEADLINE: u64 = 100;
    const END: u64 = 1_000;

    /// An op of client 1 on key 7, done at `at` with `outcome`.
    fn op(id: u64, kind: Kind, version: u128, value: u64, at: u64, outcome: OpOutcome) -> Op {
        let done = Some(Done {
            at,
            outcome,
            latency: 5,
        });
        let (client, key, batch, quorum) = (1, 7, None, true);
        let value = Some(value).filter(|_| kind != Kind::Erase && outcome != OpOutcome::Miss);
        Op {
            client,
            id,
            kind,
            key,
            batch,
            version,
            value,
            quorum,
            invoked: at - 5,
            done,
        }
    }

    fn copy(replica: u32, version: u128, value: Option<u64>) -> Copy {
        Copy {
            key: 7,
            replica,
            live: true,
            version,
            value,
        }
    }

    /// SET v1 @10 acked at 20, a GET hit of it at 40, every replica holding
    /// it: clean under every mode.
    fn clean() -> History {
        let mut h = History {
            end: END,
            deadline: DEADLINE,
            ..History::default()
        };
        h.ops.push(op(1, Kind::Set, 10, 1, 20, OpOutcome::Done));
        h.ops.push(op(2, Kind::Get, 10, 1, 40, OpOutcome::Hit));
        for replica in 0..3 {
            h.commits.push(Commit {
                key: 7,
                version: 10,
                value: Some(1),
                loaded: false,
            });
            h.copies.push(copy(replica, 10, Some(1)));
        }
        h
    }

    fn one(h: &History, mode: ReplicationMode) -> Violation {
        let found = check(h, mode);
        assert_eq!(found.len(), 1, "{found:?}");
        found[0].clone()
    }

    #[test]
    fn a_clean_history_passes_every_mode() {
        for mode in [
            ReplicationMode::R32,
            ReplicationMode::R2Immutable,
            ReplicationMode::R1,
        ] {
            assert_eq!(check(&clean(), mode), []);
        }
    }

    #[test]
    fn rule_1_a_hit_no_replica_committed() {
        let mut h = clean();
        h.ops[1].version = 11;
        assert!(matches!(
            one(&h, ReplicationMode::R32),
            Violation::Uncommitted(_)
        ));
    }

    #[test]
    fn rule_1_a_hit_no_set_nominated() {
        let mut h = clean();
        h.ops[1].value = Some(9);
        h.commits.push(Commit {
            key: 7,
            version: 10,
            value: Some(9),
            loaded: false,
        });
        assert!(matches!(
            one(&h, ReplicationMode::R32),
            Violation::Uncommitted(_)
        ));
    }

    #[test]
    fn rule_2_a_client_reads_an_older_version() {
        // A load at 5 and a SET at 10 that was superseded: the client's
        // GET of 10, then its GET of 5.
        let mut h = clean();
        h.ops[0].done = Some(Done {
            at: 70,
            outcome: OpOutcome::Superseded,
            latency: 5,
        });
        h.commits.push(Commit {
            key: 7,
            version: 5,
            value: Some(2),
            loaded: true,
        });
        h.ops.push(op(3, Kind::Get, 5, 2, 60, OpOutcome::Hit));
        h.copies.iter_mut().for_each(|c| c.version = 0);
        assert!(matches!(
            one(&h, ReplicationMode::R32),
            Violation::Regressed(_, 10)
        ));
    }

    #[test]
    fn rule_3_a_quorum_read_misses_an_acked_set() {
        let mut h = clean();
        h.ops[1] = op(2, Kind::Get, 0, 0, 40, OpOutcome::Miss);
        assert!(matches!(
            one(&h, ReplicationMode::R32),
            Violation::Stale(_, 10)
        ));
        // A lease-cache or single-server read promises nothing.
        h.ops[1].quorum = false;
        assert_eq!(check(&h, ReplicationMode::R32), []);
    }

    #[test]
    fn rule_3_a_repair_resurrects_an_acked_erase() {
        // ERASE @20 acked at 30; a repair re-nominates v1 at 25 on every
        // replica; the GET at 40 hits it.
        let mut h = clean();
        h.ops.push(op(3, Kind::Erase, 20, 0, 30, OpOutcome::Done));
        h.ops[1] = op(2, Kind::Get, 25, 1, 40, OpOutcome::Hit);
        h.commits.push(Commit {
            key: 7,
            version: 25,
            value: Some(1),
            loaded: false,
        });
        h.copies
            .iter_mut()
            .for_each(|c| *c = copy(c.replica, 25, Some(1)));
        assert!(matches!(
            one(&h, ReplicationMode::R32),
            Violation::Stale(_, 20)
        ));
    }

    #[test]
    fn rule_4_an_acked_set_below_a_write_quorum() {
        let mut h = clean();
        h.copies[1].version = 0;
        h.copies[2].version = 0;
        assert_eq!(
            one(&h, ReplicationMode::R32),
            Violation::Underreplicated(7, 10, 1)
        );
        // A crashed replica may hold it.
        h.copies[1].live = false;
        assert_eq!(check(&h, ReplicationMode::R32), []);
    }

    #[test]
    fn rule_4_live_replicas_disagree() {
        let mut h = clean();
        h.copies[2] = copy(2, 11, Some(3));
        assert!(matches!(
            one(&h, ReplicationMode::R32),
            Violation::Diverged(7, _)
        ));
        // Scans off, a replica a write failed at may lag for good.
        h.lagging.insert((7, 2));
        assert_eq!(check(&h, ReplicationMode::R32), []);
        // Scans on, two scan intervals after the last mutation it must
        // have been repaired...
        h.scan = Some(400);
        assert!(matches!(
            one(&h, ReplicationMode::R32),
            Violation::Diverged(7, _)
        ));
        // ... and before that, rule 4 waits.
        h.scan = Some(500);
        assert_eq!(check(&h, ReplicationMode::R32), []);
    }

    #[test]
    fn rule_4_waits_for_the_keys_mutations_to_complete() {
        let mut h = clean();
        h.copies[1].version = 0;
        h.copies[2].version = 0;
        let mut open = op(3, Kind::Set, 11, 2, 990, OpOutcome::Done);
        open.done = None;
        h.ops.push(open);
        assert_eq!(check(&h, ReplicationMode::R32), []);
    }

    #[test]
    fn rule_5_an_op_open_past_two_deadlines() {
        let mut h = clean();
        let mut open = op(3, Kind::Get, 0, 0, 50, OpOutcome::Miss);
        open.done = None;
        h.ops.push(open.clone());
        assert_eq!(one(&h, ReplicationMode::R32), Violation::Stuck(open));
        // Within two deadlines of the end it may still be running.
        h.ops[2].invoked = END - 2 * DEADLINE;
        assert_eq!(check(&h, ReplicationMode::R32), []);
    }

    #[test]
    fn a_miss_after_an_acked_set_is_the_contract_at_r2_and_r1() {
        let mut h = clean();
        h.ops[1] = op(2, Kind::Get, 0, 0, 40, OpOutcome::Miss);
        assert_eq!(check(&h, ReplicationMode::R2Immutable), []);
        assert_eq!(check(&h, ReplicationMode::R1), []);
        // Once a replica has evicted, absence proves nothing at R=3.2 either.
        h.evicted = true;
        assert_eq!(check(&h, ReplicationMode::R32), []);
    }

    #[test]
    fn outcomes_and_latencies_are_the_callers() {
        let mut h = clean();
        let mut member = op(3, Kind::Get, 10, 1, 30, OpOutcome::Hit);
        member.batch = Some(9);
        h.ops.push(member);
        assert_eq!(h.outcomes(1), [OpOutcome::Done, OpOutcome::Hit]);
        assert_eq!(h.latencies(1), [5, 5]);
    }
}
