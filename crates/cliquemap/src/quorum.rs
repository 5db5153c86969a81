//! The quorum rules (§5.1–5.2) as a sans-IO core: inputs in, one step out.
//!
//! A GET returns a value only when a read quorum of replicas agrees on its
//! version *and* the data came from a member of that quorum; it reports a
//! miss only when a read quorum of *base* replicas affirmatively lacks the
//! key; a mutation is done only on a write quorum of base acks. This module
//! decides exactly that and nothing else: it sends nothing, counts nothing,
//! draws no randomness and allocates nothing. [`crate::client`] parses wire
//! verdicts into inputs, feeds them here and executes the step it gets
//! back, so every order in which votes can arrive is enumerable — and
//! `tests/quorum_exhaustive.rs` enumerates them all.

use crate::layout::Pointer;
use crate::version::VersionNumber;

/// A replica, named by its position in the op's replica list: the base
/// (quorum-bearing) replicas come first and `0` is the key's primary.
pub type Replica = u8;

/// The most replicas one attempt reads index votes from (R=3.2's three).
pub const MAX_CONSULT: usize = 3;

/// What one replica's index bucket says about the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Vote {
    /// The bucket holds the key at this version, data at this pointer.
    Entry(VersionNumber, Pointer),
    /// The bucket does not hold the key.
    Absent,
    /// The replica failed (RMA error, timeout, torn bucket).
    #[default]
    Failed,
}

/// Why an attempt failed (one retry counter each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum RetryReason {
    Inquorate,
    Speculation,
    ConfigMismatch,
    TornRead,
    MsgDecode,
    MsgError,
    MsgTimeout,
    FallbackDecode,
    FallbackError,
    FallbackTimeout,
    MutationFailures,
}

/// A server's own answer to a lookup (an MSG/RPC GET, or one verdict of an
/// overflow-fallback round): the version it holds the key at, `None` if it
/// affirmatively lacks it, or what the attempt fails with if no usable
/// answer follows.
pub type Served = Result<Option<VersionNumber>, RetryReason>;

/// What the client does next about a GET attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetStep {
    /// Nothing yet: more inputs are outstanding, or the op is decided.
    Wait,
    /// Read the data entry at `ptr` from replica `from` (at most once per
    /// attempt); its arrival comes back through [`GetQuorum::data`].
    FetchData {
        /// The preferred backend.
        from: Replica,
        /// Where its index entry says the data is.
        ptr: Pointer,
    },
    /// A read quorum agrees on the leased version: renew the lease-cache
    /// entry and serve it, or answer [`GetQuorum::lease_gone`].
    ValidateLease(VersionNumber),
    /// A miss quorum over an overflowed bucket: ask every replica's server
    /// (§4.2), one [`GetQuorum::served`] per answer.
    Fallback,
    /// The op hits at the version a read quorum (or the answering server)
    /// vouches for. Final.
    Hit(VersionNumber),
    /// The op misses. Final.
    Miss,
    /// As things stand the attempt cannot decide: arm a retry. The attempt
    /// stays open until the next one begins and every straggling input is
    /// still judged — a late miss quorum may finish the op first, the retry
    /// then finding nothing to do.
    Retry(RetryReason),
}

/// The rules one GET attempt is decided under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GetRules {
    /// Entry votes that must agree on a version, and base `Absent` votes
    /// that make a miss.
    pub read_quorum: u8,
    /// Index votes the attempt waits for: the size of its consult set.
    pub expected_votes: u8,
    /// Replicas `0..n_base` are the base set. Extended hot-key copies
    /// behind it can join a hit quorum but never a miss quorum: one that
    /// has not had its repair push yet is absent without the key being gone.
    pub n_base: u8,
    /// Replicas in the key's whole set; a fallback round asks them all.
    pub n_replicas: u8,
    /// 2×R: the data is a second read from one chosen voter. SCAR: false,
    /// data rides the vote ([`GetQuorum::inline_data`]).
    pub data_is_separate: bool,
    /// Fetch data from the first entry voter (§5.1); off, only the primary.
    pub prefer_first_responder: bool,
    /// Overflowed buckets get an RPC fallback round before a miss.
    pub fallback: bool,
}

/// One GET's quorum state. [`GetQuorum::begin`] starts each attempt; the
/// stale lease and the backend to avoid carry over between attempts.
#[derive(Debug, Clone, Copy, Default)]
pub struct GetQuorum {
    rules: GetRules,
    /// Index votes in arrival order (first responder first).
    votes: [(Replica, Vote); MAX_CONSULT],
    n_votes: u8,
    /// The validated data in hand: who served it, at what version.
    data: Option<(Replica, VersionNumber)>,
    data_requested: bool,
    saw_overflow: bool,
    /// Server answers still outstanding (a fallback round, or one lookup).
    serving: u8,
    /// `Hit`, `Miss` or a served round's `Retry` went out; everything
    /// after it is `Wait`.
    decided: bool,
    /// The replica whose data failed to quorum last attempt.
    avoid: Option<Replica>,
    /// The version of the op's expired lease-cache entry, until it is
    /// validated or found gone.
    lease: Option<VersionNumber>,
}

impl GetQuorum {
    /// State for a new op holding a stale lease at `lease`, if any.
    pub fn new(lease: Option<VersionNumber>) -> GetQuorum {
        let fresh = GetQuorum::default();
        GetQuorum { lease, ..fresh }
    }

    /// Start an attempt that reads index votes under `rules`.
    pub fn begin(&mut self, rules: GetRules) {
        let (avoid, lease) = (self.avoid, self.lease);
        let fresh = GetQuorum::default();
        *self = GetQuorum {
            rules,
            avoid,
            lease,
            ..fresh
        };
    }

    /// Start an attempt that asks one server to do the lookup (MSG/RPC).
    pub fn begin_lookup(&mut self) {
        self.begin(GetRules::default());
        self.serving = 1;
    }

    /// The rules of the current attempt.
    pub fn rules(&self) -> &GetRules {
        &self.rules
    }

    /// Whether the op still holds its stale lease (a miss then drops the
    /// cached entry).
    pub fn holds_lease(&self) -> bool {
        self.lease.is_some()
    }

    fn votes(&self) -> &[(Replica, Vote)] {
        &self.votes[..self.n_votes as usize]
    }

    fn entries(&self) -> impl Iterator<Item = (Replica, VersionNumber, Pointer)> + '_ {
        self.votes().iter().filter_map(|&(n, v)| match v {
            Vote::Entry(ver, ptr) => Some((n, ver, ptr)),
            _ => None,
        })
    }

    /// How many replicas voted an entry at exactly `version`.
    fn agree(&self, version: VersionNumber) -> usize {
        self.entries().filter(|&(_, v, _)| v == version).count()
    }

    /// No data in hand and none on its way.
    fn fetch_open(&self) -> bool {
        self.data.is_none() && !self.data_requested
    }

    fn settle(&mut self, step: GetStep) -> GetStep {
        self.decided = true;
        step
    }

    fn retry(&mut self, reason: RetryReason) -> GetStep {
        self.shun_data_source();
        GetStep::Retry(reason)
    }

    /// The attempt will be retried: have the next one avoid the replica
    /// whose data is in hand. [`GetStep::Retry`] does this itself; the
    /// client calls it when it retries for a reason the core does not
    /// judge (a bucket stamped with a newer config).
    pub fn shun_data_source(&mut self) {
        if let Some((from, _)) = self.data {
            self.avoid = Some(from);
        }
    }

    /// Replica `from`'s index vote; `overflowed`: its bucket has spilled
    /// entries to the overflow table. A replica's second vote replaces its
    /// first: that is how the failure of the data read it was asked for
    /// arrives (`Failed`, withdrawing its entry).
    pub fn vote(&mut self, from: Replica, vote: Vote, overflowed: bool) -> GetStep {
        let n = self.n_votes as usize;
        self.saw_overflow |= overflowed;
        if let Some(slot) = self.votes[..n].iter_mut().find(|(r, _)| *r == from) {
            slot.1 = vote;
        } else if n < MAX_CONSULT {
            self.votes[n] = (from, vote);
            self.n_votes += 1;
        }
        self.decide()
    }

    /// SCAR: a checksum- and key-validated data entry rode `from`'s vote,
    /// which follows. The attempt keeps the first one it gets.
    pub fn inline_data(&mut self, from: Replica, version: VersionNumber) {
        self.data.get_or_insert((from, version));
    }

    /// The read [`GetStep::FetchData`] asked for came back from `from`:
    /// a validated entry at `Some(version)`, or `None` for a torn one.
    pub fn data(&mut self, from: Replica, version: Option<VersionNumber>) -> GetStep {
        if self.decided {
            return GetStep::Wait;
        }
        let Some(version) = version else {
            return self.retry(RetryReason::TornRead);
        };
        self.data = Some((from, version));
        self.decide()
    }

    /// One server answer. The round resolves once: on the first version
    /// found, or on its last answer — so R silent replicas fail the
    /// attempt once. Its `Retry` closes the attempt: a straggling vote must
    /// not turn servers that never answered into a miss.
    pub fn served(&mut self, answer: Served) -> GetStep {
        if self.decided || self.serving == 0 {
            return GetStep::Wait;
        }
        self.serving -= 1;
        let step = match answer {
            Ok(Some(version)) => GetStep::Hit(version),
            Ok(None) if self.serving == 0 => GetStep::Miss,
            Err(reason) if self.serving == 0 => self.retry(reason),
            _ => return GetStep::Wait,
        };
        self.settle(step)
    }

    /// The entry [`GetStep::ValidateLease`] named was evicted or replaced
    /// since the op looked it up: carry on without the lease.
    pub fn lease_gone(&mut self) -> GetStep {
        self.decide()
    }

    fn decide(&mut self) -> GetStep {
        if self.decided {
            return GetStep::Wait;
        }
        let rq = self.rules.read_quorum as usize;
        // Validated data whose version a read quorum — its server among
        // them — agrees on is a hit.
        if let Some((from, version)) = self.data {
            let member = self.entries().any(|(n, v, _)| n == from && v == version);
            if member && self.agree(version) >= rq {
                return self.settle(GetStep::Hit(version));
            }
        }
        let base_absent = |&&(n, v): &&_| v == Vote::Absent && n < self.rules.n_base;
        if self.votes().iter().filter(base_absent).count() >= rq {
            if self.serving > 0 {
                // A straggling vote must not launch a second round.
                return GetStep::Wait;
            }
            if self.saw_overflow && self.rules.fallback {
                self.saw_overflow = false;
                self.serving = self.rules.n_replicas;
                return GetStep::Fallback;
            }
            return self.settle(GetStep::Miss);
        }
        // A read quorum on the leased version serves the cached value
        // without the data read (2×R), or despite SCAR data served elsewhere.
        let agreed = |cv: &VersionNumber| self.fetch_open() && self.agree(*cv) >= rq;
        if let Some(cv) = self.lease.filter(agreed) {
            self.lease = None;
            return GetStep::ValidateLease(cv);
        }
        let expected = self.rules.expected_votes as usize;
        let n = self.n_votes as usize;
        let all_voted = n >= expected;
        // While quorum on the leased version is still reachable, fetching
        // data would waste the round trip validation is about to save.
        let validating = self.lease.is_some_and(|cv| {
            self.fetch_open() && self.agree(cv) + expected.saturating_sub(n) >= rq
        });
        if self.rules.data_is_separate && !self.data_requested && !validating {
            // Preferred backend: the first entry voter that is eligible;
            // once everyone has voted and none is, any entry voter.
            let prefer_first = self.rules.prefer_first_responder;
            let candidate = self
                .entries()
                .filter(|&(n, ..)| prefer_first || n == 0)
                .find(|&(n, ..)| Some(n) != self.avoid)
                .or_else(|| self.entries().next().filter(|_| all_voted));
            if let Some((from, _, ptr)) = candidate {
                self.data_requested = true;
                return GetStep::FetchData { from, ptr };
            }
        }
        if all_voted {
            let answered = self.votes().iter().filter(|(_, v)| *v != Vote::Failed);
            if answered.count() < rq || !self.data_requested {
                // Too many failures; or no data and no miss quorum (SCAR
                // with no usable inline copy, hot-routed absents that were
                // all extended copies).
                return self.retry(RetryReason::Inquorate);
            }
            if self.data.is_some() {
                // The data's version did not quorum: avoid its server.
                return self.retry(RetryReason::Speculation);
            }
        }
        GetStep::Wait
    }
}

/// Which replicas attempt `attempt` (from 1) of GET `op_id` reads index
/// votes from, out of `n_replicas` of which the first `n_base` are base:
/// the members in issue order, and how many. Immutable mode reads one
/// replica, alternating on retry. A hot-routed key (extended copies exist)
/// reads a rotating pair of base replicas plus one extended copy, so each
/// base replica serves 2/`n_base` of the hot key's index reads; quorum
/// still forms from agreeing versions, whichever copies answered.
/// Everything else reads every replica but those `demoted` names (bit `i`
/// = replica `i`; asked once, with the set's size, only about a set of
/// more than one) — gray-failure evasion; the other shapes are curated.
pub fn consult_set(
    immutable: bool,
    n_replicas: usize,
    n_base: usize,
    attempt: u64,
    op_id: u64,
    demoted: impl FnOnce(usize) -> u64,
) -> ([Replica; MAX_CONSULT], usize) {
    let spin = (attempt - 1) as usize;
    if immutable {
        return ([(spin % n_replicas) as Replica, 0, 0], 1);
    }
    if n_replicas > n_base {
        let spin = spin + op_id as usize;
        let b0 = spin % n_base;
        let ext = n_base + spin % (n_replicas - n_base);
        return ([b0, (b0 + 1) % n_base, ext].map(|r| r as Replica), 3);
    }
    let n = n_replicas.min(MAX_CONSULT);
    let mask = if n > 1 { demoted(n) } else { 0 };
    let (mut set, mut kept) = ([0; MAX_CONSULT], 0);
    for i in (0..n).filter(|i| mask & (1 << i) == 0) {
        set[kept] = i as Replica;
        kept += 1;
    }
    (set, kept)
}

/// One replica's answer to a mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Applied at the nominated version.
    Ack,
    /// Refused: a newer version is stored, or the CAS expectation failed.
    Reject,
    /// No verdict (error status, lost frame).
    Failure,
}

/// What the client does next about a mutation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationStep {
    /// More replies are outstanding, or the attempt is decided.
    Wait,
    /// A write quorum of base replicas applied it.
    Done,
    /// A write quorum of acks is no longer possible: a newer version won.
    Superseded,
    /// Everyone answered and failures left it undecided: retry with a
    /// fresh, higher version.
    Retry,
}

/// One mutation attempt's quorum state.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutationQuorum {
    write_quorum: u8,
    n_base: u8,
    copies: u8,
    acks_base: u8,
    rejects_base: u8,
    replies: u8,
    decided: bool,
}

impl MutationQuorum {
    /// Start an attempt over `copies` replicas, the first `n_base` of them
    /// base: `write_quorum` base acks make it done; extended hot-key copies
    /// get the write, so their data stays fresh, but can neither ack a
    /// write quorum nor veto one. `skipped` replicas were left out of the
    /// fan-out and will never answer: failures from the start.
    pub fn begin(write_quorum: u8, n_base: u8, copies: u8, skipped: u8) -> MutationQuorum {
        MutationQuorum {
            write_quorum,
            n_base,
            copies,
            replies: skipped,
            ..MutationQuorum::default()
        }
    }

    /// One replica's reply; `base`: it is one of the base replicas.
    pub fn reply(&mut self, base: bool, reply: Reply) -> MutationStep {
        if self.decided {
            return MutationStep::Wait;
        }
        self.replies += 1;
        self.acks_base += (base && reply == Reply::Ack) as u8;
        self.rejects_base += (base && reply == Reply::Reject) as u8;
        let step = if self.acks_base >= self.write_quorum {
            MutationStep::Done
        } else if self.rejects_base > self.n_base.saturating_sub(self.write_quorum) {
            MutationStep::Superseded
        } else if self.replies >= self.copies {
            MutationStep::Retry
        } else {
            return MutationStep::Wait;
        };
        self.decided = true;
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agree_counts_entry_votes_at_one_version() {
        let (v1, v2) = (VersionNumber(10), VersionNumber(20));
        let mut get = GetQuorum::default();
        get.begin(GetRules {
            read_quorum: 3,
            expected_votes: 3,
            n_base: 3,
            n_replicas: 3,
            ..GetRules::default()
        });
        assert_eq!(get.agree(v1), 0);
        let entry = |v| Vote::Entry(v, Pointer::default());
        assert_eq!(get.vote(2, entry(v1), false), GetStep::Wait);
        assert_eq!(get.vote(0, entry(v2), false), GetStep::Wait);
        // A replica's second vote replaces its first, in place.
        assert_eq!(get.vote(2, Vote::Absent, false), GetStep::Wait);
        assert_eq!(get.vote(2, entry(v1), false), GetStep::Wait);
        assert_eq!((get.agree(v1), get.agree(v2)), (1, 1));
        assert_eq!(get.agree(VersionNumber::ZERO), 0);
        let responders: Vec<Replica> = get.entries().map(|(n, _, _)| n).collect();
        assert_eq!(responders, [2, 0], "first responder first");
        assert_eq!(
            get.vote(1, entry(v1), false),
            GetStep::Retry(RetryReason::Inquorate),
            "SCAR shape, all votes in, no data"
        );
        assert_eq!(get.agree(v1), 2);
    }
}
