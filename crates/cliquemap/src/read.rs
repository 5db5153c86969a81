//! A GET's self-validation as a sans-IO core: one answer in, one verdict
//! out.
//!
//! CliqueMap's reads validate themselves (§3 step 5): a DataEntry carries a
//! checksum and its full key, a bucket carries the config id it was written
//! under, and a window carries a generation. This module turns what one
//! replica said — or failed to say — about one sub-op into the one thing
//! the client does with it, plus the counters that answer bumps. It also
//! holds the per-strategy rows the wire path reads. It sends nothing, keeps
//! no state and draws no randomness. [`crate::client`] asks it about every
//! sub-op answer and feeds the verdict to the quorum core, so
//! `tests/read_exhaustive.rs` walks every answer through every strategy,
//! phase and attempt.

use std::sync::LazyLock;

use bytes::Bytes;
use rma::RmaStatus;
use rpc::{RpcCostModel, Status};

use crate::hash::KeyHash;
use crate::layout::{self, bucket_config_id, bucket_overflowed, parse_data_entry, scan_bucket};
use crate::messages::method;
use crate::quorum::{Reply, RetryReason, Served, Vote};
use crate::version::VersionNumber;
use crate::{MSG_COST, RPC_COST};

pub use adaptive::Strategy;

/// Everything the client knows about a lookup strategy; the wire path is
/// strategy-blind apart from reading its row.
#[derive(Debug)]
pub struct StrategyRow {
    /// Which health path its responses travel. An RMA row reads each
    /// consulted replica's bucket (2×R) or Scans-and-Reads it (SCAR),
    /// served by the remote NIC; an RPC row asks one server's CPU.
    pub path: adaptive::Path,
    /// The data entry is a second read from one chosen voter (2×R), not
    /// part of the index response.
    pub data_is_separate: bool,
    /// RPC method of a single lookup and of a coalesced frame of them.
    pub methods: (u16, u16),
    /// The cost model a server-side lookup is billed at.
    pub cost: Option<&'static LazyLock<RpcCostModel>>,
}

impl StrategyRow {
    const fn rma(data_is_separate: bool) -> StrategyRow {
        let (path, methods, cost) = (adaptive::Path::Rma, (0, 0), None);
        StrategyRow {
            path,
            data_is_separate,
            methods,
            cost,
        }
    }

    const fn rpc(methods: (u16, u16), cost: &'static LazyLock<RpcCostModel>) -> StrategyRow {
        let (path, data_is_separate, cost) = (adaptive::Path::Rpc, false, Some(cost));
        StrategyRow {
            path,
            data_is_separate,
            methods,
            cost,
        }
    }

    /// The cost model of a server-side lookup; panics for an RMA row.
    pub fn cost(&self) -> &'static RpcCostModel {
        self.cost.expect("only server-side lookups are billed")
    }
}

/// One row per [`Strategy`], in [`Strategy::index`] order.
const STRATEGIES: [StrategyRow; 4] = [
    StrategyRow::rma(true),
    StrategyRow::rma(false),
    StrategyRow::rpc((method::MSG_GET, method::MSG_MULTI_GET), &MSG_COST),
    StrategyRow::rpc((method::GET_RPC, method::MULTI_GET_RPC), &RPC_COST),
];

/// The row of strategy `s`.
pub fn row(s: Strategy) -> &'static StrategyRow {
    &STRATEGIES[s.index()]
}

/// What one replica said — or failed to say — about one sub-op.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A one-sided result: status, SCAR bucket segment, data segment.
    Rma(RmaStatus, Bytes, Bytes),
    /// A server verdict. Lookup hits carry `(version, value)`; mutation
    /// verdicts and misses leave them zero/empty.
    Rpc(Status, VersionNumber, Bytes),
    /// A single-frame lookup response whose Ok body did not decode.
    Garbled,
    /// The frame carrying the sub-op never came back on this wire path.
    Lost(adaptive::Path),
}

impl Answer {
    /// A bare server status (no lookup payload).
    pub fn status(status: Status) -> Answer {
        Answer::Rpc(status, VersionNumber::ZERO, Bytes::new())
    }
}

/// Which sub-op of an attempt was answered (the low bits of its tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// What the attempt sent first: an index read, SCAR, lookup or mutation.
    Index,
    /// The 2×R data read of one chosen voter.
    Data,
    /// One server's verdict in an overflow-fallback round.
    Fallback,
}

impl Phase {
    /// The phase a tag's low bits name (`1` data, `2` fallback, else index).
    pub fn of(bits: u8) -> Phase {
        match bits {
            1 => Phase::Data,
            2 => Phase::Fallback,
            _ => Phase::Index,
        }
    }
}

/// The op an answered sub-op belongs to, as the client holds it now.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    /// A GET.
    Get {
        /// The full key a data entry must carry.
        key: &'a [u8],
        /// The key's hash, which its bucket is scanned for.
        hash: KeyHash,
        /// The wire strategy the op issued under.
        strategy: Strategy,
        /// Its attempt holds a validated data copy (only the first is kept).
        holds_data: bool,
    },
    /// A SET, ERASE or CAS.
    Mutation,
    /// No op: it completed.
    Gone,
}

/// What an answer is judged against.
#[derive(Debug, Clone, Copy)]
pub struct Context<'a> {
    /// The op, if it is still open.
    pub op: Op<'a>,
    /// Which of the attempt's sub-ops was answered.
    pub phase: Phase,
    /// The answer belongs to the op's current attempt.
    pub live: bool,
    /// The config id the client holds (`0`: none yet).
    pub config_id: u32,
}

/// What the client does with one answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing: the op is gone, or the answer is to an earlier attempt.
    Ignore,
    /// The replica's index vote for the live attempt, whether its bucket
    /// spilled entries to the overflow table, and (SCAR) the first
    /// checksum- and key-validated copy of the data entry: its version and
    /// value, a zero-copy slice of the inbound frame.
    Vote(Vote, bool, Option<(VersionNumber, Bytes)>),
    /// The live 2×R data read: its version and value, or `None` (torn).
    Data(Option<(VersionNumber, Bytes)>),
    /// The live 2×R data read found an intact entry of another key: a
    /// 128-bit hash collision, so the op misses (ROADMAP 2(k): a reused
    /// slot lands here too).
    Collision,
    /// A server's answer to the live attempt's lookup or fallback round,
    /// with the value of a hit.
    Served(Served, Option<Bytes>),
    /// A replica's answer to the live attempt of a mutation.
    Reply(Reply),
    /// The replica holds a newer config than ours (a bucket stamped newer,
    /// or a mutation's `WrongShard`), whatever the attempt: refresh the
    /// config. A GET shuns its data source first, then retries
    /// (`ConfigMismatch`); a live mutation attempt counts a failed reply.
    Moved,
    /// The replica refused the op's address (revoked window, bounds,
    /// generation), whatever the op: drop its geometry and re-learn it at
    /// CONNECT (§4.1). A live GET attempt's vote from it fails.
    GeometryStale,
}

impl Verdict {
    /// A failed index vote: the replica could not be read.
    pub const FAILED_VOTE: Verdict = Verdict::Vote(Vote::Failed, false, None);
}

/// The counters one answer bumps, each by one, beside its verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `cm.get.torn_reads`: a data entry failed its checksum (§3: rare,
    /// but normal).
    pub torn_reads: bool,
    /// `cm.get.hash_collisions`: an intact data entry of another key.
    pub hash_collisions: bool,
    /// `cm.client.stale_backend_config`: a bucket stamped with an older
    /// config, tolerated (the replica was chosen from the current config).
    pub stale_backend_config: bool,
    /// `cm.client.config_mismatches`: a GET's bucket stamped newer.
    pub config_mismatches: bool,
    /// A History record, not a counter: a write may not have reached the
    /// replica (any RPC-path answer but Ok, VersionRejected or NotFound,
    /// even when its op is long done).
    pub missed: bool,
}

/// Judge one `answer` in `cx`: the verdict and what it counts.
#[inline]
pub fn judge(cx: &Context<'_>, answer: Answer) -> (Verdict, Tally) {
    let mut tally = Tally::default();
    let verdict = match answer {
        Answer::Rma(status, bucket, data) => one_sided(cx, status, bucket, data, &mut tally),
        Answer::Lost(adaptive::Path::Rma) => failed_vote(cx),
        rpc => {
            tally.missed = !matches!(
                rpc,
                Answer::Rpc(Status::Ok | Status::VersionRejected | Status::NotFound, ..)
            );
            served(cx, rpc)
        }
    };
    (verdict, tally)
}

/// A replica that could not be read: a live GET attempt's failed vote.
fn failed_vote(cx: &Context<'_>) -> Verdict {
    match cx.op {
        Op::Get { .. } if cx.live => Verdict::FAILED_VOTE,
        _ => Verdict::Ignore,
    }
}

/// An RMA result: the status policy, then the data entry (phase 1) or the
/// bucket's stamp, scan and SCAR's inline entry.
fn one_sided(
    cx: &Context<'_>,
    status: RmaStatus,
    bucket: Bytes,
    data: Bytes,
    tally: &mut Tally,
) -> Verdict {
    match status {
        RmaStatus::Ok | RmaStatus::NoMatch => {}
        RmaStatus::Unsupported => return failed_vote(cx),
        _ => return Verdict::GeometryStale,
    }
    let Op::Get {
        key,
        hash,
        strategy,
        holds_data,
    } = cx.op
    else {
        return Verdict::Ignore;
    };
    if cx.phase == Phase::Data {
        if !cx.live {
            return Verdict::Ignore;
        }
        return match validate(data, key, tally) {
            Ok(read) => Verdict::Data(Some(read)),
            Err(Invalid::Torn) => Verdict::Data(None),
            Err(Invalid::OtherKey) => Verdict::Collision,
        };
    }
    // 2×R read the bucket as plain data; a SCAR returns the bucket and, on
    // a match, the entry it points at.
    let (bucket, inline) = match row(strategy).data_is_separate {
        true => (data, Bytes::new()),
        false => (bucket, data),
    };
    if bucket.len() < layout::BUCKET_HEADER_BYTES {
        return failed_vote(cx);
    }
    let stamp = bucket_config_id(&bucket);
    if stamp > cx.config_id {
        // The backend knows a newer configuration (it migrated its shard
        // away, §6.1). Votes still outstanding may yet settle the op.
        tally.config_mismatches = true;
        return Verdict::Moved;
    }
    tally.stale_backend_config = stamp < cx.config_id;
    if !cx.live {
        return Verdict::Ignore;
    }
    let vote = match scan_bucket(&bucket, hash).0 {
        Some((_, e)) => Vote::Entry(e.version, e.ptr),
        None => Vote::Absent,
    };
    let fresh = status == RmaStatus::Ok && !inline.is_empty() && !holds_data;
    let inline = fresh.then(|| validate(inline, key, tally).ok()).flatten();
    Verdict::Vote(vote, bucket_overflowed(&bucket), inline)
}

/// Why a fetched data entry is not the key's value.
enum Invalid {
    Torn,
    OtherKey,
}

/// Self-validate a fetched data entry (§3 step 5: checksum, then full key),
/// counting a failure: its version and its value, a zero-copy slice.
fn validate(raw: Bytes, key: &[u8], tally: &mut Tally) -> Result<(VersionNumber, Bytes), Invalid> {
    let Ok(entry) = parse_data_entry(&raw) else {
        tally.torn_reads = true;
        return Err(Invalid::Torn);
    };
    if entry.key != key {
        tally.hash_collisions = true;
        return Err(Invalid::OtherKey);
    }
    let at = layout::DATA_ENTRY_HEADER_BYTES + key.len();
    Ok((entry.version, raw.slice(at..at + entry.data.len())))
}

/// A server's answer (or its absence) about a lookup or a mutation.
fn served(cx: &Context<'_>, answer: Answer) -> Verdict {
    let (lookup, round) = match (cx.op, answer) {
        // The replica handed its shard away.
        (Op::Mutation, Answer::Rpc(Status::WrongShard, ..)) => return Verdict::Moved,
        (_, _) if !cx.live => return Verdict::Ignore,
        (Op::Mutation, answer) => {
            return Verdict::Reply(match answer {
                Answer::Rpc(Status::Ok, ..) => Reply::Ack,
                Answer::Rpc(Status::VersionRejected | Status::NotFound, ..) => Reply::Reject,
                // A lost frame is the verdict a failed RPC would have been.
                _ => Reply::Failure,
            });
        }
        (Op::Gone, _) => return Verdict::Ignore,
        (_, Answer::Rpc(Status::Ok, version, value)) => {
            return Verdict::Served(Ok(Some(version)), Some(value));
        }
        (_, Answer::Rpc(Status::NotFound, ..)) => return Verdict::Served(Ok(None), None),
        (_, Answer::Garbled) => (RetryReason::MsgDecode, RetryReason::FallbackDecode),
        (_, Answer::Lost(_)) => (RetryReason::MsgTimeout, RetryReason::FallbackTimeout),
        _ => (RetryReason::MsgError, RetryReason::FallbackError),
    };
    let fallback = cx.phase == Phase::Fallback;
    Verdict::Served(Err(if fallback { round } else { lookup }), None)
}
