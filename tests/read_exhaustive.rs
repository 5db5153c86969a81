//! Every answer one replica can give one sub-op, judged: the read core
//! (`cliquemap::read`) beside the quorum, repair, handoff and attempt cores.
//!
//! The walk crosses the four strategies, the op the answer belongs to (a
//! GET with or without a validated data copy in hand, a mutation, or none),
//! the three phases of a sub-op tag, a live or stale attempt, and every
//! answer: an RMA status (Ok, NoMatch, Unsupported, a stale-address status)
//! × a bucket (too short, or stamped with an older, equal or newer config)
//! × the key present or absent × the overflow flag × a data entry (empty,
//! the key's own, another key's, torn); an RPC status (Ok, NotFound,
//! VersionRejected, WrongShard, Internal); a lost RMA or RPC frame; a
//! garbled lookup. Each leaf's verdict and tally is checked against the
//! table below (DESIGN.md §3's, row by row), and the leaves per verdict are
//! pinned. ROADMAP 2(k)'s fix flips named counts: a reused slot (another
//! key's intact entry) reads as a `Collision` today and should read as torn.

use std::collections::BTreeMap;

use bytes::Bytes;
use cliquemap::layout::{
    bucket_size, bucket_slot_mut, encode_data_entry, set_bucket_config_id, set_bucket_overflow,
    IndexEntry, Pointer,
};
use cliquemap::quorum::{Reply, RetryReason, Vote};
use cliquemap::read::{judge, Answer, Context, Op, Phase, Strategy, Tally, Verdict};
use cliquemap::version::VersionNumber;
use rma::RmaStatus;
use rpc::Status;

const KEY: &[u8] = b"the-key";
const VALUE: &[u8] = b"the value";
const HASH: u128 = 0xC0FFEE;
/// The config id the client holds.
const CONFIG: u32 = 5;
const PTR: Pointer = Pointer {
    window: 7,
    generation: 3,
    offset: 4096,
    len: 64,
};

fn version() -> VersionNumber {
    VersionNumber::new(1_000, 9, 1)
}

#[derive(Debug, Clone, Copy)]
enum Stamp {
    Short,
    Older,
    Equal,
    Newer,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Empty,
    Own,
    Other,
    Torn,
}

#[derive(Debug, Clone, Copy)]
enum Case {
    Rma {
        status: RmaStatus,
        stamp: Stamp,
        present: bool,
        overflow: bool,
        data: Entry,
    },
    Rpc(Status),
    Garbled,
    Lost(adaptive::Path),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Held {
    Get { holds_data: bool },
    Mutation,
    Gone,
}

fn bucket(stamp: Stamp, present: bool, overflow: bool) -> Bytes {
    let config = match stamp {
        Stamp::Short => return Bytes::from(vec![0u8; 4]),
        Stamp::Older => CONFIG - 1,
        Stamp::Equal => CONFIG,
        Stamp::Newer => CONFIG + 1,
    };
    let mut raw = vec![0u8; bucket_size(2)];
    set_bucket_config_id(&mut raw, config);
    set_bucket_overflow(&mut raw, overflow);
    // Slot 0 always holds some other key; slot 1 holds this one if present.
    let other = IndexEntry {
        key_hash: HASH + 1,
        version: version(),
        ptr: PTR,
    };
    other.encode_into(bucket_slot_mut(&mut raw, 0));
    if present {
        let own = IndexEntry {
            key_hash: HASH,
            ..other
        };
        own.encode_into(bucket_slot_mut(&mut raw, 1));
    }
    Bytes::from(raw)
}

fn entry(data: Entry) -> Bytes {
    match data {
        Entry::Empty => Bytes::new(),
        Entry::Own => Bytes::from(encode_data_entry(KEY, VALUE, version())),
        Entry::Other => Bytes::from(encode_data_entry(b"another-key", VALUE, version())),
        Entry::Torn => {
            let mut raw = encode_data_entry(KEY, VALUE, version());
            raw[24] ^= 0xFF;
            Bytes::from(raw)
        }
    }
}

/// The answer as the wire carries it: a 2×R index read returns the bucket
/// as its data segment, its data read the entry; a SCAR returns both.
fn answer(strategy: Strategy, phase: Phase, case: Case) -> Answer {
    match case {
        Case::Rma {
            status,
            stamp,
            present,
            overflow,
            data,
        } => {
            let (b, d) = (bucket(stamp, present, overflow), entry(data));
            match (strategy, phase) {
                (Strategy::TwoR, Phase::Data) => Answer::Rma(status, Bytes::new(), d),
                (Strategy::TwoR, _) => Answer::Rma(status, Bytes::new(), b),
                _ => Answer::Rma(status, b, d),
            }
        }
        Case::Rpc(Status::Ok) => Answer::Rpc(Status::Ok, version(), Bytes::from_static(VALUE)),
        Case::Rpc(status) => Answer::status(status),
        Case::Garbled => Answer::Garbled,
        Case::Lost(path) => Answer::Lost(path),
    }
}

/// The table: what each answer must become, stated from DESIGN.md §3
/// rather than from the core's code.
fn expected(
    strategy: Strategy,
    held: Held,
    phase: Phase,
    live: bool,
    case: Case,
) -> (Verdict, Tally) {
    let mut t = Tally::default();
    let get = matches!(held, Held::Get { .. });
    let failed = || match get && live {
        true => Verdict::FAILED_VOTE,
        false => Verdict::Ignore,
    };
    let own = || (version(), Bytes::from_static(VALUE));
    let verdict = match case {
        Case::Lost(adaptive::Path::Rma) => failed(),
        Case::Rma {
            status: RmaStatus::Unsupported,
            ..
        } => failed(),
        Case::Rma { status, .. } if !matches!(status, RmaStatus::Ok | RmaStatus::NoMatch) => {
            Verdict::GeometryStale
        }
        Case::Rma { .. } if !get => Verdict::Ignore,
        Case::Rma { data, .. } if phase == Phase::Data => match (live, data) {
            (false, _) => Verdict::Ignore,
            (true, Entry::Own) => Verdict::Data(Some(own())),
            (true, Entry::Other) => {
                t.hash_collisions = true;
                Verdict::Collision
            }
            (true, Entry::Empty | Entry::Torn) => {
                t.torn_reads = true;
                Verdict::Data(None)
            }
        },
        Case::Rma {
            stamp: Stamp::Short,
            ..
        } => failed(),
        Case::Rma {
            stamp: Stamp::Newer,
            ..
        } => {
            t.config_mismatches = true;
            Verdict::Moved
        }
        Case::Rma {
            status,
            stamp,
            present,
            overflow,
            data,
        } => {
            t.stale_backend_config = matches!(stamp, Stamp::Older);
            let separate = strategy == Strategy::TwoR;
            let fresh = held == Held::Get { holds_data: false };
            let inline = match data {
                _ if separate || !live || !fresh || status != RmaStatus::Ok => None,
                Entry::Empty => None,
                Entry::Own => Some(own()),
                Entry::Other => {
                    t.hash_collisions = true;
                    None
                }
                Entry::Torn => {
                    t.torn_reads = true;
                    None
                }
            };
            let vote = match present {
                true => Vote::Entry(version(), PTR),
                false => Vote::Absent,
            };
            match live {
                true => Verdict::Vote(vote, overflow, inline),
                false => Verdict::Ignore,
            }
        }
        server => {
            t.missed = !matches!(
                server,
                Case::Rpc(Status::Ok | Status::VersionRejected | Status::NotFound)
            );
            let fallback = phase == Phase::Fallback;
            let failed =
                |lookup, round| Verdict::Served(Err(if fallback { round } else { lookup }), None);
            match (held, server) {
                (Held::Mutation, Case::Rpc(Status::WrongShard)) => Verdict::Moved,
                (Held::Mutation, _) if !live => Verdict::Ignore,
                (Held::Mutation, Case::Rpc(Status::Ok)) => Verdict::Reply(Reply::Ack),
                (Held::Mutation, Case::Rpc(Status::VersionRejected | Status::NotFound)) => {
                    Verdict::Reply(Reply::Reject)
                }
                (Held::Mutation, _) => Verdict::Reply(Reply::Failure),
                (Held::Get { .. }, _) if live => match server {
                    Case::Rpc(Status::Ok) => {
                        Verdict::Served(Ok(Some(version())), Some(Bytes::from_static(VALUE)))
                    }
                    Case::Rpc(Status::NotFound) => Verdict::Served(Ok(None), None),
                    Case::Garbled => failed(RetryReason::MsgDecode, RetryReason::FallbackDecode),
                    Case::Lost(_) => failed(RetryReason::MsgTimeout, RetryReason::FallbackTimeout),
                    _ => failed(RetryReason::MsgError, RetryReason::FallbackError),
                },
                _ => Verdict::Ignore,
            }
        }
    };
    (verdict, t)
}

fn kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Ignore => "Ignore",
        Verdict::Vote(Vote::Failed, ..) => "Vote(Failed)",
        Verdict::Vote(_, _, Some(_)) => "Vote+inline",
        Verdict::Vote(..) => "Vote",
        Verdict::Data(Some(_)) => "Data",
        Verdict::Data(None) => "Torn",
        Verdict::Collision => "Collision",
        Verdict::Served(..) => "Served",
        Verdict::Reply(_) => "Reply",
        Verdict::Moved => "Moved",
        Verdict::GeometryStale => "GeometryStale",
    }
}

fn cases() -> Vec<Case> {
    let mut all = Vec::new();
    let statuses = [
        RmaStatus::Ok,
        RmaStatus::NoMatch,
        RmaStatus::Unsupported,
        RmaStatus::BadGeneration,
    ];
    let stamps = [Stamp::Short, Stamp::Older, Stamp::Equal, Stamp::Newer];
    let datas = [Entry::Empty, Entry::Own, Entry::Other, Entry::Torn];
    for status in statuses {
        for stamp in stamps {
            for present in [false, true] {
                for overflow in [false, true] {
                    for data in datas {
                        all.push(Case::Rma {
                            status,
                            stamp,
                            present,
                            overflow,
                            data,
                        });
                    }
                }
            }
        }
    }
    let rpc = [
        Status::Ok,
        Status::NotFound,
        Status::VersionRejected,
        Status::WrongShard,
        Status::Internal,
    ];
    all.extend(rpc.map(Case::Rpc));
    all.push(Case::Garbled);
    all.push(Case::Lost(adaptive::Path::Rma));
    all.push(Case::Lost(adaptive::Path::Rpc));
    all
}

#[test]
fn every_answer_to_every_sub_op_is_judged_by_the_table() {
    let held = [
        Held::Get { holds_data: false },
        Held::Get { holds_data: true },
        Held::Mutation,
        Held::Gone,
    ];
    let phases = [Phase::Index, Phase::Data, Phase::Fallback];
    let (mut leaves, mut kinds, mut tallies) = (0u64, BTreeMap::new(), BTreeMap::new());
    let mut reused_slot_collisions = 0;
    for strategy in Strategy::ALL {
        for held in held {
            for phase in phases {
                // A completed op has no attempt to be live.
                for live in [false, true]
                    .into_iter()
                    .filter(|&l| !l || held != Held::Gone)
                {
                    for case in cases() {
                        let op = match held {
                            Held::Get { holds_data } => Op::Get {
                                key: KEY,
                                hash: HASH,
                                strategy,
                                holds_data,
                            },
                            Held::Mutation => Op::Mutation,
                            Held::Gone => Op::Gone,
                        };
                        let cx = Context {
                            op,
                            phase,
                            live,
                            config_id: CONFIG,
                        };
                        let got = judge(&cx, answer(strategy, phase, case));
                        let want = expected(strategy, held, phase, live, case);
                        assert_eq!(
                            got, want,
                            "{strategy:?} {held:?} {phase:?} live={live} {case:?}"
                        );
                        leaves += 1;
                        *kinds.entry(kind(&got.0)).or_insert(0u64) += 1;
                        let t = got.1;
                        let flags = [
                            ("torn_reads", t.torn_reads),
                            ("hash_collisions", t.hash_collisions),
                            ("stale_backend_config", t.stale_backend_config),
                            ("config_mismatches", t.config_mismatches),
                            ("missed", t.missed),
                        ];
                        for (name, _) in flags.into_iter().filter(|f| f.1) {
                            *tallies.entry(name).or_insert(0u64) += 1;
                        }
                        let other_key = matches!(
                            case,
                            Case::Rma {
                                data: Entry::Other,
                                ..
                            }
                        );
                        reused_slot_collisions += (other_key && got.0 == Verdict::Collision) as u64;
                    }
                }
            }
        }
    }
    assert_eq!(leaves, 22_176);
    let kinds: Vec<(&str, u64)> = kinds.into_iter().collect();
    assert_eq!(
        kinds,
        [
            ("Collision", 256),
            ("Data", 256),
            ("GeometryStale", 5_376),
            ("Ignore", 11_392),
            ("Moved", 1_048),
            ("Reply", 72),
            ("Served", 168),
            ("Torn", 512),
            ("Vote", 976),
            ("Vote(Failed)", 2_072),
            ("Vote+inline", 48),
        ]
    );
    let tallies: Vec<(&str, u64)> = tallies.into_iter().collect();
    assert_eq!(
        tallies,
        [
            ("config_mismatches", 1_024),
            ("hash_collisions", 304),
            ("missed", 336),
            ("stale_backend_config", 1_024),
            ("torn_reads", 560),
        ]
    );
    // ROADMAP 2(k), pinned: every live data read (phase 1) of another key's
    // intact entry is a collision, which ends the GET in a Miss. Once a
    // mismatch counts as a collision only when the found key hashes to the
    // GET's hash, these 256 leaves move from `Collision` to `Torn`.
    assert_eq!(reused_slot_collisions, 256);
}
