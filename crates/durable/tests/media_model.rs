//! The segment-queue [`Media`] against a flat reference model.
//!
//! The oracle below is the log as the device wrote it: one `Vec<u8>`,
//! `decode_stream` over the whole of it for every question, `drain` to
//! truncate (plus the open-time rule that a commit first cuts a torn tail
//! off). It never compacts. It answers over that log minus every record a
//! later intact, strictly newer record of the same key superseded — each
//! key's *current* record is the one a later record must be strictly newer
//! than; a record no newer than it supersedes nothing and stays, and a key
//! whose current record was checkpointed starts afresh. Random operation
//! sequences must leave both with the same answers at every step — this
//! equivalence is what keeps `restart.csv` and the durable chaos act
//! reproducible — and, whatever was dropped, `Media::recover()` must fold
//! to what the whole uncompacted log folds to.

use std::collections::BTreeMap;

use durable::{append_record, apply_record, decode_stream, Media, Record, KIND_ERASE, KIND_SET};
use proptest::prelude::*;

type Map = BTreeMap<Vec<u8>, (u8, u128, Vec<u8>)>;

#[derive(Default)]
struct FlatMedia {
    /// Every record made durable and not yet checkpointed, superseded ones
    /// included, then any torn suffix.
    wal: Vec<u8>,
    /// Per intact record of `wal`, in log order: superseded?
    dead: Vec<bool>,
    /// Each key's current record, as an index into `dead`.
    current: BTreeMap<Vec<u8>, usize>,
    snapshot: Map,
    truncated_bytes: u64,
}

impl FlatMedia {
    fn records(&self) -> Vec<Record> {
        decode_stream(&self.wal).0
    }

    /// Intact records recovery replays from the log, in log order.
    fn live(&self) -> Vec<Record> {
        let recs = self.records();
        recs.into_iter()
            .zip(&self.dead)
            .filter(|(_, &dead)| !dead)
            .map(|(r, _)| r)
            .collect()
    }

    fn commit(&mut self, encoded: &[u8]) {
        let (_, tail) = decode_stream(&self.wal);
        self.wal.truncate(tail.consumed);
        self.wal.extend_from_slice(encoded);
        let recs = self.records();
        for (i, rec) in recs.iter().enumerate().skip(self.dead.len()) {
            self.dead.push(false);
            match self.current.get(&rec.key) {
                Some(&j) if recs[j].version >= rec.version => {}
                Some(&j) => {
                    self.dead[j] = true;
                    self.current.insert(rec.key.clone(), i);
                }
                None => {
                    self.current.insert(rec.key.clone(), i);
                }
            }
        }
    }

    fn commit_partial(&mut self, encoded: &[u8], keep: usize) {
        self.commit(&encoded[..keep.min(encoded.len())]);
    }

    fn prefix(&self, max_records: u64) -> (u64, u64) {
        let live = self.live();
        let take = (live.len() as u64).min(max_records) as usize;
        let bytes: usize = live[..take].iter().map(Record::encoded_len).sum();
        (take as u64, bytes as u64)
    }

    fn flush_prefix(&mut self, max_records: u64) -> (u64, u64) {
        let recs = self.records();
        let (mut taken, mut bytes, mut through) = (0u64, 0usize, 0usize);
        for (i, rec) in recs.iter().enumerate() {
            if taken == max_records {
                break;
            }
            if self.dead[i] {
                continue;
            }
            apply_record(&mut self.snapshot, rec);
            if self.current.get(&rec.key) == Some(&i) {
                self.current.remove(&rec.key);
            }
            taken += 1;
            bytes += rec.encoded_len();
            through = i + 1;
        }
        let drained: usize = recs[..through].iter().map(Record::encoded_len).sum();
        self.wal.drain(..drained);
        self.dead.drain(..through);
        for i in self.current.values_mut() {
            *i -= through;
        }
        self.truncated_bytes += bytes as u64;
        (taken, bytes as u64)
    }

    fn install_snapshot(&mut self, rec: &Record) {
        apply_record(&mut self.snapshot, rec);
    }

    fn snapshot_records(&self) -> Vec<Record> {
        self.snapshot
            .iter()
            .map(|(k, (kind, version, value))| Record {
                kind: *kind,
                version: *version,
                key: k.clone(),
                value: value.clone(),
            })
            .collect()
    }

    /// Every answer about the current state, from one decode of the log.
    fn recover(&self) -> Recovered {
        let (recs, tail) = decode_stream(&self.wal);
        let snapshot = self.snapshot_records();
        let uncompacted_fold = fold(snapshot.iter().chain(&recs));
        let mut wal_bytes = self.wal.len() as u64;
        let mut records = snapshot;
        let from_snapshot = records.len() as u64;
        for (rec, &dead) in recs.into_iter().zip(&self.dead) {
            if dead {
                wal_bytes -= rec.encoded_len() as u64;
            } else {
                records.push(rec);
            }
        }
        Recovered {
            from_wal: records.len() as u64 - from_snapshot,
            records,
            from_snapshot,
            torn_tail: tail.torn,
            wal_bytes,
            uncompacted_fold,
        }
    }
}

/// What [`FlatMedia::recover`] answers.
struct Recovered {
    /// Snapshot entries, then the live log in log order.
    records: Vec<Record>,
    from_snapshot: u64,
    from_wal: u64,
    torn_tail: bool,
    /// Live log bytes, torn suffix included.
    wal_bytes: u64,
    /// What replaying the snapshot and the *whole* uncompacted log gives.
    uncompacted_fold: Map,
}

fn fold<'a>(records: impl IntoIterator<Item = &'a Record>) -> Map {
    let mut map = Map::new();
    for rec in records {
        apply_record(&mut map, rec);
    }
    map
}

#[derive(Debug, Clone)]
enum Op {
    Commit(Vec<Record>),
    /// Keep `keep_permille`/1000 of the encoded batch.
    CommitPartial(Vec<Record>, usize),
    Prefix(u64),
    FlushPrefix(u64),
    InstallSnapshot(Record),
}

/// Keys from a 24-key universe; versions from 16 bits or from a handful,
/// so re-sets, erases, equal and late versions all meet the supersession
/// rule and the snapshot's version gate.
fn record(max_value: usize) -> impl Strategy<Value = Record> {
    let version = prop_oneof![any::<u16>(), 0u16..6];
    (0u8..24, version, 0usize..=max_value, 0u8..8).prop_map(|(key, version, len, erase)| {
        let erase = erase == 0;
        Record {
            kind: if erase { KIND_ERASE } else { KIND_SET },
            version: u128::from(version) + 1,
            key: format!("key-{key}").into_bytes(),
            value: if erase {
                Vec::new()
            } else {
                vec![version as u8; len]
            },
        }
    })
}

/// Mostly small batches (so sequences are long and cheap), sometimes the
/// 300-record / 4 KiB-value batches a saturated backend seals.
fn batch() -> impl Strategy<Value = Vec<Record>> {
    prop_oneof![
        proptest::collection::vec(record(48), 1..12),
        proptest::collection::vec(record(48), 1..12),
        proptest::collection::vec(record(48), 1..12),
        proptest::collection::vec(record(4096), 1..301),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let count = || prop_oneof![0u64..6, 0u64..400];
    prop_oneof![
        batch().prop_map(Op::Commit),
        batch().prop_map(Op::Commit),
        (batch(), 0usize..=1000).prop_map(|(b, keep)| Op::CommitPartial(b, keep)),
        count().prop_map(Op::Prefix),
        count().prop_map(Op::FlushPrefix),
        count().prop_map(Op::FlushPrefix),
        record(48).prop_map(Op::InstallSnapshot),
    ]
}

fn encode(batch: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in batch {
        append_record(&mut buf, rec);
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn media_matches_flat_model(ops in proptest::collection::vec(op(), 1..40)) {
        let mut media = Media::default();
        let mut flat = FlatMedia::default();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Commit(batch) => {
                    let encoded = encode(batch);
                    media.commit(&encoded);
                    flat.commit(&encoded);
                }
                Op::CommitPartial(batch, keep_permille) => {
                    let encoded = encode(batch);
                    let keep = encoded.len() * keep_permille / 1000;
                    media.commit_partial(&encoded, keep);
                    flat.commit_partial(&encoded, keep);
                }
                Op::Prefix(n) => {
                    prop_assert_eq!(media.prefix(*n), flat.prefix(*n), "step {}", step);
                }
                Op::FlushPrefix(n) => {
                    prop_assert_eq!(media.flush_prefix(*n), flat.flush_prefix(*n), "step {}", step);
                }
                Op::InstallSnapshot(rec) => {
                    media.install_snapshot(rec.kind, rec.version, &rec.key, &rec.value);
                    flat.install_snapshot(rec);
                }
            }
            let got = media.recover();
            let want = flat.recover();
            prop_assert_eq!(media.wal_bytes(), want.wal_bytes, "step {}", step);
            prop_assert_eq!(media.wal_records(), want.from_wal, "step {}", step);
            prop_assert_eq!(media.truncated_bytes(), flat.truncated_bytes, "step {}", step);
            prop_assert_eq!(media.snapshot_entries(), flat.snapshot.len() as u64, "step {}", step);
            prop_assert_eq!(media.is_empty(), want.wal_bytes == 0 && flat.snapshot.is_empty());
            prop_assert_eq!(
                (got.from_snapshot, got.from_wal, got.torn_tail),
                (want.from_snapshot, want.from_wal, want.torn_tail),
                "step {}",
                step
            );
            prop_assert!(got.records == want.records, "recovered records differ at step {}", step);
            // What the counters promise is what a restart replays.
            prop_assert_eq!(media.wal_records(), got.from_wal, "step {}", step);
            // Dropping superseded records never changes what replay builds.
            prop_assert!(
                fold(&got.records) == want.uncompacted_fold,
                "replay differs from the uncompacted log's at step {}",
                step
            );
            // No segment keeps a quarter or more of its bytes as garbage.
            prop_assert!(
                3 * media.resident_bytes() <= 4 * media.wal_bytes(),
                "step {}: {} bytes held for {} live",
                step,
                media.resident_bytes(),
                media.wal_bytes()
            );
        }
    }
}
