//! The segment-queue [`Media`] against a flat reference model, two media
//! sharing one record table.
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

use durable::{
    append_record, apply_record, decode_stream, Media, Record, RecordTable, KIND_ERASE, KIND_SET,
};
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

/// Apply `op` to `media` and its oracle; a prefix's and a flush's answers
/// must agree. `at` names the media and the step.
fn apply(media: &mut Media, flat: &mut FlatMedia, op: &Op, at: &str) {
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
        Op::Prefix(n) => assert_eq!(media.prefix(*n), flat.prefix(*n), "{at}"),
        Op::FlushPrefix(n) => assert_eq!(media.flush_prefix(*n), flat.flush_prefix(*n), "{at}"),
        Op::InstallSnapshot(rec) => {
            media.install_snapshot(rec.kind, rec.version, &rec.key, &rec.value);
            flat.install_snapshot(rec);
        }
    }
}

/// Every answer `media` gives matches its oracle's.
fn check(media: &Media, flat: &FlatMedia, at: &str) {
    let got = media.recover();
    let want = flat.recover();
    assert_eq!(media.wal_bytes(), want.wal_bytes, "{at}");
    assert_eq!(media.wal_records(), want.from_wal, "{at}");
    assert_eq!(media.truncated_bytes(), flat.truncated_bytes, "{at}");
    assert_eq!(media.snapshot_entries(), flat.snapshot.len() as u64, "{at}");
    assert_eq!(
        media.is_empty(),
        want.wal_bytes == 0 && flat.snapshot.is_empty(),
        "{at}"
    );
    assert_eq!(
        (got.from_snapshot, got.from_wal, got.torn_tail),
        (want.from_snapshot, want.from_wal, want.torn_tail),
        "{at}"
    );
    assert!(
        got.records == want.records,
        "recovered records differ: {at}"
    );
    // What the counters promise is what a restart replays.
    assert_eq!(media.wal_records(), got.from_wal, "{at}");
    // Dropping superseded records never changes what replay builds.
    assert!(
        fold(&got.records) == want.uncompacted_fold,
        "replay differs from the uncompacted log's: {at}"
    );
    // No segment keeps a quarter or more of its bytes as garbage.
    assert!(
        3 * media.resident_bytes() <= 4 * media.wal_bytes(),
        "{at}: {} bytes held for {} live",
        media.resident_bytes(),
        media.wal_bytes()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two media on one record table, each op applied to the first, the
    /// second or both (so both hold the same records), each media checked
    /// against an oracle of its own at every step.
    #[test]
    fn media_matches_flat_model(ops in proptest::collection::vec((op(), 0usize..3), 1..40)) {
        let table = RecordTable::new();
        let mut media = [Media::new(table.clone()), Media::new(table.clone())];
        let mut flat = [FlatMedia::default(), FlatMedia::default()];
        for (step, (op, target)) in ops.iter().enumerate() {
            for i in 0..2 {
                let at = format!("media {i} step {step}");
                if *target == 2 || *target == i {
                    apply(&mut media[i], &mut flat[i], op, &at);
                }
                check(&media[i], &flat[i], &at);
            }
            // The table holds each record the two logs hold once.
            let held = media[0].wal_records() + media[1].wal_records();
            prop_assert!(table.records() <= held, "step {}", step);
        }
        drop(media);
        prop_assert_eq!((table.records(), table.bytes()), (0, 0));
    }
}
