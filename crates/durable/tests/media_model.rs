//! The segment-queue [`Media`] against a flat reference model.
//!
//! The oracle below is the log as it was before `Media` became a queue of
//! sealed batches: one `Vec<u8>`, `decode_stream` over the whole of it for
//! every question, `drain` to truncate (plus the open-time rule that a
//! commit first cuts a torn tail off). Random operation sequences must
//! leave both with the same answers at every step — this equivalence is
//! what keeps `restart.csv` and the durable chaos act byte-identical.

use std::collections::BTreeMap;

use durable::{append_record, apply_record, decode_stream, Media, Record, KIND_ERASE, KIND_SET};
use proptest::prelude::*;

#[derive(Default)]
struct FlatMedia {
    wal: Vec<u8>,
    wal_records: u64,
    snapshot: BTreeMap<Vec<u8>, (u8, u128, Vec<u8>)>,
    truncated_bytes: u64,
}

impl FlatMedia {
    fn drop_torn_tail(&mut self) {
        let (_, tail) = decode_stream(&self.wal);
        self.wal.truncate(tail.consumed);
    }

    fn commit(&mut self, encoded: &[u8], records: u64) {
        self.drop_torn_tail();
        self.wal.extend_from_slice(encoded);
        self.wal_records += records;
    }

    fn commit_partial(&mut self, encoded: &[u8], keep: usize) {
        self.drop_torn_tail();
        let keep = keep.min(encoded.len());
        self.wal.extend_from_slice(&encoded[..keep]);
        let (recs, _) = decode_stream(&self.wal);
        self.wal_records = recs.len() as u64;
    }

    fn prefix(&self, max_records: u64) -> (u64, u64) {
        let (recs, _) = decode_stream(&self.wal);
        let take = (recs.len() as u64).min(max_records);
        let bytes: usize = recs[..take as usize].iter().map(|r| r.encoded_len()).sum();
        (take, bytes as u64)
    }

    fn flush_prefix(&mut self, max_records: u64) -> (u64, u64) {
        let (recs, _) = decode_stream(&self.wal);
        let take = (recs.len() as u64).min(max_records) as usize;
        let bytes: usize = recs[..take].iter().map(|r| r.encoded_len()).sum();
        for rec in &recs[..take] {
            apply_record(&mut self.snapshot, rec);
        }
        self.wal.drain(..bytes);
        self.wal_records -= take as u64;
        self.truncated_bytes += bytes as u64;
        (take as u64, bytes as u64)
    }

    fn install_snapshot(&mut self, rec: &Record) {
        apply_record(&mut self.snapshot, rec);
    }

    /// `(records, from_snapshot, from_wal, torn_tail)` of a recovery.
    fn recover(&self) -> (Vec<Record>, u64, u64, bool) {
        let mut records: Vec<Record> = self
            .snapshot
            .iter()
            .map(|(k, (kind, version, value))| Record {
                kind: *kind,
                version: *version,
                key: k.clone(),
                value: value.clone(),
            })
            .collect();
        let from_snapshot = records.len() as u64;
        let (wal_recs, tail) = decode_stream(&self.wal);
        let from_wal = wal_recs.len() as u64;
        records.extend(wal_recs);
        (records, from_snapshot, from_wal, tail.torn)
    }
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

/// Keys from a 24-key universe and versions from 16 bits, so re-sets,
/// erases and stale versions all meet the snapshot's version gate.
fn record(max_value: usize) -> impl Strategy<Value = Record> {
    (0u8..24, any::<u16>(), 0usize..=max_value, 0u8..8).prop_map(|(key, version, len, erase)| {
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
                    media.commit(&encoded, batch.len() as u64);
                    flat.commit(&encoded, batch.len() as u64);
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
            prop_assert_eq!(media.wal_bytes(), flat.wal.len() as u64, "step {}", step);
            prop_assert_eq!(media.wal_records(), flat.wal_records, "step {}", step);
            prop_assert_eq!(media.truncated_bytes(), flat.truncated_bytes, "step {}", step);
            prop_assert_eq!(media.snapshot_entries(), flat.snapshot.len() as u64, "step {}", step);
            prop_assert_eq!(media.is_empty(), flat.wal.is_empty() && flat.snapshot.is_empty());
            let got = media.recover();
            let want = flat.recover();
            prop_assert_eq!(
                (got.from_snapshot, got.from_wal, got.torn_tail),
                (want.1, want.2, want.3),
                "step {}",
                step
            );
            prop_assert!(got.records == want.0, "recovered records differ at step {}", step);
            // What the counters promise is what a restart replays.
            prop_assert_eq!(media.wal_records(), got.from_wal, "step {}", step);
        }
    }
}
