//! An absorbed log recovers what the raw log recovers.
//!
//! [`GroupCommit`] keeps one record per pending key: an append whose key is
//! already pending at an older version overwrites that record in place
//! (same encoded length) or kills it and appends (different length). The
//! oracle is the op stream itself — every record, in append order, folded
//! through the version-gated [`apply_record`]. Random SET/ERASE streams
//! over a dozen keys, with mostly ascending and sometimes late versions,
//! mixed value lengths and random seal, completion and trickle-flush
//! points, must recover to the oracle's map after every completed commit,
//! and every sealed batch must be whole records only.

use std::collections::BTreeMap;

use durable::{apply_record, GroupCommit, Media, Record, KIND_ERASE, KIND_SET};
use proptest::prelude::*;

type Map = BTreeMap<Vec<u8>, (u8, u128, Vec<u8>)>;

#[derive(Debug, Clone)]
enum Op {
    Append {
        key: u8,
        /// How far behind the stream's clock this version is; 0 = newest.
        behind: u8,
        erase: bool,
        /// `None`: the key's usual length (the in-place case).
        len: Option<usize>,
    },
    Start,
    Finish,
    Flush(u64),
}

fn op() -> impl Strategy<Value = Op> {
    let append = |behind: std::ops::Range<u8>| {
        (0u8..12, behind, 0u8..8, 0u8..4, 0usize..40).prop_map(
            |(key, behind, erase, odd_len, len)| Op::Append {
                key,
                behind,
                erase: erase == 0,
                len: (odd_len == 0).then_some(len),
            },
        )
    };
    prop_oneof![
        append(0..1),
        append(0..1),
        append(0..1),
        append(0..1),
        append(0..1),
        append(0..1),
        append(1..12),
        Just(Op::Start),
        Just(Op::Finish),
        (0u64..6).prop_map(Op::Flush),
    ]
}

fn replay<'a>(records: impl IntoIterator<Item = &'a Record>) -> Map {
    let mut map = Map::new();
    for rec in records {
        apply_record(&mut map, rec);
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn absorbed_log_recovers_what_the_raw_log_recovers(
        ops in proptest::collection::vec(op(), 1..200),
    ) {
        let mut gc = GroupCommit::default();
        let mut media = Media::default();
        // The raw op stream, and how much of it the batches sealed so far
        // (the in-flight one included) cover.
        let mut raw: Vec<Record> = Vec::new();
        let mut sealed = 0;
        // What the sealed, in-flight batch told the device it holds.
        let mut in_flight = (0u64, 0u64);
        let mut durable_bytes = 0u64;
        // Newest pending version per key, and the pending appends that
        // were no newer than their key's (those supersede nothing).
        let mut pending: BTreeMap<u8, u128> = BTreeMap::new();
        let mut late = 0u64;
        let mut clock = 0u128;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Append { key, behind, erase, len } => {
                    clock += 1;
                    let version = clock.saturating_sub(u128::from(behind)).max(1);
                    let len = len.unwrap_or(3 + 5 * usize::from(key));
                    let rec = Record {
                        kind: if erase { KIND_ERASE } else { KIND_SET },
                        version,
                        key: format!("key-{key}").into_bytes(),
                        value: if erase { Vec::new() } else { vec![version as u8 ^ key; len] },
                    };
                    match pending.get_mut(&key) {
                        Some(newest) if version <= *newest => late += 1,
                        Some(newest) => *newest = version,
                        None => {
                            pending.insert(key, version);
                        }
                    }
                    let batch = gc.append(&rec);
                    raw.push(rec);
                    prop_assert_eq!(batch, gc.pending_records(), "step {}", step);
                    prop_assert!(
                        batch <= pending.len() as u64 + late,
                        "step {}: {} records pending for {} keys + {} late appends",
                        step, batch, pending.len(), late
                    );
                }
                Op::Start => {
                    let expect_start = !gc.in_flight() && gc.pending_records() > 0;
                    let records = gc.pending_records();
                    let started = gc.start_commit();
                    prop_assert_eq!(started.is_some(), expect_start, "step {}", step);
                    if let Some(batch) = started {
                        prop_assert_eq!(batch.1, records, "step {}", step);
                        prop_assert_eq!(gc.pending_records(), 0, "step {}", step);
                        in_flight = batch;
                        sealed = raw.len();
                        pending.clear();
                        late = 0;
                    }
                }
                Op::Finish if gc.in_flight() => {
                    let before = media.wal_records();
                    prop_assert_eq!(gc.finish_commit(&mut media), in_flight.1, "step {}", step);
                    durable_bytes += in_flight.0;
                    // The sealed batch is whole records and nothing else:
                    // every byte decodes. Durable records its records
                    // superseded (a late record kept in the batch among
                    // them) have left the log.
                    let recovery = media.recover();
                    prop_assert!(!recovery.torn_tail, "step {}", step);
                    prop_assert!(
                        media.wal_records() <= before + in_flight.1,
                        "step {}: {} live records after {} + {}",
                        step, media.wal_records(), before, in_flight.1
                    );
                    prop_assert_eq!(recovery.from_wal, media.wal_records(), "step {}", step);
                    let wal = &recovery.records[recovery.from_snapshot as usize..];
                    let wal_bytes: usize = wal.iter().map(Record::encoded_len).sum();
                    prop_assert_eq!(wal_bytes as u64, media.wal_bytes(), "step {}", step);
                    prop_assert!(
                        media.wal_bytes() + media.truncated_bytes() <= durable_bytes,
                        "step {}",
                        step
                    );
                    // And it recovers what committing every record would.
                    prop_assert!(
                        replay(&recovery.records) == replay(&raw[..sealed]),
                        "recovered state differs from the raw log's at step {}",
                        step
                    );
                }
                Op::Finish => {}
                Op::Flush(n) => {
                    media.flush_prefix(n);
                }
            }
        }
    }
}
