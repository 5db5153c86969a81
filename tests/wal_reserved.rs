//! What the durable logs and their shared `RecordTable` report as their
//! host bytes (`reserved_bytes()`) is what the allocator handed them.

mod support;

use durable::{GroupCommit, Media, RecordTable, KIND_SET};
use support::live_bytes;

#[test]
fn logs_and_table_report_the_bytes_they_hold() {
    // Two logs on one table, as two replicas: the second logs every other
    // key of the first, at the same versions. Values of 100-1,000 bytes,
    // superseded, compacted, checkpointed.
    let before = live_bytes();
    let table = RecordTable::new();
    let mut logs: Vec<(GroupCommit, Media)> = (0..2)
        .map(|_| (GroupCommit::new(table.clone()), Media::new(table.clone())))
        .collect();
    for v in 0..6_100u32 {
        let key = (v * 7 % 1_500).to_le_bytes();
        let value = vec![v as u8; 100 + (v as usize * 13) % 900];
        for (i, (gc, media)) in logs.iter_mut().enumerate() {
            if i == 0 || key[0] % 2 == 0 {
                gc.append_parts(KIND_SET, u128::from(v) + 1, &key, &value);
            }
            if v % 250 == 249 {
                if gc.start_commit().is_some() {
                    gc.finish_commit(media);
                }
                if v % 1_000 == 999 {
                    media.flush_prefix(100);
                }
            }
        }
    }
    // One batch in flight, one pending.
    for (gc, _) in &mut logs {
        gc.start_commit().expect("batch pending");
        gc.append_parts(KIND_SET, 10_000, b"pending", &[1; 300]);
    }
    let held = live_bytes() - before;
    let reserved: usize = table.reserved_bytes()
        + logs
            .iter()
            .map(|(gc, media)| gc.reserved_bytes() + media.reserved_bytes())
            .sum::<usize>();
    let (reserved, held) = (reserved as f64, held as f64);
    assert!(
        (reserved - held).abs() <= 0.1 * held,
        "{reserved} bytes reported, {held} held"
    );
    assert!(logs
        .iter()
        .all(|(_, m)| m.snapshot_entries() > 0 && m.wal_records() > 0));
}
