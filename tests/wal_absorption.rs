//! The WAL pays for live keys, not for the op stream — at cell level.
//!
//! A 3-backend R=3.2 durable cell takes an overwrite storm over 50 keys
//! that arrives several times faster than its devices commit. Group commit
//! keeps one record per pending key, so what reaches each backend's log is
//! a fraction of what was appended, while the log still recovers every key
//! at exactly the version its store ended on.

mod storm;

use std::collections::BTreeMap;

use cliquemap::backend::BackendNode;
use storm::{KEYS, SETS, VALUE_LEN};

#[test]
fn overwrite_storm_logs_a_fraction_of_what_it_appends() {
    let mut cell = storm::run();

    // Every replica-side SET was appended (and counted), most were
    // absorbed into a record already pending.
    let m = cell.sim.metrics();
    let appends = m.counter("cm.backend.wal_appends");
    let absorbed = m.counter("cm.backend.wal_absorbed");
    let committed = m.counter("cm.backend.wal_committed");
    assert_eq!(appends, 3 * SETS);
    assert_eq!(
        appends - absorbed,
        committed,
        "every append is durable, through its own record or the one that absorbed it"
    );

    // 20 µs between SETs against a ~6 ms device transaction (4 ms fsync +
    // 50 records at 25 MB/s): ~300 arrive per batch, over 50 keys. Without
    // absorption every one of them reached the device (fraction 1.0); one
    // record per pending key measures 0.175 here. (Every record is
    // `VALUE_LEN` bytes of value, so the share of bytes is the same.)
    let fraction = committed as f64 / appends as f64;
    assert!(
        fraction < 0.25,
        "{committed} of {appends} appended records reached the device ({fraction:.3}, {VALUE_LEN} B values)"
    );

    // What the absorbed log recovers is what the store holds: every key,
    // at the newest version this replica accepted.
    for (backend, media) in cell.backends.clone().into_iter().zip(&cell.media) {
        let mut recovered = BTreeMap::new();
        for rec in &media.borrow().recover().records {
            durable::apply_record(&mut recovered, rec);
        }
        let recovered: BTreeMap<Vec<u8>, (u128, Vec<u8>)> = recovered
            .into_iter()
            .map(|(key, (_, version, value))| (key, (version, value)))
            .collect();
        let stored: BTreeMap<Vec<u8>, (u128, Vec<u8>)> = cell
            .sim
            .with_node::<BackendNode, _>(backend, |node| node.store().all_entries())
            .expect("backend node")
            .into_iter()
            .map(|(key, value, version)| (key.to_vec(), (version.0, value.to_vec())))
            .collect();
        assert_eq!(stored.len() as u64, KEYS);
        assert!(recovered == stored, "log and store disagree");
    }
}
