//! The overwrite storm `wal_absorption` and `wal_footprint` run: a
//! 3-backend R=3.2 durable cell takes 4,000 SETs over 50 keys, 20 µs apart
//! — several times faster than its devices commit. The trickle period is
//! longer than the run, so no checkpoint truncates the log inside it.

// Each binary reads the constants it gates and leaves the others unused.
#![allow(dead_code)]

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use simnet::SimDuration;

pub const KEYS: u64 = 50;
pub const SETS: u64 = 4_000;
pub const GAP_US: u64 = 20;
pub const VALUE_LEN: usize = 1024;

/// The storm, then time for the last group commit to land.
pub fn run() -> Cell {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    spec.durability = Some(DurabilitySpec {
        trickle_interval: SimDuration::from_secs(1),
        ..DurabilitySpec::default()
    });
    let ops = (0..SETS)
        .map(|i| {
            let key = Bytes::from(format!("storm{:03}", i % KEYS));
            let value = Bytes::from(vec![i as u8; VALUE_LEN]);
            (
                SimDuration::from_micros(GAP_US),
                ClientOp::Set { key, value },
            )
        })
        .collect();
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    cell.run_for(SimDuration::from_micros(SETS * GAP_US) + SimDuration::from_millis(50));
    assert_eq!(cell.op_errors(), 0);
    assert_eq!(cell.sets_completed(), SETS);
    cell
}
