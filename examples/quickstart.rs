//! Quickstart: stand up a small R=3.2 CliqueMap cell, write some keys,
//! read them back over the RMA fast path, and inspect what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bytes::Bytes;

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::config::ReplicationMode;
use cliquemap::history;
use cliquemap::workload::{ClientOp, ScriptWorkload};
use simnet::SimDuration;

fn main() {
    // A cell: 4 backends (R=3.2 -> every key lives on 3 of them), one
    // config store, and one client.
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 4,
        ..CellSpec::default()
    };
    spec.client.strategy = LookupStrategy::Scar; // single-RTT lookups

    // The client's script: three writes, three reads, an erase, a re-read.
    let ops = vec![
        set("user:alice", "likes rust"),
        set("user:bob", "likes go"),
        set("user:carol", "likes tla+"),
        get("user:alice"),
        get("user:bob"),
        get("user:nobody"), // a miss
        erase("user:bob"),
        get("user:bob"), // now a miss
    ];
    let script = ScriptWorkload::new(
        ops.into_iter()
            .map(|op| (SimDuration::from_micros(200), op))
            .collect(),
    );

    let mut cell = Cell::build(spec, vec![Box::new(script)]);
    // Keep a History: every op the client admits, every commit a backend
    // makes.
    cell.record_history();
    cell.run_for(SimDuration::from_secs(1));

    // What happened, from the metrics and the cell's History.
    let (hits, misses) = {
        let m = cell.sim.metrics();
        println!("GET hits:    {}", m.counter("cm.get.hits"));
        println!("GET misses:  {}", m.counter("cm.get.misses"));
        println!("SETs/ERASEs: {}", m.counter("cm.set.completed"));
        println!("retries:     {}", m.counter("cm.retries"));
        if let Some(h) = m.hist_ref("cm.get.latency_ns") {
            println!(
                "GET latency: p50={}us p99={}us",
                h.percentile(50.0) / 1_000,
                h.percentile(99.0) / 1_000
            );
        }
        (m.counter("cm.get.hits"), m.counter("cm.get.misses"))
    };
    let history = cell.history();
    println!("\nper-op outcomes:");
    for op in &history.ops {
        let done = op.done.expect("every op completed");
        let us = done.latency as f64 / 1e3;
        println!(
            "  op {}: {:?} {:?} ({us:.1}us)",
            op.id, op.kind, done.outcome
        );
    }
    // The §5 contract over the whole run: hits read committed values,
    // versions never regress, acked writes stay visible, replicas agree.
    let violations = history::check(&history, ReplicationMode::R32);
    println!("§5 violations: {violations:?}");
    assert!(violations.is_empty());
    assert_eq!(hits, 2);
    assert_eq!(misses, 2);
    println!("\nquickstart OK");
}

fn set(key: &str, value: &str) -> ClientOp {
    ClientOp::Set {
        key: Bytes::from(key.to_string()),
        value: Bytes::from(value.to_string()),
    }
}

fn get(key: &str) -> ClientOp {
    ClientOp::Get {
        key: Bytes::from(key.to_string()),
    }
}

fn erase(key: &str) -> ClientOp {
    ClientOp::Erase {
        key: Bytes::from(key.to_string()),
    }
}
