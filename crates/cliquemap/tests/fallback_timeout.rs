//! Overflow-fallback rounds. Under gray failure — every replica RMA-alive
//! but CPU-dead — a GET's index reads succeed, report an overflowed bucket,
//! and the RPC fallback round it triggers goes unanswered: a lost round is
//! *one* failed attempt, not one per silent replica, so the op spends its
//! retry budget one attempt timeout at a time. And a round that every
//! replica answers `NotFound` is a quorum miss like any other: it drops the
//! stale lease-cache entry the GET set out to validate.

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::{ClientNode, LookupStrategy};
use cliquemap::client_cache::ClientCacheCfg;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload, Workload};
use rma::TransportKind;
use simnet::{Fault, FaultPlan, HostSet, SimDuration, SimTime};

const KEYS: u32 = 6;

fn key(i: u32) -> Bytes {
    Bytes::from(format!("ov{i}"))
}

#[test]
fn a_lost_fallback_round_fails_its_attempt_once() {
    // Hardware RMA on both sides keeps the index readable while the CPUs
    // are dead; a one-slot index displaces five of the six keys into the
    // overflow table, so their GETs need the RPC fallback.
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.transport = TransportKind::Rdma;
    spec.backend.scan_interval = None;
    spec.backend.store.num_buckets = 1;
    spec.backend.store.assoc = 1;
    spec.backend.store.overflow_capacity = 16;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    let (max_attempts, attempt_timeout) =
        (spec.client.retry.max_attempts, spec.client.attempt_timeout);

    // SETs and warm-up GETs (geometry + proof the fallback serves hits)
    // finish within a few ms; the doomed GETs issue at 30 ms, inside the
    // 20–200 ms CPU-dead window.
    let us = SimDuration::from_micros;
    let mut ops: Vec<(SimDuration, ClientOp)> = Vec::new();
    for i in 0..KEYS {
        let value = Bytes::from_static(b"value");
        ops.push((us(100), ClientOp::Set { key: key(i), value }));
    }
    ops.extend((0..KEYS).map(|i| (us(100), ClientOp::Get { key: key(i) })));
    ops.push((SimDuration::from_millis(30), ClientOp::Get { key: key(0) }));
    ops.extend((1..KEYS).map(|i| (us(1), ClientOp::Get { key: key(i) })));
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(ops));
    let mut cell = Cell::build(spec, vec![wl]);
    cell.record_history();
    let ms = |n: u64| SimTime(n * 1_000_000);
    let mut plan = FaultPlan::new(7);
    plan.add(
        ms(20),
        ms(200),
        Fault::CpuDead {
            hosts: HostSet::of(&cell.backend_hosts),
        },
    );
    cell.sim.install_fault_plan(&plan);

    cell.sim.run_until(ms(20));
    assert_eq!(cell.hits(), KEYS as u64, "warm-up GETs must all hit");
    let counters = |cell: &Cell| {
        let m = cell.sim.metrics();
        (
            m.counter("cm.get.overflow_fallbacks"),
            m.counter("cm.retry.fallback_timeout"),
        )
    };
    let (rounds0, failures0) = counters(&cell);
    assert!(rounds0 > 0, "no key was displaced into the overflow table");
    cell.sim.run_until(ms(150));

    let (rounds, failures) = counters(&cell);
    let (rounds, failures) = (rounds - rounds0, failures - failures0);
    assert!(
        rounds >= max_attempts as u64,
        "no doomed fallback rounds ran"
    );
    assert_eq!(
        failures, rounds,
        "every lost fallback round must fail its attempt exactly once"
    );
    // A doomed op spends its whole budget sequentially: `max_attempts`
    // attempts, each waiting out a full attempt timeout.
    let floor = attempt_timeout.nanos() * max_attempts as u64;
    let history = cell.history();
    let done: Vec<_> = history.ops.iter().filter_map(|op| op.done).collect();
    let doomed: Vec<u64> = done
        .iter()
        .filter(|d| d.outcome == OpOutcome::Error)
        .map(|d| d.latency)
        .collect();
    assert!(!doomed.is_empty(), "no GET exhausted its budget: {done:?}");
    assert!(
        doomed.iter().all(|&ns| ns >= floor),
        "an op gave up before {max_attempts} x {attempt_timeout:?}: {doomed:?}"
    );
}

#[test]
fn a_miss_reached_through_the_fallback_round_drops_the_stale_lease() {
    // One slot per index: `ov0` takes it, `ov1` lives in the overflow table
    // and `ov2` keeps the bucket flagged overflowed once `ov1` is gone.
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.backend.store.num_buckets = 1;
    spec.backend.store.assoc = 1;
    spec.backend.store.overflow_capacity = 16;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.access_flush = None;
    spec.client.cache = Some(ClientCacheCfg {
        lease_ttl: SimDuration::from_millis(1),
        ..ClientCacheCfg::default()
    });
    let us = SimDuration::from_micros;
    let value = Bytes::from_static(b"value");
    // Client A fills the bucket — each SET's write-through caches the value
    // under a 1 ms lease — and reads `ov1` at 10 ms, long after client B's
    // ERASE at 5 ms: index votes absent, fallback verdicts NotFound.
    let mut a: Vec<(SimDuration, ClientOp)> = (0..3)
        .map(|i| {
            let value = value.clone();
            (us(100), ClientOp::Set { key: key(i), value })
        })
        .collect();
    a.push((SimDuration::from_millis(10), ClientOp::Get { key: key(1) }));
    let b = vec![(SimDuration::from_millis(5), ClientOp::Erase { key: key(1) })];
    let wls: Vec<Box<dyn Workload>> = vec![
        Box::new(ScriptWorkload::new(a)),
        Box::new(ScriptWorkload::new(b)),
    ];
    let mut cell = Cell::build(spec, wls);
    cell.record_history();
    let peek = |cell: &mut Cell| {
        let done = cell.history().outcomes(cell.clients[0].0);
        let cached = cell
            .sim
            .with_node::<ClientNode, _>(cell.clients[0], |c| c.cache_peek(&key(1)))
            .expect("client alive");
        (done, cached)
    };
    cell.sim.run_until(SimTime(4_000_000));
    let (done, cached) = peek(&mut cell);
    assert_eq!(done.len(), 3, "{done:?}");
    assert!(cached.is_some(), "the SET must write through to the cache");

    cell.sim.run_until(SimTime(20_000_000));
    let (done, cached) = peek(&mut cell);
    assert_eq!(done.last(), Some(&OpOutcome::Miss), "{done:?}");
    let m = cell.sim.metrics();
    assert_eq!(
        m.counter("cm.get.overflow_fallbacks"),
        1,
        "the miss did not go through a fallback round"
    );
    assert_eq!(m.counter("cm.ccache.stale"), 1, "the lease had not expired");
    assert_eq!(cached, None, "the miss left the stale lease entry behind");
}
