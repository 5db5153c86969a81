//! Cell-level client-cache correctness: the lease cache must never serve a
//! client its own stale write, lease expiry must force a versioned
//! validation against the quorum, and the hit/stale/miss counters must
//! reconcile exactly with the GETs the client issued.

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::{ClientNode, LookupStrategy};
use cliquemap::client_cache::{CacheStats, ClientCacheCfg};
use cliquemap::config::ReplicationMode;
use cliquemap::history;
use cliquemap::version::VersionNumber;
use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload, Workload};
use simnet::SimDuration;

fn script(ops: Vec<(u64, ClientOp)>) -> Box<dyn Workload> {
    Box::new(ScriptWorkload::new(
        ops.into_iter()
            .map(|(us, op)| (SimDuration::from_micros(us), op))
            .collect(),
    ))
}

fn get(key: &str) -> ClientOp {
    ClientOp::Get {
        key: Bytes::from(key.to_string()),
    }
}

fn set(key: &str, value: &str) -> ClientOp {
    ClientOp::Set {
        key: Bytes::from(key.to_string()),
        value: Bytes::from(value.to_string()),
    }
}

fn cached_spec(lease_ttl: SimDuration) -> CellSpec {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 4,
        ..CellSpec::default()
    };
    spec.backend.store.num_buckets = 64;
    spec.backend.store.data_capacity = 1 << 20;
    spec.backend.store.max_data_capacity = 8 << 20;
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::TwoR;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 64,
        lease_ttl,
        max_value_len: 64 << 10,
    });
    spec
}

fn run_cached(
    lease_ttl: SimDuration,
    ops: Vec<(u64, ClientOp)>,
) -> (Cell, Vec<OpOutcome>, CacheStats) {
    let mut cell = Cell::build(cached_spec(lease_ttl), vec![script(ops)]);
    cell.record_history();
    cell.run_for(SimDuration::from_secs(1));
    let h = cell.history();
    assert_eq!(history::check(&h, ReplicationMode::R32), [], "{h:?}");
    let id = cell.clients[0];
    let stats = cell
        .sim
        .with_node::<ClientNode, _>(id, |c| c.cache_stats().expect("cache on"))
        .unwrap();
    (cell, h.outcomes(id.0), stats)
}

fn peek(cell: &mut Cell, key: &str) -> Option<(VersionNumber, Bytes)> {
    let id = cell.clients[0];
    cell.sim
        .with_node::<ClientNode, _>(id, |c| c.cache_peek(key.as_bytes()))
        .unwrap()
}

/// Invalidate-on-SET: after a client overwrites its own key — even with a
/// GET racing the in-flight SET — the cache must end up at the new value,
/// and a later local hit must serve it. The client never reads its own
/// stale write out of the cache.
#[test]
fn own_set_invalidates_cached_value() {
    let (mut cell, done, stats) = run_cached(
        SimDuration::from_millis(50),
        vec![
            (0, set("k", "v1")),
            (2_000, get("k")), // local hit on the write-through entry
            (1_000, set("k", "v2")),
            (10, get("k")),    // races the in-flight SET: entry was dropped
            (5_000, get("k")), // settled: local hit, must be v2
        ],
    );
    // Completions arrive in completion order (the racing GET can finish
    // before the RPC SET does): 2 mutations done, 3 GET hits.
    assert_eq!(done.len(), 5, "{done:?}");
    let dones = done.iter().filter(|&&o| o == OpOutcome::Done).count();
    let hits = done.iter().filter(|&&o| o == OpOutcome::Hit).count();
    assert_eq!((dones, hits), (2, 3), "{done:?}");
    // The second SET dropped the owner's entry at issue time.
    assert!(stats.invalidations >= 1, "{stats:?}");
    // Whatever the racing GET observed, the surviving entry is the newest
    // write (version-gated insert).
    let (_, value) = peek(&mut cell, "k").expect("entry cached");
    assert_eq!(&value[..], b"v2", "cache kept a stale own-write");
    assert_eq!(cell.op_errors(), 0);
}

/// Lease expiry forces a versioned validation: a GET after the lease runs
/// out may not serve locally; it must carry the cached version to the
/// quorum and only renew the lease when read_quorum replicas agree.
#[test]
fn lease_expiry_forces_validation() {
    let ttl = SimDuration::from_millis(5);
    let (cell, done, stats) = run_cached(
        ttl,
        vec![
            (0, set("k", "v")),
            (2_000, get("k")),  // within lease: local hit
            (1_000, get("k")),  // still within lease: local hit
            (20_000, get("k")), // lease expired: stale -> validate
        ],
    );
    assert_eq!(done.len(), 4, "{done:?}");
    for d in &done[1..] {
        assert_eq!(*d, OpOutcome::Hit, "{done:?}");
    }
    assert_eq!(stats.hits, 2, "{stats:?}");
    assert_eq!(stats.stale, 1, "expired lease must not serve locally");
    assert_eq!(
        stats.validations, 1,
        "stale lookup must revalidate against the quorum: {stats:?}"
    );
    // The validated GET skipped the data fetch: it is counted as a cell
    // hit without a second round trip.
    assert_eq!(cell.hits(), 3);
    assert_eq!(
        cell.sim.metrics().counter("cm.ccache.validations"),
        1,
        "metric mirrors the stats counter"
    );
}

/// Counters reconcile: every issued GET is exactly one cache lookup, and
/// lookups partition into hits + stale + misses.
#[test]
fn counters_reconcile_with_op_counts() {
    let mut ops = vec![(0, set("a", "1")), (100, set("b", "2"))];
    let n_gets = 30u64;
    for i in 0..n_gets {
        let key = if i % 3 == 0 { "a" } else { "b" };
        ops.push((700, get(key)));
    }
    let (cell, done, stats) = run_cached(SimDuration::from_millis(4), ops);
    assert_eq!(done.len(), 2 + n_gets as usize, "{done:?}");
    assert_eq!(
        stats.lookups, n_gets,
        "one lookup per issued GET: {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.stale + stats.misses,
        stats.lookups,
        "{stats:?}"
    );
    assert!(stats.hits > 0, "{stats:?}");
    assert!(stats.stale > 0, "4ms lease over 700us spacing: {stats:?}");
    // Completed GET outcomes match the cell-level hit counter.
    let hit_ops = done.iter().filter(|&&o| o == OpOutcome::Hit).count() as u64;
    assert_eq!(cell.hits(), hit_ops);
    // Metrics mirror the struct counters.
    let m = cell.sim.metrics();
    assert_eq!(m.counter("cm.ccache.hits"), stats.hits);
    assert_eq!(m.counter("cm.ccache.stale"), stats.stale);
    assert_eq!(m.counter("cm.ccache.misses"), stats.misses);
    assert_eq!(cell.op_errors(), 0);
}

/// The cache is an optimisation, not a semantic change: the same script
/// with and without the cache completes with identical outcomes.
#[test]
fn cache_preserves_outcomes() {
    let ops = || {
        vec![
            (0, set("x", "1")),
            (500, get("x")),
            (300, get("absent")),
            (300, set("x", "2")),
            (500, get("x")),
            (
                400,
                ClientOp::Erase {
                    key: Bytes::from_static(b"x"),
                },
            ),
            (900, get("x")),
        ]
    };
    let (_, with, stats) = run_cached(SimDuration::from_millis(10), ops());
    let mut spec = cached_spec(SimDuration::from_millis(10));
    spec.client.cache = None;
    let mut cell = Cell::build(spec, vec![script(ops())]);
    cell.record_history();
    cell.run_for(SimDuration::from_secs(1));
    let without = cell.history().outcomes(cell.clients[0].0);
    assert_eq!(with, without, "cache changed observable semantics");
    assert!(stats.lookups > 0, "cache was actually exercised");
    // ERASE both invalidates (own-write rule) and, on Done, must not leave
    // a resurrect-able entry behind.
    assert_eq!(*with.last().unwrap(), OpOutcome::Miss);
}
