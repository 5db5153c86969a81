//! Footprint gates: what a cell's clients hold follows what differs
//! between them, not how many there are. Many clients reading one corpus
//! fill their caches with the same (key hash, version) pairs; the cell keeps
//! one buffer per pair. They hold the same cell config and the same
//! geometry per backend; the cell keeps one copy of each distinct one, and
//! a client that has not refreshed or re-connected still holds its own
//! stale one. At 10,000 clients the cell's event queue, too, holds what is
//! queued, not what its busiest windows once held, and a client's tables
//! hold what it uses, not what its busiest moment once needed.

mod support;

use std::rc::Rc;

use bytes::{Bytes, Pool};
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, InjectorNode};
use cliquemap::client::{ClientCfg, ClientNode, LookupStrategy};
use cliquemap::client_cache::{ClientCacheCfg, SharedStats};
use cliquemap::config::{CellConfig, ReplicationMode};
use cliquemap::messages::{method, Geometry, PrepareMaintenance};
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use simnet::{NodeId, SimDuration, SimTime};
use support::live_bytes;
use workloads::{Prefill, ProductionSets, RampWorkload, SizeDist};

const KEYS: u64 = 200;
const READERS: usize = 600;
const VALUE_LEN: usize = 1024;

fn reader() -> Box<dyn Workload> {
    Box::new(RampWorkload {
        prefix: "k".into(),
        keys: KEYS,
        rate0: 1_000.0,
        rate1: 1_000.0,
        duration: SimDuration::from_millis(50),
        stop_at_end: false,
    })
}

fn writer() -> Box<dyn Workload> {
    let sizes = SizeDist::fixed(VALUE_LEN);
    Box::new(ProductionSets::steady("k", KEYS, sizes, 2_000.0))
}

fn table_stats(cell: &Cell) -> SharedStats {
    cell.shared_values().expect("the cache is on").stats()
}

/// Cache entries resident across all clients, counted key by key.
fn resident_entries(cell: &mut Cell) -> usize {
    let keys: Vec<_> = (0..KEYS).map(|i| Prefill::key_name("k", i)).collect();
    let mut resident = 0;
    for id in cell.clients.clone() {
        resident += cell
            .sim
            .with_node::<ClientNode, _>(id, |c| {
                keys.iter().filter(|k| c.cache_peek(k).is_some()).count()
            })
            .expect("client exists");
    }
    resident
}

/// 600 readers of 200 populated 1 KiB keys and two writers, over 3
/// backends, with the lease cache on; run for 50 ms.
fn readers_cell() -> Cell {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        clients_per_host: 12,
        config_read_coalescing: true,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = LookupStrategy::Scar;
    spec.client.access_flush = None;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: 64 << 10,
    });
    let workloads = (0..READERS)
        .map(|_| reader())
        .chain([writer(), writer()])
        .collect();
    let mut cell = Cell::build(spec, workloads);
    bench::populate_cell(&mut cell, "k", KEYS, &SizeDist::fixed(VALUE_LEN));
    cell.run_for(SimDuration::from_millis(50));
    assert_eq!(cell.op_errors(), 0);
    cell
}

/// What the cell's `i`th client holds: its config and its geometry for
/// `backend`.
fn holds(cell: &mut Cell, i: usize, backend: NodeId) -> (Rc<CellConfig>, Option<Geometry>) {
    cell.sim
        .with_node::<ClientNode, _>(cell.clients[i], |c| {
            (c.config().expect("config").clone(), c.geometry_of(backend))
        })
        .expect("client exists")
}

#[test]
fn cached_values_cost_one_buffer_per_distinct_version() {
    let mut cell = readers_cell();
    let stats = table_stats(&cell);
    let sets = cell.sets_completed() as usize;
    assert!(sets > 0, "the writers wrote");
    // A pair enters the table with the corpus or with a SET, never with a
    // reader.
    assert!(
        stats.entries_hwm <= KEYS as usize + sets,
        "{stats:?} after {sets} SETs"
    );
    assert!(stats.bytes <= stats.entries_hwm * VALUE_LEN, "{stats:?}");
    let fills = stats.shared + stats.copied;
    assert!(
        stats.shared * 10 >= fills * 9,
        "under 90 % of fills shared: {stats:?}"
    );
    // One handle per resident cache entry — and an order of magnitude fewer
    // buffers than that (without the table: one buffer each).
    let resident = resident_entries(&mut cell);
    assert_eq!(resident as u64, fills - stats.released, "{stats:?}");
    assert!(
        resident >= 10 * stats.entries,
        "{resident} resident cache entries over {} buffers",
        stats.entries
    );
}

#[test]
fn clients_hold_one_config_and_one_geometry_per_backend() {
    let mut cell = readers_cell();
    let backend = cell.backends[0];
    let (config, geometry) = holds(&mut cell, 0, backend);
    assert!(geometry.is_some());
    for i in 0..cell.clients.len() {
        let (c, g) = holds(&mut cell, i, backend);
        assert!(Rc::ptr_eq(&c, &config), "client {i} holds its own copy");
        // The two writers issue no GET, so never connect.
        assert!(g.is_none() || g == geometry, "client {i}: {g:?}");
    }
    let shared = cell.client_shared();
    assert_eq!((shared.configs(), shared.geometries()), (1, 3));
}

/// `migration_delta.rs`'s setup: R=3.2 over 3 backends and a spare, and
/// backend 0 told to hand its shard to the spare at 40 ms. Both clients
/// read at 1 ms; only the first reads again once the spare has taken over,
/// sees a newer config stamp and refreshes.
#[test]
fn a_client_that_has_not_refreshed_keeps_its_stale_config() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        num_spares: 1,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.access_flush = None;
    let get = |ms| {
        let op = ClientOp::Get {
            key: Bytes::from_static(b"c"),
        };
        (SimDuration::from_millis(ms), op)
    };
    let refreshed = ScriptWorkload::new(vec![get(1), get(150)]);
    let stale = ScriptWorkload::new(vec![get(1)]);
    let mut cell = Cell::build(spec, vec![Box::new(refreshed), Box::new(stale)]);
    let host = cell.sim.add_host(simnet::HostCfg::default());
    let body = PrepareMaintenance {
        spare_node: cell.spares[0].0,
    }
    .encode_in(&Pool::new());
    let at = SimTime(40_000_000);
    let injector = InjectorNode::new(at, cell.backends[0], method::PREPARE_MAINTENANCE, body);
    cell.sim.add_node(host, Box::new(injector));
    cell.sim.run_until(SimTime(300_000_000));
    assert_eq!(cell.sim.metrics().counter("cm.backend.takeovers"), 1);
    let backend = cell.backends[1];
    let (new, _) = holds(&mut cell, 0, backend);
    let (old, _) = holds(&mut cell, 1, backend);
    assert!(new.config_id > old.config_id, "{new:?} vs {old:?}");
    assert!(!Rc::ptr_eq(&new, &old));
    assert_eq!(cell.client_shared().configs(), 2);
}

/// R=1 over one backend; both clients connect with a GET at 1 ms. At 10 ms
/// the backend restarts, and the replacement comes up with its index
/// rebuilt at twice the buckets in a fresh window (the one clients learned
/// at CONNECT is revoked). The first client reads again at 20 ms: its index
/// read fails, it drops that geometry and re-CONNECTs. The second does not
/// read again and still holds what it learned before the restart.
#[test]
fn a_client_that_has_not_reconnected_keeps_its_stale_geometry() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R1,
        num_backends: 1,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.access_flush = None;
    let get = |ms| {
        let op = ClientOp::Get {
            key: Bytes::from_static(b"k"),
        };
        (SimDuration::from_millis(ms), op)
    };
    let reconnected = ScriptWorkload::new(vec![get(1), get(19)]);
    let stale = ScriptWorkload::new(vec![get(1)]);
    let mut cell = Cell::build(spec, vec![Box::new(reconnected), Box::new(stale)]);
    let backend = cell.backends[0];
    cell.run_for(SimDuration::from_millis(10));
    let before = cell
        .sim
        .with_node::<BackendNode, _>(backend, |b| b.store().geometry())
        .unwrap();
    cell.sim.crash(backend);
    cell.restart_backend(0, false);
    let after = cell
        .sim
        .with_node::<BackendNode, _>(backend, |b| {
            b.store_mut().begin_index_resize();
            b.store_mut().finish_index_resize();
            b.store().geometry()
        })
        .unwrap();
    assert_ne!(before, after);
    cell.run_for(SimDuration::from_millis(40));
    let m = cell.sim.metrics();
    assert!(m.counter("cm.client.geometry_invalidations") >= 1);
    assert_eq!(cell.gets_completed(), 3, "{}", cell.op_errors());
    assert_eq!(holds(&mut cell, 0, backend).1, Some(after));
    assert_eq!(holds(&mut cell, 1, backend).1, Some(before));
    assert_eq!(cell.client_shared().geometries(), 2);
}

/// The calendar queue's fixed wheel: a `u32` list head per bucket and the
/// occupancy bitmap, 4,096 buckets.
const QUEUE_WHEEL_BYTES: usize = 4_096 * 4 + 4_096 / 8;
/// Host bytes the event queue may hold per event of its high-water mark:
/// a 104 B arena slot and its 24 B sort key, with room for `Vec` growth.
/// `cell950` holds 197; bucket `Vec`s that keep the capacity of the
/// largest burst they ever held, plus boxed payloads, held 473.
const QUEUE_BYTES_PER_EVENT: usize = 256;
/// Host bytes `cell950`'s 450 ms run may add to the live heap, per client:
/// the event queue, the value table, the backends' grown data regions and
/// every table the clients grow. The run adds 5,422; it added 6,075 while
/// each client kept a table of its timer continuations and every buffer
/// pool class kept up to 4,096 idle buffers whatever their size, 9,349
/// while each client kept a CAS version memo its workload never read and a hash
/// map and set over the backends, 10,367 while each kept a completion log,
/// and 14,073 while each kept its own recycled GET states, a handle per
/// cache entry beside the value table's, a B-tree root for its issued ops,
/// and a timer table sized by the sends that waited in it for the
/// transport engine.
const RUN_BYTES_PER_CLIENT: i64 = 6 << 10;

/// The 10,000-client gate (`ci.sh` runs it in release; minutes in debug).
#[test]
#[ignore = "release-only: cargo test --release --test client_footprint -- --ignored"]
fn cell950_caches_hold_thousands_of_values_not_a_hundred_thousand() {
    let mut cell = bench::simcore::cell950();
    let built = live_bytes();
    cell.run_for(SimDuration::from_millis(450));
    assert_eq!(cell.op_errors(), 0);
    let per_client = (live_bytes() - built) / cell.clients.len() as i64;
    assert!(
        per_client <= RUN_BYTES_PER_CLIENT,
        "the run added {per_client} B of live heap per client"
    );
    let stats = table_stats(&cell);
    assert!(stats.entries_hwm <= 8_000, "{stats:?}");
    assert!(stats.copied <= 8_000, "{stats:?}");
    assert!(stats.shared >= 80_000, "{stats:?}");
    // One config, and one geometry per backend, for the whole cell (a
    // second of each would be a config change or a backend restart).
    let shared = cell.client_shared();
    assert!(shared.configs() <= 2, "{} configs", shared.configs());
    let geometries = shared.geometries();
    assert!(
        geometries <= 2 * cell.backends.len(),
        "{geometries} geometries"
    );
    // The event queue holds what is queued: its fixed wheel plus a
    // per-event budget of its high-water mark, however many windows the
    // run's MultiGet bursts have touched.
    let queued = cell.sim.queue_high_water();
    let reserved = cell.sim.queue_reserved_bytes();
    assert!(
        reserved <= QUEUE_WHEEL_BYTES + QUEUE_BYTES_PER_EVENT * queued,
        "event queue holds {reserved} B for a high-water mark of {queued} events"
    );
    // The ramp never stops, so some op is always in first contact with a
    // backend; none waits longer than one CONNECT round.
    let round = ClientCfg::default().attempt_timeout;
    for id in cell.clients.clone() {
        let since = cell
            .sim
            .with_node::<ClientNode, _>(id, |c| c.parked_since());
        if let Some(since) = since.expect("client exists") {
            assert!(cell.sim.now().since(since) < round, "client {id:?} stuck");
        }
    }
}
