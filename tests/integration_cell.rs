//! Cross-crate integration tests: full cells exercising the public API
//! end-to-end — CliqueMap vs the MemcacheG baseline, value integrity
//! through the real wire paths, protocol evolution, replica consistency
//! under racing writers, and R=2/Immutable failover.

use bytes::Bytes;

use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::{ClientCfg, ClientNode, LookupStrategy};
use cliquemap::config::{ConfigStoreNode, ReplicationMode};
use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload, UniformWorkload, Workload};
use simnet::{FabricCfg, HostCfg, SimDuration};
use workloads::{Prefill, SizeDist};

fn spec(strategy: LookupStrategy, replication: ReplicationMode) -> CellSpec {
    let mut spec = CellSpec {
        replication,
        num_backends: 4,
        host: HostCfg::default().no_cstates(),
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = strategy;
    spec
}

fn script(ops: Vec<(u64, ClientOp)>) -> Box<dyn Workload> {
    Box::new(ScriptWorkload::new(
        ops.into_iter()
            .map(|(us, op)| (SimDuration::from_micros(us), op))
            .collect(),
    ))
}

#[test]
fn cliquemap_gets_beat_memcacheg_by_an_order_of_magnitude() {
    // CliqueMap cell (RMA reads).
    let mut cell = Cell::build(
        spec(LookupStrategy::Scar, ReplicationMode::R1),
        vec![Box::new(UniformWorkload::gets(200, 50_000.0, 5_000))],
    );
    bench::populate_cell(&mut cell, "key-", 200, &SizeDist::fixed(256));
    cell.run_for(SimDuration::from_secs(1));
    let cm_p50 = cell
        .sim
        .metrics()
        .hist_ref("cm.get.latency_ns")
        .unwrap()
        .percentile(50.0);

    // MemcacheG (pure RPC), same corpus shape, same client library.
    // Populate then read.
    let mut ops: Vec<(SimDuration, ClientOp)> = (0..200u64)
        .map(|i| {
            (
                SimDuration::from_micros(60),
                ClientOp::Set {
                    key: Prefill::key_name("key-", i),
                    value: UniformWorkload::value_for(format!("key-{i}").as_bytes(), 256),
                },
            )
        })
        .collect();
    for i in 0..2_000u64 {
        ops.push((
            SimDuration::from_micros(20),
            ClientOp::Get {
                key: Prefill::key_name("key-", i % 200),
            },
        ));
    }
    let mut mcg = baselines::memcacheg_cell(
        5,
        HostCfg::default().no_cstates(),
        1,
        ClientCfg::default(),
        vec![Box::new(ScriptWorkload::new(ops))],
    );
    mcg.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(mcg.sim.metrics().counter("cm.get.hits"), 2_000);
    let mcg_p50 = mcg
        .sim
        .metrics()
        .hist_ref("cm.get.latency_ns")
        .unwrap()
        .percentile(50.0);

    assert!(
        mcg_p50 > cm_p50 * 5,
        "RPC GET p50 {}us vs CliqueMap {}us",
        mcg_p50 / 1000,
        cm_p50 / 1000
    );
}

#[test]
fn values_survive_the_full_wire_path() {
    // SETs travel over real RPCs; we then verify every replica's store
    // holds byte-identical values.
    let keys = 50u64;
    let ops: Vec<(u64, ClientOp)> = (0..keys)
        .map(|i| {
            let key = Prefill::key_name("it-", i);
            let value = UniformWorkload::value_for(&key, 100 + i as usize * 7);
            (50, ClientOp::Set { key, value })
        })
        .collect();
    let mut cell = Cell::build(
        spec(LookupStrategy::TwoR, ReplicationMode::R32),
        vec![script(ops)],
    );
    cell.run_for(SimDuration::from_secs(1));
    assert_eq!(cell.sets_completed(), keys);
    let hasher = DefaultHasher;
    let mut verified = 0u32;
    for i in 0..keys {
        let key = Prefill::key_name("it-", i);
        let expected = UniformWorkload::value_for(&key, 100 + i as usize * 7);
        let hash = hasher.hash(&key);
        for &b in &cell.backends.clone() {
            let got = cell
                .sim
                .with_node::<BackendNode, _>(b, |n| n.store().fetch(hash))
                .unwrap();
            if let Some((k, v, _)) = got {
                assert_eq!(k, key);
                assert_eq!(v, expected, "corrupted value for {key:?}");
                verified += 1;
            }
        }
    }
    // R=3.2: every key on >= 2 replicas (write quorum).
    assert!(verified >= (keys * 2) as u32, "only {verified} copies");
}

#[test]
fn racing_writers_converge_to_one_version() {
    // Two clients SET the same key repeatedly; after things settle every
    // replica must agree on a single (version, value).
    let key_ops = |n: u64| -> Vec<(u64, ClientOp)> {
        (0..n)
            .map(|i| {
                (
                    7,
                    ClientOp::Set {
                        key: Bytes::from_static(b"contested"),
                        value: Bytes::from(format!("value-{i}")),
                    },
                )
            })
            .collect()
    };
    let mut cell = Cell::build(
        spec(LookupStrategy::TwoR, ReplicationMode::R32),
        vec![script(key_ops(50)), script(key_ops(50))],
    );
    cell.run_for(SimDuration::from_secs(2));
    let hash = DefaultHasher.hash(b"contested");
    let mut versions = Vec::new();
    for &b in &cell.backends.clone() {
        if let Some(Some((_, v, ver))) = cell
            .sim
            .with_node::<BackendNode, _>(b, |n| n.store().fetch(hash))
        {
            versions.push((ver, v));
        }
    }
    assert!(versions.len() >= 2, "key lost from replicas");
    for w in versions.windows(2) {
        assert_eq!(w[0].0, w[1].0, "replicas diverged: {versions:?}");
        assert_eq!(w[0].1, w[1].1);
    }
}

#[test]
fn r2_immutable_survives_primary_crash() {
    let ops = vec![
        (
            0,
            ClientOp::Set {
                key: Bytes::from_static(b"imm"),
                value: Bytes::from_static(b"corpus"),
            },
        ),
        // Read before and after the crash.
        (
            2_000,
            ClientOp::Get {
                key: Bytes::from_static(b"imm"),
            },
        ),
        (
            500_000,
            ClientOp::Get {
                key: Bytes::from_static(b"imm"),
            },
        ),
    ];
    let mut cell = Cell::build(
        spec(LookupStrategy::TwoR, ReplicationMode::R2Immutable),
        vec![script(ops)],
    );
    cell.run_for(SimDuration::from_millis(100));
    // Crash the key's primary replica.
    let hash = DefaultHasher.hash(b"imm");
    let shard = cliquemap::hash::place(hash, 4, 1).shard;
    cell.sim.crash(cell.backends[shard as usize]);
    cell.run_for(SimDuration::from_secs(2));
    let done = cell
        .sim
        .with_node::<ClientNode, _>(cell.clients[0], |c| c.completions.clone())
        .unwrap();
    assert_eq!(done.len(), 3, "{done:?}");
    assert_eq!(done[1].0, OpOutcome::Hit);
    assert_eq!(
        done[2].0,
        OpOutcome::Hit,
        "failover to the second replica failed"
    );
}

#[test]
fn old_protocol_versions_are_served_and_ancient_ones_rejected() {
    use rpc::{MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
    let mut cell = Cell::build(spec(LookupStrategy::TwoR, ReplicationMode::R1), vec![]);
    bench::populate_cell(&mut cell, "v", 1, &SizeDist::fixed(64));
    // Hand-roll requests at different protocol versions via an injector-
    // style probe: encode directly and decode the backend's behavior
    // through its dispatcher by using rpc codec compatibility rules.
    assert!(rpc::version_compatible(PROTOCOL_VERSION));
    assert!(rpc::version_compatible(MIN_PROTOCOL_VERSION));
    assert!(!rpc::version_compatible(MIN_PROTOCOL_VERSION - 1));
    // A newer-than-ours version is still served (forward compatibility):
    assert!(rpc::version_compatible(PROTOCOL_VERSION + 10));
}

#[test]
fn whole_cell_replay_is_bit_identical() {
    let run = || {
        let ops: Vec<(u64, ClientOp)> = (0..200u64)
            .map(|i| {
                if i % 5 == 0 {
                    (
                        20,
                        ClientOp::Set {
                            key: Prefill::key_name("d", i % 40),
                            value: UniformWorkload::value_for(&[i as u8], 128),
                        },
                    )
                } else {
                    (
                        20,
                        ClientOp::Get {
                            key: Prefill::key_name("d", i % 40),
                        },
                    )
                }
            })
            .collect();
        let mut cell = Cell::build(
            spec(LookupStrategy::Scar, ReplicationMode::R32),
            vec![script(ops)],
        );
        cell.run_for(SimDuration::from_secs(1));
        cell.sim
            .with_node::<ClientNode, _>(cell.clients[0], |c| c.completions.clone())
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 200);
    assert_eq!(a, b, "same seed must replay identically");
}

#[test]
fn torn_reads_surface_and_are_retried_transparently() {
    // A single hot key hammered by SETs while clients GET it: data-fetch
    // races against chunked writes occasionally observe torn entries; the
    // checksum catches every one and clients retry invisibly.
    let mut s = spec(LookupStrategy::TwoR, ReplicationMode::R32);
    // Widen the chunk window so write races are common at sim scale.
    s.backend.set_chunks = 4;
    s.backend.chunk_gap = SimDuration::from_micros(15);
    let setter: Vec<(u64, ClientOp)> = (0..2_000)
        .map(|i| {
            (
                15,
                ClientOp::Set {
                    key: Bytes::from_static(b"hot"),
                    value: UniformWorkload::value_for(&[i as u8, (i >> 8) as u8], 2048),
                },
            )
        })
        .collect();
    let getter: Vec<(u64, ClientOp)> = (0..4_000)
        .map(|_| {
            (
                8,
                ClientOp::Get {
                    key: Bytes::from_static(b"hot"),
                },
            )
        })
        .collect();
    let mut cell = Cell::build(s, vec![script(setter), script(getter)]);
    bench::populate_cell(&mut cell, "ho", 1, &SizeDist::fixed(2048));
    cell.run_for(SimDuration::from_secs(2));
    let m = cell.sim.metrics();
    let torn = m.counter("cm.get.torn_reads");
    let hits = m.counter("cm.get.hits");
    assert!(hits > 3_000, "hits {hits}");
    assert!(torn > 0, "no torn reads observed under a write storm");
    // Every torn read was absorbed by a retry — no client-visible errors.
    assert_eq!(m.counter("cm.op_errors"), 0);
}

#[test]
fn wan_access_over_rpc_lookups() {
    // "provides WAN access via RPC" (Table 1): a client on a 30ms-RTT
    // fabric uses the MSG lookup path; RMA protocols are not applicable.
    let mut s = spec(LookupStrategy::Msg, ReplicationMode::R1);
    s.fabric = FabricCfg {
        base_latency: SimDuration::from_millis(15), // one-way
        ..FabricCfg::default()
    };
    let ops = vec![
        (
            0,
            ClientOp::Set {
                key: Bytes::from_static(b"wan"),
                value: Bytes::from_static(b"payload"),
            },
        ),
        (
            100_000,
            ClientOp::Get {
                key: Bytes::from_static(b"wan"),
            },
        ),
    ];
    // WAN needs a long attempt timeout.
    s.client.attempt_timeout = SimDuration::from_millis(200);
    s.client.retry = rpc::RetryPolicy {
        op_deadline: SimDuration::from_secs(2),
        ..rpc::RetryPolicy::default()
    };
    let mut cell = Cell::build(s, vec![script(ops)]);
    cell.run_for(SimDuration::from_secs(5));
    let done = cell
        .sim
        .with_node::<ClientNode, _>(cell.clients[0], |c| c.completions.clone())
        .unwrap();
    assert_eq!(done.len(), 2, "{done:?}");
    assert_eq!(done[1].0, OpOutcome::Hit);
    // Latency dominated by the WAN round trip (>= 30ms), far above the
    // datacenter-local figures.
    assert!(done[1].1 > 30_000_000, "WAN GET took only {}ns", done[1].1);
}

#[test]
fn customizable_hash_functions_colocate_prefixed_keys() {
    // §6.5: custom hash functions let disaggregated serving stacks
    // co-locate related keys on one shard.
    use cliquemap::hash::PrefixShardHasher;
    use std::sync::Arc;
    let mut s = spec(LookupStrategy::TwoR, ReplicationMode::R1);
    s.hasher = Arc::new(PrefixShardHasher { prefix_len: 4 });
    let mut ops: Vec<(u64, ClientOp)> = (0..20u64)
        .map(|i| {
            (
                50,
                ClientOp::Set {
                    key: Bytes::from(format!("geo:segment-{i}")),
                    value: Bytes::from_static(b"road-data"),
                },
            )
        })
        .collect();
    for i in 0..20u64 {
        ops.push((
            50,
            ClientOp::Get {
                key: Bytes::from(format!("geo:segment-{i}")),
            },
        ));
    }
    let mut cell = Cell::build(s, vec![script(ops)]);
    cell.run_for(SimDuration::from_secs(1));
    assert_eq!(cell.hits(), 20, "misses: {}", cell.misses());
    // Every key landed on exactly one backend (same "geo:" prefix).
    let populated: Vec<u64> = cell
        .backends
        .clone()
        .iter()
        .map(|&b| {
            cell.sim
                .with_node::<BackendNode, _>(b, |n| n.store().live_entries())
                .unwrap()
        })
        .collect();
    let nonzero = populated.iter().filter(|&&n| n > 0).count();
    assert_eq!(nonzero, 1, "keys scattered: {populated:?}");
    assert_eq!(populated.iter().sum::<u64>(), 20);
}

#[test]
fn cas_contention_exactly_one_winner() {
    // Two clients read the same key (memoizing its version), then both CAS
    // against it: exactly one must win, the other sees Superseded.
    let reader_then_cas = |val: &'static str| -> Vec<(u64, ClientOp)> {
        vec![
            (
                500,
                ClientOp::Get {
                    key: Bytes::from_static(b"cas-key"),
                },
            ),
            (
                500,
                ClientOp::Cas {
                    key: Bytes::from_static(b"cas-key"),
                    value: Bytes::from(val),
                },
            ),
        ]
    };
    let mut cell = Cell::build(
        spec(LookupStrategy::TwoR, ReplicationMode::R32),
        vec![
            script(reader_then_cas("from-client-a")),
            script(reader_then_cas("from-client-b")),
        ],
    );
    bench::populate_cell(&mut cell, "cas-ke", 0, &SizeDist::fixed(8)); // no-op, names differ
                                                                       // Install the contested key directly at a known version.
    {
        let hasher = DefaultHasher;
        let key = Bytes::from_static(b"cas-key");
        let hash = hasher.hash(&key);
        let shard = cliquemap::hash::place(hash, 4, 1).shard;
        for r in 0..3u32 {
            let b = cell.backends[((shard + r) % 4) as usize];
            cell.sim
                .with_node::<BackendNode, _>(b, |n| {
                    let v1 = cliquemap::version::VersionNumber::new(1, 0, 1);
                    let status = n.store_mut().install(&key, b"initial", hash, v1);
                    assert_eq!(status, rpc::Status::Ok);
                })
                .unwrap();
        }
    }
    cell.run_for(SimDuration::from_secs(2));
    let outcomes: Vec<Vec<OpOutcome>> = cell
        .clients
        .clone()
        .iter()
        .map(|&c| {
            cell.sim
                .with_node::<ClientNode, _>(c, |n| n.completions.iter().map(|(o, _)| *o).collect())
                .unwrap()
        })
        .collect();
    let cas_results: Vec<OpOutcome> = outcomes.iter().map(|o| o[1]).collect();
    let wins = cas_results
        .iter()
        .filter(|o| **o == OpOutcome::Done)
        .count();
    let losses = cas_results
        .iter()
        .filter(|o| **o == OpOutcome::Superseded)
        .count();
    assert_eq!(wins, 1, "CAS outcomes: {cas_results:?}");
    assert_eq!(losses, 1, "CAS outcomes: {cas_results:?}");
}

#[test]
fn get_obstruction_freedom_under_write_storm() {
    // §5.3: GETs are obstruction-free — they may be forced to retry by
    // concurrent SETs of the same key (inquorate outcomes), but "in
    // practice the speed differential between RMA and RPC makes this a
    // non-concern". Three writers hammer one key while a reader GETs it
    // continuously: retries happen, yet effectively all GETs succeed.
    let mut s = spec(LookupStrategy::TwoR, ReplicationMode::R32);
    s.backend.set_chunks = 3;
    s.backend.chunk_gap = SimDuration::from_micros(5);
    // Fabric jitter spreads each SET's arrival across replicas, so index
    // fetches regularly observe disagreeing versions (inquorate retries).
    s.fabric.jitter = SimDuration::from_micros(5);
    // Production deployments tune retry counts to the workload (§3).
    s.client.retry = rpc::RetryPolicy {
        max_attempts: 16,
        ..rpc::RetryPolicy::default()
    };
    let writer = || -> Vec<(u64, ClientOp)> {
        (0..1_500u64)
            .map(|i| {
                (
                    30,
                    ClientOp::Set {
                        key: Bytes::from_static(b"storm"),
                        value: UniformWorkload::value_for(&i.to_le_bytes(), 1024),
                    },
                )
            })
            .collect()
    };
    let reader: Vec<(u64, ClientOp)> = (0..3_000u64)
        .map(|_| {
            (
                15,
                ClientOp::Get {
                    key: Bytes::from_static(b"storm"),
                },
            )
        })
        .collect();
    let mut cell = Cell::build(
        s,
        vec![
            script(writer()),
            script(writer()),
            script(writer()),
            script(reader),
        ],
    );
    bench::populate_cell(&mut cell, "stor", 1, &SizeDist::fixed(1024));
    cell.run_for(SimDuration::from_secs(2));
    let m = cell.sim.metrics();
    let gets = m.counter("cm.get.completed");
    let errors = m.counter("cm.op_errors");
    let retries = m.counter("cm.retries");
    assert_eq!(gets, 3_000, "reader stalled");
    assert!(retries > 0, "write storm never forced a retry");
    // Errors are permitted by the protocol (no guaranteed progress) but
    // must be vanishingly rare at realistic speed differentials.
    assert!(
        (errors as f64) < gets as f64 * 0.005,
        "too many starved GETs: {errors}/{gets}"
    );
    // Hits + misses == completions (no phantom outcomes).
    assert_eq!(m.counter("cm.get.hits") + m.counter("cm.get.misses"), gets);
}

#[test]
fn erase_makes_forward_progress_with_a_replica_down() {
    // §5.2: "Like SETs, [ERASEs] are performed via RPC and make forward
    // progress even when a replica is down."
    let ops = vec![
        (
            0,
            ClientOp::Set {
                key: Bytes::from_static(b"doomed"),
                value: Bytes::from_static(b"x"),
            },
        ),
        (
            300_000, // after the crash below
            ClientOp::Erase {
                key: Bytes::from_static(b"doomed"),
            },
        ),
        (
            100_000,
            ClientOp::Get {
                key: Bytes::from_static(b"doomed"),
            },
        ),
    ];
    let mut cell = Cell::build(
        spec(LookupStrategy::TwoR, ReplicationMode::R32),
        vec![script(ops)],
    );
    cell.run_for(SimDuration::from_millis(100));
    // Crash one replica of the key before the ERASE issues.
    let hash = DefaultHasher.hash(b"doomed");
    let shard = cliquemap::hash::place(hash, 4, 1).shard;
    cell.sim.crash(cell.backends[((shard + 1) % 4) as usize]);
    cell.run_for(SimDuration::from_secs(2));
    let done = cell
        .sim
        .with_node::<ClientNode, _>(cell.clients[0], |c| c.completions.clone())
        .unwrap();
    assert_eq!(done.len(), 3, "{done:?}");
    assert_eq!(done[1].0, OpOutcome::Done, "ERASE stalled: {done:?}");
    assert_eq!(done[2].0, OpOutcome::Miss, "erase didn't take: {done:?}");
}

fn client_log(cell: &mut Cell) -> Vec<(OpOutcome, u64)> {
    cell.sim
        .with_node::<ClientNode, _>(cell.clients[0], |c| c.completions.clone())
        .unwrap()
}

fn shard_of(key: &[u8]) -> usize {
    cliquemap::hash::place(DefaultHasher.hash(key), 4, 1).shard as usize
}

/// R=3.2 over 4 backends: two of key `dark`'s three replicas crash at
/// 100 µs, before the client has connected to any backend, and `op` issues
/// at 1 ms. The crashed replicas never answer CONNECT, so the op never
/// gets a read quorum's geometry. Returns the client's completions and
/// `cm.op_errors` after 1 s.
fn read_with_quorum_down_before_first_contact(
    strategy: LookupStrategy,
    op: ClientOp,
) -> (Vec<(OpOutcome, u64)>, u64) {
    let mut cell = Cell::build(
        spec(strategy, ReplicationMode::R32),
        vec![script(vec![(1_000, op)])],
    );
    cell.run_for(SimDuration::from_micros(100));
    let shard = shard_of(b"dark");
    for r in 0..2 {
        cell.sim.crash(cell.backends[(shard + r) % 4]);
    }
    cell.run_for(SimDuration::from_secs(1));
    (client_log(&mut cell), cell.op_errors())
}

#[test]
fn a_get_waiting_for_geometry_fails_at_its_deadline() {
    let deadline = rpc::RetryPolicy::default().op_deadline.nanos();
    // A key with a read quorum alive: its replicas hold one crashed node.
    let lit = (0..)
        .map(|i| Bytes::from(format!("lit{i}")))
        .find(|k| shard_of(k) == (shard_of(b"dark") + 2) % 4)
        .unwrap();
    let dark = Bytes::from_static(b"dark");
    for strategy in [LookupStrategy::TwoR, LookupStrategy::Scar] {
        let single = ClientOp::Get { key: dark.clone() };
        let multi = ClientOp::MultiGet {
            keys: vec![dark.clone(), lit.clone()],
        };
        for op in [single, multi] {
            let what = format!("{strategy:?} {op:?}");
            let (done, op_errors) = read_with_quorum_down_before_first_contact(strategy, op);
            assert_eq!(done.len(), 1, "{what}: never completed");
            assert_eq!(done[0].0, OpOutcome::Error, "{what}");
            assert!(done[0].1 >= deadline, "{what}: failed early: {done:?}");
            assert_eq!(op_errors, 1, "{what}");
        }
    }
}

#[test]
fn ops_waiting_for_config_fail_at_their_deadline() {
    // The config store is down before the client's first config arrives:
    // a GET and a SET admitted at 1 ms wait for a config that never comes.
    let deadline = rpc::RetryPolicy::default().op_deadline.nanos();
    let key = Bytes::from_static(b"k");
    let ops = vec![
        (1_000, ClientOp::Get { key: key.clone() }),
        (
            0,
            ClientOp::Set {
                key,
                value: Bytes::from_static(b"v"),
            },
        ),
    ];
    let mut cell = Cell::build(
        spec(LookupStrategy::TwoR, ReplicationMode::R32),
        vec![script(ops)],
    );
    cell.sim.crash(cell.config_store);
    cell.run_for(SimDuration::from_secs(1));
    let done = client_log(&mut cell);
    assert_eq!(done.len(), 2, "{done:?}");
    assert!(
        done.iter()
            .all(|&(o, ns)| o == OpOutcome::Error && ns >= deadline),
        "{done:?}"
    );
    assert_eq!(cell.op_errors(), 2);
}

#[test]
fn a_parked_op_reports_latency_and_meets_its_deadline_from_issue() {
    // ROADMAP 9(vi), pinned: an op's latency and deadline clocks restart
    // when it leaves parking, so parked time is neither charged nor
    // counted. An MSG GET admitted at 1 ms parks until the config store,
    // down from the start, comes back at 90 ms; every backend is down, so
    // it retries until its budget fails it — past admission + deadline,
    // yet reporting less than a deadline of latency. Item 9 flips this.
    let deadline = rpc::RetryPolicy::default().op_deadline;
    let get = ClientOp::Get {
        key: Bytes::from_static(b"k"),
    };
    let mut cell = Cell::build(
        spec(LookupStrategy::Msg, ReplicationMode::R32),
        vec![script(vec![(1_000, get)])],
    );
    cell.sim.crash(cell.config_store);
    for b in cell.backends.clone() {
        cell.sim.crash(b);
    }
    cell.run_for(SimDuration::from_millis(90));
    let config = cell
        .sim
        .with_node::<ConfigStoreNode, _>(cell.config_store, |cs| cs.config().clone())
        .unwrap();
    cell.sim
        .revive(cell.config_store, Box::new(ConfigStoreNode::new(config)));
    // Still open at admission + deadline (101 ms).
    cell.run_for(SimDuration::from_millis(11));
    assert!(client_log(&mut cell).is_empty());
    cell.run_for(SimDuration::from_secs(1));
    let done = client_log(&mut cell);
    assert_eq!(done.len(), 1, "{done:?}");
    assert_eq!(done[0].0, OpOutcome::Error);
    assert!(done[0].1 < deadline.nanos(), "{done:?}");
    assert_eq!(cell.op_errors(), 1);
}
