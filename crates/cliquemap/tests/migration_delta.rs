//! A backend handing its shard to a warm spare (§6.1) acks a mutation only
//! where the shard's owner will hold it. Until the last chunk is cut, what
//! commits rides the handoff's delta to the spare (SET and CAS with their
//! values, ERASE as a tombstone); from the cut on, the old primary answers
//! `WrongShard` and the client retries at the new owner. Quorum reads would
//! hide a miss at one replica, so the tests read what the owners hold after
//! the takeover from the cell's History, and `check` it.

use bytes::{Bytes, Pool};
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, InjectorNode};
use cliquemap::client::ClientNode;
use cliquemap::client_cache::ClientCacheCfg;
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{place, DefaultHasher, KeyHasher};
use cliquemap::history::{self, value_hash, History};
use cliquemap::messages::{method, PrepareMaintenance};
use cliquemap::version::VersionNumber;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use simnet::{Fault, FaultPlan, HostSet, NodeId, SimDuration, SimTime};

const FILLER: u32 = 1_500;
const MIGRATE_AT: SimTime = SimTime(40_000_000);

/// One run of the file's setup: 3 backends + 1 spare, 1,501 keys, backend
/// 0 told to hand its shard to the spare at 40 ms.
struct Run {
    replication: ReplicationMode,
    /// The key the client sets to `v1` at 1 ms and mutates later.
    key: Bytes,
    /// When the mutation is issued, after `MIGRATE_AT`.
    delta_us: u64,
    mutation: ClientOp,
    /// Backend 2's host is CPU-dead over [Δ − 0.1 ms, Δ + 3 ms] around the
    /// mutation.
    b2_dead: bool,
    /// A second client, with a lease cache to show what it read, GETs the
    /// key at 250 ms.
    reader: bool,
}

/// What a run left behind: the hash of the value each of the key's owners
/// after the takeover holds (spare first), and what the reader's GET found.
#[derive(Debug)]
struct Outcome {
    owners: Vec<Option<u64>>,
    read: Option<Bytes>,
}

fn mutate(name: &str, key: &Bytes) -> ClientOp {
    let (key, value) = (key.clone(), Bytes::from_static(b"v2"));
    match name {
        "SET" => ClientOp::Set { key, value },
        "CAS" => ClientOp::Cas { key, value },
        _ => ClientOp::Erase { key },
    }
}

/// What the owners must hold after `name`.
fn wanted(name: &str) -> Option<u64> {
    (name != "ERASE").then(|| value_hash(b"v2"))
}

impl Run {
    fn go(self) -> Outcome {
        let mut spec = CellSpec {
            replication: self.replication,
            num_backends: 3,
            num_spares: 1,
            ..CellSpec::default()
        };
        spec.backend.scan_interval = None;
        spec.client.access_flush = None;
        if self.reader {
            spec.client.cache = Some(ClientCacheCfg::default());
        }
        let first = SimDuration::from_millis(1);
        let v1 = Bytes::from_static(b"v1");
        let at = MIGRATE_AT.nanos() + self.delta_us * 1_000;
        let script = vec![
            (
                first,
                ClientOp::Set {
                    key: self.key.clone(),
                    value: v1,
                },
            ),
            (SimDuration(at - first.nanos()), self.mutation),
        ];
        let mut workloads: Vec<Box<dyn Workload>> = vec![Box::new(ScriptWorkload::new(script))];
        if self.reader {
            let get = ClientOp::Get {
                key: self.key.clone(),
            };
            let read = vec![(SimDuration::from_millis(250), get)];
            workloads.push(Box::new(ScriptWorkload::new(read)));
        }
        let mut cell = Cell::build(spec, workloads);
        cell.record_history();
        for i in 0..FILLER {
            let k = format!("fill{i}");
            let hash = DefaultHasher.hash(k.as_bytes());
            for &b in &cell.backends {
                cell.sim
                    .with_node::<BackendNode, _>(b, |b| {
                        b.store_mut().install(
                            k.as_bytes(),
                            &[7u8; 64],
                            hash,
                            VersionNumber::new(1, 0, 1),
                        )
                    })
                    .expect("backend exists");
            }
        }
        if self.b2_dead {
            let mut plan = FaultPlan::new(1);
            let hosts = HostSet::of(&cell.backend_hosts[2..3]);
            plan.add(
                SimTime(at - 100_000),
                SimTime(at + 3_000_000),
                Fault::CpuDead { hosts },
            );
            cell.sim.install_fault_plan(&plan);
        }
        prepare_maintenance(&mut cell, MIGRATE_AT);
        cell.sim.run_until(SimTime(300_000_000));
        let m = cell.sim.metrics();
        assert_eq!(
            m.counter("cm.backend.takeovers"),
            1,
            "spare never took over"
        );
        assert_eq!(m.counter("cm.set.completed"), 2, "a mutation was not acked");
        assert_eq!(m.counter("cm.op_errors"), 0, "an op failed");
        let owners = match self.replication {
            ReplicationMode::R1 => vec![cell.spares[0]],
            _ => vec![cell.spares[0], cell.backends[1], cell.backends[2]],
        };
        let h = cell.history();
        assert_eq!(history::check(&h, self.replication), [], "{:?}", self.key);
        let owners = owners
            .into_iter()
            .map(|b| value_at(&h, b, &self.key))
            .collect();
        let read = cell.clients.get(1).and_then(|&c| {
            cell.sim
                .with_node::<ClientNode, _>(c, |c| c.cache_peek(&self.key))
                .expect("reader exists")
                .map(|(_, value)| value)
        });
        Outcome { owners, read }
    }
}

/// Inject `PREPARE_MAINTENANCE` to backend 0 at `at`, naming the spare.
fn prepare_maintenance(cell: &mut Cell, at: SimTime) {
    let host = cell.sim.add_host(simnet::HostCfg::default());
    let body = PrepareMaintenance {
        spare_node: cell.spares[0].0,
    }
    .encode_in(&Pool::new());
    let injector = InjectorNode::new(at, cell.backends[0], method::PREPARE_MAINTENANCE, body);
    cell.sim.add_node(host, Box::new(injector));
}

/// The hash of the value replica `backend` holds for `key`, if any.
fn value_at(h: &History, backend: NodeId, key: &[u8]) -> Option<u64> {
    let hash = DefaultHasher.hash(key);
    let copy = h
        .copies
        .iter()
        .find(|c| c.key == hash && c.replica == backend.0);
    copy.expect("a replica of the key").value
}

#[test]
fn mutations_landing_mid_migration_reach_the_spare() {
    let key = Bytes::from_static(b"c");
    let mut table = Vec::new();
    for delta_us in [100, 300] {
        for name in ["SET", "CAS", "ERASE"] {
            let run = Run {
                replication: ReplicationMode::R32,
                key: key.clone(),
                delta_us,
                mutation: mutate(name, &key),
                b2_dead: false,
                reader: false,
            };
            let spare = run.go().owners.swap_remove(0);
            table.push((name, delta_us, spare == wanted(name), spare));
        }
    }
    assert!(table.iter().all(|row| row.2), "spare is stale: {table:?}");
}

/// R=1: the spare is the key's only owner once the old primary exits. A
/// mutation issued after the last chunk is cut — before the new config is
/// published, or long after, by a client that only writes and so never
/// saw the config change — is refused by the old primary and lands at the
/// spare.
#[test]
fn a_write_after_the_cut_lands_at_the_new_owner() {
    let key = (0..)
        .map(|i| Bytes::from(format!("c{i}")))
        .find(|k| place(DefaultHasher.hash(k), 3, 1).shard == 0)
        .expect("some key lands on shard 0");
    let mut table = Vec::new();
    for delta_us in [780, 1_000, 5_000, 50_000] {
        for name in ["SET", "CAS", "ERASE"] {
            let run = Run {
                replication: ReplicationMode::R1,
                key: key.clone(),
                delta_us,
                mutation: mutate(name, &key),
                b2_dead: false,
                reader: false,
            };
            let spare = run.go().owners.swap_remove(0);
            table.push((name, delta_us, spare == wanted(name), spare));
        }
    }
    assert!(table.iter().all(|row| row.2), "spare is stale: {table:?}");
}

/// R=3.2 with backend 2 CPU-dead around a SET issued after the cut: the
/// old primary refuses it, so backend 1 alone is no write quorum; the retry
/// goes to the new owners, and a quorum of them holds the write — which a
/// fresh client then reads. (With all replicas healthy, backends 1 and 2
/// are a write quorum and the spare may lag like any minority replica, for
/// a repair scan to catch up: R=3.2's contract.)
#[test]
fn a_write_after_the_cut_reaches_a_quorum_of_new_owners() {
    let key = Bytes::from_static(b"c");
    for delta_us in [1_000, 5_000] {
        let out = Run {
            replication: ReplicationMode::R32,
            key: key.clone(),
            delta_us,
            mutation: mutate("SET", &key),
            b2_dead: true,
            reader: true,
        }
        .go();
        let v2 = wanted("SET");
        let holding = out.owners.iter().filter(|&v| *v == v2).count();
        assert!(holding >= 2, "+{delta_us} µs: owners hold {out:?}");
        let read = out.read.as_deref().map(value_hash);
        assert_eq!(read, v2, "+{delta_us} µs: the reader missed the write");
    }
}

/// The snapshot a handoff starts from holds every pair `fetch` serves —
/// the RPC-only overflow table's too. A 1-slot index displaces all of
/// shard 0's keys but one there; after the takeover the spare holds every
/// key.
#[test]
fn the_overflow_table_moves_with_the_shard() {
    let mut spec = CellSpec {
        replication: ReplicationMode::R1,
        num_backends: 3,
        num_spares: 1,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.backend.store.num_buckets = 1;
    spec.backend.store.assoc = 1;
    spec.backend.store.overflow_capacity = 16;
    // No index reshape: keys stay where the 1-slot index put them.
    spec.backend.reshape_check = SimDuration::from_secs(10);
    let idle: Box<dyn Workload> = Box::new(ScriptWorkload::new(Vec::new()));
    let mut cell = Cell::build(spec, vec![idle]);
    cell.record_history();
    let keys: Vec<Bytes> = (0..)
        .map(|i| Bytes::from(format!("ov{i}")))
        .filter(|k| place(DefaultHasher.hash(k), 3, 1).shard == 0)
        .take(8)
        .collect();
    let overflowed = cell
        .sim
        .with_node::<BackendNode, _>(cell.backends[0], |b| {
            for (i, k) in keys.iter().enumerate() {
                b.load(k, b"value", VersionNumber::new(i as u64 + 1, 0, 1));
            }
            b.store().overflow_len()
        })
        .expect("backend exists");
    assert_eq!(overflowed, keys.len() - 1);
    prepare_maintenance(&mut cell, SimTime(10_000_000));
    cell.sim.run_until(SimTime(50_000_000));
    assert_eq!(cell.sim.metrics().counter("cm.backend.takeovers"), 1);
    let h = cell.history();
    assert_eq!(history::check(&h, ReplicationMode::R1), []);
    let spare = cell.spares[0];
    let missing: Vec<_> = keys
        .iter()
        .filter(|k| value_at(&h, spare, k).is_none())
        .collect();
    assert!(missing.is_empty(), "the spare lost {missing:?}");
}
