//! Mutations that commit while a backend is migrating its shard to a warm
//! spare (§6.1) must reach the spare: SET and CAS ride the migration's
//! trailing delta, an ERASE is forwarded as an ERASE at the same version.
//! Quorum reads would hide a miss here (the other two replicas are right),
//! so the test reads the spare's store directly after the takeover.

use bytes::{Bytes, Pool};
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, CellSpec, InjectorNode};
use cliquemap::config::ReplicationMode;
use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::messages::{method, PrepareMaintenance};
use cliquemap::version::VersionNumber;
use cliquemap::workload::{ClientOp, ScriptWorkload, Workload};
use simnet::{SimDuration, SimTime};

const FILLER: u32 = 1_500;
const MIGRATE_AT: SimTime = SimTime(40_000_000);

/// R=3.2 over 3 backends + 1 spare, 1,501 keys; backend 0 is told to
/// migrate at 40 ms and the client mutates key `c` `delta_us` later.
/// Returns what the spare holds for `c` once it has taken over.
fn spare_value_after(delta_us: u64, mutation: ClientOp) -> Option<Bytes> {
    let mut spec = CellSpec {
        replication: ReplicationMode::R32,
        num_backends: 3,
        num_spares: 1,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.access_flush = None;
    let key = Bytes::from_static(b"c");
    let first = SimDuration::from_millis(1);
    let v1 = Bytes::from_static(b"v1");
    let script = vec![
        (
            first,
            ClientOp::Set {
                key: key.clone(),
                value: v1,
            },
        ),
        (
            MIGRATE_AT.since(SimTime(first.nanos())) + SimDuration::from_micros(delta_us),
            mutation,
        ),
    ];
    let wl: Box<dyn Workload> = Box::new(ScriptWorkload::new(script));
    let mut cell = Cell::build(spec, vec![wl]);
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
    let host = cell.sim.add_host(simnet::HostCfg::default());
    let body = PrepareMaintenance {
        spare_node: cell.spares[0].0,
    }
    .encode_in(&Pool::new());
    let injector = InjectorNode::new(
        MIGRATE_AT,
        cell.backends[0],
        method::PREPARE_MAINTENANCE,
        body,
    );
    cell.sim.add_node(host, Box::new(injector));
    cell.sim.run_until(SimTime(300_000_000));
    let m = cell.sim.metrics();
    assert_eq!(
        m.counter("cm.backend.takeovers"),
        1,
        "spare never took over"
    );
    assert_eq!(m.counter("cm.set.completed"), 2, "a mutation was not acked");
    let hash = DefaultHasher.hash(&key);
    cell.sim
        .with_node::<BackendNode, _>(cell.spares[0], |b| b.store().fetch(hash))
        .expect("spare exists")
        .map(|(_, value, _)| value)
}

#[test]
fn mutations_landing_mid_migration_reach_the_spare() {
    let (key, value) = (Bytes::from_static(b"c"), Bytes::from_static(b"v2"));
    let mut table = Vec::new();
    for delta_us in [100, 300] {
        let (key, value) = (key.clone(), value.clone());
        let ops = [
            (
                "SET",
                ClientOp::Set {
                    key: key.clone(),
                    value: value.clone(),
                },
                Some(&b"v2"[..]),
            ),
            (
                "CAS",
                ClientOp::Cas {
                    key: key.clone(),
                    value,
                },
                Some(&b"v2"[..]),
            ),
            ("ERASE", ClientOp::Erase { key }, None),
        ];
        for (name, op, want) in ops {
            let got = spare_value_after(delta_us, op);
            table.push((name, delta_us, got.as_deref() == want, got));
        }
    }
    assert!(table.iter().all(|row| row.2), "spare is stale: {table:?}");
}
