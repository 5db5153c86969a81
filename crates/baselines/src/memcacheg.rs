//! MemcacheG: the pure-RPC KVCS baseline.
//!
//! "Google, too, has its own internal version [of memcached], known as
//! MemcacheG, a translation of Memcached, using Stubby RPC — Google's
//! production-grade RPC — as its transport" (§2.1). Every operation — GETs
//! included — pays the full RPC framework cost on both sides, which is
//! exactly the overhead CliqueMap's RMA read path removes.
//!
//! The server is deliberately simple (memcached is): a hash map with LRU
//! eviction at a byte budget, versions kept for parity with CliqueMap's
//! interface so the same workloads drive both systems.

use std::collections::HashMap;
use std::rc::Rc;

use bytes::{Bytes, Pool};

use cliquemap::cell::{PonyCfg, Transport};
use cliquemap::client::{ClientCfg, ClientIdentity, ClientNode, ClientShared, LookupStrategy};
use cliquemap::config::{CellConfig, ConfigStoreNode, ReplicationMode};
use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::messages::{self, method};
use cliquemap::policy::LruPolicy;
use cliquemap::version::VersionNumber;
use cliquemap::workload::Workload;
use rpc::{RpcCostModel, Status};
use simnet::{Ctx, Deferred, Event, FabricCfg, HostCfg, Node, NodeId, Sim, SimDuration};

/// MemcacheG server configuration.
#[derive(Debug, Clone)]
pub struct MemcacheGCfg {
    /// Byte budget for stored values (keys + values).
    pub capacity_bytes: usize,
}

/// Handler cost per operation beyond the RPC framework's
/// ([`RpcCostModel::default`], the same model `ClientNode` bills).
const HANDLER_COST: SimDuration = SimDuration::from_micros(1);

impl Default for MemcacheGCfg {
    fn default() -> Self {
        MemcacheGCfg {
            capacity_bytes: 64 << 20,
        }
    }
}

struct Entry {
    value: Bytes,
    version: VersionNumber,
}

simnet::metric_ids! {
    struct McgMetricIds {
        rpc_bytes: "mcg.rpc_bytes",
        shed: "mcg.shed",
    }
}

/// The MemcacheG server node.
pub struct MemcacheGNode {
    cfg: MemcacheGCfg,
    map: HashMap<Bytes, Entry>,
    policy: LruPolicy,
    used_bytes: usize,
    hasher: DefaultHasher,
    hash_of: HashMap<u128, Bytes>,
    pending: Deferred<(NodeId, Bytes)>,
    /// Operations served.
    pub ops: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Interned metric ids; resolved on [`Event::Start`].
    mids: Option<McgMetricIds>,
    /// Frame-buffer pool responses are encoded into; swapped for the
    /// host-shared pool at [`Event::Start`].
    pool: Pool,
}

impl MemcacheGNode {
    /// Create a server.
    pub fn new(cfg: MemcacheGCfg) -> MemcacheGNode {
        MemcacheGNode {
            cfg,
            map: HashMap::new(),
            policy: LruPolicy::new(),
            used_bytes: 0,
            hasher: DefaultHasher,
            hash_of: HashMap::new(),
            pending: Deferred::responses(),
            ops: 0,
            evictions: 0,
            mids: None,
            pool: Pool::new(),
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    fn evict_until(&mut self, needed: usize) {
        while self.used_bytes + needed > self.cfg.capacity_bytes {
            let Some(victim_hash) = self.policy.victim() else {
                return;
            };
            let Some(key) = self.hash_of.remove(&victim_hash) else {
                self.policy.on_remove(victim_hash);
                continue;
            };
            if let Some(e) = self.map.remove(&key) {
                self.used_bytes -= key.len() + e.value.len();
            }
            self.policy.on_remove(victim_hash);
            self.evictions += 1;
        }
    }

    fn handle(&mut self, req: &rpc::Request) -> (Status, Bytes) {
        self.ops += 1;
        match req.method {
            method::GET_RPC | method::MSG_GET => {
                let Some(get) = messages::GetReq::decode(req.body.clone()) else {
                    return (Status::Internal, Bytes::new());
                };
                let hash = self.hasher.hash(&get.key);
                match self.map.get(&get.key) {
                    Some(e) => {
                        self.policy.on_touch(hash);
                        let body = messages::GetResp {
                            key: get.key,
                            value: e.value.clone(),
                            version: e.version,
                        }
                        .encode_in(&self.pool);
                        (Status::Ok, body)
                    }
                    None => (Status::NotFound, Bytes::new()),
                }
            }
            method::SET => {
                let Some(set) = messages::SetReq::decode(req.body.clone()) else {
                    return (Status::Internal, Bytes::new());
                };
                let hash = self.hasher.hash(&set.key);
                if self
                    .map
                    .get(&set.key)
                    .is_some_and(|old| set.version <= old.version)
                {
                    return (Status::VersionRejected, Bytes::new());
                }
                // Never evict the key being overwritten: its old entry
                // leaves before eviction makes room for the new one.
                if let Some(old) = self.map.remove(&set.key) {
                    self.used_bytes -= set.key.len() + old.value.len();
                    self.hash_of.remove(&hash);
                    self.policy.on_remove(hash);
                }
                let needed = set.key.len() + set.value.len();
                self.evict_until(needed);
                self.used_bytes += needed;
                self.hash_of.insert(hash, set.key.clone());
                self.policy.on_insert(hash);
                self.map.insert(
                    set.key,
                    Entry {
                        value: set.value,
                        version: set.version,
                    },
                );
                (Status::Ok, Bytes::new())
            }
            method::ERASE => {
                let Some(erase) = messages::EraseReq::decode(req.body.clone()) else {
                    return (Status::Internal, Bytes::new());
                };
                let hash = self.hasher.hash(&erase.key);
                if let Some(e) = self.map.remove(&erase.key) {
                    self.used_bytes -= erase.key.len() + e.value.len();
                    self.policy.on_remove(hash);
                    self.hash_of.remove(&hash);
                }
                (Status::Ok, Bytes::new())
            }
            _ => (Status::Internal, Bytes::new()),
        }
    }
}

impl Node for MemcacheGNode {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                self.mids = Some(McgMetricIds::resolve(ctx.metrics()));
                self.pool = ctx.pool();
            }
            Event::Frame(frame) => {
                let Some(rpc::Envelope::Request(req)) = rpc::decode(frame.payload) else {
                    return;
                };
                // Every response slot queued behind the CPU: answer now,
                // before the request changes anything.
                let shed = self.pending.is_full();
                let (status, body) = if shed {
                    (Status::Overloaded, Bytes::new())
                } else {
                    self.handle(&req)
                };
                let resp = rpc::encode_response_in(
                    &rpc::Response {
                        version: rpc::PROTOCOL_VERSION,
                        status,
                        id: req.id,
                        body,
                    },
                    &self.pool,
                );
                if shed {
                    let shed_id = self.mids.expect("metric ids resolved at Start").shed;
                    ctx.metrics().add_id(shed_id, 1);
                    ctx.send(frame.src, resp);
                    return;
                }
                let cost =
                    RpcCostModel::default().server_total(req.body.len(), resp.len()) + HANDLER_COST;
                let tok = self.pending.defer((frame.src, resp));
                ctx.spawn_cpu(cost, tok);
            }
            Event::CpuDone(tok) => {
                if let Some((dst, resp)) = self.pending.take(tok) {
                    let rpc_bytes = self.mids.expect("metric ids resolved at Start").rpc_bytes;
                    ctx.metrics().add_id(rpc_bytes, resp.len() as u64);
                    ctx.send(dst, resp);
                }
            }
            _ => {}
        }
    }

    fn label(&self) -> String {
        "memcacheg".into()
    }
}

/// A MemcacheG deployment driven by the tree's one op-driver.
pub struct MemcacheGCell {
    /// The simulation world.
    pub sim: Sim,
    /// The MemcacheG servers, indexed by shard.
    pub servers: Vec<NodeId>,
    /// The clients, parallel to the workloads given.
    pub clients: Vec<NodeId>,
    /// What the clients hold the same way, the cell's History tap among
    /// them.
    pub shared: ClientShared,
}

/// Build `servers` MemcacheG nodes, a config store that lists them as the
/// shards of an R=1 cell, and one [`ClientNode`] per workload reaching them
/// by full RPC ([`LookupStrategy::Rpc`]), each node on a host of its own.
/// `client` is the template for what an op-driver can be told (retry
/// budget, attempt timeout, pacing, `max_in_flight`). Set against a
/// CliqueMap cell, the comparison differs in the server alone: both sides
/// pay the client cost model every figure uses.
pub fn memcacheg_cell(
    seed: u64,
    host: HostCfg,
    servers: usize,
    client: ClientCfg,
    workloads: Vec<Box<dyn Workload>>,
) -> MemcacheGCell {
    let mut sim = Sim::new(FabricCfg::default(), seed);
    let place = |sim: &mut Sim, node: Box<dyn Node>| {
        let h = sim.add_host(host.clone());
        sim.add_node(h, node)
    };
    let servers: Vec<NodeId> = (0..servers)
        .map(|_| {
            let server = MemcacheGNode::new(MemcacheGCfg::default());
            place(&mut sim, Box::new(server))
        })
        .collect();
    let config = CellConfig {
        config_id: 1,
        replication: ReplicationMode::R1,
        shards: servers.iter().map(|n| n.0).collect(),
        spares: Vec::new(),
    };
    let config_store = place(&mut sim, Box::new(ConfigStoreNode::new(config)));
    let cfg = Rc::new(ClientCfg {
        strategy: LookupStrategy::Rpc,
        config_store,
        access_flush: None,
        ..client
    });
    let shared = ClientShared::default();
    let clients = (1..)
        .zip(workloads)
        .map(|(client_id, workload)| {
            let me = ClientIdentity {
                client_id,
                adaptive_seed: 0,
                transport: Transport::pony(PonyCfg::default()),
                shared: shared.clone(),
            };
            place(
                &mut sim,
                Box::new(ClientNode::new(cfg.clone(), me, workload)),
            )
        })
        .collect();
    MemcacheGCell {
        sim,
        servers,
        clients,
        shared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload};
    use rpc::RetryPolicy;

    /// `servers` servers, one client running `ops` (gap in µs before each).
    fn script_cell(
        seed: u64,
        servers: usize,
        client: ClientCfg,
        ops: Vec<(u64, ClientOp)>,
    ) -> MemcacheGCell {
        let timed = |(us, op)| (SimDuration::from_micros(us), op);
        let workload = Box::new(ScriptWorkload::new(ops.into_iter().map(timed).collect()));
        let cell = memcacheg_cell(seed, HostCfg::default(), servers, client, vec![workload]);
        cell.shared.history().replace(Some(Box::default()));
        cell
    }

    fn outcomes(cell: &mut MemcacheGCell) -> Vec<OpOutcome> {
        let history = cell.shared.history().borrow().clone().expect("recording");
        history.outcomes(cell.clients[0].0)
    }

    fn get(key: &'static str) -> ClientOp {
        let key = Bytes::from_static(key.as_bytes());
        ClientOp::Get { key }
    }

    fn set(key: &'static str) -> ClientOp {
        let key = Bytes::from_static(key.as_bytes());
        let value = Bytes::from_static(b"v");
        ClientOp::Set { key, value }
    }

    /// Three attempts, 1 ms each: a failing op gives up within ~3 ms.
    fn three_attempts() -> ClientCfg {
        ClientCfg {
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            attempt_timeout: SimDuration::from_millis(1),
            ..ClientCfg::default()
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let ops = vec![(1_000, set("k")), (500, get("k")), (600, get("missing"))];
        let mut cell = script_cell(11, 1, ClientCfg::default(), ops);
        // The client has its config by now; what is spent after is the ops'.
        cell.sim.run_for(SimDuration::from_micros(900));
        let hosts = [cell.servers[0], cell.clients[0]].map(|n| cell.sim.host_of(n));
        let busy = |sim: &Sim| hosts.iter().map(|&h| sim.host(h).cpu_busy_ns).sum::<u64>();
        let before = busy(&cell.sim);
        cell.sim.run_for(SimDuration::from_secs(1));
        use OpOutcome::{Done, Hit, Miss};
        assert_eq!(outcomes(&mut cell), [Done, Hit, Miss]);
        // The paper's quantity: every op pays the >50 CPU-µs framework
        // floor, summed over client and server.
        let per_op = (busy(&cell.sim) - before) / 3;
        assert!(per_op >= 50_000, "{per_op} CPU-ns per op");
    }

    #[test]
    fn rpc_get_far_slower_than_fabric_rtt() {
        // The motivating observation: RPC cost eclipses the network time.
        let mut cell = script_cell(11, 1, ClientCfg::default(), vec![(1_000, get("x"))]);
        cell.sim.run_for(SimDuration::from_secs(1));
        let h = cell.sim.metrics().hist_ref("cm.get.latency_ns").unwrap();
        // Fabric RTT is ~4-5us; the RPC GET is several times above it.
        assert!(h.percentile(50.0) > 25_000, "{}", h.percentile(50.0));
    }

    #[test]
    fn timeout_retries_against_dead_server() {
        let mut cell = script_cell(12, 1, three_attempts(), vec![(0, get("k"))]);
        cell.sim.crash(cell.servers[0]);
        cell.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(outcomes(&mut cell), [OpOutcome::Error]);
        assert!(cell.sim.metrics().counter("cm.retries") >= 1);
        assert!(cell.sim.metrics().counter("cm.client.rpc_timeouts") >= 2);
    }

    #[test]
    fn multiget_is_one_get_rpc_per_key() {
        let keys = ["a", "b", "c", "d"];
        let mut ops: Vec<_> = keys.iter().map(|k| (100, set(k))).collect();
        let keys = keys.map(|k| Bytes::from_static(k.as_bytes()));
        ops.push((100, ClientOp::MultiGet { keys: keys.into() }));
        let mut cell = script_cell(13, 2, ClientCfg::default(), ops);
        cell.sim.run_for(SimDuration::from_secs(1));
        use OpOutcome::{Done, Hit};
        assert_eq!(outcomes(&mut cell), [Done, Done, Done, Done, Hit]);
        assert_eq!(cell.sim.metrics().counter("cm.get.hits"), 4);
        // Four SETs and four GETs, spread over both shards by key hash.
        let ops_of = |s: &mut MemcacheGNode| s.ops;
        let served = cell.servers.clone().into_iter();
        let served: Vec<u64> = served
            .filter_map(|s| cell.sim.with_node(s, ops_of))
            .collect();
        assert_eq!(served.len(), 2);
        assert_eq!(served.iter().sum::<u64>(), 4 + 4, "{served:?}");
        assert!(served.iter().all(|&n| n > 0), "{served:?}");
    }

    #[test]
    fn unimplemented_op_errors_and_frees_its_slot() {
        // CAS is not part of the memcached interface: the server answers
        // `Internal`, the client spends its retry budget and reports Error.
        // At `max_in_flight` 1 the GET after it runs only if the slot was
        // given back.
        let key = Bytes::from_static(b"k");
        let value = Bytes::from_static(b"w");
        let cas = ClientOp::Cas { key, value };
        let ops = vec![
            (0, set("k")),
            (200, get("k")),
            (200, cas),
            (10_000, get("k")),
        ];
        let client = ClientCfg {
            max_in_flight: 1,
            ..three_attempts()
        };
        let mut cell = script_cell(14, 1, client, ops);
        cell.sim.run_for(SimDuration::from_secs(1));
        use OpOutcome::{Done, Error, Hit};
        assert_eq!(outcomes(&mut cell), [Done, Hit, Error, Hit]);
        let m = cell.sim.metrics();
        assert_eq!(m.counter("cm.retries"), 2);
        assert_eq!(m.counter("cm.client.overload_drops"), 0);
    }

    #[test]
    fn handle_set_get_erase() {
        let mut s = MemcacheGNode::new(MemcacheGCfg::default());
        let set = rpc::Request {
            version: rpc::PROTOCOL_VERSION,
            method: method::SET,
            id: 1,
            auth: 0,
            deadline_ns: 0,
            body: messages::SetReq {
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v"),
                version: VersionNumber::new(1, 1, 1),
            }
            .encode(),
        };
        assert_eq!(s.handle(&set).0, Status::Ok);
        assert_eq!(s.len(), 1);
        let get = rpc::Request {
            method: method::GET_RPC,
            body: messages::GetReq {
                key: Bytes::from_static(b"k"),
            }
            .encode_in(&Pool::new()),
            ..set.clone()
        };
        let (status, body) = s.handle(&get);
        assert_eq!(status, Status::Ok);
        let resp = messages::GetResp::decode(body).unwrap();
        assert_eq!(&resp.value[..], b"v");
        let erase = rpc::Request {
            method: method::ERASE,
            body: messages::EraseReq {
                key: Bytes::from_static(b"k"),
                version: VersionNumber::new(2, 1, 1),
            }
            .encode_in(&Pool::new()),
            ..set.clone()
        };
        assert_eq!(s.handle(&erase).0, Status::Ok);
        assert_eq!(s.handle(&get).0, Status::NotFound);
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn version_monotonicity() {
        let mut s = MemcacheGNode::new(MemcacheGCfg::default());
        let mk = |v: u64| rpc::Request {
            version: rpc::PROTOCOL_VERSION,
            method: method::SET,
            id: 1,
            auth: 0,
            deadline_ns: 0,
            body: messages::SetReq {
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v"),
                version: VersionNumber::new(v, 1, 1),
            }
            .encode(),
        };
        assert_eq!(s.handle(&mk(5)).0, Status::Ok);
        assert_eq!(s.handle(&mk(3)).0, Status::VersionRejected);
        assert_eq!(s.handle(&mk(6)).0, Status::Ok);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut s = MemcacheGNode::new(MemcacheGCfg {
            capacity_bytes: 300,
        });
        for i in 0..10u32 {
            let req = rpc::Request {
                version: rpc::PROTOCOL_VERSION,
                method: method::SET,
                id: 1,
                auth: 0,
                deadline_ns: 0,
                body: messages::SetReq {
                    key: Bytes::from(format!("key-{i}")),
                    value: Bytes::from(vec![0u8; 50]),
                    version: VersionNumber::new(i as u64 + 1, 1, 1),
                }
                .encode(),
            };
            assert_eq!(s.handle(&req).0, Status::Ok);
        }
        assert!(s.evictions > 0);
        assert!(s.used_bytes() <= 300);
        // The most recent key survived.
        let get = rpc::Request {
            version: rpc::PROTOCOL_VERSION,
            method: method::GET_RPC,
            id: 1,
            auth: 0,
            deadline_ns: 0,
            body: messages::GetReq {
                key: Bytes::from_static(b"key-9"),
            }
            .encode_in(&Pool::new()),
        };
        assert_eq!(s.handle(&get).0, Status::Ok);
        // Overwrite the least recent key with a larger value: eviction must
        // take another key, and the byte count must stay exact.
        let overwrite = rpc::Request {
            body: messages::SetReq {
                key: Bytes::from_static(b"key-5"),
                value: Bytes::from(vec![0u8; 100]),
                version: VersionNumber::new(100, 1, 1),
            }
            .encode(),
            method: method::SET,
            ..get
        };
        assert_eq!(s.handle(&overwrite).0, Status::Ok);
        let stored: usize = s.map.iter().map(|(k, e)| k.len() + e.value.len()).sum();
        assert_eq!(s.used_bytes(), stored);
        assert!(s.used_bytes() <= 300);
    }
}
