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

use bytes::{Bytes, Pool};

use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::messages::{self, method};
use cliquemap::policy::{EvictionPolicy, LruPolicy};
use cliquemap::version::VersionNumber;
use rpc::{RpcCostModel, Status};
use simnet::{Ctx, Deferred, Event, MetricId, Node, NodeId, SimDuration};

/// MemcacheG server configuration.
#[derive(Debug, Clone)]
pub struct MemcacheGCfg {
    /// Byte budget for stored values (keys + values).
    pub capacity_bytes: usize,
    /// RPC framework cost model.
    pub rpc_cost: RpcCostModel,
    /// Handler cost per operation beyond the framework.
    pub handler_cost: SimDuration,
}

impl Default for MemcacheGCfg {
    fn default() -> Self {
        MemcacheGCfg {
            capacity_bytes: 64 << 20,
            rpc_cost: RpcCostModel::default(),
            handler_cost: SimDuration::from_micros(1),
        }
    }
}

struct Entry {
    value: Bytes,
    version: VersionNumber,
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
    /// Interned handle for `mcg.rpc_bytes`; resolved on [`Event::Start`].
    rpc_bytes_id: Option<MetricId>,
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
            rpc_bytes_id: None,
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
                if let Some(old) = self.map.get(&set.key) {
                    if set.version <= old.version {
                        return (Status::VersionRejected, Bytes::new());
                    }
                    self.used_bytes -= set.key.len() + old.value.len();
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
                self.rpc_bytes_id = Some(ctx.metrics().handle("mcg.rpc_bytes"));
                self.pool = ctx.pool();
            }
            Event::Frame(frame) => {
                let Some(rpc::Envelope::Request(req)) = rpc::decode(frame.payload) else {
                    return;
                };
                let (status, body) = self.handle(&req);
                let resp = rpc::encode_response_in(
                    &rpc::Response {
                        version: rpc::PROTOCOL_VERSION,
                        status,
                        id: req.id,
                        body,
                    },
                    &self.pool,
                );
                let cost = self.cfg.rpc_cost.server_total(req.body.len(), resp.len())
                    + self.cfg.handler_cost;
                let tok = self.pending.defer((frame.src, resp));
                ctx.spawn_cpu(cost, tok);
            }
            Event::CpuDone(tok) => {
                if let Some((dst, resp)) = self.pending.take(tok) {
                    let rpc_bytes = self.rpc_bytes_id.expect("metric ids resolved at Start");
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

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

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
            ..MemcacheGCfg::default()
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
        let _ = SimTime::ZERO;
    }
}
