//! Cell configuration and the external high-availability config store.
//!
//! A CliqueMap *cell* is a set of backends serving shards, plus warm
//! spares. The mapping from logical shard number to physical node lives in
//! a [`CellConfig`] with a monotonically increasing `config_id`. Clients
//! cache the configuration; backends stamp the id into every bucket header,
//! so a client whose RMA read returns an unexpected config id knows to
//! refresh "from an external high-availability storage system" (§6.1) —
//! modelled here by [`ConfigStoreNode`], our Chubby stand-in.

use bytes::Bytes;
use rpc::codec::Wire;

use simnet::{Ctx, Event, Node, NodeId, SimDuration};

use crate::hash::replicas;

/// How a cell replicates data; on the wire, its discriminant byte (an
/// unknown byte does not decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplicationMode {
    /// Single copy. Fast and cheap; warm spares cover maintenance.
    R1 = 1,
    /// Two copies of an immutable corpus (§6.4): read one, fail over to the
    /// other.
    R2Immutable = 2,
    /// Three replicas, client-side quorum of two (§5): "R=3.2".
    R32 = 3,
}

impl ReplicationMode {
    /// Copies stored per key.
    pub fn copies(self) -> u32 {
        match self {
            ReplicationMode::R1 => 1,
            ReplicationMode::R2Immutable => 2,
            ReplicationMode::R32 => 3,
        }
    }

    /// Index responses that must agree for a quorate GET.
    pub fn read_quorum(self) -> u32 {
        match self {
            ReplicationMode::R1 => 1,
            ReplicationMode::R2Immutable => 1,
            ReplicationMode::R32 => 2,
        }
    }

    /// Mutation acks needed before a SET/ERASE reports success.
    pub fn write_quorum(self) -> u32 {
        match self {
            ReplicationMode::R1 => 1,
            ReplicationMode::R2Immutable => 2,
            ReplicationMode::R32 => 2,
        }
    }

    /// Wire decoding.
    pub fn from_u8(v: u8) -> Option<ReplicationMode> {
        match v {
            1 => Some(ReplicationMode::R1),
            2 => Some(ReplicationMode::R2Immutable),
            3 => Some(ReplicationMode::R32),
            _ => None,
        }
    }
}

simnet::wire_byte!(ReplicationMode: ReplicationMode::from_u8);

rpc::wire_struct! {
    /// The shard → physical-node mapping for one cell. A config of no
    /// shards is not one (every key placement divides by the shard count),
    /// so it does not decode.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CellConfig {
        /// Monotonically increasing configuration generation.
        pub config_id: u32,
        /// Replication mode.
        pub replication: ReplicationMode,
        /// `shards[i]` is the NodeId serving logical backend number `i`.
        pub shards: Vec<u32>,
        /// Warm spares not currently serving a shard.
        pub spares: Vec<u32>,
    }
    if |c| !c.shards.is_empty()
}

impl CellConfig {
    /// Number of logical shards (== backend count).
    pub fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Physical nodes holding copies of keys whose primary shard is
    /// `shard` (replicas at shard, shard+1, ... mod N, per §5.1).
    pub fn replicas_for(&self, shard: u32) -> Vec<NodeId> {
        replicas(shard, self.replication.copies(), self.num_shards())
            .into_iter()
            .map(|s| NodeId(self.shards[s as usize]))
            .collect()
    }

    /// [`Self::replicas_for`] into a fixed buffer, for an explicit copy
    /// count — the client's per-op path, no allocation: hot-key promotion
    /// extends a key's replica set past the base three (the extra copies
    /// continue the same shard walk, so base and extended sets always
    /// agree on membership order). Returns the replica count, capped at
    /// the shard count and the buffer size.
    pub fn replicas_n_buf(&self, shard: u32, copies: u32, out: &mut [NodeId; 8]) -> usize {
        let n = self.num_shards();
        let r = copies.min(n).min(out.len() as u32);
        for (i, slot) in out.iter_mut().enumerate().take(r as usize) {
            *slot = NodeId(self.shards[((shard + i as u32) % n) as usize]);
        }
        r as usize
    }

    /// The physical node serving a logical shard.
    pub fn node_for(&self, shard: u32) -> NodeId {
        NodeId(self.shards[shard as usize])
    }

    /// Replace the node serving `shard` (spare takeover / restart on a new
    /// task) with the node whose id is `node`, and bump the configuration
    /// id.
    pub fn reassign(&mut self, shard: u32, node: u32) {
        self.shards[shard as usize] = node;
        self.config_id += 1;
    }

    /// Encode to an RPC body.
    pub fn encode(&self) -> Bytes {
        rpc::codec::encode(self)
    }

    /// Decode from an RPC body; bytes after it are ignored.
    pub fn decode(mut body: Bytes) -> Option<CellConfig> {
        CellConfig::get(&mut body)
    }
}

/// The external high-availability configuration service (Chubby stand-in).
///
/// Serves `GET_CONFIG` and accepts `UPDATE_CONFIG` (only if the proposed
/// config id is strictly newer). Costs a modest fixed CPU per request —
/// clients hit it rarely (connection setup, post-failure refresh), so its
/// performance is not on any hot path.
#[derive(Debug)]
pub struct ConfigStoreNode {
    config: CellConfig,
    pending: simnet::Deferred<(NodeId, Bytes)>,
    /// One queued GET_CONFIG response per requester: src -> pending token.
    /// A client that retransmits (its attempt timer fired while our reply
    /// sat in the CPU queue) gets its queued response *replaced* rather
    /// than a second CPU task — without this, a cold-start herd of
    /// thousands of clients retrying every attempt-timeout grows the
    /// response queue without bound (each retransmit is a fresh call id,
    /// so the work is not idempotent downstream, but the payload is the
    /// same config either way). Only populated when coalescing is on.
    reads_queued: std::collections::HashMap<NodeId, u64>,
    /// Opt-in (macro cells): per-requester GET_CONFIG coalescing. Off by
    /// default — coalescing changes response timing wherever retransmits
    /// occur (e.g. config refreshes inside chaos fault windows), and the
    /// committed figure CSVs pin the uncoalesced schedule.
    coalesce_reads: bool,
    serve_cost: SimDuration,
    /// Interned metric ids; resolved on [`Event::Start`].
    mids: Option<ConfigStoreMetricIds>,
}

simnet::metric_ids! {
    struct ConfigStoreMetricIds {
        updates: "config_store.updates",
        coalesced: "config_store.coalesced",
        shed: "config_store.shed",
    }
}

impl ConfigStoreNode {
    /// Create a store with an initial configuration.
    pub fn new(config: CellConfig) -> ConfigStoreNode {
        ConfigStoreNode {
            config,
            pending: simnet::Deferred::responses(),
            reads_queued: std::collections::HashMap::new(),
            coalesce_reads: false,
            serve_cost: SimDuration::from_micros(15),
            mids: None,
        }
    }

    /// Enable per-requester read coalescing (required for cells whose
    /// client count × attempt-timeout retransmit rate exceeds the store's
    /// serve rate — a 10K-client cold-start herd otherwise grows the
    /// response queue without bound).
    pub fn with_read_coalescing(mut self) -> ConfigStoreNode {
        self.coalesce_reads = true;
        self
    }

    /// Read the current config (harness inspection).
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// Replace the configuration directly (cell bootstrap / harness).
    pub fn set_config(&mut self, config: CellConfig) {
        self.config = config;
    }
}

fn response(ctx: &Ctx<'_>, id: u64, status: rpc::Status, body: Bytes) -> Bytes {
    rpc::encode_response_in(
        &rpc::Response {
            version: rpc::PROTOCOL_VERSION,
            status,
            id,
            body,
        },
        &ctx.pool(),
    )
}

impl Node for ConfigStoreNode {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                self.mids = Some(ConfigStoreMetricIds::resolve(ctx.metrics()));
            }
            Event::Frame(frame) => {
                let Some(rpc::Envelope::Request(req)) = rpc::decode(frame.payload) else {
                    return;
                };
                let mids = self.mids.expect("metric ids resolved at Start");
                if self.pending.is_full() {
                    // Every serve slot is queued behind the CPU: answer now,
                    // before the request changes anything, and let the
                    // caller's retry budget pace it.
                    let resp = response(ctx, req.id, rpc::Status::Overloaded, Bytes::new());
                    ctx.metrics().add_id(mids.shed, 1);
                    ctx.send(frame.src, resp);
                    return;
                }
                let coalesce =
                    self.coalesce_reads && req.method == crate::messages::method::GET_CONFIG;
                let (status, body) = match req.method {
                    crate::messages::method::GET_CONFIG => (rpc::Status::Ok, self.config.encode()),
                    crate::messages::method::UPDATE_CONFIG => match CellConfig::decode(req.body) {
                        Some(new_cfg) if new_cfg.config_id > self.config.config_id => {
                            self.config = new_cfg;
                            ctx.metrics().add_id(mids.updates, 1);
                            (rpc::Status::Ok, Bytes::new())
                        }
                        Some(_) => (rpc::Status::VersionRejected, Bytes::new()),
                        None => (rpc::Status::Internal, Bytes::new()),
                    },
                    _ => (rpc::Status::Internal, Bytes::new()),
                };
                let resp = response(ctx, req.id, status, body);
                if coalesce {
                    if let Some(&tok) = self.reads_queued.get(&frame.src) {
                        if let Some(slot) = self.pending.get_mut(tok) {
                            // Retransmit from a client whose reply is still
                            // in our CPU queue: answer the newest call id,
                            // reusing the already-queued serve slot.
                            *slot = (frame.src, resp);
                            ctx.metrics().add_id(mids.coalesced, 1);
                            return;
                        }
                    }
                }
                let tok = self.pending.defer((frame.src, resp));
                if coalesce {
                    self.reads_queued.insert(frame.src, tok);
                }
                ctx.spawn_cpu(self.serve_cost, tok);
            }
            Event::CpuDone(tok) => {
                if let Some((dst, resp)) = self.pending.take(tok) {
                    if self.reads_queued.get(&dst) == Some(&tok) {
                        self.reads_queued.remove(&dst);
                    }
                    ctx.send(dst, resp);
                }
            }
            _ => {}
        }
    }

    fn label(&self) -> String {
        "config-store".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CellConfig {
        CellConfig {
            config_id: 5,
            replication: ReplicationMode::R32,
            shards: vec![10, 11, 12, 13, 14],
            spares: vec![20, 21],
        }
    }

    #[test]
    fn config_roundtrip() {
        let c = sample();
        assert_eq!(CellConfig::decode(c.encode()), Some(c));
        assert_eq!(CellConfig::decode(Bytes::from_static(b"xx")), None);
    }

    #[test]
    fn a_config_of_no_shards_does_not_decode() {
        let empty = CellConfig {
            shards: vec![],
            ..sample()
        };
        assert_eq!(CellConfig::decode(empty.encode()), None);
        let one = CellConfig {
            shards: vec![10],
            spares: vec![],
            ..sample()
        };
        assert_eq!(CellConfig::decode(one.encode()), Some(one));
    }

    #[test]
    fn replica_mapping_follows_paper() {
        let c = sample();
        assert_eq!(c.replicas_for(3), vec![NodeId(13), NodeId(14), NodeId(10)]);
        assert_eq!(c.replicas_for(0), vec![NodeId(10), NodeId(11), NodeId(12)]);
    }

    #[test]
    fn r1_has_single_replica() {
        let mut c = sample();
        c.replication = ReplicationMode::R1;
        assert_eq!(c.replicas_for(2), vec![NodeId(12)]);
    }

    #[test]
    fn reassign_bumps_config_id() {
        let mut c = sample();
        c.reassign(1, 20);
        assert_eq!(c.config_id, 6);
        assert_eq!(c.node_for(1), NodeId(20));
    }

    #[test]
    fn quorum_parameters() {
        assert_eq!(ReplicationMode::R32.copies(), 3);
        assert_eq!(ReplicationMode::R32.read_quorum(), 2);
        assert_eq!(ReplicationMode::R32.write_quorum(), 2);
        assert_eq!(ReplicationMode::R1.copies(), 1);
        assert_eq!(ReplicationMode::R1.read_quorum(), 1);
        assert_eq!(ReplicationMode::R2Immutable.copies(), 2);
        assert_eq!(ReplicationMode::R2Immutable.read_quorum(), 1);
    }

    #[test]
    fn replication_mode_wire() {
        for m in [
            ReplicationMode::R1,
            ReplicationMode::R2Immutable,
            ReplicationMode::R32,
        ] {
            assert_eq!(ReplicationMode::from_u8(m as u8), Some(m));
        }
        assert_eq!(ReplicationMode::from_u8(0), None);
        assert_eq!(ReplicationMode::from_u8(9), None);
    }

    /// A burst node: fires `burst` raw `method` requests carrying `body`
    /// (fresh call ids, like a client whose attempt timer keeps expiring) at
    /// the store in one instant, then records every response id that comes
    /// back.
    struct RequestBurst {
        store: NodeId,
        method: u16,
        body: Bytes,
        burst: u64,
        responses: Vec<(u64, rpc::Status)>,
    }

    impl Node for RequestBurst {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => {
                    for id in 1..=self.burst {
                        let wire = rpc::encode_request(&rpc::Request {
                            version: rpc::PROTOCOL_VERSION,
                            method: self.method,
                            id,
                            auth: 0,
                            deadline_ns: u64::MAX,
                            body: self.body.clone(),
                        });
                        ctx.send(self.store, wire);
                    }
                }
                Event::Frame(frame) => {
                    if let Some(rpc::Envelope::Response(resp)) = rpc::decode(frame.payload) {
                        self.responses.push((resp.id, resp.status));
                    }
                }
                _ => {}
            }
        }

        fn label(&self) -> String {
            "request-burst".into()
        }
    }

    /// One more [`RequestBurst`] of `burst` reads from host `from`, run
    /// for `span`: every `(call id, status)` that came back.
    fn burst(
        sim: &mut simnet::Sim,
        store: NodeId,
        from: simnet::HostId,
        burst: u64,
        span: SimDuration,
    ) -> Vec<(u64, rpc::Status)> {
        let read = (crate::messages::method::GET_CONFIG, Bytes::new());
        request_burst(sim, store, from, read, burst, span)
    }

    /// [`burst`] of any `(method, body)` request.
    fn request_burst(
        sim: &mut simnet::Sim,
        store: NodeId,
        from: simnet::HostId,
        (method, body): (u16, Bytes),
        burst: u64,
        span: SimDuration,
    ) -> Vec<(u64, rpc::Status)> {
        let responses = Vec::new();
        let probe = RequestBurst {
            store,
            method,
            body,
            burst,
            responses,
        };
        let probe = sim.add_node(from, Box::new(probe));
        sim.run_for(span);
        sim.with_node::<RequestBurst, _>(probe, |p| p.responses.clone())
            .unwrap()
    }

    /// `node` on a host of its own, plus a second host to probe it from.
    fn store_sim(node: ConfigStoreNode) -> (simnet::Sim, NodeId, simnet::HostId) {
        use simnet::{FabricCfg, HostCfg, Sim};
        let mut sim = Sim::new(FabricCfg::default(), 11);
        let sh = sim.add_host(HostCfg::default().no_cstates());
        let store = sim.add_node(sh, Box::new(node));
        let ph = sim.add_host(HostCfg::default().no_cstates());
        (sim, store, ph)
    }

    #[test]
    fn store_refuses_a_config_of_no_shards_and_keeps_serving_the_old_one() {
        let (mut sim, store, ph) = store_sim(ConfigStoreNode::new(sample()));
        let empty = CellConfig {
            config_id: 9,
            shards: vec![],
            ..sample()
        };
        let update = (crate::messages::method::UPDATE_CONFIG, empty.encode());
        let span = SimDuration::from_millis(5);
        let refused = request_burst(&mut sim, store, ph, update, 1, span);
        assert_eq!(refused, [(1, rpc::Status::Internal)]);
        assert_eq!(burst(&mut sim, store, ph, 1, span), [(1, rpc::Status::Ok)]);
        let held = sim.with_node::<ConfigStoreNode, _>(store, |s| s.config.clone());
        assert_eq!(held, Some(sample()));
        assert_eq!(sim.metrics().counter("config_store.updates"), 0);
    }

    #[test]
    fn store_answers_every_read_by_default() {
        // Without opt-in coalescing, every request (retransmit or not)
        // gets its own served response — the schedule the committed
        // figure CSVs pin.
        let (mut sim, store, ph) = store_sim(ConfigStoreNode::new(sample()));
        let responses = burst(&mut sim, store, ph, 4, SimDuration::from_millis(5));
        assert_eq!(responses.len(), 4);
        assert_eq!(sim.metrics().counter("config_store.coalesced"), 0);
    }

    #[test]
    fn full_store_answers_overloaded() {
        // More uncoalesced reads than the store has response slots, landing
        // far faster than 15µs apiece drains them: every slot is served, the
        // overflow is answered `Overloaded` at once, and nothing is dropped.
        let (mut sim, store, ph) = store_sim(ConfigStoreNode::new(sample()));
        let responses = burst(&mut sim, store, ph, 70_000, SimDuration::from_secs(2));
        let count = |status| responses.iter().filter(|r| r.1 == status).count();
        let (served, shed) = (count(rpc::Status::Ok), count(rpc::Status::Overloaded));
        assert_eq!(served + shed, 70_000);
        assert!(served >= 1 << 16, "only {served} served");
        assert!(shed > 0);
        assert_eq!(sim.metrics().counter("config_store.shed"), shed as u64);
    }

    #[test]
    fn store_coalesces_retransmitted_reads() {
        let node = ConfigStoreNode::new(sample()).with_read_coalescing();
        let (mut sim, store, ph) = store_sim(node);

        // All four requests land inside the 15µs serve window, so the store
        // must queue exactly one CPU task and answer only the newest call id
        // — the other three are retransmits whose calls the client already
        // abandoned.
        let responses = burst(&mut sim, store, ph, 4, SimDuration::from_millis(5));
        assert_eq!(responses, vec![(4, rpc::Status::Ok)]);
        assert_eq!(sim.metrics().counter("config_store.coalesced"), 3);

        // The queued-read marker must be cleared once served: a later,
        // uncontended read is answered normally.
        let responses2 = burst(&mut sim, store, ph, 1, SimDuration::from_millis(5));
        assert_eq!(responses2, vec![(1, rpc::Status::Ok)]);
    }
}
