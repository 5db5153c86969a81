//! (A) Unit costs: each layer priced from outside by timing calls into its
//! public functions.
//!
//! Fixed iteration counts, inputs drawn from the seed, 7 reps per metric
//! (3 where a rep builds a 10K-node `Sim`, 1 for the 950-host cell), each
//! rep one batch of calls wrapped in a span; the ledger reports median and
//! MAD over the reps.
//! These run in the untraced binary: system allocator, no tracing.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{
    self, durable, rma, rpc, Bytes, CalendarQueue, ClientCache, ClientCacheCfg, Controller,
    ControllerCfg, Ctx, DefaultHasher, DeviceCfg, Event, FabricCfg, GetResp, Histogram, HostCfg,
    HotKeyTracker, HotReplCfg, IndexEntry, KeyHasher, LruPolicy, Metrics, MixWorkload, Node,
    NodeId, Pointer, Pool, Prefill, ProductionGets, SetReq, Sim, SimDuration, SimRng, SimTime,
    SizeDist, Sketch, SlabAllocator, StoreCfg, Strategy, UniformWorkload, VersionNumber, Workload,
    ZipfRanks,
};
use crate::child::Rep;
use crate::host::cpu_ns;
use crate::stats::{mad, median};

/// Reps per unit cost.
const REPS: usize = 7;

/// Reps where one rep builds a 950-host `Sim`.
const HEAVY_REPS: usize = 3;

/// Collects the reps of every unit cost into a [`Rep`]: `host[name]` is
/// the median, `host[name.mad]` the MAD, and the spans nest as
/// `<metric> > rep:<i>`.
pub struct Harness {
    origin: Instant,
    rng: SimRng,
    rep: Rep,
    /// Divides every iteration count (tests run the whole catalogue to
    /// check it, not to time it).
    iters_div: u64,
}

impl Harness {
    fn new(seed: u64, origin: Instant, iters_div: u64) -> Harness {
        Harness {
            origin,
            rng: SimRng::new(seed ^ 0x6c61_7965_7273),
            rep: Rep::default(),
            iters_div,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `reps` values of metric `name`; `one_rep` measures one.
    fn bench(&mut self, name: &str, reps: usize, mut one_rep: impl FnMut() -> f64) {
        let parent = self.rep.spans.len();
        self.rep
            .spans
            .push((name.to_string(), self.now_ns(), 0, None));
        let mut values = Vec::with_capacity(reps);
        for i in 0..reps {
            let t0 = self.now_ns();
            values.push(one_rep());
            self.rep
                .spans
                .push((format!("rep:{i}"), t0, self.now_ns(), Some(parent)));
        }
        self.rep.spans[parent].2 = self.now_ns();
        self.rep.host.insert(name.to_string(), median(&values));
        self.rep.host.insert(format!("{name}.mad"), mad(&values));
    }

    fn iters(&self, full: u64) -> u64 {
        (full / self.iters_div).max(1)
    }

    /// ns per call of `call`, over [`REPS`] batches of `iters` calls.
    fn per_call(&mut self, name: &str, iters: u64, mut call: impl FnMut(u64)) {
        let iters = self.iters(iters);
        self.bench(name, REPS, || {
            let t0 = cpu_ns();
            for i in 0..iters {
                call(i);
            }
            (cpu_ns() - t0) as f64 / iters as f64
        });
    }
}

/// Run the whole catalogue and return it as a child [`Rep`]. `iters_div`
/// divides every iteration count (1 in a real run).
pub fn run(seed: u64, origin: Instant, iters_div: u64) -> Rep {
    let mut h = Harness::new(seed, origin, iters_div);
    simnet_layer(&mut h);
    rma_layer(&mut h);
    rpc_layer(&mut h);
    layout_and_hash(&mut h);
    store_and_slab(&mut h);
    messages(&mut h);
    client_side(&mut h);
    cell_build(&mut h, seed);
    durable_layer(&mut h);
    obs_and_adaptive(&mut h);
    workload_generators(&mut h);
    h.rep
}

// ---- simnet ----------------------------------------------------------------

/// Hold model: at a standing depth, pop the earliest event and push one a
/// random delay later — what `Sim::step` does to the queue per event.
fn queue_hold(h: &mut Harness, name: &str, depth: u64) {
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth {
        q.push(h.rng.gen_range(1_000_000), seq, seq);
        seq += 1;
    }
    let delays: Vec<u64> = (0..4096).map(|_| 1 + h.rng.gen_range(200_000)).collect();
    h.per_call(name, 400_000, |i| {
        let (at, _, item) = q.pop().expect("standing depth");
        q.push(at + delays[(i & 4095) as usize], seq, item);
        seq += 1;
    });
    black_box(q.len());
}

/// Bounces every frame it receives until its budget runs out.
struct PingPong {
    peer: NodeId,
    starts: bool,
    remaining: u64,
}

impl Node for PingPong {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start if self.starts => ctx.send(self.peer, Bytes::from_static(b"ping")),
            Event::Frame(f) if self.remaining > 0 => {
                self.remaining -= 1;
                ctx.send(f.src, f.payload);
            }
            _ => {}
        }
    }
}

/// Re-arms one kind of self-addressed event until its budget runs out.
struct Rearm {
    kind: RearmKind,
    remaining: u64,
}

#[derive(Clone, Copy)]
enum RearmKind {
    Timer,
    Cpu,
    DeviceCommit,
}

impl Rearm {
    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        match self.kind {
            RearmKind::Timer => ctx.set_timer(SimDuration::from_micros(3), 7),
            RearmKind::Cpu => ctx.spawn_cpu(SimDuration::from_nanos(900), 7),
            RearmKind::DeviceCommit => {
                ctx.device_commit(512, 7);
            }
        }
    }
}

impl Node for Rearm {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start | Event::Timer(_) | Event::CpuDone(_) => self.arm(ctx),
            Event::Frame(_) => {}
        }
    }
}

/// A node that never reacts: ballast for the 950-host `Sim`.
struct Idle;

impl Node for Idle {
    fn on_event(&mut self, _ev: Event, _ctx: &mut Ctx<'_>) {}
}

/// Host ns per event of draining `sim` to completion.
fn drain_ns_per_event(sim: &mut Sim) -> f64 {
    let (ev0, t0) = (sim.events_processed(), cpu_ns());
    sim.run_to_completion(u64::MAX);
    (cpu_ns() - t0) as f64 / (sim.events_processed() - ev0).max(1) as f64
}

fn add_ping_pong(sim: &mut Sim, exchanges: u64) {
    let h1 = sim.add_host(HostCfg::default().no_cstates());
    let h2 = sim.add_host(HostCfg::default().no_cstates());
    // Ids are assigned sequentially; the peers' ids are known up front.
    let first = NodeId(sim.node_count() as u32);
    let second = NodeId(first.0 + 1);
    for (host, peer, starts) in [(h1, second, true), (h2, first, false)] {
        sim.add_node(
            host,
            Box::new(PingPong {
                peer,
                starts,
                remaining: exchanges / 2,
            }),
        );
    }
}

fn simnet_layer(h: &mut Harness) {
    queue_hold(h, "simnet.queue.push_pop_4k_ns", 4_096);
    queue_hold(h, "simnet.queue.push_pop_48k_ns", 49_152);

    let exchanges = h.iters(100_000);
    h.bench("simnet.sim.frame_event_ns", REPS, || {
        let mut sim = Sim::new(FabricCfg::default(), 1);
        add_ping_pong(&mut sim, exchanges);
        drain_ns_per_event(&mut sim)
    });
    for (name, kind) in [
        ("simnet.sim.timer_event_ns", RearmKind::Timer),
        ("simnet.sim.cpu_event_ns", RearmKind::Cpu),
    ] {
        h.bench(name, REPS, || {
            let mut sim = Sim::new(FabricCfg::default(), 1);
            let host = sim.add_host(HostCfg::default().no_cstates());
            sim.add_node(
                host,
                Box::new(Rearm {
                    kind,
                    remaining: exchanges,
                }),
            );
            drain_ns_per_event(&mut sim)
        });
    }
    // The same ping-pong inside a Sim shaped like cell950: 950 hosts and
    // 10K nodes of ballast that the dispatch tables must step over.
    h.bench("simnet.sim.frame_event_950h_ns", HEAVY_REPS, || {
        let mut sim = Sim::new(FabricCfg::default(), 1);
        let hosts: Vec<_> = (0..948)
            .map(|_| sim.add_host(HostCfg::default().no_cstates()))
            .collect();
        for i in 0..10_000 {
            sim.add_node(hosts[i % hosts.len()], Box::new(Idle));
        }
        sim.run_to_completion(u64::MAX);
        add_ping_pong(&mut sim, exchanges);
        drain_ns_per_event(&mut sim)
    });
    h.bench("simnet.device.commit_event_ns", REPS, || {
        let mut sim = Sim::new(FabricCfg::default(), 1);
        sim.enable_devices(DeviceCfg::default());
        let host = sim.add_host(HostCfg::default().no_cstates());
        sim.add_node(
            host,
            Box::new(Rearm {
                kind: RearmKind::DeviceCommit,
                remaining: exchanges,
            }),
        );
        drain_ns_per_event(&mut sim)
    });

    let latencies: Vec<u64> = (0..4096)
        .map(|_| h.rng.log_normal((12_000f64).ln(), 0.8) as u64)
        .collect();
    let mut hist = Histogram::new();
    h.per_call("simnet.stats.hist_record_ns", 2_000_000, |i| {
        hist.record(latencies[(i & 4095) as usize]);
    });
    black_box(hist.count());
    let mut metrics = Metrics::new();
    let id = metrics.handle("cm.get.latency_ns");
    h.per_call("simnet.stats.record_id_ns", 1_000_000, |i| {
        metrics.record_id(id, latencies[(i & 4095) as usize]);
    });
    black_box(metrics.hist_ref("cm.get.latency_ns").map(Histogram::count));
    let mut rng = h.rng.fork();
    h.per_call("simnet.rng.exponential_ns", 600_000, |_| {
        black_box(rng.exponential(4e-4));
    });
    let pool = Pool::new();
    h.per_call("bytes.pool.get_put_ns", 60_000, |_| {
        drop(black_box(pool.get(1_100)));
    });
}

// ---- rma -------------------------------------------------------------------

/// A store holding `keys` 1 KiB values, and their hashes.
fn populated_store(keys: u64) -> (api::BackendStore, Vec<api::KeyHash>) {
    let mut store = api::BackendStore::new(
        StoreCfg {
            num_buckets: 4096,
            assoc: 14,
            data_capacity: 64 << 20,
            max_data_capacity: 64 << 20,
            ..StoreCfg::default()
        },
        Box::new(LruPolicy::new()),
    );
    let value = vec![9u8; 1024];
    let hashes = (0..keys)
        .map(|i| {
            let key = Prefill::key_name("k", i);
            let hash = DefaultHasher.hash(&key);
            let p = store
                .prepare_set(&key, &value, hash, VersionNumber::new(i + 1, 1, 1))
                .expect("roomy store");
            store.write_data(p.data_offset, &p.entry_bytes);
            store.commit_set(&p);
            hash
        })
        .collect();
    (store, hashes)
}

fn rma_layer(h: &mut Harness) {
    let pool = Pool::new();
    let resp = rma::ReadResp {
        op_id: 9,
        status: rma::RmaStatus::Ok,
        data: Bytes::from(vec![0u8; 4096]),
    };
    h.per_call("rma.codec.read_resp_enc_4k_ns", 60_000, |_| {
        black_box(rma::encode_read_resp(black_box(&resp)));
    });
    let wire = rma::encode_read_resp(&resp);
    h.per_call("rma.codec.read_resp_dec_4k_ns", 100_000, |_| {
        black_box(rma::decode(wire.clone()).expect("valid frame"));
    });

    let (store, hashes) = populated_store(10_000);
    let geo = store.geometry();
    let bucket_len = api::bucket_size(geo.assoc as usize) as u32;
    let scar_req = |i: u64| {
        let hash = hashes[(i % hashes.len() as u64) as usize];
        rma::ScarReq {
            op_id: i,
            index_window: geo.index_window,
            index_generation: geo.index_generation,
            bucket_offset: store.bucket_offset(store.bucket_of(hash)),
            bucket_len,
            key_hash: hash,
        }
    };
    let reqs: Vec<rma::ScarReq> = (0..4096).map(scar_req).collect();
    h.per_call("rma.codec.scar_req_enc_ns", 50_000, |i| {
        black_box(rma::encode_scar_req_in(&reqs[(i & 4095) as usize], &pool));
    });
    let scar_wire = rma::encode_scar_resp(&rma::ScarResp {
        op_id: 9,
        status: rma::RmaStatus::Ok,
        bucket: Bytes::from(vec![1u8; bucket_len as usize]),
        data: Bytes::from(vec![2u8; 1024]),
    });
    h.per_call("rma.codec.scar_resp_dec_1k_ns", 80_000, |_| {
        black_box(rma::decode(scar_wire.clone()).expect("valid frame"));
    });

    let mut regions = rma::RegionTable::new();
    let buffer = regions.alloc_buffer(4 << 20);
    let window = regions.register_window(buffer, 0, 4 << 20);
    let generation = regions.window_generation(window);
    let offsets: Vec<u64> = (0..4096)
        .map(|_| h.rng.gen_range((4 << 20) - 1024))
        .collect();
    h.per_call("rma.region.read_window_1k_ns", 100_000, |i| {
        black_box(
            regions
                .read_window(window, generation, offsets[(i & 4095) as usize], 1024)
                .expect("in range"),
        );
    });

    // The backend's whole SCAR serve: scan the bucket, follow the pointer,
    // charge the transport, encode the response from region memory.
    let mut transport = rma::Transport::pony(rma::PonyCfg::default());
    let envs: Vec<rma::RmaEnvelope> = reqs
        .iter()
        .cloned()
        .map(rma::RmaEnvelope::ScarReq)
        .collect();
    h.per_call("rma.server.serve_scar_ns", 20_000, |i| {
        let served = rma::serve(
            &envs[(i & 4095) as usize],
            store.regions(),
            &api::CliqueScarResolver,
            &mut transport,
            &pool,
            SimTime(i * 20_000),
        );
        black_box(served.expect("requests are served"));
    });

    let batch = rma::BatchScarReq {
        op_id: 3,
        index_window: geo.index_window,
        index_generation: geo.index_generation,
        entries: reqs[..16]
            .iter()
            .enumerate()
            .map(|(sub, r)| rma::BatchScarEntry {
                sub: sub as u64,
                bucket_offset: r.bucket_offset,
                bucket_len: r.bucket_len,
                key_hash: r.key_hash,
            })
            .collect(),
    };
    h.per_call("rma.codec.batch_scar_req_enc_16_ns", 40_000, |_| {
        black_box(rma::encode_batch_scar_req_in(black_box(&batch), &pool));
    });
    let bucket = vec![1u8; bucket_len as usize];
    let data = vec![2u8; 1024];
    h.per_call("rma.codec.batch_scar_resp_dec_16_ns", 4_000, |_| {
        let mut w = rma::BatchRespWriter::scar_resp(3, 16, 16 * (bucket.len() + data.len()), &pool);
        for sub in 0..16 {
            w.push(sub, rma::RmaStatus::Ok, &bucket, &data);
        }
        black_box(rma::decode(w.finish()).expect("valid frame"));
    });
}

// ---- rpc -------------------------------------------------------------------

fn rpc_layer(h: &mut Harness) {
    let req = rpc::Request {
        version: rpc::PROTOCOL_VERSION,
        method: 2,
        id: 42,
        auth: 7,
        deadline_ns: 1_000_000,
        body: Bytes::from(vec![1u8; 512]),
    };
    h.per_call("rpc.codec.request_enc_512_ns", 100_000, |_| {
        black_box(rpc::encode_request(black_box(&req)));
    });
    let wire = rpc::encode_request(&req);
    h.per_call("rpc.codec.request_dec_512_ns", 100_000, |_| {
        black_box(rpc::decode(wire.clone()).expect("valid frame"));
    });
}

// ---- cliquemap -------------------------------------------------------------

fn layout_and_hash(h: &mut Harness) {
    let small: Vec<u8> = (0..64).map(|_| h.rng.next_u64() as u8).collect();
    h.per_call("cliquemap.layout.checksum_64_ns", 1_000_000, |_| {
        black_box(api::checksum(black_box(&small)));
    });
    let big: Vec<u8> = (0..64 << 10).map(|_| h.rng.next_u64() as u8).collect();
    let iters = h.iters(500);
    h.bench("cliquemap.layout.checksum_64k_gbps", REPS, || {
        let t0 = cpu_ns();
        for _ in 0..iters {
            black_box(api::checksum(black_box(&big)));
        }
        // Bytes per nanosecond is GB/s.
        (iters * big.len() as u64) as f64 / (cpu_ns() - t0) as f64
    });

    let value: Vec<u8> = (0..1024).map(|_| h.rng.next_u64() as u8).collect();
    let version = VersionNumber::new(1, 2, 3);
    h.per_call("cliquemap.layout.entry_enc_1k_ns", 20_000, |_| {
        black_box(api::encode_data_entry(b"k1234", black_box(&value), version));
    });
    let encoded = api::encode_data_entry(b"k1234", &value, version);
    h.per_call("cliquemap.layout.entry_parse_1k_ns", 50_000, |_| {
        black_box(api::parse_data_entry(black_box(&encoded)).expect("valid entry"));
    });

    let assoc = 14;
    let mut bucket = vec![0u8; api::bucket_size(assoc)];
    for i in 0..assoc {
        let e = IndexEntry {
            key_hash: (i as u128 + 1) * 0x1234_5678_9ABC,
            version,
            ptr: Pointer::default(),
        };
        e.encode_into(api::bucket_slot_mut(&mut bucket, i));
    }
    h.per_call("cliquemap.layout.scan_bucket_hit_ns", 600_000, |_| {
        black_box(api::scan_bucket(black_box(&bucket), 7 * 0x1234_5678_9ABC));
    });
    h.per_call("cliquemap.layout.scan_bucket_miss_ns", 400_000, |_| {
        black_box(api::scan_bucket(black_box(&bucket), 0xDEAD));
    });

    let keys: Vec<Bytes> = (0..4096)
        .map(|_| Prefill::key_name("k", h.rng.gen_range(20_000)))
        .collect();
    h.per_call("cliquemap.hash.key_hash_ns", 600_000, |i| {
        black_box(DefaultHasher.hash(&keys[(i & 4095) as usize]));
    });
}

fn store_and_slab(h: &mut Harness) {
    let (store, hashes) = populated_store(10_000);
    let order: Vec<usize> = (0..4096)
        .map(|_| h.rng.gen_range(hashes.len() as u64) as usize)
        .collect();
    h.per_call("cliquemap.store.lookup_ns", 200_000, |i| {
        black_box(store.lookup(hashes[order[(i & 4095) as usize]]));
    });
    h.per_call("cliquemap.store.fetch_hit_1k_ns", 12_000, |i| {
        black_box(
            store
                .fetch(hashes[order[(i & 4095) as usize]])
                .expect("present"),
        );
    });

    // Overwrites in a roomy store: no eviction, slab frees and reuses.
    let (mut store, hashes) = populated_store(10_000);
    let keys: Vec<Bytes> = (0..10_000).map(|i| Prefill::key_name("k", i)).collect();
    let value = vec![7u8; 1024];
    let mut version = 1_000_000u64;
    h.per_call("cliquemap.store.set_1k_ns", 10_000, |i| {
        let k = (i % 10_000) as usize;
        version += 1;
        let p = store
            .prepare_set(
                &keys[k],
                &value,
                hashes[k],
                VersionNumber::new(version, 1, 1),
            )
            .expect("roomy store");
        store.write_data(p.data_offset, &p.entry_bytes);
        black_box(store.commit_set(&p));
    });
    // A store that is always full: every SET of a new key evicts.
    let mut full = api::BackendStore::new(
        StoreCfg {
            num_buckets: 1024,
            assoc: 14,
            data_capacity: 1 << 20,
            max_data_capacity: 1 << 20,
            ..StoreCfg::default()
        },
        Box::new(LruPolicy::new()),
    );
    let value = vec![3u8; 2048];
    let mut n = 0u64;
    h.per_call("cliquemap.store.set_evict_2k_ns", 5_000, |_| {
        n += 1;
        let key = n.to_le_bytes();
        let hash = DefaultHasher.hash(&key);
        if let Ok(p) = full.prepare_set(&key, &value, hash, VersionNumber::new(n, 1, 1)) {
            full.write_data(p.data_offset, &p.entry_bytes);
            black_box(full.commit_set(&p));
        }
    });

    let mut slab = SlabAllocator::new(256 << 20);
    h.per_call("cliquemap.slab.alloc_free_1k_ns", 80_000, |_| {
        let off = slab.alloc(black_box(1000)).expect("roomy slab");
        slab.free(off, 1000);
    });
    // Steady churn across size classes around a standing population.
    let mut held: Vec<(u64, usize)> = Vec::new();
    h.per_call("cliquemap.slab.churn_ns", 100_000, |i| {
        let i = i as usize;
        let len = 64 + (i * 97) % 8000;
        if held.len() >= 1000 {
            let (off, l) = held.swap_remove(i % held.len());
            slab.free(off, l);
        }
        if let Ok(off) = slab.alloc(len) {
            held.push((off, len));
        }
    });
}

fn messages(h: &mut Harness) {
    let pool = Pool::new();
    let set = SetReq {
        key: Bytes::from_static(b"k12345"),
        value: Bytes::from(vec![5u8; 1024]),
        version: VersionNumber::new(9, 1, 1),
    };
    h.per_call("cliquemap.messages.set_req_enc_1k_ns", 50_000, |_| {
        black_box(black_box(&set).encode_in(&pool));
    });
    let body = set.encode();
    h.per_call("cliquemap.messages.set_req_dec_1k_ns", 100_000, |_| {
        black_box(SetReq::decode(body.clone()).expect("valid body"));
    });
    let body = GetResp {
        key: set.key.clone(),
        value: set.value.clone(),
        version: set.version,
    }
    .encode();
    h.per_call("cliquemap.messages.get_resp_dec_1k_ns", 100_000, |_| {
        black_box(GetResp::decode(body.clone()).expect("valid body"));
    });
}

fn client_side(h: &mut Harness) {
    let cfg = ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: 64 << 10,
    };
    let hashes: Vec<api::KeyHash> = (0..4096u64)
        .map(|i| DefaultHasher.hash(&Prefill::key_name("k", i)))
        .collect();
    let value = Bytes::from(vec![1u8; 1024]);
    let version = VersionNumber::new(1, 1, 1);
    let mut cache = ClientCache::new(cfg.clone());
    for &hash in &hashes[..128] {
        cache.insert(hash, version, value.clone(), SimTime(0));
    }
    let order: Vec<usize> = (0..4096).map(|_| h.rng.gen_range(128) as usize).collect();
    h.per_call("cliquemap.client_cache.hit_ns", 100_000, |i| {
        black_box(cache.lookup(hashes[order[(i & 4095) as usize]], SimTime(1_000)));
    });
    // Inserts cycle through 4096 keys in a 128-slot cache: each one evicts.
    let mut cache = ClientCache::new(cfg);
    h.per_call("cliquemap.client_cache.insert_ns", 50_000, |i| {
        cache.insert(
            hashes[(i & 4095) as usize],
            version,
            value.clone(),
            SimTime(i),
        );
    });
    let mut tracker = HotKeyTracker::new(HotReplCfg::default());
    h.per_call("cliquemap.policy.hot_record_ns", 400_000, |i| {
        tracker.record(hashes[(i & 4095) as usize]);
    });
    black_box(tracker.hot_len());

    let keys: Vec<Bytes> = (0..4096u64).map(|i| Prefill::key_name("k", i)).collect();
    h.per_call("cliquemap.workload.value_for_1k_ns", 40_000, |i| {
        black_box(UniformWorkload::value_for(&keys[(i & 4095) as usize], 1024));
    });
}

fn cell_build(h: &mut Harness, seed: u64) {
    // One rep: a process builds this cell once, on a cold heap, and a
    // second build in the same process reuses freed pages and measures
    // the allocator instead (seen here: 0.25 s, 0.4 s, then 1.6 s).
    h.bench("cliquemap.cell.build_us_per_node", 1, || {
        let t0 = cpu_ns();
        let cell = crate::workloads::cell950_unpopulated(seed);
        let us = (cpu_ns() - t0) as f64 / 1e3;
        us / cell.sim.node_count() as f64
    });
}

// ---- durable, obs, adaptive, workloads --------------------------------------

fn wal_record(i: u64) -> durable::Record {
    durable::Record {
        kind: durable::KIND_SET,
        version: i as u128 + 1,
        key: format!("k{:015}", i % 20_000).into_bytes(),
        value: vec![4u8; 256],
    }
}

fn durable_layer(h: &mut Harness) {
    let records: Vec<durable::Record> = (0..1024).map(wal_record).collect();
    let mut buf = Vec::with_capacity(1 << 20);
    h.per_call("durable.wal.append_record_256_ns", 20_000, |i| {
        if i & 1023 == 0 {
            buf.clear();
        }
        black_box(durable::append_record(
            &mut buf,
            &records[(i & 1023) as usize],
        ));
    });
    let per_stream = 10_000u64;
    let mut stream = Vec::new();
    for i in 0..per_stream {
        durable::append_record(&mut stream, &wal_record(i));
    }
    let streams = h.iters(2);
    h.bench("durable.wal.decode_stream_ns_per_rec", REPS, || {
        let t0 = cpu_ns();
        for _ in 0..streams {
            let (decoded, _) = durable::decode_stream(black_box(&stream));
            assert_eq!(decoded.len() as u64, per_stream);
        }
        (cpu_ns() - t0) as f64 / (streams * per_stream) as f64
    });
    // Append into the group-commit buffer, committing every 1024 records
    // as a backend under steady load does.
    let mut gc = durable::GroupCommit::default();
    let mut media = durable::Media::default();
    h.per_call("durable.group_commit.append_ns", 20_000, |i| {
        black_box(gc.append(&records[(i & 1023) as usize]));
        if i & 1023 == 1023 {
            gc.start_commit();
            gc.finish_commit(&mut media);
            media = durable::Media::default();
        }
    });
}

fn obs_and_adaptive(h: &mut Harness) {
    let latencies: Vec<u64> = (0..4096)
        .map(|_| h.rng.log_normal((12_000f64).ln(), 0.8) as u64)
        .collect();
    let mut sketch = Sketch::default();
    h.per_call("obs.sketch.record_ns", 100_000, |i| {
        sketch.record(latencies[(i & 4095) as usize]);
    });
    h.per_call("obs.sketch.quantile_ns", 25_000, |i| {
        black_box(sketch.quantile(if i & 1 == 0 { 0.5 } else { 0.99 }));
    });

    let mut controller = Controller::new(ControllerCfg::default(), 7);
    let arms = [Strategy::TwoR, Strategy::Scar, Strategy::Msg, Strategy::Rpc];
    for (i, &lat) in latencies.iter().enumerate() {
        controller.observe(arms[i & 3], false, lat, 900);
    }
    h.per_call("adaptive.controller.choose_ns", 4_000, |i| {
        black_box(controller.choose(i & 7 == 0));
    });
    h.per_call("adaptive.controller.observe_ns", 100_000, |i| {
        let i = i as usize;
        controller.observe(arms[i & 3], i & 7 == 0, latencies[i & 4095], 900);
    });
}

fn workload_generators(h: &mut Harness) {
    let zipf = ZipfRanks::new(4_000, 0.9);
    let mut rng = h.rng.fork();
    h.per_call("workloads.zipf.sample_ns", 300_000, |_| {
        black_box(zipf.sample(&mut rng));
    });
    let mut gets = ProductionGets::ads("k", 4_000, 2_500.0, SimDuration::from_millis(150));
    h.per_call("workloads.production_gets.next_ns", 8_000, |i| {
        black_box(gets.next(SimTime(i * 400_000), &mut rng));
    });
    let sizes = SizeDist {
        mu: (700f64).ln(),
        sigma: 1.0,
        min: 64,
        max: 4 << 10,
    };
    let mut mix = MixWorkload::new("k", 20_000, 0.9, 0.2, sizes, 20_000.0, u64::MAX);
    h.per_call("workloads.mix.next_ns", 20_000, |i| {
        black_box(mix.next(SimTime(i * 50_000), &mut rng));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::UNIT_COSTS;

    /// Every unit cost in the catalogue is measured, once, in catalogue
    /// order, and comes out positive.
    #[test]
    fn catalogue_and_benches_agree() {
        let rep = run(1, Instant::now(), 200);
        let measured: Vec<&str> = rep
            .spans
            .iter()
            .filter(|(_, _, _, parent)| parent.is_none())
            .map(|(name, ..)| name.as_str())
            .collect();
        let catalogue: Vec<&str> = UNIT_COSTS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(measured, catalogue);
        for name in catalogue {
            assert!(rep.h(name) > 0.0, "{name} = {}", rep.h(name));
            assert!(rep.host.contains_key(&format!("{name}.mad")), "{name}.mad");
        }
    }
}
