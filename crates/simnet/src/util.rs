//! Utility nodes: traffic sinks and antagonists (background load
//! generators), used by experiments that need to overload a host's NIC —
//! e.g. Figure 11's "~95 Gbps of competing demand" and Figure 12's
//! client-side competing load. Also home to [`IdMap`], the cheap-hash map
//! for tables keyed by ids the program itself allocates or by keys that
//! are already hashes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use bytes::Bytes;

use crate::host::NodeId;
use crate::node::{Event, Node};
use crate::sim::Ctx;
use crate::time::{serialization_delay, SimDuration, SimTime};

/// Hasher for keys that are integers the program itself produced: ids it
/// allocated (op ids, call ids, timer tokens, [`NodeId`]s, slab indices) and
/// keys that already are uniform hashes (a 128-bit `KeyHash` — SipHashing a
/// hash buys nothing). One multiply by the 64-bit golden ratio per 8 bytes,
/// high half folded onto the low half so both the bucket bits and
/// hashbrown's 7-bit tag see every input bit. No per-map random state, so
/// iteration order is the same in every run. Not for raw keys that arrive
/// from outside the program — it has no collision resistance.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// `HashMap` over program-allocated ids or already-hashed keys (see
/// [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` over program-allocated ids or already-hashed keys (see
/// [`IdHasher`]).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Swallows every frame it receives; counts bytes for verification.
#[derive(Debug, Default)]
pub struct SinkNode {
    /// Total payload bytes received.
    pub bytes: u64,
    /// Total frames received.
    pub frames: u64,
}

impl Node for SinkNode {
    fn on_event(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
        if let Event::Frame(f) = ev {
            self.bytes += f.payload.len() as u64;
            self.frames += 1;
        }
    }

    fn label(&self) -> String {
        "sink".into()
    }
}

/// Offers a constant bit rate of junk traffic toward a sink node, occupying
/// the sink host's RX link (and this host's TX link).
///
/// The antagonist sends fixed-size bursts paced to achieve `gbps` between
/// `start` and `stop`. Pacing is deterministic (no jitter) so experiments
/// that compare runs with and without the antagonist differ only by it.
#[derive(Debug)]
pub struct AntagonistNode {
    /// Destination (usually a [`SinkNode`] on the victim host).
    pub target: NodeId,
    /// Offered load in Gbps.
    pub gbps: f64,
    /// Bytes per burst frame.
    pub burst_bytes: u32,
    /// When to begin transmitting.
    pub start: SimTime,
    /// When to stop transmitting.
    pub stop: SimTime,
    sent: u64,
}

impl AntagonistNode {
    /// An antagonist that transmits for the whole run.
    pub fn new(target: NodeId, gbps: f64) -> AntagonistNode {
        AntagonistNode {
            target,
            gbps,
            burst_bytes: 64 * 1024,
            start: SimTime::ZERO,
            stop: SimTime::MAX,
            sent: 0,
        }
    }

    /// Restrict transmission to a window.
    pub fn window(mut self, start: SimTime, stop: SimTime) -> AntagonistNode {
        self.start = start;
        self.stop = stop;
        self
    }

    fn interval(&self) -> SimDuration {
        // Interval between bursts so that burst_bytes/interval == gbps.
        serialization_delay(self.burst_bytes as u64, self.gbps)
    }
}

const TICK: u64 = 1;

impl Node for AntagonistNode {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                let delay = self.start.since(ctx.now());
                ctx.set_timer(delay, TICK);
            }
            Event::Timer(TICK) => {
                if ctx.now() >= self.stop {
                    return;
                }
                ctx.send(
                    self.target,
                    Bytes::from(vec![0u8; self.burst_bytes as usize]),
                );
                self.sent += 1;
                ctx.set_timer(self.interval(), TICK);
            }
            _ => {}
        }
    }

    fn label(&self) -> String {
        format!("antagonist->{}@{}Gbps", self.target, self.gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostCfg;
    use crate::sim::{FabricCfg, Sim};

    #[test]
    fn id_map_spreads_sequential_and_strided_keys() {
        // Sequential tokens, namespace-offset tokens and op ids packed
        // above a sub-op field must all spread over the low (bucket) bits
        // about as well as random keys would (1024 keys over 4096 values:
        // ~900 distinct) and use every 7-bit tag.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for (base, stride) in [
            (0u64, 1u64),
            (1 << 42, 1),
            (1 << 57, 1),
            (0, 1 << 8),
            (0, 1 << 20),
        ] {
            let hashes: Vec<u64> = (0..1024)
                .map(|i| build.hash_one(base + i * stride))
                .collect();
            let low: IdSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
            let tags: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(
                low.len() > 700,
                "low bits collide: {} of 1024 (stride {stride})",
                low.len()
            );
            assert_eq!(tags.len(), 128, "tag bits unused (stride {stride})");
        }
        let mut m: IdMap<NodeId, u32> = IdMap::default();
        m.insert(NodeId(7), 1);
        assert_eq!(m.get(&NodeId(7)), Some(&1));
        assert_eq!(m.get(&NodeId(8)), None);
    }

    #[test]
    fn antagonist_achieves_offered_load() {
        let mut sim = Sim::new(FabricCfg::default(), 7);
        let src = sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let dst = sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let sink = sim.add_node(dst, Box::new(SinkNode::default()));
        let _ant = sim.add_node(src, Box::new(AntagonistNode::new(sink, 40.0)));
        sim.run_until(SimTime(10_000_000)); // 10 ms
        let bytes = sim.with_node::<SinkNode, _>(sink, |s| s.bytes).unwrap();
        let gbps = bytes as f64 * 8.0 / 10e-3 / 1e9;
        assert!(
            (gbps - 40.0).abs() < 4.0,
            "offered 40 Gbps, delivered {gbps:.1}"
        );
    }

    #[test]
    fn antagonist_respects_window() {
        let mut sim = Sim::new(FabricCfg::default(), 8);
        let src = sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let dst = sim.add_host(HostCfg::with_gbps(100.0).no_cstates());
        let sink = sim.add_node(dst, Box::new(SinkNode::default()));
        let _ant = sim.add_node(
            src,
            Box::new(
                AntagonistNode::new(sink, 50.0).window(SimTime(2_000_000), SimTime(4_000_000)),
            ),
        );
        sim.run_until(SimTime(1_000_000));
        let before = sim.with_node::<SinkNode, _>(sink, |s| s.bytes).unwrap();
        assert_eq!(before, 0, "sent before window opened");
        sim.run_until(SimTime(10_000_000));
        let after = sim.with_node::<SinkNode, _>(sink, |s| s.bytes).unwrap();
        // Roughly 2ms at 50 Gbps = 12.5 MB.
        assert!(after > 8_000_000 && after < 16_000_000, "bytes {after}");
    }
}
