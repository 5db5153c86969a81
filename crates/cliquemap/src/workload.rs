//! The workload interface a client node drives.
//!
//! A [`Workload`] is a deterministic generator of client operations: the
//! client node asks it for the next op and the delay before issuing it.
//! Rich generators (Ads, Geo, mixes, sweeps) live in the `workloads` crate;
//! this module defines the interface plus small built-ins used by tests and
//! the quickstart example.

use bytes::Bytes;

use simnet::{IdMap, SimDuration, SimRng, SimTime};

use crate::hash::KeyHash;
use crate::version::VersionNumber;

/// One logical client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Point lookup.
    Get {
        /// Key to read.
        key: Bytes,
    },
    /// Batched lookup (Ads/Geo style): completes when every key resolves.
    MultiGet {
        /// Keys to read concurrently.
        keys: Vec<Bytes>,
    },
    /// Install a value.
    Set {
        /// Key to write.
        key: Bytes,
        /// Value to install.
        value: Bytes,
    },
    /// Remove a key.
    Erase {
        /// Key to erase.
        key: Bytes,
    },
    /// Batched mutation: installs every pair, completes when all resolve.
    MultiSet {
        /// (key, value) pairs to install concurrently.
        entries: Vec<(Bytes, Bytes)>,
    },
    /// Conditional update using the client's memoized version for the key.
    Cas {
        /// Key to update.
        key: Bytes,
        /// Replacement value.
        value: Bytes,
    },
}

/// How a completed operation went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// GET found the key (quorate, validated).
    Hit,
    /// GET concluded the key is absent.
    Miss,
    /// Mutation applied.
    Done,
    /// A newer version exists (SET superseded / CAS failed).
    Superseded,
    /// Retries/deadline exhausted.
    Error,
}

impl OpOutcome {
    /// Whether this outcome counts as success for rate accounting.
    pub fn ok(self) -> bool {
        !matches!(self, OpOutcome::Error)
    }
}

/// Deterministic generator of client operations.
pub trait Workload {
    /// The next operation and the delay before issuing it (from now for
    /// open-loop pacing, from the previous completion for closed-loop).
    /// `None` ends the workload.
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)>;

    /// Whether this generator can ever yield a [`ClientOp::Cas`]. A fact
    /// about the generator, asked once when its client is built: only a
    /// client whose workload answers `true` keeps the [`VersionMemo`] a
    /// CAS reads its expected version from (DESIGN.md §8), and a CAS from
    /// one that answered `false` panics.
    fn issues_cas(&self) -> bool {
        false
    }
}

/// Closed-loop: issue the next op as soon as the previous completes.
/// Open-loop: issue ops on a fixed schedule regardless of completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Timer-driven arrivals (load ramps, production-like traffic).
    Open,
    /// One op at a time (peak-rate measurement, simple tests).
    Closed,
}

/// A trivial workload: a fixed script of operations with fixed gaps.
#[derive(Debug, Default)]
pub struct ScriptWorkload {
    ops: std::collections::VecDeque<(SimDuration, ClientOp)>,
}

impl ScriptWorkload {
    /// Build from a list of (delay, op).
    pub fn new(ops: Vec<(SimDuration, ClientOp)>) -> ScriptWorkload {
        ScriptWorkload { ops: ops.into() }
    }

    /// Remaining operations.
    pub fn remaining(&self) -> usize {
        self.ops.len()
    }
}

impl Workload for ScriptWorkload {
    fn next(&mut self, _now: SimTime, _rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        self.ops.pop_front()
    }

    fn issues_cas(&self) -> bool {
        let cas = |(_, op): &(SimDuration, ClientOp)| matches!(op, ClientOp::Cas { .. });
        self.ops.iter().any(cas)
    }
}

/// Uniform-random GET/SET mix over a fixed key population at a constant
/// rate — the basic synthetic workload.
#[derive(Debug)]
pub struct UniformWorkload {
    /// Number of keys (`key-0` .. `key-{n-1}`).
    pub keys: u64,
    /// Value size for SETs.
    pub value_len: usize,
    /// Fraction of ops that are GETs.
    pub get_fraction: f64,
    /// Mean inter-op gap (exponential); zero = back-to-back.
    pub mean_gap: SimDuration,
    /// Ops to issue; `u64::MAX` = unbounded.
    pub count: u64,
    issued: u64,
}

impl UniformWorkload {
    /// A pure-GET workload at a given rate (ops/sec).
    pub fn gets(keys: u64, rate_per_sec: f64, count: u64) -> UniformWorkload {
        UniformWorkload {
            keys,
            value_len: 64,
            get_fraction: 1.0,
            mean_gap: SimDuration::from_secs_f64(1.0 / rate_per_sec.max(1e-9)),
            count,
            issued: 0,
        }
    }

    /// A GET/SET mix at a given rate.
    pub fn mix(
        keys: u64,
        value_len: usize,
        get_fraction: f64,
        rate_per_sec: f64,
        count: u64,
    ) -> UniformWorkload {
        UniformWorkload {
            keys,
            value_len,
            get_fraction,
            mean_gap: SimDuration::from_secs_f64(1.0 / rate_per_sec.max(1e-9)),
            count,
            issued: 0,
        }
    }

    /// Deterministic value for a key (verifiable content).
    pub fn value_for(key: &[u8], len: usize) -> Bytes {
        let mut out = Vec::with_capacity(len);
        let mut h = crate::layout::checksum(key);
        while out.len() < len {
            h = h.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            out.extend_from_slice(&h.to_le_bytes());
        }
        out.truncate(len);
        Bytes::from(out)
    }
}

impl Workload for UniformWorkload {
    fn next(&mut self, _now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if self.issued >= self.count {
            return None;
        }
        self.issued += 1;
        let key = Bytes::from(format!("key-{}", rng.gen_range(self.keys)));
        let gap = SimDuration::from_secs_f64(rng.exponential(self.mean_gap.as_secs_f64()));
        let op = if rng.next_f64() < self.get_fraction {
            ClientOp::Get { key }
        } else {
            let value = Self::value_for(&key, self.value_len);
            ClientOp::Set { key, value }
        };
        Some((gap, op))
    }
}

/// Tracks memoized versions for CAS (`expected` comes from the last version
/// this client observed for the key). Keyed by the key's 128-bit hash, which
/// every caller already holds: half the entry of a `Bytes` key, and nothing
/// to hash per op. Bounded at [`VersionMemo::CAP`] entries in two
/// generations: when the current one fills, the previous one is dropped, so
/// only keys not observed in the last `CAP / 2` remembers are forgotten.
#[derive(Debug, Default)]
pub struct VersionMemo {
    current: IdMap<KeyHash, VersionNumber>,
    previous: IdMap<KeyHash, VersionNumber>,
}

impl VersionMemo {
    /// Most entries held (both generations).
    pub const CAP: usize = 100_000;

    /// Remember the version last observed for the key hashing to `hash`.
    pub fn remember(&mut self, hash: KeyHash, version: VersionNumber) {
        if self.current.len() >= Self::CAP / 2 {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(hash, version);
    }

    /// The memoized version, if any.
    pub fn get(&self, hash: KeyHash) -> Option<VersionNumber> {
        let hit = self.current.get(&hash).or_else(|| self.previous.get(&hash));
        hit.copied()
    }

    /// Forget a key (after ERASE).
    pub fn forget(&mut self, hash: KeyHash) {
        self.current.remove(&hash);
        self.previous.remove(&hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_workload_drains() {
        let mut w = ScriptWorkload::new(vec![
            (
                SimDuration::ZERO,
                ClientOp::Set {
                    key: Bytes::from_static(b"a"),
                    value: Bytes::from_static(b"1"),
                },
            ),
            (
                SimDuration::from_micros(5),
                ClientOp::Get {
                    key: Bytes::from_static(b"a"),
                },
            ),
        ]);
        let mut rng = SimRng::new(1);
        assert_eq!(w.remaining(), 2);
        assert!(w.next(SimTime::ZERO, &mut rng).is_some());
        assert!(w.next(SimTime::ZERO, &mut rng).is_some());
        assert!(w.next(SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn a_script_issues_cas_exactly_when_it_holds_one() {
        let op = |op| (SimDuration::ZERO, op);
        let key = || Bytes::from_static(b"k");
        let value = || Bytes::from_static(b"v");
        let non_cas = [
            ClientOp::Get { key: key() },
            ClientOp::MultiGet { keys: vec![key()] },
            ClientOp::Set {
                key: key(),
                value: value(),
            },
            ClientOp::Erase { key: key() },
            ClientOp::MultiSet {
                entries: vec![(key(), value())],
            },
        ];
        let cas = ClientOp::Cas {
            key: key(),
            value: value(),
        };
        assert!(!ScriptWorkload::default().issues_cas());
        let plain: Vec<_> = non_cas.iter().cloned().map(op).collect();
        assert!(!ScriptWorkload::new(plain.clone()).issues_cas());
        for at in 0..=plain.len() {
            let mut ops = plain.clone();
            ops.insert(at, op(cas.clone()));
            assert!(ScriptWorkload::new(ops).issues_cas(), "CAS at {at}");
        }
        assert!(!UniformWorkload::mix(10, 8, 0.5, 1e6, 10).issues_cas());
    }

    #[test]
    fn uniform_mix_ratio() {
        let mut w = UniformWorkload::mix(100, 64, 0.9, 1e6, 10_000);
        let mut rng = SimRng::new(2);
        let mut gets = 0;
        let mut sets = 0;
        while let Some((_, op)) = w.next(SimTime::ZERO, &mut rng) {
            match op {
                ClientOp::Get { .. } => gets += 1,
                ClientOp::Set { .. } => sets += 1,
                _ => {}
            }
        }
        assert_eq!(gets + sets, 10_000);
        let frac = gets as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "get fraction {frac}");
    }

    #[test]
    fn value_for_is_deterministic_and_sized() {
        let a = UniformWorkload::value_for(b"k1", 100);
        let b = UniformWorkload::value_for(b"k1", 100);
        let c = UniformWorkload::value_for(b"k2", 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        assert_eq!(UniformWorkload::value_for(b"x", 0).len(), 0);
    }

    #[test]
    fn version_memo_roundtrip() {
        let mut m = VersionMemo::default();
        let k: KeyHash = 0xfeed_beef;
        assert_eq!(m.get(k), None);
        m.remember(k, VersionNumber::new(1, 2, 3));
        assert_eq!(m.get(k), Some(VersionNumber::new(1, 2, 3)));
        m.forget(k);
        assert_eq!(m.get(k), None);
    }

    #[test]
    fn version_memo_forgets_only_what_it_has_not_seen_lately() {
        let mut m = VersionMemo::default();
        let n = VersionMemo::CAP as u64 + 1;
        for i in 0..n {
            m.remember(i as KeyHash, VersionNumber::new(i + 1, 1, 0));
        }
        for i in n - VersionMemo::CAP as u64 / 2..n {
            let seen = VersionNumber::new(i + 1, 1, 0);
            assert_eq!(m.get(i as KeyHash), Some(seen), "key {i}");
        }
        assert!(m.current.len() + m.previous.len() <= VersionMemo::CAP);
        assert_eq!(m.get(0), None, "the oldest generation is gone");
        // A key re-observed after a rotation answers with the newer version
        // and is forgotten from both generations at once.
        let k = (n - 1) as KeyHash;
        for i in 0..VersionMemo::CAP as u64 / 2 {
            m.remember((n + i) as KeyHash, VersionNumber::new(1, 1, 0));
        }
        m.remember(k, VersionNumber::new(7, 7, 7));
        assert_eq!(m.get(k), Some(VersionNumber::new(7, 7, 7)));
        m.forget(k);
        assert_eq!(m.get(k), None);
    }

    #[test]
    fn outcome_ok() {
        assert!(OpOutcome::Hit.ok());
        assert!(OpOutcome::Miss.ok());
        assert!(OpOutcome::Done.ok());
        assert!(OpOutcome::Superseded.ok());
        assert!(!OpOutcome::Error.ok());
    }
}
