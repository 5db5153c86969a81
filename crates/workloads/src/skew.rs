//! Skewed-traffic generators: Zipfian hot keys and rotating hot sets.
//!
//! Production CliqueMap traffic is heavily skewed — a handful of keys
//! absorb most of the offered load, and the identity of those keys drifts
//! over hours (campaign launches, regional wakeups). The committed
//! workloads are near-uniform, so this module adds a generator for the
//! skew experiments: [`SkewedWorkload`], Zipf(s) over key *ranks* for any
//! s ≥ 0 (the [`simnet::Zipf`] quick sampler only covers s in [0,1)), with
//! an optional churn rotation that shifts which concrete keys hold the hot
//! ranks every churn period.
//!
//! It emits the same [`ClientOp`] stream interface as the other generators
//! and draws only from the caller's seeded [`SimRng`], so two runs with the
//! same seed produce byte-identical op streams.

use bytes::Bytes;

use cliquemap::workload::{ClientOp, UniformWorkload, Workload};
use simnet::{SimDuration, SimRng, SimTime};

use crate::generators::Prefill;
use crate::sizes::SizeDist;

/// Largest population the CDF-table sampler will precompute. Experiments
/// use a few thousand keys; this is a guard against accidental O(n) blowup.
const MAX_TABLE: u64 = 1 << 24;

/// Zipf sampler over ranks `[0, n)` supporting any exponent `s >= 0`,
/// including the `s >= 1` regime the Gray et al. quick method (and
/// [`simnet::Zipf`]) cannot represent. Built as an explicit cumulative
/// probability table; sampling is one uniform draw plus a binary search,
/// so the stream consumes exactly one RNG draw per sample regardless of s.
#[derive(Debug, Clone)]
pub struct ZipfRanks {
    n: u64,
    s: f64,
    /// `cdf[i]` = P(rank <= i); empty when `s == 0` (uniform fast path).
    cdf: Vec<f64>,
}

impl ZipfRanks {
    /// Build a sampler for `n` ranks with exponent `s`. Rank 0 is the most
    /// popular; mass of rank `i` is proportional to `1 / (i+1)^s`.
    pub fn new(n: u64, s: f64) -> ZipfRanks {
        assert!(n > 0, "Zipf over empty domain");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        assert!(n <= MAX_TABLE, "population too large for the CDF table");
        let cdf = if s == 0.0 {
            Vec::new()
        } else {
            let mut acc = 0.0f64;
            let mut cdf = Vec::with_capacity(n as usize);
            for i in 0..n {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            cdf
        };
        ZipfRanks { n, s, cdf }
    }

    /// Number of ranks in the domain.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// The exponent this sampler was built with.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Probability mass of rank `i` (exact, from the table).
    pub fn mass(&self, i: u64) -> f64 {
        if self.s == 0.0 {
            return 1.0 / self.n as f64;
        }
        let i = i as usize;
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Sample a rank; exactly one RNG draw. At `s == 0` this is the same
    /// single `gen_range` draw the uniform generators make, so an `s = 0`
    /// skewed stream is byte-identical to its uniform counterpart.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.s == 0.0 {
            return rng.gen_range(self.n);
        }
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Fixed-rate GET/SET mix whose key popularity is Zipf(s) by rank, with an
/// optional churn rotation: every `churn_period`, the rank→key mapping
/// shifts by `hot_set` positions (mod the population), so a fresh set of
/// concrete keys inherits the hot ranks — the cache-invalidation stress the
/// client lease cache must absorb.
///
/// Draw order per op (rank, gap, op-type) mirrors
/// [`crate::MixWorkload`], so with `s = 0` and churn disabled the stream
/// is byte-identical to `MixWorkload` at `theta = 0`.
pub struct SkewedWorkload {
    /// Key namespace prefix (must match the prefill).
    pub prefix: String,
    /// Population size.
    pub keys: u64,
    /// Rank sampler (exponent s).
    pub zipf: ZipfRanks,
    /// Hot-set size: how many positions the rank→key mapping rotates per
    /// churn epoch. 0 = the mapping never moves even if a period is set.
    pub hot_set: u64,
    /// Churn period (`None` = static mapping).
    pub churn_period: Option<SimDuration>,
    /// GET fraction in [0, 1].
    pub get_fraction: f64,
    /// Value sizes for SETs.
    pub sizes: SizeDist,
    /// Offered ops/sec.
    pub rate: f64,
    /// Total ops (u64::MAX = run forever).
    pub count: u64,
    issued: u64,
}

impl SkewedWorkload {
    /// Construct a skewed mix.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        prefix: &str,
        keys: u64,
        s: f64,
        hot_set: u64,
        churn_period: Option<SimDuration>,
        get_fraction: f64,
        sizes: SizeDist,
        rate: f64,
        count: u64,
    ) -> SkewedWorkload {
        SkewedWorkload {
            prefix: prefix.to_string(),
            keys,
            zipf: ZipfRanks::new(keys, s),
            hot_set,
            churn_period,
            get_fraction,
            sizes,
            rate,
            count,
            issued: 0,
        }
    }

    /// The concrete key index holding `rank` at sim time `now`.
    pub fn key_of_rank(&self, rank: u64, now: SimTime) -> u64 {
        let epoch = match self.churn_period {
            Some(p) if p.nanos() > 0 => now.nanos() / p.nanos(),
            _ => 0,
        };
        (rank + epoch.wrapping_mul(self.hot_set)) % self.keys
    }
}

impl Workload for SkewedWorkload {
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if self.issued >= self.count {
            return None;
        }
        self.issued += 1;
        let rank = self.zipf.sample(rng);
        let idx = self.key_of_rank(rank, now);
        let key = Prefill::key_name(&self.prefix, idx);
        let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / self.rate.max(1e-9)));
        let op = if rng.next_f64() < self.get_fraction {
            ClientOp::Get { key }
        } else {
            let len = self.sizes.size_for_key(&key);
            let value = UniformWorkload::value_for(&key, len);
            ClientOp::Set { key, value }
        };
        Some((gap, op))
    }
}

/// Render a short op stream as comparable text (key + op kind + gap),
/// used by the determinism tests.
#[doc(hidden)]
pub fn stream_signature(w: &mut dyn Workload, seed: u64, ops: usize) -> String {
    let mut rng = SimRng::new(seed);
    let mut out = String::new();
    let mut now = SimTime(0);
    for _ in 0..ops {
        let Some((gap, op)) = w.next(now, &mut rng) else {
            break;
        };
        now += gap;
        let (kind, key) = match &op {
            ClientOp::Get { key } => ("G", key.clone()),
            ClientOp::Set { key, .. } => ("S", key.clone()),
            ClientOp::Erase { key } => ("E", key.clone()),
            ClientOp::Cas { key, .. } => ("C", key.clone()),
            ClientOp::MultiGet { .. } => ("M", Bytes::new()),
            ClientOp::MultiSet { entries } => (
                "W",
                entries.first().map(|(k, _)| k.clone()).unwrap_or_default(),
            ),
        };
        out.push_str(&format!(
            "{} {} {}\n",
            kind,
            String::from_utf8_lossy(&key),
            gap.nanos()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masses_are_monotone_nonincreasing_in_rank() {
        for s in [0.2, 0.6, 0.99, 1.0, 1.2, 1.5] {
            let z = ZipfRanks::new(500, s);
            for i in 1..500 {
                assert!(
                    z.mass(i) <= z.mass(i - 1) + 1e-15,
                    "mass not monotone at rank {i} for s={s}"
                );
            }
        }
    }

    #[test]
    fn cdf_is_normalized() {
        for s in [0.5, 1.0, 1.3] {
            let z = ZipfRanks::new(100, s);
            assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn high_skew_concentrates_mass() {
        // At s=1.3 over 1000 keys the top-10 ranks must dominate.
        let z = ZipfRanks::new(1000, 1.3);
        let top10: f64 = (0..10).map(|i| z.mass(i)).sum();
        assert!(top10 > 0.5, "top-10 mass only {top10}");
        // And harder skew concentrates harder.
        let z2 = ZipfRanks::new(1000, 0.6);
        let top10_mild: f64 = (0..10).map(|i| z2.mass(i)).sum();
        assert!(top10 > top10_mild);
    }

    #[test]
    fn sample_matches_table_percentiles() {
        let z = ZipfRanks::new(200, 1.1);
        let mut rng = SimRng::new(9);
        let mut counts = vec![0u64; 200];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Empirical mass of rank 0 within 5% relative of the exact mass.
        let emp = counts[0] as f64 / 200_000.0;
        let exact = z.mass(0);
        assert!(
            (emp - exact).abs() / exact < 0.05,
            "rank-0 mass {emp} vs exact {exact}"
        );
    }

    #[test]
    fn churn_rotates_hot_ranks() {
        let w = SkewedWorkload::new(
            "k",
            100,
            1.2,
            10,
            Some(SimDuration::from_millis(10)),
            1.0,
            SizeDist::fixed(64),
            1000.0,
            u64::MAX,
        );
        let t0 = SimTime(0);
        let t1 = SimTime(SimDuration::from_millis(10).nanos());
        assert_eq!(w.key_of_rank(0, t0), 0);
        assert_eq!(w.key_of_rank(0, t1), 10);
        assert_eq!(w.key_of_rank(95, t1), 5); // wraps mod population
    }
}
