//! The tree's one latency distribution: a log-linear histogram.
//!
//! Each power-of-two range is split into 32 linear sub-buckets, so a
//! bucket is at most 1/32 of its value wide over the whole `u64` range, in
//! a dense 2,048-counter array (16 KiB) that `record` indexes with a shift
//! and a mask. It lives in `obs`, below `simnet`, so that the engine's
//! metrics registry, the adaptive controller's arms and the trace
//! roll-ups all record into — and read percentiles from — the same
//! structure.

use std::fmt;

const SUB_BUCKET_BITS: u32 = 5; // 32 linear sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Log-linear histogram of `u64` values (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        ((msb - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// The value a bucket reports: its *lower* bound, so a reported
    /// quantile never exceeds the observation it stands for.
    fn value_of(index: usize) -> u64 {
        let tier = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        if tier == 0 {
            return sub as u64;
        }
        let shift = (tier - 1) as u32;
        ((SUB_BUCKETS + sub) as u64) << shift
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, 0 when empty: the lower bound of
    /// the bucket holding the nearest-rank observation. Exact below 64;
    /// above, it under-reads by less than one bucket width (1/32 of the
    /// value, < 3.2 %) and never over-reads.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i);
            }
        }
        self.max
    }

    /// [`Histogram::quantile`] with `p` in percent (`50.0`, `99.9`).
    pub fn percentile(&self, p: f64) -> u64 {
        self.quantile(p / 100.0)
    }

    /// Number of observations strictly above `value` (SLO breach
    /// counting). Resolution is the histogram's bucket width: values in
    /// `value`'s own bucket are not counted.
    pub fn count_above(&self, value: u64) -> u64 {
        let idx = Self::index_of(value);
        self.buckets[idx + 1..].iter().sum()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Iterate nonzero `(bucket index, count)` pairs. Together with
    /// [`Histogram::sum`], [`Histogram::min`] and [`Histogram::max`] this is
    /// an exact serialization of the histogram's contents.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Reset to empty (used for per-window percentile timelines).
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.0} p50={} p90={} p99={} p99.9={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.percentile(99.9),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract: a quantile is the exact nearest-rank value of a sorted
    /// `Vec`, read low by less than one bucket (1/32) and never high.
    fn assert_within_one_bucket(vals: &mut [u64], qs: &[f64]) {
        let mut h = Histogram::new();
        for &v in vals.iter() {
            h.record(v);
        }
        vals.sort_unstable();
        for &q in qs {
            let rank = ((q * vals.len() as f64).ceil() as usize).max(1);
            let (exact, got) = (vals[rank - 1], h.quantile(q));
            assert!(got <= exact, "q={q}: {got} over-reads {exact}");
            assert!(
                (exact - got) as f64 <= exact as f64 / 32.0,
                "q={q}: {got} is more than a bucket under {exact}"
            );
        }
    }

    #[test]
    fn within_relative_error_on_uniform() {
        let mut vals: Vec<u64> = (1..=10_000).collect();
        assert_within_one_bucket(&mut vals, &[0.5, 0.9, 0.99, 0.999]);
    }

    #[test]
    fn within_relative_error_on_heavy_tail() {
        // Latency-shaped: 99% fast, 1% three orders of magnitude slower.
        let mut vals: Vec<u64> = (0..990).map(|i| 3_000 + i).collect();
        vals.extend((0..10).map(|i| 2_000_000 + i * 50_000));
        assert_within_one_bucket(&mut vals, &[0.5, 0.99, 0.999]);
    }

    #[test]
    fn within_relative_error_on_mixed_modes() {
        // A fast mode, a slow mode, a heavy tail.
        let mut vals: Vec<u64> = (0..900).map(|i| 8_000 + 13 * i).collect();
        vals.extend((0..90).map(|i| 120_000 + 777 * i));
        vals.extend((0..10).map(|i| 3_000_000 + 50_000 * i));
        assert_within_one_bucket(&mut vals, &[0.5, 0.9, 0.99, 0.999]);
    }

    #[test]
    fn zero_and_extremes() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        h.record(0);
        h.record(100);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!((h.min(), h.max()), (0, 100));
        // Below 64 every value has a bucket of its own, across the seam
        // between the linear range and the first octave.
        for v in [0, 31, 32, 33] {
            let mut one = Histogram::new();
            one.record(v);
            assert_eq!(one.quantile(1.0), v);
        }
        assert_within_one_bucket(&mut [u64::MAX / 2], &[0.0, 1.0]);
    }

    #[test]
    fn merge_matches_combined_stream() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 1..500u64 {
            a.record(v * 7);
            b.record(v * 13);
            all.record(v * 7);
            all.record(v * 13);
        }
        a.merge(&b);
        assert_eq!(
            (a.count(), a.sum(), a.min(), a.max()),
            (all.count(), all.sum(), all.min(), all.max())
        );
        assert!(a.nonzero_buckets().eq(all.nonzero_buckets()));
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::default();
        h.record(9);
        h.clear();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }
}
