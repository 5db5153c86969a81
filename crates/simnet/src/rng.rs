//! Deterministic randomness for simulations.
//!
//! Every source of randomness in a simulation flows from one seed, so a run
//! is bit-identical given (seed, configuration). `SimRng` wraps a SplitMix64
//! generator — small, fast, and with well-understood statistical quality —
//! and offers the handful of distributions the simulator needs (uniform,
//! exponential inter-arrivals, Zipfian keys, log-normal sizes).

/// Deterministic pseudo-random generator used throughout the simulator.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Two generators with the same seed
    /// produce identical streams.
    pub fn new(seed: u64) -> SimRng {
        // Avoid the all-zero fixed point.
        SimRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Derive an independent child generator; used to give each component
    /// (fabric jitter, workload, antagonist...) its own stream so that adding
    /// randomness in one place does not perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n == 0` returns 0.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection-free approximation is fine for
        // simulation purposes (bias < 2^-64 * n).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// arrival processes). Mean of zero returns zero.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Log-normally distributed value parameterised by the underlying
    /// normal's `mu` and `sigma` (natural log space).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Standard normal via Box–Muller (one value per call; simple and
    /// deterministic, throughput is irrelevant here).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Precomputed Zipfian sampler over `[0, n)` (Gray et al. quick method).
///
/// Used by workload generators for skewed key popularity. `theta = 0`
/// degenerates to uniform; typical cache workloads use `theta ≈ 0.99`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    /// zeta(2, theta), kept for diagnostics and tests.
    pub zeta_theta: f64,
}

impl Zipf {
    /// Build a sampler for `n` items with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zeta = |count: u64, t: f64| -> f64 {
            // For large n, approximate the tail with an integral to keep
            // construction O(min(n, 10^6)).
            let exact = count.min(1_000_000);
            let mut z = 0.0;
            for i in 1..=exact {
                z += 1.0 / (i as f64).powf(t);
            }
            if count > exact {
                // integral of x^-t from exact to count
                let a = 1.0 - t;
                z += ((count as f64).powf(a) - (exact as f64).powf(a)) / a;
            }
            z
        };
        let zeta_theta = zeta(2, theta);
        let zeta_n = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_theta / zeta_n);
        Zipf {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
            zeta_theta,
        }
    }

    /// Number of items in the domain.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Sample an item index in `[0, n)`; index 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.n - 1)
    }

    /// The skew exponent this sampler was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::new(7);
        let mut child = parent.fork();
        let v1 = child.next_u64();
        // Re-derive: forking again gives a different child.
        let mut child2 = parent.fork();
        assert_ne!(v1, child2.next_u64());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(17);
            assert!(v < 17);
        }
        assert_eq!(rng.gen_range(0), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(11);
        let mean = 250.0;
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() / mean < 0.05, "mean {got}");
        assert_eq!(rng.exponential(0.0), 0.0);
    }

    #[test]
    fn zipf_skews_toward_head() {
        let mut rng = SimRng::new(13);
        let z = Zipf::new(1000, 0.99);
        let mut head = 0u64;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under theta=0.99 the top-10 of 1000 keys take a large share.
        assert!(head > n / 4, "head share too small: {head}/{n}");
        assert!(z.zeta_theta > 0.0);
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let mut rng = SimRng::new(17);
        let z = Zipf::new(100, 0.0);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 700 && max < 1300, "min {min} max {max}");
    }

    #[test]
    fn zipf_stays_in_domain() {
        let mut rng = SimRng::new(23);
        for &theta in &[0.2, 0.5, 0.9, 0.99] {
            let z = Zipf::new(37, theta);
            for _ in 0..5_000 {
                assert!(z.sample(&mut rng) < 37);
            }
        }
    }

    #[test]
    fn log_normal_positive() {
        let mut rng = SimRng::new(29);
        for _ in 0..1000 {
            assert!(rng.log_normal(5.0, 1.5) > 0.0);
        }
    }
}
