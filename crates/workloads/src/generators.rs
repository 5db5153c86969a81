//! Workload generators for the evaluation: prefill, combinators, fixed-rate
//! mixes, load ramps, and batched production-like traffic.

use bytes::Bytes;

use cliquemap::workload::{ClientOp, UniformWorkload, Workload};
use simnet::{SimDuration, SimRng, SimTime, Zipf};

use crate::sizes::SizeDist;

/// SET every key exactly once (populating a corpus before measurement),
/// pacing at `rate` ops/sec.
#[derive(Debug)]
pub struct Prefill {
    /// Key namespace prefix.
    pub prefix: String,
    /// Number of keys.
    pub keys: u64,
    /// Value sizes.
    pub sizes: SizeDist,
    /// SETs per second.
    pub rate: f64,
    next: u64,
}

impl Prefill {
    /// Prefill `keys` keys named `{prefix}{i}`.
    pub fn new(prefix: &str, keys: u64, sizes: SizeDist, rate: f64) -> Prefill {
        Prefill {
            prefix: prefix.to_string(),
            keys,
            sizes,
            rate,
            next: 0,
        }
    }

    /// The canonical key name for index `i`. Formatted on the stack:
    /// typical keys (short prefix + decimal index) fit `Bytes`' inline
    /// repr, so the per-op hot path allocates nothing.
    pub fn key_name(prefix: &str, i: u64) -> Bytes {
        let p = prefix.as_bytes();
        let mut buf = [0u8; 48];
        if p.len() > buf.len() - 20 {
            return Bytes::from(format!("{prefix}{i}"));
        }
        buf[..p.len()].copy_from_slice(p);
        let mut digits = [0u8; 20];
        let mut n = i;
        let mut d = 0;
        loop {
            digits[d] = b'0' + (n % 10) as u8;
            n /= 10;
            d += 1;
            if n == 0 {
                break;
            }
        }
        let mut at = p.len();
        for k in (0..d).rev() {
            buf[at] = digits[k];
            at += 1;
        }
        Bytes::copy_from_slice(&buf[..at])
    }
}

impl Workload for Prefill {
    fn next(&mut self, _now: SimTime, _rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if self.next >= self.keys {
            return None;
        }
        let key = Self::key_name(&self.prefix, self.next);
        self.next += 1;
        let len = self.sizes.size_for_key(&key);
        let value = UniformWorkload::value_for(&key, len);
        let gap = SimDuration::from_secs_f64(1.0 / self.rate.max(1e-9));
        Some((gap, ClientOp::Set { key, value }))
    }
}

/// Run workload `a` to completion, then `b`.
pub struct Then {
    a: Option<Box<dyn Workload>>,
    b: Box<dyn Workload>,
    /// Extra settle gap between phases.
    pub settle: SimDuration,
}

impl Then {
    /// Chain two workloads.
    pub fn new(a: Box<dyn Workload>, b: Box<dyn Workload>) -> Then {
        Then {
            a: Some(a),
            b,
            settle: SimDuration::from_millis(10),
        }
    }
}

impl Workload for Then {
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if let Some(a) = &mut self.a {
            match a.next(now, rng) {
                Some(x) => return Some(x),
                None => {
                    self.a = None;
                    if let Some((gap, op)) = self.b.next(now, rng) {
                        return Some((gap + self.settle, op));
                    }
                    return None;
                }
            }
        }
        self.b.next(now, rng)
    }

    /// Either phase's CAS (the first phase's only while it still runs).
    fn issues_cas(&self) -> bool {
        self.a.as_ref().is_some_and(|a| a.issues_cas()) || self.b.issues_cas()
    }
}

/// Fixed-rate GET/SET mix over a Zipfian key population with a size
/// distribution — the §7.2.5 workload-variance experiments.
pub struct MixWorkload {
    /// Key namespace prefix (must match the prefill).
    pub prefix: String,
    /// Population size.
    pub keys: u64,
    /// Zipfian sampler.
    pub zipf: Zipf,
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

impl MixWorkload {
    /// Construct a mix.
    pub fn new(
        prefix: &str,
        keys: u64,
        theta: f64,
        get_fraction: f64,
        sizes: SizeDist,
        rate: f64,
        count: u64,
    ) -> MixWorkload {
        MixWorkload {
            prefix: prefix.to_string(),
            keys,
            zipf: Zipf::new(keys, theta),
            get_fraction,
            sizes,
            rate,
            count,
            issued: 0,
        }
    }
}

impl Workload for MixWorkload {
    fn next(&mut self, _now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if self.issued >= self.count {
            return None;
        }
        self.issued += 1;
        let idx = self.zipf.sample(rng);
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

/// GETs whose offered rate ramps linearly from `rate0` to `rate1` over
/// `duration` — the Figs. 15–17 load-ramp driver.
pub struct RampWorkload {
    /// Key namespace prefix.
    pub prefix: String,
    /// Population size.
    pub keys: u64,
    /// Starting rate (ops/sec).
    pub rate0: f64,
    /// Final rate (ops/sec).
    pub rate1: f64,
    /// Ramp duration.
    pub duration: SimDuration,
    /// Stop after the ramp completes.
    pub stop_at_end: bool,
}

impl Workload for RampWorkload {
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        let t = now.nanos() as f64 / self.duration.nanos().max(1) as f64;
        if t >= 1.0 && self.stop_at_end {
            return None;
        }
        let frac = t.min(1.0);
        let rate = self.rate0 + (self.rate1 - self.rate0) * frac;
        let idx = rng.gen_range(self.keys);
        let key = Prefill::key_name(&self.prefix, idx);
        let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / rate.max(1.0)));
        Some((gap, ClientOp::Get { key }))
    }
}

/// Batched, diurnal production-style GET traffic (the Figs. 8/9 shape):
/// MultiGet batches whose sizes are log-normal with a heavy tail, arriving
/// at a sinusoidally-varying rate.
pub struct ProductionGets {
    /// Key namespace prefix.
    pub prefix: String,
    /// Population size.
    pub keys: u64,
    /// Zipfian sampler.
    pub zipf: Zipf,
    /// Mean batch size (log-normal location).
    pub batch_mu: f64,
    /// Batch size spread (the 99.9p reaches `30-300` for Ads).
    pub batch_sigma: f64,
    /// Maximum batch size.
    pub batch_cap: usize,
    /// Mean arrival rate of *batches* per second.
    pub base_rate: f64,
    /// Diurnal amplitude in [0, 1): rate swings ±amplitude around base.
    pub diurnal_amplitude: f64,
    /// Length of one simulated "day".
    pub day: SimDuration,
    /// Stop after this instant (u64::MAX ns = never).
    pub until: SimTime,
}

impl ProductionGets {
    /// The Ads lookup stream.
    pub fn ads(prefix: &str, keys: u64, base_rate: f64, day: SimDuration) -> ProductionGets {
        ProductionGets {
            prefix: prefix.to_string(),
            keys,
            zipf: Zipf::new(keys, 0.9),
            batch_mu: (6f64).ln(),
            batch_sigma: 1.1,
            batch_cap: 300,
            base_rate,
            diurnal_amplitude: 0.35,
            day,
            until: SimTime::MAX,
        }
    }

    /// The Geo lookup stream: "3x variation in GET rate over the course of
    /// a day", batches of tens of segments.
    pub fn geo(prefix: &str, keys: u64, base_rate: f64, day: SimDuration) -> ProductionGets {
        ProductionGets {
            prefix: prefix.to_string(),
            keys,
            zipf: Zipf::new(keys, 0.8),
            batch_mu: (15f64).ln(),
            batch_sigma: 0.7,
            batch_cap: 120,
            base_rate,
            diurnal_amplitude: 0.5, // (1+0.5)/(1-0.5) = 3x swing
            day,
            until: SimTime::MAX,
        }
    }

    fn rate_at(&self, now: SimTime) -> f64 {
        let phase =
            2.0 * std::f64::consts::PI * (now.nanos() as f64) / (self.day.nanos().max(1) as f64);
        self.base_rate * (1.0 + self.diurnal_amplitude * phase.sin())
    }
}

impl Workload for ProductionGets {
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if now >= self.until {
            return None;
        }
        let rate = self.rate_at(now).max(1.0);
        let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / rate));
        let batch =
            (rng.log_normal(self.batch_mu, self.batch_sigma) as usize).clamp(1, self.batch_cap);
        let keys: Vec<Bytes> = (0..batch)
            .map(|_| Prefill::key_name(&self.prefix, self.zipf.sample(rng)))
            .collect();
        let op = if batch == 1 {
            ClientOp::Get {
                key: keys.into_iter().next().expect("batch >= 1"),
            }
        } else {
            ClientOp::MultiGet { keys }
        };
        Some((gap, op))
    }
}

/// Batched corpus-update traffic: MultiSet batches whose sizes are
/// log-normal with a heavy tail, arriving at a sinusoidally-varying rate —
/// the write-side twin of [`ProductionGets`], built to drive the
/// doorbell-batched mutation path at production batch shapes.
pub struct ProductionMultiSets {
    /// Key namespace prefix.
    pub prefix: String,
    /// Population size.
    pub keys: u64,
    /// Zipfian sampler.
    pub zipf: Zipf,
    /// Value sizes.
    pub sizes: SizeDist,
    /// Mean batch size (log-normal location).
    pub batch_mu: f64,
    /// Batch size spread.
    pub batch_sigma: f64,
    /// Maximum batch size.
    pub batch_cap: usize,
    /// Mean arrival rate of *batches* per second.
    pub base_rate: f64,
    /// Diurnal amplitude in [0, 1): rate swings ±amplitude around base.
    pub diurnal_amplitude: f64,
    /// Length of one simulated "day".
    pub day: SimDuration,
    /// Stop after this instant (u64::MAX ns = never).
    pub until: SimTime,
}

impl ProductionMultiSets {
    /// The Ads update stream: same Zipf skew and log-normal batch shape as
    /// [`ProductionGets::ads`].
    pub fn ads(
        prefix: &str,
        keys: u64,
        sizes: SizeDist,
        base_rate: f64,
        day: SimDuration,
    ) -> ProductionMultiSets {
        ProductionMultiSets {
            prefix: prefix.to_string(),
            keys,
            zipf: Zipf::new(keys, 0.9),
            sizes,
            batch_mu: (6f64).ln(),
            batch_sigma: 1.1,
            batch_cap: 300,
            base_rate,
            diurnal_amplitude: 0.35,
            day,
            until: SimTime::MAX,
        }
    }

    fn rate_at(&self, now: SimTime) -> f64 {
        let phase =
            2.0 * std::f64::consts::PI * (now.nanos() as f64) / (self.day.nanos().max(1) as f64);
        self.base_rate * (1.0 + self.diurnal_amplitude * phase.sin())
    }
}

impl Workload for ProductionMultiSets {
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if now >= self.until {
            return None;
        }
        let rate = self.rate_at(now).max(1.0);
        let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / rate));
        let batch =
            (rng.log_normal(self.batch_mu, self.batch_sigma) as usize).clamp(1, self.batch_cap);
        let mut entries: Vec<(Bytes, Bytes)> = Vec::with_capacity(batch);
        for _ in 0..batch {
            let key = Prefill::key_name(&self.prefix, self.zipf.sample(rng));
            let len = self.sizes.size_for_key(&key);
            let value = UniformWorkload::value_for(&key, len);
            entries.push((key, value));
        }
        let op = if batch == 1 {
            let (key, value) = entries.pop().expect("batch >= 1");
            ClientOp::Set { key, value }
        } else {
            ClientOp::MultiSet { entries }
        };
        Some((gap, op))
    }
}

/// Steady corpus-update SET stream plus optional periodic backfill bursts
/// (the Fig. 8 "SET Rate (Writes)" and "SET Rate (Backfill)" series).
pub struct ProductionSets {
    /// Key namespace prefix.
    pub prefix: String,
    /// Population size.
    pub keys: u64,
    /// Value sizes.
    pub sizes: SizeDist,
    /// Steady update rate (SETs/sec).
    pub base_rate: f64,
    /// Backfill burst multiplier applied during bursts (1.0 = no bursts).
    pub backfill_multiplier: f64,
    /// Burst period (one burst per period).
    pub backfill_period: SimDuration,
    /// Burst duration.
    pub backfill_len: SimDuration,
    /// Stop after this instant.
    pub until: SimTime,
}

impl ProductionSets {
    /// A steady writer with no backfill.
    pub fn steady(prefix: &str, keys: u64, sizes: SizeDist, rate: f64) -> ProductionSets {
        ProductionSets {
            prefix: prefix.to_string(),
            keys,
            sizes,
            base_rate: rate,
            backfill_multiplier: 1.0,
            backfill_period: SimDuration::from_secs(1),
            backfill_len: SimDuration::ZERO,
            until: SimTime::MAX,
        }
    }

    fn in_backfill(&self, now: SimTime) -> bool {
        if self.backfill_len == SimDuration::ZERO {
            return false;
        }
        let period = self.backfill_period.nanos().max(1);
        now.nanos() % period < self.backfill_len.nanos()
    }
}

impl Workload for ProductionSets {
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if now >= self.until {
            return None;
        }
        let mut rate = self.base_rate;
        if self.in_backfill(now) {
            rate *= self.backfill_multiplier;
        }
        let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / rate.max(1.0)));
        let key = Prefill::key_name(&self.prefix, rng.gen_range(self.keys));
        let len = self.sizes.size_for_key(&key);
        let value = UniformWorkload::value_for(&key, len);
        Some((gap, ClientOp::Set { key, value }))
    }
}

/// Repeatedly GET one single key (the Fig. 11 preferred-backend microbench:
/// "synthetic clients repeatedly GET the same 4KB-sized K/V pair").
pub struct SingleKeyGets {
    /// The key.
    pub key: Bytes,
    /// GET rate per second.
    pub rate: f64,
    /// Ops to issue.
    pub count: u64,
    issued: u64,
}

impl SingleKeyGets {
    /// Build the generator.
    pub fn new(key: &str, rate: f64, count: u64) -> SingleKeyGets {
        SingleKeyGets {
            key: Bytes::from(key.to_string()),
            rate,
            count,
            issued: 0,
        }
    }
}

impl Workload for SingleKeyGets {
    fn next(&mut self, _now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        if self.issued >= self.count {
            return None;
        }
        self.issued += 1;
        let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / self.rate.max(1.0)));
        Some((
            gap,
            ClientOp::Get {
                key: self.key.clone(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut dyn Workload, limit: usize) -> Vec<(SimDuration, ClientOp)> {
        let mut rng = SimRng::new(1);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..limit {
            match w.next(now, &mut rng) {
                Some((gap, op)) => {
                    now += gap;
                    out.push((gap, op));
                }
                None => break,
            }
        }
        out
    }

    #[test]
    fn prefill_covers_every_key_once() {
        let mut w = Prefill::new("k", 100, SizeDist::fixed(64), 1e6);
        let ops = drain(&mut w, 1000);
        assert_eq!(ops.len(), 100);
        let keys: std::collections::HashSet<_> = ops
            .iter()
            .map(|(_, op)| match op {
                ClientOp::Set { key, .. } => key.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn then_chains_in_order() {
        let a = Prefill::new("a", 3, SizeDist::fixed(8), 1e6);
        let b = Prefill::new("b", 2, SizeDist::fixed(8), 1e6);
        let mut w = Then::new(Box::new(a), Box::new(b));
        let ops = drain(&mut w, 100);
        assert_eq!(ops.len(), 5);
        let names: Vec<String> = ops
            .iter()
            .map(|(_, op)| match op {
                ClientOp::Set { key, .. } => String::from_utf8(key.to_vec()).unwrap(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(names, vec!["a0", "a1", "a2", "b0", "b1"]);
    }

    #[test]
    fn then_issues_cas_if_either_phase_does() {
        use cliquemap::workload::ScriptWorkload;
        let prefill = || Box::new(Prefill::new("p", 2, SizeDist::fixed(8), 1e6));
        let script = |cas: bool| {
            let (key, value) = (Bytes::from_static(b"k"), Bytes::from_static(b"v"));
            let op = match cas {
                true => ClientOp::Cas { key, value },
                false => ClientOp::Set { key, value },
            };
            Box::new(ScriptWorkload::new(vec![(SimDuration::ZERO, op)]))
        };
        assert!(Then::new(prefill(), script(true)).issues_cas());
        assert!(Then::new(script(true), prefill()).issues_cas());
        assert!(Then::new(script(true), script(true)).issues_cas());
        assert!(!Then::new(prefill(), script(false)).issues_cas());
        assert!(!Then::new(script(false), prefill()).issues_cas());
        // Once the CAS-issuing first phase has drained, only the second
        // speaks.
        let mut w = Then::new(script(true), prefill());
        assert_eq!(drain(&mut w, 10).len(), 3);
        assert!(!w.issues_cas());
    }

    #[test]
    fn mix_ratio_and_keys_bounded() {
        let mut w = MixWorkload::new("k", 50, 0.9, 0.95, SizeDist::fixed(64), 1e6, 5_000);
        let ops = drain(&mut w, 10_000);
        assert_eq!(ops.len(), 5_000);
        let gets = ops
            .iter()
            .filter(|(_, op)| matches!(op, ClientOp::Get { .. }))
            .count();
        let frac = gets as f64 / 5_000.0;
        assert!((frac - 0.95).abs() < 0.02, "{frac}");
    }

    #[test]
    fn ramp_rate_rises() {
        let mut w = RampWorkload {
            prefix: "k".into(),
            keys: 10,
            rate0: 1_000.0,
            rate1: 100_000.0,
            duration: SimDuration::from_secs(1),
            stop_at_end: true,
        };
        let mut rng = SimRng::new(2);
        // Early gaps should be much larger than late gaps on average.
        let early: u64 = (0..200)
            .filter_map(|_| w.next(SimTime(0), &mut rng).map(|(g, _)| g.nanos()))
            .sum();
        let late: u64 = (0..200)
            .filter_map(|_| {
                w.next(SimTime(999_000_000), &mut rng)
                    .map(|(g, _)| g.nanos())
            })
            .sum();
        assert!(early > late * 10, "early {early} late {late}");
        // Terminates at the end.
        assert!(w.next(SimTime(1_100_000_000), &mut rng).is_none());
    }

    #[test]
    fn production_gets_batches_and_diurnal() {
        let mut w = ProductionGets::ads("k", 1000, 1_000.0, SimDuration::from_secs(1));
        let mut rng = SimRng::new(3);
        let mut sizes = Vec::new();
        for _ in 0..2_000 {
            if let Some((_, op)) = w.next(SimTime(0), &mut rng) {
                match op {
                    ClientOp::MultiGet { keys } => sizes.push(keys.len()),
                    ClientOp::Get { .. } => sizes.push(1),
                    other => panic!("{other:?}"),
                }
            }
        }
        let max = *sizes.iter().max().unwrap();
        assert!(max > 20, "no tail batches: max {max}");
        assert!(max <= 300);
        // Diurnal: peak rate > trough rate.
        let peak = w.rate_at(SimTime(250_000_000)); // quarter day: sin=1
        let trough = w.rate_at(SimTime(750_000_000));
        assert!(peak / trough > 1.8, "peak {peak} trough {trough}");
    }

    #[test]
    fn geo_diurnal_swing_is_3x() {
        let w = ProductionGets::geo("g", 1000, 1_000.0, SimDuration::from_secs(4));
        let peak = w.rate_at(SimTime(1_000_000_000));
        let trough = w.rate_at(SimTime(3_000_000_000));
        assert!((peak / trough - 3.0).abs() < 0.2, "swing {}", peak / trough);
    }

    #[test]
    fn production_multisets_batches_and_parity() {
        let mut w = ProductionMultiSets::ads(
            "k",
            1000,
            SizeDist::fixed(64),
            1_000.0,
            SimDuration::from_secs(1),
        );
        let mut rng = SimRng::new(3);
        let mut sizes = Vec::new();
        for _ in 0..2_000 {
            if let Some((_, op)) = w.next(SimTime(0), &mut rng) {
                match op {
                    ClientOp::MultiSet { entries } => {
                        assert!(entries.iter().all(|(_, v)| v.len() == 64));
                        sizes.push(entries.len());
                    }
                    ClientOp::Set { value, .. } => {
                        assert_eq!(value.len(), 64);
                        sizes.push(1);
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
        let max = *sizes.iter().max().unwrap();
        assert!(max > 20, "no tail batches: max {max}");
        assert!(max <= 300);
        // Parity with the Ads GET stream: same diurnal swing.
        let peak = w.rate_at(SimTime(250_000_000));
        let trough = w.rate_at(SimTime(750_000_000));
        assert!(peak / trough > 1.8, "peak {peak} trough {trough}");
        // Terminates at `until`.
        w.until = SimTime(1);
        assert!(w.next(SimTime(2), &mut rng).is_none());
    }

    #[test]
    fn backfill_bursts() {
        let w = ProductionSets {
            prefix: "k".into(),
            keys: 100,
            sizes: SizeDist::fixed(64),
            base_rate: 100.0,
            backfill_multiplier: 10.0,
            backfill_period: SimDuration::from_secs(1),
            backfill_len: SimDuration::from_millis(100),
            until: SimTime::MAX,
        };
        assert!(w.in_backfill(SimTime(50_000_000)));
        assert!(!w.in_backfill(SimTime(500_000_000)));
    }

    #[test]
    fn single_key_repeats() {
        let mut w = SingleKeyGets::new("hot", 1e6, 10);
        let ops = drain(&mut w, 100);
        assert_eq!(ops.len(), 10);
        for (_, op) in &ops {
            assert!(matches!(op, ClientOp::Get { key } if &key[..] == b"hot"));
        }
    }
}
