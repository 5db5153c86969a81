//! Measurement infrastructure: histograms and counters.
//!
//! Every experiment in the benchmark harness reads its results out of a
//! [`Metrics`] registry owned by the simulation. Its histograms are
//! [`obs::Histogram`], re-exported here: the one latency distribution in
//! the tree.

use std::collections::BTreeMap;

pub use obs::Histogram;

/// Interned metric name: an index into the registry's slot tables.
///
/// Obtained once from [`Metrics::handle`] and cached by the call site;
/// recording through it is a bounds-checked `Vec` index. One id addresses a
/// histogram and a counter of the same name — whichever kinds the call
/// sites actually write exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

/// Declares a struct of interned metric handles — one [`MetricId`] per
/// `field: "name"` — and its `resolve(&mut Metrics)`, which interns them in
/// declaration order. A leading `[field]: TABLE` entry, where `TABLE` is an
/// array of `(key, "name")` pairs, becomes an array of handles in table
/// order, interned first. Resolve once, at construction or
/// [`crate::Event::Start`], so hot paths never touch a name.
///
/// ```
/// simnet::metric_ids! {
///     struct ToyIds {
///         [tiers]: [(1, "toy.tier1"), (2, "toy.tier2")],
///         hits: "toy.hits",
///     }
/// }
/// let mut m = simnet::Metrics::new();
/// let ids = ToyIds::resolve(&mut m);
/// m.add_id(ids.tiers[1], 1);
/// assert_eq!(m.counter("toy.tier2"), 1);
/// ```
#[macro_export]
macro_rules! metric_ids {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $([$table:ident]: $pairs:expr,)?
            $($field:ident: $metric:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        $vis struct $name {
            $($vis $table: [$crate::MetricId; $pairs.len()],)?
            $($vis $field: $crate::MetricId,)*
        }

        impl $name {
            $vis fn resolve(m: &mut $crate::Metrics) -> $name {
                $(let $table = $pairs.map(|(_, name)| m.handle(name));)?
                $name {
                    $($table,)?
                    $($field: m.handle($metric),)*
                }
            }
        }
    };
}

/// Central registry of named metrics for one simulation run.
///
/// Every write goes through an id: [`Metrics::handle`] interns the name
/// once (the only allocation), then [`Metrics::record_id`] /
/// [`Metrics::add_id`] index a slot. Reads are by name
/// ([`Metrics::counter`], [`Metrics::hist_ref`]): a map lookup, for
/// harnesses and tests.
///
/// A name becomes visible to the `*_names` dumps only when first *written*;
/// interning alone (`handle`) creates no metrics, so pre-resolving handles
/// cannot change a run's reported output.
#[derive(Debug, Default)]
pub struct Metrics {
    /// name -> slot, also the sorted iteration order for dumps.
    names: BTreeMap<String, u32>,
    /// Histograms are boxed so a slot costs one pointer: the slot tables
    /// are what every `*_id` write indexes, and at hundreds of interned
    /// names they should stay cache-resident rather than carry a ~64-byte
    /// inline histogram header each.
    hists: Vec<Option<Box<Histogram>>>,
    /// Dense counter arena: every interned id owns a word here, written or
    /// not, so `add_id` is a single indexed add with no `Option`
    /// discriminant in the way.
    counters: Vec<u64>,
    /// Which counter slots have been written — dumps only show created
    /// (first-written) metrics, and a counter that was only interned must
    /// stay invisible.
    counter_set: Vec<bool>,
}

impl Metrics {
    /// New empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Intern `name`, returning a cheap id for the id-based fast path.
    /// Idempotent; does not create any visible metric.
    pub fn handle(&mut self, name: &str) -> MetricId {
        if let Some(&slot) = self.names.get(name) {
            return MetricId(slot);
        }
        let slot = self.hists.len() as u32;
        self.names.insert(name.to_string(), slot);
        self.hists.push(None);
        self.counters.push(0);
        self.counter_set.push(false);
        MetricId(slot)
    }

    /// Get-or-create a histogram by id.
    pub fn hist_id(&mut self, id: MetricId) -> &mut Histogram {
        self.hists[id.0 as usize].get_or_insert_with(|| Box::new(Histogram::new()))
    }

    /// Record into a histogram by id (creates it on first use).
    #[inline]
    pub fn record_id(&mut self, id: MetricId, value: u64) {
        self.hists[id.0 as usize]
            .get_or_insert_with(|| Box::new(Histogram::new()))
            .record(value);
    }

    /// Add to a counter by id (creates it on first use).
    #[inline]
    pub fn add_id(&mut self, id: MetricId, delta: u64) {
        let slot = id.0 as usize;
        self.counters[slot] += delta;
        self.counter_set[slot] = true;
    }

    /// Read a histogram if it exists.
    pub fn hist_ref(&self, name: &str) -> Option<&Histogram> {
        let &slot = self.names.get(name)?;
        self.hists[slot as usize].as_deref()
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        match self.names.get(name) {
            Some(&slot) => self.counters[slot as usize],
            None => 0,
        }
    }

    /// Iterate all histogram names (sorted).
    pub fn hist_names(&self) -> impl Iterator<Item = &str> {
        self.names
            .iter()
            .filter(|(_, &slot)| self.hists[slot as usize].is_some())
            .map(|(name, _)| name.as_str())
    }

    /// Iterate all counter names (sorted).
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.names
            .iter()
            .filter(|(_, &slot)| self.counter_set[slot as usize])
            .map(|(name, _)| name.as_str())
    }

    /// Exact, deterministic serialization of every metric in the registry:
    /// counters with values, histograms bucket by bucket, all in sorted
    /// name order. Two runs are metric-equivalent iff
    /// their dumps are string-equal — the determinism regression tests
    /// compare these.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, &slot) in &self.names {
            let slot = slot as usize;
            if self.counter_set[slot] {
                writeln!(out, "counter {name} = {}", self.counters[slot]).unwrap();
            }
            if let Some(h) = &self.hists[slot] {
                write!(
                    out,
                    "hist {name} n={} sum={} min={} max={} buckets=",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                )
                .unwrap();
                for (i, c) in h.nonzero_buckets() {
                    write!(out, "{i}:{c} ").unwrap();
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `Histogram` is `obs`'s (its own tests sit beside it); the cases here
    // hold the re-export to the same behaviour through `simnet`'s API.

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_everywhere() {
        let mut h = Histogram::new();
        h.record(12_345);
        for &p in &[1.0, 50.0, 99.0, 99.9] {
            let v = h.percentile(p);
            let err = (v as f64 - 12_345.0).abs() / 12_345.0;
            assert!(err < 0.05, "p{p} = {v}");
        }
        assert_eq!(h.min(), 12_345);
        assert_eq!(h.max(), 12_345);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0) as f64;
        let p99 = h.percentile(99.0) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99={p99}");
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn bucketing_roundtrip_error_bounded() {
        for &v in &[0u64, 1, 31, 32, 33, 1000, 123_456, 1 << 40, u64::MAX / 2] {
            let mut h = Histogram::new();
            h.record(v);
            let back = h.quantile(1.0);
            assert!(back <= v);
            if v >= 32 {
                let err = (v - back) as f64 / v as f64;
                assert!(err < 0.05, "v={v} back={back}");
            } else {
                assert_eq!(back, v);
            }
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 10);
        assert!(a.max() >= 1900);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn metrics_registry() {
        let mut m = Metrics::new();
        let (lat, ops) = (m.handle("lat"), m.handle("ops"));
        m.record_id(lat, 100);
        m.record_id(lat, 200);
        m.add_id(ops, 2);
        assert_eq!(m.hist_ref("lat").unwrap().count(), 2);
        assert_eq!(m.counter("ops"), 2);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.hist_names().collect::<Vec<_>>(), vec!["lat"]);
    }

    #[test]
    fn handles_alias_string_names() {
        let mut m = Metrics::new();
        let lat = m.handle("lat");
        let ops = m.handle("ops");
        assert_eq!(lat, m.handle("lat"), "handle must be idempotent");
        m.record_id(lat, 100);
        m.hist_id(lat).record(200);
        m.add_id(ops, 1);
        let ops_again = m.handle("ops");
        m.add_id(ops_again, 2);
        assert_eq!(m.hist_ref("lat").unwrap().count(), 2);
        assert_eq!(m.counter("ops"), 3);
    }

    #[test]
    fn interning_creates_no_visible_metrics() {
        let mut m = Metrics::new();
        let _ = m.handle("never.written");
        let _ = m.handle("also.never");
        assert_eq!(m.hist_names().count(), 0);
        assert_eq!(m.counter_names().count(), 0);
        assert_eq!(m.counter("never.written"), 0);
        assert!(m.hist_ref("never.written").is_none());
        // Writing one kind exposes only that kind.
        let ops = m.handle("ops");
        m.add_id(ops, 1);
        assert_eq!(m.counter_names().collect::<Vec<_>>(), vec!["ops"]);
        assert_eq!(m.hist_names().count(), 0);
    }

    #[test]
    fn names_iterate_sorted_regardless_of_write_order() {
        let mut m = Metrics::new();
        for name in ["z.last", "a.first", "m.mid"] {
            let id = m.handle(name);
            m.add_id(id, 1);
        }
        assert_eq!(
            m.counter_names().collect::<Vec<_>>(),
            vec!["a.first", "m.mid", "z.last"]
        );
    }
}
