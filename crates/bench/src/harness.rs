//! Shared experiment plumbing: reports, corpus population, and windowed
//! percentile sampling.

use bytes::Bytes;

use cliquemap::backend::BackendNode;
use cliquemap::cell::Cell;
use cliquemap::hash::{place, DefaultHasher, KeyHasher};
use cliquemap::version::VersionNumber;
use cliquemap::workload::UniformWorkload;
use simnet::{Histogram, SimTime};
use workloads::{Prefill, SizeDist};

/// A printable experiment result: a title plus the figure's rows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. "f11").
    pub id: String,
    /// Human title.
    pub title: String,
    /// The regenerated series, one row per line.
    pub lines: Vec<String>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            lines: Vec::new(),
        }
    }

    /// Append a row.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Render to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id.to_uppercase(), self.title);
        for l in &self.lines {
            println!("{l}");
        }
    }

    /// Render the rows as CSV (whitespace-delimited rows become
    /// comma-delimited; annotation lines pass through as comments).
    pub fn to_csv(&self) -> String {
        let mut out = format!("# {} — {}\n", self.id, self.title);
        for l in &self.lines {
            let cols: Vec<&str> = l.split_whitespace().collect();
            if cols.is_empty() {
                continue;
            }
            // Key=value annotation lines become comments.
            if cols.iter().any(|c| c.contains('='))
                && !cols[0]
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false)
            {
                out.push_str("# ");
                out.push_str(l.trim());
                out.push('\n');
            } else {
                out.push_str(&cols.join(","));
                out.push('\n');
            }
        }
        out
    }
}

/// Install a corpus directly into every replica's store (fast-path corpus
/// population, standing in for a long prefill phase). Keys are
/// `{prefix}{0..keys}` with deterministic sizes and contents, installed at
/// the same version on every replica so quorums are immediately clean.
pub fn populate_cell(cell: &mut Cell, prefix: &str, keys: u64, sizes: &SizeDist) {
    let hasher = DefaultHasher;
    let n = cell.backends.len() as u32;
    let copies = cell
        .sim
        .with_node::<cliquemap::config::ConfigStoreNode, _>(cell.config_store, |cs| {
            cs.config().replication.copies()
        })
        .expect("config store");
    for i in 0..keys {
        let key = Prefill::key_name(prefix, i);
        let len = sizes.size_for_key(&key);
        let value = UniformWorkload::value_for(&key, len);
        let hash = hasher.hash(&key);
        let shard = place(hash, n, 1).shard;
        let version = VersionNumber::new(1, 0, 1);
        for r in 0..copies {
            let backend = cell.backends[((shard + r) % n) as usize];
            install(cell, backend, &key, &value, version);
        }
    }
}

/// Seed backend `i`'s media with a checkpoint of everything its store
/// holds: a backend that had been up (and trickle-flushing) long before
/// the window a run measures. Needs a durable cell.
pub fn checkpoint_media(cell: &mut Cell, i: usize) {
    let entries = cell
        .sim
        .with_node::<BackendNode, _>(cell.backends[i], |b| b.store().all_entries())
        .expect("backend exists");
    let mut m = cell.media[i].borrow_mut();
    for (k, v, ver) in &entries {
        m.install_snapshot(durable::KIND_SET, ver.0, k, v);
    }
}

fn install(cell: &mut Cell, backend: simnet::NodeId, key: &Bytes, value: &Bytes, v: VersionNumber) {
    let hash = DefaultHasher.hash(key);
    cell.sim
        .with_node::<BackendNode, _>(backend, |b| {
            b.store_mut().install(key, value, hash, v);
        })
        .expect("backend exists");
}

/// Windowed percentile sampling: snapshot-and-clear named histograms so
/// each window's percentiles are independent (the timeline figures).
pub struct WindowSampler {
    names: Vec<String>,
    /// Counter names whose per-window deltas are also reported.
    counter_names: Vec<String>,
    last_counters: Vec<u64>,
}

/// One window's worth of measurements.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Window end time.
    pub at: SimTime,
    /// Per-histogram (p50, p90, p99, p999, count).
    pub hists: Vec<(String, [u64; 4], u64)>,
    /// Per-counter delta over the window.
    pub counters: Vec<(String, u64)>,
}

impl WindowSampler {
    /// Track the given histogram and counter names.
    pub fn new(hists: &[&str], counters: &[&str]) -> WindowSampler {
        WindowSampler {
            names: hists.iter().map(|s| s.to_string()).collect(),
            counter_names: counters.iter().map(|s| s.to_string()).collect(),
            last_counters: vec![0; counters.len()],
        }
    }

    /// Snapshot percentiles + counter deltas, then clear the histograms.
    pub fn sample(&mut self, cell: &mut Cell) -> WindowSnapshot {
        let at = cell.sim.now();
        let mut hists = Vec::new();
        for name in &self.names {
            let h = hist_mut(cell, name);
            let p = [
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.percentile(99.9),
            ];
            let count = h.count();
            h.clear();
            hists.push((name.clone(), p, count));
        }
        let mut counters = Vec::new();
        for (i, name) in self.counter_names.iter().enumerate() {
            let v = cell.sim.metrics().counter(name);
            counters.push((name.clone(), v - self.last_counters[i]));
            self.last_counters[i] = v;
        }
        WindowSnapshot {
            at,
            hists,
            counters,
        }
    }
}

/// The named histogram for writing, created empty if nothing has recorded
/// into it yet: what a warm-up discard (`.clear()`) or a test fixture
/// needs.
pub fn hist_mut<'a>(cell: &'a mut Cell, name: &str) -> &'a mut Histogram {
    let metrics = cell.sim.metrics_mut();
    let id = metrics.handle(name);
    metrics.hist_id(id)
}

/// Percentile `p` (ns) of the named histogram, read from the structure the
/// nodes recorded into; 0 when nothing has.
pub fn pctl_ns(cell: &Cell, name: &str, p: f64) -> u64 {
    cell.sim
        .metrics()
        .hist_ref(name)
        .map_or(0, |h| h.percentile(p))
}

/// [`pctl_ns`] scaled to microseconds.
pub fn pctl_us(cell: &Cell, name: &str, p: f64) -> f64 {
    pctl_ns(cell, name, p) as f64 / 1e3
}

/// Format nanoseconds as microseconds with one decimal.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// Aggregate Pony engine CPU across a set of nodes (clients or backends).
pub fn pony_cpu_ns(cell: &mut Cell, nodes: &[simnet::NodeId]) -> u64 {
    let mut total = 0;
    for &n in nodes {
        if let Some(v) = cell
            .sim
            .with_node::<BackendNode, _>(n, |b| b.transport.sw_cpu_ns())
        {
            total += v;
        } else if let Some(v) = cell
            .sim
            .with_node::<cliquemap::client::ClientNode, _>(n, |c| c.transport.sw_cpu_ns())
        {
            total += v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquemap::cell::CellSpec;
    use cliquemap::client::LookupStrategy;
    use cliquemap::config::ReplicationMode;
    use cliquemap::workload::ScriptWorkload;
    use simnet::SimDuration;

    #[test]
    fn populate_makes_keys_fetchable() {
        let mut spec = CellSpec {
            replication: ReplicationMode::R32,
            num_backends: 4,
            ..CellSpec::default()
        };
        spec.backend.store.num_buckets = 256;
        spec.backend.store.data_capacity = 4 << 20;
        spec.backend.store.max_data_capacity = 32 << 20;
        spec.client.strategy = LookupStrategy::TwoR;
        let gets: Vec<_> = (0..20u64)
            .map(|i| {
                (
                    SimDuration::from_micros(10 * i),
                    cliquemap::workload::ClientOp::Get {
                        key: Prefill::key_name("key", i),
                    },
                )
            })
            .collect();
        let mut cell = Cell::build(spec, vec![Box::new(ScriptWorkload::new(gets))]);
        populate_cell(&mut cell, "key", 20, &SizeDist::fixed(256));
        cell.run_for(SimDuration::from_secs(1));
        assert_eq!(cell.hits(), 20, "misses: {}", cell.misses());
        assert_eq!(cell.op_errors(), 0);
    }

    #[test]
    fn pctl_reads_the_recorded_histogram() {
        let mut cell = Cell::build(CellSpec::default(), vec![]);
        let fixture = hist_mut(&mut cell, "fixture");
        (0..1_000u64).for_each(|i| fixture.record(8_000 + 13 * i * i));
        for p in [50.0, 90.0, 99.0, 99.9] {
            let want = cell.sim.metrics().hist_ref("fixture").unwrap();
            assert_eq!(pctl_ns(&cell, "fixture", p), want.percentile(p));
            assert_eq!(
                pctl_us(&cell, "fixture", p),
                want.percentile(p) as f64 / 1e3
            );
        }
        assert!(pctl_ns(&cell, "fixture", 99.0) > pctl_ns(&cell, "fixture", 50.0));
        assert_eq!(pctl_ns(&cell, "no.such.hist", 99.0), 0);
    }

    #[test]
    fn window_sampler_clears_between_windows() {
        let spec = CellSpec::default();
        let mut cell = Cell::build(spec, vec![]);
        hist_mut(&mut cell, "x").record(100);
        let mut ws = WindowSampler::new(&["x"], &["c"]);
        let c = cell.sim.metrics_mut().handle("c");
        cell.sim.metrics_mut().add_id(c, 5);
        let s1 = ws.sample(&mut cell);
        assert_eq!(s1.hists[0].2, 1);
        assert_eq!(s1.counters[0].1, 5);
        let s2 = ws.sample(&mut cell);
        assert_eq!(s2.hists[0].2, 0, "histogram must clear");
        assert_eq!(s2.counters[0].1, 0, "counter delta resets");
    }
}
