//! Names, units, directions and bounds of every metric the ledger emits —
//! the one table `BENCHMARK.json`, the runner, `compare` and the README
//! are all written against.

use crate::api::{stage_names, FIGURE_IDS};
use crate::json::Json;
use crate::workloads::WORKLOADS;

/// How long one run measures (`run_seconds` in `BENCHMARK.json`); the
/// `run` and `traced` subcommands use it as their `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Value reported for an end-to-end metric on a workload it does not
/// apply to. The driver wants every metric on every workload and none at
/// zero; `1` reads as what it is and can never regress.
pub const NOT_APPLICABLE: f64 = 1.0;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit. `sim_ns` is simulated time; `s` is host on-CPU time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Exact for a fixed seed: identical on every rep, and `compare`
    /// fails on any difference between two runs of one seed.
    pub exact: bool,
    /// Reported as [`NOT_APPLICABLE`] on `figures_all`, whose `Sim`s the
    /// benchmark cannot see from outside.
    pub cells_only: bool,
}

/// The 11 end-to-end metrics, measured with tracing and allocation
/// counting off.
///
/// Every bound is at least three times the spread the metric showed over
/// ten seeds on its noisiest workload, where this box allows:
///
/// * host time (`run_cpu_s` and the two rates) is set by `cell950`, whose
///   1 GiB working set makes it follow the shared L3's other tenants:
///   reps sit at 3.1–3.4 s for minutes, then at 3.9–4.8 s (10–21 % spread
///   over ten runs, against 2–8 % on the other three workloads);
/// * `peak_rss_mib` and the `sim_*` metrics repeat exactly (RSS to 0.3 %)
///   for one seed and `compare` holds them to that; their bounds cover
///   the spread *across seeds*, which the driver's acceptance check
///   measures (`mut_durable`'s WAL bytes move RSS by 5 %; p99 hops between
///   adjacent ~3 % histogram buckets).
pub const E2E: [E2e; 11] = [
    // on-CPU seconds from child start to the first run_for / first experiment (Cell::build + populate_cell; loading reference CSVs)
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        cells_only: false,
    },
    // on-CPU seconds of the run phase only
    E2e {
        name: "run_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        cells_only: false,
    },
    // Sim::events_processed delta / run_cpu_s
    E2e {
        name: "events_per_cpu_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        cells_only: true,
    },
    // (gets_completed + sets_completed) / run_cpu_s: rewards fewer events per op as well as faster events
    E2e {
        name: "sim_ops_per_cpu_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        cells_only: true,
    },
    // child VmHWM at exit
    E2e {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
        cells_only: false,
    },
    // median of the cm.get.latency_ns histogram
    E2e {
        name: "sim_get_p50_ns",
        unit: "sim_ns",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        cells_only: true,
    },
    // p99 of the cm.get.latency_ns histogram
    E2e {
        name: "sim_get_p99_ns",
        unit: "sim_ns",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
        cells_only: true,
    },
    // median of the cm.set.latency_ns histogram
    E2e {
        name: "sim_set_p50_ns",
        unit: "sim_ns",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        cells_only: true,
    },
    // p99 of the cm.set.latency_ns histogram
    E2e {
        name: "sim_set_p99_ns",
        unit: "sim_ns",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
        cells_only: true,
    },
    // sum of HostStats::cpu_busy_ns over all hosts / completed ops: the paper's CPU-efficiency axis
    E2e {
        name: "sim_cpu_ns_per_op",
        unit: "sim_ns",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        cells_only: true,
    },
    // 1 - (cm.op_errors + cm.client.overload_drops) / ops attempted; figures_all: experiments whose CSV is byte-identical / experiments run
    E2e {
        name: "op_ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.0005,
        exact: true,
        cells_only: false,
    },
];

/// Where the call count behind a unit cost comes from, for the ceiling
/// table: `calls x unit cost / run_cpu_s` is the most a faster layer can
/// save on a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calls {
    /// Simulator events.
    Events,
    /// RMA frames the clients issued.
    RmaFrames,
    /// RMA ops the backends served.
    BackendRmaOps,
    /// GET keys resolved.
    GetKeys,
    /// Completed ops.
    Ops,
    /// Completed mutations.
    Sets,
    /// WAL appends.
    WalAppends,
    /// Not a per-call cost on the cells (or no outside count for it).
    None,
}

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
    /// Call-count source for the ceiling table (unit costs only).
    pub calls: Calls,
}

const fn unit_cost(
    name: &'static str,
    moves: &'static str,
    calls: Calls,
) -> (&'static str, &'static str, &'static str, Calls) {
    (name, "ns", moves, calls)
}

/// (A) Unit costs: name, unit, what they should move, call-count source.
/// `layers::run` measures each, in this order (a test holds them together).
pub const UNIT_COSTS: [(&str, &str, &str, Calls); 52] = [
    unit_cost(
        "simnet.queue.push_pop_4k_ns",
        "events_per_cpu_s on get_scar, mut_durable",
        Calls::Events,
    ),
    unit_cost(
        "simnet.queue.push_pop_48k_ns",
        "events_per_cpu_s on cell950",
        Calls::Events,
    ),
    unit_cost(
        "simnet.sim.frame_event_ns",
        "events_per_cpu_s on every cell",
        Calls::Events,
    ),
    unit_cost(
        "simnet.sim.timer_event_ns",
        "events_per_cpu_s on every cell",
        Calls::None,
    ),
    unit_cost(
        "simnet.sim.cpu_event_ns",
        "events_per_cpu_s on every cell",
        Calls::None,
    ),
    unit_cost(
        "simnet.sim.frame_event_950h_ns",
        "events_per_cpu_s on cell950 only",
        Calls::Events,
    ),
    unit_cost(
        "simnet.device.commit_event_ns",
        "run_cpu_s on mut_durable",
        Calls::None,
    ),
    unit_cost(
        "simnet.stats.hist_record_ns",
        "events_per_cpu_s on every cell",
        Calls::Ops,
    ),
    unit_cost(
        "simnet.stats.record_id_ns",
        "events_per_cpu_s on every cell",
        Calls::Ops,
    ),
    unit_cost(
        "simnet.rng.exponential_ns",
        "events_per_cpu_s on every cell",
        Calls::Ops,
    ),
    unit_cost(
        "bytes.pool.get_put_ns",
        "events_per_cpu_s on every cell",
        Calls::RmaFrames,
    ),
    unit_cost(
        "rma.codec.read_resp_enc_4k_ns",
        "sim_ops_per_cpu_s on mut_durable (2xR reads)",
        Calls::BackendRmaOps,
    ),
    unit_cost(
        "rma.codec.read_resp_dec_4k_ns",
        "sim_ops_per_cpu_s on mut_durable (2xR reads)",
        Calls::BackendRmaOps,
    ),
    unit_cost(
        "rma.codec.scar_req_enc_ns",
        "sim_ops_per_cpu_s on get_scar, cell950",
        Calls::RmaFrames,
    ),
    unit_cost(
        "rma.codec.scar_resp_dec_1k_ns",
        "sim_ops_per_cpu_s on get_scar, cell950",
        Calls::RmaFrames,
    ),
    unit_cost(
        "rma.region.read_window_1k_ns",
        "sim_ops_per_cpu_s on get_scar, cell950",
        Calls::BackendRmaOps,
    ),
    unit_cost(
        "rma.server.serve_scar_ns",
        "sim_ops_per_cpu_s on get_scar, cell950",
        Calls::BackendRmaOps,
    ),
    unit_cost(
        "rma.codec.batch_scar_req_enc_16_ns",
        "figures.batch.cpu_s, run_cpu_s on figures_all",
        Calls::None,
    ),
    unit_cost(
        "rma.codec.batch_scar_resp_dec_16_ns",
        "figures.batch.cpu_s, run_cpu_s on figures_all",
        Calls::None,
    ),
    unit_cost(
        "rpc.codec.request_enc_512_ns",
        "run_cpu_s on mut_durable",
        Calls::Sets,
    ),
    unit_cost(
        "rpc.codec.request_dec_512_ns",
        "run_cpu_s on mut_durable",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.layout.checksum_64_ns",
        "sim_ops_per_cpu_s on get_scar, mut_durable",
        Calls::GetKeys,
    ),
    (
        "cliquemap.layout.checksum_64k_gbps",
        "GB/s",
        "sim_ops_per_cpu_s on get_scar, mut_durable (large values)",
        Calls::None,
    ),
    unit_cost(
        "cliquemap.layout.entry_enc_1k_ns",
        "sim_ops_per_cpu_s on mut_durable",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.layout.entry_parse_1k_ns",
        "sim_ops_per_cpu_s on get_scar",
        Calls::GetKeys,
    ),
    unit_cost(
        "cliquemap.layout.scan_bucket_hit_ns",
        "sim_ops_per_cpu_s on get_scar",
        Calls::BackendRmaOps,
    ),
    unit_cost(
        "cliquemap.layout.scan_bucket_miss_ns",
        "sim_ops_per_cpu_s on mut_durable (evicted keys)",
        Calls::None,
    ),
    unit_cost(
        "cliquemap.hash.key_hash_ns",
        "sim_ops_per_cpu_s on get_scar, mut_durable",
        Calls::GetKeys,
    ),
    unit_cost(
        "cliquemap.store.lookup_ns",
        "sim_ops_per_cpu_s on get_scar",
        Calls::None,
    ),
    unit_cost(
        "cliquemap.store.fetch_hit_1k_ns",
        "sim_ops_per_cpu_s on get_scar",
        Calls::None,
    ),
    unit_cost(
        "cliquemap.store.set_1k_ns",
        "run_cpu_s on mut_durable",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.store.set_evict_2k_ns",
        "run_cpu_s on mut_durable",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.slab.alloc_free_1k_ns",
        "run_cpu_s on mut_durable",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.slab.churn_ns",
        "run_cpu_s on mut_durable",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.messages.set_req_enc_1k_ns",
        "run_cpu_s on mut_durable; MSG/RPC figures on figures_all",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.messages.set_req_dec_1k_ns",
        "run_cpu_s on mut_durable; MSG/RPC figures on figures_all",
        Calls::Sets,
    ),
    unit_cost(
        "cliquemap.messages.get_resp_dec_1k_ns",
        "MSG/RPC figures on figures_all",
        Calls::None,
    ),
    unit_cost(
        "cliquemap.client_cache.hit_ns",
        "sim_ops_per_cpu_s on cell950; figures.skew.cpu_s",
        Calls::None,
    ),
    unit_cost(
        "cliquemap.client_cache.insert_ns",
        "sim_ops_per_cpu_s on cell950; figures.skew.cpu_s",
        Calls::GetKeys,
    ),
    unit_cost(
        "cliquemap.policy.hot_record_ns",
        "figures.skew.cpu_s",
        Calls::None,
    ),
    unit_cost(
        "cliquemap.workload.value_for_1k_ns",
        "run_cpu_s on mut_durable (every SET synthesises its value)",
        Calls::Sets,
    ),
    (
        "cliquemap.cell.build_us_per_node",
        "us",
        "setup_s, peak_rss_mib on cell950",
        Calls::None,
    ),
    unit_cost(
        "durable.wal.append_record_256_ns",
        "run_cpu_s on mut_durable; figures.restart.cpu_s",
        Calls::WalAppends,
    ),
    unit_cost(
        "durable.wal.decode_stream_ns_per_rec",
        "figures.restart.cpu_s",
        Calls::None,
    ),
    unit_cost(
        "durable.group_commit.append_ns",
        "run_cpu_s on mut_durable; figures.restart.cpu_s",
        Calls::WalAppends,
    ),
    unit_cost(
        "obs.sketch.record_ns",
        "figures.adaptive.cpu_s, figures.trace.cpu_s; trace.overhead_share",
        Calls::None,
    ),
    unit_cost(
        "obs.sketch.quantile_ns",
        "figures.adaptive.cpu_s, figures.trace.cpu_s",
        Calls::None,
    ),
    unit_cost(
        "adaptive.controller.choose_ns",
        "figures.adaptive.cpu_s",
        Calls::None,
    ),
    unit_cost(
        "adaptive.controller.observe_ns",
        "figures.adaptive.cpu_s",
        Calls::None,
    ),
    unit_cost(
        "workloads.zipf.sample_ns",
        "sim_ops_per_cpu_s on get_scar; figures.skew.cpu_s",
        Calls::GetKeys,
    ),
    unit_cost(
        "workloads.production_gets.next_ns",
        "sim_ops_per_cpu_s on get_scar",
        Calls::Ops,
    ),
    unit_cost(
        "workloads.mix.next_ns",
        "sim_ops_per_cpu_s on mut_durable",
        Calls::Ops,
    ),
];

/// (B) Exact counts from one traced rep of a cell.
const COUNTS: [(&str, &str, Better, &str); 15] = [
    (
        "events_per_op",
        "count",
        Better::Lower,
        "sim_ops_per_cpu_s on the cell where it changes",
    ),
    (
        "allocs_per_event",
        "count",
        Better::Lower,
        "events_per_cpu_s on the cell where it changes",
    ),
    (
        "alloc_bytes_per_event",
        "B",
        Better::Lower,
        "events_per_cpu_s, peak_rss_mib on the cell where it changes",
    ),
    (
        "simnet.queue.hwm",
        "count",
        Better::Lower,
        "events_per_cpu_s, peak_rss_mib on cell950",
    ),
    (
        "simnet.pending_pool.len",
        "count",
        Better::Lower,
        "peak_rss_mib on cell950",
    ),
    (
        "rma_frames_per_get",
        "count",
        Better::Lower,
        "sim_ops_per_cpu_s, sim_cpu_ns_per_op on get_scar, cell950",
    ),
    (
        "backend_rma_ops_per_get",
        "count",
        Better::Lower,
        "sim_ops_per_cpu_s on get_scar, cell950",
    ),
    (
        "retries_per_op",
        "count",
        Better::Lower,
        "sim_get_p99_ns, sim_set_p99_ns on mut_durable",
    ),
    (
        "rpc_bytes_per_op",
        "B",
        Better::Lower,
        "sim_set_p50_ns on mut_durable",
    ),
    (
        "wire_bytes_per_op",
        "B",
        Better::Lower,
        "sim_get_p50_ns, sim_set_p50_ns on every cell",
    ),
    (
        "get_hit_share",
        "ratio",
        Better::Higher,
        "nothing on get_scar, cell950 (always 1); eviction policy on mut_durable",
    ),
    (
        "ccache_hit_share",
        "ratio",
        Better::Higher,
        "sim_get_p50_ns, events_per_op on cell950",
    ),
    (
        "wal_appends_per_set",
        "count",
        Better::Lower,
        "run_cpu_s on mut_durable",
    ),
    (
        "wal_fsyncs_per_set",
        "count",
        Better::Lower,
        "sim_set_p99_ns on mut_durable",
    ),
    (
        "trace.overhead_share",
        "ratio",
        Better::Lower,
        "nothing end to end (tracing is off there); bounds what obs may cost",
    ),
];

/// (E) Host diagnostics of the traced rep.
const HOST_DIAGNOSTICS: [(&str, &str, &str); 3] = [
    (
        "host.run_wall_s",
        "s",
        "should track run_cpu_s; a gap is the box, not the code",
    ),
    (
        "host.runq_wait_share",
        "ratio",
        "a rep above 0.05 is flagged disturbed",
    ),
    (
        "host.slice_ns_per_event_max",
        "ns",
        "events_per_cpu_s on cell950 (the cold-start herd slice)",
    ),
];

/// Name of the (C) share metric of one `obs` stage.
pub fn stage_metric(stage: &str) -> String {
    format!("obs.stage.{stage}_share")
}

/// Name of the (D) per-figure metric.
pub fn figure_metric(id: &str) -> String {
    format!("figures.{id}.cpu_s")
}

/// All 107 per-layer metrics, in ledger order: unit costs, counts, stage
/// shares, per-figure host time, host diagnostics.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = Vec::new();
    for (name, unit, moves, calls) in UNIT_COSTS {
        out.push(Layer {
            name: name.to_string(),
            unit,
            better: if unit == "GB/s" {
                Better::Higher
            } else {
                Better::Lower
            },
            moves,
            calls,
        });
    }
    for (name, unit, better, moves) in COUNTS {
        out.push(Layer {
            name: name.to_string(),
            unit,
            better,
            moves,
            calls: Calls::None,
        });
    }
    for stage in stage_names() {
        out.push(Layer {
            name: stage_metric(stage),
            unit: "ratio",
            // A share has no better direction; the schema wants one.
            better: Better::Lower,
            moves: "which stage a model change to sim_get_p99_ns / sim_set_p99_ns must come from",
            calls: Calls::None,
        });
    }
    for id in FIGURE_IDS {
        out.push(Layer {
            name: figure_metric(id),
            unit: "s",
            better: Better::Lower,
            moves: "run_cpu_s on figures_all",
            calls: Calls::None,
        });
    }
    for (name, unit, moves) in HOST_DIAGNOSTICS {
        out.push(Layer {
            name: name.to_string(),
            unit,
            better: Better::Lower,
            moves,
            calls: Calls::None,
        });
    }
    out
}

/// The `BENCHMARK.json` this package is written to, generated from the
/// tables above (`cmbench describe` prints it; a test holds the committed
/// file to it).
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
        .collect();
    let end_to_end = E2E
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name.as_str())),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_fit_the_contract() {
        let layers = per_layer();
        assert_eq!(E2E.len(), 11);
        assert_eq!(layers.len(), 107);
        assert!(WORKLOADS.len() <= 8 && E2E.len() <= 16 && layers.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for m in &E2E {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().render().len() <= 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cmbench describe`"
        );
    }
}
