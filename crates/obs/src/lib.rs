//! # obs — deterministic per-op tracing and latency attribution
//!
//! A zero-dependency observability subsystem for the CliqueMap simulator:
//! structured per-op traces recorded into bounded per-host flight-recorder
//! rings, a latency-attribution pass that decomposes each op's end-to-end
//! time into a fixed stage taxonomy, the tree's one latency [`Histogram`],
//! slow-op postmortems, an SLO burn-rate monitor, and Chrome trace-event
//! JSON export.
//!
//! ## Design constraints
//!
//! * **Leaf crate.** `obs` sits *below* `simnet` in the dependency graph so
//!   the engine can record into it; timestamps are therefore raw `u64`
//!   nanoseconds, not `SimTime`.
//! * **Zero overhead when off.** The recorder is held behind an
//!   `Option<Box<Recorder>>` by the engine; with no recorder installed
//!   every trace hook is a single branch and zero events are allocated, so
//!   a simulation without tracing is byte-identical to one built before
//!   this crate existed.
//! * **Deterministic.** Recording draws no randomness, schedules no
//!   events, and never perturbs simulation state. Two runs with the same
//!   seed produce bit-identical traces ([`fnv1a`] over a [`dump`] proves
//!   it in the repo's determinism suite).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attr;
pub mod chrome;
pub mod event;
pub mod histogram;
pub mod recorder;
pub mod report;

pub use attr::{attribute, Attribution};
pub use chrome::chrome_trace_json;
pub use event::{kind, stage, TraceEvent};
pub use histogram::Histogram;
pub use recorder::{OpTrace, Recorder};
pub use report::{BurnRate, Postmortem, Verdict};

/// Old name of [`Histogram`]. Only `benchmark/src/api.rs` still imports it
/// (its pinned API names `obs::Sketch`); the `benchmark` PR that moves the
/// pin drops this alias.
pub type Sketch = Histogram;

/// FNV-1a 64-bit hash (the repo's standard fingerprint for determinism
/// golden tests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize a batch of drained traces to a canonical text form, one event
/// per line. Used for golden/determinism tests and debugging; the format is
/// stable only within a repo revision.
pub fn dump(traces: &[OpTrace]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in traces {
        let _ = writeln!(
            out,
            "trace {:#x} start={} end={} outcome={}",
            t.trace, t.start, t.end, t.outcome
        );
        for e in &t.events {
            let _ = writeln!(
                out,
                "  h{} {} {} t0={} t1={} aux={}",
                e.host,
                kind::name(e.kind),
                stage::name(e.stage),
                e.t0,
                e.t1,
                e.aux
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Reference values for the canonical FNV-1a 64-bit parameters.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn dump_is_stable() {
        let t = OpTrace {
            trace: 0x10,
            start: 100,
            end: 200,
            outcome: 1,
            events: vec![TraceEvent {
                trace: 0x10,
                host: 2,
                stage: stage::FABRIC,
                kind: kind::INTERVAL,
                t0: 110,
                t1: 150,
                aux: 0,
            }],
        };
        let d = dump(&[t]);
        assert!(d.contains("trace 0x10 start=100 end=200 outcome=1"));
        assert!(d.contains("h2 interval fabric t0=110 t1=150 aux=0"));
    }
}
