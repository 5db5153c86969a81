//! # bench — the evaluation harness
//!
//! Regenerates every table and figure in the CliqueMap paper's evaluation
//! (§7) as printed series. Each experiment in [`experiments`] builds a
//! cell, drives the paper's workload, and prints the same rows/series the
//! figure plots. Run them all with `cargo run --release -p bench --bin
//! figures -- all`, or name individual experiments (`f7 f11 ...`).
//!
//! Absolute numbers come from the simulator's calibrated cost models, so
//! they are not the paper's testbed numbers — the *shapes* (who wins, by
//! what factor, where crossovers fall) are the reproduction target. See
//! `EXPERIMENTS.md` at the workspace root for the paper-vs-measured
//! comparison of every figure.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod simcore;

pub use harness::{populate_cell, Report, WindowSampler};

/// An experiment's entry point.
type Runner = fn() -> Report;

/// Every experiment, in figure order: its id and entry point. The one
/// table both [`ALL_EXPERIMENTS`] and [`run_experiment`] read, so an
/// experiment cannot be listed but unrunnable.
const EXPERIMENTS: [(&str, Runner); 29] = [
    ("f3", experiments::f3::run),
    ("f6", experiments::f6::run),
    ("f7", experiments::f7::run),
    ("f8", experiments::f8::run),
    ("f9", experiments::f9::run),
    ("f10", experiments::f10::run),
    ("f11", experiments::f11::run),
    ("f12", experiments::f12::run),
    ("f13", experiments::f13::run),
    ("f14", experiments::f14::run),
    ("f15", experiments::f15::run),
    ("f16", experiments::f16::run),
    ("f17", experiments::f17::run),
    ("f18", experiments::f18::run),
    ("f19", experiments::f19::run),
    ("f20", experiments::f20::run),
    ("xa", experiments::xa::run),
    ("xb", experiments::xb::run),
    ("a1", experiments::ablations::a1),
    ("a2", experiments::ablations::a2),
    ("a3", experiments::ablations::a3),
    ("a4", experiments::ablations::a4),
    ("a5", experiments::ablations::a5),
    ("chaos", experiments::chaos::run),
    ("trace", experiments::trace::run),
    ("skew", experiments::skew::run),
    ("batch", experiments::batch::run),
    ("restart", experiments::restart::run),
    ("adaptive", experiments::adaptive::run),
];

/// All experiment ids, in figure order.
pub const ALL_EXPERIMENTS: &[&str] = &{
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Run one experiment by id.
pub fn run_experiment(id: &str) -> Report {
    match EXPERIMENTS.iter().find(|(known, _)| *known == id) {
        Some((_, run)) => run(),
        None => panic!("unknown experiment {id:?}; known: {ALL_EXPERIMENTS:?}"),
    }
}
