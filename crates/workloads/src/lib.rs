//! # workloads — evaluation workload generators
//!
//! Deterministic generators of [`ClientOp`](cliquemap::workload::ClientOp)
//! streams for every experiment in the paper's evaluation:
//!
//! * [`SizeDist`] — the Ads/Geo object-size distributions (Fig. 10);
//! * [`Prefill`] / [`Then`] — corpus population before measurement;
//! * [`MixWorkload`] — GET/SET mixes and value-size sweeps (Figs. 18-20);
//! * [`RampWorkload`] — linear load ramps (Figs. 15-17);
//! * [`ProductionGets`] / [`ProductionSets`] — batched diurnal Ads/Geo
//!   traffic with steady writers and backfill bursts (Figs. 8-9);
//! * [`ProductionMultiSets`] — the write-side twin of [`ProductionGets`]:
//!   log-normal MultiSet batches for the doorbell-batched mutation path;
//! * [`SingleKeyGets`] — the Fig. 11 preferred-backend microbenchmark;
//! * [`SkewedWorkload`] — Zipfian skew (any exponent s ≥ 0) with an
//!   optional rotating hot set, for the hot-key experiments.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod generators;
pub mod sizes;
pub mod skew;

pub use generators::{
    MixWorkload, Prefill, ProductionGets, ProductionMultiSets, ProductionSets, RampWorkload,
    SingleKeyGets, Then,
};
pub use sizes::SizeDist;
pub use skew::{SkewedWorkload, ZipfRanks};
