//! # baselines — the comparison systems CliqueMap is evaluated against
//!
//! * [`MemcacheGNode`] — "MemcacheG, a translation of Memcached using
//!   Stubby RPC as its transport" (§2.1): a pure-RPC KVCS where every GET
//!   pays the >50 CPU-µs framework floor on the serving path.
//! * [`memcacheg_cell`] — MemcacheG servers behind a config store, driven
//!   by `cliquemap`'s `ClientNode` at `LookupStrategy::Rpc`: the tree has
//!   one op-driver and one model of client-side RPC cost, so a comparison
//!   against a CliqueMap cell differs in the server alone.
//!
//! The MSG lookup strategy (two-sided messaging, Fig. 7) is implemented in
//! `cliquemap` itself (`LookupStrategy::Msg`) since it shares CliqueMap's
//! backend; this crate covers the fully separate RPC system.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod memcacheg;

pub use memcacheg::{memcacheg_cell, MemcacheGCell, MemcacheGCfg, MemcacheGNode};
