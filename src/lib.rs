//! # cliquemap-repro — workspace umbrella
//!
//! Re-exports the member crates so the examples and integration tests at
//! the workspace root can reach everything through one dependency. Start
//! with [`cliquemap`] (the system itself) or the README's quickstart.
//!
//! | crate | role |
//! |---|---|
//! | [`simnet`] | deterministic discrete-event fabric simulator |
//! | [`rpc`] | production-flavoured RPC substrate (~50 CPU-µs/op) |
//! | [`rma`] | one-sided READ / SCAR, Pony Express, 1RMA, RDMA models |
//! | [`cliquemap`] | the hybrid RMA/RPC caching system |
//! | [`baselines`] | MemcacheG, the pure-RPC server, driven by `cliquemap`'s client |
//! | [`workloads`] | Ads/Geo generators, mixes, ramps, antagonists |
//! | `bench` | the figure-regeneration harness (named `bench`, which collides with rustc's built-in test framework path, so it is a direct dependency rather than a re-export) |

#![forbid(unsafe_code)]

pub use baselines;
pub use cliquemap;
pub use rma;
pub use rpc;
pub use simnet;
pub use workloads;
