//! # cliquemap — a hybrid RMA/RPC distributed in-memory key-value cache
//!
//! A from-scratch Rust implementation of the system described in
//! *"CliqueMap: Productionizing an RMA-Based Distributed Caching System"*
//! (Singhvi et al., SIGCOMM 2021), running over the deterministic
//! [`simnet`] fabric simulator.
//!
//! ## The design, in one paragraph
//!
//! GETs travel the **RMA fast path**: one-sided reads of an associative
//! hash table ([`layout`]: Buckets of IndexEntries pointing into a data
//! region of checksummed DataEntries), either as two sequential reads
//! (2×R) or a single programmable-NIC Scan-and-Read (SCAR). Everything
//! else — mutations, memory management, repair, migration, configuration —
//! rides on **RPC**, where server-side code can use ordinary logic. The
//! glue that makes the combination safe is **self-validating responses
//! plus client retries**: every DataEntry carries an end-to-end checksum,
//! every bucket carries the cell's config id, every window carries a
//! generation, and a client that reads something stale, torn, or moved
//! simply detects it and retries at the right layer.
//!
//! ## Module map
//!
//! | paper section | module |
//! |---|---|
//! | §3 layout & self-validation | [`layout`], [`hash`], [`read`] (a GET's answers judged) |
//! | §3 GET/SET basics | [`client`], [`backend`] |
//! | §3 retries under a deadline and a budget | [`attempt`] (the rules), [`client`] (the I/O) |
//! | §4.1 allocation & reshaping | [`slab`], [`store`] |
//! | §4.2 eviction | [`policy`], [`tombstone`], [`lru`] (the one recency list) |
//! | §5 replication & quorums | [`config`], [`version`], [`quorum`] (the rules), [`client`] (the I/O) |
//! | §5 the contract, checked over a cell's opt-in op history | [`history`] |
//! | §5.4 repairs | [`repair`] (the rules), [`backend`] (the I/O) |
//! | §6.1 warm spares | [`handoff`] (the rules), [`backend`] (the I/O), [`cell`] |
//! | §6.2 language shims | [`shim`] |
//! | §6.3 SCAR | [`store`] (resolver), [`client`] |
//! | §6.4 R=2/Immutable | [`config`], [`client`] |
//! | deployment wiring | [`cell`], [`workload`] |
//!
//! ## Quickstart
//!
//! ```
//! use cliquemap::cell::{Cell, CellSpec};
//! use cliquemap::workload::{ClientOp, ScriptWorkload};
//! use bytes::Bytes;
//! use simnet::SimDuration;
//!
//! let spec = CellSpec::default(); // 3 backends, R=3.2
//! let script = ScriptWorkload::new(vec![
//!     (SimDuration::ZERO, ClientOp::Set {
//!         key: Bytes::from_static(b"hello"),
//!         value: Bytes::from_static(b"world"),
//!     }),
//!     (SimDuration::from_micros(500), ClientOp::Get {
//!         key: Bytes::from_static(b"hello"),
//!     }),
//! ]);
//! let mut cell = Cell::build(spec, vec![Box::new(script)]);
//! cell.run_for(SimDuration::from_secs(1));
//! assert_eq!(cell.hits(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::LazyLock;

use rpc::RpcCostModel;

/// Full-framework RPC cost model (mutations, control RPCs, the RPC lookup
/// strategy), charged by clients and backends alike.
pub(crate) static RPC_COST: LazyLock<RpcCostModel> = LazyLock::new(RpcCostModel::default);
/// Lean two-sided messaging cost model (MSG lookups): the RPC model at 6 %.
pub(crate) static MSG_COST: LazyLock<RpcCostModel> =
    LazyLock::new(|| RpcCostModel::default().scaled(0.06));

pub mod attempt;
pub mod backend;
pub mod cell;
pub mod client;
pub mod client_cache;
pub mod config;
pub mod handoff;
pub mod hash;
pub mod history;
pub mod layout;
pub mod lru;
pub mod messages;
pub mod policy;
pub mod quorum;
pub mod read;
pub mod repair;
pub mod shim;
pub mod slab;
pub mod store;
pub mod tombstone;
pub mod version;
pub mod wal;
pub mod workload;
