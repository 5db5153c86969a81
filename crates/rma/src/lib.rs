//! # rma — remote memory access protocols over `simnet`
//!
//! The performance-critical half of CliqueMap's hybrid design: one-sided
//! READ (the 2×R building block), the custom Scan-and-Read (SCAR) op, and
//! the transport substrate they run on. Three transport profiles reproduce
//! the heterogeneity the paper evaluates:
//!
//! * **Pony Express** ([`pony`]) — a software NIC whose engines cost CPU,
//!   queue under load, and *scale out* to more cores (Fig. 15); the only
//!   transport programmable enough to host SCAR.
//! * **1RMA** — an all-hardware serving path: fixed NIC+PCIe latency,
//!   insensitive to load, no SCAR (Figs. 16/17).
//! * **RDMA** — a conventional hardware NIC.
//!
//! Backend memory is exposed through [`RegionTable`]: buffers (real bytes)
//! and revocable, generation-tagged windows (the unit of RMA registration).
//! Reads snapshot memory *as it is right now*, so a read racing a chunked
//! mutation observes a genuinely torn value — CliqueMap's checksum-based
//! self-validation is exercised for real, not faked.
//!
//! The eight RMA frames (READ and SCAR, requests and responses, single
//! and doorbell-batched) are written in [`simnet::wire`]'s field codec
//! ([`codec`]). A client encodes requests under op ids of its own and
//! reads each response through [`RmaAnswer`]; which ops are in flight is
//! its own business.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod pony;
pub mod region;
pub mod server;
pub mod transport;

pub use client::RmaAnswer;
pub use codec::{
    decode, encode_read_resp, encode_scar_resp, BatchDone, BatchReadEntry, BatchReadReq, BatchResp,
    BatchRespWriter, BatchScarEntry, BatchScarReq, ReadReq, ReadResp, RmaEnvelope, RmaStatus,
    ScarReq, ScarResp, RMA_MAGIC,
};
pub use pony::{PonyCfg, PonyHost};
pub use region::{BufferId, Pieces, RegionTable, WindowId};
pub use server::{serve, ScarOutcome, ScarResolver, Served};
pub use transport::{Transport, TransportKind};
