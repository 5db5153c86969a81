//! # rpc — a production-flavoured RPC framework over `simnet`
//!
//! Models the "Stubby" side of CliqueMap's hybrid design: a full-featured
//! request/response framework whose feature richness (authentication,
//! versioning, ACLs, logging, multi-language support) is *charged for* in
//! CPU microseconds rather than re-implemented line-by-line. The paper's
//! motivating number — an empty RPC costs **>50 CPU-µs across client and
//! server** — is the default [`RpcCostModel`].
//!
//! The crate provides the building blocks a simulated process composes:
//!
//! * [`codec`] — the binary envelope (version, method, auth, deadline),
//!   evolution-tolerant (trailing extensions are skipped by old decoders);
//! * [`Deferred`] — continuation storage keyed by CPU-completion tokens,
//!   so handlers run *after* their modelled CPU cost;
//! * [`RpcCostModel`] — where the 50 µs goes;
//! * [`RetryPolicy`] — an attempt budget, exponential backoff and a
//!   deadline, with the schedule they grant; the CliqueMap client's attempt
//!   core applies it.
//!
//! A caller keeps its calls in flight itself, under request ids that are
//! its [`Deferred::in_flight`] tokens.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod cost;
pub mod retry;

pub use codec::{
    decode, encode_request, encode_request_in, encode_response_in, version_compatible, Envelope,
    Request, Response, Status, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION, RPC_MAGIC,
};
pub use cost::RpcCostModel;
pub use retry::RetryPolicy;
pub use simnet::deferred::Deferred;
