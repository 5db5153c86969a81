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
//! * [`CallTable`] — client-side in-flight call tracking, response
//!   matching, deadline expiry;
//! * [`Deferred`] — continuation storage keyed by CPU-completion tokens,
//!   so handlers run *after* their modelled CPU cost;
//! * [`RpcCostModel`] — where the 50 µs goes;
//! * [`RetryPolicy`] — attempt budgets + exponential backoff + deadlines,
//!   shared with the CliqueMap client's layered retry scheme.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod call;
pub mod codec;
pub mod cost;
pub mod retry;

pub use call::{CallTable, Completion, Outstanding, CALL_TIMER_BASE};
pub use codec::{
    decode, encode_request, encode_request_in, encode_response_in, version_compatible, Envelope,
    Request, Response, Status, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION, RPC_MAGIC,
};
pub use cost::RpcCostModel;
pub use retry::{RetryDecision, RetryPolicy, RetryState};
pub use simnet::deferred::Deferred;
