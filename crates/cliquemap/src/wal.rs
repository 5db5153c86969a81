//! Backend glue for the RAM-first durability engine (`durable` crate).
//!
//! CliqueMap proper is cache-semantics RAM-only: a backend crash loses the
//! shard and recovery is en-masse peer repair (§5.4). This module bolts the
//! ClawStore-style alternative onto a backend: every committed mutation is
//! appended to a per-backend WAL whose fsyncs ride the host's timed storage
//! device ([`simnet::DeviceCfg`]) under group commit, a trickle flusher
//! checkpoints the log prefix in device-idle gaps, and a revived backend
//! replays its [`durable::Media`] locally before running the usual Pull
//! recovery scan — which then only *delta*-repairs the un-fsynced tail
//! instead of re-fetching the whole shard over the fabric.
//!
//! Wholly opt-in: [`crate::backend::BackendCfg::durable`] is `None` by
//! default, and with it off no WAL type is ever constructed, no device op
//! issued, and every schedule is byte-identical to a build without the
//! subsystem.

use std::cell::RefCell;
use std::rc::Rc;

use durable::{GroupCommit, Media};
use simnet::SimDuration;

/// Default period at which the trickle flusher looks for an idle device
/// slot — the one default [`crate::cell::DurabilitySpec`] and
/// [`DurableCfg::new`] share.
pub const TRICKLE_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// Max WAL records checkpointed per trickle flush (bounds both the
/// checkpoint device write and the log-truncation step).
pub(crate) const TRICKLE_RECORDS: u64 = 256;
/// Replay CPU cost per recovered record at warm restart, ns.
pub(crate) const REPLAY_NS_PER_RECORD: u64 = 300;

/// Per-backend durability configuration.
#[derive(Clone, Debug)]
pub struct DurableCfg {
    /// The crash-surviving media (fsynced WAL + checkpoint snapshot). The
    /// cell builder keeps a handle to each backend's media so a reviver
    /// can hand the *same* media to the replacement node — that sharing is
    /// what makes a restart warm.
    pub media: Rc<RefCell<Media>>,
    /// How often the trickle flusher looks for an idle device slot.
    pub trickle_interval: SimDuration,
}

impl DurableCfg {
    /// Durability against `media` at the default trickle period.
    pub fn new(media: Rc<RefCell<Media>>) -> DurableCfg {
        DurableCfg {
            media,
            trickle_interval: TRICKLE_INTERVAL,
        }
    }
}

/// Live WAL state owned by one backend process. The [`GroupCommit`]
/// buffers are process RAM — a crash loses whatever hadn't fsynced, which
/// is exactly the delta the post-restart Pull scan repairs from peers.
#[derive(Debug)]
pub(crate) struct WalEngine {
    pub cfg: DurableCfg,
    pub gc: GroupCommit,
    /// Records covered by the checkpoint device write in flight, if any.
    pub trickle_inflight: Option<u64>,
}

impl WalEngine {
    pub(crate) fn new(cfg: DurableCfg) -> WalEngine {
        WalEngine {
            cfg,
            gc: GroupCommit::default(),
            trickle_inflight: None,
        }
    }
}
