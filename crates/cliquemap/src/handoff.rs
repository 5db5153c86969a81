//! Warm-spare handoff (§6.1) as a sans-IO core: inputs in, steps out.
//!
//! A primary told of planned maintenance hands its shard to a warm spare.
//! It snapshots its store, learns the cell config, and streams the snapshot
//! and then the *delta* — every write that commits meanwhile, ERASEs
//! included — to the spare one chunk at a time. Once the spare has acked
//! the last chunk it publishes the config with the spare in its place,
//! serves reads through a grace period while clients converge, and exits.
//!
//! One rule holds throughout: **a mutation is acked only where the shard's
//! owner will hold it.** Until the last chunk is cut, a write commits here
//! and joins the delta. From the cut on, [`Handoff::admit`] answers
//! [`Admit::Reject`] (the backend answers `WrongShard`, the store never
//! sees the write). A chunk that fails aborts the handoff, and this backend
//! is the owner again.
//!
//! This module decides exactly that and nothing else: it sends nothing,
//! counts nothing and keeps no clock. [`crate::backend`] feeds it inputs
//! and executes the steps it gets back, so every interleaving of a few
//! writes with a handoff is enumerable — `tests/handoff_exhaustive.rs`
//! enumerates them.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::config::CellConfig;
use crate::messages::MigrateChunk;
use crate::version::VersionNumber;

/// A backend, named by its node id as [`CellConfig::shards`] stores it.
pub type Peer = u32;

/// Entries per chunk.
pub const MIGRATE_BATCH: usize = 128;

/// A stored pair: key, value, version.
pub type Pair = (Bytes, Bytes, VersionNumber);

/// What the backend does next about the handoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A handoff is already under way: answer the prepare `Overloaded`.
    Busy,
    /// Answer the prepare `Ok` and ask the config store for the cell
    /// config; its answer goes to [`Handoff::config`].
    GetConfig,
    /// Send the chunk to the spare; its answer goes to
    /// [`Handoff::chunk_acked`] or [`Handoff::chunk_failed`].
    SendChunk(Peer, MigrateChunk),
    /// The spare holds the shard: restamp the buckets with this config's
    /// id and publish it to the config store; the answer goes to
    /// [`Handoff::published`].
    Publish(CellConfig),
    /// Keep serving reads for the grace period, then call
    /// [`Handoff::grace_expired`].
    StartGrace,
    /// Exit the process.
    Exit,
    /// The spare failed a chunk: the handoff is over and this backend owns
    /// its shard again.
    Aborted,
}

/// The answer to a write at its commit point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Commit it here (and report the commit to [`Handoff::committed`]).
    Accept,
    /// This backend will not hold the shard: refuse it `WrongShard`.
    Reject,
}

/// What is still to go to the spare, and where.
#[derive(Debug, Clone)]
struct Stream {
    spare: Peer,
    /// The snapshot, then the delta in commit order (`None`: an ERASE).
    queue: VecDeque<(Bytes, Option<Bytes>, VersionNumber)>,
    /// How many of `queue`'s front entries are the snapshot's: a chunk is
    /// cut from the snapshot or from the delta, never from both.
    snapshot_left: usize,
    /// The config to publish (the spare in this backend's place) and the
    /// shard: `None` until the config came, a chunk in flight since.
    target: Option<(CellConfig, u32)>,
}

#[derive(Debug, Clone, Default)]
enum Phase {
    #[default]
    Idle,
    /// Writes commit and join the delta.
    Open(Stream),
    /// The last chunk is cut and in flight: writes are refused.
    Cut(CellConfig),
    /// The config is being published.
    Publishing,
    /// Serving reads until the grace period ends.
    Grace,
    /// Gone: nothing follows.
    Exited,
}

/// One backend's handoff state: at most one handoff at a time.
#[derive(Debug, Clone, Default)]
pub struct Handoff {
    phase: Phase,
}

impl Handoff {
    /// Whether no handoff is under way (nor over: a backend that handed
    /// its shard away never is again).
    pub fn idle(&self) -> bool {
        matches!(self.phase, Phase::Idle)
    }

    /// Hand the shard to `spare`, starting from `snapshot` — every pair
    /// the store holds, asked only if no handoff is under way.
    pub fn prepare(&mut self, spare: Peer, snapshot: impl FnOnce() -> Vec<Pair>) -> Step {
        if !self.idle() {
            return Step::Busy;
        }
        let queue: VecDeque<_> = snapshot()
            .into_iter()
            .map(|(key, value, version)| (key, Some(value), version))
            .collect();
        self.phase = Phase::Open(Stream {
            spare,
            snapshot_left: queue.len(),
            queue,
            target: None,
        });
        Step::GetConfig
    }

    /// The config store answered with `config`; this backend serves
    /// `my_shard`. The first chunk, or nothing if the answer is not awaited.
    pub fn config(&mut self, mut config: CellConfig, my_shard: u32) -> Option<Step> {
        let Phase::Open(stream @ Stream { target: None, .. }) = &mut self.phase else {
            return None;
        };
        config.reassign(my_shard, stream.spare);
        config.spares.retain(|&s| s != stream.spare);
        stream.target = Some((config, my_shard));
        Some(self.cut())
    }

    /// The spare acked the chunk in flight: the next chunk, or — after the
    /// last — `Publish`.
    pub fn chunk_acked(&mut self) -> Option<Step> {
        match std::mem::take(&mut self.phase) {
            Phase::Open(stream) if stream.target.is_some() => {
                self.phase = Phase::Open(stream);
                Some(self.cut())
            }
            Phase::Cut(config) => {
                self.phase = Phase::Publishing;
                Some(Step::Publish(config))
            }
            other => {
                self.phase = other;
                None
            }
        }
    }

    /// The chunk in flight failed or timed out: abort, even past the cut.
    pub fn chunk_failed(&mut self) -> Option<Step> {
        let in_flight = match &self.phase {
            Phase::Open(stream) => stream.target.is_some(),
            Phase::Cut(_) => true,
            _ => false,
        };
        in_flight.then(|| {
            self.phase = Phase::Idle;
            Step::Aborted
        })
    }

    /// Asked at a write's commit point, before the store commits it.
    pub fn admit(&self) -> Admit {
        match self.phase {
            Phase::Idle | Phase::Open(_) => Admit::Accept,
            _ => Admit::Reject,
        }
    }

    /// The store committed `key` at `version`: a SET or CAS with `value`,
    /// or an ERASE (`None`). While the handoff is open it joins the delta.
    pub fn committed(&mut self, key: &[u8], value: Option<&[u8]>, version: VersionNumber) {
        if let Phase::Open(stream) = &mut self.phase {
            let (key, value) = (
                Bytes::copy_from_slice(key),
                value.map(Bytes::copy_from_slice),
            );
            stream.queue.push_back((key, value, version));
        }
    }

    /// The config store answered the publication.
    pub fn published(&mut self) -> Option<Step> {
        matches!(self.phase, Phase::Publishing).then(|| {
            self.phase = Phase::Grace;
            Step::StartGrace
        })
    }

    /// The grace period is over.
    pub fn grace_expired(&mut self) -> Option<Step> {
        matches!(self.phase, Phase::Grace).then(|| {
            self.phase = Phase::Exited;
            Step::Exit
        })
    }

    /// Cut the next chunk: up to [`MIGRATE_BATCH`] entries of the snapshot
    /// while any is left, then of the delta. It is the last when it leaves
    /// both empty.
    fn cut(&mut self) -> Step {
        let Phase::Open(stream) = &mut self.phase else {
            unreachable!("chunks are cut while the handoff is open");
        };
        let (config, shard) = stream.target.as_ref().expect("cut after the config");
        let n = match stream.snapshot_left {
            0 => stream.queue.len(),
            left => left,
        }
        .min(MIGRATE_BATCH);
        stream.snapshot_left = stream.snapshot_left.saturating_sub(n);
        let mut chunk = MigrateChunk {
            last: n == stream.queue.len(),
            shard: *shard,
            new_config_id: config.config_id,
            entries: Vec::with_capacity(n),
            erased: Vec::new(),
        };
        for (key, value, version) in stream.queue.drain(..n) {
            match value {
                Some(value) => chunk.entries.push((key, value, version)),
                None => chunk.erased.push((key, version)),
            }
        }
        let spare = stream.spare;
        if chunk.last {
            self.phase = Phase::Cut(config.clone());
        }
        Step::SendChunk(spare, chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationMode;

    fn pair(i: u32) -> Pair {
        (
            Bytes::from(format!("k{i}")),
            Bytes::from_static(b"v"),
            VersionNumber::new(1, 0, 1),
        )
    }

    fn config() -> CellConfig {
        CellConfig {
            config_id: 4,
            replication: ReplicationMode::R32,
            shards: vec![10, 11, 12],
            spares: vec![13],
        }
    }

    fn sent(step: Option<Step>) -> MigrateChunk {
        match step {
            Some(Step::SendChunk(13, chunk)) => chunk,
            other => panic!("{other:?}"),
        }
    }

    /// A snapshot goes out in bucket order, 128 entries a chunk; the delta
    /// follows in chunks of its own, and the last one carries the spare's
    /// identity under the new config.
    #[test]
    fn chunks_are_the_snapshot_then_the_delta() {
        let mut h = Handoff::default();
        let snapshot: Vec<_> = (0..200).map(pair).collect();
        assert_eq!(h.prepare(13, || snapshot.clone()), Step::GetConfig);
        assert_eq!(h.prepare(13, Vec::new), Step::Busy);
        let first = sent(h.config(config(), 0));
        assert_eq!(first.entries[..], snapshot[..MIGRATE_BATCH]);
        assert!(!first.last && first.erased.is_empty());
        h.committed(b"k0", None, VersionNumber::new(2, 0, 1));
        let second = sent(h.chunk_acked());
        assert_eq!(second.entries[..], snapshot[MIGRATE_BATCH..]);
        assert!(!second.last, "the delta is still to go");
        let third = sent(h.chunk_acked());
        assert!(third.last && third.entries.is_empty());
        assert_eq!(
            third.erased,
            [(Bytes::from_static(b"k0"), VersionNumber::new(2, 0, 1))]
        );
        assert_eq!((third.shard, third.new_config_id), (0, 5));
        assert_eq!(h.admit(), Admit::Reject);
        let Some(Step::Publish(published)) = h.chunk_acked() else {
            panic!("no publication");
        };
        assert_eq!(
            (published.shards, published.spares),
            (vec![13, 11, 12], vec![])
        );
        assert_eq!(h.published(), Some(Step::StartGrace));
        assert_eq!(h.grace_expired(), Some(Step::Exit));
        assert!(!h.idle());
    }
}
