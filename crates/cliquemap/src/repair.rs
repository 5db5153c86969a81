//! Cohort repair (§5.4) as a sans-IO core: inputs in, steps out.
//!
//! A backend restores its replicas by scanning its *cohort* — the backends
//! whose replica sets overlap its own — one peer at a time, a page of
//! (KeyHash, version) pairs per round trip ("detected via KeyHash exchange
//! to minimize overhead"). Once a peer's last page is in, the scanner
//! reconciles that peer's inventory with its own state: a periodic **Push**
//! scan repairs every key the peer should hold but is missing or holds
//! stale, by installing it at a fresh version at every replica; a
//! post-restart **Pull** scan fetches every key the scanner should hold and
//! the peer holds newer. Either way, a peer's tombstone at or above the
//! scanner's live version means the *scanner* is the stale copy: it erases
//! its own.
//!
//! This module decides exactly that and nothing else: it sends nothing,
//! counts nothing and draws no randomness. [`crate::backend`] feeds it
//! config and page answers and executes the steps it gets back, so every
//! small cohort is enumerable — and `tests/repair_exhaustive.rs` enumerates
//! them.

use std::collections::BTreeMap;

use crate::config::CellConfig;
use crate::hash::{place, KeyHash};
use crate::messages::ScanPage;
use crate::version::VersionNumber;

/// A backend, named by its node id as [`CellConfig::shards`] stores it.
pub type Peer = u32;

/// Why a backend is talking to its cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Periodic scan: push repairs to dirty cohort members.
    #[default]
    Push,
    /// Post-restart recovery: pull what the cohort holds newer.
    Pull,
}

/// What the backend does next about a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Ask the config store for the cell config; its answer goes to
    /// [`Repair::config`].
    GetConfig,
    /// Ask `peer` for page `page` of its inventory; tag the call with
    /// `scan` and hand the answer to [`Repair::page`] (or its failure to
    /// [`Repair::page_failed`]).
    RequestPage {
        /// The peer being scanned.
        peer: Peer,
        /// Page number.
        page: u32,
        /// The scan the page belongs to.
        scan: u32,
    },
    /// Pull: fetch `hash`'s pair from `peer` and install it.
    Fetch {
        /// Who holds it newer.
        peer: Peer,
        /// The key.
        hash: KeyHash,
    },
    /// Pull: one peer's reconcile is over, having asked for `fetches` pairs.
    Pulled {
        /// `Fetch` steps this reconcile emitted.
        fetches: u32,
    },
    /// Push: a dirty quorum — install this node's copy of `hash` at a fresh
    /// version at every replica.
    Repair {
        /// The key.
        hash: KeyHash,
    },
    /// A peer erased `hash` at `version`, at or above the copy this node
    /// holds: erase it here too.
    EraseLocal {
        /// The key.
        hash: KeyHash,
        /// The peer's tombstone version.
        version: VersionNumber,
    },
    /// The scan is over.
    Done,
}

/// The scan in progress.
#[derive(Debug)]
struct Scan {
    mode: Mode,
    /// This backend.
    me: Peer,
    peers: Vec<Peer>,
    current: usize,
    page: u32,
    /// The current peer's inventory so far: the highest live version and
    /// the highest tombstone it reported per key.
    live: BTreeMap<KeyHash, VersionNumber>,
    erased: BTreeMap<KeyHash, VersionNumber>,
}

/// One backend's cohort-scan state: at most one scan runs at a time, and
/// each scan has a generation its page requests carry.
#[derive(Debug, Default)]
pub struct Repair {
    /// The mode the next scan runs in (the last one begun).
    next: Mode,
    /// The current (or last) scan's generation.
    generation: u32,
    scan: Option<Scan>,
}

impl Repair {
    /// Whether a scan is collecting pages.
    pub fn running(&self) -> bool {
        self.scan.is_some()
    }

    /// Start a scan in `mode`: it runs once the config answer arrives.
    pub fn begin(&mut self, mode: Mode) -> Step {
        self.next = mode;
        Step::GetConfig
    }

    /// The config store answered. Starts the scan over `me`'s cohort under
    /// `config` (`Done` at once if it is empty); answers nothing while a
    /// scan already runs, which keeps its cohort.
    pub fn config(&mut self, config: &CellConfig, my_shard: u32, me: Peer) -> Vec<Step> {
        if self.scan.is_some() {
            return Vec::new();
        }
        let peers = cohort(config, my_shard, me);
        if peers.is_empty() {
            return vec![Step::Done];
        }
        self.generation = self.generation.wrapping_add(1);
        self.scan = Some(Scan {
            mode: self.next,
            me,
            peers,
            current: 0,
            page: 0,
            live: BTreeMap::new(),
            erased: BTreeMap::new(),
        });
        vec![self.request()]
    }

    /// Page `page` of `peer`'s inventory, asked for by scan `scan`. Not the
    /// page the running scan waits for: nothing (the answer is dropped).
    /// Otherwise the next request, or — on the peer's last page — the
    /// reconcile's steps and then the next request or `Done`. The scanner's
    /// state comes in as `live_pairs` (Push: every pair it holds live, in
    /// bucket order) and `live_version` (Pull: the version it holds a key
    /// live at, zero if none); each is asked only when its mode reconciles.
    pub fn page(
        &mut self,
        scan: u32,
        peer: Peer,
        page: ScanPage,
        config: &CellConfig,
        live_pairs: impl FnOnce() -> Vec<(KeyHash, VersionNumber)>,
        live_version: impl Fn(KeyHash) -> VersionNumber,
    ) -> Vec<Step> {
        let Some(s) = self.current(scan, peer) else {
            return Vec::new();
        };
        fold(&mut s.live, page.pairs);
        fold(&mut s.erased, page.tombstones);
        if !page.done {
            s.page += 1;
            return vec![self.request()];
        }
        let mut steps = match s.mode {
            Mode::Push => s.push(config, peer, live_pairs()),
            Mode::Pull => s.pull(config, peer, live_version),
        };
        steps.push(self.advance());
        steps
    }

    /// Scan `scan`'s page request to `peer` failed: skip the peer. Nothing
    /// if that is not the page the running scan waits for.
    pub fn page_failed(&mut self, scan: u32, peer: Peer) -> Vec<Step> {
        match self.current(scan, peer) {
            Some(_) => vec![self.advance()],
            None => Vec::new(),
        }
    }

    /// The running scan, if it is `scan` and waits on `peer`.
    fn current(&mut self, scan: u32, peer: Peer) -> Option<&mut Scan> {
        let generation = self.generation;
        self.scan
            .as_mut()
            .filter(|s| scan == generation && s.peers[s.current] == peer)
    }

    fn request(&self) -> Step {
        let s = self.scan.as_ref().expect("a scan is running");
        Step::RequestPage {
            peer: s.peers[s.current],
            page: s.page,
            scan: self.generation,
        }
    }

    /// On to the next peer, or the end of the scan.
    fn advance(&mut self) -> Step {
        let s = self.scan.as_mut().expect("a scan is running");
        s.current += 1;
        s.page = 0;
        s.live.clear();
        s.erased.clear();
        if s.current < s.peers.len() {
            return self.request();
        }
        self.scan = None;
        Step::Done
    }
}

impl Scan {
    /// Keys this node holds that `peer` should hold: a peer tombstone at or
    /// above ours erases ours; missing (no such tombstone) or older at the
    /// peer is a dirty quorum.
    fn push(
        &self,
        config: &CellConfig,
        peer: Peer,
        local: Vec<(KeyHash, VersionNumber)>,
    ) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut erases = Vec::new();
        for (hash, version) in local {
            if !holds(config, peer, hash) {
                continue;
            }
            if let Some(erase) = self.erase(hash, version) {
                erases.push(erase);
            } else if self.live.get(&hash).is_none_or(|&pv| pv < version) {
                steps.push(Step::Repair { hash });
            }
        }
        steps.extend(erases);
        steps
    }

    /// Keys the peer holds that this node should hold newer (ascending hash
    /// order), then keys the peer erased that this node holds live.
    fn pull(
        &self,
        config: &CellConfig,
        peer: Peer,
        live_version: impl Fn(KeyHash) -> VersionNumber,
    ) -> Vec<Step> {
        let mut steps = Vec::new();
        for (&hash, &version) in &self.live {
            if holds(config, self.me, hash) && live_version(hash) < version {
                steps.push(Step::Fetch { peer, hash });
            }
        }
        let fetches = steps.len() as u32;
        steps.push(Step::Pulled { fetches });
        for &hash in self.erased.keys() {
            let local = live_version(hash);
            if local != VersionNumber::ZERO && holds(config, self.me, hash) {
                steps.extend(self.erase(hash, local));
            }
        }
        steps
    }

    /// The tombstone rule: the peer erased `hash` at or above `version`,
    /// the version this node holds it live at.
    fn erase(&self, hash: KeyHash, version: VersionNumber) -> Option<Step> {
        let &t = self.erased.get(&hash).filter(|&&t| t >= version)?;
        Some(Step::EraseLocal { hash, version: t })
    }
}

/// Fold `pairs` into `into`, keeping the highest version per key.
fn fold(into: &mut BTreeMap<KeyHash, VersionNumber>, pairs: Vec<(KeyHash, VersionNumber)>) {
    for (hash, version) in pairs {
        let e = into.entry(hash).or_insert(version);
        *e = (*e).max(version);
    }
}

/// Whether `node` is one of `hash`'s replicas under `config`.
fn holds(config: &CellConfig, node: Peer, hash: KeyHash) -> bool {
    let shard = place(hash, config.num_shards(), 1).shard;
    config.replicas_for(shard).iter().any(|r| r.0 == node)
}

/// The backends whose replica sets overlap shard `my_shard`'s (served by
/// `me`): shards within ±(R−1), nearest first, each once. Empty without
/// replication or a shard.
pub fn cohort(config: &CellConfig, my_shard: u32, me: Peer) -> Vec<Peer> {
    let copies = config.replication.copies();
    let n = config.num_shards();
    if copies <= 1 || my_shard >= n {
        return Vec::new();
    }
    let mut peers = Vec::new();
    for d in 1..copies {
        for s in [(my_shard + d) % n, (my_shard + n - d) % n] {
            let node = config.shards[s as usize];
            if node != me && !peers.contains(&node) {
                peers.push(node);
            }
        }
    }
    peers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationMode;

    fn cell(shards: u32) -> CellConfig {
        CellConfig {
            config_id: 1,
            replication: ReplicationMode::R32,
            shards: (0..shards).map(|s| 10 + s).collect(),
            spares: Vec::new(),
        }
    }

    fn last_page(pairs: Vec<(KeyHash, VersionNumber)>) -> ScanPage {
        ScanPage {
            page: 0,
            done: true,
            pairs,
            tombstones: Vec::new(),
        }
    }

    #[test]
    fn cohort_is_every_overlapping_replica_set_once() {
        assert_eq!(cohort(&cell(3), 0, 10), [11, 12]);
        assert_eq!(cohort(&cell(4), 1, 11), [12, 10, 13]);
        assert_eq!(cohort(&cell(6), 2, 12), [13, 11, 14, 10]);
        assert!(cohort(&cell(3), u32::MAX, 10).is_empty(), "no shard");
        let r1 = CellConfig {
            replication: ReplicationMode::R1,
            ..cell(3)
        };
        assert!(cohort(&r1, 0, 10).is_empty(), "no replication");
    }

    /// A scan has an identity: a second config answer does not restart the
    /// running scan, and a page answered for an earlier scan — even from
    /// the peer the current one waits on — is dropped, not merged.
    #[test]
    fn a_page_for_another_scan_is_dropped() {
        let config = cell(3);
        let mut r = Repair::default();
        assert_eq!(r.begin(Mode::Push), Step::GetConfig);
        let first = r.config(&config, 0, 10);
        let [Step::RequestPage {
            peer: 11,
            page: 0,
            scan,
        }] = first[..]
        else {
            panic!("{first:?}");
        };
        // A second answer while it runs: the scan keeps going.
        assert_eq!(r.begin(Mode::Pull), Step::GetConfig);
        assert!(r.config(&config, 0, 10).is_empty());
        assert!(r.running());
        // Peer 11 fails; the scan moves on to peer 12.
        assert_eq!(
            r.page_failed(scan, 11),
            [Step::RequestPage {
                peer: 12,
                page: 0,
                scan
            }]
        );
        // A late answer from 11, and answers tagged with another scan.
        let none = || Vec::new();
        let zero = |_| VersionNumber::ZERO;
        let page = || last_page(vec![(7, VersionNumber(1))]);
        assert!(r.page(scan, 11, page(), &config, none, zero).is_empty());
        assert!(r.page(scan + 1, 12, page(), &config, none, zero).is_empty());
        assert!(r.page_failed(scan.wrapping_sub(1), 12).is_empty());
        // The page it waits for ends the scan (Push: nothing held here).
        let steps = r.page(scan, 12, page(), &config, none, zero);
        assert_eq!(steps, [Step::Done]);
        assert!(!r.running());
        assert!(r.page(scan, 12, page(), &config, none, zero).is_empty());
        // The next scan runs in the mode last begun, under a new identity.
        let next = r.config(&config, 0, 10);
        assert!(matches!(next[..], [Step::RequestPage { scan: s, .. }] if s != scan));
        assert!(r.scan.as_ref().is_some_and(|s| s.mode == Mode::Pull));
    }
}
