//! One buffer per (key hash, version) for a whole cell.
//!
//! §5.2 makes a version name exactly one SET, so every holder of a
//! (key hash, version) pair in a cell holds the same bytes: the lease caches
//! of a cell hold one value buffer per cached pair
//! ([`SharedValues`](crate::client_cache::SharedValues)), and the replicas
//! of a SET one DataEntry buffer per committed pair
//! ([`SharedEntries`](crate::store::SharedEntries)). `Rows` is the table
//! both are: each pair's one buffer and how many hold it. A row leaves with
//! its last holder — a count, not a sweep.

use std::collections::hash_map::Entry;
use std::ops::Deref;

use simnet::IdMap;

use crate::hash::KeyHash;
use crate::version::VersionNumber;

/// What a table of `Rows` holds and has done.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SharedStats {
    /// Distinct (key hash, version) pairs resident now.
    pub entries: usize,
    /// Most pairs ever resident at once.
    pub entries_hwm: usize,
    /// Bytes held (one buffer per entry).
    pub bytes: usize,
    /// Claims that found their pair resident and shared its buffer.
    pub shared: u64,
    /// Claims that brought their pair's buffer in (first holder of their
    /// pair).
    pub copied: u64,
    /// Claims given back (`shared + copied − released` are held now; an
    /// entry leaves with its last one).
    pub released: u64,
}

/// The key of a row.
pub(crate) type Pair = (KeyHash, VersionNumber);

/// Each resident pair's one buffer and how many hold it (≥ 1, or the row
/// is gone).
#[derive(Debug)]
pub(crate) struct Rows<B> {
    map: IdMap<Pair, (B, u32)>,
    /// `map.capacity()` when it last grew (see [`Rows::make_room`]).
    room: usize,
    stats: SharedStats,
}

impl<B> Default for Rows<B> {
    fn default() -> Self {
        Rows {
            map: IdMap::default(),
            room: 0,
            stats: SharedStats::default(),
        }
    }
}

impl<B: Deref<Target = [u8]>> Rows<B> {
    /// Keep the map at most half full. Rows come and go at a steady size,
    /// and hashbrown clears the tombstones that leaves behind in place only
    /// below half of capacity — fuller, it reallocates to do it, which
    /// would put an allocation into a table that stopped growing.
    fn make_room(&mut self) {
        let need = 2 * (self.map.len() + 1);
        if need > self.room {
            self.map.reserve(need - self.map.len());
            self.room = self.map.capacity();
        }
    }

    pub(crate) fn stats(&self) -> SharedStats {
        self.stats
    }

    /// The buffer of `pair`, if some holder holds it.
    pub(crate) fn get(&self, pair: Pair) -> Option<&B> {
        self.map.get(&pair).map(|(buf, _)| buf)
    }

    /// One more holder of `pair`: the resident buffer when `same` confirms
    /// it, else — no row yet — a new row holding `fresh()`. A row whose
    /// buffer `same` refuses is left alone: `None`, and nothing is held.
    pub(crate) fn acquire(
        &mut self,
        pair: Pair,
        fresh: impl FnOnce() -> B,
        same: impl FnOnce(&B) -> bool,
    ) -> Option<&B> {
        self.make_room();
        let stats = &mut self.stats;
        match self.map.entry(pair) {
            Entry::Occupied(e) => {
                let (buf, holders) = e.into_mut();
                if !same(buf) {
                    return None;
                }
                *holders += 1;
                stats.shared += 1;
                Some(buf)
            }
            Entry::Vacant(e) => {
                let (buf, _) = e.insert((fresh(), 1));
                stats.copied += 1;
                stats.bytes += buf.len();
                stats.entries += 1;
                stats.entries_hwm = stats.entries_hwm.max(stats.entries);
                Some(buf)
            }
        }
    }

    /// One holder of `pair` lets go when `held` confirms the row's buffer
    /// is the one it holds; the last one takes the row, and its buffer,
    /// away. Whether the claim was given back.
    pub(crate) fn release(&mut self, pair: Pair, held: impl FnOnce(&B) -> bool) -> bool {
        let Entry::Occupied(mut e) = self.map.entry(pair) else {
            return false;
        };
        let (buf, holders) = e.get_mut();
        if !held(buf) {
            return false;
        }
        *holders -= 1;
        self.stats.released += 1;
        if *holders == 0 {
            self.stats.bytes -= buf.len();
            self.stats.entries -= 1;
            e.remove();
        }
        true
    }

    /// Host bytes of the map: its buckets, one control byte each. The
    /// buffers are the holder's to count.
    pub(crate) fn map_bytes(&self) -> usize {
        self.map.capacity() * (size_of::<(Pair, (B, u32))>() + 1)
    }

    /// Every row's buffer.
    pub(crate) fn buffers(&self) -> impl Iterator<Item = &B> {
        self.map.values().map(|(buf, _)| buf)
    }
}
