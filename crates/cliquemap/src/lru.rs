//! The one recency list: keys oldest to newest, found by key in O(1). A
//! backend's §4.2 LRU ([`crate::policy::LruPolicy`]), the client lease cache
//! ([`crate::client_cache::ClientCache`]) and the §5.2 FIFO tombstone cache
//! ([`crate::tombstone::TombstoneCache`]) are each one of these.
//!
//! An intrusive doubly-linked list through one `Vec` of nodes, with a free
//! list, behind an open-addressed key → node index. Nothing allocates once
//! storage reaches the live-key high-water mark: nodes start empty and
//! double (from four nodes) up to the list's bound, and each time the
//! index is rebuilt at twice their number rounded up to a power of two, so
//! it is at most half full and every probe ends. A push into a full list
//! first lets go of its oldest key.

use std::mem::size_of;

use crate::hash::KeyHash;

/// "No node": list ends, the empty free list and empty index buckets.
const NIL: u32 = u32::MAX;

/// Node storage never starts smaller than this (one allocation covers the
/// first few pushes).
pub(crate) const MIN_SLOTS: usize = 4;

/// One held key and its value, linked into the list (or into the free list,
/// through `next` alone).
#[derive(Debug)]
pub(crate) struct Node<T> {
    key: KeyHash,
    value: T,
    prev: u32,
    next: u32,
}

/// Keys oldest to newest, each with a value, behind a key index.
#[derive(Debug)]
pub struct RecencyList<T> {
    nodes: Vec<Node<T>>,
    /// Open-addressed (linear probing, backward-shift deletion) table of
    /// node numbers, `NIL` = empty.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: a key's home bucket is the top bits of its
    /// mixed hash.
    shift: u32,
    /// Oldest and newest key.
    head: u32,
    tail: u32,
    free: u32,
    len: u32,
    /// Most keys held at once.
    bound: u32,
}

impl<T: Copy> Default for RecencyList<T> {
    /// An empty list bounded by memory alone.
    fn default() -> Self {
        RecencyList::bounded(usize::MAX)
    }
}

impl<T: Copy> RecencyList<T> {
    /// An empty list holding at most `bound` keys (at least one).
    pub fn bounded(bound: usize) -> Self {
        RecencyList {
            nodes: Vec::new(),
            index: Vec::new(),
            shift: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            bound: bound.clamp(1, NIL as usize - 1) as u32,
        }
    }

    /// Number of held keys.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no key is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `key`'s value, if held.
    pub fn get(&self, key: KeyHash) -> Option<&T> {
        self.find(key).map(|(_, at)| &self.nodes[at as usize].value)
    }

    /// `key`'s value, if held, for update in place (its place is kept).
    pub fn get_mut(&mut self, key: KeyHash) -> Option<&mut T> {
        self.find(key)
            .map(|(_, at)| &mut self.nodes[at as usize].value)
    }

    /// Move `key`, if held, to the newest end; its value.
    pub fn touch(&mut self, key: KeyHash) -> Option<&mut T> {
        let (_, at) = self.find(key)?;
        self.unlink(at);
        self.link_newest(at);
        Some(&mut self.nodes[at as usize].value)
    }

    /// Hold `key`, which is not held yet, as the newest key. A full list
    /// first lets go of its oldest key, returned with its value.
    pub fn push(&mut self, key: KeyHash, value: T) -> Option<(KeyHash, T)> {
        debug_assert!(self.find(key).is_none(), "pushed a held key");
        let evicted = match self.oldest() {
            Some((old, &old_value)) if self.len == self.bound => {
                self.remove(old);
                Some((old, old_value))
            }
            _ => None,
        };
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let at = match self.free {
            NIL => {
                if self.nodes.len() == self.nodes.capacity() {
                    self.grow();
                }
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
            at => {
                self.free = self.nodes[at as usize].next;
                self.nodes[at as usize] = node;
                at
            }
        };
        self.index_insert(at);
        self.link_newest(at);
        self.len += 1;
        evicted
    }

    /// Let go of `key`; its value, if it was held.
    pub fn remove(&mut self, key: KeyHash) -> Option<T> {
        let (pos, at) = self.find(key)?;
        self.index_remove(pos);
        self.unlink(at);
        self.nodes[at as usize].next = self.free;
        self.free = at;
        self.len -= 1;
        Some(self.nodes[at as usize].value)
    }

    /// The oldest key and its value.
    pub fn oldest(&self) -> Option<(KeyHash, &T)> {
        self.nodes
            .get(self.head as usize)
            .map(|n| (n.key, &n.value))
    }

    /// Every held key and its value, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (KeyHash, &T)> + '_ {
        let node = |at: u32| self.nodes.get(at as usize);
        std::iter::successors(node(self.head), move |n| node(n.next)).map(|n| (n.key, &n.value))
    }

    /// Bytes of node and index storage reserved now.
    pub fn reserved_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node<T>>() + self.index.capacity() * size_of::<u32>()
    }

    /// Upper bound of [`RecencyList::reserved_bytes`] for a list bounded at
    /// `bound` keys.
    pub fn reserved_bytes_bound(bound: usize) -> usize {
        let nodes = bound.max(1);
        nodes * size_of::<Node<T>>() + (2 * nodes).next_power_of_two() * size_of::<u32>()
    }

    /// Home bucket of `key`. Key hashes are already uniform; the fold and
    /// multiply only make sure small integers (tests) spread too.
    #[inline]
    fn home(&self, key: KeyHash) -> usize {
        let folded = key as u64 ^ (key >> 64) as u64;
        (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `(index position, node)` of `key`, if held.
    #[inline]
    fn find(&self, key: KeyHash) -> Option<(usize, u32)> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut pos = self.home(key);
        loop {
            let at = self.index[pos];
            if at == NIL {
                return None;
            }
            if self.nodes[at as usize].key == key {
                return Some((pos, at));
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Enter node `at` (whose key is set and not yet indexed).
    fn index_insert(&mut self, at: u32) {
        let mask = self.index.len() - 1;
        let mut pos = self.home(self.nodes[at as usize].key);
        while self.index[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = at;
    }

    /// Empty index position `hole`, shifting later members of its probe run
    /// back so every survivor stays reachable from its home bucket.
    fn index_remove(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let at = self.index[pos];
            if at == NIL {
                break;
            }
            // `at` may move into the hole unless its home lies cyclically
            // in (hole, pos]: then the hole is before its probe start.
            let home = self.home(self.nodes[at as usize].key);
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.index[hole] = at;
                hole = pos;
            }
        }
        self.index[hole] = NIL;
    }

    /// Double node storage (clamped to the bound) and rebuild the index at
    /// twice that. Called only when every reserved node is held.
    fn grow(&mut self) {
        let bound = self.bound as usize;
        let target = (self.nodes.capacity() * 2).clamp(MIN_SLOTS.min(bound), bound);
        self.nodes.reserve_exact(target - self.nodes.len());
        // Sized from what was actually reserved: nodes fill to their
        // capacity before `grow` runs again, and the index must stay at
        // most half full for probes to end.
        let buckets = (2 * self.nodes.capacity().min(bound)).next_power_of_two();
        self.index = vec![NIL; buckets];
        self.shift = 64 - buckets.trailing_zeros();
        for at in 0..self.nodes.len() as u32 {
            self.index_insert(at);
        }
    }

    fn unlink(&mut self, at: u32) {
        let Node { prev, next, .. } = self.nodes[at as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_newest(&mut self, at: u32) {
        let old_tail = std::mem::replace(&mut self.tail, at);
        let node = &mut self.nodes[at as usize];
        node.prev = old_tail;
        node.next = NIL;
        match old_tail {
            NIL => self.head = at,
            t => self.nodes[t as usize].next = at,
        }
    }
}
