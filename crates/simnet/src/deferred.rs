//! Deferred work: associate opaque state with CPU-completion tokens.
//!
//! The simulator models CPU cost with `spawn_cpu(work, token)` →
//! `Event::CpuDone(token)`. Any node that wants "run handler code, *then*
//! send the response" (the normal server shape) or "charge send-path CPU,
//! *then* put the request on the wire" (the normal client shape) needs to
//! stash its continuation keyed by token. [`Deferred`] is that map, with a
//! partitioned token namespace so several independent components inside one
//! node never collide. A node's frames in flight are continuations too: the
//! record of an outstanding RMA op or RPC call waits under its token for
//! the answer or the attempt timer ([`Deferred::in_flight`]). Work small
//! enough to be its own token needs no map: a client's pacing, retry and
//! issue timers encode their work in the token itself.

use crate::util::IdMap;

/// A token-allocating map of pending continuations of type `T`.
#[derive(Debug)]
pub struct Deferred<T> {
    base: u64,
    span: u64,
    next: u64,
    pending: IdMap<u64, T>,
}

impl<T> Deferred<T> {
    /// Create a namespace at `base` covering `span` consecutive tokens.
    /// Tokens wrap within the namespace, skipping those still pending; a
    /// namespace with all `span` tokens pending is full. The standard
    /// namespaces ([`Deferred::responses`], [`Deferred::aux1`]) span 2^16,
    /// so their owners panic, or shed (a
    /// server checking [`Deferred::is_full`] at intake), at 65,536 pending
    /// continuations; [`Deferred::in_flight`] spans 2^44 and never wraps.
    pub fn new(base: u64, span: u64) -> Deferred<T> {
        assert!(span > 0);
        Deferred {
            base,
            span,
            next: 0,
            pending: IdMap::default(),
        }
    }

    /// Standard namespace used for server response continuations.
    pub fn responses() -> Deferred<T> {
        Deferred::new(1 << 40, 1 << 16)
    }

    /// Standard namespace for application-defined phase 1 work.
    pub fn aux1() -> Deferred<T> {
        Deferred::new(1 << 42, 1 << 16)
    }

    /// Standard namespace for frames in flight: a node's outstanding RMA
    /// ops and RPC calls. A record's token is the frame's wire id (RMA
    /// `op_id`, RPC request `id`) and its attempt timer's token, so the
    /// answer and the timer each claim it at most once. The span, 2^44
    /// tokens, is one no run can wrap, and it overlaps neither
    /// [`Deferred::responses`] nor [`Deferred::aux1`]:
    /// a token is never reused, so a late answer can never meet another
    /// frame's record.
    pub fn in_flight() -> Deferred<T> {
        Deferred::new(1 << 44, 1 << 44)
    }

    /// Stash a continuation; returns the token to pass to `spawn_cpu` /
    /// `set_timer`.
    pub fn defer(&mut self, value: T) -> u64 {
        // A full namespace would otherwise spin forever below — every
        // candidate token is occupied. Fail loudly instead: this is always
        // a node accepting work faster than it completes it, and the fix
        // belongs at that call site. A server queueing one CPU task per
        // request checks [`Deferred::is_full`] at intake and sheds; for a
        // client-side namespace overflow is a bug.
        assert!(
            !self.is_full(),
            "Deferred namespace exhausted: {} continuations pending \
             (base={:#x}, span={}); the owning node is accepting work \
             unboundedly faster than it completes it",
            self.pending.len(),
            self.base,
            self.span,
        );
        // Find a free slot; in sane usage the first candidate is free.
        loop {
            let tok = self.base + (self.next % self.span);
            self.next = self.next.wrapping_add(1);
            if let std::collections::hash_map::Entry::Vacant(e) = self.pending.entry(tok) {
                e.insert(value);
                return tok;
            }
        }
    }

    /// Whether `token` belongs to this namespace.
    pub fn owns(&self, token: u64) -> bool {
        token >= self.base && token < self.base + self.span
    }

    /// Remove and return the continuation for `token`, if present and owned.
    pub fn take(&mut self, token: u64) -> Option<T> {
        if !self.owns(token) {
            return None;
        }
        self.pending.remove(&token)
    }

    /// Peek without removing.
    pub fn get(&self, token: u64) -> Option<&T> {
        self.pending.get(&token)
    }

    /// Mutable peek without removing — lets a node replace a queued
    /// continuation in place (e.g. coalescing a retransmitted request onto
    /// the CPU task already queued for its sender).
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        self.pending.get_mut(&token)
    }

    /// Number of pending continuations.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// True when every token of the namespace is taken: the next
    /// [`Deferred::defer`] would panic.
    pub fn is_full(&self) -> bool {
        self.pending.len() as u64 == self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defer_take_roundtrip() {
        let mut d: Deferred<&str> = Deferred::new(100, 10);
        let t1 = d.defer("a");
        let t2 = d.defer("b");
        assert_ne!(t1, t2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.take(t1), Some("a"));
        assert_eq!(d.take(t1), None);
        assert_eq!(d.take(t2), Some("b"));
        assert!(d.is_empty());
    }

    #[test]
    fn ownership_check() {
        let mut d: Deferred<u32> = Deferred::new(1000, 10);
        let t = d.defer(1);
        assert!(d.owns(t));
        assert!(!d.owns(999));
        assert!(!d.owns(1010));
        assert_eq!(d.take(5), None); // foreign token untouched
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn replace_in_place_via_get_mut() {
        let mut d: Deferred<&str> = Deferred::new(100, 10);
        let t = d.defer("stale");
        *d.get_mut(t).unwrap() = "fresh";
        assert_eq!(d.len(), 1);
        assert_eq!(d.take(t), Some("fresh"));
        assert!(d.get_mut(t).is_none());
    }

    #[test]
    fn wraps_over_freed_tokens() {
        // Fill, free one, refill: the freed slot must be findable again
        // (the allocator scans past still-live tokens).
        let mut d: Deferred<u32> = Deferred::new(0, 4);
        let toks: Vec<u64> = (0..4).map(|i| d.defer(i)).collect();
        assert!(d.is_full());
        assert_eq!(d.take(toks[2]), Some(2));
        assert!(!d.is_full());
        let t = d.defer(9);
        assert_eq!(t, toks[2]);
        assert_eq!(d.len(), 4);
    }

    #[test]
    #[should_panic(expected = "Deferred namespace exhausted")]
    fn exhaustion_fails_loudly() {
        // A full namespace used to spin forever hunting for a free token;
        // it must panic instead (this is how a 10K-client retry storm
        // against a one-CPU-task-per-request server used to freeze the
        // whole simulation).
        let mut d: Deferred<u32> = Deferred::new(0, 8);
        for i in 0..9 {
            d.defer(i);
        }
    }

    #[test]
    fn namespaces_disjoint() {
        let a: Deferred<()> = Deferred::responses();
        let c: Deferred<()> = Deferred::aux1();
        let d: Deferred<()> = Deferred::in_flight();
        // Probe boundary tokens of each against the others.
        for probe in [1u64 << 40, 1 << 42, 1 << 44, (1 << 45) - 1] {
            let owners = [a.owns(probe), c.owns(probe), d.owns(probe)];
            assert_eq!(owners.iter().filter(|&&o| o).count(), 1);
        }
        for edge in [(1u64 << 40) + (1 << 16), (1 << 42) + (1 << 16), 1 << 45] {
            let owners = [a.owns(edge), c.owns(edge), d.owns(edge)];
            assert_eq!(owners, [false; 3]);
        }
    }

    #[test]
    fn wrapping_skips_occupied() {
        let mut d: Deferred<u32> = Deferred::new(0, 2);
        let t0 = d.defer(0);
        let _t1 = d.defer(1);
        d.take(t0);
        // Namespace full except t0; next defer wraps and finds it.
        let t2 = d.defer(2);
        assert_eq!(t2, t0);
    }
}
