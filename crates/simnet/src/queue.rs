//! The sharded calendar event queue.
//!
//! [`CalendarQueue`] replaces the single global `BinaryHeap` as the
//! simulator's event queue. It is a classic calendar/ladder queue tuned
//! for the event-time distribution a datacenter fabric simulation
//! actually produces: the overwhelming majority of events land within a
//! few microseconds of `now` (NIC serialization, fabric propagation, CPU
//! completions), while a thin far tail (retry timers, chaos acts,
//! revival and backfill schedules) stretches out to seconds.
//!
//! Layout — a fixed wheel over one dynamic slot arena:
//!
//! * **Slot arena** — every queued payload lives in one `slots` vector,
//!   its `(at, seq)` and list link at the same index of a parallel
//!   `links` vector. A popped event's slot goes on a free list that the
//!   next push reuses, so the arena is as large as the most events ever
//!   queued at once (the high-water mark), whatever the windows they were
//!   spread over.
//! * **Wheel** — `NUM_BUCKETS` time buckets of `BUCKET_NS` nanoseconds
//!   each, covering a rotating horizon of `HORIZON_NS` from the drain
//!   front. A bucket is a `u32` list head threaded through the slots'
//!   `next` links: insertion is O(1) (shift, mask, link) and an empty
//!   bucket holds nothing but its head.
//! * **Drain lane** — the window currently being consumed, as 24-byte
//!   `(at, seq, slot)` keys sorted *descending* once per window so `pop`
//!   is a `Vec::pop` from the end and a same-window insert is a
//!   binary-search splice. Sorting and splicing move keys, never payloads.
//! * **Overflow heap** — keys of events beyond the wheel horizon.
//!   Far-future events are rare, so heap discipline is paid only by the
//!   tail. As the horizon advances, the overflow prefix migrates into the
//!   wheel.
//!
//! Total order is **`(at, seq)`** — time, then a stable sequence number
//! assigned at schedule time — exactly the order the `BinaryHeap` it
//! replaces popped in. Same-timestamp ties resolve in schedule order
//! (FIFO), which the engine's zero-delay fast path and every committed
//! figure CSV depend on. The proptest in `tests/` holds this queue to
//! byte-exact pop-order agreement with a reference heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Log2 of the wheel bucket width in nanoseconds (2048ns ≈ the fabric
/// base latency). Power of two: bucket index is shift + mask, no division.
const BUCKET_SHIFT: u32 = 11;
/// Width of one wheel bucket in nanoseconds.
const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;
/// Number of wheel buckets. With 2048ns buckets this spans an ~8.4ms
/// horizon — wide enough that only genuinely far-future events (long
/// timeouts, chaos schedules) touch the overflow heap.
const NUM_BUCKETS: usize = 4096;
/// Bucket index mask.
const BUCKET_MASK: usize = NUM_BUCKETS - 1;
/// Rotating horizon covered by the wheel, in nanoseconds.
const HORIZON_NS: u64 = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
/// End of a slot list (an empty bucket, or an exhausted free list).
const NIL: u32 = u32::MAX;

/// What the drain lane and the overflow heap order: an event's firing
/// time, its stable tie-break sequence, and the slot holding its payload.
#[derive(Clone, Copy, Debug)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

// The drain sort, the drain splice and every heap sift move keys, not
// payloads: a key stays 24 bytes whatever the queue carries.
const _: () = assert!(std::mem::size_of::<Key>() <= 24);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The ordering half of an arena slot, kept apart from the payloads so a
/// window load walks 24-byte links, not whole events. `next` links a
/// queued event into its wheel bucket (unused while its key sits in the
/// drain lane or the overflow heap), and an idle slot into the free list.
#[derive(Clone, Copy)]
struct Link {
    at: u64,
    seq: u64,
    next: u32,
}

/// A calendar/ladder priority queue popping in `(at, seq)` order.
///
/// Generic over the payload so the ordering machinery can be tested (and
/// property-tested) without dragging the engine's `Pending` type along.
pub struct CalendarQueue<T> {
    /// Every queued payload, plus the idle slots (`None`) popped events
    /// left.
    slots: Vec<Option<T>>,
    /// Each slot's time, sequence and list link, index for index.
    links: Vec<Link>,
    /// Head of the idle-slot list through `Link::next`.
    free: u32,
    /// Wheel buckets: the head of each bucket's slot list, unsorted.
    heads: Vec<u32>,
    /// One bit per bucket: non-empty. Scanned word-wise to find the next
    /// occupied window without touching `NUM_BUCKETS` list heads.
    occupied: Vec<u64>,
    /// The window being consumed, sorted descending by `(at, seq)` so the
    /// minimum is at the end.
    drain: Vec<Key>,
    /// Exclusive upper bound of the drain window. Every drained entry is
    /// `< drain_end`; every wheel/overflow entry is `>= drain_end` at the
    /// time it is filed (entries inserted *into* a non-empty drain may be
    /// earlier, which the binary splice handles).
    drain_end: u64,
    /// Bucket index the next window load scans from. Invariant:
    /// `drain_end >> BUCKET_SHIFT & BUCKET_MASK == wheel_pos`.
    wheel_pos: usize,
    /// Events currently filed in wheel buckets.
    wheel_len: usize,
    /// Exclusive upper bound of the wheel horizon: `drain_end + HORIZON_NS`.
    /// Entries at or past it go to the overflow heap.
    wheel_limit: u64,
    /// Far-future events, min-first by `(at, seq)`.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Total queued events.
    len: usize,
    /// Largest `len` ever observed (capacity planning / regression diffs).
    high_water: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with its drain front at t=0.
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue {
            slots: Vec::new(),
            links: Vec::new(),
            free: NIL,
            heads: vec![NIL; NUM_BUCKETS],
            occupied: vec![0u64; NUM_BUCKETS / 64],
            drain: Vec::new(),
            drain_end: 0,
            wheel_pos: 0,
            wheel_len: 0,
            wheel_limit: HORIZON_NS,
            overflow: BinaryHeap::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of simultaneously queued events ever observed.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Arena slots holding no event: storage the next pushes reuse before
    /// the arena grows.
    #[inline]
    pub(crate) fn idle_slots(&self) -> usize {
        self.slots.len() - self.len
    }

    /// Host bytes the queue holds: the slot arena, the drain lane, the
    /// overflow heap, the bucket heads and the occupancy bitmap, counted
    /// at their capacities.
    pub fn reserved_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Option<T>>()
            + self.links.capacity() * size_of::<Link>()
            + self.drain.capacity() * size_of::<Key>()
            + self.overflow.capacity() * size_of::<Reverse<Key>>()
            + self.heads.capacity() * size_of::<u32>()
            + self.occupied.capacity() * size_of::<u64>()
    }

    /// Insert an event. `seq` must be unique across live entries (the
    /// engine's global schedule counter guarantees it); `(at, seq)` is the
    /// total order.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
        let slot = self.alloc(at, seq, item);
        let key = Key { at, seq, slot };
        if at < self.drain_end {
            // Into the active window: splice at the descending-sort
            // position. Same-window inserts are the zero/near-zero-delay
            // events the engine produces in bursts; they land at or near
            // the tail (pop end) so the splice shifts few keys.
            let pos = self.drain.partition_point(|p| *p > key);
            self.drain.insert(pos, key);
        } else if at < self.wheel_limit {
            self.file(slot);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Remove and return the earliest event as `(at, seq, item)`.
    // Inlined so the payload moves from its slot straight into the
    // caller's binding: returned out of line, the engine's 80-byte
    // `Pending` was copied twice more and stalled on store forwarding.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if !self.ensure_drain() {
            return None;
        }
        let key = self.drain.pop().expect("ensure_drain loaded a window");
        self.len -= 1;
        Some((key.at, key.seq, self.release(key.slot)))
    }

    /// Firing time of the earliest event without removing it. `&mut`
    /// because it may rotate the next window into the drain lane.
    pub fn peek_at(&mut self) -> Option<u64> {
        if !self.ensure_drain() {
            return None;
        }
        Some(self.drain.last().expect("loaded").at)
    }

    /// Cheap, non-rotating check: is it certain that no queued event fires
    /// at or before `t`? Used by the engine's same-timestamp fast path.
    /// `false` is always safe (the caller just takes the slow path); `true`
    /// is only returned when provable from the drain lane alone.
    #[inline]
    pub fn none_at_or_before(&self, t: u64) -> bool {
        if self.len == 0 {
            return true;
        }
        match self.drain.last() {
            // The drain minimum is the global minimum.
            Some(min) => min.at > t,
            // Drain empty: everything queued lives at >= drain_end.
            None => self.drain_end > t,
        }
    }

    /// Store a payload in an idle slot, or in a new one if none is idle.
    fn alloc(&mut self, at: u64, seq: u64, item: T) -> u32 {
        let link = Link { at, seq, next: NIL };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.links[idx as usize].next;
            self.links[idx as usize] = link;
            self.slots[idx as usize] = Some(item);
            idx
        } else {
            let idx = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event arena exceeds u32 slots");
            self.links.push(link);
            self.slots.push(Some(item));
            idx
        }
    }

    /// Take a popped event's payload and put its slot on the free list.
    fn release(&mut self, idx: u32) -> T {
        self.links[idx as usize].next = self.free;
        self.free = idx;
        self.slots[idx as usize]
            .take()
            .expect("a queued slot holds its payload")
    }

    /// Link a slot into the wheel bucket of its firing time.
    fn file(&mut self, idx: u32) {
        let s = &mut self.links[idx as usize];
        let b = (s.at >> BUCKET_SHIFT) as usize & BUCKET_MASK;
        s.next = self.heads[b];
        self.heads[b] = idx;
        self.occupied[b >> 6] |= 1u64 << (b & 63);
        self.wheel_len += 1;
    }

    /// Make the drain lane non-empty, rotating the wheel (and migrating
    /// the overflow prefix) as needed. Returns `false` iff the queue is
    /// empty.
    fn ensure_drain(&mut self) -> bool {
        if !self.drain.is_empty() {
            return true;
        }
        if self.wheel_len == 0 {
            // Wheel dry: jump the window straight to the overflow head
            // instead of sweeping empty buckets.
            let Some(Reverse(head)) = self.overflow.peek() else {
                return false;
            };
            let start = (head.at >> BUCKET_SHIFT) << BUCKET_SHIFT;
            self.drain_end = start;
            self.wheel_pos = (start >> BUCKET_SHIFT) as usize & BUCKET_MASK;
            self.wheel_limit = start + HORIZON_NS;
            self.migrate_overflow();
            debug_assert!(self.wheel_len > 0, "overflow head did not migrate");
        }
        // Scan the occupancy bitmap for the next non-empty bucket,
        // cyclically from wheel_pos. All wheel entries lie within one
        // revolution of the horizon, so the first occupied bucket is the
        // earliest window.
        let b = self.next_occupied(self.wheel_pos);
        let steps = (b.wrapping_sub(self.wheel_pos)) & BUCKET_MASK;
        let window_start = self.drain_end + (steps as u64) * BUCKET_NS;
        let mut idx = std::mem::replace(&mut self.heads[b], NIL);
        self.occupied[b >> 6] &= !(1u64 << (b & 63));
        // Counting the window's payloads reads each one's tag off the
        // list's dependent chain of links, so the payloads are in cache by
        // the time they pop: at `cell950`'s depth (47 K events) the arena
        // is megabytes and each pop would otherwise miss.
        let mut loaded = 0;
        while idx != NIL {
            let s = self.links[idx as usize];
            loaded += usize::from(self.slots[idx as usize].is_some());
            self.drain.push(Key {
                at: s.at,
                seq: s.seq,
                slot: idx,
            });
            idx = s.next;
        }
        debug_assert_eq!(loaded, self.drain.len(), "a filed slot lost its payload");
        self.wheel_len -= loaded;
        // Unique (at, seq) keys: unstable sort is deterministic.
        self.drain.sort_unstable_by(|a, b| b.cmp(a));
        debug_assert!(self
            .drain
            .iter()
            .all(|k| { k.at >= window_start && k.at < window_start + BUCKET_NS }));
        self.drain_end = window_start + BUCKET_NS;
        self.wheel_pos = (b + 1) & BUCKET_MASK;
        self.wheel_limit = self.drain_end + HORIZON_NS;
        self.migrate_overflow();
        true
    }

    /// File every overflow event now inside the wheel horizon into its
    /// bucket. Must run each time `wheel_limit` advances, or a later wheel
    /// insert could pop before an earlier overflow event.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at >= self.wheel_limit {
                break;
            }
            let Reverse(key) = self.overflow.pop().expect("peeked");
            debug_assert!(key.at >= self.drain_end);
            self.file(key.slot);
        }
    }

    /// Index of the first occupied bucket at or cyclically after `from`.
    /// Caller guarantees `wheel_len > 0`.
    fn next_occupied(&self, from: usize) -> usize {
        let words = self.occupied.len();
        let mut w = from >> 6;
        let mut word = self.occupied[w] & (!0u64 << (from & 63));
        for _ in 0..=words {
            if word != 0 {
                return (w << 6) + word.trailing_zeros() as usize;
            }
            w = (w + 1) % words;
            word = self.occupied[w];
        }
        unreachable!("next_occupied called on an empty wheel");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(500, 2, 0);
        q.push(500, 1, 0);
        q.push(10, 3, 0);
        q.push(7_000_000, 0, 0); // same-bucket far entries
        q.push(6_999_000, 4, 0);
        assert_eq!(
            drain_all(&mut q),
            vec![(10, 3), (500, 1), (500, 2), (6_999_000, 4), (7_000_000, 0)]
        );
    }

    #[test]
    fn overflow_migrates_before_wheel_events_pop() {
        let mut q = CalendarQueue::new();
        // Far beyond the initial horizon: lands in overflow.
        let far = HORIZON_NS + 5 * BUCKET_NS;
        q.push(far, 0, 1);
        // Pop rotates/jumps; then file an event into the wheel just after
        // the (migrated) overflow event. Order must hold.
        q.push(10, 1, 2);
        assert_eq!(q.pop(), Some((10, 1, 2)));
        q.push(far + 100, 2, 3);
        assert_eq!(q.pop(), Some((far, 0, 1)));
        assert_eq!(q.pop(), Some((far + 100, 2, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_window_insert_during_drain_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(100, 0, 0);
        q.push(120, 1, 0);
        assert_eq!(q.pop(), Some((100, 0, 0)));
        // 110 < drain_end now: must splice ahead of 120.
        q.push(110, 2, 9);
        assert_eq!(q.pop(), Some((110, 2, 9)));
        assert_eq!(q.pop(), Some((120, 1, 0)));
    }

    #[test]
    fn none_at_or_before_is_conservative_and_sound() {
        let mut q = CalendarQueue::new();
        assert!(q.none_at_or_before(u64::MAX));
        q.push(5_000, 0, 0);
        // Wheel-only state: provable because drain_end (0) check fails but
        // len > 0 -> conservative false even though 5_000 > 10.
        assert!(!q.none_at_or_before(10));
        // After a pop starts the window, the drain lane answers exactly.
        q.push(5_500, 1, 0);
        assert_eq!(q.pop(), Some((5_000, 0, 0)));
        assert!(q.none_at_or_before(5_400));
        assert!(!q.none_at_or_before(5_500));
    }

    #[test]
    fn len_and_high_water_track() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        for i in 0..10u64 {
            q.push(i * 1_000_000, i, 0);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.high_water(), 10);
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 10);
        q.push(1, 99, 0);
        assert_eq!(q.high_water(), 10);
    }

    #[test]
    fn footprint_follows_high_water_not_windows_touched() {
        // Budget: the fixed wheel (one `u32` head per bucket plus the
        // occupancy bitmap) and 256 B per event of high-water mark — room
        // for each such event's slot, its key in the drain lane and `Vec`
        // doubling slack on both. Storage sized by the windows a burst
        // ever touched breaks it: 4,096 buckets that once held 128 entries
        // would be 4,096 × 3 KiB.
        const WHEEL_BYTES: usize = NUM_BUCKETS * 4 + NUM_BUCKETS / 8;
        const PER_EVENT: usize = 256;
        const BURST: u64 = 128;
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut popped = 0u64;
        // A burst into window w + 1 while window w's drains: at most two
        // bursts live, in every one of the wheel's buckets and past a full
        // revolution.
        for w in 0..NUM_BUCKETS as u64 + 64 {
            let start = (w + 1) * BUCKET_NS;
            for j in 0..BURST {
                q.push(start + (j * 997) % BUCKET_NS, seq, seq);
                seq += 1;
            }
            assert!(q.len() as u64 <= 2 * BURST);
            let budget = WHEEL_BYTES + PER_EVENT * q.high_water();
            assert!(
                q.reserved_bytes() <= budget,
                "window {w}: {} B reserved for a high-water mark of {} (budget {budget} B)",
                q.reserved_bytes(),
                q.high_water()
            );
            while q.peek_at().is_some_and(|at| at < start) {
                let (at, s, item) = q.pop().expect("peeked");
                assert_eq!(item, s, "a reused slot returned another event's payload");
                assert!(at < start);
                popped += 1;
            }
        }
        assert_eq!(q.high_water(), 2 * BURST as usize);
        assert_eq!(popped + q.len() as u64, seq);
        assert!(q.idle_slots() <= 2 * BURST as usize);
    }

    #[test]
    fn interleaved_push_pop_random_times_match_reference_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Deterministic LCG; no external RNG in unit tests.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..50_000 {
            if rand() % 3 != 0 {
                // Mixed horizon: near (80%), mid, far.
                let dt = match rand() % 10 {
                    0 => rand() % (HORIZON_NS * 4),
                    1 => rand() % HORIZON_NS,
                    _ => rand() % 4_096,
                };
                q.push(now + dt, seq, 0u32);
                heap.push(Reverse((now + dt, seq)));
                seq += 1;
            } else {
                let got = q.pop().map(|(at, s, _)| (at, s));
                let want = heap.pop().map(|Reverse(p)| p);
                assert_eq!(got, want);
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        loop {
            let got = q.pop().map(|(at, s, _)| (at, s));
            let want = heap.pop().map(|Reverse(p)| p);
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
