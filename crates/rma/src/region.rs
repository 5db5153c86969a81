//! RMA-registered memory: buffers and windows.
//!
//! A backend owns **buffers** (its actual memory: the index region and the
//! data region pool) and exposes **windows** over them — the unit of RMA
//! registration. This split models the paper's §4.1 memory machinery
//! directly:
//!
//! * index reshaping registers a *new* window over a *new* buffer and
//!   **revokes** the old one; in-flight client reads then fail with
//!   [`RmaStatus::WindowRevoked`] and re-resolve via RPC;
//! * data-region growth registers a *second, larger, overlapping* window
//!   over the same buffer and advertises it; clients converge to the new
//!   window while the old one keeps serving (no disruption);
//! * every window carries a **generation** so a client acting on stale
//!   layout metadata gets [`RmaStatus::BadGeneration`] instead of garbage.
//!
//! A buffer is a flat range of bytes to everything that addresses it — a
//! window's bounds, [`RegionTable::buffer_len`] and
//! [`RegionTable::resident_bytes`] are all in those *logical* bytes, the
//! model's populated DRAM. What the host running the model holds is only
//! what was written. A data buffer ([`RegionTable::alloc_buffer`]) stores
//! the byte ranges ever written, as extents inside 64 KiB pages: bytes
//! nobody wrote read as zero, a write lands in the extent that holds it (or
//! makes one, absorbing any it overlaps), and growing the buffer only moves
//! its length. A **tiled** buffer ([`RegionTable::alloc_tiled_buffer`]) —
//! one tile repeated, the shape of a bucket array — keeps one shared
//! template, and of each written tile only its *room*: the prefix through
//! its last written byte, in a class of 64 B doubling up to the tile, one
//! arena per class. Past its room a tile reads as the template. A read
//! comes back as [`Pieces`]: for one tile, its room's part and the
//! template's part, both borrowed, which the response encoders write into
//! one frame without joining them. [`RegionTable::reserved_bytes`] is what
//! the host holds for all of it.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

use bytes::Bytes;

use crate::codec::RmaStatus;

/// Identifies a backend-local memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

/// Identifies an RMA-registered window over a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u32);

/// Slot-table entry of a tile nobody has written.
const UNWRITTEN: u32 = u32::MAX;

/// Bits of a slot-table entry that number a room in its class's arena; the
/// bits above them are the class.
const RECORD_BITS: u32 = 27;

/// The shortest room: a bucket header and its first slot.
const MIN_ROOM: usize = 64;

/// A written tile's slot-table entry as its class and its record there.
fn unpack(slot: u32) -> (usize, usize) {
    (
        (slot >> RECORD_BITS) as usize,
        (slot & ((1 << RECORD_BITS) - 1)) as usize,
    )
}

/// The class of the shortest room that holds `end` bytes.
fn class_of(end: usize) -> usize {
    end.div_ceil(MIN_ROOM)
        .max(1)
        .next_power_of_two()
        .trailing_zeros() as usize
}

/// Bytes a class arena holding `len` bytes of `room`-byte rooms grows by
/// when full: 64 rooms, or an eighth of the arena once that is more. A
/// bounded step, not doubling, so a full arena has at most an eighth of
/// itself to spare.
fn grow_step(len: usize, room: usize) -> usize {
    (64 * room).max(len / 8 / room * room)
}

/// The rooms of one class, back to back.
#[derive(Debug)]
struct Class {
    /// Length of a room of this class: [`MIN_ROOM`] doubling per class, the
    /// last class the whole tile.
    room: usize,
    rooms: Vec<u8>,
    /// Records left behind by tiles that moved up a class: the next tile to
    /// enter this class takes one before the arena grows.
    free: Vec<u32>,
}

/// `template` repeated `slots.len()` times, storing of each written tile
/// only its **room**: a prefix from byte 0 through its last written byte,
/// rounded up to a room class. Past its room a tile reads as the template.
#[derive(Debug)]
struct Tiled {
    /// What an unwritten tile reads as; its length is the tile length.
    template: Box<[u8]>,
    /// Per tile: [`UNWRITTEN`], or its room's class above [`RECORD_BITS`]
    /// and record in that class's arena below.
    slots: Vec<u32>,
    /// One arena per room class, shortest first.
    classes: Vec<Class>,
}

impl Tiled {
    fn new(tile: &[u8], count: usize) -> Tiled {
        Tiled {
            template: tile.into(),
            slots: vec![UNWRITTEN; count],
            classes: (0..=class_of(tile.len()))
                .map(|k| Class {
                    room: (MIN_ROOM << k).min(tile.len()),
                    rooms: Vec::new(),
                    free: Vec::new(),
                })
                .collect(),
        }
    }

    /// Tile `n`'s room; empty when nobody wrote the tile.
    fn room(&self, n: usize) -> &[u8] {
        match self.slots[n] {
            UNWRITTEN => &[],
            slot => {
                let (k, record) = unpack(slot);
                let class = &self.classes[k];
                &class.rooms[record * class.room..][..class.room]
            }
        }
    }

    /// `[at, end)` of tile `n`: the part its room holds, then the part the
    /// template holds.
    fn split(&self, n: usize, at: usize, end: usize) -> (&[u8], &[u8]) {
        let room = self.room(n);
        let cut = room.len().clamp(at, end);
        (room.get(at..cut).unwrap_or(&[]), &self.template[cut..end])
    }

    /// Tile `n`'s room, first grown to hold at least `end` bytes: a tile
    /// written for the first time, or past its room, moves into the class
    /// that holds `end` with its room and the template's bytes after it,
    /// and leaves its old record to the next tile that enters that class.
    fn room_mut(&mut self, n: usize, end: usize) -> &mut [u8] {
        let slot = self.slots[n];
        let old = (slot != UNWRITTEN).then(|| unpack(slot));
        let k = class_of(end).max(old.map_or(0, |(k, _)| k));
        let room = self.classes[k].room;
        if old.map(|(k, _)| k) != Some(k) {
            let kept = self.room(n).len();
            let (lower, upper) = self.classes.split_at_mut(k);
            let into = &mut upper[0];
            let record = into.free.pop().map_or_else(
                || {
                    let len = into.rooms.len();
                    if len + room > into.rooms.capacity() {
                        into.rooms.reserve_exact(grow_step(len, room));
                    }
                    into.rooms.resize(len + room, 0);
                    into.rooms.len() / room - 1
                },
                |r| r as usize,
            );
            let to = &mut into.rooms[record * room..][..room];
            if let Some((from, at)) = old {
                to[..kept].copy_from_slice(&lower[from].rooms[at * kept..][..kept]);
                lower[from].free.push(at as u32);
            }
            to[kept..].copy_from_slice(&self.template[kept..room]);
            self.slots[n] = (k as u32) << RECORD_BITS | record as u32;
        }
        let (_, record) = unpack(self.slots[n]);
        &mut self.classes[k].rooms[record * room..][..room]
    }

    /// Write `bytes` at `at` of every tile: into the template, and into each
    /// room that holds any of those bytes.
    fn write_every_tile(&mut self, at: usize, bytes: &[u8]) {
        let end = at + bytes.len();
        self.template[at..end].copy_from_slice(bytes);
        for class in &mut self.classes {
            if class.room > at {
                let take = end.min(class.room) - at;
                for r in class.rooms.chunks_exact_mut(class.room) {
                    r[at..at + take].copy_from_slice(&bytes[..take]);
                }
            }
        }
    }

    fn reserved_bytes(&self) -> usize {
        let classes: usize = self
            .classes
            .iter()
            .map(|c| c.rooms.capacity() + c.free.capacity() * size_of::<u32>())
            .sum();
        self.template.len()
            + self.slots.capacity() * size_of::<u32>()
            + self.classes.capacity() * size_of::<Class>()
            + classes
    }
}

/// `[start, stop)` cut at the boundaries of `len`-byte tiles:
/// `(tile, offset in it, length)`.
fn pieces(len: usize, start: usize, stop: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut pos = start;
    std::iter::from_fn(move || {
        let (n, at) = (pos / len, pos % len);
        let take = (stop - pos).min(len - at);
        pos += take;
        (take > 0).then_some((n, at, take))
    })
}

/// Bytes in a page of a data buffer: no extent crosses a page boundary (a
/// write that does is cut at it).
const PAGE: usize = 1 << 16;

/// What every byte nobody wrote reads as, for reads inside one page.
static ZEROS: [u8; PAGE] = [0; PAGE];

/// Bits of an extent's position that are its offset in a segment. Extents
/// are laid out back to back in segments: the first holds a page (so any
/// extent fits), each next one twice its predecessor, up to 1 MiB.
const SEG_BITS: u32 = 20;

/// Capacity of segment `n` of a data buffer's store.
fn seg_capacity(n: usize) -> usize {
    PAGE << n.min((SEG_BITS - PAGE.ilog2()) as usize)
}

/// The bit of [`Span::room`] that marks a shared extent; the bits below it
/// are where the extent starts in its entry buffer.
const SHARED: u32 = 1 << 31;

/// Where an extent's bytes are. A **private** extent's are in the
/// segments: `at` is its segment number above [`SEG_BITS`] and its offset
/// in that segment below, and `room` bytes are kept there, those past `len`
/// zero, so the extent can grow in place. A **shared** extent's are `len`
/// bytes of an immutable entry buffer: `at` is its handle in
/// [`Backing::bufs`], `room` is [`SHARED`] plus where in the buffer the
/// extent starts.
#[derive(Debug, Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
    room: u32,
}

impl Span {
    fn seg(at: u32) -> (usize, usize) {
        (
            (at >> SEG_BITS) as usize,
            at as usize & ((1 << SEG_BITS) - 1),
        )
    }

    fn is_shared(self) -> bool {
        self.room & SHARED != 0
    }

    /// Where a shared extent starts in its entry buffer.
    fn from(self) -> usize {
        (self.room & !SHARED) as usize
    }

    /// `len` bytes from `off` bytes into this extent (a private part has no
    /// room to spare).
    fn part(self, off: usize, len: usize) -> Span {
        if self.is_shared() {
            Span {
                at: self.at,
                len: len as u32,
                room: self.room + off as u32,
            }
        } else {
            Span {
                at: self.at + off as u32,
                len: len as u32,
                room: len as u32,
            }
        }
    }
}

/// Copy `len` bytes from position `from` of the store to position `to`,
/// which lies in another segment or does not overlap them.
fn copy_span(segs: &mut [Vec<u8>], from: u32, to: u32, len: usize) {
    let ((fs, fo), (ts, to)) = (Span::seg(from), Span::seg(to));
    match fs.cmp(&ts) {
        std::cmp::Ordering::Equal => segs[fs].copy_within(fo..fo + len, to),
        std::cmp::Ordering::Less => {
            let (src, dst) = segs.split_at_mut(ts);
            dst[0][to..to + len].copy_from_slice(&src[fs][fo..fo + len]);
        }
        std::cmp::Ordering::Greater => {
            let (dst, src) = segs.split_at_mut(fs);
            dst[ts][to..to + len].copy_from_slice(&src[0][fo..fo + len]);
        }
    }
}

/// What a data buffer's extents keep their bytes in.
#[derive(Debug, Default)]
struct Backing {
    /// Private extents' bytes, back to back.
    segs: Vec<Vec<u8>>,
    /// The entry buffers shared extents borrow, one handle per extent (two
    /// slices of one buffer hold it twice); `None` where a handle is free.
    bufs: Vec<Option<Rc<[u8]>>>,
    /// Free handles.
    free: Vec<u32>,
}

impl Backing {
    fn buf(&self, handle: u32) -> &Rc<[u8]> {
        self.bufs[handle as usize].as_ref().expect("a live handle")
    }

    fn bytes(&self, s: Span) -> &[u8] {
        let len = s.len as usize;
        if s.is_shared() {
            &self.buf(s.at)[s.from()..s.from() + len]
        } else {
            let (seg, off) = Span::seg(s.at);
            &self.segs[seg][off..off + len]
        }
    }

    /// The bytes of private extent `s`.
    fn bytes_mut(&mut self, s: Span) -> &mut [u8] {
        debug_assert!(!s.is_shared(), "a shared extent is immutable");
        let (seg, off) = Span::seg(s.at);
        &mut self.segs[seg][off..off + s.len as usize]
    }

    /// A handle on `buf`.
    fn hold(&mut self, buf: Rc<[u8]>) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.bufs[h as usize] = Some(buf);
                h
            }
            None => {
                self.bufs.push(Some(buf));
                self.bufs.len() as u32 - 1
            }
        }
    }

    /// A second handle on what `handle` holds.
    fn hold_again(&mut self, handle: u32) -> u32 {
        let buf = self.buf(handle).clone();
        self.hold(buf)
    }

    fn let_go(&mut self, handle: u32) {
        self.bufs[handle as usize] = None;
        self.free.push(handle);
    }

    /// Copy the bytes of `src` to position `to` of the segments, which
    /// `src` does not overlap.
    fn copy_to_seg(&mut self, src: Span, to: u32) {
        let len = src.len as usize;
        if src.is_shared() {
            let (seg, off) = Span::seg(to);
            let buf = self.bufs[src.at as usize].as_ref().expect("a live handle");
            self.segs[seg][off..off + len].copy_from_slice(&buf[src.from()..src.from() + len]);
        } else {
            copy_span(&mut self.segs, src.at, to, len);
        }
    }
}

/// The smallest free hole worth keeping: anything shorter stays garbage
/// until the next compaction.
const HOLE: usize = 64;

/// One 64 KiB page of a [`Sparse`] buffer: the extents written into it.
/// Extents are disjoint; two that merely touch stay two, so streaming an
/// entry in pieces into a reserved extent never re-copies it.
#[derive(Debug, Default)]
struct Page {
    /// Where each extent starts in the page, ascending.
    starts: Vec<u16>,
    /// Where each extent's bytes are, in `starts` order.
    spans: Vec<Span>,
}

impl Page {
    /// Extents starting at or before `at`: the last of them is the only
    /// one that can hold byte `at`.
    fn upto(&self, at: usize) -> usize {
        self.starts.partition_point(|&s| s as usize <= at)
    }

    /// The extents `[at, end)` overlaps, as a range of their indexes.
    fn overlaps(&self, at: usize, end: usize) -> Range<usize> {
        let mut lo = self.upto(at);
        if lo > 0 && at < self.starts[lo - 1] as usize + self.spans[lo - 1].len as usize {
            lo -= 1;
        }
        // Few extents overlap one write: walk them.
        let hi = lo
            + self.starts[lo..]
                .iter()
                .take_while(|&&s| (s as usize) < end)
                .count();
        lo..hi
    }

    /// `[at, end)` when one extent holds all of it, or zeros when no
    /// extent holds any of it; `None` when it is pieced from several.
    fn slice<'a>(&self, back: &'a Backing, at: usize, end: usize) -> Option<&'a [u8]> {
        let n = self.upto(at);
        if n > 0 {
            let s = self.starts[n - 1] as usize;
            let span = self.spans[n - 1];
            if end <= s + span.len as usize {
                return Some(&back.bytes(span)[at - s..end - s]);
            }
            if at < s + span.len as usize {
                return None;
            }
        }
        match self.starts.get(n) {
            Some(&next) if (next as usize) < end => None,
            _ => Some(&ZEROS[..end - at]),
        }
    }

    /// Copy what is written of `[at, at + out.len())` into `out`, which
    /// holds zeros.
    fn copy_out(&self, back: &Backing, at: usize, out: &mut [u8]) {
        let end = at + out.len();
        let first = self.upto(at).saturating_sub(1);
        for (&s, &span) in self.starts[first..].iter().zip(&self.spans[first..]) {
            let s = s as usize;
            if s >= end {
                break;
            }
            let (from, to) = (at.max(s), end.min(s + span.len as usize));
            if from < to {
                out[from - at..to - at].copy_from_slice(&back.bytes(span)[from - s..to - s]);
            }
        }
    }

    /// Put `new` in place of extents `range`: in place as far as the counts
    /// match, then one insertion or removal per extent more or fewer.
    fn replace(&mut self, range: Range<usize>, new: &[(usize, Span)]) {
        let same = range.len().min(new.len());
        for (k, &(s, span)) in new[..same].iter().enumerate() {
            self.starts[range.start + k] = s as u16;
            self.spans[range.start + k] = span;
        }
        let at = range.start + same;
        for (k, &(s, span)) in new[same..].iter().enumerate() {
            self.starts.insert(at + k, s as u16);
            self.spans.insert(at + k, span);
        }
        if range.len() > same {
            self.starts.drain(at..range.end);
            self.spans.drain(at..range.end);
        }
    }
}

/// A zeroed range of bytes that stores only the extents written into it:
/// pages index them; segments hold private extents' bytes, entry buffers
/// shared ones'.
///
/// A **shared** extent is a slice of an immutable, refcounted entry buffer
/// ([`RegionTable::share`]): a read borrows it as it borrows a segment, and
/// nothing writes into it. A write inside it splits it — the parts before
/// and after stay slices of the buffer, the written part becomes private —
/// and [`RegionTable::reserve`] over it copies only the bytes of the
/// reserved range. An entry shared in pieces as it streams in grows one
/// extent. What an older, longer entry leaves past the end of a shorter
/// one is copied into a buffer of the region's own, merged with what older
/// ones left there, so past its entry a slot keeps one remnant and pins no
/// dead buffer.
#[derive(Debug)]
struct Sparse {
    /// Logical length.
    len: usize,
    /// Pages up to the last one written; the rest read as zeros.
    pages: Vec<Page>,
    /// The extents' bytes. A new private extent takes the smallest free
    /// hole that fits, else goes at the end of segment `head`; what an
    /// extent held before it was grown, absorbed or cut becomes a hole, and
    /// the slivers holes leave are garbage until [`Sparse::compact`]. A
    /// segment, once allocated, is kept until the buffer goes.
    back: Backing,
    /// The segment new extents go to; those after it are empty.
    head: usize,
    /// Free holes as `(room, position)`, smallest first.
    holes: BTreeSet<(u32, u32)>,
    /// Bytes filled in the segments, garbage included.
    used: usize,
    /// Bytes of the segments some extent keeps as its room.
    live: usize,
}

impl Sparse {
    fn new(len: usize) -> Sparse {
        Sparse {
            len,
            pages: Vec::new(),
            back: Backing::default(),
            head: 0,
            holes: BTreeSet::new(),
            used: 0,
            live: 0,
        }
    }

    fn read(&self, start: usize, stop: usize) -> Cow<'_, [u8]> {
        assert!(stop <= self.len, "read past the end of a buffer");
        let (n, at) = (start / PAGE, start % PAGE);
        let end = at + (stop - start);
        if end <= PAGE {
            let one = match self.pages.get(n) {
                Some(p) => p.slice(&self.back, at, end),
                None => Some(&ZEROS[..end - at]),
            };
            if let Some(bytes) = one {
                return Cow::Borrowed(bytes);
            }
        }
        let mut out = vec![0; stop - start];
        let mut done = 0;
        for (n, at, take) in pieces(PAGE, start, stop) {
            if let Some(p) = self.pages.get(n) {
                p.copy_out(&self.back, at, &mut out[done..done + take]);
            }
            done += take;
        }
        Cow::Owned(out)
    }

    /// Pages through the one that holds byte `stop - 1`.
    fn pages_to(&mut self, start: usize, stop: usize) {
        assert!(stop <= self.len, "write past the end of a buffer");
        let last = (stop.max(1) - 1) / PAGE;
        if start < stop && self.pages.len() <= last {
            self.pages.resize_with(last + 1, Page::default);
        }
    }

    /// Keep garbage under a sixteenth of what the segments hold.
    fn tidy(&mut self) {
        if self.used - self.live > PAGE.max(self.used / 16) {
            self.compact();
        }
    }

    /// `[start, stop)` held by one private extent per page it touches, made
    /// if needed; `f` sees each page's piece with its offset from `start`.
    /// `keep`: the range keeps what it reads as until `f` writes it (a
    /// reserve); otherwise `f` overwrites all of it.
    fn cover(
        &mut self,
        start: usize,
        stop: usize,
        keep: bool,
        mut f: impl FnMut(usize, &mut [u8]),
    ) {
        self.pages_to(start, stop);
        for (n, at, take) in pieces(PAGE, start, stop) {
            let span = self.extent(n, at, at + take, keep);
            f(n * PAGE + at - start, self.back.bytes_mut(span));
        }
        self.tidy();
    }

    /// Where `[at, end)` of page `n` can be written: in the private extent
    /// that holds it, or in a new one absorbing every private extent it
    /// overlaps (the bytes between them zero). A shared extent it overlaps
    /// keeps its parts outside `[at, end)` as slices of its buffer. The new
    /// extent holds what it read as, except — unless `keep` — inside
    /// `[at, end)`, which the caller is about to write.
    fn extent(&mut self, n: usize, at: usize, end: usize, keep: bool) -> Span {
        let page = &mut self.pages[n];
        let range = page.overlaps(at, end);
        let (lo, hi) = (range.start, range.end);
        let (mut start, mut stop) = (at, end);
        if lo < hi {
            let (first, last) = (page.spans[lo], page.spans[hi - 1]);
            let s = page.starts[lo] as usize;
            if hi == lo + 1 && !first.is_shared() && s <= at && end <= s + first.len as usize {
                return first.part(at - s, end - at);
            }
            if !first.is_shared() {
                start = start.min(s);
            }
            if !last.is_shared() {
                stop = stop.max(page.starts[hi - 1] as usize + last.len as usize);
            }
            // A longer entry over a private extent with room to spare grows
            // it in place: the bytes past its length are zero.
            if hi == lo + 1
                && s == start
                && !first.is_shared()
                && stop - start <= first.room as usize
            {
                let span = &mut page.spans[lo];
                span.len = (stop - start) as u32;
                return span.part(at - start, end - at);
            }
        }
        let (to, room) = self.place(stop - start);
        for i in lo..hi {
            let (s, old) = (self.pages[n].starts[i] as usize, self.pages[n].spans[i]);
            let (from, till) = (s.max(start), (s + old.len as usize).min(stop));
            let mut copy = |a: usize, b: usize| {
                if a < b {
                    let part = old.part(a - s, b - a);
                    self.back.copy_to_seg(part, to + (a - start) as u32);
                }
            };
            if keep {
                copy(from, till);
            } else {
                copy(from, till.min(at));
                copy(from.max(end), till);
            }
        }
        let merged = Span {
            at: to,
            len: (stop - start) as u32,
            room: room as u32,
        };
        self.put(n, range, start, stop, Some(merged));
        merged.part(at - start, end - at)
    }

    /// Put `new` (if any) in place of `[at, end)` of page `n`, which
    /// overlaps extents `range`. An extent wholly inside goes (a private
    /// room is freed, a shared handle let go); one reaching outside keeps
    /// what is outside in place: a private one frees the rest of its room,
    /// a shared one's parts stay slices of its buffer.
    fn put(&mut self, n: usize, range: Range<usize>, at: usize, end: usize, new: Option<Span>) {
        let (mut before, mut after) = (None, None);
        for i in range.clone() {
            let (s, old) = (self.pages[n].starts[i] as usize, self.pages[n].spans[i]);
            let e = s + old.len as usize;
            let head = (s < at).then(|| old.part(0, at - s));
            let mut tail = (e > end).then(|| old.part(end - s, e - end));
            if old.is_shared() {
                match (head, &mut tail) {
                    (None, None) => self.back.let_go(old.at),
                    (Some(_), Some(t)) => t.at = self.back.hold_again(old.at),
                    _ => {}
                }
            } else {
                // The room's bytes outside the kept parts are free.
                let kept = head.map_or(0, |h| h.len as usize);
                let (gap, rest) = match tail {
                    Some(_) => (end - s, e - s),
                    None => (old.room as usize, old.room as usize),
                };
                self.free(old.at + kept as u32, gap - kept);
                self.free(old.at + rest as u32, old.room as usize - rest);
            }
            before = before.or(head.map(|h| (s, h)));
            after = after.or(tail.map(|t| (end, t)));
        }
        let mut put = [(
            0,
            Span {
                at: 0,
                len: 0,
                room: 0,
            },
        ); 3];
        let mut k = 0;
        for piece in [before, new.map(|span| (at, span)), after]
            .into_iter()
            .flatten()
        {
            put[k] = piece;
            k += 1;
        }
        self.pages[n].replace(range, &put[..k]);
    }

    /// Make `[start, start + len)` the bytes `from..from + len` of `buf`
    /// (see [`RegionTable::share`]).
    fn share(&mut self, start: usize, buf: &Rc<[u8]>, from: usize, len: usize) {
        self.pages_to(start, start + len);
        let mut off = from;
        for (n, at, take) in pieces(PAGE, start, start + len) {
            self.share_piece(n, at, at + take, buf, off);
            off += take;
        }
        self.tidy();
    }

    /// Make `[at, end)` of page `n` the bytes of `buf` from `from` on: the
    /// piece streamed in just before it from the same buffer grows over
    /// it, else it is an extent of its own.
    fn share_piece(&mut self, n: usize, at: usize, end: usize, buf: &Rc<[u8]>, from: usize) {
        let page = &self.pages[n];
        let range = page.overlaps(at, end);
        let is_buf = |span: Span| span.is_shared() && Rc::ptr_eq(self.back.buf(span.at), buf);
        if let [span] = page.spans[range.clone()] {
            if page.starts[range.start] as usize == at
                && span.len as usize == end - at
                && span.from() == from
                && is_buf(span)
            {
                return;
            }
        }
        let grows = range.start.checked_sub(1).filter(|&j| {
            let prev = page.spans[j];
            page.starts[j] as usize + prev.len as usize == at
                && prev.from() + prev.len as usize == from
                && is_buf(prev)
        });
        match grows {
            Some(j) => {
                self.put(n, range, at, end, None);
                self.pages[n].spans[j].len += (end - at) as u32;
            }
            None => {
                let span = Span {
                    at: self.back.hold(buf.clone()),
                    len: (end - at) as u32,
                    room: SHARED | from as u32,
                };
                self.put(n, range, at, end, Some(span));
            }
        }
    }

    /// See [`RegionTable::settle_tail`]: when the extent that starts at
    /// `pos` is the rest of another buffer (an older, longer entry's tail —
    /// not one that starts there, like the next slot's entry), copy it into
    /// a buffer of the region's own, with the remnant right after it when
    /// nothing else holds that one.
    fn settle(&mut self, pos: usize) {
        let (n, at) = (pos / PAGE, pos % PAGE);
        let Some(page) = self.pages.get(n) else {
            return;
        };
        let Some(i) = page.upto(at).checked_sub(1) else {
            return;
        };
        let tail = page.spans[i];
        if page.starts[i] as usize != at || !tail.is_shared() || tail.from() == 0 {
            return;
        }
        let mut stop = at + tail.len as usize;
        let mut last = i + 1;
        if let Some(&next) = page.spans.get(i + 1) {
            if page.starts[i + 1] as usize == stop
                && next.is_shared()
                && Rc::strong_count(self.back.buf(next.at)) == 1
            {
                stop += next.len as usize;
                last += 1;
            }
        }
        let mut own: Rc<[u8]> = std::iter::repeat_n(0, stop - at).collect();
        page.copy_out(&self.back, at, Rc::get_mut(&mut own).expect("a new buffer"));
        let span = Span {
            at: self.back.hold(own),
            len: (stop - at) as u32,
            room: SHARED,
        };
        self.put(n, i..last, at, stop, Some(span));
    }

    /// `room` bytes at `at` of the segments are no extent's any more: a
    /// hole for [`Sparse::place`] to reuse, or garbage when too small to be
    /// worth it.
    fn free(&mut self, at: u32, room: usize) {
        self.live -= room;
        if room >= HOLE {
            self.holes.insert((room as u32, at));
        }
    }

    /// Zeroed room for `need` bytes: the smallest free hole that fits
    /// (what it has over [`HOLE`] to spare stays a hole), else the end of
    /// the head segment (or of the next one). A room shorter than a hole
    /// (the poison over a freed entry) goes at the head: it takes no hole
    /// a longer one could use.
    fn place(&mut self, need: usize) -> (u32, usize) {
        let fit = (need >= HOLE).then(|| self.holes.range((need as u32, 0)..).next());
        if let Some(&(room, to)) = fit.flatten() {
            self.holes.remove(&(room, to));
            let mut room = room as usize;
            if room - need >= HOLE {
                self.holes.insert(((room - need) as u32, to + need as u32));
                room = need;
            }
            let (seg, off) = Span::seg(to);
            self.back.segs[seg][off..off + room].fill(0);
            self.live += room;
            return (to, room);
        }
        let segs = &mut self.back.segs;
        while let Some(s) = segs.get(self.head) {
            if s.len() + need <= s.capacity() {
                break;
            }
            self.head += 1;
        }
        if self.head == segs.len() {
            assert!(
                self.head < 1 << (32 - SEG_BITS),
                "a data buffer stores at most 4 GiB"
            );
            segs.push(Vec::with_capacity(seg_capacity(self.head)));
        }
        let seg = &mut segs[self.head];
        let off = seg.len();
        seg.resize(off + need, 0);
        self.used += need;
        self.live += need;
        ((self.head << SEG_BITS | off) as u32, need)
    }

    /// Host bytes this buffer holds: segments, page records, free holes (a
    /// B-tree holds its keys about half full), handles, and the entry
    /// buffers nothing else holds. A buffer it shares is counted by
    /// whatever shares it out.
    fn reserved_bytes(&self) -> usize {
        let pages: usize = self
            .pages
            .iter()
            .map(|p| {
                p.starts.capacity() * size_of::<u16>() + p.spans.capacity() * size_of::<Span>()
            })
            .sum();
        let segs: usize = self.back.segs.iter().map(Vec::capacity).sum();
        let alone: usize = self
            .back
            .bufs
            .iter()
            .flatten()
            .filter(|b| Rc::strong_count(b) == 1)
            .map(|b| 2 * size_of::<usize>() + b.len())
            .sum();
        self.pages.capacity() * size_of::<Page>()
            + pages
            + self.back.segs.capacity() * size_of::<Vec<u8>>()
            + segs
            + self.holes.len() * 2 * size_of::<(u32, u32)>()
            + self.back.bufs.capacity() * size_of::<Option<Rc<[u8]>>>()
            + self.back.free.capacity() * size_of::<u32>()
            + alone
    }

    /// Slide every private extent down over the garbage, in store order,
    /// and empty the segments left over. In place: an extent never moves
    /// up.
    fn compact(&mut self) {
        let mut order: Vec<(u32, u32, u32)> = Vec::with_capacity(self.pages.len());
        for (n, page) in self.pages.iter().enumerate() {
            for (i, span) in page.spans.iter().enumerate() {
                if !span.is_shared() {
                    order.push((span.at, n as u32, i as u32));
                }
            }
        }
        order.sort_unstable();
        let segs = &mut self.back.segs;
        let (mut seg, mut off) = (0, 0);
        for (_, n, i) in order {
            let span = &mut self.pages[n as usize].spans[i as usize];
            let len = span.room as usize;
            if off + len > segs[seg].capacity() {
                segs[seg].truncate(off);
                (seg, off) = (seg + 1, 0);
            }
            let to = (seg << SEG_BITS | off) as u32;
            if to != span.at {
                if segs[seg].len() < off + len {
                    segs[seg].resize(off + len, 0);
                }
                copy_span(segs, span.at, to, len);
                span.at = to;
            }
            off += len;
        }
        if let Some(s) = segs.get_mut(seg) {
            s.truncate(off);
        }
        for rest in segs.iter_mut().skip(seg + 1) {
            rest.clear();
        }
        self.head = seg;
        self.holes.clear();
        self.used = self.live;
    }
}

/// The bytes of a read, in two pieces: `head`, then `tail`. A read of one
/// tile is its stored room's part and the template's part after it; a
/// read of a data buffer is all `head`. Both borrow region memory, except
/// that a read straddling tiles, or pages or extents of a data buffer,
/// comes back as one owned `head` assembled the way a flat buffer reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pieces<'a> {
    /// The first piece.
    pub head: Cow<'a, [u8]>,
    /// The bytes after `head`.
    pub tail: &'a [u8],
}

impl<'a> Pieces<'a> {
    /// No bytes.
    pub const EMPTY: Pieces<'static> = Pieces {
        head: Cow::Borrowed(&[]),
        tail: &[],
    };

    /// Bytes in both pieces.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether both pieces are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Both pieces as borrowed slices, the form the response encoders take.
    pub fn parts(&self) -> (&[u8], &'a [u8]) {
        (&self.head, self.tail)
    }

    /// The bytes as one slice: borrowed when one piece holds them all.
    pub fn joined(self) -> Cow<'a, [u8]> {
        match (self.head, self.tail) {
            (head, []) => head,
            (Cow::Borrowed([]), tail) => Cow::Borrowed(tail),
            (head, tail) => Cow::Owned([&head[..], tail].concat()),
        }
    }
}

impl<'a> From<Cow<'a, [u8]>> for Pieces<'a> {
    fn from(head: Cow<'a, [u8]>) -> Pieces<'a> {
        Pieces { head, tail: &[] }
    }
}

#[derive(Debug)]
enum Buffer {
    Sparse(Sparse),
    Tiled(Tiled),
}

impl Buffer {
    /// Logical length in bytes.
    fn len(&self) -> usize {
        match self {
            Buffer::Sparse(s) => s.len,
            Buffer::Tiled(t) => t.template.len() * t.slots.len(),
        }
    }

    /// The bytes of `[start, stop)`, which the caller has checked against
    /// [`Self::len`].
    fn read(&self, start: usize, stop: usize) -> Pieces<'_> {
        match self {
            Buffer::Sparse(s) => s.read(start, stop).into(),
            Buffer::Tiled(t) => {
                let len = t.template.len();
                let (n, at) = (start / len, start % len);
                match stop - start {
                    // Nothing to read — possibly at the very end, past the
                    // last tile.
                    0 => Pieces::EMPTY,
                    take if take <= len - at => {
                        let (head, tail) = t.split(n, at, at + take);
                        Pieces {
                            head: Cow::Borrowed(head),
                            tail,
                        }
                    }
                    take => {
                        let mut out = Vec::with_capacity(take);
                        for (n, at, take) in pieces(len, start, stop) {
                            let (head, tail) = t.split(n, at, at + take);
                            out.extend_from_slice(head);
                            out.extend_from_slice(tail);
                        }
                        Cow::<[u8]>::Owned(out).into()
                    }
                }
            }
        }
    }

    fn write(&mut self, offset: usize, bytes: &[u8]) {
        match self {
            Buffer::Sparse(s) => s.cover(offset, offset + bytes.len(), false, |from, to| {
                to.copy_from_slice(&bytes[from..from + to.len()])
            }),
            Buffer::Tiled(t) => {
                let mut rest = bytes;
                for (n, at, take) in pieces(t.template.len(), offset, offset + bytes.len()) {
                    let (piece, tail) = rest.split_at(take);
                    t.room_mut(n, at + take)[at..at + take].copy_from_slice(piece);
                    rest = tail;
                }
            }
        }
    }

    fn reserved_bytes(&self) -> usize {
        match self {
            Buffer::Sparse(s) => s.reserved_bytes(),
            Buffer::Tiled(t) => t.reserved_bytes(),
        }
    }
}

#[derive(Debug)]
struct Window {
    buffer: BufferId,
    base: u64,
    len: u64,
    generation: u32,
    revoked: bool,
}

/// Registry of buffers and windows for one backend.
#[derive(Debug, Default)]
pub struct RegionTable {
    buffers: Vec<Buffer>,
    windows: Vec<Window>,
    next_generation: u32,
}

impl RegionTable {
    /// Empty table.
    pub fn new() -> RegionTable {
        RegionTable::default()
    }

    fn push_buffer(&mut self, buffer: Buffer) -> BufferId {
        self.buffers.push(buffer);
        BufferId(self.buffers.len() as u32 - 1)
    }

    fn tiled(&self, id: BufferId) -> &Tiled {
        match &self.buffers[id.0 as usize] {
            Buffer::Tiled(t) => t,
            Buffer::Sparse(_) => panic!("buffer {} is not tiled", id.0),
        }
    }

    fn sparse_mut(&mut self, id: BufferId) -> &mut Sparse {
        match &mut self.buffers[id.0 as usize] {
            Buffer::Sparse(s) => s,
            Buffer::Tiled(_) => panic!("buffer {} is tiled, not a data buffer", id.0),
        }
    }

    fn tiled_mut(&mut self, id: BufferId) -> &mut Tiled {
        match &mut self.buffers[id.0 as usize] {
            Buffer::Tiled(t) => t,
            Buffer::Sparse(_) => panic!("buffer {} is not tiled", id.0),
        }
    }

    /// Allocate a zeroed buffer of `len` bytes ("populated" memory, i.e.
    /// resident DRAM in the paper's terms). The host stores only what is
    /// later written into it.
    pub fn alloc_buffer(&mut self, len: usize) -> BufferId {
        self.push_buffer(Buffer::Sparse(Sparse::new(len)))
    }

    /// Allocate a buffer that reads as `tile` repeated `count` times — as
    /// populated as any other to the model, while the host stores 4 bytes
    /// per tile until a tile is first written, and then the tile's room.
    pub fn alloc_tiled_buffer(&mut self, tile: &[u8], count: usize) -> BufferId {
        assert!(!tile.is_empty(), "a tile holds at least one byte");
        assert!(count <= 1 << RECORD_BITS, "too many tiles");
        assert!(class_of(tile.len()) < 31, "tile too long");
        self.push_buffer(Buffer::Tiled(Tiled::new(tile, count)))
    }

    /// Grow a data buffer to `new_len` (models populating more of the
    /// reserved virtual range via `mmap`): only its length moves. Shrinking
    /// is not supported at runtime — the paper downsizes only via
    /// non-disruptive restart.
    pub fn grow_buffer(&mut self, id: BufferId, new_len: usize) {
        let Buffer::Sparse(data) = &mut self.buffers[id.0 as usize] else {
            panic!("buffer {} is tiled: only data buffers grow", id.0);
        };
        assert!(new_len >= data.len, "data regions only grow at runtime");
        data.len = new_len;
    }

    /// Replace a buffer's contents with a fresh zeroed buffer of `new_len`
    /// (restart-time downsizing; `0` releases the buffer), freeing what the
    /// old one stored. The memory its windows were registered over is
    /// gone, so every one of them is revoked.
    pub fn realloc_buffer(&mut self, id: BufferId, new_len: usize) {
        self.buffers[id.0 as usize] = Buffer::Sparse(Sparse::new(new_len));
        for w in self.windows.iter_mut().filter(|w| w.buffer == id) {
            w.revoked = true;
        }
    }

    /// Current populated (logical) length of a buffer.
    pub fn buffer_len(&self, id: BufferId) -> usize {
        self.buffers[id.0 as usize].len()
    }

    /// Total resident bytes across all buffers (Fig. 3 accounting): the
    /// model's populated DRAM, whatever the host has materialised.
    pub fn resident_bytes(&self) -> u64 {
        self.buffers.iter().map(|b| b.len() as u64).sum()
    }

    /// Write bytes into a buffer. Panics on out-of-bounds (backend bug).
    pub fn write(&mut self, id: BufferId, offset: usize, bytes: &[u8]) {
        self.buffers[id.0 as usize].write(offset, bytes);
    }

    /// Make `[offset, offset + len)` of a data buffer one stored extent per
    /// 64 KiB page it touches, without changing what it reads as: writes
    /// into it then land in place, and a read of it within a page is one
    /// borrowed slice. For a range about to be written piece by piece (a
    /// DataEntry streamed into its slot). Panics on out-of-bounds.
    pub fn reserve(&mut self, id: BufferId, offset: usize, len: usize) {
        self.sparse_mut(id)
            .cover(offset, offset + len, true, |_, _| {});
    }

    /// Make `[offset, offset + len)` of a data buffer the bytes
    /// `from..from + len` of `buf`, an immutable entry buffer that others
    /// may hold too: the region keeps a handle on it, not a copy. A read
    /// borrows it as it borrows any extent; a write inside it later splits
    /// it, the parts before and after staying slices of `buf`. An entry
    /// shared piece by piece as it streams in is one extent of its buffer
    /// (see also [`RegionTable::settle_tail`]). Panics on out-of-bounds.
    pub fn share(&mut self, id: BufferId, offset: usize, buf: &Rc<[u8]>, from: usize, len: usize) {
        self.sparse_mut(id).share(offset, buf, from, len);
    }

    /// An entry shared into a data buffer ends at `end`: when what follows
    /// is an older, longer entry's tail, copy it into a buffer of the
    /// region's own (merged with the remnant older ones left after it), so
    /// the slot pins no dead buffer. What the buffer reads as is unchanged.
    pub fn settle_tail(&mut self, id: BufferId, end: usize) {
        self.sparse_mut(id).settle(end);
    }

    /// Write `bytes` at offset `at` of every tile of a tiled buffer, written
    /// or not: O(rooms stored), the rest read the patched template.
    pub fn write_every_tile(&mut self, id: BufferId, at: usize, bytes: &[u8]) {
        self.tiled_mut(id).write_every_tile(at, bytes);
    }

    /// The stored prefix of tile `n` of a tiled buffer (backend-local access
    /// by tile number): its room, or the whole template when nobody wrote
    /// it. The tile's bytes past it are the template's.
    pub fn tile(&self, id: BufferId, n: usize) -> &[u8] {
        let t = self.tiled(id);
        match t.room(n) {
            [] => &t.template,
            room => room,
        }
    }

    /// Tile `n`'s room, grown to hold at least its first `end` bytes, for
    /// writing in place.
    pub fn tile_mut(&mut self, id: BufferId, n: usize, end: usize) -> &mut [u8] {
        assert!(end <= self.tiled(id).template.len(), "write past a tile");
        self.tiled_mut(id).room_mut(n, end)
    }

    /// Read bytes directly from a buffer (backend-local access, no RMA
    /// semantics). Panics on out-of-bounds (backend bug).
    pub fn read_buffer(&self, id: BufferId, offset: usize, len: usize) -> Cow<'_, [u8]> {
        self.buffers[id.0 as usize]
            .read(offset, offset + len)
            .joined()
    }

    /// Host bytes one buffer holds (its part of [`Self::reserved_bytes`]).
    pub fn buffer_reserved_bytes(&self, id: BufferId) -> usize {
        self.buffers[id.0 as usize].reserved_bytes()
    }

    /// Host bytes the table holds: slot tables and room arenas of tiled
    /// buffers, segments and page records of data buffers, window records.
    /// The model's DRAM is [`Self::resident_bytes`].
    pub fn reserved_bytes(&self) -> usize {
        self.buffers.capacity() * size_of::<Buffer>()
            + self
                .buffers
                .iter()
                .map(Buffer::reserved_bytes)
                .sum::<usize>()
            + self.windows.capacity() * size_of::<Window>()
    }

    /// Register an RMA window over `[base, base+len)` of a buffer. Returns
    /// the window id; its generation is unique within this table.
    pub fn register_window(&mut self, buffer: BufferId, base: u64, len: u64) -> WindowId {
        let gen = self.next_generation;
        self.next_generation += 1;
        self.windows.push(Window {
            buffer,
            base,
            len,
            generation: gen,
            revoked: false,
        });
        WindowId(self.windows.len() as u32 - 1)
    }

    /// Revoke remote access to a window. Subsequent reads fail with
    /// [`RmaStatus::WindowRevoked`].
    pub fn revoke_window(&mut self, id: WindowId) {
        self.windows[id.0 as usize].revoked = true;
    }

    /// Generation of a window (advertised to clients at connection time).
    pub fn window_generation(&self, id: WindowId) -> u32 {
        self.windows[id.0 as usize].generation
    }

    /// Whether a window is currently serving.
    pub fn window_active(&self, id: WindowId) -> bool {
        !self.windows[id.0 as usize].revoked
    }

    /// Perform an RMA read against a window with the client's generation
    /// expectation. This is the NIC's-eye view of memory: it snapshots
    /// whatever bytes are there *right now*, including intermediate states
    /// of in-progress mutations (torn reads).
    pub fn read_window(
        &self,
        id: WindowId,
        generation: u32,
        offset: u64,
        len: u32,
    ) -> Result<Bytes, RmaStatus> {
        self.read_window_slice(id, generation, offset, len)
            .map(|data| Bytes::copy_from_slice(&data.joined()))
    }

    /// Borrowed variant of [`RegionTable::read_window`]: the server's
    /// copy-free path. The pieces alias live backend memory, so callers
    /// must consume them (e.g. encode them into a response frame) before
    /// any mutation of this table. Only a read that straddles tiles of a
    /// tiled buffer, or pages or extents of a data buffer, comes back owned.
    pub fn read_window_slice(
        &self,
        id: WindowId,
        generation: u32,
        offset: u64,
        len: u32,
    ) -> Result<Pieces<'_>, RmaStatus> {
        let Some(w) = self.windows.get(id.0 as usize) else {
            return Err(RmaStatus::WindowRevoked);
        };
        if w.revoked {
            return Err(RmaStatus::WindowRevoked);
        }
        if w.generation != generation {
            return Err(RmaStatus::BadGeneration);
        }
        let end = offset
            .checked_add(len as u64)
            .ok_or(RmaStatus::OutOfBounds)?;
        if end > w.len {
            return Err(RmaStatus::OutOfBounds);
        }
        let buf = &self.buffers[w.buffer.0 as usize];
        let start = (w.base + offset) as usize;
        let stop = (w.base + end) as usize;
        if stop > buf.len() {
            // Window extends over reserved-but-unpopulated address space.
            return Err(RmaStatus::OutOfBounds);
        }
        Ok(buf.read(start, stop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_window() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(1024);
        let w = t.register_window(b, 0, 1024);
        t.write(b, 100, b"hello");
        let gen = t.window_generation(w);
        let got = t.read_window(w, gen, 100, 5).unwrap();
        assert_eq!(&got[..], b"hello");
    }

    #[test]
    fn revoked_window_fails() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        let w = t.register_window(b, 0, 64);
        let gen = t.window_generation(w);
        t.revoke_window(w);
        assert_eq!(t.read_window(w, gen, 0, 8), Err(RmaStatus::WindowRevoked));
        assert!(!t.window_active(w));
    }

    #[test]
    fn stale_generation_fails() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        let w = t.register_window(b, 0, 64);
        let gen = t.window_generation(w);
        assert_eq!(
            t.read_window(w, gen + 1, 0, 8),
            Err(RmaStatus::BadGeneration)
        );
    }

    #[test]
    fn bounds_checked() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        let w = t.register_window(b, 0, 64);
        let gen = t.window_generation(w);
        assert_eq!(t.read_window(w, gen, 60, 8), Err(RmaStatus::OutOfBounds));
        assert_eq!(
            t.read_window(w, gen, u64::MAX, 8),
            Err(RmaStatus::OutOfBounds)
        );
        assert!(t.read_window(w, gen, 56, 8).is_ok());
    }

    #[test]
    fn overlapping_windows_same_buffer() {
        // The data-region growth pattern: a second, larger window over the
        // same buffer; both serve until the first is revoked.
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(128);
        let w1 = t.register_window(b, 0, 128);
        t.grow_buffer(b, 256);
        let w2 = t.register_window(b, 0, 256);
        t.write(b, 200, b"xyz");
        let g1 = t.window_generation(w1);
        let g2 = t.window_generation(w2);
        assert_ne!(g1, g2);
        // Old window still serves its range.
        assert!(t.read_window(w1, g1, 0, 64).is_ok());
        // Old window cannot see the grown range.
        assert_eq!(t.read_window(w1, g1, 120, 32), Err(RmaStatus::OutOfBounds));
        // New window covers everything.
        assert_eq!(&t.read_window(w2, g2, 200, 3).unwrap()[..], b"xyz");
    }

    #[test]
    fn window_over_unpopulated_range_fails_until_grown() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        // Register the *maximum possible* window up front (the mmap
        // PROT_NONE reservation), populate lazily.
        let w = t.register_window(b, 0, 1024);
        let gen = t.window_generation(w);
        assert_eq!(t.read_window(w, gen, 512, 8), Err(RmaStatus::OutOfBounds));
        t.grow_buffer(b, 1024);
        assert!(t.read_window(w, gen, 512, 8).is_ok());
    }

    #[test]
    fn resident_bytes_tracks_growth() {
        let mut t = RegionTable::new();
        let a = t.alloc_buffer(100);
        let _b = t.alloc_buffer(50);
        assert_eq!(t.resident_bytes(), 150);
        t.grow_buffer(a, 300);
        assert_eq!(t.resident_bytes(), 350);
        t.realloc_buffer(a, 10);
        assert_eq!(t.resident_bytes(), 60);
    }

    #[test]
    fn growth_copies_written_chunks_byte_for_byte() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(3 * 4096 + 100);
        // Writes across the first chunk boundary and into the last, partial
        // chunk; the chunks between stay unwritten.
        t.write(b, 4096 - 3, b"abcdef");
        t.write(b, 3 * 4096 + 90, b"tail");
        t.grow_buffer(b, 5 * 4096);
        t.write(b, 4 * 4096 + 1, b"grown");
        t.grow_buffer(b, 8 * 4096);
        let mut want = vec![0u8; 8 * 4096];
        want[4096 - 3..4096 + 3].copy_from_slice(b"abcdef");
        want[3 * 4096 + 90..3 * 4096 + 94].copy_from_slice(b"tail");
        want[4 * 4096 + 1..4 * 4096 + 6].copy_from_slice(b"grown");
        assert_eq!(&t.read_buffer(b, 0, want.len())[..], &want[..]);
    }

    #[test]
    fn realloc_revokes_every_window_over_the_buffer() {
        let mut t = RegionTable::new();
        let other = t.alloc_buffer(64);
        let b = t.alloc_buffer(64);
        let keeps = t.register_window(other, 0, 64);
        let w1 = t.register_window(b, 0, 64);
        t.grow_buffer(b, 128);
        let w2 = t.register_window(b, 0, 128);
        t.realloc_buffer(b, 32);
        for w in [w1, w2] {
            let gen = t.window_generation(w);
            assert_eq!(t.read_window(w, gen, 0, 8), Err(RmaStatus::WindowRevoked));
        }
        assert!(t.window_active(keeps));
    }

    #[test]
    fn tiled_buffer_reads_as_its_tile_repeated() {
        let mut t = RegionTable::new();
        let b = t.alloc_tiled_buffer(b"abcde", 4);
        let w = t.register_window(b, 0, 20);
        let gen = t.window_generation(w);
        assert_eq!(t.buffer_len(b), 20);
        assert_eq!(t.resident_bytes(), 20);
        assert_eq!(
            &t.read_window(w, gen, 0, 20).unwrap()[..],
            b"abcdeabcdeabcdeabcde"
        );
        // One written tile; a read across it and its unwritten neighbours.
        t.write(b, 7, b"XY");
        assert_eq!(t.tile(b, 1), b"abXYe");
        assert_eq!(&t.read_window(w, gen, 3, 9).unwrap()[..], b"deabXYeab");
        assert!(matches!(
            t.read_window_slice(w, gen, 5, 5),
            Ok(Pieces {
                head: Cow::Borrowed(b"abXYe"),
                tail: []
            })
        ));
        // Written and unwritten tiles both take a stamp.
        t.write_every_tile(b, 0, b"#");
        assert_eq!(
            &t.read_window(w, gen, 0, 20).unwrap()[..],
            b"#bcde#bXYe#bcde#bcde"
        );
        t.tile_mut(b, 3, 5)[4] = b'!';
        assert_eq!(&t.read_buffer(b, 14, 6)[..], b"e#bcd!");
        assert_eq!(t.read_window(w, gen, 16, 5), Err(RmaStatus::OutOfBounds));
        assert_eq!(t.resident_bytes(), 20);
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn grow_rejects_shrink() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(100);
        t.grow_buffer(b, 50);
    }
}
