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
//! what was written: a flat buffer is allocated zeroed (pages nobody
//! touched are not resident), and a **tiled** buffer
//! ([`RegionTable::alloc_tiled_buffer`]) — one tile repeated, the shape of a
//! bucket array — keeps one shared template for every tile nobody has
//! written and copies it out on a tile's first write.

use std::borrow::Cow;

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

/// `template` repeated `slots.len()` times, storing only the tiles that
/// were written.
#[derive(Debug)]
struct Tiled {
    /// What an unwritten tile reads as; its length is the tile length.
    template: Box<[u8]>,
    /// Per tile: [`UNWRITTEN`], or the position of its copy in `arena`.
    slots: Vec<u32>,
    /// The written tiles back to back, in first-write order.
    arena: Vec<u8>,
}

impl Tiled {
    fn tile(&self, n: usize) -> &[u8] {
        match self.slots[n] {
            UNWRITTEN => &self.template,
            slot => {
                let len = self.template.len();
                &self.arena[slot as usize * len..][..len]
            }
        }
    }

    /// Tile `n` for writing: copies the template out on first use.
    fn tile_mut(&mut self, n: usize) -> &mut [u8] {
        let len = self.template.len();
        if self.slots[n] == UNWRITTEN {
            self.slots[n] = (self.arena.len() / len) as u32;
            self.arena.extend_from_slice(&self.template);
        }
        &mut self.arena[self.slots[n] as usize * len..][..len]
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

#[derive(Debug)]
enum Buffer {
    Flat(Vec<u8>),
    Tiled(Tiled),
}

impl Buffer {
    /// Logical length in bytes.
    fn len(&self) -> usize {
        match self {
            Buffer::Flat(data) => data.len(),
            Buffer::Tiled(t) => t.template.len() * t.slots.len(),
        }
    }

    /// The bytes of `[start, stop)`, which the caller has checked against
    /// [`Self::len`]. Borrowed, unless the range straddles tiles: then the
    /// pieces are assembled into the bytes a flat buffer would hold.
    fn read(&self, start: usize, stop: usize) -> Cow<'_, [u8]> {
        match self {
            Buffer::Flat(data) => Cow::Borrowed(&data[start..stop]),
            Buffer::Tiled(t) => {
                let len = t.template.len();
                let (n, at) = (start / len, start % len);
                match stop - start {
                    // Nothing to read — possibly at the very end, past the
                    // last tile.
                    0 => Cow::Borrowed(&[]),
                    take if take <= len - at => Cow::Borrowed(&t.tile(n)[at..at + take]),
                    take => {
                        let mut out = Vec::with_capacity(take);
                        for (n, at, take) in pieces(len, start, stop) {
                            out.extend_from_slice(&t.tile(n)[at..at + take]);
                        }
                        Cow::Owned(out)
                    }
                }
            }
        }
    }

    fn write(&mut self, offset: usize, bytes: &[u8]) {
        match self {
            Buffer::Flat(data) => data[offset..offset + bytes.len()].copy_from_slice(bytes),
            Buffer::Tiled(t) => {
                let mut rest = bytes;
                for (n, at, take) in pieces(t.template.len(), offset, offset + bytes.len()) {
                    let (piece, tail) = rest.split_at(take);
                    t.tile_mut(n)[at..at + take].copy_from_slice(piece);
                    rest = tail;
                }
            }
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
            Buffer::Flat(_) => panic!("buffer {} is not tiled", id.0),
        }
    }

    fn tiled_mut(&mut self, id: BufferId) -> &mut Tiled {
        match &mut self.buffers[id.0 as usize] {
            Buffer::Tiled(t) => t,
            Buffer::Flat(_) => panic!("buffer {} is not tiled", id.0),
        }
    }

    /// Allocate a zeroed buffer of `len` bytes ("populated" memory, i.e.
    /// resident DRAM in the paper's terms).
    pub fn alloc_buffer(&mut self, len: usize) -> BufferId {
        self.push_buffer(Buffer::Flat(vec![0; len]))
    }

    /// Allocate a buffer that reads as `tile` repeated `count` times — as
    /// populated as a flat one to the model, while the host stores 4 bytes
    /// per tile until a tile is first written.
    pub fn alloc_tiled_buffer(&mut self, tile: &[u8], count: usize) -> BufferId {
        assert!(!tile.is_empty(), "a tile holds at least one byte");
        assert!(count < UNWRITTEN as usize, "too many tiles");
        self.push_buffer(Buffer::Tiled(Tiled {
            template: tile.into(),
            slots: vec![UNWRITTEN; count],
            arena: Vec::new(),
        }))
    }

    /// Grow a flat buffer to `new_len` (models populating more of the
    /// reserved virtual range via `mmap`). Shrinking is not supported at
    /// runtime — the paper downsizes only via non-disruptive restart.
    pub fn grow_buffer(&mut self, id: BufferId, new_len: usize) {
        let Buffer::Flat(data) = &mut self.buffers[id.0 as usize] else {
            panic!("buffer {} is tiled: only flat buffers grow", id.0);
        };
        assert!(new_len >= data.len(), "data regions only grow at runtime");
        // A fresh zeroed allocation plus a copy of every 4 KiB chunk that
        // holds a nonzero byte: the grown range, and each chunk of the old
        // one nobody wrote, stay untouched pages, which `Vec::resize` or a
        // whole-prefix copy would make resident.
        let mut grown = vec![0; new_len];
        for (to, from) in grown.chunks_mut(4096).zip(data.chunks(4096)) {
            if from.iter().any(|&b| b != 0) {
                to[..from.len()].copy_from_slice(from);
            }
        }
        *data = grown;
    }

    /// Replace a buffer's contents with a fresh zeroed allocation of
    /// `new_len` (restart-time downsizing; `0` releases the buffer). The
    /// memory its windows were registered over is gone, so every one of
    /// them is revoked.
    pub fn realloc_buffer(&mut self, id: BufferId, new_len: usize) {
        self.buffers[id.0 as usize] = Buffer::Flat(vec![0; new_len]);
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

    /// Write `bytes` at offset `at` of every tile of a tiled buffer, written
    /// or not: O(tiles written), the rest share the patched template.
    pub fn write_every_tile(&mut self, id: BufferId, at: usize, bytes: &[u8]) {
        let t = self.tiled_mut(id);
        let len = t.template.len();
        t.template[at..at + bytes.len()].copy_from_slice(bytes);
        for tile in t.arena.chunks_exact_mut(len) {
            tile[at..at + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Tile `n` of a tiled buffer (backend-local access by tile number).
    pub fn tile(&self, id: BufferId, n: usize) -> &[u8] {
        self.tiled(id).tile(n)
    }

    /// Tile `n` of a tiled buffer, for writing in place.
    pub fn tile_mut(&mut self, id: BufferId, n: usize) -> &mut [u8] {
        self.tiled_mut(id).tile_mut(n)
    }

    /// Read bytes directly from a buffer (backend-local access, no RMA
    /// semantics). Panics on out-of-bounds (backend bug).
    pub fn read_buffer(&self, id: BufferId, offset: usize, len: usize) -> Cow<'_, [u8]> {
        self.buffers[id.0 as usize].read(offset, offset + len)
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
            .map(|data| Bytes::copy_from_slice(&data))
    }

    /// Borrowed-slice variant of [`RegionTable::read_window`]: the server's
    /// copy-free path. The slice aliases live backend memory, so callers
    /// must consume it (e.g. encode it into a response frame) before any
    /// mutation of this table. Only a read that straddles tiles of a tiled
    /// buffer comes back owned.
    pub fn read_window_slice(
        &self,
        id: WindowId,
        generation: u32,
        offset: u64,
        len: u32,
    ) -> Result<Cow<'_, [u8]>, RmaStatus> {
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
            Ok(Cow::Borrowed(b"abXYe"))
        ));
        // Written and unwritten tiles both take a stamp.
        t.write_every_tile(b, 0, b"#");
        assert_eq!(
            &t.read_window(w, gen, 0, 20).unwrap()[..],
            b"#bcde#bXYe#bcde#bcde"
        );
        t.tile_mut(b, 3)[4] = b'!';
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
