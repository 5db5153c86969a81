//! A tiled buffer is indistinguishable from a flat one: under any
//! interleaving of writes and RMA reads it returns the bytes and statuses a
//! plain `Vec<u8>` behind the same windows would, and reports the same
//! (logical) length — while each written tile stores only its room (64 B
//! doubling up to the tile), which the writes here grow through every
//! class, patch past and read across.

use std::borrow::Cow;

use proptest::prelude::*;
use proptest::TestCaseError;
use rma::{RegionTable, RmaStatus, WindowId};

/// The flat memory and window rules the tiled buffer must reproduce.
struct Oracle {
    mem: Vec<u8>,
    tile_len: usize,
    /// `(base, len, revoked)` per window, in registration order.
    windows: Vec<(u64, u64, bool)>,
}

impl Oracle {
    fn read(&self, w: usize, stale: bool, offset: u64, len: u32) -> Result<Vec<u8>, RmaStatus> {
        let (base, wlen, revoked) = self.windows[w];
        if revoked {
            return Err(RmaStatus::WindowRevoked);
        }
        if stale {
            return Err(RmaStatus::BadGeneration);
        }
        let end = offset
            .checked_add(len as u64)
            .ok_or(RmaStatus::OutOfBounds)?;
        if end > wlen || base + end > self.mem.len() as u64 {
            return Err(RmaStatus::OutOfBounds);
        }
        Ok(self.mem[(base + offset) as usize..(base + end) as usize].to_vec())
    }
}

/// Both read entry points against the oracle, for one request.
fn check_read(
    t: &RegionTable,
    o: &Oracle,
    w: usize,
    stale: bool,
    offset: u64,
    len: u32,
) -> Result<(), TestCaseError> {
    let id = WindowId(w as u32);
    let generation = t.window_generation(id) + u32::from(stale);
    let want = o.read(w, stale, offset, len);
    let copied = t.read_window(id, generation, offset, len);
    let sliced = t.read_window_slice(id, generation, offset, len);
    if let Ok(pieces) = &sliced {
        // A read inside one tile borrows its room and the template.
        let at = (o.windows[w].0 + offset) as usize;
        if len > 0 && at % o.tile_len + len as usize <= o.tile_len {
            prop_assert!(
                matches!(pieces.head, Cow::Borrowed(_)),
                "owned read in one tile"
            );
        }
    }
    for (path, got) in [
        ("read_window", copied.map(|b| b.to_vec())),
        ("read_window_slice", sliced.map(|b| b.joined().into_owned())),
    ] {
        // Not `prop_assert_eq!`: a mismatch would print both buffers whole.
        prop_assert!(
            got == want,
            "{path}(window {w}, offset {offset}, len {len}): got {:?}, oracle {:?}",
            got.as_ref().map(Vec::len),
            want.as_ref().map(Vec::len),
        );
    }
    Ok(())
}

/// Where a room of some class ends in a `tile_len`-byte tile, give or take
/// a byte: the offsets at which writes change class and reads change piece.
fn near_room_end(tile_len: usize, class: u64, nudge: u64) -> usize {
    let end = (64usize << (class % 5)).min(tile_len);
    (end + (nudge % 3) as usize)
        .saturating_sub(1)
        .min(tile_len - 1)
}

proptest! {
    #[test]
    fn tiled_buffer_equals_flat_oracle(
        tile_len in 1usize..=800,
        count in 1usize..=12,
        seed_tile in proptest::collection::vec(any::<u8>(), 800usize),
        part in (any::<u64>(), any::<u64>()),
        ops in proptest::collection::vec((0u8..14, any::<u64>(), any::<u64>(), any::<u8>()), 1..120),
    ) {
        // Not a power of two (1 stays: every multi-byte access straddles),
        // so tile arithmetic cannot hide behind a shift.
        let tile_len = if tile_len > 1 && tile_len.is_power_of_two() { tile_len + 1 } else { tile_len };
        let tile = &seed_tile[..tile_len];
        let total = (tile_len * count) as u64;

        let mut t = RegionTable::new();
        let b = t.alloc_tiled_buffer(tile, count);
        let mut o = Oracle { mem: tile.repeat(count), tile_len, windows: Vec::new() };
        // Window 0: the whole buffer. 1: a range inside it. 2: reaches past
        // the populated end. 3: revoked.
        let base = part.0 % total;
        let inner = (base, 1 + part.1 % (total - base));
        for (w, &(base, len)) in [(0, total), inner, (total / 2, total), (0, total)].iter().enumerate() {
            prop_assert_eq!(t.register_window(b, base, len), WindowId(w as u32));
            o.windows.push((base, len, w == 3));
        }
        t.revoke_window(WindowId(3));

        for &(kind, x, y, fill) in &ops {
            match kind {
                // A write of up to three tiles' worth at any offset.
                0 | 1 => {
                    let at = (x % total) as usize;
                    let len = (y % (2 * tile_len as u64 + 3)).min(total - at as u64) as usize;
                    let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    t.write(b, at, &bytes);
                    o.mem[at..at + len].copy_from_slice(&bytes);
                }
                // The same bytes at the same place in every tile: anywhere,
                // or from around the end of a room class (past some rooms,
                // inside others).
                2 | 11 => {
                    let at = match kind {
                        2 => (x % tile_len as u64) as usize,
                        _ => near_room_end(tile_len, x, y >> 32),
                    };
                    let len = (y % (tile_len - at + 1) as u64) as usize;
                    let bytes = vec![fill; len];
                    t.write_every_tile(b, at, &bytes);
                    for n in 0..count {
                        o.mem[n * tile_len + at..][..len].copy_from_slice(&bytes);
                    }
                }
                // In place, by tile number: the stored prefix is what the
                // tile reads as, and holds the written byte.
                3 => {
                    let (n, at) = ((x % count as u64) as usize, (y % tile_len as u64) as usize);
                    t.tile_mut(b, n, at + 1)[at] = fill;
                    o.mem[n * tile_len + at] = fill;
                    let stored = t.tile(b, n);
                    prop_assert!(stored.len() > at);
                    prop_assert_eq!(stored, &o.mem[n * tile_len..][..stored.len()]);
                }
                // A few bytes inside one tile, anywhere in it or around a
                // room's end: rooms grow through every class.
                10 => {
                    let n = (x % count as u64) as usize;
                    let at = match fill % 2 {
                        0 => (y % tile_len as u64) as usize,
                        _ => near_room_end(tile_len, y, x >> 32),
                    };
                    let len = (1 + fill as usize % 8).min(tile_len - at);
                    let bytes = vec![fill ^ 0x5a; len];
                    t.write(b, n * tile_len + at, &bytes);
                    o.mem[n * tile_len + at..][..len].copy_from_slice(&bytes);
                }
                // Reads across the end of a room (into the template), and
                // across the boundary of two tiles.
                12 | 13 => {
                    let n = (x % count as u64) as usize;
                    let (reach, len) = ((y % 70) as usize, 1 + (y >> 32) % 140);
                    let around = match kind {
                        12 => n * tile_len + near_room_end(tile_len, x >> 32, y >> 48),
                        _ => n.max(1) * tile_len,
                    };
                    let offset = around.saturating_sub(reach) as u64;
                    let len = len.min(total - offset) as u32;
                    check_read(&t, &o, 0, false, offset, len)?;
                }
                // Reads: anywhere, zero-length, ending at the window's last
                // byte and one past it, and from `u64::MAX`.
                _ => {
                    let w = (fill % 4) as usize;
                    let stale = fill & 0x40 != 0;
                    let wlen = o.windows[w].1;
                    let len = (y % (3 * tile_len as u64 + 2)) as u32;
                    let (offset, len) = match kind {
                        4 | 5 => (x % (wlen + 2), len),
                        6 => (x % (wlen + 2), 0),
                        7 => (wlen.saturating_sub(len as u64), len.min(wlen as u32)),
                        8 => (wlen.saturating_sub(len as u64) + 1, len.min(wlen as u32)),
                        _ => (u64::MAX, len),
                    };
                    check_read(&t, &o, w, stale, offset, len)?;
                }
            }
            // Every byte, through the whole-buffer window, after every step.
            check_read(&t, &o, 0, false, 0, total as u32)?;
            prop_assert_eq!(t.buffer_len(b) as u64, total);
            prop_assert_eq!(t.resident_bytes(), total);
        }
    }
}
