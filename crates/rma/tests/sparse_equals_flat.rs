//! A data buffer stores only the extents written into it, yet reads exactly
//! like a zeroed flat buffer: seeded random sequences of writes, reserves,
//! reads, growth and reallocation are checked byte for byte against a
//! plain `Vec<u8>`.

use rma::{RegionTable, WindowId};
use simnet::SimRng;

/// A data buffer's page, and the length of a store segment.
const PAGE: usize = 64 << 10;

/// The data buffer and the flat memory it must read as.
struct Pair {
    t: RegionTable,
    b: rma::BufferId,
    /// A window over the whole of the current buffer.
    w: WindowId,
    flat: Vec<u8>,
}

impl Pair {
    fn new(len: usize) -> Pair {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(len);
        let w = t.register_window(b, 0, len as u64);
        Pair {
            t,
            b,
            w,
            flat: vec![0; len],
        }
    }

    fn write(&mut self, at: usize, bytes: &[u8]) {
        self.t.write(self.b, at, bytes);
        self.flat[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Both read entry points against the flat memory.
    fn check(&self, at: usize, len: usize) {
        let want = &self.flat[at..at + len];
        assert!(
            &self.t.read_buffer(self.b, at, len)[..] == want,
            "read_buffer({at}, {len})"
        );
        let generation = self.t.window_generation(self.w);
        let got = self
            .t
            .read_window_slice(self.w, generation, at as u64, len as u32)
            .expect("inside the window")
            .joined();
        assert!(&got[..] == want, "read_window_slice({at}, {len})");
    }

    fn check_all(&self) {
        assert_eq!(self.t.buffer_len(self.b), self.flat.len());
        self.check(0, self.flat.len());
    }
}

/// An offset in `[0, len)`: mostly slot-like (a multiple of 64), sometimes
/// just before a page boundary, sometimes anywhere.
fn offset(rng: &mut SimRng, len: usize) -> usize {
    let at = match rng.gen_range(4) {
        0 => rng.gen_range(len as u64) as usize,
        1 => {
            let page = rng.gen_range(len.div_ceil(PAGE) as u64) as usize;
            (page * PAGE).saturating_sub(rng.gen_range(96) as usize)
        }
        _ => rng.gen_range((len / 64) as u64) as usize * 64,
    };
    at.min(len - 1)
}

/// A length that fits from `at`: mostly entry-sized, sometimes longer than
/// a page.
fn length(rng: &mut SimRng, at: usize, len: usize) -> usize {
    let want = match rng.gen_range(8) {
        0 => rng.gen_range(3 * PAGE as u64) as usize,
        1 => rng.gen_range(9) as usize,
        _ => 1 + rng.gen_range(4096) as usize,
    };
    want.min(len - at)
}

fn run(seed: u64, steps: usize) {
    let mut rng = SimRng::new(seed);
    let mut p = Pair::new(3 * PAGE + 4321);
    for step in 0..steps {
        let len = p.flat.len();
        let at = offset(&mut rng, len);
        let n = length(&mut rng, at, len);
        match rng.gen_range(16) {
            // Writes of every size, the same fill pattern each time so a
            // shorter write over a longer one leaves a visible tail.
            0..=5 => {
                let fill = rng.next_u64() as u8;
                let bytes: Vec<u8> = (0..n).map(|i| fill.wrapping_add(i as u8) | 1).collect();
                p.write(at, &bytes);
            }
            // An entry streamed into a reserved extent in two pieces, read
            // between them (torn) and after.
            6 | 7 => {
                p.t.reserve(p.b, at, n);
                p.check(at, n);
                let half = n / 2;
                let fill = rng.next_u64() as u8;
                let bytes = vec![fill | 1; n];
                p.write(at, &bytes[..half]);
                p.check(at, n);
                p.write(at + half, &bytes[half..]);
                p.check(at, n);
            }
            8 => p.t.reserve(p.b, at, n),
            // Reads anywhere: across extents, pages, and past the last write.
            9..=13 => p.check(at, n),
            14 => {
                let grown = len + rng.gen_range(2 * PAGE as u64) as usize;
                p.t.grow_buffer(p.b, grown);
                p.flat.resize(grown, 0);
                p.w = p.t.register_window(p.b, 0, grown as u64);
            }
            _ => {
                if rng.gen_range(8) == 0 {
                    let fresh = PAGE + rng.gen_range(3 * PAGE as u64) as usize;
                    p.t.realloc_buffer(p.b, fresh);
                    p.flat = vec![0; fresh];
                    p.w = p.t.register_window(p.b, 0, fresh as u64);
                } else {
                    p.check(at, n);
                }
            }
        }
        if step % 64 == 0 {
            p.check_all();
        }
    }
    p.check_all();
}

#[test]
fn random_sequences_read_as_the_flat_buffer() {
    for seed in 1..=24 {
        run(seed, 1_500);
    }
}

#[test]
fn a_shorter_entry_over_a_longer_one_keeps_the_old_tail() {
    let mut p = Pair::new(2 * PAGE);
    // The way a slot is reused: reserve, then stream the entry in.
    p.t.reserve(p.b, 1024, 900);
    p.write(1024, &[7; 900]);
    p.t.reserve(p.b, 1024, 300);
    p.write(1024, &[9; 300]);
    p.check(1024, 900);
    assert_eq!(
        &p.t.read_buffer(p.b, 1320, 8)[..],
        &[9, 9, 9, 9, 7, 7, 7, 7]
    );
    // A longer entry over both grows the extent; what it does not cover
    // still reads as zero.
    p.t.reserve(p.b, 1024, 1200);
    p.check(1000, 1300);
    p.check_all();
}

#[test]
fn reads_past_the_last_write_are_zero() {
    let mut p = Pair::new(4 * PAGE);
    p.write(PAGE - 5, b"across");
    p.check(PAGE - 64, 128);
    p.check(3 * PAGE, PAGE);
    assert!(p.t.read_buffer(p.b, 2 * PAGE, PAGE).iter().all(|&x| x == 0));
    p.check_all();
}

#[test]
fn churn_that_leaves_garbage_still_reads_as_flat() {
    // Every slot of four pages rewritten with ever longer entries: each
    // grows its extent and strands the old bytes, so the store compacts
    // many times over.
    let mut p = Pair::new(4 * PAGE);
    let mut rng = SimRng::new(99);
    for round in 1..=16usize {
        for slot in 0..(4 * PAGE / 1024) {
            let n = 64 * round - rng.gen_range(32) as usize;
            let at = slot * 1024;
            p.t.reserve(p.b, at, n);
            p.write(at, &vec![(slot + round) as u8 | 1; n]);
        }
        p.check_all();
    }
    for slot in (0..(4 * PAGE / 1024)).step_by(7) {
        p.check(slot * 1024, 1024);
    }
}
