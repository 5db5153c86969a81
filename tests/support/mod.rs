//! Shared by the test binaries that gate allocations: a counting
//! `#[global_allocator]` (one per binary that declares `mod support;`) and
//! the calling thread's tallies — calls made, bytes live, bytes asked for
//! zeroed.

// Each binary reads the tallies it gates and leaves the others unused.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;

thread_local! {
    /// Allocation calls made by the current thread (tests run on threads of
    /// their own, so one test's count is not another's).
    static ALLOCS: StdCell<u64> = const { StdCell::new(0) };
    /// Bytes the current thread has allocated and not freed. Signed: a
    /// block may be freed by a thread that did not allocate it.
    static LIVE: StdCell<i64> = const { StdCell::new(0) };
    /// Bytes the current thread obtained through `alloc_zeroed` — memory
    /// the system hands out untouched, where `alloc` + a memset or a
    /// `realloc` + fill would have written every page.
    static ZEROED: StdCell<u64> = const { StdCell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    /// One allocation call that changed the thread's live bytes by `delta`.
    fn bump(delta: i64) {
        // `try_with`: the allocator can be called while a thread's locals
        // are being torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        Self::live(delta);
    }

    fn live(delta: i64) {
        let _ = LIVE.try_with(|n| n.set(n.get() + delta));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // Forwarded, not defaulted: the default is `alloc` + a memset, which
    // would touch every page of a buffer the program only asked to be zero.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump(layout.size() as i64);
        let _ = ZEROED.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls (`alloc` + `alloc_zeroed` + `realloc`) the current
/// thread has made.
pub fn allocs() -> u64 {
    ALLOCS.with(|n| n.get())
}

/// Bytes the current thread has allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE.with(|n| n.get())
}

/// Bytes the current thread has obtained through `alloc_zeroed`.
pub fn zeroed_bytes() -> u64 {
    ZEROED.with(|n| n.get())
}
