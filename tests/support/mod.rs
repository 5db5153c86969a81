//! Shared by the test binaries that gate allocation counts: a counting
//! `#[global_allocator]` (one per binary that declares `mod support;`) and
//! the calling thread's tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;

thread_local! {
    /// Allocation calls made by the current thread (tests run on threads of
    /// their own, so one test's count is not another's).
    static ALLOCS: StdCell<u64> = const { StdCell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn bump() {
        // `try_with`: the allocator can be called while a thread's locals
        // are being torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls (`alloc` + `realloc`) the current thread has made.
pub fn allocs() -> u64 {
    ALLOCS.with(|n| n.get())
}
