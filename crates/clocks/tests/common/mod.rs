//! A counting `#[global_allocator]` for the tests that hold the clock to
//! an allocation bound: it forwards every call to `System` unchanged and
//! counts the bytes a thread requests while [`allocated_by`] runs, the
//! bytes it still holds of them when [`live_after`] returns, and the
//! requests themselves while [`calls_by`] runs.

// The counting allocator is the one piece of `unsafe` in this package; see
// `[lints]` in its manifest.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread requested while `COUNTING` was on: per thread, so
    /// tests running side by side do not count each other.
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed while `COUNTING`
    /// was on.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocation and reallocation requests this thread made while
    /// `COUNTING` was on.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    /// Counts a request for `size` bytes that replaces a block of `freed`.
    fn count(size: usize, freed: usize) {
        if COUNTING.with(Cell::get) {
            BYTES.with(|b| b.set(b.get() + size));
            CALLS.with(|c| c.set(c.get() + 1));
            Self::free(freed);
            LIVE.with(|l| l.set(l.get() + size as isize));
        }
    }

    /// Counts `size` bytes handed back.
    fn free(size: usize) {
        if COUNTING.with(Cell::get) {
            LIVE.with(|l| l.set(l.get() - size as isize));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size(), 0);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size, layout.size());
        // SAFETY: `ptr` and `layout` describe a block this allocator handed
        // out, which means `System` did.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::free(layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread requests from the allocator while `f` runs.
pub fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get) - before)
}

/// Bytes this thread allocated while `f` ran and had not freed when it
/// returned: what `f` leaves behind, its result included.
#[allow(dead_code)]
pub fn live_after<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, LIVE.with(Cell::get) - before)
}

/// Allocation and reallocation requests this thread makes while `f` runs.
#[allow(dead_code)]
pub fn calls_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, CALLS.with(Cell::get) - before)
}
