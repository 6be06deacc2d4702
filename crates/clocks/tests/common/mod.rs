//! A counting `#[global_allocator]` for the tests that hold the clock to
//! an allocation bound: it forwards every call to `System` unchanged and
//! counts the bytes a thread requests while [`allocated_by`] runs, the
//! bytes it still holds of them when [`live_after`] returns, and the
//! requests themselves while [`calls_by`] runs. Beside it,
//! [`reference_pack`], the plain writer of the packed entry list that
//! the clock's own writer is held to.

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
#[allow(dead_code)]
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

/// The packed entry list of `entries` written the plain way, a varint at a
/// time: the count, then for each maximal run of one row its row, its
/// length and its `(col, value)` pairs, every entry kept in the order
/// given. Each varint is LEB128: 7 value bits per byte, low bits first,
/// the high bit set on every byte but the last.
#[allow(dead_code)]
pub fn reference_pack(entries: &[aaa_clocks::UpdateEntry]) -> Vec<u8> {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut out = Vec::new();
    varint(&mut out, entries.len() as u64);
    for run in entries.chunk_by(|a, b| a.row == b.row) {
        varint(&mut out, u64::from(run[0].row));
        varint(&mut out, run.len() as u64);
        for e in run {
            varint(&mut out, u64::from(e.col));
            varint(&mut out, e.value);
        }
    }
    out
}
