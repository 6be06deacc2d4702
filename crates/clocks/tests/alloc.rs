//! Complexity gate for the delta-mode clock core, as a count of bytes
//! allocated rather than a timing: in a domain of 1024 servers, receiving,
//! testing and delivering a one-entry delta and stamping the next send
//! must allocate well under 1 KiB. A core that rebuilds the sender's
//! matrix per frame allocates `n² × 8` = 8 MiB for the pending stamp alone.

// The counting allocator is the one piece of `unsafe` in the workspace; it
// forwards every call to `System` unchanged. See `[lints]` in this
// package's manifest.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use aaa_base::DomainServerId;
use aaa_clocks::{Batching, CausalState, StampMode};

/// Bytes requested by the thread that switched `COUNTING` on.
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        if COUNTING.with(Cell::get) {
            BYTES.fetch_add(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` and `layout` describe a block this allocator handed
        // out, which means `System` did.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread requests from the allocator while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn one_entry_delta_costs_under_a_kibibyte_at_n_1024() {
    let n = 1024;
    let d = DomainServerId::new;
    let mut a = CausalState::new(d(0), n, StampMode::Updates);
    let mut b = CausalState::new(d(1), n, StampMode::Updates);

    // The gate sees its own subject: building the state is megabytes.
    let (_, building) = allocated_by(|| CausalState::new(d(2), n, StampMode::Updates));
    assert!(building >= n * n * 8, "counted only {building} B");

    for round in 0..3 {
        let stamp = a.stamp_send(d(1), Batching::Single);
        assert_eq!(stamp.entry_count(), 1, "round {round}");
        let (next, bytes) = allocated_by(|| {
            let pending = b.on_frame(d(0), stamp);
            assert!(b.can_deliver(d(0), &pending));
            b.deliver(d(0), &pending);
            b.stamp_send(d(2), Batching::Single)
        });
        // What `b` forwards: the cell it learnt and its own link cell.
        assert_eq!(next.entry_count(), 2, "round {round}");
        assert!(bytes < 1024, "round {round}: {bytes} B allocated");
    }
}
