//! Complexity gate for the clock core, as a count of bytes allocated
//! rather than a timing, in a domain of 1024 servers:
//!
//! - building a server's state allocates under 1 MiB: `SENT`'s block index
//!   and the change-tag maxima, not the `n² × 8` = 8 MiB of a dense `SENT`
//!   and as much again of dense change tags;
//! - receiving, testing and delivering a one-entry delta and stamping the
//!   next send allocates well under 1 KiB, the first writes to blocks of
//!   `SENT` (counters and change tags side by side) included. A core that rebuilds the sender's
//!   matrix per frame allocates 8 MiB for the pending stamp alone;
//! - in Hybrid, an echo exchange with a fresh peer allocates, for each
//!   side's model of the other, the model's block index plus the blocks
//!   the exchange touched — not a dense 8 MiB matrix per peer.

// The counting allocator is the one piece of `unsafe` in the workspace; it
// forwards every call to `System` unchanged. See `[lints]` in this
// package's manifest.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aaa_base::DomainServerId;
use aaa_clocks::{Batching, CausalState, StampMode};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread requested while `COUNTING` was on: per thread, so
    /// tests running side by side do not count each other.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        if COUNTING.with(Cell::get) {
            BYTES.with(|b| b.set(b.get() + size));
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
    let before = BYTES.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get) - before)
}

/// A matrix's block index: one `u32` per 16 cells.
fn index_bytes(n: usize) -> usize {
    n * n / 16 * 4
}

#[test]
fn one_entry_delta_costs_under_a_kibibyte_at_n_1024() {
    let n = 1024;
    let d = DomainServerId::new;
    let mut a = CausalState::new(d(0), n, StampMode::Updates);
    let mut b = CausalState::new(d(1), n, StampMode::Updates);

    // Building the state is the index and the tag maxima, not n² cells.
    let (_, building) = allocated_by(|| CausalState::new(d(2), n, StampMode::Updates));
    assert!(building < 1 << 20, "building allocated {building} B");
    assert!(building >= index_bytes(n), "counted only {building} B");

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
        // Round 0 writes two blocks of `SENT` for the first time.
        assert!(bytes < 1024, "round {round}: {bytes} B allocated");
    }
}

#[test]
fn hybrid_echo_models_a_fresh_peer_in_the_blocks_it_touched() {
    let n = 1024;
    let d = DomainServerId::new;
    let mut a = CausalState::new(d(0), n, StampMode::Hybrid);
    let mut b = CausalState::new(d(1), n, StampMode::Hybrid);
    let ((), bytes) = allocated_by(|| {
        let ping = a.stamp_send(d(1), Batching::Single);
        let pending = b.on_frame(d(0), ping);
        b.deliver(d(0), &pending);
        let echo = b.stamp_send(d(0), Batching::Single);
        let pending = a.on_frame(d(1), echo);
        a.deliver(d(1), &pending);
    });
    // Two fresh models (`a`'s of `b`, `b`'s of `a`), each its index and
    // a few blocks; a dense model alone would be 8 MiB.
    let budget = 2 * index_bytes(n) + 4096;
    assert!(bytes < budget, "{bytes} B allocated, budget {budget} B");
    assert!(bytes >= 2 * index_bytes(n), "counted only {bytes} B");
}
