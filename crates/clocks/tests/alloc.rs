//! Complexity gate for the clock core, as a count of bytes allocated
//! rather than a timing, in a domain of 1024 servers:
//!
//! - building a server's state allocates under 1 MiB: `SENT`'s block index
//!   and the change-tag maxima, not the `n² × 8` = 8 MiB of a dense `SENT`
//!   and as much again of dense change tags;
//! - receiving, testing and delivering a one-entry delta and stamping the
//!   next send allocates well under 1 KiB, the first writes to blocks of
//!   `SENT` (counters and change tags side by side) included. A core that rebuilds the sender's
//!   matrix per frame allocates 8 MiB for the pending stamp alone.

mod common;

use aaa_base::DomainServerId;
use aaa_clocks::{Batching, CausalState, StampMode};
use common::allocated_by;

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
