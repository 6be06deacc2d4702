//! Complexity gates for the clock core, as counts of bytes rather than
//! timings:
//!
//! - in a domain of 1024 servers, building a server's state allocates
//!   under 1 MiB: `SENT`'s row headers, the change-tag maxima and the
//!   per-peer vectors, not the `n² × 8` = 8 MiB of a dense `SENT` and as
//!   much again of dense change tags;
//! - there, receiving, testing and delivering a one-entry delta and
//!   stamping the next send allocates well under 1 KiB, the first writes
//!   to rows of `SENT` (counters and change tags side by side) included. A
//!   core that rebuilds the sender's matrix per frame allocates 8 MiB for
//!   the pending stamp alone;
//! - on ring traffic, which writes a cell or two per row, the state a
//!   server keeps grows with the cells written, not with `n²`: after 20
//!   rounds one state holds at most 4 KiB at n = 32 and 32 KiB at n = 256.
//!   Blocks of 16 cells under an `n² / 16` index held 9.4 and 94.4 KiB;
//! - on mesh traffic (n = 32, random destinations, frames held on their
//!   links and postponed), once every row has filled, a `stamp_send`
//!   makes 1.72 allocator calls on average (a list past 30 bytes is a
//!   buffer and the shared count `Bytes` adopts it with, a shorter one is
//!   inline), an `on_frame` 1.94 (the receiver's column, grown by
//!   doubling) and a `deliver` none — what the same schedule cost when
//!   deltas were packed and merged a cell at a time: packing, checking
//!   and merging a run at a time keeps no per-message scratch.

mod common;

use aaa_base::DomainServerId;
use aaa_clocks::{Batching, CausalState, PendingStamp, Stamp, StampMode};
use common::{allocated_by, calls_by, live_after};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One 16-byte header per row of `SENT`.
fn row_headers(n: usize) -> usize {
    n * 16
}

#[test]
fn one_entry_delta_costs_under_a_kibibyte_at_n_1024() {
    let n = 1024;
    let d = DomainServerId::new;
    let mut a = CausalState::new(d(0), n, StampMode::Updates);
    let mut b = CausalState::new(d(1), n, StampMode::Updates);

    // Building the state is the row headers, the tag maxima and the
    // vectors, not n² cells.
    let (_, building) = allocated_by(|| CausalState::new(d(2), n, StampMode::Updates));
    assert!(building < 1 << 20, "building allocated {building} B");
    assert!(building >= row_headers(n), "counted only {building} B");

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
        // Round 0 writes two rows of `SENT` for the first time.
        assert!(bytes < 1024, "round {round}: {bytes} B allocated");
    }
}

/// `n` servers of one domain after `rounds` of ring traffic: each sends
/// to the next, which delivers at once.
fn ring(n: usize, rounds: usize) -> Vec<CausalState> {
    let d = |i: usize| DomainServerId::new(u16::try_from(i).expect("a domain id"));
    let mut states: Vec<CausalState> = (0..n)
        .map(|i| CausalState::new(d(i), n, StampMode::Updates))
        .collect();
    for _ in 0..rounds {
        for i in 0..n {
            let to = (i + 1) % n;
            let stamp = states[i].stamp_send(d(to), Batching::Single);
            let pending = states[to].on_frame(d(i), stamp);
            assert!(states[to].can_deliver(d(i), &pending));
            states[to].deliver(d(i), &pending);
        }
    }
    states
}

#[test]
fn ring_traffic_keeps_a_state_to_the_cells_it_wrote() {
    for (n, bound) in [(8, 2 << 10), (32, 4 << 10), (256, 32 << 10)] {
        let (states, live) = live_after(|| ring(n, 20));
        let per_state = live.unsigned_abs() / n;
        println!("n = {n}: {per_state} B per state after 20 ring rounds");
        assert!(live > 0, "counted nothing at n = {n}");
        assert!(per_state <= bound, "n = {n}: {per_state} B per state");
        drop(states);
    }
}

/// Allocator calls, and calls made, per clock operation.
#[derive(Debug, Default)]
struct Calls {
    stamp_send: (usize, usize),
    on_frame: (usize, usize),
    deliver: (usize, usize),
}

impl Calls {
    fn per_op((allocs, ops): (usize, usize)) -> f64 {
        allocs as f64 / ops.max(1) as f64
    }
}

/// One domain of `n` on mesh traffic: each step either stamps a send to
/// a random peer onto that FIFO link, or lands the oldest frame of a
/// random link, which its receiver then delivers with everything it had
/// postponed that became deliverable. After `warm` steps the allocator
/// calls of each clock operation are counted over `counted` more.
fn mesh(n: usize, seed: u64, warm: usize, counted: usize) -> Calls {
    let d = |i: usize| DomainServerId::new(u16::try_from(i).expect("a domain id"));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut states: Vec<CausalState> = (0..n)
        .map(|i| CausalState::new(d(i), n, StampMode::Updates))
        .collect();
    let mut links: Vec<std::collections::VecDeque<Stamp>> =
        (0..n * n).map(|_| Default::default()).collect();
    let mut postponed: Vec<Vec<(usize, PendingStamp)>> = vec![Vec::new(); n];
    let mut calls = Calls::default();
    let count = |step: usize, tally: &mut (usize, usize), allocs: usize| {
        if step >= warm {
            *tally = (tally.0 + allocs, tally.1 + 1);
        }
    };
    for step in 0..warm + counted {
        let from = rng.gen_range(0..n);
        let to = (from + rng.gen_range(1..n)) % n;
        if rng.gen_bool(0.5) {
            let (stamp, allocs) = calls_by(|| states[from].stamp_send(d(to), Batching::Single));
            count(step, &mut calls.stamp_send, allocs);
            links[from * n + to].push_back(stamp);
            continue;
        }
        let Some(stamp) = links[from * n + to].pop_front() else {
            continue;
        };
        let (pending, allocs) = calls_by(|| states[to].on_frame(d(from), stamp));
        count(step, &mut calls.on_frame, allocs);
        postponed[to].push((from, pending));
        while let Some(i) = (postponed[to].iter())
            .position(|(from, pending)| states[to].can_deliver(d(*from), pending))
        {
            let (from, pending) = postponed[to].swap_remove(i);
            let ((), allocs) = calls_by(|| states[to].deliver(d(from), &pending));
            count(step, &mut calls.deliver, allocs);
        }
    }
    calls
}

#[test]
fn mesh_traffic_allocates_no_scratch_per_message() {
    let calls = mesh(32, 45, 20_000, 20_000);
    let [stamp_send, on_frame, deliver] =
        [calls.stamp_send, calls.on_frame, calls.deliver].map(Calls::per_op);
    println!(
        "allocator calls per stamp_send {stamp_send:.3}, on_frame {on_frame:.3}, \
         deliver {deliver:.3} ({calls:?})"
    );
    assert!(
        calls.deliver.1 > 1000,
        "too few deliveries counted: {calls:?}"
    );
    // One scratch buffer per message would add a whole call to each.
    assert!(stamp_send <= 1.73, "{stamp_send:.3} calls per stamp_send");
    assert!(on_frame <= 1.94, "{on_frame:.3} calls per on_frame");
    assert_eq!(calls.deliver.0, 0, "a delivery allocated: {calls:?}");
}
