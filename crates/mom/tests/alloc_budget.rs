//! The allocation budget of the hop path: what one message costs the
//! allocator on its way through two servers, counted, not timed.
//!
//! Two `ServerCore`s of one domain exchange batches of 32 messages: the
//! sender stamps, encodes and flushes them, the receiver decodes, delivers
//! and acknowledges them, and the sender settles the ack. Only the calls
//! into the cores are counted; the test builds the notifications outside
//! the count. After a warm-up that lets the cores' queues and buffers reach
//! their working size, every allocator call that requests memory (`alloc`,
//! `alloc_zeroed`, `realloc`) counts, and the total per delivered message
//! must stay within [`CALLS_PER_MESSAGE`]: one encode into a presized
//! buffer, adopted without a copy, and decoding that borrows the frame.
//!
//! A second case counts what a receiver requests to postpone a delta frame
//! that arrives before its causal predecessor: a bound set by the cells of
//! the receiver's column, not by the entries the frame carries.

// The counting allocator below is this test's one piece of `unsafe`; it
// forwards every call to `System` unchanged. See `[lints]` in the manifest.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use aaa_base::{AgentId, ServerId, VTime};
use aaa_mom::{FnAgent, Notification, SendOptions, ServerConfig, ServerCore};
use aaa_storage::MemoryStore;
use aaa_topology::TopologySpec;

/// Allocator calls allowed per delivered message, send to ack.
const CALLS_PER_MESSAGE: f64 = 3.0;
const BATCH: usize = 32;
const WARM_UP_ROUNDS: usize = 100;
/// Bytes a receiver requests to postpone a delta frame, besides the cells
/// of its column it copies out: the step's own buffers and the
/// acknowledgement it sends back, about 400 B whatever the frame carries.
const COLUMN_BASE: u64 = 448;
const ROUNDS: usize = 1_000;

thread_local! {
    /// Calls that requested memory, and the bytes they requested, on this
    /// thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        CALLS.with(|calls| calls.set(calls.get().wrapping_add(1)));
        BYTES.with(|bytes| bytes.set(bytes.get().wrapping_add(size as u64)));
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

/// Calls and bytes this thread requests while `f` runs, added to `total`.
fn counted<T>(total: &mut (u64, u64), f: impl FnOnce() -> T) -> T {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    total.0 += CALLS.with(Cell::get).wrapping_sub(before.0);
    total.1 += BYTES.with(Cell::get).wrapping_sub(before.1);
    out
}

fn sid(i: u16) -> ServerId {
    ServerId::new(i)
}

#[test]
fn a_message_costs_at_most_three_allocator_calls_from_send_to_ack() {
    let topo = TopologySpec::single_domain(2).validate().unwrap();
    let mut cores: Vec<ServerCore> = (0..2)
        .map(|i| {
            let store = Arc::new(MemoryStore::new());
            ServerCore::new(&topo, sid(i), ServerConfig::default(), store).unwrap()
        })
        .collect();
    let sink = cores[1].register_agent(1, Box::new(FnAgent::new(|_, _, _| {})));
    let client = AgentId::new(sid(0), 9);

    let mut total = (0u64, 0u64);
    let mut delivered = 0u64;
    for round in 0..WARM_UP_ROUNDS + ROUNDS {
        if round == WARM_UP_ROUNDS {
            total = (0, 0);
            delivered = 0;
        }
        let now = VTime::from_micros(round as u64 * 100);
        let batch: Vec<_> = (0..BATCH)
            .map(|i| (sink, Notification::new("ping", vec![i as u8; 16])))
            .collect();
        let (sender, receiver) = cores.split_at_mut(1);
        let (sender, receiver) = (&mut sender[0], &mut receiver[0]);
        let (_, datagrams) = counted(&mut total, || {
            sender.client_send_batch(client, batch, SendOptions::new(), now)
        })
        .unwrap();
        for datagram in datagrams {
            assert_eq!(datagram.to, sid(1));
            let acks = counted(&mut total, || {
                receiver.on_datagram(sid(0), datagram.bytes, now)
            })
            .unwrap();
            for ack in acks {
                assert_eq!(ack.to, sid(0));
                let more = counted(&mut total, || sender.on_datagram(sid(1), ack.bytes, now));
                assert!(more.unwrap().is_empty(), "an ack answers nothing");
            }
        }
        delivered += receiver.take_step_stats().delivered;
    }

    assert_eq!(
        delivered,
        (ROUNDS * BATCH) as u64,
        "every message delivered"
    );
    assert!(
        cores.iter().all(ServerCore::is_idle),
        "everything acknowledged"
    );
    let calls = total.0 as f64 / delivered as f64;
    let bytes = total.1 as f64 / delivered as f64;
    eprintln!("{calls:.2} allocator calls and {bytes:.0} B per delivered message");
    assert!(
        calls <= CALLS_PER_MESSAGE,
        "{calls:.2} allocator calls per message, budget {CALLS_PER_MESSAGE}"
    );
}

/// Servers of the postponement case's domain: three run, the rest only
/// receive stamps that are never delivered, so a stamp carries one cell
/// per destination.
const WIDE: u16 = 64;

/// What a postponed message keeps. Three servers of a domain of
/// [`WIDE`]: server 0 sends `a` to server 2, stamps a message to every
/// other server of the domain, and sends `b` to server 1, which delivers
/// it and sends `c` to server 2. `c`'s stamp carries every cell server 0
/// raised — about [`WIDE`] entries — but only one of server 2's column
/// besides the link cell: `a`'s. `c` reaches server 2 first and is
/// postponed there. The bytes server 2's `on_datagram` requests for it are
/// bounded by that one cell, not by the frame's entries: the list stays a
/// view of the received buffer and only the column is copied out. A
/// receiver that decodes the list into entries of 16 bytes each needs
/// about a kilobyte more.
#[test]
fn a_postponed_delta_keeps_its_column_not_its_entries() {
    let topo = TopologySpec::single_domain(WIDE).validate().unwrap();
    let mut cores: Vec<ServerCore> = (0..3)
        .map(|i| {
            let store = Arc::new(MemoryStore::new());
            ServerCore::new(&topo, sid(i), ServerConfig::default(), store).unwrap()
        })
        .collect();
    let sink1 = cores[1].register_agent(1, Box::new(FnAgent::new(|_, _, _| {})));
    let sink2 = cores[2].register_agent(1, Box::new(FnAgent::new(|_, _, _| {})));
    let (client0, client1) = (AgentId::new(sid(0), 9), AgentId::new(sid(1), 9));
    let note = |kind: &str| Notification::new(kind, vec![0u8; 16]);

    // Round 0 warms server 2's queues and buffers up; round 1 is counted.
    let mut requested = 0u64;
    for round in 0..2u64 {
        let now = VTime::from_micros(round * 1_000);
        let (_, a) = cores[0]
            .client_send(client0, sink2, note("a"), now)
            .unwrap();
        let elsewhere = (3..WIDE)
            .map(|k| (AgentId::new(sid(k), 1), note("x")))
            .collect();
        cores[0]
            .client_send_batch(client0, elsewhere, SendOptions::new(), now)
            .unwrap();
        let (_, b) = cores[0]
            .client_send(client0, sink1, note("b"), now)
            .unwrap();
        for t in b {
            cores[1].on_datagram(sid(0), t.bytes, now).unwrap();
        }
        let (_, c) = cores[1]
            .client_send(client1, sink2, note("c"), now)
            .unwrap();
        let mut total = (0u64, 0u64);
        for t in c {
            counted(&mut total, || cores[2].on_datagram(sid(1), t.bytes, now)).unwrap();
        }
        assert_eq!(cores[2].channel().postponed_count(), 1, "c waits for a");
        requested = total.1;
        for t in a {
            cores[2].on_datagram(sid(0), t.bytes, now).unwrap();
        }
        assert_eq!(cores[2].take_step_stats().delivered, 2, "a, then c");
    }
    eprintln!("{requested} B requested to postpone a delta of about {WIDE} entries");
    // One column cell: a vector's first four slots of (row, value).
    let column = 4 * 16;
    assert!(
        requested <= COLUMN_BASE + column,
        "{requested} B requested to postpone one message, budget {}",
        COLUMN_BASE + column
    );
}
