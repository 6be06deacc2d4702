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
