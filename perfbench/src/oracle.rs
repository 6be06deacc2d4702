//! The correctness oracle: every payload names its sender and carries a
//! per-(sender, destination) sequence number, and every sink checks that
//! it sees each pair's numbers exactly once and in order.
//!
//! The sink's state lives in an `Arc` shared with the harness, not in the
//! agent, for two reasons: the harness reads the tallies after the run,
//! and a sink re-created by `Mom::recover` keeps checking where the
//! crashed instance stopped — which is what "exactly once across the
//! crash" means.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aaa_base::AgentId;
use aaa_mom::{Agent, Notification, ReactionContext};

use crate::hist::Histogram;

/// Notification kind of ordinary benchmark traffic.
pub const KIND_MSG: &str = "m";
/// Notification kind of open-loop (paced) traffic: the payload's `due_ns`
/// is when the message was due to be sent.
pub const KIND_PACED: &str = "p";

/// Bytes of the fixed payload header: sender, sequence number, due time.
pub const HEADER_LEN: usize = 4 + 8 + 8;

/// Encodes a payload: header plus `pad` filler bytes.
pub fn encode_payload(sender: u32, seq: u64, due_ns: u64, pad: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(HEADER_LEN + pad);
    body.extend_from_slice(&sender.to_le_bytes());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&due_ns.to_le_bytes());
    body.resize(HEADER_LEN + pad, 0xA5);
    body
}

/// Decodes `(sender, seq, due_ns)`; `None` for a payload this benchmark
/// did not write.
pub fn decode_payload(body: &[u8]) -> Option<(u32, u64, u64)> {
    let sender = u32::from_le_bytes(body.get(0..4)?.try_into().ok()?);
    let seq = u64::from_le_bytes(body.get(4..12)?.try_into().ok()?);
    let due = u64::from_le_bytes(body.get(12..20)?.try_into().ok()?);
    Some((sender, seq, due))
}

/// What one sink has seen. Written by the one thread running the sink's
/// server, read by the harness; the counters are statistics and the
/// expected-sequence cells have a single writer, so `Relaxed` suffices.
pub struct SinkShared {
    /// Next sequence number expected from each sender (numbers start at 1).
    next: Box<[AtomicU64]>,
    delivered: AtomicU64,
    duplicated: AtomicU64,
    misordered: AtomicU64,
    garbled: AtomicU64,
}

impl SinkShared {
    /// A sink expecting traffic from senders `0..senders`.
    pub fn new(senders: usize) -> Arc<SinkShared> {
        Arc::new(SinkShared {
            next: (0..senders).map(|_| AtomicU64::new(1)).collect(),
            delivered: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            misordered: AtomicU64::new(0),
            garbled: AtomicU64::new(0),
        })
    }

    /// Checks one delivery against the pair's expected sequence number.
    pub fn observe(&self, sender: u32, seq: u64) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = self.next.get(sender as usize) else {
            self.garbled.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let expected = cell.load(Ordering::Relaxed);
        match seq.cmp(&expected) {
            std::cmp::Ordering::Equal => cell.store(expected + 1, Ordering::Relaxed),
            // Already seen (or overtaken earlier): a duplicate or a late
            // arrival; either way not exactly-once-in-order.
            std::cmp::Ordering::Less => {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
            }
            // A gap: something before it is lost or still to come.
            std::cmp::Ordering::Greater => {
                self.misordered.fetch_add(1, Ordering::Relaxed);
                cell.store(seq + 1, Ordering::Relaxed);
            }
        }
    }

    /// Deliveries seen so far (including bad ones).
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }
}

/// Sum of the deliveries of several sinks.
pub fn delivered_total(sinks: &[Arc<SinkShared>]) -> u64 {
    sinks.iter().map(|s| s.delivered()).sum()
}

/// The verdict over a whole execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Messages handed to the program.
    pub attempted: u64,
    /// Refused with an error other than `Backpressure` (which is retried).
    pub refused: u64,
    /// Delivered more than once, or after a later one of the same pair.
    pub duplicated: u64,
    /// Delivered ahead of an earlier one of the same pair.
    pub misordered: u64,
    /// Accepted but never delivered.
    pub lost: u64,
    /// Delivered with a payload the benchmark did not write.
    pub garbled: u64,
}

impl Tally {
    /// Closes the books: `attempted` messages were offered, `refused` of
    /// them rejected, and the sinks saw the rest (or not).
    pub fn close(attempted: u64, refused: u64, sinks: &[Arc<SinkShared>]) -> Tally {
        let sum = |f: fn(&SinkShared) -> &AtomicU64| -> u64 {
            sinks.iter().map(|s| f(s).load(Ordering::Relaxed)).sum()
        };
        let delivered = sum(|s| &s.delivered);
        let duplicated = sum(|s| &s.duplicated);
        let garbled = sum(|s| &s.garbled);
        let accepted = attempted - refused;
        Tally {
            attempted,
            refused,
            duplicated,
            misordered: sum(|s| &s.misordered),
            lost: accepted.saturating_sub(delivered - duplicated - garbled),
            garbled,
        }
    }

    /// Operations that did not end as exactly one in-order delivery.
    pub fn failed(&self) -> u64 {
        self.refused + self.duplicated + self.misordered + self.lost + self.garbled
    }

    /// Adds another execution's books to these.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.duplicated += other.duplicated;
        self.misordered += other.misordered;
        self.lost += other.lost;
        self.garbled += other.garbled;
    }
}

/// The counting sink registered as agent `1` on every server: checks the
/// oracle and nothing else. For paced traffic it also records how long
/// after its due instant the message arrived.
pub struct SinkAgent {
    shared: Arc<SinkShared>,
    paced: Option<(Arc<Histogram>, Instant)>,
}

impl SinkAgent {
    /// A sink reporting into `shared`.
    pub fn new(shared: Arc<SinkShared>) -> SinkAgent {
        SinkAgent {
            shared,
            paced: None,
        }
    }

    /// Also records paced-traffic latency, measured from `epoch + due_ns`.
    pub fn with_paced(mut self, hist: Arc<Histogram>, epoch: Instant) -> SinkAgent {
        self.paced = Some((hist, epoch));
        self
    }
}

impl Agent for SinkAgent {
    fn react(&mut self, _ctx: &mut ReactionContext<'_>, _from: AgentId, note: &Notification) {
        match decode_payload(note.body()) {
            Some((sender, seq, due_ns)) => {
                self.shared.observe(sender, seq);
                if note.kind() == KIND_PACED {
                    if let Some((hist, epoch)) = &self.paced {
                        let now_ns = epoch.elapsed().as_nanos() as u64;
                        hist.record(now_ns.saturating_sub(due_ns));
                    }
                }
            }
            None => {
                self.shared.delivered.fetch_add(1, Ordering::Relaxed);
                self.shared.garbled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// State shared between the harness and the ping agent.
pub struct PingShared {
    /// Completed round trips.
    pub rounds: AtomicU64,
    /// Set by the harness to end the exchange at the next reply.
    pub stop: AtomicBool,
    /// Set by the agent once it has absorbed the token after `stop`.
    pub idle: AtomicBool,
    /// Per-round latency (traced runs only).
    pub hist: Option<Histogram>,
}

impl PingShared {
    /// Fresh state; `timed` adds the per-round histogram.
    pub fn new(timed: bool) -> Arc<PingShared> {
        Arc::new(PingShared {
            rounds: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            idle: AtomicBool::new(true),
            hist: timed.then(Histogram::new),
        })
    }
}

/// One end of the ping-pong: bounces a single token off `peer` (an
/// `EchoAgent`) for as long as the harness lets it. The harness only
/// reads the round counter.
pub struct PingAgent {
    peer: AgentId,
    shared: Arc<PingShared>,
    sent_at: Option<Instant>,
}

impl PingAgent {
    /// A ping agent playing against `peer`.
    pub fn new(peer: AgentId, shared: Arc<PingShared>) -> PingAgent {
        PingAgent {
            peer,
            shared,
            sent_at: None,
        }
    }
}

impl Agent for PingAgent {
    fn react(&mut self, ctx: &mut ReactionContext<'_>, from: AgentId, note: &Notification) {
        if from == self.peer {
            // Release pairs with the harness's Acquire load: whoever sees
            // round k also sees everything that happened before it.
            self.shared.rounds.fetch_add(1, Ordering::Release);
            if let (Some(hist), Some(t0)) = (&self.shared.hist, self.sent_at) {
                hist.record(t0.elapsed().as_nanos() as u64);
            }
            if self.shared.stop.load(Ordering::Acquire) {
                self.shared.idle.store(true, Ordering::Release);
                return;
            }
        }
        // Anything from someone else is the harness's kick-off.
        if self.shared.hist.is_some() {
            self.sent_at = Some(Instant::now());
        }
        ctx.send(self.peer, note.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_base::{MessageId, ServerId};
    use aaa_mom::{AgentMessage, EngineCore};

    /// What the tampering wrapper does to one delivery.
    #[derive(Clone, Copy)]
    enum Fault {
        None,
        Drop,
        Duplicate,
        SwapWithNext,
    }

    /// A harness-side wrapper around the sink that mistreats the `at`-th
    /// delivery — a stand-in for a middleware bug.
    struct Tamper {
        inner: SinkAgent,
        fault: Fault,
        at: usize,
        seen: usize,
        held: Option<(AgentId, Notification)>,
    }

    impl Agent for Tamper {
        fn react(&mut self, ctx: &mut ReactionContext<'_>, from: AgentId, note: &Notification) {
            self.seen += 1;
            let hit = self.seen == self.at;
            match self.fault {
                Fault::Drop if hit => {}
                Fault::Duplicate if hit => {
                    self.inner.react(ctx, from, note);
                    self.inner.react(ctx, from, note);
                }
                Fault::SwapWithNext if hit => self.held = Some((from, note.clone())),
                _ => {
                    self.inner.react(ctx, from, note);
                    if let Some((f, n)) = self.held.take() {
                        self.inner.react(ctx, f, &n);
                    }
                }
            }
        }
    }

    /// Sends sequence numbers 1..=10 from each of `senders` through a sink
    /// that mistreats its `at`-th delivery, and closes the books.
    fn run(fault: Fault, senders: u32, at: usize) -> Tally {
        let shared = SinkShared::new(senders as usize);
        let sink = AgentId::new(ServerId::new(0), 1);
        let mut engine = EngineCore::new();
        engine.register(
            sink,
            Box::new(Tamper {
                inner: SinkAgent::new(shared.clone()),
                fault,
                at,
                seen: 0,
                held: None,
            }),
        );
        let mut attempted = 0;
        for seq in 1..=10u64 {
            for sender in 0..senders {
                attempted += 1;
                engine.enqueue(AgentMessage {
                    id: MessageId::new(ServerId::new(sender as u16), seq),
                    from: AgentId::new(ServerId::new(sender as u16), 9),
                    to: sink,
                    note: Notification::new(KIND_MSG, encode_payload(sender, seq, 0, 3)),
                });
            }
        }
        while engine.step().is_some() {}
        Tally::close(attempted, 0, &[shared])
    }

    #[test]
    fn clean_run_has_no_failures() {
        let t = run(Fault::None, 2, 7);
        assert_eq!(t.attempted, 20);
        assert_eq!(t.failed(), 0, "{t:?}");
    }

    #[test]
    fn dropped_delivery_is_flagged_as_lost_and_as_a_gap() {
        let t = run(Fault::Drop, 2, 7);
        assert_eq!(t.lost, 1, "{t:?}");
        assert_eq!(t.misordered, 1, "the pair's next one arrives over a gap");
    }

    #[test]
    fn duplicated_delivery_is_flagged() {
        let t = run(Fault::Duplicate, 2, 7);
        assert_eq!(t.duplicated, 1, "{t:?}");
        assert_eq!(t.lost, 0);
        assert_eq!(t.failed(), 1);
    }

    #[test]
    fn swapped_deliveries_are_flagged() {
        // One sender, so the delivery held back and the one that overtakes
        // it belong to the same pair: seq 5 arrives before seq 4.
        let t = run(Fault::SwapWithNext, 1, 4);
        assert_eq!(t.misordered, 1, "seq 5 arrives over a gap: {t:?}");
        assert_eq!(t.duplicated, 1, "seq 4 arrives late");
        assert!(t.failed() >= 2);
    }

    #[test]
    fn refused_and_garbled_count_as_failed() {
        let shared = SinkShared::new(1);
        shared.observe(5, 1); // sender out of range
        let t = Tally::close(3, 1, &[shared]);
        assert_eq!(t.refused, 1);
        assert_eq!(t.garbled, 1);
        assert_eq!(t.lost, 2, "two accepted, none delivered intact");
        assert_eq!(t.failed(), 4);
        assert_eq!(decode_payload(&[1, 2, 3]), None);
        assert_eq!(
            decode_payload(&encode_payload(7, 9, 11, 5)),
            Some((7, 9, 11))
        );
    }
}
