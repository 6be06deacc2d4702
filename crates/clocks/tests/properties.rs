//! Property-based tests for the clock substrate.
//!
//! These tests drive randomized single-domain schedules through the causal
//! delivery protocol and check, against an independent vector-clock oracle,
//! that no message is ever delivered before a causal predecessor — and that
//! every stamp mode takes exactly the same decisions as Full. A third
//! block holds the sender's packed delta to `UpdateEntry::pack` and the
//! decoder's view of it to the list it was made from.

use aaa_base::DomainServerId;
use aaa_clocks::vector::CausalOrdering;
use aaa_clocks::{
    Batching, CausalState, MatrixClock, PackedEntries, PendingStamp, Stamp, StampMode, UpdateEntry,
    VectorClock,
};
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

fn d(i: usize) -> DomainServerId {
    DomainServerId::new(i as u16)
}

/// One step of a randomized schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Server `from` sends a message to server `to` (mod n, normalized),
    /// optionally as part of a group-commit batch.
    Send {
        from: usize,
        to: usize,
        batching: Batching,
    },
    /// The link `from -> to` hands its oldest frame to the receiver.
    Arrive { from: usize, to: usize },
    /// Server `who` scans its postponed queue (starting at a rotation) and
    /// delivers everything deliverable.
    Pump { who: usize, rot: usize },
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    let batching = prop_oneof![Just(Batching::Single), Just(Batching::Grouped)];
    prop_oneof![
        (0..n, 0..n, batching).prop_map(|(from, to, batching)| Op::Send { from, to, batching }),
        (0..n, 0..n).prop_map(|(from, to)| Op::Arrive { from, to }),
        (0..n, 0..16usize).prop_map(|(who, rot)| Op::Pump { who, rot }),
    ]
}

fn mode_strategy() -> impl Strategy<Value = StampMode> {
    prop_oneof![Just(StampMode::Full), Just(StampMode::Updates)]
}

/// An in-flight or postponed message, with its oracle vector timestamp.
#[derive(Debug, Clone)]
struct Msg {
    from: usize,
    vc: VectorClock,
    pending: Option<PendingStamp>,
    raw: Option<aaa_clocks::Stamp>,
}

/// A full single-domain simulation in one stamp mode.
struct Domain {
    n: usize,
    clocks: Vec<CausalState>,
    /// Oracle: per-server vector clock over *events*.
    oracle: Vec<VectorClock>,
    /// links[from][to]: frames in flight, FIFO.
    links: Vec<Vec<VecDeque<Msg>>>,
    /// postponed[who]: frames received but not yet deliverable.
    postponed: Vec<Vec<Msg>>,
    /// delivered[who]: vector timestamps of messages delivered at `who`,
    /// in delivery order.
    delivered: Vec<Vec<VectorClock>>,
    /// Log of (site, decision) for cross-mode equivalence checking.
    decisions: Vec<(usize, bool)>,
}

impl Domain {
    fn new(n: usize, mode: StampMode) -> Self {
        Domain {
            n,
            clocks: (0..n).map(|i| CausalState::new(d(i), n, mode)).collect(),
            oracle: (0..n).map(|_| VectorClock::new(n)).collect(),
            links: (0..n)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            postponed: (0..n).map(|_| Vec::new()).collect(),
            delivered: (0..n).map(|_| Vec::new()).collect(),
            decisions: Vec::new(),
        }
    }

    fn step(&mut self, op: &Op) {
        match *op {
            Op::Send { from, to, batching } => {
                let (from, to) = (from % self.n, to % self.n);
                if from == to {
                    return;
                }
                let stamp = self.clocks[from].stamp_send(d(to), batching);
                self.oracle[from].tick(from);
                let vc = self.oracle[from].clone();
                self.links[from][to].push_back(Msg {
                    from,
                    vc,
                    pending: None,
                    raw: Some(stamp),
                });
            }
            Op::Arrive { from, to } => {
                let (from, to) = (from % self.n, to % self.n);
                if let Some(mut msg) = self.links[from][to].pop_front() {
                    let raw = msg.raw.take().expect("frame not yet arrived");
                    msg.pending = Some(self.clocks[to].on_frame(d(from), raw));
                    self.postponed[to].push(msg);
                }
            }
            Op::Pump { who, rot } => {
                let who = who % self.n;
                self.pump(who, rot);
            }
        }
    }

    fn pump(&mut self, who: usize, rot: usize) {
        loop {
            let len = self.postponed[who].len();
            if len == 0 {
                return;
            }
            let mut hit = None;
            for off in 0..len {
                let i = (off + rot) % len;
                let msg = &self.postponed[who][i];
                let p = msg.pending.as_ref().expect("postponed frames have stamps");
                let ok = self.clocks[who].can_deliver(d(msg.from), p);
                self.decisions.push((who, ok));
                if ok {
                    hit = Some(i);
                    break;
                }
            }
            let Some(i) = hit else { return };
            let msg = self.postponed[who].remove(i);
            let p = msg.pending.as_ref().unwrap();
            self.clocks[who].deliver(d(msg.from), p);

            // Oracle safety check: the newly delivered message must not be a
            // causal predecessor of anything already delivered here.
            for earlier in &self.delivered[who] {
                assert_ne!(
                    msg.vc.compare(earlier),
                    CausalOrdering::Before,
                    "causal order violated at server {who}"
                );
            }
            // Receive event in the oracle.
            self.oracle[who].merge(&msg.vc);
            self.oracle[who].tick(who);
            self.delivered[who].push(msg.vc);
        }
    }

    /// Drain every link and postponed queue under a fair schedule.
    fn quiesce(&mut self) {
        loop {
            let mut progressed = false;
            for from in 0..self.n {
                for to in 0..self.n {
                    while !self.links[from][to].is_empty() {
                        self.step(&Op::Arrive { from, to });
                        progressed = true;
                    }
                }
            }
            for who in 0..self.n {
                let before = self.postponed[who].len();
                self.pump(who, 0);
                if self.postponed[who].len() != before {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn all_delivered(&self) -> bool {
        self.links
            .iter()
            .all(|row| row.iter().all(|q| q.is_empty()))
            && self.postponed.iter().all(|q| q.is_empty())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Safety: random schedules never deliver a message before one of its
    /// causal predecessors, in any stamp mode.
    #[test]
    fn causal_safety_random_schedules(
        n in 2usize..6,
        ops in prop::collection::vec(op_strategy(6), 1..200),
        mode in mode_strategy(),
    ) {
        let mut dom = Domain::new(n, mode);
        for op in &ops {
            dom.step(op);
        }
        // Safety is asserted inside pump(); additionally check liveness.
        dom.quiesce();
        prop_assert!(dom.all_delivered(), "messages stuck after quiescence");
    }

    /// Equivalence: every mode takes identical deliverability decisions
    /// to the Full reference on identical schedules and ends with
    /// identical matrices.
    #[test]
    fn every_mode_equals_full_mode(
        n in 2usize..6,
        ops in prop::collection::vec(op_strategy(6), 1..150),
        mode in mode_strategy(),
    ) {
        let mut full = Domain::new(n, StampMode::Full);
        let mut other = Domain::new(n, mode);
        for op in &ops {
            full.step(op);
            other.step(op);
        }
        prop_assert_eq!(&full.decisions, &other.decisions,
            "mode {} diverged from Full", mode);
        full.quiesce();
        other.quiesce();
        for i in 0..n {
            prop_assert_eq!(full.clocks[i].sent(), other.clocks[i].sent(),
                "server {} matrices diverged in mode {}", i, mode);
            prop_assert_eq!(
                full.clocks[i].delivered_total(),
                other.clocks[i].delivered_total()
            );
        }
    }

    /// Persistence: at any point in a random schedule — including mid-batch,
    /// with a GroupNext continuation pending — every server's state survives
    /// a write_bytes/read_bytes round-trip exactly, and the recovered domain
    /// finishes the schedule identically to the original.
    #[test]
    fn persisted_state_roundtrips_in_every_mode(
        n in 2usize..5,
        ops in prop::collection::vec(op_strategy(5), 1..120),
        cut in 0usize..120,
        mode in mode_strategy(),
    ) {
        let mut dom = Domain::new(n, mode);
        let cut = cut.min(ops.len());
        for op in &ops[..cut] {
            dom.step(op);
        }
        // Crash: persist and recover every server mid-schedule.
        for i in 0..n {
            let mut buf = Vec::new();
            dom.clocks[i].write_bytes(&mut buf);
            let (recovered, used) = CausalState::read_bytes(&buf)
                .expect("persisted image must parse back");
            prop_assert_eq!(used, buf.len(), "trailing bytes in mode {}", mode);
            prop_assert_eq!(&recovered, &dom.clocks[i],
                "server {} state changed across persistence in mode {}", i, mode);
            dom.clocks[i] = recovered;
        }
        // The recovered domain must still complete the schedule: frames in
        // flight (stamped before the crash) reconstruct against recovered
        // images, and mid-batch groups continue.
        for op in &ops[cut..] {
            dom.step(op);
        }
        dom.quiesce();
        prop_assert!(dom.all_delivered(), "messages stuck after recovery");
    }

    /// Matrix merge is a join: idempotent, commutative, monotone.
    #[test]
    fn matrix_merge_lattice_laws(
        n in 1usize..6,
        cells_a in prop::collection::vec(0u64..50, 0..36),
        cells_b in prop::collection::vec(0u64..50, 0..36),
    ) {
        let mut a = MatrixClock::new(n);
        let mut b = MatrixClock::new(n);
        for (i, v) in cells_a.iter().enumerate() {
            a.set(i / n % n, i % n, *v);
        }
        for (i, v) in cells_b.iter().enumerate() {
            b.set(i / n % n, i % n, *v);
        }
        // commutative
        let mut ab = a.clone();
        ab.merge_max(&b, |_, _, _| {});
        let mut ba = b.clone();
        ba.merge_max(&a, |_, _, _| {});
        prop_assert_eq!(&ab, &ba);
        // idempotent
        let mut aa = a.clone();
        aa.merge_max(&a, |_, _, _| {});
        prop_assert_eq!(&aa, &a);
        // monotone (absorbing)
        prop_assert!(a.dominated_by(&ab));
        prop_assert!(b.dominated_by(&ab));
    }

    /// Vector clock compare is consistent with merge.
    #[test]
    fn vector_compare_merge_consistency(
        n in 1usize..6,
        xs in prop::collection::vec(0u64..20, 1..6),
        ys in prop::collection::vec(0u64..20, 1..6),
    ) {
        let mut a = VectorClock::new(n);
        let mut b = VectorClock::new(n);
        for (i, v) in xs.iter().enumerate().take(n) {
            for _ in 0..*v { a.tick(i); }
        }
        for (i, v) in ys.iter().enumerate().take(n) {
            for _ in 0..*v { b.tick(i); }
        }
        let mut m = a.clone();
        m.merge(&b);
        prop_assert_ne!(m.compare(&a), CausalOrdering::Before);
        prop_assert_ne!(m.compare(&b), CausalOrdering::Before);
        if a.compare(&b) == CausalOrdering::Before {
            prop_assert_eq!(&m, &b);
        }
    }
}

/// Counter values around the packed layout's varint edges.
fn counter() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..200,
        Just(127u64),
        Just(128u64),
        Just(16_384u64),
        Just(1u64 << 56),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

/// The cells of `after` that differ from `before`, and the cell `bumped`
/// the send just counted, row-major: what a scan of the change tags reads
/// since `before` was taken. A cell is tagged when its counter grows, and
/// the sender's own cell at every send, even where its counter is
/// saturated and cannot grow.
fn changed_since(
    before: &MatrixClock,
    after: &MatrixClock,
    bumped: (usize, usize),
) -> Vec<UpdateEntry> {
    let n = after.width();
    (0..n * n)
        .map(|cell| (cell / n, cell % n))
        .filter(|&cell| cell == bumped || after.get(cell.0, cell.1) != before.get(cell.0, cell.1))
        .map(|(row, col)| UpdateEntry {
            row: row as u16,
            col: col as u16,
            value: after.get(row, col),
        })
        .collect()
}

proptest! {
    /// The sender packs a delta run by run from its walk of the changed
    /// rows. Server 0 of a domain of up to 300 delivers a frame from 1
    /// that raises random cells and a few whole rows — which pass the
    /// eight entries a listed row holds and turn dense, with two-byte
    /// column varints past 128 — and stamps its first send to 1, which
    /// ships every non-zero cell. It then delivers a second frame from 1
    /// that raises some cells, most of them in those rows, and stamps its
    /// second send to 1, which ships only what changed since the first:
    /// part of each dense row. Each stamp holds exactly the bytes
    /// `UpdateEntry::pack` writes for the row-major list a scan of the
    /// change tags reads. Decoded with bytes after it, each list is a
    /// view with the stamp's count, extent and entries, and the bytes
    /// after it are left.
    #[test]
    fn the_sender_walk_packs_what_pack_writes(
        n in 2usize..300,
        cells in prop::collection::vec((any::<u32>(), counter()), 0..60),
        whole in prop::collection::vec((any::<u32>(), counter()), 0..3),
        again in prop::collection::vec((any::<u32>(), any::<u32>(), counter()), 0..60),
        tail in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        // Nothing in the receiver's column but the link cell, so each
        // frame is deliverable at once.
        let entry = |row: usize, col: usize, value| UpdateEntry {
            row: row as u16,
            col: col as u16,
            value,
        };
        let whole_rows: Vec<usize> = whole.iter().map(|&(seed, _)| seed as usize % n).collect();
        let mut first: Vec<UpdateEntry> = cells
            .iter()
            .map(|&(seed, value)| (seed as usize % (n * n), value))
            .filter(|&(cell, _)| cell % n != 0)
            .map(|(cell, value)| entry(cell / n, cell % n, value))
            .collect();
        for (&row, &(_, value)) in whole_rows.iter().zip(&whole) {
            first.extend((1..n).map(|col| entry(row, col, value.saturating_add(col as u64))));
        }
        first.push(entry(1, 0, 1));
        let mut second: Vec<UpdateEntry> = again
            .iter()
            .map(|&(row_seed, col_seed, value)| {
                let row = match whole_rows.get(row_seed as usize % 4) {
                    Some(&row) => row,
                    None => row_seed as usize % n,
                };
                entry(row, 1 + col_seed as usize % (n - 1), value)
            })
            .collect();
        second.push(entry(1, 0, 2));

        let mut s0 = CausalState::new(d(0), n, StampMode::Updates);
        let mut shipped = MatrixClock::new(n);
        for (frame, raised) in [first, second].iter().enumerate() {
            let p = s0.on_frame(d(1), Stamp::Delta(PackedEntries::new(raised)));
            prop_assert!(s0.can_deliver(d(1), &p));
            s0.deliver(d(1), &p);

            let Stamp::Delta(made) = s0.stamp_send(d(1), Batching::Single) else {
                panic!("an Updates send ships a delta");
            };
            let expected = changed_since(&shipped, s0.sent(), (0, 1));
            shipped = s0.sent().clone();
            let mut packed = Vec::new();
            UpdateEntry::pack(&expected, &mut packed);
            prop_assert_eq!(made.as_bytes(), &packed[..], "frame {}", frame);

            packed.extend_from_slice(&tail);
            let mut buf = Bytes::from(packed);
            let view = PackedEntries::read(&mut buf).expect("a packed list");
            prop_assert_eq!(view.len(), made.len());
            prop_assert_eq!(view.width(), made.width());
            prop_assert_eq!(view.iter().collect::<Vec<_>>(), expected);
            prop_assert_eq!(&buf[..], &tail[..]);
        }
    }
}

/// Deterministic regression: a long FIFO burst with adversarial pump
/// rotations still delivers in causal order.
#[test]
fn burst_with_rotated_pumps() {
    let n = 4;
    let mut dom = Domain::new(n, StampMode::Updates);
    for round in 0..30usize {
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    dom.step(&Op::Send {
                        from,
                        to,
                        batching: Batching::Single,
                    });
                }
            }
        }
        // Deliver with a different scan rotation each round.
        for from in 0..n {
            for to in 0..n {
                dom.step(&Op::Arrive { from, to });
            }
        }
        for who in 0..n {
            dom.step(&Op::Pump { who, rot: round });
        }
    }
    dom.quiesce();
    assert!(dom.all_delivered());
    for who in 0..n {
        assert_eq!(dom.clocks[who].delivered_total(), 30 * (n as u64 - 1));
    }
}

/// The `flat_mesh` shape as a count: 32 servers, seeded uniform
/// destinations, a window of frames in flight that overtake one another.
/// Row-grouped varints must carry the Updates deltas of such a run in a
/// few bytes per entry — the fixed-width list cost 12, plus its count —
/// and no stamp may come out larger than its fixed-width form.
#[test]
fn mesh_deltas_pack_to_a_few_bytes_per_entry() {
    let n = 32;
    let mut dom = Domain::new(n, StampMode::Updates);
    let mut rng = StdRng::seed_from_u64(24);
    let mut in_flight: Vec<(usize, usize)> = Vec::new();
    let (mut bytes, mut entries) = (0usize, 0usize);
    for _ in 0..4000 {
        let from = rng.gen_range(0..n);
        let to = (from + rng.gen_range(1..n)) % n;
        dom.step(&Op::Send {
            from,
            to,
            batching: Batching::Single,
        });
        let sent = dom.links[from][to].back().and_then(|m| m.raw.as_ref());
        let stamp = sent.expect("the send queued its stamp");
        assert!(
            stamp.encoded_len() <= 4 + 12 * stamp.entry_count(),
            "{stamp:?} outgrew its fixed-width encoding"
        );
        bytes += stamp.encoded_len();
        entries += stamp.entry_count();
        in_flight.push((from, to));
        while in_flight.len() > 48 {
            let (from, to) = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
            dom.step(&Op::Arrive { from, to });
            dom.step(&Op::Pump { who: to, rot: 0 });
        }
    }
    dom.quiesce();
    assert!(dom.all_delivered());
    let per_entry = bytes as f64 / entries as f64;
    assert!(
        entries > 100 * 4000 && per_entry <= 3.5,
        "{bytes} B for {entries} entries: {per_entry:.2} B per entry"
    );
}

/// Mode bytes 0, 1 and 3 were Full, Updates and Hybrid in the layout that
/// carried an `n × n²` section of per-sender image matrices where the link
/// counters now are; byte 2 was the retired `Reduced` mode and byte 6 the
/// retired `Hybrid` mode. A current image carrying any of them is refused,
/// not read back under a layout it was not written in — and so is an image
/// an old layout wrote.
#[test]
fn retired_mode_byte_is_refused() {
    let (a, b) = (DomainServerId::new(0), DomainServerId::new(1));
    for (mode, byte) in [(StampMode::Full, 4u8), (StampMode::Updates, 5)] {
        let mut clock = CausalState::new(a, 3, mode);
        let _ = clock.stamp_send(b, Batching::Single);
        let mut image = Vec::new();
        clock.write_bytes(&mut image);
        assert!(CausalState::read_bytes(&image).is_some());
        // The mode byte follows `me: u16` and `n: u32`.
        assert_eq!(image[6], byte, "{mode}");
        for retired in [0, 1, 2, 3, 6] {
            image[6] = retired;
            assert!(
                CausalState::read_bytes(&image).is_none(),
                "{mode}: {retired}"
            );
        }
    }

    // What the previous layout wrote for a fresh 2-wide Updates clock:
    // the same prefix under mode byte 1, then one absent-image tag per
    // sender where this layout has an 8-byte counter.
    let mut old = Vec::new();
    old.extend_from_slice(&0u16.to_le_bytes());
    old.extend_from_slice(&2u32.to_le_bytes());
    old.push(1);
    MatrixClock::new(2).write_bytes(&mut old);
    old.extend_from_slice(&[0u8; 8 * (2 + 1 + 4 + 2)]); // deliv, state, tags, node_state
    old.extend_from_slice(&[0, 0]); // images: none, none
    assert!(CausalState::read_bytes(&old).is_none());

    // What a mode-6 (Hybrid) image was: this layout's image, then one
    // `0`/`1`-tagged knowledge matrix per peer — here one present, two
    // absent.
    let mut hybrid = Vec::new();
    let mut clock = CausalState::new(a, 3, StampMode::Updates);
    let _ = clock.stamp_send(b, Batching::Single);
    clock.write_bytes(&mut hybrid);
    hybrid[6] = 6;
    hybrid.extend_from_slice(&[0, 1]);
    MatrixClock::new(3).write_bytes(&mut hybrid);
    hybrid.push(0);
    assert!(CausalState::read_bytes(&hybrid).is_none());
}
