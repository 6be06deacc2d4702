//! Differential test of the sparse clock core against textbook dense RST.
//!
//! [`CausalState`] in its delta mode keeps no image of a sender's matrix:
//! a pending stamp holds only its own frame's entries, the predicate walks
//! those, the merge raises those, and a send reads the changed cells from a
//! log. [`Dense`] below is the algorithm as the paper and
//! Raynal–Schiper–Toueg state it — a full image per sender, the whole
//! predicate column, an `n²` merge, an `n²` tag scan per send — written
//! here from the definitions and sharing no code with the crate. The two
//! are driven in lock-step over random schedules (random `Single`/`Grouped`
//! batching, FIFO links drained in random order, postponed frames probed
//! from a random rotation, a crash through `write_bytes`/`read_bytes` at
//! random points, and a peer that pads its deltas with values *below* what
//! it shipped before) and must agree on every emitted stamp, on
//! `can_deliver` for every arrived message after every step, and on the
//! `SENT`/`DELIV` transcript.
//!
//! Two widths. Domains of 2–5 reach every interleaving shape quickly; a
//! domain of 12 runs long enough for `SENT` rows to fill (a row turns
//! from a list of its written cells into all 12 cells at its eighth), so
//! deltas carry long runs, the sender packs whole filled rows, and a
//! delivery's run can fill a listed row part way through. Each runs at
//! least its own number of cases, or more if `PROPTEST_CASES` asks.

use std::collections::VecDeque;

use aaa_base::DomainServerId;
use aaa_clocks::{
    Batching, CausalState, PackedEntries, PendingStamp, Stamp, StampMode, UpdateEntry,
};
use proptest::prelude::*;

fn d(i: usize) -> DomainServerId {
    DomainServerId::new(i as u16)
}

/// Textbook dense RST with Appendix-A deltas. Matrices are row-major `n²`
/// vectors.
struct Dense {
    me: usize,
    n: usize,
    sent: Vec<u64>,
    deliv: Vec<u64>,
    now: u64,
    tag: Vec<u64>,
    last_send: Vec<u64>,
    /// `image[k]`: everything sender `k`'s frames have conveyed so far.
    image: Vec<Vec<u64>>,
}

impl Dense {
    fn new(me: usize, n: usize) -> Dense {
        let zeros = || vec![0u64; n * n];
        Dense {
            me,
            n,
            sent: zeros(),
            deliv: vec![0; n],
            now: 0,
            tag: zeros(),
            last_send: vec![0; n],
            image: vec![zeros(); n],
        }
    }

    fn stamp_send(&mut self, to: usize, batching: Batching) -> Stamp {
        let (n, link) = (self.n, self.me * self.n + to);
        let unchanged = self.last_send[to] == self.now && self.sent[link] > 0;
        self.now += 1;
        self.sent[link] += 1;
        self.tag[link] = self.now;
        let since = std::mem::replace(&mut self.last_send[to], self.now);
        if batching == Batching::Grouped && unchanged {
            return Stamp::GroupNext;
        }
        let entries: Vec<UpdateEntry> = (0..n * n)
            .filter(|&cell| self.tag[cell] > since)
            .map(|cell| UpdateEntry {
                row: (cell / n) as u16,
                col: (cell % n) as u16,
                value: self.sent[cell],
            })
            .collect();
        Stamp::Delta(PackedEntries::new(&entries))
    }

    /// Raises the image of `from` and returns a copy: the message's stamp.
    fn on_frame(&mut self, from: usize, stamp: &Stamp) -> Vec<u64> {
        let link = from * self.n + self.me;
        let conveyed: Vec<(usize, u64)> = match stamp {
            Stamp::GroupNext => vec![(link, self.image[from][link] + 1)],
            Stamp::Delta(es) => es
                .iter()
                .map(|e| (usize::from(e.row) * self.n + usize::from(e.col), e.value))
                .collect(),
            Stamp::Full(_) => unreachable!("the oracle runs the delta modes"),
        };
        for (cell, value) in conveyed {
            self.image[from][cell] = self.image[from][cell].max(value);
        }
        self.image[from].clone()
    }

    fn can_deliver(&self, from: usize, st: &[u64]) -> bool {
        let col = |k: usize| st[k * self.n + self.me];
        col(from) == self.deliv[from] + 1
            && (0..self.n).all(|k| k == from || col(k) <= self.deliv[k])
    }

    fn deliver(&mut self, from: usize, st: &[u64]) {
        assert!(self.can_deliver(from, st));
        self.deliv[from] += 1;
        self.now += 1;
        for (cell, &value) in st.iter().enumerate() {
            if value > self.sent[cell] {
                self.sent[cell] = value;
                self.tag[cell] = self.now;
            }
        }
    }
}

/// An arrived, undelivered message as each side holds it.
struct Arrived {
    from: usize,
    sparse: PendingStamp,
    dense: Vec<u64>,
}

/// One domain run through both implementations at once.
struct LockStep {
    n: usize,
    real: Vec<CausalState>,
    oracle: Vec<Dense>,
    /// `links[from][to]`: stamps in flight, FIFO.
    links: Vec<Vec<VecDeque<Stamp>>>,
    postponed: Vec<Vec<Arrived>>,
}

impl LockStep {
    fn new(n: usize) -> LockStep {
        LockStep {
            n,
            real: (0..n)
                .map(|i| CausalState::new(d(i), n, StampMode::Updates))
                .collect(),
            oracle: (0..n).map(|i| Dense::new(i, n)).collect(),
            links: vec![vec![VecDeque::new(); n]; n],
            postponed: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Both senders stamp; the stamps must be identical. With `pad`, the
    /// frame then gains an entry whose value is below the sender's current
    /// one for that cell — so below what the receiver was or is being told
    /// — ahead of the honest entries, so a cell may be raised twice by one
    /// delivery.
    fn send(&mut self, from: usize, to: usize, batching: Batching, pad: Option<(usize, usize)>) {
        let mut stamp = self.real[from].stamp_send(d(to), batching);
        assert_eq!(
            stamp,
            self.oracle[from].stamp_send(to, batching),
            "stamp {from}->{to}"
        );
        if let (Some((row, col)), Stamp::Delta(es)) = (pad, &mut stamp) {
            let value = self.real[from].sent().get(row, col).saturating_sub(1);
            let pad = UpdateEntry {
                row: row as u16,
                col: col as u16,
                value,
            };
            let padded: Vec<UpdateEntry> = std::iter::once(pad).chain(es.iter()).collect();
            *es = PackedEntries::new(&padded);
        }
        self.links[from][to].push_back(stamp);
    }

    fn arrive(&mut self, from: usize, to: usize) {
        let Some(stamp) = self.links[from][to].pop_front() else {
            return;
        };
        self.real[to]
            .check_stamp(d(from), &stamp)
            .expect("in-domain stamp");
        let dense = self.oracle[to].on_frame(from, &stamp);
        let sparse = self.real[to].on_frame(d(from), stamp);
        self.postponed[to].push(Arrived {
            from,
            sparse,
            dense,
        });
    }

    /// Delivers at `who` until nothing is deliverable, scanning from `rot`.
    fn probe(&mut self, who: usize, rot: usize) {
        loop {
            self.check(who);
            let len = self.postponed[who].len();
            let hit = (0..len).map(|off| (off + rot) % len).find(|&i| {
                let a = &self.postponed[who][i];
                self.oracle[who].can_deliver(a.from, &a.dense)
            });
            let Some(i) = hit else { return };
            let a = self.postponed[who].remove(i);
            self.real[who].deliver(d(a.from), &a.sparse);
            self.oracle[who].deliver(a.from, &a.dense);
        }
    }

    /// `who` crashes and recovers from its own bytes, postponed queue
    /// included.
    fn crash(&mut self, who: usize) {
        let mut image = Vec::new();
        self.real[who].write_bytes(&mut image);
        let (back, used) = CausalState::read_bytes(&image).expect("image reads back");
        assert_eq!((used, &back), (image.len(), &self.real[who]));
        self.real[who] = back;
        for a in &mut self.postponed[who] {
            let mut bytes = Vec::new();
            a.sparse.write_bytes(&mut bytes);
            let (mut back, used) = PendingStamp::read_bytes(&bytes).expect("pending reads back");
            assert_eq!(used, bytes.len());
            self.real[who]
                .adopt_pending(d(a.from), &mut back)
                .expect("fits");
            // Read back, the list is in image order, not arrival order:
            // the two are the same pending if they write the same image.
            let mut again = Vec::new();
            back.write_bytes(&mut again);
            assert_eq!(again, bytes);
            a.sparse = back;
        }
    }

    /// Same verdict for every arrived message at `who`, same transcript.
    fn check(&self, who: usize) {
        let (real, oracle) = (&self.real[who], &self.oracle[who]);
        for a in &self.postponed[who] {
            assert_eq!(
                real.can_deliver(d(a.from), &a.sparse),
                oracle.can_deliver(a.from, &a.dense),
                "verdict at {who} for a message from {}",
                a.from
            );
        }
        let t = real.transcript();
        assert_eq!(t.deliv, oracle.deliv, "DELIV at {who}");
        let sent: Vec<u64> = (0..self.n * self.n)
            .map(|c| t.sent.get(c / self.n, c % self.n))
            .collect();
        assert_eq!(sent, oracle.sent, "SENT at {who}");
    }

    fn check_all(&self) {
        (0..self.n).for_each(|who| self.check(who));
    }

    /// Drains every link and queue; nothing may stay postponed.
    fn quiesce(&mut self) {
        for _ in 0..=self.n {
            for from in 0..self.n {
                for to in 0..self.n {
                    while !self.links[from][to].is_empty() {
                        self.arrive(from, to);
                    }
                }
            }
            (0..self.n).for_each(|who| self.probe(who, 0));
        }
        assert!(self.postponed.iter().all(Vec::is_empty), "stuck messages");
    }
}

#[derive(Debug, Clone)]
enum Op {
    Send {
        from: usize,
        to: usize,
        batching: Batching,
        pad: Option<(usize, usize)>,
    },
    Arrive {
        from: usize,
        to: usize,
    },
    Probe {
        who: usize,
        rot: usize,
    },
    Crash {
        who: usize,
    },
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    let batching = prop_oneof![Just(Batching::Single), Just(Batching::Grouped)];
    let pad = prop_oneof![
        Just(None),
        Just(None),
        (0..n, 0..n).prop_map(|(row, col)| Some((row, col))),
    ];
    // Three sends and three arrivals for every probe and every crash.
    (0..8u8, 0..n, 0..n, batching, pad, 0..16usize).prop_map(
        |(kind, from, to, batching, pad, rot)| match kind {
            0..=2 => Op::Send {
                from,
                to,
                batching,
                pad,
            },
            3..=5 => Op::Arrive { from, to },
            6 => Op::Probe { who: from, rot },
            _ => Op::Crash { who: from },
        },
    )
}

/// `floor` cases, or as many as `PROPTEST_CASES` asks if that is more.
fn at_least(floor: u32) -> ProptestConfig {
    ProptestConfig::with_cases(ProptestConfig::default().cases.max(floor))
}

/// Runs `ops` on a domain of `n` in lock-step, checking after every step,
/// then drains it.
fn lock_step(n: usize, ops: &[Op]) {
    let mut run = LockStep::new(n);
    for op in ops {
        match *op {
            Op::Send {
                from,
                to,
                batching,
                pad,
            } => {
                let (from, to) = (from % n, to % n);
                if from != to {
                    run.send(from, to, batching, pad.map(|(r, c)| (r % n, c % n)));
                }
            }
            Op::Arrive { from, to } => run.arrive(from % n, to % n),
            Op::Probe { who, rot } => run.probe(who % n, rot),
            Op::Crash { who } => run.crash(who % n),
        }
        run.check_all();
    }
    run.quiesce();
    run.check_all();
}

proptest! {
    #![proptest_config(at_least(256))]

    #[test]
    fn sparse_core_equals_textbook_dense_rst(
        n in 2usize..6,
        ops in prop::collection::vec(op_strategy(5), 1..250),
    ) {
        lock_step(n, &ops);
    }
}

proptest! {
    #![proptest_config(at_least(24))]

    #[test]
    fn sparse_core_equals_textbook_dense_rst_where_rows_fill(
        ops in prop::collection::vec(op_strategy(12), 400..700),
    ) {
        lock_step(12, &ops);
    }
}

/// The adversarial case spelled out. Server 0 tells server 1 about a
/// message `2 → 1` in its first frame, then ships the same cell with a
/// *lower* value in its second. Dense keeps the maximum in its image, so
/// frame 2's stamp still says 1 there; the sparse pending of frame 2
/// carries the 0 and nothing else of frame 1. They must still agree at
/// every point: the FIFO clause holds frame 2 back until frame 1 — and so
/// the message from 2 — has been delivered.
#[test]
fn a_delta_below_what_was_shipped_before_changes_no_verdict() {
    let mut run = LockStep::new(3);
    run.send(2, 1, Batching::Single, None); // m: 2 -> 1, held back
    run.send(2, 0, Batching::Single, None);
    run.arrive(2, 0);
    run.probe(0, 0); // 0 now knows of m
    run.send(0, 1, Batching::Single, None); // frame 1 carries (2,1)=1
    run.send(0, 1, Batching::Single, None); // frame 2 ...
    match run.links[0][1].back_mut() {
        Some(Stamp::Delta(es)) => {
            let mut entries: Vec<UpdateEntry> = es.iter().collect();
            entries.push(UpdateEntry {
                row: 2,
                col: 1,
                value: 0, // ... re-ships it lower
            });
            *es = PackedEntries::new(&entries);
        }
        other => panic!("frame 2 is a real delta stamp, got {other:?}"),
    }
    run.arrive(0, 1);
    run.arrive(0, 1);
    let verdicts = |run: &LockStep| -> Vec<bool> {
        run.check(1);
        run.postponed[1]
            .iter()
            .map(|a| run.real[1].can_deliver(d(a.from), &a.sparse))
            .collect()
    };
    assert_eq!(verdicts(&run), [false, false], "both wait for m");
    run.arrive(2, 1);
    assert_eq!(verdicts(&run), [false, false, true], "only m");
    run.probe(1, 1); // m, then frame 1, then frame 2 — in that order
    assert!(run.postponed[1].is_empty());
    run.check_all();
    assert_eq!(run.real[1].delivered_total(), 3);
}
