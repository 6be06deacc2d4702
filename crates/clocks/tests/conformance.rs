//! Mode-generic conformance suite.
//!
//! Every [`StampMode`] must be observationally equivalent: on the same
//! seeded schedule, every mode must postpone the same frames, deliver in
//! the same order, drain its postponed queue to zero, and converge to the
//! same matrices. These tests drive deterministic seeded scenarios through
//! all three modes side by side and compare the full delivery transcript —
//! the contract that lets the middleware switch modes without changing
//! semantics.

use aaa_base::DomainServerId;
use aaa_clocks::{Batching, CausalState, PendingStamp, Stamp, StampMode};
use std::collections::VecDeque;

fn d(i: usize) -> DomainServerId {
    DomainServerId::new(i as u16)
}

/// Deterministic splitmix64: the conformance schedules must be identical
/// across runs and across modes, so no external RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One message in flight or postponed, tagged with its global send index so
/// delivery transcripts can be compared across modes.
struct Frame {
    from: usize,
    send_idx: usize,
    stamp: Option<Stamp>,
    pending: Option<PendingStamp>,
}

/// A single-domain run of one stamp mode over a seeded schedule.
struct Run {
    n: usize,
    clocks: Vec<CausalState>,
    links: Vec<Vec<VecDeque<Frame>>>,
    postponed: Vec<Vec<Frame>>,
    /// Transcript: (site, send_idx) in delivery order.
    deliveries: Vec<(usize, usize)>,
    /// Postpone events: frames that failed a deliverability check at least
    /// once before delivery.
    postpone_checks: usize,
    stamp_bytes: usize,
    max_postponed_depth: usize,
}

impl Run {
    fn new(n: usize, mode: StampMode) -> Self {
        Run {
            n,
            clocks: (0..n).map(|i| CausalState::new(d(i), n, mode)).collect(),
            links: (0..n)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            postponed: (0..n).map(|_| Vec::new()).collect(),
            deliveries: Vec::new(),
            postpone_checks: 0,
            stamp_bytes: 0,
            max_postponed_depth: 0,
        }
    }

    fn send(&mut self, from: usize, to: usize, send_idx: usize, batching: Batching) {
        let stamp = self.clocks[from].stamp_send(d(to), batching);
        self.stamp_bytes += stamp.encoded_len();
        self.links[from][to].push_back(Frame {
            from,
            send_idx,
            stamp: Some(stamp),
            pending: None,
        });
    }

    fn arrive(&mut self, from: usize, to: usize) {
        if let Some(mut frame) = self.links[from][to].pop_front() {
            let stamp = frame.stamp.take().expect("frame already arrived");
            frame.pending = Some(self.clocks[to].on_frame(d(from), stamp));
            self.postponed[to].push(frame);
            self.max_postponed_depth = self.max_postponed_depth.max(self.postponed[to].len());
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
                let frame = &self.postponed[who][i];
                let p = frame
                    .pending
                    .as_ref()
                    .expect("postponed frames have stamps");
                if self.clocks[who].can_deliver(d(frame.from), p) {
                    hit = Some(i);
                    break;
                }
                self.postpone_checks += 1;
            }
            let Some(i) = hit else { return };
            let frame = self.postponed[who].remove(i);
            let p = frame
                .pending
                .as_ref()
                .expect("postponed frames have stamps");
            self.clocks[who].deliver(d(frame.from), p);
            self.deliveries.push((who, frame.send_idx));
        }
    }

    fn quiesce(&mut self) {
        loop {
            let mut progressed = false;
            for from in 0..self.n {
                for to in 0..self.n {
                    while !self.links[from][to].is_empty() {
                        self.arrive(from, to);
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
                return;
            }
        }
    }

    fn postponed_total(&self) -> usize {
        self.postponed.iter().map(Vec::len).sum()
    }
}

/// Drives one seeded scenario through every stamp mode in lock-step and
/// asserts the full transcripts agree. Returns per-mode stamp byte totals
/// for the cost-shape assertions.
fn run_conformance(seed: u64, n: usize, steps: usize) -> Vec<(StampMode, usize)> {
    let mut runs: Vec<(StampMode, Run)> = StampMode::ALL
        .into_iter()
        .map(|m| (m, Run::new(n, m)))
        .collect();
    let mut rng = SplitMix64(seed);
    let mut send_idx = 0usize;
    for _ in 0..steps {
        // One RNG stream drives every mode: identical schedules by
        // construction.
        match rng.below(3) {
            0 => {
                let from = rng.below(n as u64) as usize;
                let to = rng.below(n as u64) as usize;
                if from == to {
                    continue;
                }
                let batching = if rng.below(2) == 0 {
                    Batching::Single
                } else {
                    Batching::Grouped
                };
                for (_, run) in &mut runs {
                    run.send(from, to, send_idx, batching);
                }
                send_idx += 1;
            }
            1 => {
                let from = rng.below(n as u64) as usize;
                let to = rng.below(n as u64) as usize;
                for (_, run) in &mut runs {
                    run.arrive(from, to);
                }
            }
            _ => {
                let who = rng.below(n as u64) as usize;
                let rot = rng.below(16) as usize;
                for (_, run) in &mut runs {
                    run.pump(who, rot);
                }
            }
        }
    }
    for (_, run) in &mut runs {
        run.quiesce();
    }

    let (ref_mode, reference) = &runs[0];
    assert_eq!(*ref_mode, StampMode::Full);
    for (mode, run) in &runs[1..] {
        assert_eq!(
            run.deliveries, reference.deliveries,
            "seed {seed}: {mode} delivery order diverged from full"
        );
        assert_eq!(
            run.postpone_checks, reference.postpone_checks,
            "seed {seed}: {mode} postponed different frames than full"
        );
        assert_eq!(
            run.postponed_total(),
            0,
            "seed {seed}: {mode} left frames postponed after quiescence"
        );
        for i in 0..n {
            assert_eq!(
                run.clocks[i].sent(),
                reference.clocks[i].sent(),
                "seed {seed}: {mode} server {i} matrix diverged"
            );
            assert_eq!(
                run.clocks[i].delivered_total(),
                reference.clocks[i].delivered_total(),
                "seed {seed}: {mode} server {i} delivery count diverged"
            );
        }
    }
    assert_eq!(reference.postponed_total(), 0);
    assert_eq!(reference.deliveries.len(), send_idx);

    runs.iter()
        .map(|(mode, run)| (*mode, run.stamp_bytes))
        .collect()
}

#[test]
fn seeded_scenarios_agree_across_all_modes() {
    for seed in 0..24u64 {
        run_conformance(seed, 2 + (seed as usize % 4), 160);
    }
}

#[test]
fn long_scenario_agrees_across_all_modes() {
    run_conformance(0xC0FFEE, 5, 1200);
}

#[test]
fn bounded_modes_never_cost_more_stamp_bytes_than_full() {
    for seed in [1u64, 7, 42] {
        let totals = run_conformance(seed, 5, 600);
        let full = totals
            .iter()
            .find(|(m, _)| *m == StampMode::Full)
            .expect("full mode ran")
            .1;
        for (mode, bytes) in totals {
            if mode == StampMode::Full {
                continue;
            }
            assert!(
                bytes < full,
                "seed {seed}: {mode} spent {bytes}B, full spent {full}B"
            );
        }
    }
}
