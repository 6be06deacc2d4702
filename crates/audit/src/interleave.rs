//! A hand-rolled bounded interleaving explorer (mini-loom; no new deps).
//!
//! `cargo test` cannot buy confidence in the evented runtime's wakeup
//! protocol: the races it would need to hit live in two-instruction
//! windows that a scheduler lands on once per million runs. This module
//! takes the opposite route — model the protocol as a finite transition
//! system (every shared-memory access is one atomic action) and
//! *exhaustively* enumerate every interleaving up to a bounded depth,
//! checking invariants in every reachable state, in the spirit of the
//! machine-checked Matrix event-graph analysis (PAPERS.md): prove the
//! structure, not the sampling.
//!
//! Two layers:
//!
//! * a generic [`Model`] + [`explore`] DFS with state memoization — any
//!   protocol with `Clone + Ord` states and a deterministic successor
//!   function can be checked;
//! * [`SlotModel`], the evented runtime's `Slot` protocol
//!   (`crates/mom/src/runtime/evented.rs`): the `scheduled` swap gate,
//!   clear-before-drain, `try_lock` stealing, the `dead` latch, the
//!   timer `deadline_us` CAS, saturation requeue — with sabotage knobs
//!   ([`SlotConfig::clear_scheduled_on_step`],
//!   [`SlotConfig::recheck_dead_under_lock`]) so the acceptance tests
//!   can demonstrate the explorer *finds* the bugs when the protocol is
//!   mutated.
//!
//! Exploration is deterministic: the DFS visits successors in a
//! seed-permuted but fully reproducible order, and — when the depth
//! bound does not truncate — the reachable state *set* is independent
//! of the seed (same protocol, same states; only the visit order
//! moves). Both are hashed into [`Exploration`] so tests can pin them.

use std::collections::BTreeSet;

pub mod engine_model;

pub use engine_model::{EngineConfig, EngineModel, EngineNet};

/// Every shared-memory access (as `field.method`) in
/// `crates/mom/src/runtime/evented.rs` that [`SlotModel`] models with a
/// protocol action. The `model-drift` audit rule statically extracts the
/// access set reachable from the evented entry points and fails if this
/// list no longer covers it — so the PR 8 proof cannot silently rot when
/// the runtime grows a new atomic, lock or queue operation.
///
/// Keep sorted; each entry names the model action that covers it:
///
/// | access | covering model action |
/// |---|---|
/// | `cmd_rx.is_empty` | `Requeue` backlog condition |
/// | `cmd_rx.try_recv` | `Cmds` drain |
/// | `cmd_tx.send` | `client: command deposited` |
/// | `dead.load` | `CheckDead` / `schedule()` dead gate / `send_cmd` |
/// | `dead.store` | `process shutdown command` latch |
/// | `deadline_us.compare_exchange` | `timer: deadline CAS claimed` |
/// | `deadline_us.load` | `timer: deadline CAS claimed` |
/// | `deadline_us.store` | `Tick` deadline store / shutdown disarm |
/// | `runq_rx.recv_timeout` | `worker: pop run queue` |
/// | `runq_tx.send` | `schedule()` enqueue |
/// | `scheduled.store` | `Clear` (clear-before-drain) |
/// | `scheduled.swap` | `schedule()` swap gate |
/// | `state.try_lock` | `TryLock` won/lost |
/// | `stop.load` | worker/timer loop condition (exit modeled as quiescence) |
pub const COVERED_ACCESSES: &[&str] = &[
    "cmd_rx.is_empty",
    "cmd_rx.try_recv",
    "cmd_tx.send",
    "dead.load",
    "dead.store",
    "deadline_us.compare_exchange",
    "deadline_us.load",
    "deadline_us.store",
    "runq_rx.recv_timeout",
    "runq_tx.send",
    "scheduled.store",
    "scheduled.swap",
    "state.try_lock",
    "stop.load",
];

/// A finite-state protocol the explorer can check.
pub trait Model {
    /// One global protocol state. `Ord` gives memoization and a
    /// canonical ordering for the state-set hash.
    type State: Clone + Ord + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Every enabled transition from `s`: a human-readable action label
    /// plus either the successor state or a violation raised by taking
    /// that action (e.g. "stepping a dead slot"). Must be deterministic
    /// in `s`.
    fn successors(&self, s: &Self::State) -> Vec<(String, Result<Self::State, String>)>;

    /// Invariant checked on every reachable state.
    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        let _ = s;
        Ok(())
    }

    /// Invariant checked on quiescent states (no enabled transition).
    fn terminal(&self, s: &Self::State) -> Result<(), String> {
        let _ = s;
        Ok(())
    }
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Longest action sequence followed before truncating (a liveness
    /// backstop, not the usual limiter — memoization bounds the work).
    /// Exhaustiveness claims require the result's `truncated == false`.
    pub max_depth: usize,
    /// Permutes successor visit order (deterministically). The reachable
    /// state set is seed-independent unless truncation bites.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            max_depth: 10_000,
            seed: 0,
        }
    }
}

/// A successful exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions followed (edges, counted once per source state).
    pub transitions: usize,
    /// `true` when `max_depth` cut at least one path short — the state
    /// set is then a lower bound, not the full reachable set.
    pub truncated: bool,
    /// FNV-1a over the canonically-ordered state set (seed-independent
    /// when not truncated).
    pub state_set_hash: u64,
    /// FNV-1a over states in visit order (same seed → same hash).
    pub visit_order_hash: u64,
}

/// An invariant violation, with the action trace that reaches it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// Action labels from the initial state to the violation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.message)?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {a}")?;
        }
        Ok(())
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Deterministic Fisher–Yates driven by a splitmix-style LCG.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    for i in (1..v.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
}

/// Exhaustively explores `m` from its initial state.
///
/// Depth-first with full-state memoization: each distinct state is
/// expanded exactly once, so the walk terminates on any finite-state
/// model regardless of cycles (a model that never quiesces simply has
/// no terminal states to check).
///
/// # Errors
///
/// Returns the first [`Violation`] encountered, with its trace.
pub fn explore<M: Model>(m: &M, opts: Options) -> Result<Exploration, Box<Violation>> {
    let mut visited: BTreeSet<M::State> = BTreeSet::new();
    let mut order_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut transitions = 0usize;
    let mut truncated = false;
    // Explicit stack: (state, depth, trace-so-far index). Traces are kept
    // as a parent-pointer arena so a deep DFS stays cheap.
    struct Node {
        parent: usize,
        label: String,
    }
    fn fail(arena: &[Node], trace_idx: usize, message: String) -> Box<Violation> {
        let mut trace = Vec::new();
        let mut cur = trace_idx;
        while cur != 0 {
            trace.push(arena[cur].label.clone());
            cur = arena[cur].parent;
        }
        trace.reverse();
        Box::new(Violation { message, trace })
    }
    let mut arena: Vec<Node> = vec![Node {
        parent: usize::MAX,
        label: String::new(),
    }];
    let mut stack: Vec<(M::State, usize, usize)> = vec![(m.initial(), 0, 0)];
    while let Some((state, depth, trace_idx)) = stack.pop() {
        if visited.contains(&state) {
            continue;
        }
        fnv1a(&mut order_hash, format!("{state:?}").as_bytes());
        if let Err(msg) = m.invariant(&state) {
            return Err(fail(&arena, trace_idx, msg));
        }
        let mut succ = m.successors(&state);
        if succ.is_empty() {
            if let Err(msg) = m.terminal(&state) {
                return Err(fail(&arena, trace_idx, msg));
            }
            visited.insert(state);
            continue;
        }
        if depth >= opts.max_depth {
            truncated = true;
            visited.insert(state);
            continue;
        }
        shuffle(
            &mut succ,
            opts.seed ^ (depth as u64).wrapping_mul(0x1000_0000_01b3),
        );
        for (label, next) in succ {
            transitions += 1;
            match next {
                Ok(ns) => {
                    arena.push(Node {
                        parent: trace_idx,
                        label: label.clone(),
                    });
                    let idx = arena.len() - 1;
                    stack.push((ns, depth + 1, idx));
                }
                Err(msg) => {
                    let mut v = fail(&arena, trace_idx, msg);
                    v.trace.push(label);
                    return Err(v);
                }
            }
        }
        visited.insert(state);
    }
    let mut set_hash = 0xcbf2_9ce4_8422_2325u64;
    for s in &visited {
        fnv1a(&mut set_hash, format!("{s:?}").as_bytes());
    }
    Ok(Exploration {
        states: visited.len(),
        transitions,
        truncated,
        state_set_hash: set_hash,
        visit_order_hash: order_hash,
    })
}

// ---------------------------------------------------------------------
// The evented Slot protocol.
// ---------------------------------------------------------------------

/// Workload and protocol knobs for [`SlotModel`].
#[derive(Debug, Clone, Copy)]
pub struct SlotConfig {
    /// Datagram arrivals; each is two atomic actions (deposit bytes,
    /// then run the readiness notifier).
    pub notifiers: u8,
    /// Normal commands sent through `send_cmd` (deposit + schedule).
    pub commands: u8,
    /// Whether a `Shutdown` command arrives (after the normal commands).
    pub shutdown: bool,
    /// Shard workers racing over the run queue.
    pub workers: u8,
    /// Whether a timer deadline is armed at start (exercises the
    /// `deadline_us` CAS-claim path).
    pub deadline_armed: bool,
    /// `MAX_STEP_DRAIN` stand-in: datagrams per step before the
    /// saturation requeue.
    pub drain_cap: u8,
    /// Protocol as written: `run_ready_server` clears `scheduled`
    /// *before* draining. Sabotage knob — `false` drops the reset and
    /// must produce a lost wakeup.
    pub clear_scheduled_on_step: bool,
    /// Re-check `dead` after winning `try_lock`. Sabotage knob —
    /// `false` reproduces the step-after-dead race.
    pub recheck_dead_under_lock: bool,
}

impl SlotConfig {
    /// The canonical CI workload: enough concurrency for every race
    /// window (two workers, racing notifier/command/shutdown/timer),
    /// small enough to stay exhaustive in well under a second.
    pub fn ci() -> SlotConfig {
        SlotConfig {
            notifiers: 2,
            commands: 1,
            shutdown: true,
            workers: 2,
            deadline_armed: true,
            drain_cap: 1,
            clear_scheduled_on_step: true,
            recheck_dead_under_lock: true,
        }
    }

    /// Scales the workload by an `AAA_MODEL_DEPTH` level: 0/1 = the CI
    /// shape, 2 = deep (main-branch CI), 3+ = deeper still.
    pub fn at_depth(level: u8) -> SlotConfig {
        let mut c = SlotConfig::ci();
        if level >= 2 {
            c.notifiers = 3;
            c.drain_cap = 2;
        }
        if level >= 3 {
            c.workers = 3;
            c.commands = 2;
        }
        c
    }
}

/// Per-worker program counter through `run_ready_server`, one shared-
/// memory access per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wpc {
    /// In the `worker()` loop, not holding a queue entry.
    Idle,
    /// Popped an index; about to clear `scheduled`.
    Clear,
    /// Cleared; about to load `dead`.
    CheckDead,
    /// `dead` was false; about to `try_lock`.
    TryLock,
    /// Lock won; about to (re-)check `dead` under the lock.
    Recheck,
    /// About to take at most one command from `cmd_rx`.
    Cmds,
    /// Draining datagrams; the payload counts this step's drains.
    Data(u8),
    /// Batch done (payload: saturated); about to tick, store the next
    /// deadline and drop the guard.
    Tick(bool),
    /// Guard dropped (payload: saturated); about to evaluate the
    /// requeue condition.
    Requeue(bool),
}

/// One global state of the slot protocol.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotState {
    scheduled: bool,
    dead: bool,
    /// Run-queue entries naming this slot.
    queue: u8,
    /// Datagrams deposited but not yet drained.
    pending: u8,
    /// Arrival events not yet deposited.
    undelivered: u8,
    /// Deposited arrivals whose readiness notifier has not run yet.
    unnotified: u8,
    /// Commands in `cmd_rx`.
    cmds_pending: u8,
    /// `send_cmd` calls not yet made.
    cmds_undeposited: u8,
    /// `send_cmd` deposits whose `schedule()` has not run yet.
    cmd_notifies: u8,
    /// The shutdown `send_cmd` has not been made yet.
    shutdown_undeposited: bool,
    /// Shutdown sits in `cmd_rx` (visible to a draining worker the
    /// moment the send completes, before its `schedule()` runs).
    shutdown_queued: bool,
    /// The shutdown sender's `schedule()` call is still owed.
    shutdown_notify: bool,
    /// `deadline_us != NO_DEADLINE` and due.
    deadline: bool,
    /// Timer won the CAS but has not called `schedule()` yet.
    timer_claimed: bool,
    workers: Vec<Wpc>,
}

impl SlotState {
    fn locked_worker(&self) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| matches!(w, Wpc::Recheck | Wpc::Cmds | Wpc::Data(_) | Wpc::Tick(_)))
    }

    /// `PoolShared::schedule`: dead check, `swap(true)` gate, enqueue.
    fn schedule(&mut self) {
        if !self.dead && !self.scheduled {
            self.scheduled = true;
            self.queue += 1;
        }
    }
}

/// The evented `Slot` notify/step/requeue protocol as a [`Model`].
#[derive(Debug, Clone, Copy)]
pub struct SlotModel {
    /// Workload size and sabotage knobs.
    pub cfg: SlotConfig,
}

impl Model for SlotModel {
    type State = SlotState;

    fn initial(&self) -> SlotState {
        SlotState {
            scheduled: false,
            dead: false,
            queue: 0,
            pending: 0,
            undelivered: self.cfg.notifiers,
            unnotified: 0,
            cmds_pending: 0,
            cmds_undeposited: self.cfg.commands,
            cmd_notifies: 0,
            shutdown_undeposited: self.cfg.shutdown,
            shutdown_queued: false,
            shutdown_notify: false,
            deadline: self.cfg.deadline_armed,
            timer_claimed: false,
            workers: vec![Wpc::Idle; self.cfg.workers as usize],
        }
    }

    fn successors(&self, s: &SlotState) -> Vec<(String, Result<SlotState, String>)> {
        let mut out: Vec<(String, Result<SlotState, String>)> = Vec::new();
        let mut push = |label: String, next: Result<SlotState, String>| out.push((label, next));

        // Environment: datagram arrival, then its readiness notifier.
        if s.undelivered > 0 {
            let mut n = s.clone();
            n.undelivered -= 1;
            n.pending += 1;
            n.unnotified += 1;
            push("net: datagram deposited".into(), Ok(n));
        }
        if s.unnotified > 0 {
            let mut n = s.clone();
            n.unnotified -= 1;
            n.schedule();
            push("net: notifier -> schedule()".into(), Ok(n));
        }
        // Client: send_cmd = dead check, deposit, then schedule.
        if s.cmds_undeposited > 0 {
            let mut n = s.clone();
            n.cmds_undeposited -= 1;
            if !n.dead {
                n.cmds_pending += 1;
                n.cmd_notifies += 1;
            }
            push("client: command deposited".into(), Ok(n));
        }
        if s.cmd_notifies > 0 {
            let mut n = s.clone();
            n.cmd_notifies -= 1;
            n.schedule();
            push("client: send_cmd -> schedule()".into(), Ok(n));
        }
        // Shutdown command: only after every normal command went in
        // (send_cmd is called from one control thread, in order).
        if s.shutdown_undeposited && s.cmds_undeposited == 0 {
            let mut n = s.clone();
            n.shutdown_undeposited = false;
            if !n.dead {
                n.shutdown_queued = true;
                n.shutdown_notify = true;
            }
            push("client: shutdown deposited".into(), Ok(n));
        }
        if s.shutdown_notify {
            let mut n = s.clone();
            n.shutdown_notify = false;
            n.schedule();
            push("client: shutdown -> schedule()".into(), Ok(n));
        }
        // Timer thread: deadline CAS claim, then schedule.
        if s.deadline && !s.timer_claimed {
            let mut n = s.clone();
            n.deadline = false;
            n.timer_claimed = true;
            push("timer: deadline CAS claimed".into(), Ok(n));
        }
        if s.timer_claimed {
            let mut n = s.clone();
            n.timer_claimed = false;
            n.schedule();
            push("timer: schedule()".into(), Ok(n));
        }

        // Shard workers.
        for (w, pc) in s.workers.iter().enumerate() {
            let step = |f: &dyn Fn(&mut SlotState)| {
                let mut n = s.clone();
                f(&mut n);
                n
            };
            match *pc {
                Wpc::Idle => {
                    if s.queue > 0 {
                        let n = step(&|n| {
                            n.queue -= 1;
                            n.workers[w] = Wpc::Clear;
                        });
                        push(format!("worker {w}: pop run queue"), Ok(n));
                    }
                }
                Wpc::Clear => {
                    let clear = self.cfg.clear_scheduled_on_step;
                    let n = step(&|n| {
                        if clear {
                            n.scheduled = false;
                        }
                        n.workers[w] = Wpc::CheckDead;
                    });
                    push(format!("worker {w}: clear scheduled"), Ok(n));
                }
                Wpc::CheckDead => {
                    let n = step(&|n| {
                        n.workers[w] = if n.dead { Wpc::Idle } else { Wpc::TryLock };
                    });
                    push(format!("worker {w}: load dead"), Ok(n));
                }
                Wpc::TryLock => {
                    if s.locked_worker().is_none() {
                        let n = step(&|n| {
                            n.workers[w] = Wpc::Recheck;
                        });
                        push(format!("worker {w}: try_lock won"), Ok(n));
                    } else {
                        let n = step(&|n| {
                            n.schedule();
                            n.workers[w] = Wpc::Idle;
                        });
                        push(format!("worker {w}: try_lock lost -> reschedule"), Ok(n));
                    }
                }
                Wpc::Recheck => {
                    let recheck = self.cfg.recheck_dead_under_lock;
                    let n = step(&|n| {
                        n.workers[w] = if recheck && n.dead {
                            Wpc::Idle
                        } else {
                            Wpc::Cmds
                        };
                    });
                    push(format!("worker {w}: recheck dead under lock"), Ok(n));
                }
                Wpc::Cmds => {
                    let label = format!("worker {w}: drain one command");
                    if s.dead {
                        push(
                            label,
                            Err("step-after-dead: handling a command on a slot whose \
                                 shutdown (final flush + group commit) already ran"
                                .into()),
                        );
                    } else if s.cmds_pending > 0 {
                        // One command per step; the rest wait for the
                        // backlog requeue.
                        let n = step(&|n| {
                            n.cmds_pending -= 1;
                            n.workers[w] = Wpc::Data(0);
                        });
                        push(label, Ok(n));
                    } else if s.shutdown_queued {
                        // handle_command returned false: latch dead,
                        // disarm the deadline, return (guard drops).
                        let n = step(&|n| {
                            n.shutdown_queued = false;
                            n.dead = true;
                            n.deadline = false;
                            n.workers[w] = Wpc::Idle;
                        });
                        push(format!("worker {w}: process shutdown command"), Ok(n));
                    } else {
                        let n = step(&|n| {
                            n.workers[w] = Wpc::Data(0);
                        });
                        push(format!("worker {w}: cmd_rx empty -> drain data"), Ok(n));
                    }
                }
                Wpc::Data(d) => {
                    let label = format!("worker {w}: poll_recv datagram");
                    if s.dead {
                        push(
                            label,
                            Err("step-after-dead: polling the endpoint of a slot whose \
                                 shutdown already ran"
                                .into()),
                        );
                    } else if s.pending > 0 && d < self.cfg.drain_cap {
                        let n = step(&|n| {
                            n.pending -= 1;
                            n.workers[w] = Wpc::Data(d + 1);
                        });
                        push(label, Ok(n));
                    } else {
                        let saturated = d >= self.cfg.drain_cap;
                        let n = step(&|n| {
                            n.workers[w] = Wpc::Tick(saturated);
                        });
                        push(format!("worker {w}: batch done"), Ok(n));
                    }
                }
                Wpc::Tick(saturated) => {
                    let label = format!("worker {w}: tick + store deadline + unlock");
                    if s.dead {
                        push(
                            label,
                            Err("step-after-dead: ticking the driver of a slot whose \
                                 shutdown already ran"
                                .into()),
                        );
                    } else {
                        let n = step(&|n| {
                            // The drained step consumed the due deadline;
                            // the quiesced driver has no next wakeup.
                            n.deadline = false;
                            n.workers[w] = Wpc::Requeue(saturated);
                        });
                        push(label, Ok(n));
                    }
                }
                Wpc::Requeue(saturated) => {
                    let n = step(&|n| {
                        if saturated || n.cmds_pending > 0 || n.shutdown_queued {
                            n.schedule();
                        }
                        n.workers[w] = Wpc::Idle;
                    });
                    push(format!("worker {w}: saturation/backlog requeue"), Ok(n));
                }
            }
        }
        out
    }

    fn invariant(&self, s: &SlotState) -> Result<(), String> {
        // No double-step: the state Mutex admits one worker.
        let locked = s
            .workers
            .iter()
            .filter(|w| matches!(w, Wpc::Recheck | Wpc::Cmds | Wpc::Data(_) | Wpc::Tick(_)))
            .count();
        if locked > 1 {
            return Err(format!(
                "double-step: {locked} workers inside the slot lock"
            ));
        }
        Ok(())
    }

    fn terminal(&self, s: &SlotState) -> Result<(), String> {
        if !s.dead && (s.pending > 0 || s.cmds_pending > 0 || s.shutdown_queued) {
            return Err(format!(
                "lost wakeup: quiescent with work pending \
                 (pending={}, cmds={}, shutdown_queued={}) and nothing scheduled",
                s.pending, s.cmds_pending, s.shutdown_queued
            ));
        }
        if s.scheduled && s.queue == 0 && s.workers.iter().all(|w| *w == Wpc::Idle) {
            return Err("wakeup token leaked: scheduled set with empty queue".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_protocol_is_sound() {
        let m = SlotModel {
            cfg: SlotConfig::ci(),
        };
        let ex = explore(&m, Options::default()).unwrap_or_else(|v| panic!("{v}"));
        assert!(!ex.truncated, "CI workload must stay exhaustive");
        assert!(ex.states > 100, "suspiciously small space: {}", ex.states);
    }

    #[test]
    fn dropping_the_scheduled_reset_loses_a_wakeup() {
        let mut cfg = SlotConfig::ci();
        cfg.clear_scheduled_on_step = false;
        cfg.shutdown = false;
        cfg.commands = 0;
        let v = explore(&SlotModel { cfg }, Options::default())
            .expect_err("mutated protocol must lose a wakeup");
        assert!(v.message.contains("lost wakeup"), "{v}");
        assert!(!v.trace.is_empty(), "violation carries its trace");
    }

    #[test]
    fn skipping_the_dead_recheck_steps_a_dead_slot() {
        let mut cfg = SlotConfig::ci();
        cfg.recheck_dead_under_lock = false;
        let v = explore(&SlotModel { cfg }, Options::default())
            .expect_err("unfixed protocol must step after dead");
        assert!(v.message.contains("step-after-dead"), "{v}");
    }

    #[test]
    fn state_set_is_seed_independent_and_order_is_seeded() {
        let m = SlotModel {
            cfg: SlotConfig::ci(),
        };
        let a = explore(
            &m,
            Options {
                seed: 1,
                ..Options::default()
            },
        )
        .expect("sound");
        let b = explore(
            &m,
            Options {
                seed: 2,
                ..Options::default()
            },
        )
        .expect("sound");
        let a2 = explore(
            &m,
            Options {
                seed: 1,
                ..Options::default()
            },
        )
        .expect("sound");
        assert_eq!(a.states, b.states);
        assert_eq!(a.state_set_hash, b.state_set_hash);
        assert_eq!(a, a2, "same seed reproduces the exploration exactly");
    }

    #[test]
    fn depth_bound_reports_truncation() {
        let m = SlotModel {
            cfg: SlotConfig::ci(),
        };
        let ex = explore(
            &m,
            Options {
                max_depth: 3,
                seed: 0,
            },
        )
        .expect("no violation that shallow");
        assert!(ex.truncated);
    }
}
