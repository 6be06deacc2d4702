//! Model-checking the *real* clock protocol, not a re-model.
//!
//! [`SlotModel`](super::SlotModel) proves the evented wakeup protocol by
//! hand-encoding it as a transition system — sound, but the proof rots
//! the moment the code drifts (the `model-drift` rule guards that gap).
//! The causal delivery condition (§4.2) gets the stronger treatment
//! here: [`EngineModel`] drives the actual `aaa-clocks` implementations
//! — `CausalState::stamp_send` / `on_frame` / `can_deliver` / `deliver`
//! and the real `write_bytes` / `read_bytes` persistence codecs —
//! through *every* interleaving of send / transmit / deliver at a small
//! bound. There is nothing to drift from: the model state *is* the
//! engine's persisted image.
//!
//! What one exploration proves, per [`StampMode`]:
//!
//! - **Causal order** — delivery is checked against an exact
//!   ground-truth dependency oracle (the causal past of each message,
//!   tracked by message id outside the engines), so a predicate that
//!   admits an early delivery is caught by construction, not by
//!   comparing the code with itself. The `weaken_can_deliver` sabotage
//!   knob proves the oracle has teeth.
//! - **Exactly-once** — a just-delivered message must be rejected on
//!   re-offer (the duplicate-delivery window), and the ground-truth
//!   delivered set refuses double insertion.
//! - **Quiescence** — when no transition is enabled, nothing may be
//!   permanently postponed and every destination must have received its
//!   full quota.
//! - **Mode equivalence** — the delta mode (`Updates`) runs
//!   in lock-step with a [`StampMode::Full`] reference:
//!   same group-continuation decisions, same link counter and carried
//!   predicate-column cells, same delivery verdicts, same
//!   [`EngineTranscript`](aaa_clocks::EngineTranscript) after every
//!   mutation — in every reachable interleaving, not just on seeded
//!   schedules.
//! - **Crash/recovery** — every transition round-trips each touched
//!   server through `write_bytes`/`read_bytes`, and the invariant
//!   re-encodes every image byte-identically, so recovery at *any*
//!   reachable point resumes the protocol exactly (mid-group
//!   continuations included: the workload stamps with
//!   [`Batching::Grouped`], so `Stamp::GroupNext` frames cross links
//!   and persistence boundaries).
//!
//! Topology is a ring (`s → (s+1) mod n`): it is the smallest shape
//! where FIFO-link reorder across distinct senders, transitive
//! causality (`n ≥ 3`) and grouped continuation runs all occur.

use std::collections::BTreeSet;

use aaa_base::DomainServerId;
use aaa_clocks::{Batching, CausalState, PendingStamp, Stamp, StampMode};

use super::Model;

/// Workload shape and sabotage knob for [`EngineModel`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Stamp mode of the engine under test. Every mode other than
    /// [`StampMode::Full`] is additionally lock-stepped against a
    /// `Full` reference engine.
    pub mode: StampMode,
    /// Servers in the ring.
    pub n: u16,
    /// Messages each server sends to its ring successor.
    pub msgs_per_sender: u8,
    /// Sabotage knob: decide deliveries with the off-by-one
    /// `can_deliver_weakened` predicate instead of the real one. The
    /// ground-truth oracle must then report a causal-order violation —
    /// proving the check can fail.
    pub weaken_can_deliver: bool,
}

impl EngineConfig {
    /// The canonical CI workload: 3 servers, 2 messages each — big
    /// enough for transitive causality, reorder and grouped
    /// continuations, small enough to explore exhaustively per mode in
    /// well under a second in release builds.
    pub fn ci(mode: StampMode) -> EngineConfig {
        EngineConfig {
            mode,
            n: 3,
            msgs_per_sender: 2,
            weaken_can_deliver: false,
        }
    }

    /// Scales the workload by an `AAA_MODEL_DEPTH` level: 0/1 = the CI
    /// shape, 2 = deep (main-branch CI), 3+ = deeper still.
    pub fn at_depth(mode: StampMode, level: u8) -> EngineConfig {
        let mut c = EngineConfig::ci(mode);
        if level >= 2 {
            c.msgs_per_sender = 3;
        }
        if level >= 3 {
            c.n = 4;
            c.msgs_per_sender = 2;
        }
        c
    }
}

/// A stamped message in flight on one FIFO link.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct InFlight {
    /// Global message id (`sender * msgs_per_sender + seq`).
    id: u16,
    /// Ground truth: every message id in the sender's causal past at
    /// send time.
    deps: BTreeSet<u16>,
    /// The real engine's wire stamp.
    stamp: Stamp,
    /// The lock-stepped `Full` reference's stamp (absent when the mode
    /// under test *is* `Full`).
    shadow_stamp: Option<Stamp>,
}

/// A message that arrived (FIFO order respected) but is not delivered.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Arrived {
    id: u16,
    deps: BTreeSet<u16>,
    /// What the receiver holds of the sender matrix until delivery.
    pending: PendingStamp,
    shadow_pending: Option<PendingStamp>,
}

/// One global state of the engine network.
///
/// Engine state is held *as the persisted byte image* — the exact bytes
/// `CausalState::write_bytes` produces — so every transition models a
/// crash/recovery cycle through the real codec, and state memoization
/// keys on what would actually be journaled.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EngineNet {
    /// Per-server persisted image of the engine under test.
    servers: Vec<Vec<u8>>,
    /// Per-server persisted image of the `Full` reference engine
    /// (empty when the mode under test is `Full`).
    shadows: Vec<Vec<u8>>,
    /// Messages each sender still has to send.
    to_send: Vec<u8>,
    /// One FIFO link per sender (ring: each sender has one peer).
    links: Vec<Vec<InFlight>>,
    /// Arrived-but-undelivered messages, per receiver, deliverable in
    /// any predicate-approved order.
    pending: Vec<Vec<Arrived>>,
    /// Ground truth: message ids in each server's causal past.
    known: Vec<BTreeSet<u16>>,
    /// Ground truth: message ids delivered at each server.
    delivered: Vec<BTreeSet<u16>>,
}

/// The real clock protocol, in one stamp mode, as a [`Model`]; see the [module
/// docs](self) for the exact claims one exploration proves.
#[derive(Debug, Clone, Copy)]
pub struct EngineModel {
    /// Workload shape and sabotage knob.
    pub cfg: EngineConfig,
}

fn decode(bytes: &[u8], what: &str) -> Result<CausalState, String> {
    match CausalState::read_bytes(bytes) {
        Some((st, used)) if used == bytes.len() => Ok(st),
        Some((_, used)) => Err(format!(
            "{what}: persisted image decoded with {} trailing byte(s)",
            bytes.len() - used
        )),
        None => Err(format!("{what}: persisted image failed to decode")),
    }
}

/// A deliberately *wrong* §4.2 delivery predicate, for the sabotage leg:
/// the FIFO clause is weakened off-by-one (`== DELIV + 1` becomes
/// `>= DELIV + 1`), admitting a message from `from` before its
/// predecessor on the same link. The causal-order oracle must catch it.
fn can_deliver_weakened(st: &CausalState, from: DomainServerId, pending: &PendingStamp) -> bool {
    let me = st.me().as_usize();
    let f = from.as_usize();
    if pending.counter() < st.delivered_from(from).saturating_add(1) {
        return false;
    }
    let delivered =
        |k: usize| st.delivered_from(DomainServerId::new(u16::try_from(k).unwrap_or(u16::MAX)));
    // The rest of the column, in whichever form the pending carries it.
    match pending.matrix() {
        Some(m) => (0..st.n()).all(|k| k == f || m.get(k, me) <= delivered(k)),
        None => pending.entries().all(|e| {
            let k = usize::from(e.row);
            usize::from(e.col) != me || k == f || e.value <= delivered(k)
        }),
    }
}

fn encode(st: &CausalState) -> Vec<u8> {
    let mut out = Vec::new();
    st.write_bytes(&mut out);
    out
}

impl EngineModel {
    fn dest(&self, sender: u16) -> u16 {
        (sender + 1) % self.cfg.n
    }

    fn sender_of(&self, id: u16) -> u16 {
        id / u16::from(self.cfg.msgs_per_sender)
    }

    /// `sender` stamps and enqueues its next message (both engines).
    fn do_send(&self, s: &EngineNet, sender: usize) -> Result<EngineNet, String> {
        let mut n = s.clone();
        let to = DomainServerId::new(self.dest(sender as u16));
        let mut real = decode(&n.servers[sender], "sender (real)")?;
        let stamp = real.stamp_send(to, Batching::Grouped);
        let shadow_stamp = if n.shadows.is_empty() {
            None
        } else {
            let mut sh = decode(&n.shadows[sender], "sender (shadow)")?;
            let st = sh.stamp_send(to, Batching::Grouped);
            if st.is_group_next() != stamp.is_group_next() {
                return Err(format!(
                    "group-continuation divergence in mode {}: engine emitted {} where the \
                     full-matrix reference emitted {}",
                    self.cfg.mode,
                    stamp.kind(),
                    st.kind()
                ));
            }
            if sh.transcript() != real.transcript() {
                return Err(format!(
                    "transcript divergence after send in mode {} at s{sender}",
                    self.cfg.mode
                ));
            }
            n.shadows[sender] = encode(&sh);
            Some(st)
        };
        let sent_so_far = self.cfg.msgs_per_sender - n.to_send[sender];
        let id = sender as u16 * u16::from(self.cfg.msgs_per_sender) + u16::from(sent_so_far);
        let deps = n.known[sender].clone();
        n.known[sender].insert(id);
        n.to_send[sender] -= 1;
        n.links[sender].push(InFlight {
            id,
            deps,
            stamp,
            shadow_stamp,
        });
        n.servers[sender] = encode(&real);
        Ok(n)
    }

    /// The head of `sender`'s FIFO link arrives at its destination.
    fn do_arrive(&self, s: &EngineNet, sender: usize) -> Result<EngineNet, String> {
        let mut n = s.clone();
        let msg = n.links[sender].remove(0);
        let to = self.dest(sender as u16) as usize;
        let from = DomainServerId::new(sender as u16);
        let mut real = decode(&n.servers[to], "receiver (real)")?;
        let pending = real.on_frame(from, msg.stamp);
        let shadow_pending = match msg.shadow_stamp {
            None => None,
            Some(st) => {
                let mut sh = decode(&n.shadows[to], "receiver (shadow)")?;
                let p = sh.on_frame(from, st);
                // The §4.2 predicate reads the link counter and the
                // receiver's column. A sparse pending carries only this
                // frame's part of that column: each such entry must be
                // the very cell the full matrix ships (a continuation
                // carries none in either engine), and the counters must
                // agree. That the part is *enough* is the delivery-decision
                // check in `successors`, made in every explored state.
                let carried = pending
                    .entries()
                    .filter(|e| usize::from(e.col) == to)
                    .map(|e| (usize::from(e.row), e.value));
                for (k, value) in carried.chain([(sender, pending.counter())]) {
                    let reference = match p.matrix() {
                        Some(m) => Some(m.get(k, to)),
                        None => (k == sender).then(|| p.counter()),
                    };
                    if reference != Some(value) {
                        return Err(format!(
                            "stamp-reconstruction divergence in mode {} for m{} at s{to}: \
                             predicate cell ({k}, {to}) is {value} but the full-matrix reference \
                             says {reference:?}",
                            self.cfg.mode, msg.id,
                        ));
                    }
                }
                n.shadows[to] = encode(&sh);
                Some(p)
            }
        };
        n.pending[to].push(Arrived {
            id: msg.id,
            deps: msg.deps,
            pending,
            shadow_pending,
        });
        n.servers[to] = encode(&real);
        Ok(n)
    }

    /// Delivers pending entry `i` at receiver `r`. `real_ok` is the real
    /// predicate's verdict, pre-computed by the caller (the decision to
    /// *attempt* delivery may come from the weakened sabotage predicate).
    fn do_deliver(
        &self,
        s: &EngineNet,
        r: usize,
        i: usize,
        real_ok: bool,
    ) -> Result<EngineNet, String> {
        let mut n = s.clone();
        let a = n.pending[r].remove(i);
        let from = DomainServerId::new(self.sender_of(a.id));
        // Ground truth first: every causal predecessor destined here must
        // already be delivered here. This is the oracle the predicate is
        // judged against — independent of any engine.
        for d in &a.deps {
            if self.dest(self.sender_of(*d)) as usize == r && !n.delivered[r].contains(d) {
                return Err(format!(
                    "causal-order violation in mode {}: m{} delivered at s{r} before its \
                     causal predecessor m{d}",
                    self.cfg.mode, a.id
                ));
            }
        }
        if !real_ok {
            // Only reachable with the weakened predicate; the ground
            // truth above passing while the real §4.2 predicate refuses
            // would be a completeness bug in the predicate itself.
            return Err(format!(
                "delivery predicate rejects a causally-safe message: m{} at s{r} in mode {}",
                a.id, self.cfg.mode
            ));
        }
        let mut real = decode(&n.servers[r], "receiver (real)")?;
        real.deliver(from, &a.pending);
        if real.can_deliver(from, &a.pending) {
            return Err(format!(
                "duplicate delivery admitted in mode {}: m{} still deliverable at s{r} right \
                 after being delivered",
                self.cfg.mode, a.id
            ));
        }
        if let Some(sp) = &a.shadow_pending {
            let mut sh = decode(&n.shadows[r], "receiver (shadow)")?;
            sh.deliver(from, sp);
            if sh.transcript() != real.transcript() {
                return Err(format!(
                    "transcript divergence after delivering m{} at s{r} in mode {}",
                    a.id, self.cfg.mode
                ));
            }
            n.shadows[r] = encode(&sh);
        }
        if !n.delivered[r].insert(a.id) {
            return Err(format!(
                "exactly-once violated: m{} delivered twice at s{r}",
                a.id
            ));
        }
        n.known[r].insert(a.id);
        n.known[r].extend(a.deps.iter().copied());
        n.servers[r] = encode(&real);
        Ok(n)
    }
}

impl Model for EngineModel {
    type State = EngineNet;

    fn initial(&self) -> EngineNet {
        let n = self.cfg.n as usize;
        let servers = (0..n)
            .map(|i| {
                encode(&CausalState::new(
                    DomainServerId::new(i as u16),
                    n,
                    self.cfg.mode,
                ))
            })
            .collect();
        let shadows = if self.cfg.mode == StampMode::Full {
            Vec::new()
        } else {
            (0..n)
                .map(|i| {
                    encode(&CausalState::new(
                        DomainServerId::new(i as u16),
                        n,
                        StampMode::Full,
                    ))
                })
                .collect()
        };
        EngineNet {
            servers,
            shadows,
            to_send: vec![self.cfg.msgs_per_sender; n],
            links: vec![Vec::new(); n],
            pending: vec![Vec::new(); n],
            known: vec![BTreeSet::new(); n],
            delivered: vec![BTreeSet::new(); n],
        }
    }

    fn successors(&self, s: &EngineNet) -> Vec<(String, Result<EngineNet, String>)> {
        let n = self.cfg.n as usize;
        let mut out: Vec<(String, Result<EngineNet, String>)> = Vec::new();
        for sender in 0..n {
            if s.to_send[sender] > 0 {
                let seq = self.cfg.msgs_per_sender - s.to_send[sender];
                let id = sender as u16 * u16::from(self.cfg.msgs_per_sender) + u16::from(seq);
                out.push((
                    format!("send m{id}: s{sender} -> s{}", self.dest(sender as u16)),
                    self.do_send(s, sender),
                ));
            }
            if let Some(head) = s.links[sender].first() {
                out.push((
                    format!("arrive m{}: at s{}", head.id, self.dest(sender as u16)),
                    self.do_arrive(s, sender),
                ));
            }
        }
        for r in 0..n {
            if s.pending[r].is_empty() {
                continue;
            }
            let real = match decode(&s.servers[r], "receiver (real)") {
                Ok(st) => st,
                Err(e) => {
                    out.push((format!("judge pending at s{r}"), Err(e)));
                    continue;
                }
            };
            let shadow = if s.shadows.is_empty() {
                None
            } else {
                match decode(&s.shadows[r], "receiver (shadow)") {
                    Ok(st) => Some(st),
                    Err(e) => {
                        out.push((format!("judge pending at s{r}"), Err(e)));
                        continue;
                    }
                }
            };
            for (i, a) in s.pending[r].iter().enumerate() {
                let from = DomainServerId::new(self.sender_of(a.id));
                let real_ok = real.can_deliver(from, &a.pending);
                if let (Some(sh), Some(sp)) = (&shadow, &a.shadow_pending) {
                    let shadow_ok = sh.can_deliver(from, sp);
                    if shadow_ok != real_ok {
                        out.push((
                            format!("judge m{} at s{r}", a.id),
                            Err(format!(
                                "delivery-decision divergence in mode {}: m{} at s{r} is \
                                 {}deliverable but the full-matrix reference says {}deliverable",
                                self.cfg.mode,
                                a.id,
                                if real_ok { "" } else { "not " },
                                if shadow_ok { "" } else { "not " },
                            )),
                        ));
                        continue;
                    }
                }
                let decision = if self.cfg.weaken_can_deliver {
                    can_deliver_weakened(&real, from, &a.pending)
                } else {
                    real_ok
                };
                if decision {
                    out.push((
                        format!("deliver m{} at s{r}", a.id),
                        self.do_deliver(s, r, i, real_ok),
                    ));
                }
            }
        }
        out
    }

    fn invariant(&self, s: &EngineNet) -> Result<(), String> {
        // Crash anywhere: every persisted image must decode fully and
        // re-encode byte-identically, in both engines — recovery is the
        // identity on reachable states.
        for (which, images, mode) in [
            ("real", &s.servers, self.cfg.mode),
            ("shadow", &s.shadows, StampMode::Full),
        ] {
            for (i, img) in images.iter().enumerate() {
                let st = decode(img, &format!("s{i} ({which})"))?;
                if st.mode() != mode {
                    return Err(format!(
                        "s{i} ({which}): image decoded to mode {} instead of {mode}",
                        st.mode()
                    ));
                }
                if encode(&st) != *img {
                    return Err(format!(
                        "s{i} ({which}): recovery round-trip is not byte-identical"
                    ));
                }
            }
        }
        Ok(())
    }

    fn terminal(&self, s: &EngineNet) -> Result<(), String> {
        for (r, p) in s.pending.iter().enumerate() {
            if !p.is_empty() {
                let ids: Vec<u16> = p.iter().map(|a| a.id).collect();
                return Err(format!(
                    "permanent postponement in mode {}: {ids:?} stuck at s{r} with no \
                     transition enabled",
                    self.cfg.mode
                ));
            }
        }
        for (r, d) in s.delivered.iter().enumerate() {
            let expect = usize::from(self.cfg.msgs_per_sender);
            if d.len() != expect {
                return Err(format!(
                    "s{r} quiesced with {} of {expect} deliveries in mode {}",
                    d.len(),
                    self.cfg.mode
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{explore, Options};

    #[test]
    fn ci_shape_is_sound_in_every_mode() {
        for mode in StampMode::ALL {
            let m = EngineModel {
                cfg: EngineConfig::ci(mode),
            };
            let ex = explore(&m, Options::default()).unwrap_or_else(|v| panic!("{mode}: {v}"));
            assert!(!ex.truncated, "{mode}: CI workload must stay exhaustive");
            assert!(ex.states > 100, "{mode}: suspiciously small: {}", ex.states);
        }
    }

    #[test]
    fn weakened_predicate_is_caught() {
        for mode in StampMode::ALL {
            let mut cfg = EngineConfig::ci(mode);
            cfg.weaken_can_deliver = true;
            let v = explore(&EngineModel { cfg }, Options::default())
                .expect_err("off-by-one delivery predicate must violate causal order");
            assert!(v.message.contains("causal-order violation"), "{mode}: {v}");
            assert!(!v.trace.is_empty(), "violation carries its trace");
        }
    }
}
