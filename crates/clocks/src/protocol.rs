//! The matrix-clock causal delivery protocol used by every AAA channel.
//!
//! This is the per-domain protocol of the paper (§3, §5, Appendix A), in the
//! style of Raynal–Schiper–Toueg (the paper's reference 12):
//!
//! - each server `i` keeps `SENT` (an `n × n` [`MatrixClock`]: messages sent
//!   `k → l` that `i` knows of) and `DELIV` (a vector: messages from `k`
//!   delivered at `i`);
//! - **send `i → j`**: increment `SENT[i][j]`, piggyback the matrix (whole,
//!   as Update deltas, or in a bounded-space encoding);
//! - **deliverable at `j`** (message from `i` with reconstructed stamp
//!   `ST`): `ST[i][j] == DELIV[i] + 1` and `ST[k][j] <= DELIV[k]` for all
//!   `k != i` — `j` must already have delivered every message *destined to
//!   `j`* that the sender knew about;
//! - **deliver at `j`**: `DELIV[i] += 1` and `SENT := max(SENT, ST)`.
//!
//! Messages that fail the check wait in the channel's postponed queue and
//! are re-examined after each delivery (the queue lives in `aaa-mom`; this
//! crate only provides the predicates and state).
//!
//! [`CausalState`] is a thin dispatcher over the pluggable
//! [`ClockEngine`]s in [`crate::engines`], selected by [`StampMode`]:
//! full matrices, Appendix-A deltas, Drummond–Barbosa reduced stamps, or
//! Almeida-style hybrid buffering. All engines are observationally
//! equivalent — property and conformance tests in this crate's test suite
//! drive random schedules through every mode and compare each decision.

use aaa_base::DomainServerId;
use serde::{Deserialize, Serialize};

use crate::engine::{Batching, ClockEngine, EngineCore};
use crate::engines::{FullEngine, HybridEngine, ReducedEngine, UpdatesEngine};
use crate::matrix::MatrixClock;
use crate::stamp::{Stamp, StampMode};

/// A message's causal stamp, reconstructed on the receiving side.
///
/// In [`StampMode::Full`] this is the matrix shipped with the message; in
/// every other mode it is the receiver's image of the sender's matrix at
/// the instant the frame arrived. Either way it is exactly the sender's
/// `SENT` matrix when the message was sent.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PendingStamp {
    matrix: MatrixClock,
}

impl PendingStamp {
    /// The reconstructed sender matrix.
    pub fn matrix(&self) -> &MatrixClock {
        &self.matrix
    }

    /// Rebuilds a pending stamp from a persisted matrix image (recovery).
    pub fn from_matrix(matrix: MatrixClock) -> Self {
        PendingStamp { matrix }
    }
}

/// The engine behind one [`CausalState`], one variant per [`StampMode`].
///
/// Enum dispatch (rather than `Box<dyn ClockEngine>`) keeps `CausalState`
/// `Clone + PartialEq + Serialize` and the per-call overhead at one match.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum EngineKind {
    Full(FullEngine),
    Updates(UpdatesEngine),
    Reduced(ReducedEngine),
    Hybrid(HybridEngine),
}

macro_rules! dispatch {
    ($self:expr, $e:ident => $body:expr) => {
        match &$self.engine {
            EngineKind::Full($e) => $body,
            EngineKind::Updates($e) => $body,
            EngineKind::Reduced($e) => $body,
            EngineKind::Hybrid($e) => $body,
        }
    };
}

macro_rules! dispatch_mut {
    ($self:expr, $e:ident => $body:expr) => {
        match &mut $self.engine {
            EngineKind::Full($e) => $body,
            EngineKind::Updates($e) => $body,
            EngineKind::Reduced($e) => $body,
            EngineKind::Hybrid($e) => $body,
        }
    };
}

/// An observable snapshot of the protocol-relevant engine state: the
/// local `SENT` matrix and the per-sender delivery counters.
///
/// Every [`ClockEngine`] must agree on this projection after every
/// protocol step — it is what "observationally equivalent" means. The
/// `aaa-audit` model checker captures transcripts from each bounded
/// engine and from a lock-stepped [`FullEngine`] reference and asserts
/// equality in every reachable interleaving.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EngineTranscript {
    /// The local `SENT` matrix.
    pub sent: MatrixClock,
    /// Messages delivered here so far, indexed by sender.
    pub deliv: Vec<u64>,
}

/// Per-domain causal delivery state of one server.
///
/// See the [module documentation](self) for the protocol. One `CausalState`
/// exists per `DomainItem` on every server; causal router-servers therefore
/// hold several, one per domain they belong to (§5). The heavy lifting is
/// done by the [`ClockEngine`] selected at construction; this type is the
/// stable workspace-facing facade.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalState {
    engine: EngineKind,
}

impl CausalState {
    /// Creates the causal state of server `me` in a domain of `n` servers,
    /// running the engine selected by `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `me` is out of range.
    pub fn new(me: DomainServerId, n: usize, mode: StampMode) -> Self {
        let engine = match mode {
            StampMode::Full => EngineKind::Full(FullEngine::new(me, n)),
            StampMode::Updates => EngineKind::Updates(UpdatesEngine::new(me, n)),
            StampMode::Reduced => EngineKind::Reduced(ReducedEngine::new(me, n)),
            StampMode::Hybrid => EngineKind::Hybrid(HybridEngine::new(me, n)),
        };
        CausalState { engine }
    }

    /// This server's identifier within the domain.
    pub fn me(&self) -> DomainServerId {
        dispatch!(self, e => e.me())
    }

    /// Number of servers in the domain.
    pub fn n(&self) -> usize {
        dispatch!(self, e => e.n())
    }

    /// The stamp encoding mode.
    pub fn mode(&self) -> StampMode {
        dispatch!(self, e => e.mode())
    }

    /// The local `SENT` matrix.
    pub fn sent(&self) -> &MatrixClock {
        dispatch!(self, e => e.sent())
    }

    /// Messages from `from` delivered here so far.
    pub fn delivered_from(&self, from: DomainServerId) -> u64 {
        dispatch!(self, e => e.delivered_from(from))
    }

    /// Total messages delivered here so far.
    pub fn delivered_total(&self) -> u64 {
        dispatch!(self, e => e.delivered_total())
    }

    /// Stamps a message about to be sent to `to` and updates the local
    /// state. Must be called exactly once per message, in send order.
    ///
    /// With [`Batching::Grouped`] the engine may emit the zero-byte
    /// [`Stamp::GroupNext`] continuation when this send is part of a batch
    /// and nothing else changed since the previous send to the same peer;
    /// it falls back to a real stamp otherwise, so batched callers pass
    /// `Grouped` unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `to` is this server or out of range.
    pub fn stamp_send(&mut self, to: DomainServerId, batching: Batching) -> Stamp {
        dispatch_mut!(self, e => e.stamp_send(to, batching))
    }

    /// Ingests a frame arriving from `from` (in link order) and returns the
    /// message's reconstructed stamp. Must be called exactly once per frame,
    /// in arrival order — the reliable link layer guarantees FIFO, which
    /// every incremental reconstruction relies on.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, or if the stamp kind does not match
    /// the configured [`StampMode`].
    pub fn on_frame(&mut self, from: DomainServerId, stamp: Stamp) -> PendingStamp {
        dispatch_mut!(self, e => e.on_frame(from, stamp))
    }

    /// Returns `true` if a message from `from` with stamp `pending` may be
    /// delivered now without violating causal order.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn can_deliver(&self, from: DomainServerId, pending: &PendingStamp) -> bool {
        dispatch!(self, e => e.can_deliver(from, pending))
    }

    /// Captures the protocol-relevant state projection every engine must
    /// agree on: the `SENT` matrix plus the per-sender delivery counters.
    /// Used by the `aaa-audit` model checker for lock-step equivalence
    /// against the [`FullEngine`] reference.
    pub fn transcript(&self) -> EngineTranscript {
        let deliv = (0..self.n())
            .map(|k| {
                let kid = DomainServerId::new(u16::try_from(k).unwrap_or(u16::MAX));
                self.delivered_from(kid)
            })
            .collect();
        EngineTranscript {
            sent: self.sent().clone(),
            deliv,
        }
    }

    /// Records delivery of a message from `from` with stamp `pending`,
    /// merging the sender's knowledge into the local matrix.
    ///
    /// # Panics
    ///
    /// Panics if the message is not currently deliverable; call
    /// [`CausalState::can_deliver`] first.
    pub fn deliver(&mut self, from: DomainServerId, pending: &PendingStamp) {
        dispatch_mut!(self, e => e.deliver(from, pending))
    }

    /// Appends a self-describing binary image of the whole causal state to
    /// `out`, suitable for crash-recovery journaling.
    ///
    /// The image includes every engine's bookkeeping (entry states,
    /// per-peer send states, per-peer sender images, and the hybrid
    /// engine's knowledge model), so a recovered server resumes its
    /// protocol — including a mid-batch [`Stamp::GroupNext`] group —
    /// exactly where it crashed.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        dispatch!(self, e => e.write_bytes(out))
    }

    /// Reads an image written by [`CausalState::write_bytes`] from the
    /// front of `input`, returning the state and the bytes consumed.
    ///
    /// Returns `None` on truncated or invalid input.
    pub fn read_bytes(input: &[u8]) -> Option<(CausalState, usize)> {
        let (core, mode_byte, used) = EngineCore::read_bytes(input)?;
        let (engine, used) = match mode_byte {
            0 => (EngineKind::Full(FullEngine::from_core(core)), used),
            1 => (EngineKind::Updates(UpdatesEngine::from_core(core)), used),
            2 => (EngineKind::Reduced(ReducedEngine::from_core(core)), used),
            3 => {
                let (engine, tail) = HybridEngine::read_tail(core, &input[used..])?;
                (EngineKind::Hybrid(engine), used + tail)
            }
            _ => return None,
        };
        Some((CausalState { engine }, used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::UpdateEntry;

    fn d(i: u16) -> DomainServerId {
        DomainServerId::new(i)
    }

    fn pair(mode: StampMode) -> (CausalState, CausalState) {
        (
            CausalState::new(d(0), 2, mode),
            CausalState::new(d(1), 2, mode),
        )
    }

    fn single(c: &mut CausalState, to: DomainServerId) -> Stamp {
        c.stamp_send(to, Batching::Single)
    }

    fn grouped(c: &mut CausalState, to: DomainServerId) -> Stamp {
        c.stamp_send(to, Batching::Grouped)
    }

    #[test]
    fn simple_send_deliver_full() {
        let (mut a, mut b) = pair(StampMode::Full);
        let s = single(&mut a, d(1));
        let p = b.on_frame(d(0), s);
        assert!(b.can_deliver(d(0), &p));
        b.deliver(d(0), &p);
        assert_eq!(b.delivered_from(d(0)), 1);
        assert_eq!(b.sent().get(0, 1), 1);
    }

    #[test]
    fn simple_send_deliver_updates() {
        let (mut a, mut b) = pair(StampMode::Updates);
        let s = single(&mut a, d(1));
        assert!(s.is_delta());
        let p = b.on_frame(d(0), s);
        assert!(b.can_deliver(d(0), &p));
        b.deliver(d(0), &p);
        assert_eq!(b.delivered_from(d(0)), 1);
    }

    #[test]
    fn simple_send_deliver_every_mode() {
        for mode in StampMode::ALL {
            let (mut a, mut b) = pair(mode);
            let s = single(&mut a, d(1));
            assert!(!s.is_group_next(), "{mode}");
            let p = b.on_frame(d(0), s);
            assert!(b.can_deliver(d(0), &p), "{mode}");
            b.deliver(d(0), &p);
            assert_eq!(b.delivered_from(d(0)), 1, "{mode}");
            assert_eq!(b.mode(), mode);
        }
    }

    #[test]
    fn fifo_gap_is_postponed() {
        // a sends m1 then m2 to b; if m2's stamp is examined first it must
        // not be deliverable (its SENT[a][b] is 2, b expects 1).
        let (mut a, mut b) = pair(StampMode::Full);
        let s1 = single(&mut a, d(1));
        let s2 = single(&mut a, d(1));
        // Frames still arrive in FIFO order (on_frame), but the channel may
        // test deliverability in any order.
        let p1 = b.on_frame(d(0), s1);
        let p2 = b.on_frame(d(0), s2);
        assert!(!b.can_deliver(d(0), &p2));
        assert!(b.can_deliver(d(0), &p1));
        b.deliver(d(0), &p1);
        assert!(b.can_deliver(d(0), &p2));
        b.deliver(d(0), &p2);
    }

    #[test]
    fn transitive_three_servers() {
        // Classic triangle, in every mode: m_a: s0->s2 sent first,
        // m_b: s0->s1, then s1->s2. s2 must deliver m_a before m2 because
        // m_a precedes m_b (same sender order) and m_b precedes m2
        // (receive-then-send).
        for mode in StampMode::ALL {
            let mut s0 = CausalState::new(d(0), 3, mode);
            let mut s1 = CausalState::new(d(1), 3, mode);
            let mut s2 = CausalState::new(d(2), 3, mode);

            let st_a = single(&mut s0, d(2)); // m_a
            let st_b = single(&mut s0, d(1)); // m_b
            let p_b = s1.on_frame(d(0), st_b);
            assert!(s1.can_deliver(d(0), &p_b), "{mode}");
            s1.deliver(d(0), &p_b);
            let st_2 = single(&mut s1, d(2)); // m2, causally after m_a

            // m2 arrives at s2 before m_a: must wait.
            let p_2 = s2.on_frame(d(1), st_2);
            assert!(!s2.can_deliver(d(1), &p_2), "{mode}");
            let p_a = s2.on_frame(d(0), st_a);
            assert!(s2.can_deliver(d(0), &p_a), "{mode}");
            s2.deliver(d(0), &p_a);
            assert!(s2.can_deliver(d(1), &p_2), "{mode}");
            s2.deliver(d(1), &p_2);
            assert_eq!(s2.delivered_total(), 2, "{mode}");
        }
    }

    #[test]
    fn first_delta_carries_everything_later_deltas_shrink() {
        let mut a = CausalState::new(d(0), 4, StampMode::Updates);
        let s1 = single(&mut a, d(1));
        // First message to d1: one entry modified so far.
        assert_eq!(s1.entry_count(), 1);
        let s2 = single(&mut a, d(1));
        // Second message: only the (0,1) cell changed again.
        assert_eq!(s2.entry_count(), 1);
        // Send to a different peer: both prior modifications are news to d2.
        let s3 = single(&mut a, d(2));
        assert_eq!(s3.entry_count(), 2);
        // Now d1 already knows everything except the newest cells.
        let s4 = single(&mut a, d(1));
        // Changed since last send to d1: (0,2) from s3 and (0,1) from s4.
        assert_eq!(s4.entry_count(), 2);
    }

    #[test]
    fn delta_smaller_than_full_matrix() {
        let n = 20;
        let mut a = CausalState::new(d(0), n, StampMode::Updates);
        let mut b = CausalState::new(d(1), n, StampMode::Updates);
        let mut total_delta = 0usize;
        for _ in 0..50 {
            let s = single(&mut a, d(1));
            total_delta += s.encoded_len();
            let p = b.on_frame(d(0), s);
            b.deliver(d(0), &p);
        }
        let full = Stamp::Full(MatrixClock::new(n)).encoded_len() * 50;
        assert!(
            total_delta < full / 10,
            "deltas ({total_delta}B) should be far below full stamps ({full}B)"
        );
    }

    #[test]
    fn bounded_modes_smaller_than_full_matrix() {
        let n = 40;
        for mode in [StampMode::Reduced, StampMode::Hybrid] {
            let mut a = CausalState::new(d(0), n, mode);
            let mut b = CausalState::new(d(1), n, mode);
            let mut total = 0usize;
            for _ in 0..50 {
                let s = single(&mut a, d(1));
                total += s.encoded_len();
                let p = b.on_frame(d(0), s);
                b.deliver(d(0), &p);
            }
            let full = Stamp::Full(MatrixClock::new(n)).encoded_len() * 50;
            assert!(
                total * 10 < full,
                "{mode}: {total}B should be >=10x below full stamps ({full}B)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bypass the causal protocol")]
    fn self_send_rejected() {
        let mut a = CausalState::new(d(0), 2, StampMode::Full);
        let _ = a.stamp_send(d(0), Batching::Single);
    }

    #[test]
    #[should_panic(expected = "out of causal order")]
    fn deliver_out_of_order_panics() {
        let (mut a, mut b) = pair(StampMode::Full);
        let _s1 = single(&mut a, d(1));
        let s2 = single(&mut a, d(1));
        let p2 = b.on_frame(d(0), s2);
        b.deliver(d(0), &p2);
    }

    #[test]
    #[should_panic(expected = "does not match configured mode")]
    fn mode_mismatch_panics() {
        let (mut a, mut b) = pair(StampMode::Full);
        let _ = single(&mut a, d(1));
        let bogus = Stamp::Delta(Vec::new());
        let _ = b.on_frame(d(0), bogus);
    }

    #[test]
    #[should_panic(expected = "does not match configured mode")]
    fn reduced_stamp_rejected_by_updates_engine() {
        let mut b = CausalState::new(d(1), 2, StampMode::Updates);
        let bogus = Stamp::Reduced {
            row: vec![0; 2],
            col: vec![0; 2],
            extra: Vec::new(),
        };
        let _ = b.on_frame(d(0), bogus);
    }

    #[test]
    fn deprecated_batched_alias_still_groups() {
        let mut a = CausalState::new(d(0), 2, StampMode::Updates);
        #[allow(deprecated)]
        let first = a.stamp_send(d(1), Batching::Grouped);
        assert!(!first.is_group_next());
        #[allow(deprecated)]
        let second = a.stamp_send(d(1), Batching::Grouped);
        assert!(second.is_group_next());
    }

    #[test]
    fn causal_state_bytes_roundtrip() {
        // Build a state with non-trivial bookkeeping in every mode,
        // persist it, and check the recovered state behaves identically.
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            for _ in 0..3 {
                let s = single(&mut a, d(1));
                let p = b.on_frame(d(0), s);
                b.deliver(d(0), &p);
            }
            let _ = single(&mut a, d(2)); // leaves an in-flight stamp

            let mut buf = Vec::new();
            b.write_bytes(&mut buf);
            let (b2, used) = CausalState::read_bytes(&buf).expect("roundtrip");
            assert_eq!(used, buf.len(), "{mode}");
            assert_eq!(b2, b, "{mode}: persisted state must round-trip");

            // The recovered state keeps working: a's next stamp must still
            // reconstruct correctly against b2's persisted image of a.
            let mut b2 = b2;
            let s = single(&mut a, d(1));
            let p = b2.on_frame(d(0), s);
            assert!(b2.can_deliver(d(0), &p), "{mode}");
            b2.deliver(d(0), &p);
            assert_eq!(b2.delivered_from(d(0)), 4, "{mode}");
        }
    }

    #[test]
    fn causal_state_read_rejects_garbage() {
        assert!(CausalState::read_bytes(&[]).is_none());
        assert!(CausalState::read_bytes(&[1, 2, 3]).is_none());
        for mode in StampMode::ALL {
            let mut buf = Vec::new();
            CausalState::new(d(0), 2, mode).write_bytes(&mut buf);
            buf.truncate(buf.len() - 1);
            assert!(CausalState::read_bytes(&buf).is_none(), "{mode}");
        }
        // An unknown mode byte (offset 6: me u16 + n u32) must be rejected.
        let mut buf = Vec::new();
        CausalState::new(d(0), 2, StampMode::Full).write_bytes(&mut buf);
        buf[6] = 9;
        assert!(CausalState::read_bytes(&buf).is_none());
    }

    #[test]
    fn singleton_domain_is_valid_but_inert() {
        let s = CausalState::new(d(0), 1, StampMode::Full);
        assert_eq!(s.n(), 1);
        assert_eq!(s.delivered_total(), 0);
    }

    #[test]
    fn batched_first_send_is_never_a_continuation() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let s = grouped(&mut a, d(1));
            assert!(
                !s.is_group_next(),
                "{mode}: first frame must carry a real stamp"
            );
        }
    }

    #[test]
    fn batched_burst_collapses_to_continuations() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            let mut wire_bytes = 0usize;
            for i in 0..32 {
                let s = grouped(&mut a, d(1));
                assert_eq!(s.is_group_next(), i > 0, "mode {mode}, frame {i}");
                wire_bytes += s.encoded_len();
                let p = b.on_frame(d(0), s);
                assert!(b.can_deliver(d(0), &p));
                b.deliver(d(0), &p);
            }
            assert_eq!(b.delivered_from(d(0)), 32);
            assert_eq!(b.sent().get(0, 1), 32);
            // Only the first frame pays stamp bytes.
            let first = match mode {
                StampMode::Full => Stamp::Full(MatrixClock::new(3)).encoded_len(),
                StampMode::Updates | StampMode::Hybrid => 4 + UpdateEntry::WIRE_LEN,
                StampMode::Reduced => 4 + 2 * 3 * 8 + 4,
            };
            assert_eq!(wire_bytes, first, "{mode}");
        }
    }

    #[test]
    fn continuation_reconstructs_exact_stamp() {
        // Drive an identical schedule through Single (reference) and
        // Grouped batching, and check the reconstructed matrices agree.
        for mode in StampMode::ALL {
            let mut a_ref = CausalState::new(d(0), 2, mode);
            let mut b_ref = CausalState::new(d(1), 2, mode);
            let mut a = CausalState::new(d(0), 2, mode);
            let mut b = CausalState::new(d(1), 2, mode);
            for _ in 0..5 {
                let sr = single(&mut a_ref, d(1));
                let pr = b_ref.on_frame(d(0), sr);
                let s = grouped(&mut a, d(1));
                let p = b.on_frame(d(0), s);
                assert_eq!(p.matrix(), pr.matrix(), "{mode}");
                b_ref.deliver(d(0), &pr);
                b.deliver(d(0), &p);
            }
            assert_eq!(b.sent(), b_ref.sent(), "{mode}");
        }
    }

    #[test]
    fn intervening_traffic_breaks_the_group() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            let s1 = grouped(&mut a, d(1));
            assert!(!s1.is_group_next(), "{mode}");
            let s2 = grouped(&mut a, d(1));
            assert!(s2.is_group_next(), "{mode}");
            // A send to another peer changes the matrix: the next frame to
            // d1 must fall back to a real stamp that conveys it.
            let _ = grouped(&mut a, d(2));
            let s3 = grouped(&mut a, d(1));
            assert!(!s3.is_group_next(), "{mode}");
            for s in [s1, s2, s3] {
                let p = b.on_frame(d(0), s);
                assert!(b.can_deliver(d(0), &p), "{mode}");
                b.deliver(d(0), &p);
            }
            assert_eq!(b.sent().get(0, 1), 3, "{mode}");
            assert_eq!(b.sent().get(0, 2), 1, "{mode}");
        }
    }

    #[test]
    fn delivery_breaks_the_group() {
        for mode in StampMode::ALL {
            let (mut a, mut b) = pair(mode);
            let s1 = grouped(&mut a, d(1));
            let p1 = b.on_frame(d(0), s1);
            b.deliver(d(0), &p1);
            // b replies; a delivers — a's matrix changed, so a's next frame
            // to b must be a real stamp again.
            let r = grouped(&mut b, d(0));
            let pr = a.on_frame(d(1), r);
            a.deliver(d(1), &pr);
            let s2 = grouped(&mut a, d(1));
            assert!(!s2.is_group_next(), "{mode}");
            let p2 = b.on_frame(d(0), s2);
            assert!(b.can_deliver(d(0), &p2), "{mode}");
            b.deliver(d(0), &p2);
        }
    }

    #[test]
    fn images_survive_persistence_mid_group() {
        // A receiver's per-sender image (needed for GroupNext) must
        // round-trip through write_bytes/read_bytes mid-group, whatever
        // the engine.
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 2, mode);
            let mut b = CausalState::new(d(1), 2, mode);
            let s1 = grouped(&mut a, d(1));
            let p1 = b.on_frame(d(0), s1);
            b.deliver(d(0), &p1);

            let mut buf = Vec::new();
            b.write_bytes(&mut buf);
            let (mut b2, used) = CausalState::read_bytes(&buf).expect("roundtrip");
            assert_eq!(used, buf.len(), "{mode}");

            let s2 = grouped(&mut a, d(1));
            assert!(s2.is_group_next(), "{mode}");
            let p2 = b2.on_frame(d(0), s2);
            assert!(b2.can_deliver(d(0), &p2), "{mode}");
            b2.deliver(d(0), &p2);
            assert_eq!(b2.delivered_from(d(0)), 2, "{mode}");
        }
    }

    #[test]
    fn hybrid_sender_state_survives_persistence() {
        // The knowledge model is sender-side state: persist the *sender*
        // mid-conversation and check its next stamp is still both pruned
        // and sufficient.
        let mut a = CausalState::new(d(0), 3, StampMode::Hybrid);
        let mut b = CausalState::new(d(1), 3, StampMode::Hybrid);
        let s1 = a.stamp_send(d(1), Batching::Single);
        let p1 = b.on_frame(d(0), s1);
        b.deliver(d(0), &p1);
        let r1 = b.stamp_send(d(0), Batching::Single);
        let pr1 = a.on_frame(d(1), r1);
        a.deliver(d(1), &pr1);

        let mut buf = Vec::new();
        a.write_bytes(&mut buf);
        let (mut a2, used) = CausalState::read_bytes(&buf).expect("roundtrip");
        assert_eq!(used, buf.len());
        assert_eq!(a2, a);

        let s2 = a2.stamp_send(d(1), Batching::Single);
        // Steady-state echo ping: the recovered knowledge model still
        // prunes b's own row.
        assert_eq!(s2.entry_count(), 1, "recovered model must keep pruning");
        let p2 = b.on_frame(d(0), s2);
        assert!(b.can_deliver(d(0), &p2));
        b.deliver(d(0), &p2);
    }

    #[test]
    #[should_panic(expected = "no prior frame")]
    fn continuation_without_predecessor_panics() {
        let mut b = CausalState::new(d(1), 2, StampMode::Full);
        let _ = b.on_frame(d(0), Stamp::GroupNext);
    }
}
