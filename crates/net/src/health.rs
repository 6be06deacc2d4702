//! Peer failure detection for self-healing runtimes.
//!
//! The paper's AAA channel assumes live causal routers; a real deployment
//! sees peers crash and come back. [`PeerHealth`] is a tiny, lock-free
//! failure detector every transport endpoint can own: consecutive send
//! failures walk a peer [`PeerState::Up`] → [`PeerState::Suspect`] →
//! [`PeerState::Down`], one successful send snaps it back to `Up`. The
//! live runtime consults [`PeerHealth::state`] to stop hot-looping
//! retransmissions into a dead peer (it keeps sending low-rate probes so
//! recovery is noticed).
//!
//! Metric vocabulary (optional, minted by [`PeerHealth::attach_meter`] for
//! the peers the endpoint exchanges frames with;
//! every sample carries `peer="<id>"` beside the meter's base labels):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `aaa_net_peer_state` | gauge | 0=down, 1=suspect, 2=up |
//! | `aaa_net_peer_recoveries_total` | counter | down→up transitions observed |

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use aaa_base::ServerId;
use aaa_obs::{Counter, Gauge, Meter};

/// Consecutive failures after which a peer becomes [`PeerState::Suspect`].
pub const SUSPECT_AFTER: u32 = 1;
/// Consecutive failures after which a peer becomes [`PeerState::Down`].
pub const DOWN_AFTER: u32 = 3;

/// Liveness verdict for one peer, as seen from one endpoint.
///
/// The numeric values are the ones exported on the `aaa_net_peer_state`
/// gauge, chosen so "bigger is healthier".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PeerState {
    /// Three or more consecutive send failures: treat as crashed. The
    /// runtime suppresses routine (re)transmissions and only probes.
    Down = 0,
    /// At least one recent send failure; keep transmitting normally.
    Suspect = 1,
    /// No recent failures (the initial state).
    Up = 2,
}

impl PeerState {
    fn from_u8(v: u8) -> PeerState {
        match v {
            0 => PeerState::Down,
            1 => PeerState::Suspect,
            _ => PeerState::Up,
        }
    }
}

#[derive(Debug, Default)]
struct PeerSlot {
    /// Encoded [`PeerState`]; `2` (up) initially.
    state: AtomicU8,
    /// Consecutive failure count since the last success.
    failures: AtomicU32,
}

/// The series of one metered peer.
struct PeerInstruments {
    peer: ServerId,
    state: Gauge,
    recoveries: Counter,
}

impl std::fmt::Debug for PeerInstruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerInstruments")
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

/// Lock-free per-peer failure detector (see the [module docs](self)).
///
/// All transitions are driven by the owner reporting send outcomes via
/// [`PeerHealth::on_success`] / [`PeerHealth::on_failure`]; reads via
/// [`PeerHealth::state`] are a single relaxed atomic load.
#[derive(Debug)]
pub struct PeerHealth {
    slots: Vec<PeerSlot>,
    /// The metered peers, sorted by id.
    instruments: Vec<PeerInstruments>,
}

impl PeerHealth {
    /// A detector tracking `peers` servers, all initially [`PeerState::Up`].
    #[must_use]
    pub fn new(peers: usize) -> Self {
        let slots = (0..peers)
            .map(|_| PeerSlot {
                state: AtomicU8::new(PeerState::Up as u8),
                failures: AtomicU32::new(0),
            })
            .collect();
        PeerHealth {
            slots,
            instruments: Vec::new(),
        }
    }

    /// Number of peers tracked.
    #[must_use]
    pub fn peers(&self) -> usize {
        self.slots.len()
    }

    /// Mints the `aaa_net_peer_state` / `aaa_net_peer_recoveries_total`
    /// instruments on `meter` — one labelled series per peer in `peers`,
    /// the servers this endpoint exchanges frames with, not every server
    /// it tracks — and starts updating them.
    pub fn attach_meter(&mut self, meter: &Meter, peers: &[ServerId]) {
        let mut peers = peers.to_vec();
        peers.sort_unstable();
        peers.dedup();
        self.instruments = peers
            .into_iter()
            .filter_map(|peer| {
                let slot = self.slots.get(peer.as_usize())?;
                let label = peer.as_usize().to_string();
                let state = meter.with_label("peer", label.clone()).gauge(
                    "aaa_net_peer_state",
                    "Failure-detector verdict per peer (0=down, 1=suspect, 2=up)",
                );
                state.set(i64::from(slot.state.load(Ordering::Relaxed)));
                let recoveries = meter.counter_with(
                    "aaa_net_peer_recoveries_total",
                    "Peer transitions from down back to up",
                    &[("peer", label)],
                );
                Some(PeerInstruments {
                    peer,
                    state,
                    recoveries,
                })
            })
            .collect();
    }

    /// The series of `peer`, if it is metered.
    fn instruments(&self, peer: ServerId) -> Option<&PeerInstruments> {
        let at = self
            .instruments
            .binary_search_by_key(&peer, |ins| ins.peer)
            .ok()?;
        self.instruments.get(at)
    }

    /// Current verdict for `peer`. Unknown peers read as [`PeerState::Up`]
    /// (the detector never blocks traffic it knows nothing about).
    #[must_use]
    pub fn state(&self, peer: ServerId) -> PeerState {
        self.slots.get(peer.as_usize()).map_or(PeerState::Up, |s| {
            PeerState::from_u8(s.state.load(Ordering::Relaxed))
        })
    }

    /// Records a successful send to `peer`: resets the failure streak and
    /// snaps the verdict back to [`PeerState::Up`] (counting a recovery if
    /// the peer was [`PeerState::Down`]).
    pub fn on_success(&self, peer: ServerId) {
        let Some(slot) = self.slots.get(peer.as_usize()) else {
            return;
        };
        slot.failures.store(0, Ordering::Relaxed);
        // Single-writer: only the thread driving sends to `peer` mutates
        // this slot (per-link FIFO pins a peer's traffic to one socket
        // writer); other threads only read an advisory verdict, so no
        // ordering-based publication is needed.
        // audit:allow(atomic-protocol)
        let prev = slot.state.swap(PeerState::Up as u8, Ordering::Relaxed);
        if prev != PeerState::Up as u8 {
            self.export_state(peer, PeerState::Up);
            if prev == PeerState::Down as u8 {
                if let Some(ins) = self.instruments(peer) {
                    ins.recoveries.inc();
                }
            }
        }
    }

    /// Records a failed send to `peer`: bumps the consecutive-failure
    /// streak and degrades the verdict (`Up` → `Suspect` at
    /// [`SUSPECT_AFTER`], → `Down` at [`DOWN_AFTER`]). Returns the new
    /// verdict.
    pub fn on_failure(&self, peer: ServerId) -> PeerState {
        let Some(slot) = self.slots.get(peer.as_usize()) else {
            return PeerState::Up;
        };
        let streak = slot
            .failures
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        let next = if streak >= DOWN_AFTER {
            PeerState::Down
        } else if streak >= SUSPECT_AFTER {
            PeerState::Suspect
        } else {
            PeerState::Up
        };
        // Single-writer, as in on_success: the failure streak and verdict
        // for a peer are only written by that peer's sending thread; the
        // verdict is advisory for readers.
        // audit:allow(atomic-protocol)
        let prev = slot.state.swap(next as u8, Ordering::Relaxed);
        if prev != next as u8 {
            self.export_state(peer, next);
        }
        next
    }

    fn export_state(&self, peer: ServerId, state: PeerState) {
        if let Some(ins) = self.instruments(peer) {
            ins.state.set(i64::from(state as u8));
        }
    }
}

/// Deterministic backoff schedule for retries (the relay's redelivery
/// timer in `aaa-mom` paces itself with it): capped exponential with a
/// small deterministic "jitter" derived from `(me, to, attempt)` — no
/// wall clock, no OS entropy, so chaos tests replay identically.
///
/// `attempt` is 1-based (the first *retry* is attempt 1). Returns the
/// number of milliseconds to wait before that retry.
#[must_use]
pub fn retry_backoff_ms(me: ServerId, to: ServerId, attempt: u32) -> u64 {
    const BASE_MS: u64 = 5;
    const CAP_MS: u64 = 40;
    let exp = attempt.saturating_sub(1).min(8);
    let base = BASE_MS.saturating_mul(1_u64 << exp).min(CAP_MS);
    // SplitMix64-style avalanche of the (me, to, attempt) triple.
    let mut z = (me.as_usize() as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(to.as_usize() as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(u64::from(attempt));
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    base + z % (base / 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_obs::Registry;

    #[test]
    fn transitions_up_suspect_down_and_back() {
        let h = PeerHealth::new(2);
        let p = ServerId::new(1);
        assert_eq!(h.state(p), PeerState::Up);
        assert_eq!(h.on_failure(p), PeerState::Suspect);
        assert_eq!(h.on_failure(p), PeerState::Suspect);
        assert_eq!(h.on_failure(p), PeerState::Down);
        assert_eq!(h.state(p), PeerState::Down);
        // Other peers are unaffected.
        assert_eq!(h.state(ServerId::new(0)), PeerState::Up);
        h.on_success(p);
        assert_eq!(h.state(p), PeerState::Up);
    }

    #[test]
    fn metrics_track_state_and_recoveries() {
        let registry = Registry::new();
        let meter = Meter::new(&registry).with_label("server", "0");
        let mut h = PeerHealth::new(2);
        h.attach_meter(&meter, &[ServerId::new(0), ServerId::new(1)]);
        let p = ServerId::new(1);
        let labels = [("server", "0"), ("peer", "1")];
        assert_eq!(
            registry.snapshot().gauge("aaa_net_peer_state", &labels),
            Some(2)
        );
        for _ in 0..3 {
            h.on_failure(p);
        }
        assert_eq!(
            registry.snapshot().gauge("aaa_net_peer_state", &labels),
            Some(0)
        );
        h.on_success(p);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("aaa_net_peer_state", &labels), Some(2));
        assert_eq!(
            snap.counter("aaa_net_peer_recoveries_total", &labels),
            Some(1)
        );
    }

    #[test]
    fn unknown_peers_are_up_and_ignored() {
        let h = PeerHealth::new(1);
        let ghost = ServerId::new(9);
        assert_eq!(h.state(ghost), PeerState::Up);
        assert_eq!(h.on_failure(ghost), PeerState::Up);
        h.on_success(ghost);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let a = ServerId::new(0);
        let b = ServerId::new(1);
        for attempt in 1..10 {
            assert_eq!(
                retry_backoff_ms(a, b, attempt),
                retry_backoff_ms(a, b, attempt),
                "same inputs, same backoff"
            );
            // base ≤ 40, jitter ≤ base/2 → hard ceiling of 60 ms.
            assert!(retry_backoff_ms(a, b, attempt) <= 60);
        }
        assert!(retry_backoff_ms(a, b, 1) < retry_backoff_ms(a, b, 4));
    }
}
