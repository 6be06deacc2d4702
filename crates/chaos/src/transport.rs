//! A chaos [`Transport`] wrapper for the live runtime.
//!
//! [`FaultTransport`] composes over any inner transport (the in-memory
//! mesh, localhost TCP) and runs every outgoing packet through a shared
//! [`FaultInjector`]: packets are dropped, duplicated, held back and
//! re-offered out of order, or blocked by partition windows — exactly the
//! misbehaviour a causal middleware must survive. The wrapped transport's
//! own reliability machinery (link-layer retransmission, duplicate
//! suppression, reorder buffering) is what repairs the damage; the chaos
//! layer only creates it.
//!
//! A [`ChaosHandle`] stays with the test harness and steers the shared
//! injector at runtime: cut a link *now*, heal everything, read the
//! decision statistics. "Ticks" in this module are decision counts (one
//! per offered packet or batch), which makes partition windows meaningful
//! without any wall clock.
//!
//! Every wrapper also owns a [`PeerHealth`] failure detector fed by the
//! injector's verdicts — a blocked or failed send counts against the
//! peer, a delivered one heals it — so chaos tests observe the same
//! `aaa_net_peer_state` transitions a production outage would produce.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aaa_base::{Result, ServerId};
use aaa_net::health::{PeerHealth, PeerState};
use aaa_net::memory::Incoming;
use aaa_net::{ReadyNotifier, Transport};
use aaa_obs::Meter;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::plan::{FaultAction, FaultInjector, FaultPlan, FaultStats, LinkFaults, Partition};

/// Shared injector state behind a [`ChaosHandle`].
#[derive(Debug)]
struct ChaosState {
    injector: Mutex<FaultInjector>,
    /// Monotone decision counter; doubles as the partition-window clock.
    tick: AtomicU64,
}

/// A cloneable control handle over the chaos layer.
///
/// Create one per test, wrap every endpoint with
/// [`FaultTransport::new`] against it, and keep the handle to steer
/// faults while the runtime is live.
#[derive(Debug, Clone)]
pub struct ChaosHandle {
    state: Arc<ChaosState>,
}

impl ChaosHandle {
    /// Builds a handle over a validated plan.
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Config`] if the plan is invalid.
    pub fn new(plan: FaultPlan) -> Result<ChaosHandle> {
        let injector = FaultInjector::new(plan)?;
        Ok(ChaosHandle {
            state: Arc::new(ChaosState {
                injector: Mutex::new(injector),
                tick: AtomicU64::new(0),
            }),
        })
    }

    /// Cumulative decision statistics across every wrapped endpoint.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.state.injector.lock().stats()
    }

    /// The current decision tick (one per packet or batch offered).
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.state.tick.load(Ordering::Relaxed)
    }

    /// Adds a partition window `[from_tick, until_tick)` between `a`
    /// and `b` (symmetric, in decision ticks).
    pub fn add_partition(&self, between: (ServerId, ServerId), from_tick: u64, until_tick: u64) {
        self.state.injector.lock().add_partition(Partition {
            between,
            from_tick,
            until_tick,
        });
    }

    /// Cuts the link between `a` and `b` starting *now*, until healed.
    pub fn partition_now(&self, a: ServerId, b: ServerId) {
        let now = self.tick();
        self.add_partition((a, b), now, u64::MAX);
    }

    /// Replaces the default per-link fault probabilities at runtime.
    pub fn set_default_faults(&self, faults: LinkFaults) {
        self.state.injector.lock().set_default_faults(faults);
    }

    /// Heals the network: clears every partition window and zeroes every
    /// fault probability. Statistics are preserved.
    pub fn heal_all(&self) {
        self.state.injector.lock().heal_all();
    }
}

/// A [`Transport`] that injects faults from a shared [`ChaosHandle`]
/// before (maybe) forwarding to the wrapped inner transport.
#[derive(Debug)]
pub struct FaultTransport<T: Transport> {
    inner: T,
    state: Arc<ChaosState>,
    /// Packets held back by [`FaultAction::Delay`], re-offered *after*
    /// the next packet that gets through to the same peer (reordering).
    held: Mutex<HashMap<ServerId, Vec<Bytes>>>,
    health: PeerHealth,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, drawing fault decisions from `handle`'s injector.
    ///
    /// `peers` sizes the failure detector (the number of servers in the
    /// mesh).
    #[must_use]
    pub fn new(inner: T, handle: &ChaosHandle, peers: usize) -> FaultTransport<T> {
        FaultTransport {
            inner,
            state: Arc::clone(&handle.state),
            held: Mutex::new(HashMap::new()),
            health: PeerHealth::new(peers),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// This endpoint's failure detector.
    pub fn health(&self) -> &PeerHealth {
        &self.health
    }

    /// One injector decision for a packet (or whole batch) toward `to`.
    fn decide(&self, to: ServerId) -> FaultAction {
        let tick = self.state.tick.fetch_add(1, Ordering::Relaxed);
        let mut injector = self.state.injector.lock();
        injector.decide(self.inner.me(), to, tick)
    }

    /// Takes any packets held back for `to` (drops the lock before the
    /// caller forwards them, so no guard spans a send).
    fn take_held(&self, to: ServerId) -> Vec<Bytes> {
        self.held.lock().remove(&to).unwrap_or_default()
    }

    fn hold(&self, to: ServerId, packets: impl IntoIterator<Item = Bytes>) {
        self.held.lock().entry(to).or_default().extend(packets);
    }

    /// Forwards `batch` to the inner transport and feeds the outcome to
    /// the failure detector.
    fn forward(&self, to: ServerId, batch: &[Bytes]) -> Result<()> {
        match self.inner.send_batch(to, batch) {
            Ok(()) => {
                self.health.on_success(to);
                Ok(())
            }
            Err(e) => {
                self.health.on_failure(to);
                Err(e)
            }
        }
    }

    /// Applies `action` to `batch`: the common path of both `send` and
    /// `send_batch` (one decision covers the whole slice).
    fn apply(&self, to: ServerId, action: FaultAction, batch: &[Bytes]) -> Result<()> {
        match action {
            FaultAction::Block => {
                // The partition eats the packets silently; the link layer
                // retransmits once the window closes. Count it against
                // the peer so `aaa_net_peer_state` reflects the outage.
                self.health.on_failure(to);
                Ok(())
            }
            FaultAction::Drop => Ok(()),
            FaultAction::Delay => {
                self.hold(to, batch.iter().cloned());
                Ok(())
            }
            FaultAction::Duplicate => {
                self.forward(to, batch)?;
                self.forward(to, batch)?;
                self.release_held(to)
            }
            FaultAction::Deliver => {
                self.forward(to, batch)?;
                self.release_held(to)
            }
        }
    }

    /// Re-offers held packets after a packet got through — they arrive
    /// *after* newer traffic, which is the reorder.
    fn release_held(&self, to: ServerId) -> Result<()> {
        let held = self.take_held(to);
        if held.is_empty() {
            return Ok(());
        }
        self.forward(to, &held)
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn me(&self) -> ServerId {
        self.inner.me()
    }

    fn send(&self, to: ServerId, bytes: Bytes) -> Result<()> {
        let action = self.decide(to);
        self.apply(to, action, std::slice::from_ref(&bytes))
    }

    fn send_batch(&self, to: ServerId, batch: &[Bytes]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let action = self.decide(to);
        self.apply(to, action, batch)
    }

    fn poll_recv(&self) -> Result<Option<Incoming>> {
        // Faults are injected on the send side only; the receive path
        // forwards unmodified so retransmitted repairs always get through.
        self.inner.poll_recv()
    }

    fn set_ready_notifier(&mut self, notifier: ReadyNotifier) {
        self.inner.set_ready_notifier(notifier);
    }

    fn attach_meter(&mut self, meter: &Meter, peers: &[ServerId]) {
        self.inner.attach_meter(meter, peers);
        self.health.attach_meter(meter, peers);
    }

    fn peer_state(&self, to: ServerId) -> PeerState {
        self.health.state(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_net::memory::MemoryNetwork;

    fn s(i: u16) -> ServerId {
        ServerId::new(i)
    }

    fn wrap_pair(handle: &ChaosHandle) -> Vec<FaultTransport<aaa_net::MemoryEndpoint>> {
        MemoryNetwork::create(2)
            .into_iter()
            .map(|ep| FaultTransport::new(ep, handle, 2))
            .collect()
    }

    /// The memory mesh delivers synchronously: one poll is the verdict.
    fn recv(ep: &FaultTransport<aaa_net::MemoryEndpoint>) -> Option<Incoming> {
        ep.poll_recv().ok().flatten()
    }

    #[test]
    fn partition_blocks_then_heal_restores() {
        let handle = ChaosHandle::new(FaultPlan::new(1)).unwrap();
        let eps = wrap_pair(&handle);
        handle.partition_now(s(0), s(1));
        eps[0].send(s(1), Bytes::from_static(b"lost")).unwrap();
        assert!(recv(&eps[1]).is_none());
        assert_eq!(handle.stats().blocked, 1);
        // Repeated blocks degrade the failure detector to Down.
        eps[0].send(s(1), Bytes::from_static(b"lost")).unwrap();
        eps[0].send(s(1), Bytes::from_static(b"lost")).unwrap();
        assert_eq!(eps[0].peer_state(s(1)), PeerState::Down);

        handle.heal_all();
        eps[0].send(s(1), Bytes::from_static(b"ok")).unwrap();
        let got = recv(&eps[1]).expect("healed link delivers");
        assert_eq!(&got.bytes[..], b"ok");
        assert_eq!(eps[0].peer_state(s(1)), PeerState::Up);
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        // Find a seed whose first draw lands in the duplicate band.
        let faults = LinkFaults {
            drop: 0.0,
            duplicate: 0.9,
            delay: 0.0,
        };
        let seed = (0..64)
            .find(|&seed| {
                let mut inj = FaultInjector::new(FaultPlan::new(seed).faults(faults)).unwrap();
                inj.decide(s(0), s(1), 0) == FaultAction::Duplicate
            })
            .expect("a duplicating seed exists");
        let handle = ChaosHandle::new(FaultPlan::new(seed).faults(faults)).unwrap();
        let eps = wrap_pair(&handle);
        eps[0].send(s(1), Bytes::from_static(b"twin")).unwrap();
        assert_eq!(&recv(&eps[1]).expect("first copy").bytes[..], b"twin");
        assert_eq!(&recv(&eps[1]).expect("second copy").bytes[..], b"twin");
        assert_eq!(handle.stats().duplicated, 1);
    }

    #[test]
    fn delay_reorders_behind_newer_traffic() {
        // Find a seed where draw 1 delays and draw 2 delivers.
        let faults = LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.5,
        };
        let seed = (0..256)
            .find(|&seed| {
                let mut inj = FaultInjector::new(FaultPlan::new(seed).faults(faults)).unwrap();
                inj.decide(s(0), s(1), 0) == FaultAction::Delay
                    && inj.decide(s(0), s(1), 1) == FaultAction::Deliver
            })
            .expect("a delay-then-deliver seed exists");
        let handle = ChaosHandle::new(FaultPlan::new(seed).faults(faults)).unwrap();
        let eps = wrap_pair(&handle);
        eps[0].send(s(1), Bytes::from_static(b"older")).unwrap();
        eps[0].send(s(1), Bytes::from_static(b"newer")).unwrap();
        // The held packet is re-offered after the newer one: reorder.
        assert_eq!(&recv(&eps[1]).expect("newer first").bytes[..], b"newer");
        assert_eq!(&recv(&eps[1]).expect("older second").bytes[..], b"older");
        assert_eq!(handle.stats().delayed, 1);
    }

    #[test]
    fn batch_costs_one_decision() {
        let handle = ChaosHandle::new(FaultPlan::new(3)).unwrap();
        let eps = wrap_pair(&handle);
        let batch: Vec<Bytes> = (0..5).map(|i| Bytes::from(vec![i as u8])).collect();
        eps[0].send_batch(s(1), &batch).unwrap();
        assert_eq!(handle.stats().decided, 1);
        for i in 0..5u8 {
            assert_eq!(&recv(&eps[1]).expect("batch packet").bytes[..], &[i]);
        }
        // Empty batches consume no decision.
        eps[0].send_batch(s(1), &[]).unwrap();
        assert_eq!(handle.stats().decided, 1);
    }
}
