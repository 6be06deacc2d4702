//! The byte-transport abstraction — owned by the net crate.
//!
//! A [`Transport`] is what a runtime drives to move encoded datagrams
//! between servers: the in-memory mesh ([`crate::MemoryEndpoint`]) or
//! localhost TCP multiplexed per shard ([`crate::MuxTcpEndpoint`]). Each
//! endpoint type implements the trait directly, in its own module (the
//! MOM re-exports the trait for compatibility).
//!
//! # The readiness contract
//!
//! The trait is **non-blocking by design** so that many endpoints can be
//! multiplexed onto a fixed pool of event-loop shards:
//!
//! - [`Transport::poll_recv`] returns the next ready datagram without
//!   blocking (and records it in the receive counters), or `None` when
//!   the inbox is empty;
//! - [`Transport::set_ready_notifier`] registers a callback invoked
//!   whenever the inbox (possibly) transitions from empty to non-empty.
//!   The runtime uses it to schedule the owning server onto the shard
//!   pool's run queue; nothing about the callback may block.
//!
//! Transports speak batches natively: [`Transport::send_batch`] hands the
//! transport every wire packet a group-commit flush produced for one peer,
//! so implementations with per-send cost (syscalls, locks) can amortize it
//! — [`crate::MuxTcpEndpoint`] writes one contiguous buffer per batch. The
//! default implementation falls back to one [`Transport::send`] per packet.

use std::sync::Arc;

use aaa_base::{Result, ServerId};
use aaa_obs::Meter;
use bytes::Bytes;
use parking_lot::RwLock;

use crate::health::PeerState;
use crate::memory::Incoming;

/// A readiness callback: invoked by a transport when its inbox may have
/// become non-empty. Must be cheap and must never block — it typically
/// flips an atomic flag and pushes a server index onto a run queue.
pub type ReadyNotifier = Arc<dyn Fn() + Send + Sync>;

/// A shared, swappable slot holding an endpoint's [`ReadyNotifier`].
///
/// Senders (peer endpoints, reader threads) clone the slot and call
/// [`NotifySlot::notify`] after pushing into the inbox; the runtime
/// installs the callback through [`Transport::set_ready_notifier`].
/// Until one is installed, notifications are silently dropped — runtimes
/// must poll once after installing to cover the gap.
#[derive(Clone, Default)]
pub struct NotifySlot(Arc<RwLock<Option<ReadyNotifier>>>);

impl NotifySlot {
    /// A fresh, empty slot.
    #[must_use]
    pub fn new() -> NotifySlot {
        NotifySlot::default()
    }

    /// Installs (or replaces) the notifier.
    pub fn set(&self, notifier: ReadyNotifier) {
        *self.0.write() = Some(notifier);
    }

    /// Invokes the installed notifier, if any.
    pub fn notify(&self) {
        if let Some(n) = self.0.read().as_ref() {
            n();
        }
    }
}

impl std::fmt::Debug for NotifySlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotifySlot")
            .field("installed", &self.0.read().is_some())
            .finish()
    }
}

/// A byte transport a runtime can drive: the in-memory mesh
/// ([`crate::MemoryEndpoint`]) or the multiplexed TCP shard mesh
/// ([`crate::MuxTcpEndpoint`]).
pub trait Transport: Send + 'static {
    /// This endpoint's server id.
    fn me(&self) -> ServerId;

    /// Sends `bytes` to `to`.
    ///
    /// # Errors
    ///
    /// Transport-specific failures; the caller treats them as packet loss
    /// (the link layer retransmits).
    fn send(&self, to: ServerId, bytes: Bytes) -> Result<()>;

    /// Sends several already-encoded wire packets to `to`, preserving
    /// order. The default forwards each packet to [`Transport::send`];
    /// transports with per-send overhead override this to pay it once per
    /// batch.
    ///
    /// # Errors
    ///
    /// As for [`Transport::send`]. A mid-batch failure may leave a prefix
    /// delivered; the link layer retransmits the rest.
    fn send_batch(&self, to: ServerId, batch: &[Bytes]) -> Result<()> {
        for bytes in batch {
            self.send(to, bytes.clone())?;
        }
        Ok(())
    }

    /// Returns the next ready datagram without blocking (`None` when the
    /// inbox is empty). Implementations record the frame in their receive
    /// counters, so runtimes need no separate accounting call.
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Closed`] once the transport has shut
    /// down and no more datagrams can ever arrive.
    fn poll_recv(&self) -> Result<Option<Incoming>>;

    /// Installs the readiness callback invoked whenever the inbox may
    /// have become non-empty (see the module docs for the contract).
    /// Replaces any previously installed notifier. Poll once after
    /// installing: datagrams that arrived earlier produced no callback.
    fn set_ready_notifier(&mut self, notifier: ReadyNotifier);

    /// Attaches a metrics meter (default: no instrumentation). `peers` are
    /// the servers this endpoint exchanges frames with — its domain
    /// neighbours; per-peer traffic series are minted for them only.
    fn attach_meter(&mut self, _meter: &Meter, _peers: &[ServerId]) {}

    /// Failure-detector verdict for `to`, if this transport tracks one.
    ///
    /// Runtimes use this to stop hot-looping retransmissions into a peer
    /// that is [`PeerState::Down`] (they still send low-rate probes so a
    /// recovery is noticed). The default says every peer is up, which is
    /// always safe — just not self-healing.
    fn peer_state(&self, _to: ServerId) -> PeerState {
        PeerState::Up
    }
}

/// Blocking drain through the poll contract, for this crate's tests.
#[cfg(test)]
pub(crate) fn poll_until<T: Transport>(ep: &T, deadline: std::time::Duration) -> Incoming {
    let start = std::time::Instant::now();
    loop {
        if let Some(inc) = ep.poll_recv().unwrap() {
            return inc;
        }
        assert!(
            start.elapsed() < deadline,
            "no datagram within {deadline:?}"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryNetwork;
    use crate::mux::MuxTcpNetwork;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn drive<T: Transport>(eps: &[T]) {
        let batch = vec![
            Bytes::from_static(b"one"),
            Bytes::from_static(b"two"),
            Bytes::from_static(b"three"),
        ];
        eps[0].send_batch(ServerId::new(1), &batch).unwrap();
        for expect in [&b"one"[..], b"two", b"three"] {
            let got = poll_until(&eps[1], Duration::from_secs(5));
            assert_eq!(got.from, ServerId::new(0));
            assert_eq!(&got.bytes[..], expect);
        }
    }

    #[test]
    fn memory_send_batch_preserves_order() {
        let eps = MemoryNetwork::create(2);
        drive(&eps);
    }

    #[test]
    fn mux_send_batch_is_one_buffer_many_packets() {
        let eps = MuxTcpNetwork::create(2, 1).unwrap();
        drive(&eps);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let eps = MemoryNetwork::create(2);
        Transport::send_batch(&eps[0], ServerId::new(1), &[]).unwrap();
        assert!(eps[1].poll_recv().unwrap().is_none());
    }

    #[test]
    fn notifier_fires_on_send() {
        let mut eps = MemoryNetwork::create(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        eps[1].set_ready_notifier(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        eps[0]
            .send(ServerId::new(1), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(eps[1].poll_recv().unwrap().is_some());
    }
}
