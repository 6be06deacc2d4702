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
//!   An evented runtime uses it to schedule the owning server onto a
//!   shard's run queue; nothing about the callback may block.
//!
//! Thread-per-server runtimes that want to *sleep* until traffic arrives
//! wrap the notifier in a [`ReadyMailbox`] — the blocking adapter: the
//! notifier pokes a wakeup channel the legacy `select!` loop can park on.
//!
//! Transports speak batches natively: [`Transport::send_batch`] hands the
//! transport every wire packet a group-commit flush produced for one peer,
//! so implementations with per-send cost (syscalls, locks) can amortize it
//! — [`crate::MuxTcpEndpoint`] writes one contiguous buffer per batch. The
//! default implementation falls back to one [`Transport::send`] per packet.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aaa_base::{Result, ServerId};
use aaa_obs::Meter;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
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

/// The blocking adapter over the readiness contract.
///
/// Legacy thread-per-server runtimes park on a channel; an evented
/// transport only offers a notifier callback. `ReadyMailbox` bridges the
/// two: [`ReadyMailbox::notifier`] returns a callback that sends one
/// wakeup token (collapsing bursts through an atomic flag so the channel
/// never grows unboundedly), and the loop `select!`s on
/// [`ReadyMailbox::receiver`]. Call [`ReadyMailbox::ack`] *before*
/// draining [`Transport::poll_recv`] so a datagram arriving mid-drain
/// re-arms the wakeup.
pub struct ReadyMailbox {
    armed: Arc<AtomicBool>,
    tx: Sender<()>,
    rx: Receiver<()>,
}

impl ReadyMailbox {
    /// A fresh mailbox with no pending wakeups.
    #[must_use]
    pub fn new() -> ReadyMailbox {
        let (tx, rx) = unbounded();
        ReadyMailbox {
            armed: Arc::new(AtomicBool::new(false)),
            tx,
            rx,
        }
    }

    /// The notifier to install via [`Transport::set_ready_notifier`].
    #[must_use]
    pub fn notifier(&self) -> ReadyNotifier {
        let armed = self.armed.clone();
        let tx = self.tx.clone();
        Arc::new(move || {
            if !armed.swap(true, Ordering::AcqRel) {
                // Receiver alive for the mailbox's lifetime; a send can
                // only fail during teardown, when the wakeup is moot.
                // audit:allow(error-swallow)
                let _ = tx.send(());
            }
        })
    }

    /// The wakeup channel to park on (`select!`/`recv_timeout`).
    #[must_use]
    pub fn receiver(&self) -> &Receiver<()> {
        &self.rx
    }

    /// Re-arms the mailbox; call before draining the transport so
    /// arrivals during the drain produce a fresh wakeup.
    pub fn ack(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Queues a wakeup to self — used when a bounded drain stopped early
    /// and the loop must come back for the remainder.
    pub fn reschedule(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            // Same as in `notifier`: failure means teardown.
            // audit:allow(error-swallow)
            let _ = self.tx.send(());
        }
    }
}

impl Default for ReadyMailbox {
    fn default() -> Self {
        ReadyMailbox::new()
    }
}

impl std::fmt::Debug for ReadyMailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyMailbox")
            .field("armed", &self.armed.load(Ordering::Relaxed))
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

    /// Attaches a metrics meter (default: no instrumentation).
    fn attach_meter(&mut self, _meter: &Meter) {}

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
    use std::sync::atomic::AtomicUsize;
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

    #[test]
    fn ready_mailbox_collapses_bursts_and_rearms() {
        let mut eps = MemoryNetwork::create(2);
        let mailbox = ReadyMailbox::new();
        eps[1].set_ready_notifier(mailbox.notifier());
        for _ in 0..10 {
            eps[0]
                .send(ServerId::new(1), Bytes::from_static(b"x"))
                .unwrap();
        }
        // A burst produces exactly one wakeup token.
        assert!(mailbox
            .receiver()
            .recv_timeout(Duration::from_secs(1))
            .is_ok());
        assert!(mailbox.receiver().try_recv().is_err());
        // Ack, drain, and the next send re-arms the wakeup.
        mailbox.ack();
        while eps[1].poll_recv().unwrap().is_some() {}
        eps[0]
            .send(ServerId::new(1), Bytes::from_static(b"y"))
            .unwrap();
        assert!(mailbox
            .receiver()
            .recv_timeout(Duration::from_secs(1))
            .is_ok());
        // Explicit reschedule queues a wakeup without traffic.
        mailbox.ack();
        mailbox.reschedule();
        assert!(mailbox.receiver().try_recv().is_ok());
    }
}
