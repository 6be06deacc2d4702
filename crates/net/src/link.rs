//! Reliable FIFO link endpoints (sans-IO).
//!
//! The AAA channel requires *reliable FIFO* transfer between neighbouring
//! servers: the causal protocol's Updates reconstruction and the
//! transactional hand-off both depend on it (§3, §5, Appendix A). These
//! state machines provide that guarantee over an unreliable datagram
//! substrate:
//!
//! - the sender assigns consecutive sequence numbers, keeps unacknowledged
//!   frames with a retransmission deadline, and resends them when
//!   [`LinkSender::due_retransmissions`] is polled past the deadline;
//! - the receiver delivers payloads strictly in sequence order, buffering
//!   out-of-order arrivals and dropping duplicates, and acknowledges
//!   cumulatively.
//!
//! The structs are sans-IO: they never touch sockets or clocks themselves.
//! The live runtime polls them with wall-clock time, the discrete-event
//! simulator with virtual time — the same code is exercised either way.
//!
//! # Group-commit batching
//!
//! Senders can *coalesce* consecutive frames to the same peer into one
//! multi-frame [`Datagram::Batch`] wire packet: frames accumulate via
//! [`LinkSender::buffer`] until 32 frames or 256 KiB of payload are
//! pending, or the owner calls [`LinkSender::flush`] — a server does so at
//! the end of every step, so batching adds no latency. One batch costs one
//! transport send instead of one per frame, and the channel layer
//! amortizes causal-stamp bytes across the batch (see `Stamp::GroupNext`
//! in `aaa-clocks`). Reliability is
//! unchanged: batched frames keep their individual sequence numbers, enter
//! the unacked queue at buffer time (so they are persisted and re-flushed
//! after a crash), and the receiver acknowledges cumulatively once per
//! arriving batch.
//!
//! # Cost per frame
//!
//! The sender keeps each payload it was given (a refcount, not a copy) for
//! retransmission, which re-sends exactly those bytes. The receiver
//! appends an in-order frame straight to its caller's buffer
//! ([`LinkReceiver::on_frame_into`]), allocating nothing for it; only a
//! frame that arrives ahead of a gap goes into the reorder map.

use std::collections::{BTreeMap, VecDeque};

use aaa_base::{VDuration, VTime};
use bytes::Bytes;

use crate::wire::Decoder;

/// Default retransmission timeout.
pub const DEFAULT_RTO: VDuration = VDuration::from_millis(200);

/// A [`LinkSender`] flushes its pending frames once this many are
/// buffered, whatever their size.
const MAX_BATCH_FRAMES: usize = 32;

/// A [`LinkSender`] flushes its pending frames once their payloads reach
/// this many bytes.
const MAX_BATCH_BYTES: usize = 256 * 1024;

/// A sequenced frame on a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFrame {
    /// Link-local sequence number (starts at 1).
    pub seq: u64,
    /// Opaque payload (an encoded [`crate::WireMessage`] in the MOM).
    pub payload: Bytes,
}

/// What actually travels on the wire between two servers: sequenced data
/// or a cumulative acknowledgement (the `ACK` of the paper's §5 channel
/// transaction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datagram {
    /// A sequenced payload frame.
    Data(LinkFrame),
    /// Cumulative acknowledgement of sequence numbers up to `cum_seq`.
    Ack {
        /// Highest contiguously received link sequence number.
        cum_seq: u64,
    },
    /// Several sequenced frames coalesced into one wire packet (group
    /// commit). Semantically identical to sending each frame as
    /// [`Datagram::Data`] in order, but costs a single transport send.
    Batch(Vec<LinkFrame>),
}

impl Datagram {
    /// Wraps `frames` in the cheapest wire form: a single frame becomes a
    /// legacy [`Datagram::Data`] packet (decodable by pre-batching peers),
    /// several frames become a [`Datagram::Batch`]. Returns `None` for an
    /// empty slice — nothing to put on the wire.
    pub fn for_frames(mut frames: Vec<LinkFrame>) -> Option<Datagram> {
        match frames.len() {
            0 => None,
            1 => frames.pop().map(Datagram::Data),
            _ => Some(Datagram::Batch(frames)),
        }
    }

    /// Number of link frames this datagram carries (0 for acks).
    pub fn frame_count(&self) -> usize {
        match self {
            Datagram::Data(_) => 1,
            Datagram::Ack { .. } => 0,
            Datagram::Batch(frames) => frames.len(),
        }
    }

    /// Encodes the datagram to bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Datagram::Data(f) => {
                let mut out = Vec::with_capacity(9 + f.payload.len());
                out.push(0);
                out.extend_from_slice(&f.seq.to_le_bytes());
                out.extend_from_slice(&f.payload);
                Bytes::from(out)
            }
            Datagram::Ack { cum_seq } => {
                let mut out = Vec::with_capacity(9);
                out.push(1);
                out.extend_from_slice(&cum_seq.to_le_bytes());
                Bytes::from(out)
            }
            Datagram::Batch(frames) => {
                let body: usize = frames.iter().map(|f| 12 + f.payload.len()).sum();
                let mut out = Vec::with_capacity(5 + body);
                out.push(2);
                // Saturating prefixes: an impossible >u32::MAX count/length
                // yields a prefix the decoder rejects as truncated instead of
                // a silently wrapped, plausible-looking small value.
                out.extend_from_slice(
                    &u32::try_from(frames.len())
                        .unwrap_or(u32::MAX)
                        .to_le_bytes(),
                );
                for f in frames {
                    out.extend_from_slice(&f.seq.to_le_bytes());
                    out.extend_from_slice(
                        &u32::try_from(f.payload.len())
                            .unwrap_or(u32::MAX)
                            .to_le_bytes(),
                    );
                    out.extend_from_slice(&f.payload);
                }
                Bytes::from(out)
            }
        }
    }

    /// Decodes a datagram produced by [`Datagram::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Codec`] on truncation or an unknown tag.
    pub fn decode(mut bytes: Bytes) -> aaa_base::Result<Datagram> {
        use aaa_base::Error;
        let tag = match bytes.first() {
            Some(&t) => t,
            None => return Err(Error::Codec("empty datagram".into())),
        };
        match tag {
            0 => {
                if bytes.len() < 9 {
                    return Err(Error::Codec("truncated data frame".into()));
                }
                let seq = le_u64(&bytes, 1)?;
                let payload = bytes.split_off(9);
                Ok(Datagram::Data(LinkFrame { seq, payload }))
            }
            1 => {
                if bytes.len() < 9 {
                    return Err(Error::Codec("truncated ack".into()));
                }
                let cum_seq = le_u64(&bytes, 1)?;
                Ok(Datagram::Ack { cum_seq })
            }
            2 => {
                let mut d = Decoder::new(bytes.split_off(1));
                // The count comes off the network: each frame it promises
                // costs a 12-byte header, or it is refused unallocated.
                let count = d.count(12)?;
                if count == 0 {
                    return Err(Error::Codec("empty batch".into()));
                }
                let mut frames = Vec::with_capacity(count);
                for _ in 0..count {
                    let seq = d.u64()?;
                    let payload = d.bytes()?;
                    frames.push(LinkFrame { seq, payload });
                }
                Ok(Datagram::Batch(frames))
            }
            t => Err(Error::Codec(format!("unknown datagram tag {t}"))),
        }
    }
}

/// Reads a little-endian `u64` at byte offset `at`, as a codec error on
/// truncation (never panics on malformed wire input).
fn le_u64(bytes: &[u8], at: usize) -> aaa_base::Result<u64> {
    bytes
        .get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| aaa_base::Error::Codec("truncated u64 field".into()))
}

/// Sending half of one directed link.
#[derive(Debug)]
pub struct LinkSender {
    next_seq: u64,
    rto: VDuration,
    /// Unacknowledged frames with their next retransmission deadline.
    unacked: VecDeque<(VTime, LinkFrame)>,
    /// Frames buffered for the next flush (also present in `unacked`).
    pending: VecDeque<LinkFrame>,
    /// Payload bytes currently pending.
    pending_bytes: usize,
}

impl Default for LinkSender {
    fn default() -> Self {
        Self::new()
    }
}

impl LinkSender {
    /// Creates a sender with the [default](DEFAULT_RTO) retransmission
    /// timeout.
    pub fn new() -> Self {
        Self::with_rto(DEFAULT_RTO)
    }

    /// Creates a sender with a custom retransmission timeout.
    pub fn with_rto(rto: VDuration) -> Self {
        LinkSender {
            next_seq: 1,
            rto,
            unacked: VecDeque::new(),
            pending: VecDeque::new(),
            pending_bytes: 0,
        }
    }

    /// Wraps `payload` into the next sequenced frame; the frame must then
    /// be handed to the transport. `now` sets the retransmission deadline.
    pub fn send(&mut self, payload: Bytes, now: VTime) -> LinkFrame {
        let frame = LinkFrame {
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        self.unacked.push_back((now + self.rto, frame.clone()));
        frame
    }

    /// Buffers `payload` as the next sequenced frame for a coalesced flush.
    ///
    /// The frame enters the unacked queue immediately (deadline `now +
    /// rto`), so crash-recovery journaling and retransmission cover it from
    /// the moment it is buffered — an unflushed batch that survives a crash
    /// is re-flushed from the persisted image. Returns a full batch once
    /// 32 frames or 256 KiB of payload are pending; otherwise the frame
    /// waits for [`LinkSender::flush`].
    pub fn buffer(&mut self, payload: Bytes, now: VTime) -> Option<Vec<LinkFrame>> {
        let frame = self.send(payload, now);
        self.pending_bytes += frame.payload.len();
        self.pending.push_back(frame);
        if self.pending.len() >= MAX_BATCH_FRAMES || self.pending_bytes >= MAX_BATCH_BYTES {
            self.flush()
        } else {
            None
        }
    }

    /// Drains all pending frames as one batch, or `None` if nothing is
    /// pending. The caller wraps the result with [`Datagram::for_frames`]
    /// and hands it to the transport.
    pub fn flush(&mut self) -> Option<Vec<LinkFrame>> {
        if self.pending.is_empty() {
            return None;
        }
        self.pending_bytes = 0;
        Some(std::mem::take(&mut self.pending).into())
    }

    /// Number of frames buffered and not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Processes a cumulative acknowledgement: frames with `seq <= cum_seq`
    /// are settled and will not be retransmitted.
    pub fn on_ack(&mut self, cum_seq: u64) {
        while matches!(self.unacked.front(), Some((_, f)) if f.seq <= cum_seq) {
            self.unacked.pop_front();
        }
    }

    /// Returns the frames whose retransmission deadline has passed at
    /// `now`, re-arming each with a fresh deadline.
    pub fn due_retransmissions(&mut self, now: VTime) -> Vec<LinkFrame> {
        let mut due = Vec::new();
        for (deadline, frame) in self.unacked.iter_mut() {
            if *deadline <= now {
                *deadline = now + self.rto;
                due.push(frame.clone());
            }
        }
        due
    }

    /// The earliest retransmission deadline, if any: what a runtime
    /// should arm its timer to.
    pub fn next_deadline(&self) -> Option<VTime> {
        self.unacked.iter().map(|(d, _)| *d).min()
    }

    /// Number of frames sent but not yet acknowledged.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// The next sequence number this sender will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The unacknowledged frames, oldest first (for crash-recovery
    /// journaling).
    pub fn unacked_frames(&self) -> impl Iterator<Item = &LinkFrame> + '_ {
        self.unacked.iter().map(|(_, f)| f)
    }

    /// Rebuilds a sender from persisted state. Every restored frame is
    /// armed for retransmission at `now + rto` — this is what re-flushes a
    /// batch that was buffered (or flushed but unacked) at crash time.
    pub fn restore(rto: VDuration, next_seq: u64, unacked: Vec<LinkFrame>, now: VTime) -> Self {
        LinkSender {
            next_seq,
            rto,
            unacked: unacked.into_iter().map(|f| (now + rto, f)).collect(),
            pending: VecDeque::new(),
            pending_bytes: 0,
        }
    }
}

/// What a receiver did with one incoming frame.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LinkDelivery {
    /// Payloads now deliverable, in FIFO order (possibly several, when a
    /// retransmission fills a gap).
    pub delivered: Vec<Bytes>,
    /// The cumulative acknowledgement to send back, if any progress or a
    /// duplicate was observed.
    pub ack: Option<u64>,
}

/// Receiving half of one directed link.
#[derive(Debug, Default)]
pub struct LinkReceiver {
    /// Highest contiguously delivered sequence number.
    cum: u64,
    /// Out-of-order frames waiting for the gap to fill.
    buffered: BTreeMap<u64, Bytes>,
}

impl LinkReceiver {
    /// Creates a receiver expecting sequence number 1 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes one arriving frame, returning deliverable payloads (in
    /// order) and the cumulative ack to emit.
    ///
    /// Duplicates (already-delivered sequence numbers) produce no delivery
    /// but *do* re-emit the ack, so a lost ack is eventually repaired by
    /// the sender's retransmission.
    pub fn on_frame(&mut self, frame: LinkFrame) -> LinkDelivery {
        let mut delivered = Vec::new();
        let ack = self.on_frame_into(frame, &mut delivered);
        LinkDelivery {
            delivered,
            ack: Some(ack),
        }
    }

    /// [`LinkReceiver::on_frame`] for a caller that keeps one buffer
    /// across frames: the deliverable payloads are appended to `delivered`,
    /// and the cumulative ack to emit is returned. An in-order frame never
    /// touches the reorder map, so with room in `delivered` it costs no
    /// allocation.
    pub fn on_frame_into(&mut self, frame: LinkFrame, delivered: &mut Vec<Bytes>) -> u64 {
        if frame.seq == self.cum + 1 {
            // The next frame in order: it never touches the reorder map.
            self.cum += 1;
            delivered.push(frame.payload);
        } else if frame.seq > self.cum {
            self.buffered.entry(frame.seq).or_insert(frame.payload);
        }
        // A frame in order may close a gap the map was holding open.
        while let Some(payload) = self.buffered.remove(&(self.cum + 1)) {
            self.cum += 1;
            delivered.push(payload);
        }
        self.cum
    }

    /// Highest contiguously delivered sequence number.
    pub fn cum_seq(&self) -> u64 {
        self.cum
    }

    /// Number of frames buffered out of order.
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Rebuilds a receiver from a persisted cumulative sequence number.
    /// Out-of-order frames buffered at crash time are not restored: the
    /// peer's retransmissions recover them.
    pub fn restore(cum_seq: u64) -> Self {
        LinkReceiver {
            cum: cum_seq,
            buffered: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn in_order_delivery() {
        let mut tx = LinkSender::new();
        let mut rx = LinkReceiver::new();
        let f1 = tx.send(payload("a"), VTime::ZERO);
        let f2 = tx.send(payload("b"), VTime::ZERO);
        assert_eq!(tx.in_flight(), 2);

        let out = rx.on_frame(f1);
        assert_eq!(out.delivered, vec![payload("a")]);
        assert_eq!(out.ack, Some(1));
        let out = rx.on_frame(f2);
        assert_eq!(out.delivered, vec![payload("b")]);
        assert_eq!(out.ack, Some(2));

        tx.on_ack(2);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.next_deadline(), None);
    }

    #[test]
    fn reordering_is_buffered() {
        let mut tx = LinkSender::new();
        let mut rx = LinkReceiver::new();
        let f1 = tx.send(payload("a"), VTime::ZERO);
        let f2 = tx.send(payload("b"), VTime::ZERO);
        let f3 = tx.send(payload("c"), VTime::ZERO);

        let out = rx.on_frame(f3);
        assert!(out.delivered.is_empty());
        assert_eq!(out.ack, Some(0));
        assert_eq!(rx.buffered(), 1);
        let out = rx.on_frame(f2);
        assert!(out.delivered.is_empty());
        let out = rx.on_frame(f1);
        assert_eq!(
            out.delivered,
            vec![payload("a"), payload("b"), payload("c")]
        );
        assert_eq!(out.ack, Some(3));
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn duplicates_are_suppressed_but_acked() {
        let mut tx = LinkSender::new();
        let mut rx = LinkReceiver::new();
        let f1 = tx.send(payload("a"), VTime::ZERO);
        let _ = rx.on_frame(f1.clone());
        let out = rx.on_frame(f1);
        assert!(out.delivered.is_empty());
        assert_eq!(out.ack, Some(1), "duplicate still re-acks");
    }

    #[test]
    fn retransmission_after_timeout() {
        let mut tx = LinkSender::with_rto(VDuration::from_millis(10));
        let f1 = tx.send(payload("a"), VTime::ZERO);
        assert!(tx.due_retransmissions(VTime::from_micros(5_000)).is_empty());
        let due = tx.due_retransmissions(VTime::from_micros(10_000));
        assert_eq!(due, vec![f1]);
        // Deadline re-armed: not due again immediately.
        assert!(tx
            .due_retransmissions(VTime::from_micros(10_001))
            .is_empty());
        // Due again one RTO later.
        assert_eq!(tx.due_retransmissions(VTime::from_micros(20_000)).len(), 1);
    }

    #[test]
    fn ack_settles_prefix_only() {
        let mut tx = LinkSender::new();
        let _f1 = tx.send(payload("a"), VTime::ZERO);
        let _f2 = tx.send(payload("b"), VTime::ZERO);
        let _f3 = tx.send(payload("c"), VTime::ZERO);
        tx.on_ack(2);
        assert_eq!(tx.in_flight(), 1);
        tx.on_ack(1); // stale ack is harmless
        assert_eq!(tx.in_flight(), 1);
        tx.on_ack(3);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn datagram_roundtrip() {
        let d = Datagram::Data(LinkFrame {
            seq: 42,
            payload: payload("body"),
        });
        assert_eq!(Datagram::decode(d.encode()).unwrap(), d);
        let a = Datagram::Ack { cum_seq: 7 };
        assert_eq!(Datagram::decode(a.encode()).unwrap(), a);
        assert_eq!(a.encode().len(), 9);
    }

    #[test]
    fn datagram_garbage_rejected() {
        assert!(Datagram::decode(Bytes::new()).is_err());
        assert!(Datagram::decode(Bytes::from_static(&[7])).is_err());
        assert!(Datagram::decode(Bytes::from_static(&[0, 1, 2])).is_err());
        assert!(Datagram::decode(Bytes::from_static(&[1, 1, 2])).is_err());
    }

    #[test]
    fn sender_state_dump_and_restore() {
        let mut tx = LinkSender::with_rto(VDuration::from_millis(5));
        let _ = tx.send(payload("a"), VTime::ZERO);
        let _ = tx.send(payload("b"), VTime::ZERO);
        tx.on_ack(1);
        let frames: Vec<LinkFrame> = tx.unacked_frames().cloned().collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(tx.next_seq(), 3);

        let mut tx2 = LinkSender::restore(
            VDuration::from_millis(5),
            tx.next_seq(),
            frames,
            VTime::ZERO,
        );
        assert_eq!(tx2.in_flight(), 1);
        // Restored frames retransmit after one RTO.
        let due = tx2.due_retransmissions(VTime::from_micros(5_000));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].seq, 2);
        // And the next send continues the sequence space.
        let f = tx2.send(payload("c"), VTime::ZERO);
        assert_eq!(f.seq, 3);
    }

    #[test]
    fn batch_datagram_roundtrip() {
        let frames = vec![
            LinkFrame {
                seq: 1,
                payload: payload("a"),
            },
            LinkFrame {
                seq: 2,
                payload: Bytes::new(),
            },
            LinkFrame {
                seq: 3,
                payload: payload("ccc"),
            },
        ];
        let d = Datagram::Batch(frames.clone());
        assert_eq!(d.frame_count(), 3);
        assert_eq!(Datagram::decode(d.encode()).unwrap(), d);
        // Wire layout: 1 tag + 4 count + per frame (8 seq + 4 len + body).
        let body: usize = frames.iter().map(|f| 12 + f.payload.len()).sum();
        assert_eq!(d.encode().len(), 5 + body);
    }

    #[test]
    fn single_frame_batch_degrades_to_legacy_data() {
        let d = Datagram::for_frames(vec![LinkFrame {
            seq: 9,
            payload: payload("x"),
        }])
        .expect("one frame");
        assert!(matches!(d, Datagram::Data(_)));
        assert!(Datagram::for_frames(Vec::new()).is_none());
        // And a pre-batching decoder understands it (tag 0).
        assert_eq!(d.encode()[0], 0);
    }

    #[test]
    fn batch_garbage_rejected() {
        // Truncated header.
        assert!(Datagram::decode(Bytes::from_static(&[2, 1])).is_err());
        // Empty batch.
        assert!(Datagram::decode(Bytes::from_static(&[2, 0, 0, 0, 0])).is_err());
        // Count says one frame but nothing follows.
        assert!(Datagram::decode(Bytes::from_static(&[2, 1, 0, 0, 0])).is_err());
        // Frame claims more payload than present.
        let mut raw = vec![2u8, 1, 0, 0, 0];
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.extend_from_slice(&100u32.to_le_bytes());
        raw.extend_from_slice(b"short");
        assert!(Datagram::decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn batch_count_is_bounded_by_the_bytes_present() {
        // Five bytes off the network must not reserve room for four
        // billion frames: that is an allocation failure — an abort, not
        // even a panic — for every server in the process.
        let err = Datagram::decode(Bytes::from_static(&[2, 0xff, 0xff, 0xff, 0xff])).unwrap_err();
        assert!(matches!(err, aaa_base::Error::Codec(_)), "{err}");
        // One real frame behind a count of a thousand.
        let mut raw = vec![2u8];
        raw.extend_from_slice(&1000u32.to_le_bytes());
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        assert!(Datagram::decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn buffer_coalesces_until_flush() {
        let mut tx = LinkSender::new();
        assert!(tx.buffer(payload("a"), VTime::ZERO).is_none());
        assert!(tx.buffer(payload("b"), VTime::ZERO).is_none());
        assert_eq!(tx.pending_len(), 2);
        assert_eq!(tx.in_flight(), 2, "buffered frames are unacked already");
        let batch = tx.flush().expect("pending frames");
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].seq, 1);
        assert_eq!(batch[1].seq, 2);
        assert_eq!(tx.pending_len(), 0);
        assert!(tx.flush().is_none());
    }

    #[test]
    fn a_flush_carries_only_buffered_frames() {
        let mut tx = LinkSender::new();
        assert!(tx.buffer(payload("a"), VTime::ZERO).is_none());
        let sent = tx.send(payload("b"), VTime::ZERO);
        assert!(tx.buffer(payload("c"), VTime::ZERO).is_none());
        assert_eq!(tx.pending_len(), 2, "the sent frame is not pending");
        let batch = tx.flush().expect("pending frames");
        let seqs: Vec<u64> = batch.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![1, 3], "frame {} went out on its own", sent.seq);
        assert_eq!(tx.in_flight(), 3);
    }

    #[test]
    fn max_frames_limit_splits_batches() {
        let mut tx = LinkSender::new();
        let mut flushed = Vec::new();
        for i in 0..2 * MAX_BATCH_FRAMES + 1 {
            if let Some(batch) = tx.buffer(Bytes::from(format!("m{i}")), VTime::ZERO) {
                flushed.push(batch.len());
            }
        }
        assert_eq!(flushed, vec![MAX_BATCH_FRAMES, MAX_BATCH_FRAMES]);
        assert_eq!(tx.flush().map(|b| b.len()), Some(1));
    }

    #[test]
    fn max_bytes_limit_flushes_early() {
        let mut tx = LinkSender::new();
        let first = Bytes::from(vec![0u8; MAX_BATCH_BYTES - 6]);
        assert!(tx.buffer(first, VTime::ZERO).is_none());
        let batch = tx.buffer(Bytes::from(vec![0u8; 6]), VTime::ZERO);
        assert_eq!(batch.map(|b| b.len()), Some(2));
    }

    #[test]
    fn crashed_batch_is_reflushed_from_persisted_image() {
        // Buffer two frames, never flush, "crash": the unacked journal
        // already contains them, so a restored sender retransmits both.
        let mut tx = LinkSender::with_rto(VDuration::from_millis(5));
        assert!(tx.buffer(payload("a"), VTime::ZERO).is_none());
        assert!(tx.buffer(payload("b"), VTime::ZERO).is_none());
        let journal: Vec<LinkFrame> = tx.unacked_frames().cloned().collect();
        assert_eq!(journal.len(), 2);

        let mut tx2 = LinkSender::restore(
            VDuration::from_millis(5),
            tx.next_seq(),
            journal,
            VTime::ZERO,
        );
        let due = tx2.due_retransmissions(VTime::from_micros(5_000));
        assert_eq!(due.len(), 2);
        let mut rx = LinkReceiver::new();
        let mut delivered = Vec::new();
        for f in due {
            delivered.extend(rx.on_frame(f).delivered);
        }
        assert_eq!(delivered, vec![payload("a"), payload("b")]);
    }

    #[test]
    fn receiver_acks_once_per_batch() {
        let mut tx = LinkSender::new();
        let mut rx = LinkReceiver::new();
        let mut batch = Vec::new();
        for i in 0..5u64 {
            let _ = i;
            assert!(tx.buffer(payload("m"), VTime::ZERO).is_none());
        }
        if let Some(frames) = tx.flush() {
            batch = frames;
        }
        let wire = Datagram::for_frames(batch).expect("five frames");
        assert!(matches!(wire, Datagram::Batch(_)));
        // The receiving server feeds frames in order and sends the *last*
        // cumulative ack only.
        let mut last_ack = None;
        if let Datagram::Batch(frames) = wire {
            for f in frames {
                let out = rx.on_frame(f);
                if out.ack.is_some() {
                    last_ack = out.ack;
                }
            }
        }
        assert_eq!(last_ack, Some(5));
        tx.on_ack(5);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn receiver_restore_suppresses_old_frames() {
        let mut rx = LinkReceiver::restore(5);
        assert_eq!(rx.cum_seq(), 5);
        let out = rx.on_frame(LinkFrame {
            seq: 3,
            payload: payload("dup"),
        });
        assert!(out.delivered.is_empty());
        assert_eq!(out.ack, Some(5));
        let out = rx.on_frame(LinkFrame {
            seq: 6,
            payload: payload("next"),
        });
        assert_eq!(out.delivered.len(), 1);
        assert_eq!(out.ack, Some(6));
    }

    #[test]
    fn on_frame_into_appends_to_the_callers_buffer() {
        let mut rx = LinkReceiver::new();
        let frame = |seq, p| LinkFrame {
            seq,
            payload: payload(p),
        };
        let mut out = vec![payload("kept")];
        assert_eq!(rx.on_frame_into(frame(2, "b"), &mut out), 0, "a gap");
        assert_eq!(out, vec![payload("kept")]);
        assert_eq!(rx.on_frame_into(frame(1, "a"), &mut out), 2);
        assert_eq!(out, vec![payload("kept"), payload("a"), payload("b")]);
        assert_eq!(rx.on_frame_into(frame(2, "dup"), &mut out), 2);
        assert_eq!(out.len(), 3, "a duplicate appends nothing");
    }

    #[test]
    fn lossy_link_recovers_fifo() {
        // Simulate 20 sends over a link that drops every 3rd frame on its
        // first transmission; retransmissions restore exact FIFO delivery.
        let mut tx = LinkSender::with_rto(VDuration::from_millis(1));
        let mut rx = LinkReceiver::new();
        let mut now = VTime::ZERO;
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut first_try: Vec<LinkFrame> = Vec::new();
        for i in 0..20u64 {
            let body = Bytes::from(format!("m{i}"));
            first_try.push(tx.send(body, now));
        }
        for (i, f) in first_try.into_iter().enumerate() {
            if i % 3 != 2 {
                let out = rx.on_frame(f);
                delivered.extend(out.delivered);
                if let Some(a) = out.ack {
                    tx.on_ack(a);
                }
            }
        }
        // Drive retransmissions until everything arrives.
        for _ in 0..10 {
            now += VDuration::from_millis(2);
            for f in tx.due_retransmissions(now) {
                let out = rx.on_frame(f);
                delivered.extend(out.delivered);
                if let Some(a) = out.ack {
                    tx.on_ack(a);
                }
            }
        }
        assert_eq!(tx.in_flight(), 0);
        let expect: Vec<Bytes> = (0..20).map(|i| Bytes::from(format!("m{i}"))).collect();
        assert_eq!(delivered, expect);
    }
}
