//! The middleware message as it travels one hop between servers.
//!
//! A [`WireMessage`] is an application-level notification plus its routing
//! header and causal stamp (the paper's `msg = evt + timestamp`, §5). It is
//! carried as the payload of a sequenced link [`Datagram`](crate::link::Datagram);
//! acknowledgements (`Send(ACK)` / `Recv(ACK)` in the §5 pseudo-code) live
//! at the link layer.
//!
//! A frame's size is arithmetic ([`WireMessage::encoded_len`]): the header
//! is fixed-width, the stamp knows its own length, and the kind and body
//! are length-prefixed. So a frame is encoded once, into a buffer of
//! exactly that size that becomes the frame without a copy. Decoding a
//! frame stamped with a continuation or a delta allocates nothing: the
//! kind, the body and a long packed entry list are views of the received
//! buffer, a short list is copied inline (only a full matrix is copied out
//! to the heap).

use aaa_base::{AgentId, DomainId, MessageId, Result, ServerId};
use aaa_clocks::Stamp;
use bytes::Bytes;

use crate::wire::{Decoder, Encoder, Utf8Bytes};

/// A middleware message on one hop between two servers.
///
/// The routing header (`src_server`, `dest_server`) addresses the *ends* of
/// the journey; the causal stamp is relative to the domain shared by the
/// two servers of this hop and is re-created at every hop by the forwarding
/// router (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    /// Globally unique message identifier, assigned at the origin.
    pub id: MessageId,
    /// The agent that sent the notification.
    pub from_agent: AgentId,
    /// The agent the notification is addressed to.
    pub to_agent: AgentId,
    /// The server where the message entered the bus.
    pub src_server: ServerId,
    /// The server hosting the destination agent.
    pub dest_server: ServerId,
    /// The domain whose matrix clock stamped this hop.
    pub domain: DomainId,
    /// The causal stamp for this hop; `None` for unordered-QoS messages,
    /// which bypass the causal machinery entirely (the intro's CORBA
    /// Messaging "ordering policy" knob).
    pub stamp: Option<Stamp>,
    /// Application-level notification kind (the event name of the
    /// event/reaction pattern).
    pub kind: Utf8Bytes,
    /// Opaque notification body.
    pub body: Bytes,
}

impl WireMessage {
    /// The fixed-width header: message id (2 + 8), two agent ids (2 + 4
    /// each), source and destination servers and the domain (2 each).
    const HEADER_LEN: usize = 10 + 6 + 6 + 2 + 2 + 2;

    /// Encodes the message into one buffer of exactly
    /// [`WireMessage::encoded_len`] bytes, which becomes the frame without
    /// a copy.
    pub fn encode(&self) -> Bytes {
        let len = self.encoded_len();
        let mut e = Encoder::with_capacity(len);
        e.message_id(self.id);
        e.agent_id(self.from_agent);
        e.agent_id(self.to_agent);
        e.server_id(self.src_server);
        e.server_id(self.dest_server);
        e.domain_id(self.domain);
        e.stamp_opt(&self.stamp);
        e.string(&self.kind);
        e.bytes(&self.body);
        debug_assert_eq!(e.len(), len, "encoded_len and the encoding agree");
        e.finish()
    }

    /// Decodes a message produced by [`WireMessage::encode`]. The kind and
    /// the body are views of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Codec`] on truncation or malformed
    /// content.
    pub fn decode(buf: Bytes) -> Result<WireMessage> {
        let mut d = Decoder::new(buf);
        Ok(WireMessage {
            id: d.message_id()?,
            from_agent: d.agent_id()?,
            to_agent: d.agent_id()?,
            src_server: d.server_id()?,
            dest_server: d.server_id()?,
            domain: d.domain_id()?,
            stamp: d.stamp_opt()?,
            kind: d.utf8()?,
            body: d.bytes()?,
        })
    }

    /// Size of the encoded message in bytes, by arithmetic: the header, the
    /// stamp's tag and its own length ([`Stamp::encoded_len`], O(1)), and
    /// the kind and body with their `u32` length prefixes.
    pub fn encoded_len(&self) -> usize {
        let stamp = self.stamp.as_ref().map_or(0, Stamp::encoded_len);
        Self::HEADER_LEN + 1 + stamp + 4 + self.kind.len() + 4 + self.body.len()
    }
}

/// A relay acknowledgement: the home relay's commit of the handoffs it
/// took for one of its subscribers (DESIGN.md §17.4).
///
/// Travels as the body of an unordered `__relay_ack` notification from the
/// subscriber's home relay back to the relay that handed the entries off.
/// The ack is *cumulative*: `upto` commits every queued sequence number
/// `<= upto`, so a lost ack is healed by the next one rather than
/// retransmitted individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayAck {
    /// The subscriber whose durable queue is being committed.
    pub subscriber: AgentId,
    /// Highest contiguous relay sequence number received by the subscriber.
    pub upto: u64,
}

impl RelayAck {
    /// Encodes the ack to bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::with_capacity(6 + 8);
        e.agent_id(self.subscriber);
        e.u64(self.upto);
        e.finish()
    }

    /// Decodes an ack produced by [`RelayAck::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Codec`] on truncation.
    pub fn decode(buf: Bytes) -> Result<RelayAck> {
        let mut d = Decoder::new(buf);
        Ok(RelayAck {
            subscriber: d.agent_id()?,
            upto: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_clocks::{MatrixClock, PackedEntries, UpdateEntry};

    fn sample_message(stamp: Stamp) -> WireMessage {
        sample_message_opt(Some(stamp))
    }

    fn sample_message_opt(stamp: Option<Stamp>) -> WireMessage {
        WireMessage {
            id: MessageId::new(ServerId::new(3), 77),
            from_agent: AgentId::new(ServerId::new(3), 1),
            to_agent: AgentId::new(ServerId::new(9), 2),
            src_server: ServerId::new(3),
            dest_server: ServerId::new(9),
            domain: DomainId::new(1),
            stamp,
            kind: Utf8Bytes::from_static("ping"),
            body: Bytes::from_static(b"payload"),
        }
    }

    #[test]
    fn message_roundtrip_unordered() {
        let msg = sample_message_opt(None);
        let decoded = WireMessage::decode(msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        // Unordered frames are tiny: no matrix anywhere.
        assert!(msg.encoded_len() < 80);
    }

    #[test]
    fn message_roundtrip_full_stamp() {
        let mut m = MatrixClock::new(3);
        m.set(0, 1, 4);
        let msg = sample_message(Stamp::Full(m));
        let decoded = WireMessage::decode(msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn message_roundtrip_delta_stamp() {
        let msg = sample_message(Stamp::Delta(PackedEntries::new(&[UpdateEntry {
            row: 0,
            col: 1,
            value: 3,
        }])));
        let decoded = WireMessage::decode(msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        // Packed, the one entry is five bytes of stamp (count, row, run
        // length, column, value) where the fixed-width list took sixteen.
        let unstamped = sample_message_opt(None).encoded_len();
        assert_eq!(msg.encoded_len(), unstamped + 5);
        assert!(msg.encoded_len() < unstamped + 4 + UpdateEntry::WIRE_LEN);
    }

    #[test]
    fn stamp_dominates_frame_size_for_large_domains() {
        let small = sample_message(Stamp::Delta(PackedEntries::empty()));
        let big = sample_message(Stamp::Full(MatrixClock::new(50)));
        assert!(big.encoded_len() > 50 * 50 * 8);
        assert!(small.encoded_len() < 100);
    }

    #[test]
    fn garbage_rejected() {
        assert!(WireMessage::decode(Bytes::from_static(&[42])).is_err());
        assert!(WireMessage::decode(Bytes::new()).is_err());
    }

    #[test]
    fn relay_ack_roundtrip() {
        let ack = RelayAck {
            subscriber: AgentId::new(ServerId::new(7), 123),
            upto: u64::MAX - 1,
        };
        let decoded = RelayAck::decode(ack.encode()).unwrap();
        assert_eq!(decoded, ack);
    }

    #[test]
    fn relay_ack_truncation_rejected() {
        let full = RelayAck {
            subscriber: AgentId::new(ServerId::new(1), 2),
            upto: 3,
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                RelayAck::decode(full.slice(0..cut)).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
