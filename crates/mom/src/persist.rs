//! Crash-recovery images of an agent server.
//!
//! The paper's servers keep "a persistent image of the matrix on each
//! server in order to recover communication in case of failure" (§3), plus
//! persistent agents and transactional queues. We persist, per committed
//! channel/engine transaction:
//!
//! - every `DomainItem` (matrix clock state, including the Updates
//!   bookkeeping so the delta protocol resumes seamlessly);
//! - `QueueOUT`, the postponed queue and the engine's `QueueIN`;
//! - the link-layer state (next sequence numbers, unacknowledged frames,
//!   cumulative receive counters) so retransmission and duplicate
//!   suppression survive the crash;
//! - the message-id counter;
//! - each agent's state snapshot, inside the same blob so a single atomic
//!   `put` commits the whole transaction.

use std::collections::VecDeque;

use aaa_base::{Error, Result, ServerId, VTime};
use aaa_clocks::{CausalState, PendingStamp};
use aaa_net::wire::{Decoder, Encoder};
use aaa_net::LinkFrame;
use bytes::Bytes;

use crate::channel::{Envelope, Postponed};
use crate::domain_item::DomainItem;
use crate::message::{AgentMessage, DeliveryPolicy, Notification};

/// Persisted link-sender state toward one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LinkTxImage {
    pub peer: ServerId,
    pub next_seq: u64,
    pub unacked: Vec<LinkFrame>,
}

/// Persisted link-receiver state from one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkRxImage {
    pub peer: ServerId,
    pub cum_seq: u64,
}

/// The complete crash-recovery image of one server core.
#[derive(Debug)]
pub(crate) struct ServerImage {
    pub next_msg_seq: u64,
    pub items: Vec<DomainItem>,
    pub queue_out: VecDeque<Envelope>,
    pub postponed: Vec<Postponed>,
    pub engine_queue: Vec<AgentMessage>,
    pub links_tx: Vec<LinkTxImage>,
    pub links_rx: Vec<LinkRxImage>,
    /// Agent state snapshots `(local id, image)` — stored inside the same
    /// blob so one `put` commits the whole transaction atomically.
    pub agents: Vec<(u32, Vec<u8>)>,
    /// Store-and-forward relay registry (subscriptions, connectivity,
    /// handoff watermarks, receive-side dedup) — empty when no relay runs
    /// here. Queue *contents* live in their own segment files; this blob
    /// only names them (DESIGN.md §17). Absent in pre-relay images.
    pub relay: Vec<u8>,
}

/// Least bytes one encoded element of each counted section occupies (its
/// fixed-width fields, every string and blob empty): what
/// [`Decoder::count`] holds a section's count against, so that a corrupt
/// image is an [`Error::Codec`] and not an allocation failure during
/// recovery.
mod min_len {
    /// Message id (2 + 8), two agent ids (6 each), two server ids, the
    /// policy byte, two length prefixes.
    pub(super) const ENVELOPE: usize = 10 + 6 + 6 + 2 + 2 + 1 + 4 + 4;
    /// Message id, two agent ids, two length prefixes.
    pub(super) const AGENT_MESSAGE: usize = 10 + 6 + 6 + 4 + 4;
    /// Domain id, own index, member count, clock length prefix.
    pub(super) const ITEM: usize = 2 + 2 + 4 + 4;
    pub(super) const SERVER_ID: usize = 2;
    /// Item index, sender, arrival instant, pending length prefix, envelope.
    pub(super) const POSTPONED: usize = 4 + 2 + 8 + 4 + ENVELOPE;
    /// Peer, next sequence number, frame count.
    pub(super) const LINK_TX: usize = 2 + 8 + 4;
    /// Sequence number, payload length prefix.
    pub(super) const FRAME: usize = 8 + 4;
    /// Peer, cumulative sequence number.
    pub(super) const LINK_RX: usize = 2 + 8;
    /// Local id, image length prefix.
    pub(super) const AGENT: usize = 4 + 4;
}

fn encode_envelope(e: &mut Encoder, env: &Envelope) {
    e.message_id(env.id);
    e.agent_id(env.from);
    e.agent_id(env.to);
    e.server_id(env.src);
    e.server_id(env.dest);
    e.u8(match env.policy {
        DeliveryPolicy::Causal => 0,
        DeliveryPolicy::Unordered => 1,
    });
    e.string(env.note.kind());
    e.bytes(env.note.body());
}

fn decode_envelope(d: &mut Decoder) -> Result<Envelope> {
    Ok(Envelope {
        id: d.message_id()?,
        from: d.agent_id()?,
        to: d.agent_id()?,
        src: d.server_id()?,
        dest: d.server_id()?,
        policy: match d.u8()? {
            0 => DeliveryPolicy::Causal,
            1 => DeliveryPolicy::Unordered,
            p => return Err(Error::Codec(format!("unknown delivery policy {p}"))),
        },
        note: {
            let kind = d.string()?;
            let body = d.bytes()?;
            Notification::new(kind, body)
        },
    })
}

fn encode_agent_message(e: &mut Encoder, m: &AgentMessage) {
    e.message_id(m.id);
    e.agent_id(m.from);
    e.agent_id(m.to);
    e.string(m.note.kind());
    e.bytes(m.note.body());
}

fn decode_agent_message(d: &mut Decoder) -> Result<AgentMessage> {
    Ok(AgentMessage {
        id: d.message_id()?,
        from: d.agent_id()?,
        to: d.agent_id()?,
        note: {
            let kind = d.string()?;
            let body = d.bytes()?;
            Notification::new(kind, body)
        },
    })
}

impl ServerImage {
    /// Encodes the image to bytes.
    pub(crate) fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        e.u64(self.next_msg_seq);

        e.count(self.items.len());
        for item in &self.items {
            e.domain_id(item.domain_id());
            e.u16(item.me().as_u16());
            e.count(item.id_table().len());
            for s in item.id_table() {
                e.server_id(*s);
            }
            let mut clock_bytes = Vec::new();
            item.clock().write_bytes(&mut clock_bytes);
            e.bytes(&clock_bytes);
        }

        e.count(self.queue_out.len());
        for env in &self.queue_out {
            encode_envelope(&mut e, env);
        }

        e.count(self.postponed.len());
        for p in &self.postponed {
            // `item_idx` indexes `items`, so it fits whenever the item
            // count does; `count` keeps the narrowing checked.
            e.count(p.item_idx);
            e.u16(p.from.as_u16());
            e.u64(p.arrived_at.as_micros());
            let mut m = Vec::new();
            p.pending.write_bytes(&mut m);
            e.bytes(&m);
            encode_envelope(&mut e, &p.env);
        }

        e.count(self.engine_queue.len());
        for m in &self.engine_queue {
            encode_agent_message(&mut e, m);
        }

        e.count(self.links_tx.len());
        for link in &self.links_tx {
            e.server_id(link.peer);
            e.u64(link.next_seq);
            e.count(link.unacked.len());
            for f in &link.unacked {
                e.u64(f.seq);
                e.bytes(&f.payload);
            }
        }

        e.count(self.links_rx.len());
        for link in &self.links_rx {
            e.server_id(link.peer);
            e.u64(link.cum_seq);
        }

        e.count(self.agents.len());
        for (local, image) in &self.agents {
            e.u32(*local);
            e.bytes(image);
        }

        e.bytes(&self.relay);

        e.finish()
    }

    /// Decodes an image written by [`ServerImage::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on truncation or structural corruption.
    pub(crate) fn decode(bytes: Bytes) -> Result<ServerImage> {
        let mut d = Decoder::new(bytes);
        let next_msg_seq = d.u64()?;

        let n_items = d.count(min_len::ITEM)?;
        let mut items = Vec::with_capacity(n_items);
        for _ in 0..n_items {
            let domain = d.domain_id()?;
            let me = aaa_base::DomainServerId::new(d.u16()?);
            let n_members = d.count(min_len::SERVER_ID)?;
            let mut id_table = Vec::with_capacity(n_members);
            for _ in 0..n_members {
                id_table.push(d.server_id()?);
            }
            let clock_bytes = d.bytes()?;
            let (clock, used) = CausalState::read_bytes(&clock_bytes)
                .ok_or_else(|| Error::Codec("corrupt causal state image".into()))?;
            if used != clock_bytes.len() {
                return Err(Error::Codec("trailing bytes in causal state".into()));
            }
            items.push(DomainItem::from_parts(domain, me, id_table, clock));
        }

        let n_out = d.count(min_len::ENVELOPE)?;
        let mut queue_out = VecDeque::with_capacity(n_out);
        for _ in 0..n_out {
            queue_out.push_back(decode_envelope(&mut d)?);
        }

        let n_post = d.count(min_len::POSTPONED)?;
        let mut postponed = Vec::with_capacity(n_post);
        for _ in 0..n_post {
            let item_idx = d.u32()? as usize;
            if item_idx >= items.len() {
                return Err(Error::Codec("postponed item index out of range".into()));
            }
            let from = d.domain_server_id()?;
            let arrived_at = VTime::from_micros(d.u64()?);
            let m_bytes = d.bytes()?;
            let pending = match PendingStamp::read_bytes(&m_bytes) {
                Some((pending, used)) if used == m_bytes.len() => pending,
                _ => return Err(Error::Codec("corrupt pending stamp".into())),
            };
            // The pump indexes the item's clock with whatever this entry
            // holds: a sender or cell outside the domain must stop here.
            items[item_idx].clock().check_pending(from, &pending)?;
            let env = decode_envelope(&mut d)?;
            postponed.push(Postponed {
                item_idx,
                from,
                pending,
                env,
                arrived_at,
            });
        }

        let n_in = d.count(min_len::AGENT_MESSAGE)?;
        let mut engine_queue = Vec::with_capacity(n_in);
        for _ in 0..n_in {
            engine_queue.push(decode_agent_message(&mut d)?);
        }

        let n_tx = d.count(min_len::LINK_TX)?;
        let mut links_tx = Vec::with_capacity(n_tx);
        for _ in 0..n_tx {
            let peer = d.server_id()?;
            let next_seq = d.u64()?;
            let n_frames = d.count(min_len::FRAME)?;
            let mut unacked = Vec::with_capacity(n_frames);
            for _ in 0..n_frames {
                let seq = d.u64()?;
                let payload = d.bytes()?;
                unacked.push(LinkFrame { seq, payload });
            }
            links_tx.push(LinkTxImage {
                peer,
                next_seq,
                unacked,
            });
        }

        let n_rx = d.count(min_len::LINK_RX)?;
        let mut links_rx = Vec::with_capacity(n_rx);
        for _ in 0..n_rx {
            let peer = d.server_id()?;
            let cum_seq = d.u64()?;
            links_rx.push(LinkRxImage { peer, cum_seq });
        }

        let n_agents = d.count(min_len::AGENT)?;
        let mut agents = Vec::with_capacity(n_agents);
        for _ in 0..n_agents {
            let local = d.u32()?;
            let image = d.bytes()?;
            agents.push((local, image.to_vec()));
        }

        // Pre-relay images end here; treat the missing field as empty.
        let relay = if d.remaining() > 0 {
            d.bytes()?.to_vec()
        } else {
            Vec::new()
        };

        Ok(ServerImage {
            next_msg_seq,
            items,
            queue_out,
            postponed,
            engine_queue,
            links_tx,
            links_rx,
            agents,
            relay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_base::{AgentId, DomainId, DomainServerId, MessageId};
    use aaa_clocks::{Batching, Stamp, StampMode, UpdateEntry};

    /// The pending stamp server 0 of a 3-wide Updates domain holds for a
    /// first frame from server 1 carrying `extra` besides the link cell.
    fn pending_from_1(extra: &[UpdateEntry]) -> PendingStamp {
        let mut entries = vec![UpdateEntry {
            row: 1,
            col: 0,
            value: 1,
        }];
        entries.extend_from_slice(extra);
        CausalState::new(DomainServerId::new(0), 3, StampMode::Updates)
            .on_frame(DomainServerId::new(1), Stamp::Delta(entries))
    }

    fn sample_image() -> ServerImage {
        let clock = CausalState::new(DomainServerId::new(0), 3, StampMode::Updates);
        let item = DomainItem::from_parts(
            DomainId::new(1),
            DomainServerId::new(0),
            vec![ServerId::new(0), ServerId::new(2), ServerId::new(4)],
            clock,
        );
        let env = Envelope {
            id: MessageId::new(ServerId::new(0), 9),
            from: AgentId::new(ServerId::new(0), 1),
            to: AgentId::new(ServerId::new(4), 2),
            src: ServerId::new(0),
            dest: ServerId::new(4),
            note: Notification::new("k", b"body".to_vec()),
            policy: DeliveryPolicy::Causal,
        };
        let post = Postponed {
            item_idx: 0,
            from: DomainServerId::new(1),
            pending: pending_from_1(&[]),
            env: env.clone(),
            arrived_at: VTime::from_micros(1_234),
        };
        let am = AgentMessage {
            id: env.id,
            from: env.from,
            to: env.to,
            note: env.note.clone(),
        };
        ServerImage {
            next_msg_seq: 17,
            items: vec![item],
            queue_out: VecDeque::from([env]),
            postponed: vec![post],
            engine_queue: vec![am],
            links_tx: vec![LinkTxImage {
                peer: ServerId::new(2),
                next_seq: 5,
                unacked: vec![LinkFrame {
                    seq: 4,
                    payload: Bytes::from_static(b"frame"),
                }],
            }],
            links_rx: vec![LinkRxImage {
                peer: ServerId::new(2),
                cum_seq: 7,
            }],
            agents: vec![(1, b"agent-state".to_vec())],
            relay: b"relay-registry".to_vec(),
        }
    }

    #[test]
    fn image_roundtrip() {
        let img = sample_image();
        let decoded = ServerImage::decode(img.encode()).unwrap();
        assert_eq!(decoded.next_msg_seq, 17);
        assert_eq!(decoded.items.len(), 1);
        assert_eq!(decoded.items[0].domain_id(), DomainId::new(1));
        assert_eq!(decoded.items[0].id_table().len(), 3);
        assert_eq!(decoded.queue_out.len(), 1);
        assert_eq!(decoded.queue_out[0].note.kind(), "k");
        assert_eq!(decoded.postponed.len(), 1);
        assert_eq!(decoded.postponed[0].from, DomainServerId::new(1));
        assert_eq!(decoded.postponed[0].arrived_at, VTime::from_micros(1_234));
        assert_eq!(decoded.engine_queue.len(), 1);
        assert_eq!(decoded.links_tx[0].unacked[0].seq, 4);
        assert_eq!(decoded.links_rx[0].cum_seq, 7);
        assert_eq!(decoded.agents, vec![(1, b"agent-state".to_vec())]);
        assert_eq!(decoded.relay, b"relay-registry".to_vec());
    }

    #[test]
    fn pre_relay_image_decodes_with_empty_registry() {
        // An image written before the relay field existed ends right after
        // the agents section; decoding must default the registry to empty
        // rather than erroring.
        let img = sample_image();
        let full = img.encode();
        let legacy = full.slice(0..full.len() - 4 - b"relay-registry".len());
        let decoded = ServerImage::decode(legacy).unwrap();
        assert!(decoded.relay.is_empty());
        assert_eq!(decoded.agents, vec![(1, b"agent-state".to_vec())]);
    }

    #[test]
    fn active_clock_survives_journal_in_every_mode() {
        // The journal must round-trip the clock's bookkeeping in every
        // stamp mode — including mid-batch GroupNext state and the Hybrid
        // knowledge model, which follows the shared fields in the image.
        for mode in StampMode::ALL {
            let mut a = CausalState::new(DomainServerId::new(0), 3, mode);
            let mut b = CausalState::new(DomainServerId::new(1), 3, mode);
            for _ in 0..2 {
                let s = a.stamp_send(DomainServerId::new(1), Batching::Grouped);
                let p = b.on_frame(DomainServerId::new(0), s);
                b.deliver(DomainServerId::new(0), &p);
            }
            let mut img = sample_image();
            img.items = vec![DomainItem::from_parts(
                DomainId::new(1),
                DomainServerId::new(0),
                vec![ServerId::new(0), ServerId::new(2), ServerId::new(4)],
                a.clone(),
            )];
            img.postponed.clear();
            let decoded = ServerImage::decode(img.encode()).unwrap();
            assert_eq!(decoded.items[0].clock(), &a, "{mode}");

            // The recovered clock continues the open batch where the
            // original left off.
            let mut recovered = decoded.items[0].clock().clone();
            let s = recovered.stamp_send(DomainServerId::new(1), Batching::Grouped);
            assert!(s.is_group_next(), "{mode}: batch must survive recovery");
            let p = b.on_frame(DomainServerId::new(0), s);
            assert!(b.can_deliver(DomainServerId::new(0), &p), "{mode}");
        }
    }

    #[test]
    fn truncated_image_rejected() {
        let img = sample_image();
        let bytes = img.encode();
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            let cutbytes = bytes.slice(0..cut);
            assert!(
                ServerImage::decode(cutbytes).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn section_count_is_bounded_by_the_bytes_present() {
        // The item count sits right after the 8-byte message counter. A
        // corrupt store must fail recovery with an error, not abort the
        // process on a 4-billion-element reservation.
        let mut bytes = sample_image().encode().to_vec();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ServerImage::decode(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
    }

    #[test]
    fn minimal_elements_pass_the_section_bounds() {
        // 64 elements with every string and blob empty, in an image whose
        // later sections are empty too (under 64 bytes of counts): a
        // declared minimum even one byte above what the encoder writes
        // would refuse the section. (A postponed entry's pending stamp is
        // never empty; its minimum counts only the length prefix.)
        const K: usize = 64;
        let sample = sample_image();
        let empty = Notification::new("", Vec::new());
        let env = Envelope {
            note: empty.clone(),
            ..sample.queue_out[0].clone()
        };
        let fills: [fn(&mut ServerImage, &Envelope); 7] = [
            |img, env| img.queue_out = vec![env.clone(); K].into(),
            |img, env| {
                img.postponed = (0..K)
                    .map(|_| Postponed {
                        item_idx: 0,
                        from: DomainServerId::new(1),
                        pending: pending_from_1(&[]),
                        env: env.clone(),
                        arrived_at: VTime::ZERO,
                    })
                    .collect();
            },
            |img, env| {
                img.engine_queue = (0..K)
                    .map(|_| AgentMessage {
                        id: env.id,
                        from: env.from,
                        to: env.to,
                        note: env.note.clone(),
                    })
                    .collect();
            },
            |img, _| {
                img.links_tx = vec![
                    LinkTxImage {
                        peer: ServerId::new(2),
                        next_seq: 1,
                        unacked: Vec::new(),
                    };
                    K
                ];
            },
            |img, _| {
                let frame = LinkFrame {
                    seq: 1,
                    payload: Bytes::new(),
                };
                img.links_tx = vec![LinkTxImage {
                    peer: ServerId::new(2),
                    next_seq: 1,
                    unacked: vec![frame; K],
                }];
            },
            |img, _| {
                img.links_rx = vec![
                    LinkRxImage {
                        peer: ServerId::new(2),
                        cum_seq: 0,
                    };
                    K
                ];
            },
            |img, _| img.agents = vec![(1, Vec::new()); K],
        ];
        for (section, fill) in fills.iter().enumerate() {
            let mut img = ServerImage {
                queue_out: VecDeque::new(),
                postponed: Vec::new(),
                engine_queue: Vec::new(),
                links_tx: Vec::new(),
                links_rx: Vec::new(),
                agents: Vec::new(),
                relay: Vec::new(),
                ..sample_image()
            };
            fill(&mut img, &env);
            let bytes = img.encode();
            let decoded = ServerImage::decode(bytes.clone())
                .unwrap_or_else(|e| panic!("section {section}: {e}"));
            assert_eq!(decoded.encode(), bytes, "section {section}");
        }
    }

    #[test]
    fn out_of_range_postponed_index_rejected() {
        let mut img = sample_image();
        img.postponed[0].item_idx = 99;
        assert!(ServerImage::decode(img.encode()).is_err());
    }

    #[test]
    fn postponed_entry_outside_its_clocks_domain_is_rejected() {
        // Recovery feeds every postponed entry to its item's `can_deliver`
        // on the first pump; one that does not fit the 3-wide clock must be
        // a decode error, not a panic (or a wrong cell) after `Ok`.
        let decoded = ServerImage::decode(sample_image().encode()).unwrap();
        let p = &decoded.postponed[0];
        assert_eq!(p.pending, pending_from_1(&[]));
        assert!(decoded.items[0].clock().can_deliver(p.from, &p.pending));

        let mut img = sample_image();
        img.postponed[0].from = DomainServerId::new(3);
        let err = ServerImage::decode(img.encode()).unwrap_err();
        assert!(err.to_string().contains("sender out of range"), "{err}");

        for (row, col) in [(3, 0), (0, 7)] {
            let mut img = sample_image();
            img.postponed[0].pending = pending_from_1(&[UpdateEntry { row, col, value: 1 }]);
            let err = ServerImage::decode(img.encode()).unwrap_err();
            assert!(err.to_string().contains("outside domain of 3"), "{err}");
        }

        // A full-matrix pending of another width, as a 4-wide Full clock
        // would have written it.
        let mut wide = CausalState::new(DomainServerId::new(1), 4, StampMode::Full);
        let stamp = wide.stamp_send(DomainServerId::new(0), Batching::Single);
        let mut img = sample_image();
        img.postponed[0].pending = CausalState::new(DomainServerId::new(0), 4, StampMode::Full)
            .on_frame(DomainServerId::new(1), stamp);
        let err = ServerImage::decode(img.encode()).unwrap_err();
        assert!(err.to_string().contains("matrix width 4"), "{err}");
    }
}
