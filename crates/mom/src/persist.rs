//! Crash-recovery state of an agent server: checkpoints and state records
//! (DESIGN.md §17.1).
//!
//! The paper's servers keep "a persistent image of the matrix on each
//! server in order to recover communication in case of failure" (§3), plus
//! persistent agents and transactional queues. Here that image has two
//! forms:
//!
//! - a **checkpoint**, [`ServerImage`]: the whole state — every
//!   `DomainItem` (matrix clock state, including the Updates bookkeeping so
//!   the delta protocol resumes seamlessly), `QueueOUT`, the postponed
//!   queue and the engine's `QueueIN`, the link-layer state (next sequence
//!   numbers, unacknowledged frames, cumulative receive counters) so
//!   retransmission and duplicate suppression survive the crash, the
//!   message-id counter, each agent's snapshot, and the relay's receive
//!   watermarks and registry — tagged with the sequence number of the last
//!   state record it covers and sealed by a CRC-32C;
//! - a **state record**, [`StateRecord`]: what one committed step changed —
//!   the link frames it sent and the link watermarks that moved, the
//!   snapshots of the agents that reacted, the clocks it touched, the
//!   message-id counter, the (between steps, empty) queues, and the relay
//!   watermarks and registry keys it changed.
//!
//! A server with a durable relay journal appends one state record per step
//! to the journal's state stream, where the step's one `fdatasync` makes it
//! durable together with the relay's records, and writes a checkpoint only
//! when the journal compacts or the records since the last checkpoint
//! outgrow it. Any other persisting server writes a checkpoint every step.
//! Recovery decodes the checkpoint and [applies](ServerImage::apply) every
//! later record to it, in order.

use std::collections::VecDeque;

use aaa_base::{AgentId, Error, Result, ServerId, VTime};
use aaa_clocks::{CausalState, PendingStamp};
use aaa_net::wire::{Decoder, Encoder};
use aaa_net::LinkFrame;
use aaa_storage::crc32c;
use bytes::Bytes;

use crate::channel::{Envelope, Postponed};
use crate::domain_item::DomainItem;
use crate::message::{AgentMessage, DeliveryPolicy, Notification};
use crate::relay::Registry;

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

/// How the sending half of one link moved since the last state record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LinkTxDelta {
    pub peer: ServerId,
    pub next_seq: u64,
    /// Every frame up to this sequence number is acknowledged.
    pub acked: u64,
    /// The frames sent since the last record, oldest first.
    pub sent: Vec<LinkFrame>,
}

/// The relay receive-side dedup watermarks: the highest relay sequence
/// accepted per `(subscriber, relay server)`, in key order.
pub(crate) type DeliverRx = Vec<((AgentId, ServerId), u64)>;

/// Agent state snapshots `(local id, image)`, by local id.
pub(crate) type Agents = Vec<(u32, Vec<u8>)>;

/// The checkpoint: the complete crash-recovery image of one server core.
#[derive(Debug)]
pub(crate) struct ServerImage {
    /// The last state record this checkpoint covers (0 = none).
    pub state_seq: u64,
    pub next_msg_seq: u64,
    pub items: Vec<DomainItem>,
    pub queue_out: VecDeque<Envelope>,
    pub postponed: Vec<Postponed>,
    pub engine_queue: Vec<AgentMessage>,
    pub links_tx: Vec<LinkTxImage>,
    pub links_rx: Vec<LinkRxImage>,
    pub agents: Agents,
    pub deliver_rx: DeliverRx,
    /// Store-and-forward relay registry (subscriptions, connectivity,
    /// handoff watermarks); empty when no relay runs here. Queue
    /// *contents* live in the relay's journal (DESIGN.md §17).
    pub relay: Registry,
}

/// What one committed step changed: applied to the state before the step
/// by [`ServerImage::apply`], it gives the state after it.
#[derive(Debug)]
pub(crate) struct StateRecord {
    pub next_msg_seq: u64,
    /// The clocks the step touched, by item index.
    pub items: Vec<(usize, CausalState)>,
    pub queue_out: VecDeque<Envelope>,
    pub postponed: Vec<Postponed>,
    pub engine_queue: Vec<AgentMessage>,
    pub links_tx: Vec<LinkTxDelta>,
    /// The receive watermarks that moved.
    pub links_rx: Vec<LinkRxImage>,
    /// Snapshots of the agents that reacted or registered.
    pub agents: Agents,
    /// The dedup watermarks that moved.
    pub deliver_rx: DeliverRx,
    /// The registry keys that changed ([`Registry::apply`]).
    pub relay: Registry,
}

/// Bytes of a state record with every section empty: the message counter
/// and eleven section counts.
const MIN_RECORD: usize = 8 + 11 * 4;

/// Bytes of a checkpoint with every section empty: the covered state
/// sequence, the message counter, eleven section counts and the checksum.
const MIN_CHECKPOINT: usize = 8 + 8 + 11 * 4 + 4;

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
    /// Item index, clock length prefix.
    pub(super) const ITEM_CHANGE: usize = 4 + 4;
    pub(super) const SERVER_ID: usize = 2;
    /// Item index, sender, arrival instant, pending length prefix, envelope.
    pub(super) const POSTPONED: usize = 4 + 2 + 8 + 4 + ENVELOPE;
    /// Peer, next sequence number, frame count.
    pub(super) const LINK_TX: usize = 2 + 8 + 4;
    /// Peer, next sequence number, ack watermark, frame count.
    pub(super) const LINK_TX_DELTA: usize = 2 + 8 + 8 + 4;
    /// Sequence number, payload length prefix.
    pub(super) const FRAME: usize = 8 + 4;
    /// Peer, cumulative sequence number.
    pub(super) const LINK_RX: usize = 2 + 8;
    /// Local id, image length prefix.
    pub(super) const AGENT: usize = 4 + 4;
    /// Subscriber, relay server, watermark.
    pub(super) const DELIVER_RX: usize = 6 + 2 + 8;
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

fn encode_clock(e: &mut Encoder, clock: &CausalState) {
    let mut bytes = Vec::new();
    clock.write_bytes(&mut bytes);
    e.bytes(&bytes);
}

fn decode_clock(d: &mut Decoder) -> Result<CausalState> {
    let bytes = d.bytes()?;
    match CausalState::read_bytes(&bytes) {
        Some((clock, used)) if used == bytes.len() => Ok(clock),
        Some(_) => Err(Error::Codec("trailing bytes in causal state".into())),
        None => Err(Error::Codec("corrupt causal state image".into())),
    }
}

/// `QueueOUT`, the postponed queue and `QueueIN`: the sections a
/// checkpoint and a state record both carry whole.
fn encode_queues(
    e: &mut Encoder,
    queue_out: &VecDeque<Envelope>,
    postponed: &[Postponed],
    engine_queue: &[AgentMessage],
) {
    e.count(queue_out.len());
    for env in queue_out {
        encode_envelope(e, env);
    }
    e.count(postponed.len());
    for p in postponed {
        // `item_idx` indexes `items`, so it fits whenever the item count
        // does; `count` keeps the narrowing checked.
        e.count(p.item_idx);
        e.u16(p.from.as_u16());
        e.u64(p.arrived_at.as_micros());
        let mut m = Vec::new();
        p.pending.write_bytes(&mut m);
        e.bytes(&m);
        encode_envelope(e, &p.env);
    }
    e.count(engine_queue.len());
    for m in engine_queue {
        encode_agent_message(e, m);
    }
}

type Queues = (VecDeque<Envelope>, Vec<Postponed>, Vec<AgentMessage>);

/// Decodes [`encode_queues`]; the postponed entries are checked against
/// and tied to their items by [`check_postponed`].
fn decode_queues(d: &mut Decoder) -> Result<Queues> {
    let mut queue_out = VecDeque::new();
    for _ in 0..d.count(min_len::ENVELOPE)? {
        queue_out.push_back(decode_envelope(d)?);
    }
    let mut postponed = Vec::new();
    for _ in 0..d.count(min_len::POSTPONED)? {
        let item_idx = d.u32()? as usize;
        let from = d.domain_server_id()?;
        let arrived_at = VTime::from_micros(d.u64()?);
        let m_bytes = d.bytes()?;
        let pending = match PendingStamp::read_bytes(&m_bytes) {
            Some((pending, used)) if used == m_bytes.len() => pending,
            _ => return Err(Error::Codec("corrupt pending stamp".into())),
        };
        let env = decode_envelope(d)?;
        postponed.push(Postponed {
            item_idx,
            from,
            pending,
            env,
            arrived_at,
        });
    }
    let mut engine_queue = Vec::new();
    for _ in 0..d.count(min_len::AGENT_MESSAGE)? {
        engine_queue.push(decode_agent_message(d)?);
    }
    Ok((queue_out, postponed, engine_queue))
}

/// The pump indexes an item's clock with whatever a postponed entry
/// holds: an index, sender or cell outside the domain must stop here.
/// Each pending that fits is tied to its item's clock.
fn check_postponed(items: &[DomainItem], postponed: &mut [Postponed]) -> Result<()> {
    for p in postponed {
        let item = items
            .get(p.item_idx)
            .ok_or_else(|| Error::Codec("postponed item index out of range".into()))?;
        item.clock().adopt_pending(p.from, &mut p.pending)?;
    }
    Ok(())
}

fn encode_frames(e: &mut Encoder, frames: &[LinkFrame]) {
    e.count(frames.len());
    for f in frames {
        e.u64(f.seq);
        e.bytes(&f.payload);
    }
}

fn decode_frames(d: &mut Decoder) -> Result<Vec<LinkFrame>> {
    let mut frames = Vec::new();
    for _ in 0..d.count(min_len::FRAME)? {
        let seq = d.u64()?;
        let payload = d.bytes()?;
        frames.push(LinkFrame { seq, payload });
    }
    Ok(frames)
}

fn encode_links_rx(e: &mut Encoder, links: &[LinkRxImage]) {
    e.count(links.len());
    for link in links {
        e.server_id(link.peer);
        e.u64(link.cum_seq);
    }
}

fn decode_links_rx(d: &mut Decoder) -> Result<Vec<LinkRxImage>> {
    let mut links = Vec::new();
    for _ in 0..d.count(min_len::LINK_RX)? {
        let peer = d.server_id()?;
        let cum_seq = d.u64()?;
        links.push(LinkRxImage { peer, cum_seq });
    }
    Ok(links)
}

/// The agent snapshots, the relay dedup watermarks and the registry: the
/// last three sections of a checkpoint and of a state record.
fn encode_tail(
    e: &mut Encoder,
    agents: &[(u32, Vec<u8>)],
    deliver_rx: &DeliverRx,
    relay: &Registry,
) {
    e.count(agents.len());
    for (local, image) in agents {
        e.u32(*local);
        e.bytes(image);
    }
    e.count(deliver_rx.len());
    for ((sub, srv), upto) in deliver_rx {
        e.agent_id(*sub);
        e.server_id(*srv);
        e.u64(*upto);
    }
    relay.encode(e);
}

/// Decodes [`encode_tail`] and requires it to end the input.
fn decode_tail(d: &mut Decoder) -> Result<(Agents, DeliverRx, Registry)> {
    let mut agents = Vec::new();
    for _ in 0..d.count(min_len::AGENT)? {
        let local = d.u32()?;
        agents.push((local, d.bytes()?.to_vec()));
    }
    let mut deliver_rx = Vec::new();
    for _ in 0..d.count(min_len::DELIVER_RX)? {
        let key = (d.agent_id()?, d.server_id()?);
        deliver_rx.push((key, d.u64()?));
    }
    let relay = Registry::decode(d)?;
    if d.remaining() > 0 {
        return Err(Error::Codec(format!(
            "{} trailing bytes after the registry",
            d.remaining()
        )));
    }
    Ok((agents, deliver_rx, relay))
}

/// Inserts or replaces `value` under `key` in a vector kept in key order.
fn upsert<K: Ord, V>(sorted: &mut Vec<(K, V)>, key: K, value: V) {
    match sorted.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(at) => sorted[at].1 = value,
        Err(at) => sorted.insert(at, (key, value)),
    }
}

impl ServerImage {
    /// Encodes the checkpoint, sealed by the CRC-32C of everything before
    /// it.
    pub(crate) fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        e.u64(self.state_seq);
        e.u64(self.next_msg_seq);
        e.count(self.items.len());
        for item in &self.items {
            e.domain_id(item.domain_id());
            e.u16(item.me().as_u16());
            e.count(item.id_table().len());
            for s in item.id_table() {
                e.server_id(*s);
            }
            encode_clock(&mut e, item.clock());
        }
        encode_queues(&mut e, &self.queue_out, &self.postponed, &self.engine_queue);
        e.count(self.links_tx.len());
        for link in &self.links_tx {
            e.server_id(link.peer);
            e.u64(link.next_seq);
            encode_frames(&mut e, &link.unacked);
        }
        encode_links_rx(&mut e, &self.links_rx);
        encode_tail(&mut e, &self.agents, &self.deliver_rx, &self.relay);
        let mut sealed = e.into_vec();
        let crc = crc32c(&sealed);
        sealed.extend_from_slice(&crc.to_le_bytes());
        Bytes::from(sealed)
    }

    /// Decodes a checkpoint written by [`ServerImage::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on a checksum mismatch, truncation or
    /// structural corruption.
    pub(crate) fn decode(bytes: Bytes) -> Result<ServerImage> {
        if bytes.len() < MIN_CHECKPOINT {
            return Err(Error::Codec("checkpoint shorter than an empty one".into()));
        }
        let body = bytes.slice(0..bytes.len() - 4);
        let sealed = bytes.get(body.len()..).and_then(|c| c.try_into().ok());
        if sealed.map(u32::from_le_bytes) != Some(crc32c(&body)) {
            return Err(Error::Codec("checkpoint checksum mismatch".into()));
        }
        let mut d = Decoder::new(body);
        let state_seq = d.u64()?;
        let next_msg_seq = d.u64()?;
        let mut items = Vec::new();
        for _ in 0..d.count(min_len::ITEM)? {
            let domain = d.domain_id()?;
            let me = aaa_base::DomainServerId::new(d.u16()?);
            let mut id_table = Vec::new();
            for _ in 0..d.count(min_len::SERVER_ID)? {
                id_table.push(d.server_id()?);
            }
            let clock = decode_clock(&mut d)?;
            items.push(DomainItem::from_parts(domain, me, id_table, clock));
        }
        let (queue_out, mut postponed, engine_queue) = decode_queues(&mut d)?;
        check_postponed(&items, &mut postponed)?;
        let mut links_tx = Vec::new();
        for _ in 0..d.count(min_len::LINK_TX)? {
            let peer = d.server_id()?;
            let next_seq = d.u64()?;
            let unacked = decode_frames(&mut d)?;
            links_tx.push(LinkTxImage {
                peer,
                next_seq,
                unacked,
            });
        }
        let links_rx = decode_links_rx(&mut d)?;
        let (agents, deliver_rx, relay) = decode_tail(&mut d)?;
        Ok(ServerImage {
            state_seq,
            next_msg_seq,
            items,
            queue_out,
            postponed,
            engine_queue,
            links_tx,
            links_rx,
            agents,
            deliver_rx,
            relay,
        })
    }

    /// Applies one state record: the image becomes the state after the
    /// step that wrote it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the record does not fit the image: a
    /// clock for an item it does not have or of another shape, a
    /// postponed entry outside its domain, link frames out of sequence.
    pub(crate) fn apply(&mut self, mut record: StateRecord) -> Result<()> {
        self.next_msg_seq = record.next_msg_seq;
        for (idx, clock) in record.items {
            let item = self.items.get_mut(idx).ok_or_else(|| {
                Error::Codec(format!(
                    "state record names clock {idx} of a server with fewer"
                ))
            })?;
            let old = item.clock();
            if (clock.mode(), clock.me(), clock.n()) != (old.mode(), old.me(), old.n()) {
                return Err(Error::Codec(format!(
                    "state record changes the shape of clock {idx}"
                )));
            }
            *item = DomainItem::from_parts(
                item.domain_id(),
                item.me(),
                item.id_table().to_vec(),
                clock,
            );
        }
        check_postponed(&self.items, &mut record.postponed)?;
        self.queue_out = record.queue_out;
        self.postponed = record.postponed;
        self.engine_queue = record.engine_queue;
        for delta in record.links_tx {
            let at = match self.links_tx.iter().position(|l| l.peer == delta.peer) {
                Some(at) => at,
                None => {
                    self.links_tx.push(LinkTxImage {
                        peer: delta.peer,
                        next_seq: 1,
                        unacked: Vec::new(),
                    });
                    self.links_tx.len() - 1
                }
            };
            let link = &mut self.links_tx[at];
            link.unacked.retain(|f| f.seq > delta.acked);
            for frame in delta.sent {
                if frame.seq < link.next_seq || frame.seq >= delta.next_seq {
                    return Err(Error::Codec(format!(
                        "link frame {} to {} out of sequence",
                        frame.seq, delta.peer
                    )));
                }
                link.next_seq = frame.seq + 1;
                if frame.seq > delta.acked {
                    link.unacked.push(frame);
                }
            }
            link.next_seq = link.next_seq.max(delta.next_seq);
        }
        for rx in record.links_rx {
            match self.links_rx.iter_mut().find(|l| l.peer == rx.peer) {
                Some(link) => link.cum_seq = rx.cum_seq,
                None => self.links_rx.push(rx),
            }
        }
        for (local, snapshot) in record.agents {
            upsert(&mut self.agents, local, snapshot);
        }
        for (key, upto) in record.deliver_rx {
            upsert(&mut self.deliver_rx, key, upto);
        }
        self.relay.apply(record.relay);
        Ok(())
    }
}

impl StateRecord {
    /// Encodes the record.
    pub(crate) fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        e.u64(self.next_msg_seq);
        e.count(self.items.len());
        for (idx, clock) in &self.items {
            e.count(*idx);
            encode_clock(&mut e, clock);
        }
        encode_queues(&mut e, &self.queue_out, &self.postponed, &self.engine_queue);
        e.count(self.links_tx.len());
        for link in &self.links_tx {
            e.server_id(link.peer);
            e.u64(link.next_seq);
            e.u64(link.acked);
            encode_frames(&mut e, &link.sent);
        }
        encode_links_rx(&mut e, &self.links_rx);
        encode_tail(&mut e, &self.agents, &self.deliver_rx, &self.relay);
        e.finish()
    }

    /// Decodes a record written by [`StateRecord::encode`]. Whether it
    /// fits the state it applies to is [`ServerImage::apply`]'s to check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on truncation or structural corruption.
    pub(crate) fn decode(bytes: Bytes) -> Result<StateRecord> {
        if bytes.len() < MIN_RECORD {
            return Err(Error::Codec(
                "state record shorter than an empty one".into(),
            ));
        }
        let mut d = Decoder::new(bytes);
        let next_msg_seq = d.u64()?;
        let mut items = Vec::new();
        for _ in 0..d.count(min_len::ITEM_CHANGE)? {
            let idx = d.u32()? as usize;
            items.push((idx, decode_clock(&mut d)?));
        }
        let (queue_out, postponed, engine_queue) = decode_queues(&mut d)?;
        let mut links_tx = Vec::new();
        for _ in 0..d.count(min_len::LINK_TX_DELTA)? {
            let peer = d.server_id()?;
            let next_seq = d.u64()?;
            let acked = d.u64()?;
            let sent = decode_frames(&mut d)?;
            links_tx.push(LinkTxDelta {
                peer,
                next_seq,
                acked,
                sent,
            });
        }
        let links_rx = decode_links_rx(&mut d)?;
        let (agents, deliver_rx, relay) = decode_tail(&mut d)?;
        Ok(StateRecord {
            next_msg_seq,
            items,
            queue_out,
            postponed,
            engine_queue,
            links_tx,
            links_rx,
            agents,
            deliver_rx,
            relay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_base::{DomainId, DomainServerId, MessageId};
    use aaa_clocks::{Batching, PackedEntries, Stamp, StampMode, UpdateEntry};
    use std::collections::BTreeSet;

    /// The pending stamp server 0 of a 3-wide Updates domain holds for a
    /// first frame from server 1 carrying `extra` besides the link cell.
    fn pending_from_1(extra: &[UpdateEntry]) -> PendingStamp {
        let mut entries = vec![UpdateEntry {
            row: 1,
            col: 0,
            value: 1,
        }];
        entries.extend_from_slice(extra);
        CausalState::new(DomainServerId::new(0), 3, StampMode::Updates).on_frame(
            DomainServerId::new(1),
            Stamp::Delta(PackedEntries::new(&entries)),
        )
    }

    fn sid(s: u16) -> ServerId {
        ServerId::new(s)
    }

    fn aid(s: u16, l: u32) -> AgentId {
        AgentId::new(sid(s), l)
    }

    fn sample_registry() -> Registry {
        Registry {
            topics: [(aid(0, 1), BTreeSet::from([aid(0, 2), aid(4, 3)]))].into(),
            subs: [(aid(0, 2), Some(true)), (aid(4, 3), Some(false))].into(),
            handoffs: [((sid(2), aid(0, 2)), 11)].into(),
        }
    }

    fn sample_image() -> ServerImage {
        let clock = CausalState::new(DomainServerId::new(0), 3, StampMode::Updates);
        let item = DomainItem::from_parts(
            DomainId::new(1),
            DomainServerId::new(0),
            vec![sid(0), sid(2), sid(4)],
            clock,
        );
        let env = Envelope {
            id: MessageId::new(sid(0), 9),
            from: aid(0, 1),
            to: aid(4, 2),
            src: sid(0),
            dest: sid(4),
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
            state_seq: 3,
            next_msg_seq: 17,
            items: vec![item],
            queue_out: VecDeque::from([env]),
            postponed: vec![post],
            engine_queue: vec![am],
            links_tx: vec![LinkTxImage {
                peer: sid(2),
                next_seq: 5,
                unacked: vec![LinkFrame {
                    seq: 4,
                    payload: Bytes::from_static(b"frame"),
                }],
            }],
            links_rx: vec![LinkRxImage {
                peer: sid(2),
                cum_seq: 7,
            }],
            agents: vec![(1, b"agent-state".to_vec())],
            deliver_rx: vec![((aid(0, 2), sid(4)), 6)],
            relay: sample_registry(),
        }
    }

    /// Recomputes the checksum of a checkpoint whose body a test patched.
    fn resealed(mut bytes: Vec<u8>) -> Bytes {
        let n = bytes.len() - 4;
        let crc = crc32c(&bytes[..n]);
        bytes[n..].copy_from_slice(&crc.to_le_bytes());
        Bytes::from(bytes)
    }

    #[test]
    fn image_roundtrip() {
        let img = sample_image();
        let decoded = ServerImage::decode(img.encode()).unwrap();
        assert_eq!(decoded.state_seq, 3);
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
        assert_eq!(decoded.links_tx, img.links_tx);
        assert_eq!(decoded.links_rx, img.links_rx);
        assert_eq!(decoded.agents, vec![(1, b"agent-state".to_vec())]);
        assert_eq!(decoded.deliver_rx, img.deliver_rx);
        assert_eq!(decoded.relay, sample_registry());
        assert_eq!(decoded.encode(), img.encode());
    }

    #[test]
    fn every_flipped_bit_fails_the_checksum() {
        let bytes = sample_image().encode().to_vec();
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            let err = ServerImage::decode(Bytes::from(flipped)).unwrap_err();
            assert_eq!(
                err,
                Error::Codec("checkpoint checksum mismatch".into()),
                "byte {at}"
            );
        }
    }

    #[test]
    fn active_clock_survives_journal_in_every_mode() {
        // The journal must round-trip the clock's bookkeeping in every
        // stamp mode — including mid-batch GroupNext state.
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
                vec![sid(0), sid(2), sid(4)],
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
        // The item count sits right after the covered state sequence and
        // the message counter. A corrupt store must fail recovery with an
        // error, not abort the process on a 4-billion-element reservation.
        let mut bytes = sample_image().encode().to_vec();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ServerImage::decode(resealed(bytes)).unwrap_err();
        assert!(
            matches!(err, Error::Codec(ref m) if m.contains("count")),
            "{err}"
        );
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
        let fills: [fn(&mut ServerImage, &Envelope); 11] = [
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
                        peer: sid(2),
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
                    peer: sid(2),
                    next_seq: 1,
                    unacked: vec![frame; K],
                }];
            },
            |img, _| {
                img.links_rx = vec![
                    LinkRxImage {
                        peer: sid(2),
                        cum_seq: 0,
                    };
                    K
                ];
            },
            |img, _| img.agents = vec![(1, Vec::new()); K],
            |img, _| img.deliver_rx = (0..K as u32).map(|l| ((aid(0, l), sid(1)), 1)).collect(),
            |img, _| {
                img.relay.topics = (0..K as u32)
                    .map(|l| (aid(0, l), BTreeSet::new()))
                    .collect();
            },
            |img, _| {
                let members = (0..K as u32).map(|l| aid(0, l)).collect();
                img.relay.topics = [(aid(0, 1), members)].into();
            },
            |img, _| {
                img.relay.subs = (0..K as u32).map(|l| (aid(0, l), None)).collect();
                img.relay.handoffs = (0..K as u32).map(|l| ((sid(1), aid(0, l)), 1)).collect();
            },
        ];
        for (section, fill) in fills.iter().enumerate() {
            let mut img = ServerImage {
                queue_out: VecDeque::new(),
                postponed: Vec::new(),
                engine_queue: Vec::new(),
                links_tx: Vec::new(),
                links_rx: Vec::new(),
                agents: Vec::new(),
                deliver_rx: Vec::new(),
                relay: Registry::default(),
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

    /// A record moving [`sample_image`] on by one step: a send on the
    /// clock, a frame acked and one sent, a first link to a new peer, the
    /// queues drained, an agent and the relay watermarks changed.
    fn sample_record() -> StateRecord {
        let mut clock = sample_image().items[0].clock().clone();
        let _ = clock.stamp_send(DomainServerId::new(1), Batching::Single);
        let frame = |seq| LinkFrame {
            seq,
            payload: Bytes::from(vec![seq as u8]),
        };
        StateRecord {
            next_msg_seq: 18,
            items: vec![(0, clock)],
            queue_out: VecDeque::new(),
            postponed: Vec::new(),
            engine_queue: Vec::new(),
            links_tx: vec![
                LinkTxDelta {
                    peer: sid(2),
                    next_seq: 6,
                    acked: 4,
                    sent: vec![frame(5)],
                },
                LinkTxDelta {
                    peer: sid(4),
                    next_seq: 3,
                    acked: 0,
                    sent: vec![frame(1), frame(2)],
                },
            ],
            links_rx: vec![LinkRxImage {
                peer: sid(4),
                cum_seq: 1,
            }],
            agents: vec![(0, b"new".to_vec()), (1, b"changed".to_vec())],
            deliver_rx: vec![((aid(0, 2), sid(4)), 7), ((aid(0, 9), sid(4)), 1)],
            relay: Registry {
                topics: [(aid(0, 1), BTreeSet::new())].into(),
                subs: [(aid(4, 3), None)].into(),
                handoffs: [((sid(2), aid(0, 2)), 12)].into(),
            },
        }
    }

    #[test]
    fn a_state_record_roundtrips_and_moves_the_image_one_step() {
        let record = sample_record();
        let bytes = record.encode();
        let decoded = StateRecord::decode(bytes.clone()).unwrap();
        assert_eq!(decoded.encode(), bytes);

        let mut img = sample_image();
        img.apply(decoded).unwrap();
        assert_eq!(img.next_msg_seq, 18);
        assert_eq!(img.items[0].clock(), &record.items[0].1);
        assert!(img.queue_out.is_empty() && img.postponed.is_empty());
        assert!(img.engine_queue.is_empty());
        let frames = |link: &LinkTxImage| link.unacked.iter().map(|f| f.seq).collect::<Vec<_>>();
        assert_eq!(
            (img.links_tx[0].next_seq, frames(&img.links_tx[0])),
            (6, vec![5])
        );
        assert_eq!(
            (img.links_tx[1].next_seq, frames(&img.links_tx[1])),
            (3, vec![1, 2])
        );
        assert_eq!(img.links_rx.len(), 2);
        assert_eq!(
            img.agents,
            vec![(0, b"new".to_vec()), (1, b"changed".to_vec())]
        );
        assert_eq!(
            img.deliver_rx,
            vec![((aid(0, 2), sid(4)), 7), ((aid(0, 9), sid(4)), 1)]
        );
        assert!(img.relay.topics.is_empty());
        assert_eq!(img.relay.subs, [(aid(0, 2), Some(true))].into());
        assert_eq!(img.relay.handoffs[&(sid(2), aid(0, 2))], 12);
    }

    #[test]
    fn a_record_that_does_not_fit_the_image_is_refused() {
        let mut foreign = sample_record();
        foreign.items[0].0 = 1;
        assert!(sample_image().apply(foreign).is_err(), "no clock 1");

        let mut wide = sample_record();
        wide.items[0].1 = CausalState::new(DomainServerId::new(0), 4, StampMode::Updates);
        assert!(sample_image().apply(wide).is_err(), "a 4-wide clock");

        let mut replayed = sample_record();
        replayed.links_tx[0].sent[0].seq = 4;
        assert!(sample_image().apply(replayed).is_err(), "seq 4 again");

        let mut postponed = sample_record();
        postponed.postponed = sample_image().postponed;
        postponed.postponed[0].from = DomainServerId::new(3);
        assert!(sample_image().apply(postponed).is_err(), "sender 3 of 3");
    }
}
