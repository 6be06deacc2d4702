//! The AAA Channel: causal stamping, checking and routing (§5).
//!
//! The channel is the half of an agent server that "ensures reliable
//! message delivery and causal order". This implementation is sans-IO: it
//! consumes already-FIFO streams of [`WireMessage`]s per neighbour (the
//! link layer in `aaa-net` provides that) and produces messages to transmit
//! plus local deliveries for the engine.
//!
//! Per the paper's pseudo-code:
//!
//! - **send**: look the destination up in the routing table, pick the
//!   domain shared with the next hop, stamp the message with that domain's
//!   matrix clock, transmit;
//! - **receive**: translate the sender into the stamping domain's
//!   namespace, `Check(mclock)`, then push the event to `QueueIN` (it is
//!   for a local agent) or `QueueOUT` (it must travel further) — crucially,
//!   in *delivery order*, which is how a causal router-server carries
//!   causality from one domain into the next.

use std::collections::VecDeque;

use aaa_base::{
    Absorb, AgentId, DomainId, DomainServerId, Error, MessageId, Result, ServerId, VTime,
};
use aaa_clocks::{Batching, PendingStamp, StampMode};
use aaa_net::WireMessage;
use aaa_obs::Meter;
use aaa_topology::{RoutingTable, Topology};

use crate::domain_item::DomainItem;
use crate::message::{AgentMessage, DeliveryPolicy, Notification, SendOptions};
use crate::metrics::ChannelMetrics;

/// A message travelling through the bus, between stampings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Globally unique id assigned at the origin server.
    pub id: MessageId,
    /// Sending agent.
    pub from: AgentId,
    /// Destination agent.
    pub to: AgentId,
    /// Server where the message entered the bus.
    pub src: ServerId,
    /// Server hosting the destination agent.
    pub dest: ServerId,
    /// The notification carried.
    pub note: Notification,
    /// Delivery quality of service.
    pub policy: DeliveryPolicy,
}

/// A received message waiting for its causal delivery condition.
#[derive(Debug, Clone)]
pub(crate) struct Postponed {
    pub(crate) item_idx: usize,
    pub(crate) from: DomainServerId,
    pub(crate) pending: PendingStamp,
    pub(crate) env: Envelope,
    /// When the message arrived (caller's clock: wall micros in the
    /// live runtime, virtual time in the simulator). Used for the
    /// postponement-duration histogram; persisted so durations survive
    /// crash recovery.
    pub(crate) arrived_at: VTime,
}

/// Counters accumulated by the channel, drained by the simulator's cost
/// model and by experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Matrix-cell operations of the paper's algorithm (stamping ≈ n²,
    /// checking ≈ n, delivery merge ≈ n²) — the paper's unit of
    /// causal-ordering cost, which the simulator prices. Modelled, not
    /// measured: the delta modes of `aaa-clocks` touch O(|stamp|) cells.
    pub cell_ops: u64,
    /// Bytes of causal stamps emitted.
    pub stamp_bytes: u64,
    /// Messages transmitted to a neighbour (including forwards).
    pub transmitted: u64,
    /// Messages delivered to the local engine.
    pub delivered: u64,
    /// Messages forwarded to another domain (router work).
    pub forwarded: u64,
}

impl Absorb for ChannelStats {
    fn absorb(&mut self, other: ChannelStats) {
        self.cell_ops += other.cell_ops;
        self.stamp_bytes += other.stamp_bytes;
        self.transmitted += other.transmitted;
        self.delivered += other.delivered;
        self.forwarded += other.forwarded;
    }
}

/// The outcome of submitting a notification at its origin server.
#[derive(Debug)]
pub enum Submit {
    /// The destination agent lives on this server: deliver through the
    /// local bus without touching the causal machinery.
    Local(AgentMessage),
    /// The message was queued for transmission.
    Queued(MessageId),
}

/// The causal channel of one agent server (sans-IO).
#[derive(Debug)]
pub struct ChannelCore {
    me: ServerId,
    mode: StampMode,
    routing: RoutingTable,
    items: Vec<DomainItem>,
    queue_out: VecDeque<Envelope>,
    postponed: Vec<Postponed>,
    next_seq: u64,
    /// Per item: its clock changed since the last
    /// [`ChannelCore::take_dirty_items`].
    dirty: Vec<bool>,
    stats: ChannelStats,
    metrics: Option<ChannelMetrics>,
}

impl ChannelCore {
    /// Builds the channel of server `me` for a validated topology.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if `me` is not in the topology.
    pub fn new(topology: &Topology, me: ServerId, mode: StampMode) -> Result<Self> {
        topology.check_server(me)?;
        let routing = RoutingTable::build(topology, me)?;
        let items: Vec<DomainItem> = topology
            .memberships(me)
            .iter()
            .map(|&d| DomainItem::new(topology, d, me, mode))
            .collect();
        Ok(ChannelCore {
            me,
            mode,
            routing,
            dirty: vec![false; items.len()],
            items,
            queue_out: VecDeque::new(),
            postponed: Vec::new(),
            next_seq: 0,
            stats: ChannelStats::default(),
            metrics: None,
        })
    }

    /// Attaches an `aaa-obs` meter: the channel mints its instruments
    /// (per-domain cell-op/stamp-byte counters, delivery counters, the
    /// postponed gauge and the postponement histogram) under the meter's
    /// base labels and updates them alongside [`ChannelStats`]. Without a
    /// meter every event pays one branch and no atomic traffic.
    pub fn attach_meter(&mut self, meter: &Meter) {
        let domains: Vec<DomainId> = self.items.iter().map(|it| it.domain_id()).collect();
        let metrics = ChannelMetrics::new(meter, &domains, self.mode);
        metrics.postponed.set(self.postponed.len() as i64);
        self.metrics = Some(metrics);
    }

    /// This channel's server id.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// The stamp encoding mode.
    pub fn mode(&self) -> StampMode {
        self.mode
    }

    /// The domain items (one per domain this server belongs to).
    pub fn items(&self) -> &[DomainItem] {
        &self.items
    }

    /// Messages queued for transmission (`QueueOUT`).
    pub fn queued_out(&self) -> usize {
        self.queue_out.len()
    }

    /// Messages received but not yet causally deliverable.
    pub fn postponed_count(&self) -> usize {
        self.postponed.len()
    }

    /// Drains and returns the accumulated statistics.
    pub fn take_stats(&mut self) -> ChannelStats {
        std::mem::take(&mut self.stats)
    }

    /// Assigns the next globally unique message id.
    fn next_message_id(&mut self) -> MessageId {
        self.next_seq += 1;
        MessageId::new(self.me, self.next_seq)
    }

    /// Accepts a notification from a local agent (or client).
    ///
    /// Local destinations are returned immediately for the engine
    /// ([`Submit::Local`]); remote ones enter `QueueOUT` and will be
    /// stamped by [`ChannelCore::take_transmissions_batched`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if the destination server does not
    /// exist, or [`Error::InvalidTopology`] if `from` does not live on this
    /// server.
    pub fn submit(&mut self, from: AgentId, to: AgentId, note: Notification) -> Result<Submit> {
        self.submit_with(from, to, note, SendOptions::default())
    }

    /// Like [`ChannelCore::submit`], with explicit [`SendOptions`] (a bare
    /// [`DeliveryPolicy`] converts). Unordered messages are routed but
    /// never stamped or checked; they may overtake causal traffic.
    ///
    /// # Errors
    ///
    /// As for [`ChannelCore::submit`].
    pub fn submit_with(
        &mut self,
        from: AgentId,
        to: AgentId,
        note: Notification,
        opts: impl Into<SendOptions>,
    ) -> Result<Submit> {
        let policy = opts.into().policy;
        if from.server() != self.me {
            return Err(Error::InvalidTopology(format!(
                "agent {from} does not live on server {}",
                self.me
            )));
        }
        self.routing.next_hop(to.server())?; // validates the destination
        let id = self.next_message_id();
        let env = Envelope {
            id,
            from,
            to,
            src: self.me,
            dest: to.server(),
            note,
            policy,
        };
        if env.dest == self.me {
            self.stats.delivered += 1;
            if let Some(m) = &self.metrics {
                m.delivered.inc();
            }
            Ok(Submit::Local(AgentMessage {
                id: env.id,
                from: env.from,
                to: env.to,
                note: env.note,
            }))
        } else {
            self.queue_out.push_back(env);
            Ok(Submit::Queued(id))
        }
    }

    /// Stamps and drains `QueueOUT`, returning `(next_hop, message)` pairs
    /// in transmission order. With `batched` true (what a server step
    /// passes), consecutive causal sends to the same next hop with no
    /// intervening clock activity are stamped with
    /// [`aaa_clocks::Stamp::GroupNext`] (one tag byte, O(1) cell work)
    /// instead of a full/delta stamp — the continuation is reconstructed
    /// from the previous frame at the receiver over the FIFO link. See
    /// [`aaa_clocks::Batching::Grouped`]. With `batched` false every
    /// message carries a stamp of its own.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoRoute`] /[`Error::UnknownServer`] if routing
    /// fails (impossible on a validated topology), or
    /// [`Error::NotInDomain`] if the next hop shares no domain with this
    /// server (likewise impossible).
    pub fn take_transmissions_batched(
        &mut self,
        batched: bool,
    ) -> Result<Vec<(ServerId, WireMessage)>> {
        let mut out = Vec::with_capacity(self.queue_out.len());
        while let Some(env) = self.queue_out.pop_front() {
            let next_hop = self.routing.next_hop(env.dest)?;
            debug_assert_ne!(next_hop, self.me, "queued message routed to self");
            let (item_idx, hop_dsid) = self.item_for_peer(next_hop)?;
            let item = &mut self.items[item_idx];
            let stamp = match env.policy {
                DeliveryPolicy::Causal => {
                    let n = item.clock().n() as u64;
                    let batching = if batched {
                        Batching::Grouped
                    } else {
                        Batching::Single
                    };
                    let stamp = item.clock_mut().stamp_send(hop_dsid, batching);
                    self.dirty[item_idx] = true;
                    // A GroupNext continuation touches one matrix cell;
                    // a full stamping pass touches n².
                    let ops = if stamp.is_group_next() { 1 } else { n * n };
                    self.stats.cell_ops += ops;
                    let stamp_bytes = stamp.encoded_len() as u64;
                    self.stats.stamp_bytes += stamp_bytes;
                    if let Some(m) = &self.metrics {
                        m.domains[item_idx].cell_ops.add(ops);
                        m.domains[item_idx].stamp_bytes.add(stamp_bytes);
                    }
                    Some(stamp)
                }
                DeliveryPolicy::Unordered => None,
            };
            self.stats.transmitted += 1;
            if let Some(m) = &self.metrics {
                m.transmitted.inc();
            }
            let msg = WireMessage {
                id: env.id,
                from_agent: env.from,
                to_agent: env.to,
                src_server: env.src,
                dest_server: env.dest,
                domain: item.domain_id(),
                stamp,
                kind: env.note.kind_bytes().clone(),
                body: env.note.body().clone(),
            };
            out.push((next_hop, msg));
        }
        Ok(out)
    }

    /// Finds the item of the smallest-id domain shared with `peer` and the
    /// peer's id within it.
    fn item_for_peer(&self, peer: ServerId) -> Result<(usize, DomainServerId)> {
        self.items
            .iter()
            .enumerate()
            .find_map(|(i, item)| item.domain_server_id(peer).map(|d| (i, d)))
            .ok_or(Error::NotInDomain {
                server: peer,
                domain: DomainId::new(u16::MAX),
            })
    }

    /// Ingests one message from neighbour `from` (messages from one
    /// neighbour must arrive in link FIFO order), then delivers everything
    /// that has become causally deliverable.
    ///
    /// Returned messages are for *local* agents, in delivery order;
    /// messages for other servers have been re-queued on `QueueOUT` in that
    /// same order (ready for [`ChannelCore::take_transmissions_batched`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDomain`] if the message names a domain this
    /// server is not in, [`Error::NotInDomain`] if the link sender is not a
    /// member of that domain, or [`Error::Codec`] if the stamp does not fit
    /// the domain's clock (wrong kind for the stamp mode, wrong width,
    /// out-of-range entry, orphan continuation) — all indicate a corrupt or
    /// misrouted frame, and none of them touches the clock.
    pub fn on_message(&mut self, from: ServerId, msg: WireMessage) -> Result<Vec<AgentMessage>> {
        let mut local = Vec::new();
        self.on_message_into(from, msg, VTime::ZERO, &mut local)?;
        Ok(local)
    }

    /// [`ChannelCore::on_message`] at the caller's current time `now`
    /// (wall-clock microseconds since runtime start, or virtual time),
    /// appending the local deliveries to `local`, a buffer the caller
    /// keeps across messages, instead of returning a fresh vector. `now`
    /// timestamps postponed messages so the postponement-duration
    /// histogram has something to measure; it never affects delivery
    /// order. A refused message appends nothing.
    pub(crate) fn on_message_into(
        &mut self,
        from: ServerId,
        msg: WireMessage,
        now: VTime,
        local: &mut Vec<AgentMessage>,
    ) -> Result<()> {
        let item_idx = self
            .items
            .iter()
            .position(|it| it.domain_id() == msg.domain)
            .ok_or(Error::UnknownDomain(msg.domain))?;
        let item = &mut self.items[item_idx];
        let from_dsid = item.domain_server_id(from).ok_or(Error::NotInDomain {
            server: from,
            domain: msg.domain,
        })?;
        let Some(stamp) = msg.stamp else {
            // Unordered QoS: deliver or forward immediately, no clock.
            let env = Envelope {
                id: msg.id,
                from: msg.from_agent,
                to: msg.to_agent,
                src: msg.src_server,
                dest: msg.dest_server,
                note: Notification::from_parts(msg.kind, msg.body),
                policy: DeliveryPolicy::Unordered,
            };
            if env.dest == self.me {
                self.stats.delivered += 1;
                if let Some(m) = &self.metrics {
                    m.delivered.inc();
                }
                local.push(AgentMessage {
                    id: env.id,
                    from: env.from,
                    to: env.to,
                    note: env.note,
                });
                return Ok(());
            }
            self.stats.forwarded += 1;
            if let Some(m) = &self.metrics {
                m.forwarded.inc();
            }
            self.queue_out.push_back(env);
            return Ok(());
        };
        item.clock().check_stamp(from_dsid, &stamp)?;
        let pending = item.clock_mut().on_frame(from_dsid, stamp);
        self.dirty[item_idx] = true;
        let n_check = item.clock().n() as u64;
        self.stats.cell_ops += n_check;
        if let Some(m) = &self.metrics {
            m.domains[item_idx].cell_ops.add(n_check);
            m.postponed.inc();
        }
        self.postponed.push(Postponed {
            item_idx,
            from: from_dsid,
            pending,
            env: Envelope {
                id: msg.id,
                from: msg.from_agent,
                to: msg.to_agent,
                src: msg.src_server,
                dest: msg.dest_server,
                note: Notification::from_parts(msg.kind, msg.body),
                policy: DeliveryPolicy::Causal,
            },
            arrived_at: now,
        });
        self.pump(now, local);
        Ok(())
    }

    /// Delivers every postponed message whose causal condition now holds,
    /// appending the local ones to `local`.
    fn pump(&mut self, now: VTime, local: &mut Vec<AgentMessage>) {
        loop {
            let hit = self.postponed.iter().position(|p| {
                let item = &self.items[p.item_idx];
                item.clock().can_deliver(p.from, &p.pending)
            });
            let Some(i) = hit else { break };
            let p = self.postponed.remove(i);
            let item = &mut self.items[p.item_idx];
            let n = item.clock().n() as u64;
            item.clock_mut().deliver(p.from, &p.pending);
            self.dirty[p.item_idx] = true;
            self.stats.cell_ops += n * n + n;
            if let Some(m) = &self.metrics {
                m.domains[p.item_idx].cell_ops.add(n * n + n);
                m.postponed.dec();
                m.postponement_us
                    .observe(now.as_micros().saturating_sub(p.arrived_at.as_micros()));
            }
            if p.env.dest == self.me {
                self.stats.delivered += 1;
                if let Some(m) = &self.metrics {
                    m.delivered.inc();
                }
                local.push(AgentMessage {
                    id: p.env.id,
                    from: p.env.from,
                    to: p.env.to,
                    note: p.env.note,
                });
            } else {
                self.stats.forwarded += 1;
                if let Some(m) = &self.metrics {
                    m.forwarded.inc();
                }
                self.queue_out.push_back(p.env);
            }
        }
    }

    // --- persistence plumbing (crate-internal) ---

    /// The persisted state: the message-id counter, `QueueOUT`, the
    /// postponed queue and the domain items.
    pub(crate) fn persist_parts(&self) -> (u64, &VecDeque<Envelope>, &[Postponed], &[DomainItem]) {
        (self.next_seq, &self.queue_out, &self.postponed, &self.items)
    }

    /// `true` when some item's clock changed since the last
    /// [`ChannelCore::take_dirty_items`].
    pub(crate) fn has_dirty_items(&self) -> bool {
        self.dirty.contains(&true)
    }

    /// Indices of the items whose clock changed since the last call.
    pub(crate) fn take_dirty_items(&mut self) -> Vec<usize> {
        let dirty = (self.dirty.iter().enumerate())
            .filter_map(|(i, &d)| d.then_some(i))
            .collect();
        self.dirty.fill(false);
        dirty
    }

    /// Replaces the persisted state with a recovered one.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] unless `items` describe this server's items — the
    /// same domains, identities, widths and stamp mode: a clock restored
    /// under another mode, width or identity would report one thing and
    /// stamp another.
    pub(crate) fn reload(
        &mut self,
        next_seq: u64,
        queue_out: VecDeque<Envelope>,
        postponed: Vec<Postponed>,
        items: Vec<DomainItem>,
    ) -> Result<()> {
        let shape = |it: &DomainItem| {
            let clock = it.clock();
            (
                it.domain_id(),
                it.id_table().to_vec(),
                clock.mode(),
                clock.me(),
                clock.n(),
            )
        };
        if !items.iter().map(shape).eq(self.items.iter().map(shape)) {
            let written: Vec<_> = items
                .iter()
                .map(|it| {
                    (
                        it.domain_id(),
                        it.clock().mode(),
                        it.clock().me(),
                        it.clock().n(),
                    )
                })
                .collect();
            let domains: Vec<DomainId> = self.items.iter().map(DomainItem::domain_id).collect();
            return Err(Error::Codec(format!(
                "recovered image of server {} was written for (domain, mode, me, n) \
                 {written:?}; it is configured for {:?} mode in domains {domains:?}",
                self.me, self.mode
            )));
        }
        if let Some(m) = &self.metrics {
            m.postponed.set(postponed.len() as i64);
        }
        self.next_seq = next_seq;
        self.queue_out = queue_out;
        self.postponed = postponed;
        self.items = items;
        self.dirty.fill(false);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_topology::TopologySpec;

    fn aid(s: u16, l: u32) -> AgentId {
        AgentId::new(ServerId::new(s), l)
    }

    fn s(i: u16) -> ServerId {
        ServerId::new(i)
    }

    fn single_domain(n: u16) -> Topology {
        TopologySpec::single_domain(n).validate().unwrap()
    }

    fn channels(topo: &Topology, mode: StampMode) -> Vec<ChannelCore> {
        topo.servers()
            .map(|sv| ChannelCore::new(topo, sv, mode).unwrap())
            .collect()
    }

    #[test]
    fn local_submit_bypasses_network() {
        let topo = single_domain(2);
        let mut ch = ChannelCore::new(&topo, s(0), StampMode::Full).unwrap();
        match ch
            .submit(aid(0, 1), aid(0, 2), Notification::signal("hi"))
            .unwrap()
        {
            Submit::Local(m) => {
                assert_eq!(m.to, aid(0, 2));
                assert_eq!(m.note.kind(), "hi");
            }
            other => panic!("expected local delivery, got {other:?}"),
        }
        assert_eq!(ch.queued_out(), 0);
        assert!(ch.take_transmissions_batched(false).unwrap().is_empty());
    }

    #[test]
    fn remote_submit_is_stamped_and_transmitted() {
        let topo = single_domain(2);
        let mut ch = ChannelCore::new(&topo, s(0), StampMode::Full).unwrap();
        let sub = ch
            .submit(
                aid(0, 1),
                aid(1, 1),
                Notification::new("ping", b"1".to_vec()),
            )
            .unwrap();
        assert!(matches!(sub, Submit::Queued(_)));
        let tx = ch.take_transmissions_batched(false).unwrap();
        assert_eq!(tx.len(), 1);
        let (hop, msg) = &tx[0];
        assert_eq!(*hop, s(1));
        assert_eq!(msg.dest_server, s(1));
        assert_eq!(msg.domain, DomainId::new(0));
        let stats = ch.take_stats();
        assert_eq!(stats.transmitted, 1);
        assert!(stats.cell_ops >= 4);
        assert!(stats.stamp_bytes > 0);
    }

    #[test]
    fn end_to_end_one_domain() {
        let topo = single_domain(2);
        let mut chs = channels(&topo, StampMode::Updates);
        let _ = chs[0]
            .submit(aid(0, 1), aid(1, 1), Notification::signal("ping"))
            .unwrap();
        let tx = chs[0].take_transmissions_batched(false).unwrap();
        let (hop, msg) = tx.into_iter().next().unwrap();
        let delivered = chs[hop.as_usize()].on_message(s(0), msg).unwrap();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].to, aid(1, 1));
    }

    #[test]
    fn fifo_over_one_link_respected_even_if_probed() {
        let topo = single_domain(2);
        let mut chs = channels(&topo, StampMode::Full);
        for i in 0..3 {
            chs[0]
                .submit(aid(0, 1), aid(1, 1), Notification::new("n", vec![i as u8]))
                .unwrap();
        }
        let tx = chs[0].take_transmissions_batched(false).unwrap();
        assert_eq!(tx.len(), 3);
        // Frames arrive in FIFO order (the link layer guarantees this).
        let mut all = Vec::new();
        for (_, msg) in tx {
            all.extend(chs[1].on_message(s(0), msg).unwrap());
        }
        let bodies: Vec<u8> = all.iter().map(|m| m.note.body()[0]).collect();
        assert_eq!(bodies, vec![0, 1, 2]);
    }

    #[test]
    fn routed_forwarding_across_domains() {
        // Figure 2 (0-based): 0 -> 7 must route 0 -> 2 -> 6 -> 7.
        let topo = TopologySpec::from_domains(vec![
            vec![0, 1, 2],
            vec![3, 4],
            vec![6, 7],
            vec![2, 4, 5, 6],
        ])
        .validate()
        .unwrap();
        let mut chs = channels(&topo, StampMode::Updates);
        chs[0]
            .submit(
                aid(0, 1),
                aid(7, 1),
                Notification::new("x", b"payload".to_vec()),
            )
            .unwrap();

        // Hop 1: 0 -> 2, stamped in domain 0.
        let tx = chs[0].take_transmissions_batched(false).unwrap();
        assert_eq!(tx.len(), 1);
        let (hop1, msg1) = tx.into_iter().next().unwrap();
        assert_eq!(hop1, s(2));
        assert_eq!(msg1.domain, DomainId::new(0));

        // Router 2 delivers in domain 0 and forwards into domain 3.
        let local = chs[2].on_message(s(0), msg1).unwrap();
        assert!(local.is_empty(), "router must not deliver locally");
        let tx = chs[2].take_transmissions_batched(false).unwrap();
        assert_eq!(tx.len(), 1);
        let (hop2, msg2) = tx.into_iter().next().unwrap();
        assert_eq!(hop2, s(6));
        assert_eq!(msg2.domain, DomainId::new(3));
        assert_eq!(chs[2].take_stats().forwarded, 1);

        // Router 6 forwards into domain 2.
        let local = chs[6].on_message(s(2), msg2).unwrap();
        assert!(local.is_empty());
        let tx = chs[6].take_transmissions_batched(false).unwrap();
        let (hop3, msg3) = tx.into_iter().next().unwrap();
        assert_eq!(hop3, s(7));
        assert_eq!(msg3.domain, DomainId::new(2));

        // Final delivery at 7.
        let local = chs[7].on_message(s(6), msg3).unwrap();
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].note.body_str(), Some("payload"));
        assert_eq!(local[0].from, aid(0, 1));
    }

    #[test]
    fn causal_postponement_in_triangle() {
        // Servers 0, 1, 2 in one domain. 0 sends m_a to 2, then m_b to 1;
        // 1 forwards m_c to 2. If m_c reaches 2 first it must wait for m_a.
        let topo = single_domain(3);
        let mut chs = channels(&topo, StampMode::Full);

        chs[0]
            .submit(aid(0, 1), aid(2, 1), Notification::signal("a"))
            .unwrap();
        chs[0]
            .submit(aid(0, 1), aid(1, 1), Notification::signal("b"))
            .unwrap();
        let tx = chs[0].take_transmissions_batched(false).unwrap();
        let (m_a, m_b) = {
            let mut it = tx.into_iter();
            let a = it.next().unwrap();
            let b = it.next().unwrap();
            (a, b)
        };
        assert_eq!(m_a.0, s(2));
        assert_eq!(m_b.0, s(1));

        // 1 receives m_b and reacts by sending m_c to 2.
        let delivered = chs[1].on_message(s(0), m_b.1).unwrap();
        assert_eq!(delivered.len(), 1);
        chs[1]
            .submit(aid(1, 1), aid(2, 1), Notification::signal("c"))
            .unwrap();
        let tx = chs[1].take_transmissions_batched(false).unwrap();
        let (_, m_c) = tx.into_iter().next().unwrap();

        // 2 receives m_c first: must be postponed.
        let delivered = chs[2].on_message(s(1), m_c).unwrap();
        assert!(delivered.is_empty());
        assert_eq!(chs[2].postponed_count(), 1);

        // m_a arrives: both become deliverable, in causal order a, c.
        let delivered = chs[2].on_message(s(0), m_a.1).unwrap();
        let kinds: Vec<&str> = delivered.iter().map(|m| m.note.kind()).collect();
        assert_eq!(kinds, vec!["a", "c"]);
        assert_eq!(chs[2].postponed_count(), 0);
    }

    #[test]
    fn unordered_overtakes_postponed_causal_traffic() {
        // Same triangle as `causal_postponement_in_triangle`, but while
        // m_c waits for m_a, an *unordered* message from 1 sails through.
        let topo = single_domain(3);
        let mut chs = channels(&topo, StampMode::Full);

        chs[0]
            .submit(aid(0, 1), aid(2, 1), Notification::signal("a"))
            .unwrap();
        chs[0]
            .submit(aid(0, 1), aid(1, 1), Notification::signal("b"))
            .unwrap();
        let tx = chs[0].take_transmissions_batched(false).unwrap();
        let mut it = tx.into_iter();
        let m_a = it.next().unwrap();
        let m_b = it.next().unwrap();

        chs[1].on_message(s(0), m_b.1).unwrap();
        chs[1]
            .submit(aid(1, 1), aid(2, 1), Notification::signal("c"))
            .unwrap();
        chs[1]
            .submit_with(
                aid(1, 1),
                aid(2, 1),
                Notification::signal("express"),
                DeliveryPolicy::Unordered,
            )
            .unwrap();
        let tx = chs[1].take_transmissions_batched(false).unwrap();
        let mut it = tx.into_iter();
        let m_c = it.next().unwrap();
        let m_x = it.next().unwrap();
        assert!(m_x.1.stamp.is_none(), "unordered messages carry no stamp");

        // m_c arrives first and is postponed; the unordered message is
        // delivered immediately despite arriving later.
        assert!(chs[2].on_message(s(1), m_c.1).unwrap().is_empty());
        let got = chs[2].on_message(s(1), m_x.1).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].note.kind(), "express");
        assert_eq!(chs[2].postponed_count(), 1, "causal message still waits");

        // Causal order among causal messages is untouched.
        let got = chs[2].on_message(s(0), m_a.1).unwrap();
        let kinds: Vec<&str> = got.iter().map(|m| m.note.kind()).collect();
        assert_eq!(kinds, vec!["a", "c"]);
    }

    #[test]
    fn unordered_messages_are_routed_across_domains() {
        let topo = TopologySpec::from_domains(vec![vec![0, 1], vec![1, 2]])
            .validate()
            .unwrap();
        let mut chs = channels(&topo, StampMode::Updates);
        chs[0]
            .submit_with(
                aid(0, 1),
                aid(2, 1),
                Notification::signal("x"),
                DeliveryPolicy::Unordered,
            )
            .unwrap();
        let tx = chs[0].take_transmissions_batched(false).unwrap();
        let (hop, msg) = tx.into_iter().next().unwrap();
        assert_eq!(hop, s(1));
        assert!(msg.stamp.is_none());
        // Router forwards without touching any clock.
        assert!(chs[1].on_message(s(0), msg).unwrap().is_empty());
        assert_eq!(
            chs[1].take_stats().cell_ops,
            0,
            "no matrix work for unordered"
        );
        let tx = chs[1].take_transmissions_batched(false).unwrap();
        let (hop, msg) = tx.into_iter().next().unwrap();
        assert_eq!(hop, s(2));
        let got = chs[2].on_message(s(1), msg).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn batched_transmissions_collapse_stamps() {
        for mode in StampMode::ALL {
            let topo = single_domain(4);
            let mut chs = channels(&topo, mode);
            for i in 0..8u8 {
                let note = Notification::new("b", vec![i]);
                chs[0]
                    .submit_with(aid(0, 1), aid(1, 1), note, SendOptions::new())
                    .unwrap();
            }
            let tx = chs[0].take_transmissions_batched(true).unwrap();
            assert_eq!(tx.len(), 8);
            assert!(!tx[0].1.stamp.as_ref().unwrap().is_group_next());
            for (_, msg) in &tx[1..] {
                assert!(
                    msg.stamp.as_ref().unwrap().is_group_next(),
                    "{mode:?}: continuation expected"
                );
            }
            let stats = chs[0].take_stats();
            // Only the first stamp pays matrix bytes; continuations are free.
            assert_eq!(
                stats.stamp_bytes,
                tx[0].1.stamp.as_ref().unwrap().encoded_len() as u64
            );
            // Delivery at the receiver, in FIFO order.
            let mut got = Vec::new();
            for (_, msg) in tx {
                got.extend(chs[1].on_message(s(0), msg).unwrap());
            }
            let bodies: Vec<u8> = got.iter().map(|m| m.note.body()[0]).collect();
            assert_eq!(bodies, (0..8).collect::<Vec<u8>>(), "{mode:?}");
        }
    }

    #[test]
    fn batched_stamping_interleaves_with_unbatched_receivers() {
        // A batched sender and an unbatched
        // (`take_transmissions_batched(false)`) sender agree on causal
        // order at a third server.
        let topo = single_domain(3);
        let mut chs = channels(&topo, StampMode::Updates);
        for i in 0..4u8 {
            chs[0]
                .submit(aid(0, 1), aid(2, 1), Notification::new("m", vec![i]))
                .unwrap();
        }
        let tx = chs[0].take_transmissions_batched(true).unwrap();
        for (_, msg) in tx {
            chs[2].on_message(s(0), msg).unwrap();
        }
        assert_eq!(chs[2].postponed_count(), 0);
        assert_eq!(chs[2].take_stats().delivered, 4);
    }

    #[test]
    fn submit_from_foreign_agent_rejected() {
        let topo = single_domain(2);
        let mut ch = ChannelCore::new(&topo, s(0), StampMode::Full).unwrap();
        assert!(ch
            .submit(aid(1, 1), aid(0, 1), Notification::signal("x"))
            .is_err());
    }

    #[test]
    fn submit_to_unknown_server_rejected() {
        let topo = single_domain(2);
        let mut ch = ChannelCore::new(&topo, s(0), StampMode::Full).unwrap();
        assert!(matches!(
            ch.submit(aid(0, 1), aid(9, 1), Notification::signal("x")),
            Err(Error::UnknownServer(_))
        ));
    }

    #[test]
    fn misrouted_frames_rejected() {
        let topo = TopologySpec::from_domains(vec![vec![0, 1], vec![1, 2]])
            .validate()
            .unwrap();
        let mut chs = channels(&topo, StampMode::Full);
        chs[0]
            .submit(aid(0, 1), aid(1, 1), Notification::signal("x"))
            .unwrap();
        let tx = chs[0].take_transmissions_batched(false).unwrap();
        let (_, msg) = tx.into_iter().next().unwrap();
        // Server 2 is not in domain 0: decoding the frame must fail.
        assert!(matches!(
            chs[2].on_message(s(0), msg.clone()),
            Err(Error::UnknownDomain(_))
        ));
        // Server 1 is in domain 0, but the claimed sender 2 is not.
        let mut bad = msg;
        assert!(matches!(
            chs[1].on_message(s(2), {
                bad.domain = DomainId::new(0);
                bad
            }),
            Err(Error::NotInDomain { .. })
        ));
    }

    #[test]
    fn malformed_stamps_rejected_with_the_clock_untouched() {
        use aaa_clocks::{MatrixClock, PackedEntries, Stamp, UpdateEntry};
        let entry = |row, col| UpdateEntry { row, col, value: 1 };
        let topo = single_domain(4);
        let cases = [
            // A kind the configured mode never emits.
            (StampMode::Updates, Stamp::Full(MatrixClock::new(4))),
            (StampMode::Full, Stamp::Delta(PackedEntries::empty())),
            // A matrix of another domain's width.
            (StampMode::Full, Stamp::Full(MatrixClock::new(5))),
            // Coordinates outside the 4 x 4 matrix: (0, 5) would alias
            // cell (1, 1) in a release build.
            (
                StampMode::Updates,
                Stamp::Delta(PackedEntries::new(&[entry(0, 5)])),
            ),
            (
                StampMode::Updates,
                Stamp::Delta(PackedEntries::new(&[entry(4, 0)])),
            ),
            // A continuation with no frame to continue.
            (StampMode::Full, Stamp::GroupNext),
            (StampMode::Updates, Stamp::GroupNext),
        ];
        for (mode, stamp) in cases {
            let mut chs = channels(&topo, mode);
            chs[0]
                .submit(aid(0, 1), aid(1, 1), Notification::signal("x"))
                .unwrap();
            let (_, mut msg) = chs[0].take_transmissions_batched(false).unwrap().remove(0);
            let what = format!("{mode} channel, {} stamp", stamp.kind());
            msg.stamp = Some(stamp);
            let before = chs[1].items()[0].clock().clone();
            let got = chs[1].on_message(s(0), msg);
            assert!(matches!(got, Err(Error::Codec(_))), "{what}: {got:?}");
            assert_eq!(chs[1].items()[0].clock(), &before, "{what}");
            assert_eq!(chs[1].postponed_count(), 0, "{what}");
        }
    }

    #[test]
    fn updates_mode_interoperates_end_to_end() {
        let topo = single_domain(4);
        let mut chs = channels(&topo, StampMode::Updates);
        // Everyone messages everyone, twice.
        for round in 0..2 {
            for from in 0..4u16 {
                for to in 0..4u16 {
                    if from == to {
                        continue;
                    }
                    chs[from as usize]
                        .submit(
                            aid(from, 1),
                            aid(to, 1),
                            Notification::new("r", vec![round as u8]),
                        )
                        .unwrap();
                }
                let tx = chs[from as usize]
                    .take_transmissions_batched(false)
                    .unwrap();
                for (hop, msg) in tx {
                    chs[hop.as_usize()].on_message(s(from), msg).unwrap();
                }
            }
        }
        for (i, ch) in chs.iter_mut().enumerate() {
            assert_eq!(ch.postponed_count(), 0, "server {i} stuck");
            let stats = ch.take_stats();
            assert_eq!(stats.delivered, 6, "server {i}");
        }
    }
}
