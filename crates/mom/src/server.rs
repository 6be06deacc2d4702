//! One complete agent server: Engine + Channel + links + persistence.
//!
//! `ServerCore` is the sans-IO composition of every per-server piece
//! (Figure 1 / Figure 6 of the paper): the [`EngineCore`] running atomic
//! agent reactions, the [`ChannelCore`] enforcing per-domain causal order
//! and routing, one reliable-link endpoint pair per neighbour, the
//! crash-recovery image, and optional trace recording.
//!
//! Two drivers step the same core: the live runtime ([`crate::runtime`])
//! with wall-clock time and a byte transport, the discrete-event
//! simulator (`aaa-sim`) with virtual time and a cost model.
//! Every input is a method call returning the datagrams to transmit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use aaa_base::{Absorb, AgentId, Error, MessageId, Result, ServerId, VDuration, VTime};
use aaa_clocks::StampMode;
use aaa_net::link::{Datagram, LinkFrame};
use aaa_net::wire::Decoder;
use aaa_net::{LinkReceiver, LinkSender, WireMessage};
use aaa_obs::{LatencyTracker, Meter};
use aaa_storage::StableStore;
use aaa_topology::Topology;
use aaa_trace::TraceRecorder;
use bytes::Bytes;

use crate::agent::Agent;
use crate::channel::{ChannelCore, Submit};
use crate::engine::EngineCore;
use crate::message::{AgentMessage, DeliveryPolicy, Notification, SendOptions};
use crate::metrics::{RelayMetrics, ServerMetrics};
use crate::persist::{LinkRxImage, LinkTxDelta, LinkTxImage, ServerImage, StateRecord};
use crate::relay::{self, relay_agent, RelayConfig, RelayCore, RELAY_LOCAL};

/// Storage key of the server checkpoint.
const IMAGE_KEY: &str = "server-image";

/// The state-record bytes a server with a durable relay journal writes at
/// least before it checkpoints again: a checkpoint costs two `fsync`s
/// whatever its size, so a small state is not rewritten every few steps.
/// With the checkpoint's own size it bounds what recovery replays.
const CHECKPOINT_FLOOR: u64 = 256 * 1024;

/// Configuration of one agent server.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Stamp encoding: full matrices or Appendix-A deltas.
    pub stamp_mode: StampMode,
    /// Link retransmission timeout.
    pub rto: VDuration,
    /// Whether every step commits the server's state durably: as a state
    /// record in the relay journal when one is durable, else as a
    /// checkpoint (DESIGN.md §17.1).
    pub persist: bool,
    /// Outstanding-message budget: the maximum number of messages that may
    /// be queued, postponed or in flight on the links before client sends
    /// are rejected with [`Error::Backpressure`]. Bounds the postponed and
    /// retransmit queues when a peer is partitioned away, so a stalled link
    /// degrades into a visible error instead of unbounded memory growth.
    pub max_outstanding: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            stamp_mode: StampMode::Updates,
            rto: VDuration::from_millis(200),
            persist: false,
            max_outstanding: 65_536,
        }
    }
}

/// A datagram to hand to the transport.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Destination server.
    pub to: ServerId,
    /// Encoded [`Datagram`].
    pub bytes: Bytes,
}

/// Counters drained after each step, used by the simulator's cost model
/// and by experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Matrix-cell operations (the paper's causal-ordering cost unit).
    pub cell_ops: u64,
    /// Causal stamp bytes emitted.
    pub stamp_bytes: u64,
    /// Bytes of server state written to stable storage: state records
    /// and checkpoints.
    pub disk_bytes: u64,
    /// Messages delivered to local agents.
    pub delivered: u64,
    /// Messages transmitted to neighbours.
    pub transmitted: u64,
    /// Messages forwarded between domains (router work).
    pub forwarded: u64,
    /// Agent reactions committed.
    pub reactions: u64,
}

impl Absorb for StepStats {
    fn absorb(&mut self, other: StepStats) {
        self.cell_ops += other.cell_ops;
        self.stamp_bytes += other.stamp_bytes;
        self.disk_bytes += other.disk_bytes;
        self.delivered += other.delivered;
        self.transmitted += other.transmitted;
        self.forwarded += other.forwarded;
        self.reactions += other.reactions;
    }
}

/// One complete agent server (sans-IO).
pub struct ServerCore {
    me: ServerId,
    config: ServerConfig,
    channel: ChannelCore,
    engine: EngineCore,
    links_tx: HashMap<ServerId, LinkSender>,
    links_rx: HashMap<ServerId, LinkReceiver>,
    store: Arc<dyn StableStore>,
    recorder: Option<TraceRecorder>,
    in_flight: Option<Arc<AtomicI64>>,
    disk_bytes: u64,
    reactions_snapshot: u64,
    metrics: Option<ServerMetrics>,
    latency: Option<LatencyTracker>,
    /// The store-and-forward relay, when enabled (DESIGN.md §17).
    relay: Option<RelayCore>,
    /// Receiver-side exactly-once dedup: highest relay sequence accepted
    /// per `(subscriber, relay server)`. Only this server's relay delivers
    /// here, so the relay server is always this one; the key keeps the
    /// checkpoint's layout.
    deliver_rx: HashMap<(AgentId, ServerId), u64>,
    /// Meter stash so a relay enabled after [`ServerCore::attach_meter`]
    /// still gets instruments.
    meter: Option<Meter>,
    /// What the persistence path has recorded, and what moved since.
    log: StateLog,
    /// The last commit failed: the links hold frames that step flushed,
    /// and no durable state covers them yet.
    uncommitted: bool,
}

/// Where one link stood at the last state record or checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkMark {
    next_seq: u64,
    acked: u64,
    cum_seq: u64,
}

impl LinkMark {
    /// A link that has carried nothing yet.
    const NEW: LinkMark = LinkMark {
        next_seq: 1,
        acked: 0,
        cum_seq: 0,
    };
}

/// The bookkeeping of a persisting server (DESIGN.md §17.1): what its
/// checkpoint and state records cover, and what moved since the last of
/// them — so the next record carries only that.
#[derive(Debug, Default)]
struct StateLog {
    /// The next commit writes a checkpoint whatever the tail: set when the
    /// relay journal holds state records that do not describe this
    /// server (an earlier incarnation's, or ones past a gap recovery
    /// stopped at), and by [`ServerCore::checkpoint`].
    checkpoint_due: bool,
    /// For a recovered server, the last state record its checkpoint
    /// covers (0 without one): where [`ServerCore::enable_relay`] starts
    /// the replay.
    recovered_at: Option<u64>,
    /// Encoded size of the last checkpoint.
    checkpoint_bytes: u64,
    /// Encoded size of the state records written since.
    tail_bytes: u64,
    /// The message-id counter as last recorded.
    msg_seq: u64,
    /// The last record held non-empty queues.
    queues: bool,
    /// Per peer, the links as last recorded; absent = [`LinkMark::NEW`].
    links: HashMap<ServerId, LinkMark>,
    /// Local ids of the agents that reacted or registered since.
    agents: Vec<u32>,
    /// Relay dedup watermarks that moved since.
    deliver_rx: Vec<(AgentId, ServerId)>,
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("me", &self.me)
            .field("channel", &self.channel)
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl ServerCore {
    /// Creates a fresh server for `me` in `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if `me` is not in the topology.
    pub fn new(
        topology: &Topology,
        me: ServerId,
        config: ServerConfig,
        store: Arc<dyn StableStore>,
    ) -> Result<Self> {
        Ok(ServerCore {
            me,
            config,
            channel: ChannelCore::new(topology, me, config.stamp_mode)?,
            engine: EngineCore::new(),
            links_tx: HashMap::new(),
            links_rx: HashMap::new(),
            store,
            recorder: None,
            in_flight: None,
            disk_bytes: 0,
            reactions_snapshot: 0,
            metrics: None,
            latency: None,
            relay: None,
            deliver_rx: HashMap::new(),
            meter: None,
            log: StateLog::default(),
            uncommitted: false,
        })
    }

    /// Attaches a metrics meter to the server and both its cores. Every
    /// subsequent event updates the `aaa_channel_*`, `aaa_engine_*` and
    /// `aaa_server_*` instruments in the meter's registry; without a meter
    /// (the default) instrumentation costs one branch per event.
    pub fn attach_meter(&mut self, meter: &Meter) {
        self.channel.attach_meter(meter);
        self.engine.attach_meter(meter);
        self.metrics = Some(ServerMetrics::new(meter));
        if let Some(relay) = &mut self.relay {
            relay.attach_metrics(RelayMetrics::new(meter));
        }
        self.meter = Some(meter.clone());
    }

    /// Enables the store-and-forward relay on this server, recovering its
    /// durable journal and redelivering the uncommitted window. On a
    /// server [recovered](ServerCore::recover) from a checkpoint this
    /// finishes the recovery: the checkpoint, read again, plus every state
    /// record the journal holds after it, becomes the server's state,
    /// relay registry included. Call it right after `recover`, before the
    /// server takes a step. Returns the datagrams that redelivery
    /// produced.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Storage`] from journal recovery, including a
    /// relay directory left in the older per-subscriber layout, and
    /// [`Error::Codec`] from a state record that does not decode or fit.
    pub fn enable_relay(&mut self, cfg: RelayConfig, now: VTime) -> Result<Vec<Transmission>> {
        let mut relay = RelayCore::new(self.me, cfg)?;
        if let Some(meter) = &self.meter {
            relay.attach_metrics(RelayMetrics::new(meter));
        }
        let tail = relay.journal.take_state_tail();
        let recorded = self.config.persist && relay.journal.is_durable();
        if recorded {
            relay.track_changes();
        } else if !self.config.persist {
            // Records a persisting incarnation left are not this server's.
            relay.journal.cover_state(relay.journal.state_seq());
        }
        let last_seq = relay.journal.state_seq();
        self.relay = Some(relay);
        self.log.checkpoint_due = match self.log.recovered_at.take() {
            // Recovery: the checkpoint — or, before the first one, the
            // fresh state — plus every state record after it.
            Some(covered) => {
                let mut image = match self.store.get(IMAGE_KEY)? {
                    Some(bytes) => ServerImage::decode(Bytes::from(bytes))?,
                    None => self.build_image(),
                };
                let mut replayed = covered;
                for (seq, record) in tail.into_iter().filter(|_| recorded) {
                    if seq != replayed + 1 {
                        continue; // covered by the checkpoint, or past a gap
                    }
                    image.apply(StateRecord::decode(Bytes::from(record))?)?;
                    replayed = seq;
                }
                self.restore_image(image, now)?;
                // Records past a gap the replay stopped at are superseded
                // by a checkpoint before anything new is recorded.
                recorded && replayed != last_seq
            }
            // So are the records of an earlier incarnation under a fresh
            // server.
            None => recorded && last_seq > 0,
        };
        self.relay_step(now)
    }

    /// Marks a relayed subscriber connected (its backlog redelivers) or
    /// disconnected (its backlog accumulates, bounded by depth and TTL).
    /// Returns the datagrams produced by the resulting redelivery.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Closed`] when no relay is enabled here and
    /// propagates storage errors from the step's commit.
    pub fn relay_set_connected(
        &mut self,
        sub: AgentId,
        connected: bool,
        now: VTime,
    ) -> Result<Vec<Transmission>> {
        let Some(relay) = &mut self.relay else {
            return Err(Error::Closed("no relay enabled on this server"));
        };
        relay.set_connected(sub, connected, now);
        self.relay_step(now)
    }

    /// Runs a full step (reactions, flush, commit) when the relay has
    /// outbox work; a cheap no-op otherwise.
    fn relay_step(&mut self, now: VTime) -> Result<Vec<Transmission>> {
        if self.relay.as_ref().is_none_or(RelayCore::outbox_is_empty) {
            return Ok(Vec::new());
        }
        self.run_reactions(now)?;
        let out = self.flush(now)?;
        self.commit()?;
        Ok(out)
    }

    /// Attaches a shared send→deliver latency tracker feeding the
    /// `aaa_server_delivery_latency_us` histogram. One tracker is shared by
    /// all servers of a bus; it is clock-agnostic (the live runtime
    /// passes wall-clock µs, the simulator virtual-time µs).
    pub fn set_latency_tracker(&mut self, tracker: LatencyTracker) {
        self.latency = Some(tracker);
    }

    /// Attaches a trace recorder; every end-to-end send and delivery on
    /// this server will be recorded.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Attaches a shared in-flight counter (incremented per accepted
    /// remote send, decremented per final delivery) used by runtimes to
    /// detect quiescence.
    pub fn set_in_flight(&mut self, counter: Arc<AtomicI64>) {
        self.in_flight = Some(counter);
    }

    /// This server's id.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The causal channel (for inspection).
    pub fn channel(&self) -> &ChannelCore {
        &self.channel
    }

    /// The engine (for inspection).
    pub fn engine(&self) -> &EngineCore {
        &self.engine
    }

    /// Registers an agent under server-local id `local`.
    pub fn register_agent(&mut self, local: u32, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId::new(self.me, local);
        self.engine.register(id, agent);
        if self.config.persist {
            self.log.agents.push(local);
        }
        id
    }

    /// Drains the per-step statistics.
    pub fn take_step_stats(&mut self) -> StepStats {
        let ch = self.channel.take_stats();
        let reactions = self.engine.reactions() - self.reactions_snapshot;
        self.reactions_snapshot = self.engine.reactions();
        let disk = std::mem::take(&mut self.disk_bytes);
        StepStats {
            cell_ops: ch.cell_ops,
            stamp_bytes: ch.stamp_bytes,
            disk_bytes: disk,
            delivered: ch.delivered,
            transmitted: ch.transmitted,
            forwarded: ch.forwarded,
            reactions,
        }
    }

    fn record_send(&self, dest: ServerId, id: MessageId, now: VTime) {
        if let Some(rec) = &self.recorder {
            rec.record_send(self.me, dest, id);
        }
        if dest != self.me {
            if let Some(c) = &self.in_flight {
                c.fetch_add(1, Ordering::Relaxed);
            }
            if self.metrics.is_some() {
                if let Some(t) = &self.latency {
                    t.record_send(id, now.as_micros());
                }
            }
        }
    }

    fn record_delivery(&self, id: MessageId, remote: bool, now: VTime) {
        if let Some(rec) = &self.recorder {
            rec.record_delivery(self.me, id);
        }
        if remote {
            if let Some(c) = &self.in_flight {
                c.fetch_sub(1, Ordering::Relaxed);
            }
            if let (Some(m), Some(t)) = (&self.metrics, &self.latency) {
                if let Some(sent) = t.take_send(id) {
                    m.delivery_latency_us
                        .observe(now.as_micros().saturating_sub(sent));
                }
            }
        }
    }

    /// Injects a notification from a local client or agent identity
    /// `from`, addressed to `to`. Runs any local reactions to quiescence,
    /// commits the transaction and returns the datagrams to transmit.
    ///
    /// # Errors
    ///
    /// Propagates channel validation errors (unknown destination server,
    /// foreign sender agent).
    pub fn client_send(
        &mut self,
        from: AgentId,
        to: AgentId,
        note: Notification,
        now: VTime,
    ) -> Result<(MessageId, Vec<Transmission>)> {
        self.client_send_with(from, to, note, SendOptions::default(), now)
    }

    /// Like [`ServerCore::client_send`], with explicit per-send options
    /// (anything convertible into [`SendOptions`], including a bare
    /// [`DeliveryPolicy`]).
    ///
    /// Unordered messages are excluded from the causality trace (they are
    /// free to violate causal order by design); they still count toward
    /// the in-flight counter so quiescence detection covers them.
    ///
    /// # Errors
    ///
    /// As for [`ServerCore::client_send`]; additionally returns
    /// [`Error::Backpressure`] when the outstanding-message budget
    /// ([`ServerConfig::max_outstanding`]) is exhausted.
    pub fn client_send_with(
        &mut self,
        from: AgentId,
        to: AgentId,
        note: Notification,
        opts: impl Into<SendOptions>,
        now: VTime,
    ) -> Result<(MessageId, Vec<Transmission>)> {
        self.check_backpressure()?;
        let opts = opts.into();
        let id = self.submit(from, to, note, opts.policy, now)?;
        self.run_reactions(now)?;
        let out = self.flush(now)?;
        self.commit()?;
        Ok((id, out))
    }

    /// Injects several notifications from `from` as one transaction: all of
    /// them are stamped together (consecutive same-hop stamps collapse to
    /// `GroupNext` continuations), flushed as coalesced wire packets and
    /// covered by a single group commit.
    ///
    /// # Errors
    ///
    /// As for [`ServerCore::client_send`]; the first failing submission
    /// aborts the batch (earlier submissions remain queued and are still
    /// flushed by the next step). Returns [`Error::Backpressure`] when the
    /// outstanding-message budget ([`ServerConfig::max_outstanding`]) is
    /// exhausted (checked once, before the first submission).
    pub fn client_send_batch(
        &mut self,
        from: AgentId,
        batch: Vec<(AgentId, Notification)>,
        opts: impl Into<SendOptions>,
        now: VTime,
    ) -> Result<(Vec<MessageId>, Vec<Transmission>)> {
        self.check_backpressure()?;
        let opts = opts.into();
        let ids = (batch.into_iter())
            .map(|(to, note)| self.submit(from, to, note, opts.policy, now))
            .collect::<Result<Vec<_>>>()?;
        self.run_reactions(now)?;
        let out = self.flush(now)?;
        self.commit()?;
        Ok((ids, out))
    }

    /// Processes one datagram from neighbour `from`, commits the resulting
    /// transaction, and returns the datagrams to transmit (always
    /// including a link acknowledgement for data frames).
    ///
    /// Equivalent to [`ServerCore::on_datagram_batch`] with one element.
    ///
    /// # Errors
    ///
    /// As for [`ServerCore::on_datagram_batch`]: malformed or misrouted
    /// input is dropped and counted, not an error.
    pub fn on_datagram(
        &mut self,
        from: ServerId,
        bytes: Bytes,
        now: VTime,
    ) -> Result<Vec<Transmission>> {
        self.on_datagram_batch(std::iter::once((from, bytes)), now)
    }

    /// Processes a whole inbox drain as **one transaction**: every ready
    /// frame is ingested, causal deliveries and reactions run, the produced
    /// messages are batch-stamped and coalesced per peer, and a single
    /// group commit persists the result — one state record (or
    /// checkpoint) and one `fdatasync` covering N deliveries
    /// ([`ServerCore::commit`]). One cumulative acknowledgement per data-sending peer
    /// is appended (batches of frames from a peer are acked once).
    ///
    /// Pure-ack input produces no reactions, no flush and no commit, as
    /// with the single-datagram path.
    ///
    /// Input is untrusted: a datagram or frame payload that fails to
    /// decode, or that the channel refuses (unknown domain, sender
    /// outside the domain, a stamp of the wrong shape), is dropped and
    /// counted in `aaa_server_rejected_datagrams_total`, and the rest of
    /// the drain is processed as if it had not been there.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Storage`] from the relay journal or the group
    /// commit, and channel errors from what the reactions send. An error
    /// aborts the step before the commit and the acknowledgements — the
    /// peers retransmit the drain — and counts every datagram of it as
    /// rejected.
    pub fn on_datagram_batch(
        &mut self,
        datagrams: impl IntoIterator<Item = (ServerId, Bytes)>,
        now: VTime,
    ) -> Result<Vec<Transmission>> {
        let mut seen = 0;
        let datagrams = datagrams.into_iter().inspect(|_| seen += 1);
        let step = self.ingest_drain(datagrams, now);
        if step.is_err() {
            self.reject_input(seen);
        }
        step
    }

    /// Counts `n` inputs refused by the ingestion path.
    fn reject_input(&self, n: u64) {
        if let Some(m) = &self.metrics {
            m.rejected_datagrams.add(n);
        }
    }

    fn ingest_drain(
        &mut self,
        datagrams: impl Iterator<Item = (ServerId, Bytes)>,
        now: VTime,
    ) -> Result<Vec<Transmission>> {
        let mut any_data = false;
        // Last cumulative ack per peer, in first-seen peer order.
        let mut acks: Vec<(ServerId, u64)> = Vec::new();
        // The drain's buffers: every datagram appends to them and empties
        // them again, so they cost nothing per message.
        let mut payloads: Vec<Bytes> = Vec::new();
        let mut local: Vec<AgentMessage> = Vec::new();
        for (from, bytes) in datagrams {
            let (single, batch) = match Datagram::decode(bytes) {
                Ok(Datagram::Ack { cum_seq }) => {
                    if let Some(tx) = self.links_tx.get_mut(&from) {
                        tx.on_ack(cum_seq);
                    }
                    continue;
                }
                Ok(Datagram::Data(frame)) => (Some(frame), Vec::new()),
                Ok(Datagram::Batch(frames)) => (None, frames),
                Err(_) => {
                    self.reject_input(1);
                    continue;
                }
            };
            any_data = true;
            let mut ack = None;
            payloads.reserve(batch.len().max(1));
            {
                let rx = self.links_rx.entry(from).or_default();
                for frame in single.into_iter().chain(batch) {
                    ack = Some(rx.on_frame_into(frame, &mut payloads));
                }
            }
            for payload in payloads.drain(..) {
                // The link consumed the frame either way: a payload that
                // is refused here is acknowledged below, never re-sent.
                let Ok(msg) = WireMessage::decode(payload) else {
                    self.reject_input(1);
                    continue;
                };
                let unordered = msg.stamp.is_none() && msg.dest_server == self.me;
                // The channel validates before it touches any clock, so a
                // refused message leaves no trace in the causal state.
                if self
                    .channel
                    .on_message_into(from, msg, now, &mut local)
                    .is_err()
                {
                    self.reject_input(1);
                    continue;
                }
                for m in local.drain(..) {
                    if unordered {
                        // Unordered deliveries stay out of the causal
                        // trace but settle the in-flight counter.
                        if let Some(c) = &self.in_flight {
                            c.fetch_sub(1, Ordering::Relaxed);
                        }
                    } else {
                        self.record_delivery(m.id, m.from.server() != self.me, now);
                    }
                    self.deliver_local(m, now)?;
                }
            }
            if let Some(cum_seq) = ack {
                match acks.iter_mut().find(|(peer, _)| *peer == from) {
                    Some(entry) => entry.1 = cum_seq,
                    None => acks.push((from, cum_seq)),
                }
            }
        }
        if !any_data {
            return Ok(Vec::new());
        }
        self.run_reactions(now)?;
        let mut out = self.flush(now)?;
        self.commit()?;
        for (to, cum_seq) in acks {
            out.push(Transmission {
                to,
                bytes: Datagram::Ack { cum_seq }.encode(),
            });
        }
        Ok(out)
    }

    /// Polls link timers: retransmits overdue unacked frames (coalesced
    /// into one wire packet per peer); then the relay's expiry and retry
    /// timers.
    ///
    /// After a failed commit the tick first retries it and returns nothing
    /// while that fails: the links then hold frames no durable state
    /// covers. A poisoned journal fails every retry, so such a server
    /// stays silent until it is recovered; a failed checkpoint `put` holds
    /// the links only until a `put` succeeds.
    pub fn on_tick(&mut self, now: VTime) -> Vec<Transmission> {
        if !self.committed() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (&peer, tx) in self.links_tx.iter_mut() {
            let due = tx.due_retransmissions(now);
            if !due.is_empty() {
                if let Some(m) = &mut self.metrics {
                    m.retransmissions(peer).add(due.len() as u64);
                }
                if let Some(d) = Datagram::for_frames(due) {
                    out.push(Transmission {
                        to: peer,
                        bytes: d.encode(),
                    });
                }
            }
        }
        match self.relay_tick(now) {
            Ok(tx) => out.extend(tx),
            // A storage failure: the journal is poisoned or the step's
            // image was not written. The next tick retries the commit
            // before it sends anything.
            Err(_) => return Vec::new(),
        }
        out
    }

    /// The relay half of [`ServerCore::on_tick`]: expiry and redelivery,
    /// then the step that sends what redelivery produced — or, when it
    /// produced nothing, just the journal commit (expiry acks journal
    /// without traffic; a clean journal costs nothing).
    fn relay_tick(&mut self, now: VTime) -> Result<Vec<Transmission>> {
        let Some(relay) = &mut self.relay else {
            return Ok(Vec::new());
        };
        relay.on_tick(now)?;
        if relay.outbox_is_empty() {
            self.commit_with(false)?;
        }
        self.relay_step(now)
    }

    /// Writes a checkpoint of the server's state *now*, outside any step
    /// — the final checkpoint a graceful shutdown takes after draining, so
    /// a later recovery restarts from the drained state instead of
    /// replaying a tail of state records. Without persistence it only
    /// commits the relay journal.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Storage`] from the relay journal and the
    /// stable store.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.log.checkpoint_due = true;
        self.commit()
    }

    /// The earliest retransmission deadline across links and relay retry
    /// timers, if any.
    pub fn next_deadline(&self) -> Option<VTime> {
        let links = self.links_tx.values().filter_map(|tx| tx.next_deadline());
        let relay = self.relay.as_ref().and_then(RelayCore::next_retry_deadline);
        links.chain(relay).min()
    }

    /// Returns `true` if the server holds no queued, postponed or unacked
    /// work.
    pub fn is_idle(&self) -> bool {
        self.channel.queued_out() == 0
            && self.channel.postponed_count() == 0
            && self.engine.pending() == 0
            && self.links_tx.values().all(|tx| tx.in_flight() == 0)
            && self.relay.as_ref().is_none_or(RelayCore::is_idle)
    }

    /// Messages currently queued, postponed, or unacknowledged on a link —
    /// the quantity bounded by [`ServerConfig::max_outstanding`].
    pub fn outstanding(&self) -> usize {
        self.channel.queued_out()
            + self.channel.postponed_count()
            + self
                .links_tx
                .values()
                .map(|tx| tx.in_flight())
                .sum::<usize>()
    }

    /// Rejects a client send when the outstanding budget is exhausted.
    fn check_backpressure(&mut self) -> Result<()> {
        if self.outstanding() >= self.config.max_outstanding {
            if let Some(m) = &self.metrics {
                m.backpressure.inc();
            }
            return Err(Error::Backpressure);
        }
        Ok(())
    }

    /// Runs engine reactions and relay outbox dispatches until both are
    /// drained.
    fn run_reactions(&mut self, now: VTime) -> Result<()> {
        loop {
            if let Some(reaction) = self.engine.step() {
                if self.config.persist && reaction.reacted {
                    self.log.agents.push(reaction.msg.to.local());
                }
                for (to, note, policy) in reaction.outgoing {
                    self.submit(reaction.msg.to, to, note, policy, now)?;
                }
            } else if let Some((to, note, policy)) =
                self.relay.as_mut().and_then(RelayCore::pop_outbox)
            {
                self.submit(relay_agent(self.me), to, note, policy, now)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Submits one notification into the channel: the one path of client
    /// sends, reactions and relay dispatches. A message for this server is
    /// traced and delivered at once ([`ServerCore::deliver_local`]); one
    /// for another is traced as a send and waits for the flush. Unordered
    /// messages stay out of the trace but count toward the in-flight
    /// counter.
    fn submit(
        &mut self,
        from: AgentId,
        to: AgentId,
        note: Notification,
        policy: DeliveryPolicy,
        now: VTime,
    ) -> Result<MessageId> {
        let causal = policy == DeliveryPolicy::Causal;
        match self.channel.submit_with(from, to, note, policy)? {
            Submit::Local(msg) => {
                let id = msg.id;
                if causal {
                    self.record_send(self.me, id, now);
                    self.record_delivery(id, false, now);
                }
                self.deliver_local(msg, now)?;
                Ok(id)
            }
            Submit::Queued(id) => {
                if causal {
                    self.record_send(to.server(), id, now);
                } else if let Some(c) = &self.in_flight {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                Ok(id)
            }
        }
    }

    /// Routes a locally deliverable message: to the relay pseudo-agent, to
    /// the relay-delivery receive path, or onto the engine's `QueueIN`.
    fn deliver_local(&mut self, msg: AgentMessage, now: VTime) -> Result<()> {
        if msg.to.local() == RELAY_LOCAL {
            self.deliver_to_relay(msg, now)
        } else if msg.note.kind() == relay::RELAY_DELIVER {
            self.deliver_from_relay(msg, now)
        } else {
            self.engine.enqueue(msg);
            Ok(())
        }
    }

    /// Handles a message addressed to this server's relay pseudo-agent (a
    /// dead letter on a server without one). A control body that does not
    /// decode is dropped and counted; only a storage error fails the step.
    fn deliver_to_relay(&mut self, msg: AgentMessage, now: VTime) -> Result<()> {
        let Some(relay) = &mut self.relay else {
            return Ok(());
        };
        let step = relay.on_control(msg.from, msg.note.kind(), msg.note.body(), now);
        step.unwrap_or_else(|_| {
            self.reject_input(1);
            Ok(())
        })
    }

    /// Handles a relay delivery to a local subscriber. Only this server's
    /// own relay delivers; anything else under the kind, or a body that
    /// does not decode, is dropped and counted. Dedups by the subscriber's
    /// watermark, unwraps the original publication for the engine and acks
    /// the relay in place.
    fn deliver_from_relay(&mut self, msg: AgentMessage, now: VTime) -> Result<()> {
        let own = msg.from == relay_agent(self.me);
        let mut d = Decoder::new(msg.note.body().clone());
        let (true, Ok(seq), Ok(payload)) = (own, d.u64(), d.bytes()) else {
            self.reject_input(1);
            return Ok(());
        };
        let key = (msg.to, self.me);
        let last = self.deliver_rx.get(&key).copied().unwrap_or(0);
        if seq > last {
            self.deliver_rx.insert(key, seq);
            if self.config.persist {
                self.log.deliver_rx.push(key);
            }
            // A poisoned entry is skipped but still acked, so the window
            // keeps moving.
            if let Ok((topic, kind, inner)) = relay::decode_payload(&payload) {
                self.engine.enqueue(AgentMessage {
                    id: msg.id,
                    from: topic,
                    to: msg.to,
                    note: Notification::new(kind, inner),
                });
            }
        }
        match &mut self.relay {
            Some(relay) => relay.on_ack(msg.to, seq.max(last), now),
            None => Ok(()),
        }
    }

    /// Stamps and hands queued messages to the link layer, returning the
    /// datagrams for the transport: consecutive same-hop messages are
    /// group-stamped and coalesced into multi-frame wire packets, and every
    /// link the step touched is flushed before it returns, so no frame
    /// waits for a later step.
    fn flush(&mut self, now: VTime) -> Result<Vec<Transmission>> {
        let rto = self.config.rto;
        let mut out = Vec::new();
        let mut touched: Vec<ServerId> = Vec::new();
        for (hop, msg) in self.channel.take_transmissions_batched(true)? {
            let payload = msg.encode();
            let full = (self.links_tx.entry(hop))
                .or_insert_with(|| LinkSender::with_rto(rto))
                .buffer(payload, now);
            if let Some(frames) = full {
                self.push_batch(&mut out, hop, frames);
            }
            if !touched.contains(&hop) {
                touched.push(hop);
            }
        }
        for hop in touched {
            let flushed = self.links_tx.get_mut(&hop).and_then(|tx| tx.flush());
            if let Some(frames) = flushed {
                self.push_batch(&mut out, hop, frames);
            }
        }
        Ok(out)
    }

    /// Encodes one flushed batch as a wire packet and records its width.
    fn push_batch(&self, out: &mut Vec<Transmission>, to: ServerId, frames: Vec<LinkFrame>) {
        if let Some(m) = &self.metrics {
            m.batch_frames.observe(frames.len() as u64);
            m.flushes.inc();
        }
        if let Some(d) = Datagram::for_frames(frames) {
            out.push(Transmission {
                to,
                bytes: d.encode(),
            });
        }
    }

    /// Commits the step — the one routine, and the one checkpoint
    /// policy, every persisting server runs (DESIGN.md §17.1):
    ///
    /// 1. with a durable relay journal, what the step changed goes into
    ///    the journal's state stream as one state record
    ///    ([`ServerCore::state_record`]);
    /// 2. the journal commits: one write and one `fdatasync` make the
    ///    relay's records and the state record durable together;
    /// 3. a checkpoint — the whole state, through [`StableStore::put`] —
    ///    follows only when the journal is about to compact, when the
    ///    records since the last checkpoint outgrow it (and
    ///    [`CHECKPOINT_FLOOR`]), or when no durable journal records the
    ///    state at all (then every step checkpoints); it covers the
    ///    records before it, which compaction then drops.
    ///
    /// A batch of N deliveries costs one sync, state included. The order
    /// is the durability contract: no checkpoint records a handoff or ack
    /// watermark whose journal record is not yet durable, and every caller
    /// hands the step's transmissions over only after this returns `Ok`.
    /// Without persistence only step 2 (and due compaction) runs.
    fn commit(&mut self) -> Result<()> {
        self.commit_with(true)
    }

    /// [`ServerCore::commit`]; without `state`, the commit of a relay tick
    /// that sent nothing: only what the relay journaled, and a checkpoint
    /// only if compaction needs one. State changed outside a step (an
    /// agent registered, a subscriber disconnected) waits for the next
    /// step's record, as it never leaves the server before that step.
    fn commit_with(&mut self, state: bool) -> Result<()> {
        let committed = self.commit_step(state);
        self.uncommitted = committed.is_err();
        committed
    }

    /// `true` unless the last commit failed and retrying it fails too.
    fn committed(&mut self) -> bool {
        !self.uncommitted || self.commit().is_ok()
    }

    fn commit_step(&mut self, state: bool) -> Result<()> {
        let persist = self.config.persist;
        let started = persist.then(std::time::Instant::now);
        let recorded = persist && self.relay.as_ref().is_some_and(|r| r.journal.is_durable());
        let mut written = 0;
        if recorded && state {
            if let Some(record) = self.state_record() {
                let bytes = record.encode();
                if let Some(relay) = &mut self.relay {
                    relay.journal.append_state(&bytes)?;
                }
                written += bytes.len() as u64;
                self.log.tail_bytes += bytes.len() as u64;
            }
        }
        self.commit_journal()?;
        let compaction_due = (self.relay.as_ref()).is_some_and(|r| r.journal.compaction_due());
        let checkpoint_due = state
            && (!recorded
                || self.log.checkpoint_due
                || self.log.tail_bytes > self.log.checkpoint_bytes.max(CHECKPOINT_FLOOR));
        if persist && (checkpoint_due || (recorded && compaction_due)) {
            written += self.write_checkpoint()?;
        }
        if compaction_due {
            if let Some(relay) = &mut self.relay {
                relay.compact()?;
            }
        }
        if let Some(started) = started.filter(|_| written > 0) {
            self.disk_bytes += written;
            if let Some(m) = &self.metrics {
                m.disk_bytes.add(written);
                m.group_commit_total.inc();
                m.group_commit_us
                    .observe(started.elapsed().as_micros() as u64);
            }
        }
        Ok(())
    }

    /// Commits the relay journal: one write and one `fdatasync` when the
    /// step journaled anything, nothing otherwise.
    fn commit_journal(&mut self) -> Result<()> {
        match &mut self.relay {
            Some(relay) => relay.sync(),
            None => Ok(()),
        }
    }

    /// Writes a checkpoint covering every state record appended so far,
    /// and returns its size.
    fn write_checkpoint(&mut self) -> Result<u64> {
        let image = self.build_image();
        let bytes = image.encode();
        self.store
            .put(IMAGE_KEY, &bytes)
            .map_err(|e| Error::Storage(format!("checkpoint failed: {e}")))?;
        if let Some(relay) = &mut self.relay {
            relay.journal.cover_state(image.state_seq);
        }
        self.mark_recorded();
        self.log.checkpoint_due = false;
        self.log.checkpoint_bytes = bytes.len() as u64;
        self.log.tail_bytes = 0;
        Ok(bytes.len() as u64)
    }

    /// Declares the current state recorded: the next state record carries
    /// only what moves from here.
    fn mark_recorded(&mut self) {
        let (msg_seq, queue_out, postponed, _) = self.channel.persist_parts();
        self.log.msg_seq = msg_seq;
        self.log.queues =
            !(queue_out.is_empty() && postponed.is_empty() && self.engine.pending() == 0);
        self.log.links.clear();
        for (&peer, tx) in &self.links_tx {
            let mark = self.log.links.entry(peer).or_insert(LinkMark::NEW);
            mark.next_seq = tx.next_seq();
            mark.acked = acked_through(tx);
        }
        for (&peer, rx) in &self.links_rx {
            self.log.links.entry(peer).or_insert(LinkMark::NEW).cum_seq = rx.cum_seq();
        }
        self.log.agents.clear();
        self.log.deliver_rx.clear();
        self.channel.take_dirty_items();
        if let Some(relay) = &mut self.relay {
            relay.take_changes();
        }
    }

    /// What changed since the last state record or checkpoint, as the
    /// next state record: the clocks the channel touched, the agents that
    /// reacted, the links that moved, the relay watermarks and registry
    /// keys that changed, the message counter and the (between steps,
    /// empty) queues. `None` when nothing moved but link
    /// acknowledgements: those ride along with the next record, since an
    /// ack lost to a crash costs only a retransmission the peer drops.
    fn state_record(&mut self) -> Option<StateRecord> {
        let mut links_tx = Vec::new();
        let mut links_rx = Vec::new();
        let mut moved = false;
        for (&peer, tx) in &self.links_tx {
            let mark = self.log.links.get(&peer).copied().unwrap_or(LinkMark::NEW);
            let acked = acked_through(tx);
            if (tx.next_seq(), acked) != (mark.next_seq, mark.acked) {
                moved |= tx.next_seq() != mark.next_seq;
                links_tx.push(LinkTxDelta {
                    peer,
                    next_seq: tx.next_seq(),
                    acked,
                    sent: (tx.unacked_frames())
                        .filter(|f| f.seq >= mark.next_seq)
                        .cloned()
                        .collect(),
                });
            }
        }
        for (&peer, rx) in &self.links_rx {
            let mark = self.log.links.get(&peer).copied().unwrap_or(LinkMark::NEW);
            if rx.cum_seq() != mark.cum_seq {
                moved = true;
                links_rx.push(LinkRxImage {
                    peer,
                    cum_seq: rx.cum_seq(),
                });
            }
        }
        let (msg_seq, queue_out, postponed, _) = self.channel.persist_parts();
        let queues = !(queue_out.is_empty() && postponed.is_empty() && self.engine.pending() == 0);
        let quiet = !moved
            && msg_seq == self.log.msg_seq
            && !queues
            && !self.log.queues
            && self.log.agents.is_empty()
            && self.log.deliver_rx.is_empty()
            && self.relay.as_ref().is_none_or(RelayCore::unchanged)
            && !self.channel.has_dirty_items();
        if quiet {
            return None;
        }
        for link in &links_tx {
            let mark = self.log.links.entry(link.peer).or_insert(LinkMark::NEW);
            mark.next_seq = link.next_seq;
            mark.acked = link.acked;
        }
        for link in &links_rx {
            self.log
                .links
                .entry(link.peer)
                .or_insert(LinkMark::NEW)
                .cum_seq = link.cum_seq;
        }
        self.log.msg_seq = msg_seq;
        self.log.queues = queues;
        let mut agents = std::mem::take(&mut self.log.agents);
        agents.sort_unstable();
        agents.dedup();
        let mut deliver_rx = std::mem::take(&mut self.log.deliver_rx);
        deliver_rx.sort_unstable();
        deliver_rx.dedup();
        let dirty = self.channel.take_dirty_items();
        let (_, queue_out, postponed, items) = self.channel.persist_parts();
        Some(StateRecord {
            next_msg_seq: msg_seq,
            items: (dirty.into_iter())
                .filter_map(|i| Some((i, items.get(i)?.clock().clone())))
                .collect(),
            queue_out: queue_out.clone(),
            postponed: postponed.to_vec(),
            engine_queue: self.engine.queue_snapshot().cloned().collect(),
            links_tx,
            links_rx,
            agents: (agents.into_iter())
                .filter_map(|l| Some((l, self.engine.snapshot_agent(AgentId::new(self.me, l))?)))
                .collect(),
            deliver_rx: (deliver_rx.into_iter())
                .filter_map(|k| Some((k, *self.deliver_rx.get(&k)?)))
                .collect(),
            relay: self
                .relay
                .as_mut()
                .map(RelayCore::take_changes)
                .unwrap_or_default(),
        })
    }

    /// The whole state, as a checkpoint covering every state record
    /// appended so far.
    fn build_image(&self) -> ServerImage {
        let (next_msg_seq, queue_out, postponed, items) = self.channel.persist_parts();
        let mut agents: Vec<(u32, Vec<u8>)> = self
            .engine
            .agent_ids()
            .into_iter()
            .filter_map(|id| Some((id.local(), self.engine.snapshot_agent(id)?)))
            .collect();
        agents.sort_unstable_by_key(|(local, _)| *local);
        let mut deliver_rx: Vec<_> = self.deliver_rx.iter().map(|(&k, &v)| (k, v)).collect();
        deliver_rx.sort_unstable();
        ServerImage {
            state_seq: self.relay.as_ref().map_or(0, |r| r.journal.state_seq()),
            next_msg_seq,
            items: items.to_vec(),
            queue_out: queue_out.clone(),
            postponed: postponed.to_vec(),
            engine_queue: self.engine.queue_snapshot().cloned().collect(),
            links_tx: self
                .links_tx
                .iter()
                .map(|(&peer, tx)| LinkTxImage {
                    peer,
                    next_seq: tx.next_seq(),
                    unacked: tx.unacked_frames().cloned().collect(),
                })
                .collect(),
            links_rx: self
                .links_rx
                .iter()
                .map(|(&peer, rx)| LinkRxImage {
                    peer,
                    cum_seq: rx.cum_seq(),
                })
                .collect(),
            agents,
            deliver_rx,
            relay: self
                .relay
                .as_ref()
                .map(RelayCore::registry)
                .unwrap_or_default(),
        }
    }

    /// Makes `image` the server's state: clocks and queues, links, agent
    /// states, relay watermarks and, when a relay runs, its registry.
    fn restore_image(&mut self, image: ServerImage, now: VTime) -> Result<()> {
        self.channel.reload(
            image.next_msg_seq,
            image.queue_out,
            image.postponed,
            image.items,
        )?;
        self.engine.reload_queue(image.engine_queue);
        let rto = self.config.rto;
        self.links_tx = (image.links_tx.into_iter())
            .map(|l| (l.peer, LinkSender::restore(rto, l.next_seq, l.unacked, now)))
            .collect();
        self.links_rx = (image.links_rx.into_iter())
            .map(|l| (l.peer, LinkReceiver::restore(l.cum_seq)))
            .collect();
        for (local, snapshot) in &image.agents {
            self.engine
                .restore_agent(AgentId::new(self.me, *local), snapshot);
        }
        self.deliver_rx = image.deliver_rx.into_iter().collect();
        if let Some(relay) = &mut self.relay {
            relay.restore(image.relay, now);
        }
        self.mark_recorded();
        Ok(())
    }

    /// Rebuilds a server from its persisted checkpoint after a crash.
    ///
    /// `agents` supplies fresh instances (the code is not persisted, only
    /// the state); each is restored from its snapshot in the checkpoint.
    /// If no checkpoint exists (the server never committed), a fresh
    /// server with the given agents is returned. A server whose state
    /// records live in a relay journal is recovered completely only by the
    /// [`ServerCore::enable_relay`] that follows, which replays them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`]/[`Error::Storage`] if the checkpoint is
    /// corrupt or unreadable, and propagates topology validation errors.
    pub fn recover(
        topology: &Topology,
        me: ServerId,
        config: ServerConfig,
        store: Arc<dyn StableStore>,
        agents: Vec<(u32, Box<dyn Agent>)>,
        now: VTime,
    ) -> Result<Self> {
        let checkpoint = store.get(IMAGE_KEY)?;
        let mut core = ServerCore::new(topology, me, config, store)?;
        for (local, agent) in agents {
            core.register_agent(local, agent);
        }
        let Some(bytes) = checkpoint else {
            // Nothing checkpointed yet: any state records start from this
            // fresh state.
            core.log.recovered_at = Some(0);
            return Ok(core);
        };
        core.log.checkpoint_bytes = bytes.len() as u64;
        let image = ServerImage::decode(Bytes::from(bytes))?;
        core.log.recovered_at = Some(image.state_seq);
        core.log.checkpoint_due = false;
        core.restore_image(image, now)?;
        Ok(core)
    }

    /// Decodes `bytes` as a checkpoint (`checkpoint`) or as a state record
    /// and drops the result: the entry point through which
    /// `tests/decoders.rs` holds both decoders of untrusted disk bytes to
    /// their allocation bound. Not part of the supported API.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] when the bytes do not decode.
    #[doc(hidden)]
    pub fn decode_persisted(checkpoint: bool, bytes: Bytes) -> Result<()> {
        if checkpoint {
            ServerImage::decode(bytes).map(drop)
        } else {
            StateRecord::decode(bytes).map(drop)
        }
    }
}

/// The highest sequence number `tx` has had acknowledged.
fn acked_through(tx: &LinkSender) -> u64 {
    tx.unacked_frames()
        .next()
        .map_or(tx.next_seq(), |f| f.seq)
        .saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{EchoAgent, FnAgent};
    use aaa_net::wire::Encoder;
    use aaa_net::RelayAck;
    use aaa_storage::MemoryStore;
    use aaa_topology::TopologySpec;

    fn aid(s: u16, l: u32) -> AgentId {
        AgentId::new(ServerId::new(s), l)
    }

    fn s(i: u16) -> ServerId {
        ServerId::new(i)
    }

    fn make(topo: &Topology, me: u16, config: ServerConfig) -> ServerCore {
        let mut core = ServerCore::new(topo, s(me), config, Arc::new(MemoryStore::new())).unwrap();
        core.register_agent(1, Box::new(EchoAgent));
        core
    }

    /// Delivers transmissions between cores until everything is idle.
    fn settle(cores: &mut [ServerCore], mut pending: Vec<Transmission>, from: ServerId) {
        // (from, transmission) pairs
        let mut queue: Vec<(ServerId, Transmission)> =
            pending.drain(..).map(|t| (from, t)).collect();
        let mut guard = 0;
        while let Some((src, t)) = queue.pop() {
            guard += 1;
            assert!(guard < 10_000, "settle did not converge");
            let more = cores[t.to.as_usize()]
                .on_datagram(src, t.bytes, VTime::ZERO)
                .unwrap();
            let me = cores[t.to.as_usize()].me();
            queue.extend(more.into_iter().map(|t| (me, t)));
        }
    }

    #[test]
    fn ping_pong_two_servers() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let mut cores: Vec<ServerCore> = (0..2)
            .map(|i| make(&topo, i, ServerConfig::default()))
            .collect();

        let got: Arc<parking_lot::Mutex<Vec<String>>> = Default::default();
        let got2 = got.clone();
        cores[0].register_agent(
            9,
            Box::new(FnAgent::new(move |_ctx, _from, note| {
                got2.lock().push(note.kind().to_owned());
            })),
        );

        // Client on server 0 pings the echo agent on server 1.
        let (_, tx) = cores[0]
            .client_send(
                aid(0, 9),
                aid(1, 1),
                Notification::signal("ping"),
                VTime::ZERO,
            )
            .unwrap();
        settle(&mut cores, tx, s(0));
        assert_eq!(*got.lock(), vec!["ping".to_owned()]);
        assert!(cores.iter().all(|c| c.is_idle()));
    }

    #[test]
    fn local_delivery_without_network() {
        let topo = TopologySpec::single_domain(1).validate().unwrap();
        let mut core = make(&topo, 0, ServerConfig::default());
        let seen: Arc<parking_lot::Mutex<u32>> = Default::default();
        let seen2 = seen.clone();
        core.register_agent(
            2,
            Box::new(FnAgent::new(move |_ctx, _f, _n| {
                *seen2.lock() += 1;
            })),
        );
        let (_, tx) = core
            .client_send(aid(0, 1), aid(0, 2), Notification::signal("x"), VTime::ZERO)
            .unwrap();
        assert!(tx.is_empty());
        assert_eq!(*seen.lock(), 1);
        let stats = core.take_step_stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.transmitted, 0);
        assert_eq!(stats.reactions, 1);
    }

    #[test]
    fn trace_recording_end_to_end() {
        let topo = TopologySpec::single_domain(3).validate().unwrap();
        let recorder = TraceRecorder::new();
        let counter = Arc::new(AtomicI64::new(0));
        let mut cores: Vec<ServerCore> = (0..3)
            .map(|i| {
                let mut c = make(&topo, i, ServerConfig::default());
                c.set_recorder(recorder.clone());
                c.set_in_flight(counter.clone());
                c
            })
            .collect();
        let (_, tx) = cores[0]
            .client_send(
                aid(0, 9),
                aid(2, 1),
                Notification::signal("hi"),
                VTime::ZERO,
            )
            .unwrap();
        settle(&mut cores, tx, s(0));
        // hi (0->2) + echo (2->0): 2 sends, 2 deliveries recorded.
        let trace = recorder.snapshot().unwrap();
        assert_eq!(trace.message_count(), 2);
        assert!(trace.check_causality().is_ok());
        assert_eq!(counter.load(Ordering::SeqCst), 0);
    }

    /// One drain mixing a valid frame with a garbage datagram and a frame
    /// whose stamp the channel refuses: the bad inputs are dropped and
    /// counted, the valid message is delivered and acknowledged, and the
    /// clocks end where a drain without the bad inputs leaves them.
    #[test]
    fn malformed_input_costs_only_itself() {
        use aaa_clocks::{MatrixClock, Stamp};

        let topo = TopologySpec::single_domain(3).validate().unwrap();
        let config = ServerConfig {
            stamp_mode: StampMode::Full,
            ..ServerConfig::default()
        };
        let (_, hello) = make(&topo, 0, config)
            .client_send(
                aid(0, 9),
                aid(2, 1),
                Notification::signal("hello"),
                VTime::ZERO,
            )
            .unwrap();
        let [hello] = <[Transmission; 1]>::try_from(hello).unwrap();
        // The same hop again, as link frame 2, under a matrix one too narrow.
        let Datagram::Data(first) = Datagram::decode(hello.bytes.clone()).unwrap() else {
            panic!("a single message travels as a Data frame");
        };
        let narrow = WireMessage {
            stamp: Some(Stamp::Full(MatrixClock::new(2))),
            ..WireMessage::decode(first.payload).unwrap()
        };
        let narrow = Datagram::Data(LinkFrame {
            seq: 2,
            payload: narrow.encode(),
        });

        let receive = |drain: Vec<(ServerId, Bytes)>| {
            let registry = aaa_obs::Registry::new();
            let got: Arc<parking_lot::Mutex<Vec<String>>> = Default::default();
            let sink = got.clone();
            let mut core = ServerCore::new(&topo, s(2), config, Arc::new(MemoryStore::new()))
                .expect("server 2 is in the topology");
            core.attach_meter(&Meter::new(&registry).with_label("server", "2"));
            core.register_agent(
                1,
                Box::new(FnAgent::new(move |_ctx, _from, note| {
                    sink.lock().push(note.kind().to_owned());
                })),
            );
            let out = core.on_datagram_batch(drain, VTime::ZERO);
            let rejected = registry
                .snapshot()
                .sum_counter("aaa_server_rejected_datagrams_total");
            let transcript = core.channel().items()[0].clock().transcript();
            let got = got.lock().clone();
            (out, rejected, transcript, got)
        };

        let (out, rejected, transcript, got) = receive(vec![
            (s(0), hello.bytes.clone()),
            (s(1), Bytes::from_static(b"\xffnot a datagram")),
            (s(0), narrow.encode()),
        ]);
        let out = out.expect("bad input is not a step error");
        assert_eq!(got, vec!["hello".to_owned()]);
        // Both of server 0's frames were consumed by the link, so one
        // cumulative ack covers them; server 1 sent nothing to ack.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, s(0));
        assert_eq!(
            Datagram::decode(out[0].bytes.clone()).unwrap(),
            Datagram::Ack { cum_seq: 2 }
        );
        assert_eq!(rejected, 2);

        let (clean_out, clean_rejected, clean_transcript, clean_got) =
            receive(vec![(s(0), hello.bytes)]);
        assert!(clean_out.is_ok());
        assert_eq!(clean_rejected, 0);
        assert_eq!(clean_got, got);
        assert_eq!(clean_transcript, transcript);
    }

    /// Server 1 of `single_domain(2)`, running a relay and a sink at local
    /// 1 that records the kinds it sees, takes one drain from server 0: a
    /// batch of `a` to the sink, then `notes`, then `b` to the sink.
    /// Returns the step, what the sink saw, the inputs counted as
    /// rejected, and the server.
    fn relay_input_from_a_peer(
        notes: Vec<(AgentId, Notification)>,
    ) -> (Result<Vec<Transmission>>, Vec<String>, u64, ServerCore) {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let sink = aid(1, 1);
        let mut batch = vec![(sink, Notification::signal("a"))];
        batch.extend(notes);
        batch.push((sink, Notification::signal("b")));
        let (_, tx) = make(&topo, 0, ServerConfig::default())
            .client_send_batch(aid(0, 9), batch, DeliveryPolicy::Causal, VTime::ZERO)
            .unwrap();
        let [drain] = <[Transmission; 1]>::try_from(tx).unwrap();
        let registry = aaa_obs::Registry::new();
        let got: Arc<parking_lot::Mutex<Vec<String>>> = Default::default();
        let seen = got.clone();
        let mut core = ServerCore::new(
            &topo,
            s(1),
            ServerConfig::default(),
            Arc::new(MemoryStore::new()),
        )
        .unwrap();
        core.attach_meter(&Meter::new(&registry));
        core.enable_relay(RelayConfig::default(), VTime::ZERO)
            .unwrap();
        core.register_agent(
            1,
            Box::new(FnAgent::new(move |_ctx, _from, note| {
                seen.lock().push(note.kind().to_owned());
            })),
        );
        let out = core.on_datagram(s(0), drain.bytes, VTime::ZERO);
        let rejected = registry
            .snapshot()
            .sum_counter("aaa_server_rejected_datagrams_total");
        let got = got.lock().clone();
        (out, got, rejected, core)
    }

    /// `out` is exactly one link acknowledgement to server 0, of all the
    /// `frames` a [`relay_input_from_a_peer`] drain carried.
    fn only_the_link_ack(out: Vec<Transmission>, frames: u64) {
        let [ack] = <[Transmission; 1]>::try_from(out).unwrap();
        assert_eq!(ack.to, s(0));
        assert_eq!(
            Datagram::decode(ack.bytes).unwrap(),
            Datagram::Ack { cum_seq: frames }
        );
    }

    /// A relay delivery whose body does not decode, between two good
    /// messages of one drain, costs only itself: it used to abort the
    /// step after the link had consumed all three frames, so `b`'s
    /// retransmission was dropped as a duplicate and `b` was lost.
    #[test]
    fn a_malformed_relay_body_costs_only_itself() {
        let empty = Notification::new(relay::RELAY_DELIVER, Vec::new());
        let (out, got, rejected, _) = relay_input_from_a_peer(vec![(aid(1, 1), empty)]);
        only_the_link_ack(out.expect("a malformed body is not a step error"), 3);
        assert_eq!(got, ["a", "b"]);
        assert_eq!(rejected, 1);
    }

    /// Every relay control kind a peer may send, with its body cut short
    /// (to nothing, and by its last byte): each is dropped and counted,
    /// and the rest of the drain is delivered.
    #[test]
    fn truncated_relay_control_bodies_are_counted_and_skipped() {
        let (topic, sub) = (aid(1, 7), aid(1, 1));
        let mut publish = Encoder::new();
        publish.agent_id(topic);
        publish.string("ev");
        publish.bytes(b"x");
        let mut membership = Encoder::new();
        membership.agent_id(topic);
        membership.agent_id(sub);
        let membership = membership.finish();
        let mut handoff = Encoder::new();
        handoff.agent_id(sub);
        handoff.u64(1);
        handoff.bytes(b"payload");
        let bodies = [
            (relay::RELAY_PUBLISH, publish.finish()),
            (relay::RELAY_SUBSCRIBE, membership.clone()),
            (relay::RELAY_UNSUBSCRIBE, membership),
            (
                relay::RELAY_ACK,
                RelayAck {
                    subscriber: sub,
                    upto: 1,
                }
                .encode(),
            ),
            (relay::RELAY_HANDOFF, handoff.finish()),
        ];
        for (kind, body) in bodies {
            let cut = |len: usize| {
                let note = Notification::new(kind, body.slice(0..len));
                (relay_agent(s(1)), note)
            };
            let (out, got, rejected, _) =
                relay_input_from_a_peer(vec![cut(0), cut(body.len() - 1)]);
            only_the_link_ack(out.unwrap_or_else(|e| panic!("{kind}: {e}")), 4);
            assert_eq!(got, ["a", "b"], "{kind}");
            assert_eq!(rejected, 2, "{kind}");
        }
    }

    /// Only this server's own relay delivers to its subscribers: a
    /// well-formed delivery from a peer's agent is refused, reaches no
    /// subscriber and moves no dedup watermark, and no ack answers it.
    #[test]
    fn a_relay_delivery_from_a_peer_reaches_no_subscriber() {
        let mut payload = Encoder::new();
        payload.agent_id(aid(0, 5));
        payload.string("forged");
        payload.bytes(b"x");
        let mut deliver = Encoder::new();
        deliver.u64(1);
        deliver.bytes(&payload.finish());
        let forged = Notification::new(relay::RELAY_DELIVER, deliver.finish());
        let (out, got, rejected, core) = relay_input_from_a_peer(vec![(aid(1, 1), forged)]);
        only_the_link_ack(out.unwrap(), 3);
        assert_eq!(got, ["a", "b"]);
        assert_eq!(rejected, 1);
        assert!(core.deliver_rx.is_empty());
    }

    /// Only a relay hands off custody: a well-formed handoff from a peer's
    /// plain agent is refused, reaches no subscriber, and no relay ack
    /// answers it.
    #[test]
    fn a_relay_handoff_from_a_plain_agent_reaches_no_subscriber() {
        let sub = aid(1, 1);
        let mut publication = Encoder::new();
        publication.agent_id(aid(0, 5));
        publication.string("forged");
        publication.bytes(b"x");
        let mut handoff = Encoder::new();
        handoff.agent_id(sub);
        handoff.u64(1);
        handoff.bytes(&publication.finish());
        let forged = Notification::new(relay::RELAY_HANDOFF, handoff.finish());
        let (out, got, rejected, core) = relay_input_from_a_peer(vec![(relay_agent(s(1)), forged)]);
        only_the_link_ack(out.unwrap(), 3);
        assert_eq!(got, ["a", "b"]);
        assert_eq!(rejected, 1);
        assert_eq!(core.relay.as_ref().unwrap().backlog(), 0);
    }

    #[test]
    fn crash_recovery_preserves_agent_state_and_clocks() {
        struct Counter(u32);
        impl Agent for Counter {
            fn react(&mut self, _: &mut crate::ReactionContext<'_>, _: AgentId, _: &Notification) {
                self.0 += 1;
            }
            fn snapshot(&self) -> Vec<u8> {
                self.0.to_le_bytes().to_vec()
            }
            fn restore(&mut self, image: &[u8]) {
                self.0 = u32::from_le_bytes(image.try_into().expect("4 bytes"));
            }
        }

        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let store1: Arc<dyn StableStore> = Arc::new(MemoryStore::new());
        let config = ServerConfig {
            persist: true,
            ..ServerConfig::default()
        };
        let mut c0 = ServerCore::new(&topo, s(0), config, Arc::new(MemoryStore::new())).unwrap();
        let mut c1 = ServerCore::new(&topo, s(1), config, store1.clone()).unwrap();
        c1.register_agent(1, Box::new(Counter(0)));

        // Two messages delivered to the counter before the crash.
        for _ in 0..2 {
            let (_, tx) = c0
                .client_send(aid(0, 9), aid(1, 1), Notification::signal("x"), VTime::ZERO)
                .unwrap();
            for t in tx {
                let replies = c1.on_datagram(s(0), t.bytes, VTime::ZERO).unwrap();
                for r in replies {
                    // Feed acks back so c0's unacked queue drains.
                    let _ = c0.on_datagram(s(1), r.bytes, VTime::ZERO).unwrap();
                }
            }
        }

        // Crash c1, rebuild from its store.
        drop(c1);
        let mut c1 = ServerCore::recover(
            &topo,
            s(1),
            config,
            store1,
            vec![(1, Box::new(Counter(0)))],
            VTime::ZERO,
        )
        .unwrap();

        // Agent state survived.
        assert_eq!(
            c1.engine.snapshot_agent(aid(1, 1)).unwrap(),
            2u32.to_le_bytes().to_vec()
        );
        // Clocks survived: a third message is delivered normally (seq 3 on
        // the link, DELIV = 2 in the domain).
        let (_, tx) = c0
            .client_send(aid(0, 9), aid(1, 1), Notification::signal("x"), VTime::ZERO)
            .unwrap();
        for t in tx {
            c1.on_datagram(s(0), t.bytes, VTime::ZERO).unwrap();
        }
        assert_eq!(
            c1.engine.snapshot_agent(aid(1, 1)).unwrap(),
            3u32.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn duplicate_frames_after_recovery_are_suppressed() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let store1: Arc<dyn StableStore> = Arc::new(MemoryStore::new());
        let config = ServerConfig {
            persist: true,
            ..ServerConfig::default()
        };
        let mut c0 = ServerCore::new(&topo, s(0), config, Arc::new(MemoryStore::new())).unwrap();
        let mut c1 = ServerCore::new(&topo, s(1), config, store1.clone()).unwrap();
        c1.register_agent(1, Box::new(EchoAgent));

        let (_, tx) = c0
            .client_send(aid(0, 9), aid(1, 1), Notification::signal("x"), VTime::ZERO)
            .unwrap();
        let frame = tx.into_iter().next().unwrap();
        // Delivered once; ack lost; server crashes after committing.
        let _ = c1
            .on_datagram(s(0), frame.bytes.clone(), VTime::ZERO)
            .unwrap();
        drop(c1);
        let mut c1 = ServerCore::recover(
            &topo,
            s(1),
            config,
            store1,
            vec![(1, Box::new(EchoAgent))],
            VTime::ZERO,
        )
        .unwrap();
        // c0 retransmits the same frame: no double delivery.
        let out = c1.on_datagram(s(0), frame.bytes, VTime::ZERO).unwrap();
        assert_eq!(c1.engine.reactions(), 0, "duplicate must not re-react");
        // But the ack is re-emitted.
        assert!(out.iter().any(|t| matches!(
            Datagram::decode(t.bytes.clone()),
            Ok(Datagram::Ack { cum_seq: 1 })
        )));
    }

    #[test]
    fn retransmission_timer_resends_unacked() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let config = ServerConfig {
            rto: VDuration::from_millis(10),
            ..ServerConfig::default()
        };
        let mut c0 = make(&topo, 0, config);
        let (_, tx) = c0
            .client_send(aid(0, 1), aid(1, 1), Notification::signal("x"), VTime::ZERO)
            .unwrap();
        assert_eq!(tx.len(), 1);
        // Frame "lost": nothing acked. Tick past the deadline.
        assert!(c0.on_tick(VTime::from_micros(5_000)).is_empty());
        let re = c0.on_tick(VTime::from_micros(10_000));
        assert_eq!(re.len(), 1);
        assert_eq!(re[0].to, s(1));
        assert!(c0.next_deadline().is_some());
        assert!(!c0.is_idle());
    }

    #[test]
    fn batched_sends_coalesce_into_one_wire_packet() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let mut cores: Vec<ServerCore> = (0..2)
            .map(|i| make(&topo, i, ServerConfig::default()))
            .collect();
        let batch: Vec<_> = (0..5)
            .map(|i| (aid(1, 1), Notification::new("b", vec![i as u8])))
            .collect();
        let (ids, tx) = cores[0]
            .client_send_batch(aid(0, 9), batch, SendOptions::new(), VTime::ZERO)
            .unwrap();
        assert_eq!(ids.len(), 5);
        assert_eq!(tx.len(), 1, "five messages, one wire packet");
        match Datagram::decode(tx[0].bytes.clone()).unwrap() {
            Datagram::Batch(frames) => assert_eq!(frames.len(), 5),
            other => panic!("expected a batch, got {other:?}"),
        }
        let out = cores[1]
            .on_datagram(s(0), tx[0].bytes.clone(), VTime::ZERO)
            .unwrap();
        assert_eq!(cores[1].engine.reactions(), 5);
        // Exactly one cumulative ack for the whole batch.
        let acks: Vec<u64> = out
            .iter()
            .filter_map(|t| match Datagram::decode(t.bytes.clone()).unwrap() {
                Datagram::Ack { cum_seq } => Some(cum_seq),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![5]);
    }

    #[test]
    fn every_step_flushes_what_it_buffered() {
        // The one flush rule: a step returns full batches as they fill and
        // the remainder before it returns, so no frame is ever left
        // pending in a link between steps.
        fn nothing_pending(core: &ServerCore) -> bool {
            core.links_tx.values().all(|tx| tx.pending_len() == 0)
        }
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let mut cores: Vec<ServerCore> = (0..2)
            .map(|i| make(&topo, i, ServerConfig::default()))
            .collect();
        let batch: Vec<_> = (0..2 * 32 + 1)
            .map(|i| (aid(1, 1), Notification::new("b", vec![i as u8])))
            .collect();
        let (_, tx) = cores[0]
            .client_send_batch(aid(0, 9), batch, SendOptions::new(), VTime::ZERO)
            .unwrap();
        let widths: Vec<_> = (tx.iter())
            .map(|t| match Datagram::decode(t.bytes.clone()).unwrap() {
                Datagram::Batch(frames) => ("batch", frames.len()),
                Datagram::Data(_) => ("data", 1),
                Datagram::Ack { .. } => ("ack", 0),
            })
            .collect();
        assert_eq!(widths, [("batch", 32), ("batch", 32), ("data", 1)]);
        assert!(tx.iter().all(|t| t.to == s(1)));
        assert!(nothing_pending(&cores[0]));
        // The receiver's echoes are flushed within its step too.
        let drain = tx.into_iter().map(|t| (s(0), t.bytes));
        let out = cores[1].on_datagram_batch(drain, VTime::ZERO).unwrap();
        assert_eq!(cores[1].engine.reactions(), 65);
        assert!(!out.is_empty());
        assert!(nothing_pending(&cores[1]));
        // A retransmitting tick resends unacked frames without buffering.
        let re = cores[0].on_tick(VTime::ZERO + ServerConfig::default().rto);
        assert!(!re.is_empty(), "no ack reached the sender");
        assert!(nothing_pending(&cores[0]));
    }

    #[test]
    fn group_commit_is_one_put_per_batch() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let config = ServerConfig {
            persist: true,
            ..ServerConfig::default()
        };
        let store1 = Arc::new(MemoryStore::new());
        let mut c0 = ServerCore::new(&topo, s(0), config, Arc::new(MemoryStore::new())).unwrap();
        let mut c1 = ServerCore::new(&topo, s(1), config, store1.clone()).unwrap();
        c1.register_agent(1, Box::new(EchoAgent));
        let batch: Vec<_> = (0..8)
            .map(|i| (aid(1, 1), Notification::new("b", vec![i as u8])))
            .collect();
        let (_, tx) = c0
            .client_send_batch(aid(0, 9), batch, SendOptions::new(), VTime::ZERO)
            .unwrap();
        assert_eq!(tx.len(), 1);
        let before = store1.stats().writes();
        c1.on_datagram(s(0), tx[0].bytes.clone(), VTime::ZERO)
            .unwrap();
        assert_eq!(
            store1.stats().writes() - before,
            1,
            "eight deliveries, one group commit"
        );
    }

    #[test]
    fn mid_batch_crash_recovers_without_loss_or_duplicates() {
        // The sender crashes after buffering a batch but before the wire
        // packet is transmitted; the persisted unacked window re-flushes
        // everything on recovery.
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let config = ServerConfig {
            persist: true,
            ..ServerConfig::default()
        };
        let store0: Arc<dyn StableStore> = Arc::new(MemoryStore::new());
        let mut c0 = ServerCore::new(&topo, s(0), config, store0.clone()).unwrap();
        let mut c1 = make(&topo, 1, config);
        let batch: Vec<_> = (0..4)
            .map(|i| (aid(1, 1), Notification::new("b", vec![i as u8])))
            .collect();
        let (_, tx) = c0
            .client_send_batch(aid(0, 9), batch, SendOptions::new(), VTime::ZERO)
            .unwrap();
        // The packet is "lost" and the sender crashes.
        drop(tx);
        drop(c0);
        let mut c0 =
            ServerCore::recover(&topo, s(0), config, store0, Vec::new(), VTime::ZERO).unwrap();
        // The retransmission timer re-sends all four frames as one packet.
        let re = c0.on_tick(VTime::ZERO + config.rto);
        assert_eq!(re.len(), 1);
        match Datagram::decode(re[0].bytes.clone()).unwrap() {
            Datagram::Batch(frames) => assert_eq!(frames.len(), 4),
            other => panic!("expected a batch, got {other:?}"),
        }
        c1.on_datagram(s(0), re[0].bytes.clone(), VTime::ZERO)
            .unwrap();
        assert_eq!(c1.engine.reactions(), 4);
        assert_eq!(c1.channel().postponed_count(), 0);
    }

    #[test]
    fn backpressure_rejects_sends_past_the_outstanding_cap() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let config = ServerConfig {
            max_outstanding: 2,
            ..ServerConfig::default()
        };
        let mut core = make(&topo, 0, config);
        let registry = aaa_obs::Registry::new();
        core.attach_meter(&aaa_obs::Meter::new(&registry).with_label("server", "0"));

        // Never delivering the transmissions keeps the frames in flight on
        // the link, so outstanding grows by one per send until the cap.
        for i in 0..2u8 {
            core.client_send(
                aid(0, 1),
                aid(1, 1),
                Notification::new("n", vec![i]),
                VTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(core.outstanding(), 2);
        let err = core
            .client_send(
                aid(0, 1),
                aid(1, 1),
                Notification::signal("over"),
                VTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, Error::Backpressure);
        let err = core
            .client_send_batch(
                aid(0, 1),
                vec![(aid(1, 1), Notification::signal("over"))],
                SendOptions::new(),
                VTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, Error::Backpressure);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("aaa_mom_backpressure_total", &[("server", "0")]),
            Some(2)
        );
    }

    /// A store holding the committed image of server 1 of a two-server
    /// domain, written in `mode` after one delivery.
    fn committed_store(topo: &Topology, mode: StampMode) -> Arc<dyn StableStore> {
        let store1: Arc<dyn StableStore> = Arc::new(MemoryStore::new());
        let config = ServerConfig {
            persist: true,
            stamp_mode: mode,
            ..ServerConfig::default()
        };
        let mut c0 = ServerCore::new(topo, s(0), config, Arc::new(MemoryStore::new())).unwrap();
        let mut c1 = ServerCore::new(topo, s(1), config, store1.clone()).unwrap();
        c1.register_agent(1, Box::new(FnAgent::new(|_, _, _| {})));
        let (_, tx) = c0
            .client_send(aid(0, 9), aid(1, 1), Notification::signal("x"), VTime::ZERO)
            .unwrap();
        for t in tx {
            c1.on_datagram(s(0), t.bytes, VTime::ZERO).unwrap();
        }
        store1
    }

    fn recover_server(
        topo: &Topology,
        me: u16,
        mode: StampMode,
        store: Arc<dyn StableStore>,
    ) -> Result<ServerCore> {
        let config = ServerConfig {
            persist: true,
            stamp_mode: mode,
            ..ServerConfig::default()
        };
        ServerCore::recover(topo, s(me), config, store, Vec::new(), VTime::ZERO)
    }

    #[test]
    fn recovery_under_another_mode_or_topology_is_an_error() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let store = committed_store(&topo, StampMode::Updates);
        assert!(recover_server(&topo, 1, StampMode::Updates, store.clone()).is_ok());

        let err = recover_server(&topo, 1, StampMode::Full, store.clone()).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
        assert!(err.to_string().contains("Updates"), "{err}");
        // Same mode, wider domain: the image's clock is 2 wide, not 3.
        let wider = TopologySpec::single_domain(3).validate().unwrap();
        let err = recover_server(&wider, 1, StampMode::Updates, store.clone()).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
        // Same mode and width, but the image is another server's.
        let err = recover_server(&topo, 0, StampMode::Updates, store).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
    }

    #[test]
    fn store_written_in_a_retired_mode_is_a_recovery_error() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let store = committed_store(&topo, StampMode::Updates);
        // Find the clock inside the checkpoint (`me: u16`, `n: u32`, mode
        // byte) and patch its mode byte to each retired one: 0, 1 and 3 as
        // a server from before the per-sender image matrices were dropped
        // wrote it (a different layout under the same prefix), 2 as a
        // `Reduced` server did. Byte 6 is a `Hybrid` server's image, whole:
        // the clock gains its tail of one absent knowledge model per peer
        // (a `0` each) and its length prefix grows to match. The checksum
        // is recomputed, so the clock decoder, not the seal, is what
        // refuses.
        let image = store.get(IMAGE_KEY).unwrap().expect("committed image");
        let head = [1u8, 0, 2, 0, 0, 0, 5];
        let at = image
            .windows(head.len())
            .position(|w| w == head)
            .expect("clock image of server 1 of 2 in updates mode");
        let reseal = |mut image: Vec<u8>| {
            let body = image.len() - 4;
            let crc = aaa_storage::crc32c(&image[..body]);
            image[body..].copy_from_slice(&crc.to_le_bytes());
            image
        };
        let mut hybrid = image.clone();
        let prefix: [u8; 4] = hybrid[at - 4..at].try_into().unwrap();
        let len = u32::from_le_bytes(prefix);
        hybrid[at - 4..at].copy_from_slice(&(len + 2).to_le_bytes());
        let end = at + len as usize;
        hybrid.splice(end..end, [0, 0]);
        let mut written = vec![(6, hybrid)];
        written.extend((0..=3u8).map(|byte| (byte, image.clone())));
        for (retired, mut image) in written {
            image[at + 6] = retired;
            store.put(IMAGE_KEY, &reseal(image)).unwrap();
            let err = recover_server(&topo, 1, StampMode::Updates, store.clone()).unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "byte {retired}: {err}");
        }
        // The unpatched image still recovers: the refusals are the bytes'.
        store.put(IMAGE_KEY, &image).unwrap();
        assert!(recover_server(&topo, 1, StampMode::Updates, store).is_ok());
    }

    #[test]
    fn recover_without_image_is_fresh() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let core = ServerCore::recover(
            &topo,
            s(0),
            ServerConfig::default(),
            Arc::new(MemoryStore::new()),
            vec![(1, Box::new(EchoAgent))],
            VTime::ZERO,
        )
        .unwrap();
        assert!(core.is_idle());
        assert!(core.engine().has_agent(aid(0, 1)));
    }

    /// Relay journal tests: a relayed topic (local [`TOPIC`]) on server 0,
    /// subscribers at locals `SUB0..` counting their deliveries, a relay
    /// on every server.
    mod journal {
        use super::*;
        use crate::pubsub::{publication, subscription, TopicAgent};
        use aaa_storage::{DirStore, Journal, QueueConfig, StorageStats};
        use rand::{Rng, SeedableRng};
        use std::path::Path;
        use std::sync::atomic::{AtomicBool, AtomicU64};

        const TOPIC: u32 = 100;
        const SUB0: u32 = 200;
        const CLIENT: u32 = 9;

        /// A memory store whose `put` fails while `fail_puts` is set.
        #[derive(Default)]
        struct FlakyStore {
            inner: MemoryStore,
            fail_puts: AtomicBool,
        }

        impl StableStore for FlakyStore {
            fn put(&self, key: &str, value: &[u8]) -> Result<()> {
                if self.fail_puts.load(Ordering::Relaxed) {
                    return Err(Error::Storage("injected put failure".into()));
                }
                self.inner.put(key, value)
            }
            fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
                self.inner.get(key)
            }
            fn remove(&self, key: &str) -> Result<()> {
                self.inner.remove(key)
            }
            fn keys(&self) -> Result<Vec<String>> {
                self.inner.keys()
            }
            fn stats(&self) -> &StorageStats {
                self.inner.stats()
            }
        }

        /// A relay journaling under the test's directory.
        fn durable(dir: &Path) -> RelayConfig {
            RelayConfig::default().dir(dir)
        }

        /// A relay journaling in memory.
        fn volatile(_: &Path) -> RelayConfig {
            RelayConfig::default()
        }

        fn tmp_dir(name: &str) -> std::path::PathBuf {
            let dir = std::env::temp_dir()
                .join(format!("aaa-server-journal-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        struct Fanout {
            cores: Vec<ServerCore>,
            store: Arc<FlakyStore>,
            delivered: Arc<AtomicU64>,
            dir: std::path::PathBuf,
        }

        impl Drop for Fanout {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.dir);
            }
        }

        impl Fanout {
            /// `subs` subscribers on server `home` of `single_domain(servers)`,
            /// subscriptions settled; server 0 persists into `store`. Every
            /// server runs the relay `relay` configures for the test's
            /// directory.
            fn new(
                name: &str,
                servers: u16,
                home: u16,
                subs: u32,
                config: ServerConfig,
                relay: fn(&Path) -> RelayConfig,
            ) -> Fanout {
                let dir = tmp_dir(name);
                let relay = relay(&dir);
                let topo = TopologySpec::single_domain(servers).validate().unwrap();
                let store = Arc::new(FlakyStore::default());
                let delivered = Arc::new(AtomicU64::new(0));
                let mut cores: Vec<ServerCore> = (0..servers)
                    .map(|i| {
                        let store: Arc<dyn StableStore> = if i == 0 {
                            store.clone()
                        } else {
                            Arc::new(MemoryStore::new())
                        };
                        let mut core = ServerCore::new(&topo, s(i), config, store).unwrap();
                        core.enable_relay(relay.clone(), VTime::ZERO).unwrap();
                        core
                    })
                    .collect();
                cores[0].register_agent(TOPIC, Box::new(TopicAgent::with_relay(relay_agent(s(0)))));
                let mut fan = Fanout {
                    cores,
                    store,
                    delivered,
                    dir,
                };
                for i in 0..subs {
                    let delivered = fan.delivered.clone();
                    let sub = fan.cores[usize::from(home)].register_agent(
                        SUB0 + i,
                        Box::new(FnAgent::new(move |_, _, _| {
                            delivered.fetch_add(1, Ordering::Relaxed);
                        })),
                    );
                    let (_, tx) = fan.cores[usize::from(home)]
                        .client_send(sub, aid(0, TOPIC), subscription(), VTime::ZERO)
                        .unwrap();
                    fan.settle(s(home), tx);
                }
                fan
            }

            fn publish(&mut self, body: Vec<u8>) -> Result<Vec<Transmission>> {
                self.cores[0]
                    .client_send(
                        aid(0, CLIENT),
                        aid(0, TOPIC),
                        publication("ev", body),
                        VTime::ZERO,
                    )
                    .map(|(_, tx)| tx)
            }

            /// Delivers datagrams in FIFO order until the cores are quiet.
            fn settle(&mut self, from: ServerId, tx: Vec<Transmission>) {
                self.settle_checked(from, tx, |_| {});
            }

            /// [`Fanout::settle`], calling `after` with each core that took
            /// a step, after the step.
            fn settle_checked(
                &mut self,
                from: ServerId,
                tx: Vec<Transmission>,
                mut after: impl FnMut(&mut ServerCore),
            ) {
                let mut queue: std::collections::VecDeque<(ServerId, Transmission)> =
                    tx.into_iter().map(|t| (from, t)).collect();
                while let Some((src, t)) = queue.pop_front() {
                    let to = t.to;
                    let core = &mut self.cores[to.as_usize()];
                    let more = core.on_datagram(src, t.bytes, VTime::ZERO).unwrap();
                    after(core);
                    queue.extend(more.into_iter().map(|t| (to, t)));
                }
            }

            fn syncs(&self, server: usize) -> u64 {
                self.cores[server]
                    .relay
                    .as_ref()
                    .map_or(0, |r| r.journal.stats().syncs())
            }

            fn reset_syncs(&self) {
                for core in &self.cores {
                    if let Some(r) = &core.relay {
                        r.journal.stats().reset();
                    }
                }
            }

            fn delivered(&self) -> u64 {
                self.delivered.load(Ordering::Relaxed)
            }
        }

        #[test]
        fn publication_to_64_local_subscribers_is_one_journal_sync() {
            let mut fan = Fanout::new("local", 1, 0, 64, ServerConfig::default(), durable);
            fan.reset_syncs();
            let tx = fan.publish(b"x".to_vec()).unwrap();
            assert!(tx.is_empty());
            assert_eq!(fan.delivered(), 64);
            // 64 enqueues and 64 acks journaled, all of it one commit.
            assert_eq!(fan.syncs(0), 1);
            assert_eq!(fan.cores[0].relay.as_ref().unwrap().backlog(), 0);
        }

        #[test]
        fn relay_acks_and_link_acks_cost_what_they_journal() {
            for persist in [false, true] {
                let config = ServerConfig {
                    persist,
                    ..ServerConfig::default()
                };
                let mut fan = Fanout::new("remote", 2, 1, 64, config, durable);
                fan.reset_syncs();
                let handoffs = fan.publish(b"x".to_vec()).unwrap();
                assert_eq!(fan.syncs(0), 1, "64 handoffs journaled at the origin");
                // A relay tick with nothing due (the handoffs are in
                // flight, their retry not yet due) journals nothing and
                // syncs nothing.
                assert!(fan.cores[0].on_tick(VTime::ZERO).is_empty());
                assert_eq!(fan.syncs(0), 1);
                // 64 handoffs leave as two full batches; the peer drains
                // both in one step.
                let is_full_batch = |t: &Transmission| {
                    matches!(
                        Datagram::decode(t.bytes.clone()),
                        Ok(Datagram::Batch(frames)) if frames.len() == 32
                    )
                };
                assert_eq!(handoffs.len(), 2);
                assert!(handoffs.iter().all(is_full_batch));
                let drain = handoffs.into_iter().map(|t| (s(0), t.bytes));
                let reply = fan.cores[1].on_datagram_batch(drain, VTime::ZERO).unwrap();
                assert_eq!(fan.delivered(), 64);
                assert_eq!(fan.syncs(1), 1, "64 handoffs and 64 local acks");
                let [acks_a, acks_b, link_ack] = <[Transmission; 3]>::try_from(reply).unwrap();
                assert!(is_full_batch(&acks_a) && is_full_batch(&acks_b));
                fan.reset_syncs();
                let out = fan.cores[0]
                    .on_datagram(s(1), link_ack.bytes, VTime::ZERO)
                    .unwrap();
                assert!(out.is_empty());
                assert_eq!(fan.syncs(0), 0, "a pure link ack");
                // Nor does the tick after it: an acknowledgement alone
                // waits for the next state record.
                assert!(fan.cores[0].on_tick(VTime::ZERO).is_empty());
                assert_eq!(fan.syncs(0), 0, "{persist}: a tick after a link ack");
                let drain = [acks_a, acks_b].map(|t| (s(1), t.bytes));
                fan.cores[0].on_datagram_batch(drain, VTime::ZERO).unwrap();
                assert_eq!(fan.syncs(0), 1, "one drain of 64 relay acks");
                assert_eq!(fan.cores[0].relay.as_ref().unwrap().backlog(), 0);
            }
        }

        #[test]
        fn seeded_fanout_syncs_at_most_a_quarter_per_delivery() {
            let mut fan = Fanout::new("seeded", 2, 1, 64, ServerConfig::default(), durable);
            fan.reset_syncs();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
            let mut published = 0u64;
            for _ in 0..12 {
                let mut tx = Vec::new();
                for _ in 0..rng.gen_range(1..4u32) {
                    let len = rng.gen_range(0..64usize);
                    tx.extend(fan.publish(vec![0xAB; len]).unwrap());
                    published += 1;
                }
                fan.settle(s(0), tx);
            }
            assert_eq!(fan.delivered(), published * 64);
            let syncs = fan.syncs(0) + fan.syncs(1);
            let per_delivery = syncs as f64 / fan.delivered() as f64;
            assert!(
                per_delivery <= 0.25,
                "{syncs} syncs for {} deliveries",
                fan.delivered()
            );
            assert!(fan.cores.iter().all(ServerCore::is_idle));
        }

        /// A relay journaling under the test's directory that never
        /// compacts, so that only the tail rule checkpoints.
        fn uncompacted(dir: &Path) -> RelayConfig {
            RelayConfig::default().dir(dir).segment_max_records(1 << 30)
        }

        /// Every step of a persisting relay server costs one `fdatasync`,
        /// its state record included, and no `put`: with no compaction due,
        /// the one checkpoint comes with the record that takes the tail past
        /// [`CHECKPOINT_FLOOR`] (more than this small state's checkpoint).
        #[test]
        fn a_relay_step_syncs_once_with_its_state_and_puts_only_at_checkpoints() {
            let config = ServerConfig {
                persist: true,
                ..ServerConfig::default()
            };
            let mut fan = Fanout::new("state", 2, 1, 8, config, uncompacted);
            assert_eq!(
                fan.store.stats().writes(),
                0,
                "a fresh server's records start from its fresh state"
            );
            // Server 0's tail before its last step, and its checkpoints.
            let (mut tail, mut checkpoints) = (fan.cores[0].log.tail_bytes, 0);
            let mut step = |core: &mut ServerCore| {
                let syncs = core.relay.as_ref().unwrap().journal.stats().syncs();
                assert!(
                    syncs <= 1,
                    "server {}: {syncs} syncs in one step",
                    core.me()
                );
                core.relay.as_ref().unwrap().journal.stats().reset();
                let written = core.take_step_stats().disk_bytes;
                if core.me() != s(0) {
                    return;
                }
                if core.store.stats().writes() == checkpoints {
                    assert_eq!(core.log.tail_bytes, tail + written);
                    assert!(core.log.tail_bytes <= CHECKPOINT_FLOOR);
                } else {
                    // The record that took the tail past the floor, then
                    // the checkpoint covering it.
                    checkpoints += 1;
                    assert_eq!(core.store.stats().writes(), checkpoints);
                    let record = written - core.log.checkpoint_bytes;
                    assert!(tail + record > CHECKPOINT_FLOOR);
                    assert!(core.log.checkpoint_bytes < CHECKPOINT_FLOOR);
                    assert_eq!(core.log.tail_bytes, 0);
                }
                tail = core.log.tail_bytes;
            };
            for core in &mut fan.cores {
                core.take_step_stats();
            }
            fan.reset_syncs();
            for i in 0..200u8 {
                let tx = fan.publish(vec![i; 1024]).unwrap();
                step(&mut fan.cores[0]);
                fan.settle_checked(s(0), tx, &mut step);
            }
            assert_eq!(fan.delivered(), 200 * 8);
            assert!((1..=10).contains(&checkpoints), "{checkpoints} checkpoints");
        }

        #[test]
        fn a_server_with_no_durable_journal_puts_durably_once_per_step() {
            let dir = tmp_dir("no-journal");
            let topo = TopologySpec::single_domain(2).validate().unwrap();
            let config = ServerConfig {
                persist: true,
                ..ServerConfig::default()
            };
            let store = Arc::new(DirStore::open(&dir).unwrap());
            let mut c0 = make(&topo, 0, ServerConfig::default());
            let mut c1 = ServerCore::new(&topo, s(1), config, store.clone()).unwrap();
            c1.register_agent(1, Box::new(EchoAgent));
            c1.enable_relay(RelayConfig::default(), VTime::ZERO)
                .unwrap();
            for i in 0..4u8 {
                let (_, tx) = c0
                    .client_send(
                        aid(0, 1),
                        aid(1, 1),
                        Notification::new("n", vec![i]),
                        VTime::ZERO,
                    )
                    .unwrap();
                let (puts, syncs) = (store.stats().writes(), store.stats().syncs());
                let [t] = <[Transmission; 1]>::try_from(tx).unwrap();
                c1.on_datagram(s(0), t.bytes, VTime::ZERO).unwrap();
                assert_eq!(store.stats().writes() - puts, 1, "step {i}: one put");
                assert_eq!(store.stats().syncs() - syncs, 2, "step {i}: made durable");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn journal_commits_before_the_checkpoint_and_the_wire() {
            let config = ServerConfig {
                persist: true,
                ..ServerConfig::default()
            };
            let mut fan = Fanout::new("order", 2, 1, 4, config, durable);
            let image = fan.store.get(IMAGE_KEY).unwrap();
            let puts = fan.store.stats().writes();
            fan.cores[0].relay.as_mut().unwrap().syncs_left = Some(0);
            // The failed commit surfaces before any checkpoint and before
            // the step's handoffs are handed over.
            assert!(matches!(fan.publish(b"x".to_vec()), Err(Error::Storage(_))));
            assert_eq!(fan.store.stats().writes(), puts);
            assert_eq!(fan.store.get(IMAGE_KEY).unwrap(), image);
            assert!(fan.cores[0]
                .on_tick(VTime::from_micros(10_000_000))
                .is_empty());
        }

        #[test]
        fn a_failed_checkpoint_holds_the_links_until_a_commit_succeeds() {
            // With the relay journal in memory, every step's state is a
            // checkpoint: a step whose `put` fails covers nothing durably.
            let config = ServerConfig {
                persist: true,
                ..ServerConfig::default()
            };
            let mut fan = Fanout::new("held", 2, 1, 4, config, volatile);
            // The handoffs are committed, then lost on the wire.
            let lost = fan.publish(b"x".to_vec()).unwrap();
            assert!(!lost.is_empty());
            let retry = fan.cores[0]
                .relay
                .as_ref()
                .and_then(RelayCore::next_retry_deadline)
                .expect("handoffs in flight");
            fan.store.fail_puts.store(true, Ordering::Relaxed);
            // The relay step redelivers into the links, then its
            // checkpoint fails: nothing leaves.
            assert!(fan.cores[0].on_tick(retry).is_empty());
            // Every frame is overdue now, but the redelivered ones are in
            // no durable state: the tick retries the commit and, while it
            // fails, retransmits nothing.
            let later = retry + VDuration::from_millis(60_000);
            assert!(fan.cores[0].on_tick(later).is_empty());
            fan.store.fail_puts.store(false, Ordering::Relaxed);
            let resent = fan.cores[0].on_tick(later);
            assert!(!resent.is_empty(), "a successful commit releases them");
            fan.settle(s(0), resent);
            assert_eq!(fan.delivered(), 4, "each subscriber exactly once");
        }

        /// The server state recovery would rebuild for `core` right now:
        /// its checkpoint plus the state records of a copy of its journal.
        fn replayed(core: &ServerCore, journal_dir: &std::path::Path) -> ServerImage {
            let copy = tmp_dir(&format!("replay-{}", core.me()));
            std::fs::create_dir_all(&copy).unwrap();
            for entry in std::fs::read_dir(journal_dir).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
            }
            let mut journal = Journal::open(&copy, QueueConfig::default()).unwrap();
            let checkpoint = core.store.get(IMAGE_KEY).unwrap().expect("a checkpoint");
            let mut image = ServerImage::decode(Bytes::from(checkpoint)).unwrap();
            for (seq, record) in journal.take_state_tail() {
                if seq > image.state_seq {
                    assert_eq!(seq, image.state_seq + 1, "a contiguous tail");
                    image
                        .apply(StateRecord::decode(Bytes::from(record)).unwrap())
                        .unwrap();
                    image.state_seq = seq;
                }
            }
            let _ = std::fs::remove_dir_all(&copy);
            image
        }

        /// Compares two images section by section, links sorted by peer.
        fn assert_same_state(mut got: ServerImage, mut want: ServerImage, at: &str) {
            for img in [&mut got, &mut want] {
                img.links_tx.sort_by_key(|l| l.peer);
                img.links_rx.sort_by_key(|l| l.peer);
            }
            assert_eq!(got.state_seq, want.state_seq, "{at}: state_seq");
            assert_eq!(got.next_msg_seq, want.next_msg_seq, "{at}: next_msg_seq");
            let items = |img: &ServerImage| {
                (img.items.iter())
                    .map(|it| {
                        (
                            it.domain_id(),
                            it.me(),
                            it.id_table().to_vec(),
                            it.clock().clone(),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(items(&got), items(&want), "{at}: items");
            assert_eq!(got.queue_out, want.queue_out, "{at}: queue_out");
            let postponed = |img: &ServerImage| {
                (img.postponed.iter())
                    .map(|p| {
                        (
                            p.item_idx,
                            p.from,
                            p.pending.clone(),
                            p.env.clone(),
                            p.arrived_at,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(postponed(&got), postponed(&want), "{at}: postponed");
            assert_eq!(got.engine_queue, want.engine_queue, "{at}: engine_queue");
            assert_eq!(got.links_tx, want.links_tx, "{at}: links_tx");
            assert_eq!(got.links_rx, want.links_rx, "{at}: links_rx");
            assert_eq!(got.agents, want.agents, "{at}: agents");
            assert_eq!(got.deliver_rx, want.deliver_rx, "{at}: deliver_rx");
            assert_eq!(got.relay, want.relay, "{at}: relay registry");
        }

        /// After every commit of a seeded persist + relay workload — through
        /// checkpoints, compactions and handoff churn — the checkpoint plus
        /// the journal's state records decode to exactly the live state.
        /// (A step that writes neither, a link ack absorbed, leaves the
        /// ack to the next record: between commits the two may differ by
        /// acknowledged frames.)
        #[test]
        fn checkpoint_plus_replayed_records_is_the_live_state() {
            let config = ServerConfig {
                persist: true,
                ..ServerConfig::default()
            };
            let mut fan = Fanout::new("replay", 2, 1, 16, config, durable);
            let registry = aaa_obs::Registry::new();
            for core in &mut fan.cores {
                // A base to replay from, as recovery would have.
                core.checkpoint().unwrap();
                core.attach_meter(
                    &Meter::new(&registry).with_label("server", core.me().to_string()),
                );
            }
            let dirs: Vec<_> = (0..2)
                .map(|i| fan.dir.join(format!("relay-{i}")).join("journal"))
                .collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_0026);
            let mut compared = 0;
            // Per server: the state sequence and checkpoint count last seen.
            let mut seen = [(0, 0); 2];
            let mut check = |core: &ServerCore, at: &str| {
                let me = core.me().as_usize();
                let seq = core.relay.as_ref().unwrap().journal.state_seq();
                let now = (seq, core.store.stats().writes());
                if std::mem::replace(&mut seen[me], now) == now {
                    return; // no commit wrote anything
                }
                let want = core.build_image();
                assert_same_state(
                    replayed(core, &dirs[me]),
                    want,
                    &format!("{at}, record {seq}"),
                );
                compared += 1;
            };
            for round in 0..24 {
                let mut tx = Vec::new();
                for _ in 0..rng.gen_range(1..4u32) {
                    tx.extend(fan.publish(vec![0xAB; rng.gen_range(0..48usize)]).unwrap());
                }
                check(&fan.cores[0], &format!("round {round} publish"));
                let sub = aid(1, SUB0 + rng.gen_range(0..16u32));
                if rng.gen_bool(0.3) {
                    let connected = rng.gen_bool(0.5);
                    tx.extend(
                        fan.cores[1]
                            .relay_set_connected(sub, connected, VTime::ZERO)
                            .unwrap(),
                    );
                    check(&fan.cores[1], &format!("round {round} churn"));
                }
                fan.settle_checked(s(0), tx, |core| check(core, &format!("round {round}")));
            }
            for i in 0..16 {
                let tx = fan.cores[1]
                    .relay_set_connected(aid(1, SUB0 + i), true, VTime::ZERO)
                    .unwrap();
                fan.settle_checked(s(1), tx, |core| check(core, "reconnect"));
            }
            assert!(compared > 100, "{compared} comparisons");
            let compactions = registry
                .snapshot()
                .sum_counter("aaa_relay_compactions_total");
            assert!(compactions > 0, "the run crosses a compaction");
        }
    }

    /// Power loss at every commit point of a seeded two-server relay
    /// fan-out. Each run cuts the power of one server at one journal
    /// commit: that commit and everything after it never reach the disk,
    /// and neither does any stable-store write the store did not make
    /// durable. The server recovers from what is left and the run goes on.
    /// Nothing a peer has seen may be ahead of the recovered state, and
    /// every subscriber still sees every publication exactly once, in
    /// order.
    mod power_loss {
        use super::*;
        use crate::pubsub::{publication, subscription, TopicAgent};
        use aaa_storage::{DirStore, StorageStats};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::path::PathBuf;

        const TOPIC: u32 = 100;
        const SUB0: u32 = 200;
        const SUBS: u32 = 3;
        const PUBS: u64 = 6;

        /// The oracle: a subscriber that checks, in its own persistent
        /// state, that publications arrive as 1, 2, 3... A reaction the
        /// power cut stops is rolled back with the rest of its step, so the
        /// state holds what the subscriber saw in committed steps.
        #[derive(Default)]
        struct SeqSink {
            last: u64,
            /// Publications seen twice or out of order.
            faults: u64,
        }

        impl Agent for SeqSink {
            fn react(
                &mut self,
                _: &mut crate::ReactionContext<'_>,
                _: AgentId,
                note: &Notification,
            ) {
                let seq: u64 = note.body_str().and_then(|b| b.parse().ok()).unwrap_or(0);
                if seq == self.last + 1 {
                    self.last = seq;
                } else {
                    self.faults += 1;
                }
            }
            fn snapshot(&self) -> Vec<u8> {
                [self.last, self.faults]
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect()
            }
            fn restore(&mut self, image: &[u8]) {
                self.last = u64::from_le_bytes(image[..8].try_into().unwrap());
                self.faults = u64::from_le_bytes(image[8..].try_into().unwrap());
            }
        }

        /// A `DirStore` that keeps across [`PowerLossStore::power_loss`]
        /// only what it made durable: a `put` survives if the store synced
        /// both the file and the rename — two syncs by its own accounting.
        struct PowerLossStore {
            inner: DirStore,
            durable: parking_lot::Mutex<HashMap<String, Vec<u8>>>,
        }

        impl PowerLossStore {
            fn power_loss(&self) {
                let durable = self.durable.lock();
                for key in self.inner.keys().unwrap() {
                    match durable.get(&key) {
                        Some(value) => self.inner.put(&key, value).unwrap(),
                        None => self.inner.remove(&key).unwrap(),
                    }
                }
            }
        }

        impl StableStore for PowerLossStore {
            fn put(&self, key: &str, value: &[u8]) -> Result<()> {
                let syncs = self.inner.stats().syncs();
                self.inner.put(key, value)?;
                if self.inner.stats().syncs() >= syncs + 2 {
                    self.durable.lock().insert(key.to_owned(), value.to_vec());
                }
                Ok(())
            }
            fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
                self.inner.get(key)
            }
            fn remove(&self, key: &str) -> Result<()> {
                self.durable.lock().remove(key);
                self.inner.remove(key)
            }
            fn keys(&self) -> Result<Vec<String>> {
                self.inner.keys()
            }
            fn stats(&self) -> &StorageStats {
                self.inner.stats()
            }
        }

        /// What one server has shown its peers: per peer the highest link
        /// frame it sent and cumulative sequence it acknowledged, and the
        /// handoff acks its relay sent per `(origin server, subscriber)`.
        #[derive(Default)]
        struct Shown {
            frames: HashMap<ServerId, u64>,
            cum: HashMap<ServerId, u64>,
            handed_off: HashMap<(ServerId, AgentId), u64>,
        }

        fn raise<K: std::hash::Hash + Eq>(map: &mut HashMap<K, u64>, key: K, value: u64) {
            let at = map.entry(key).or_default();
            *at = (*at).max(value);
        }

        impl Shown {
            fn note(&mut self, t: &Transmission) {
                let frames = match Datagram::decode(t.bytes.clone()).unwrap() {
                    Datagram::Ack { cum_seq } => return raise(&mut self.cum, t.to, cum_seq),
                    Datagram::Data(frame) => vec![frame],
                    Datagram::Batch(frames) => frames,
                };
                for frame in frames {
                    raise(&mut self.frames, t.to, frame.seq);
                    let msg = WireMessage::decode(frame.payload).unwrap();
                    if msg.kind != relay::RELAY_ACK {
                        continue;
                    }
                    let ack = RelayAck::decode(msg.body).unwrap();
                    let origin = msg.to_agent.server();
                    raise(&mut self.handed_off, (origin, ack.subscriber), ack.upto);
                }
            }

            /// Asserts that `image`, a recovered state, is behind nothing
            /// its peers have seen.
            fn behind_nothing(&self, image: &ServerImage, at: &str) {
                for (&peer, &seq) in &self.frames {
                    let next = (image.links_tx.iter())
                        .find(|l| l.peer == peer)
                        .map_or(1, |l| l.next_seq);
                    assert!(
                        next > seq,
                        "{at}: frame {seq} to {peer} left, the link resumes at {next}"
                    );
                }
                for (&peer, &cum) in &self.cum {
                    let got = (image.links_rx.iter())
                        .find(|l| l.peer == peer)
                        .map_or(0, |l| l.cum_seq);
                    assert!(got >= cum, "{at}: acked {cum} to {peer}, recovered {got}");
                }
                for (&key, &upto) in &self.handed_off {
                    let got = image.relay.handoffs.get(&key).copied().unwrap_or(0);
                    assert!(
                        got >= upto,
                        "{at}: handoff ack {upto} for {key:?}, recovered {got}"
                    );
                }
            }
        }

        struct Run {
            topo: Topology,
            config: ServerConfig,
            relay: RelayConfig,
            dir: PathBuf,
            stores: Vec<Arc<PowerLossStore>>,
            cores: Vec<ServerCore>,
            shown: [Shown; 2],
            queue: Vec<(ServerId, Transmission)>,
            now: VTime,
            rng: StdRng,
            at: String,
            recoveries: u64,
        }

        impl Drop for Run {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.dir);
            }
        }

        impl Run {
            /// Two servers, every one persisting through a `DirStore` and
            /// journaling through a durable relay of `segment` records per
            /// segment: the topic on server 0, `SUBS` subscribers on
            /// server 1, subscribed and settled.
            fn new(segment: usize, seed: u64) -> Run {
                let dir = std::env::temp_dir().join(format!(
                    "aaa-power-loss-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let topo = TopologySpec::single_domain(2).validate().unwrap();
                let config = ServerConfig {
                    persist: true,
                    ..ServerConfig::default()
                };
                let relay = RelayConfig::default()
                    .segment_max_records(segment)
                    .dir(dir.join("relay"));
                let stores: Vec<Arc<PowerLossStore>> = (0..2)
                    .map(|i| {
                        Arc::new(PowerLossStore {
                            inner: DirStore::open(dir.join(format!("store-{i}"))).unwrap(),
                            durable: Default::default(),
                        })
                    })
                    .collect();
                let mut run = Run {
                    topo,
                    config,
                    relay,
                    dir,
                    stores,
                    cores: Vec::new(),
                    shown: Default::default(),
                    queue: Vec::new(),
                    now: VTime::ZERO,
                    rng: StdRng::seed_from_u64(seed),
                    at: "setup".into(),
                    recoveries: 0,
                };
                for i in 0..2 {
                    let store: Arc<dyn StableStore> = run.stores[i].clone();
                    let mut core = ServerCore::new(&run.topo, s(i as u16), config, store).unwrap();
                    for (local, agent) in run.agents(i) {
                        core.register_agent(local, agent);
                    }
                    core.enable_relay(run.relay.clone(), VTime::ZERO).unwrap();
                    run.cores.push(core);
                }
                for i in 0..SUBS {
                    run.step(1, |c, now| {
                        let sub = aid(1, SUB0 + i);
                        c.client_send(sub, aid(0, TOPIC), subscription(), now)
                            .map(|(_, tx)| tx)
                    });
                }
                run.drain();
                run
            }

            /// Fresh agent instances for `server`.
            fn agents(&self, server: usize) -> Vec<(u32, Box<dyn Agent>)> {
                if server == 0 {
                    return vec![(TOPIC, Box::new(TopicAgent::with_relay(relay_agent(s(0)))))];
                }
                (0..SUBS)
                    .map(|i| (SUB0 + i, Box::new(SeqSink::default()) as Box<dyn Agent>))
                    .collect()
            }

            /// Runs one step on `server`. A step the power cut stopped
            /// crashes the server, which recovers at once; returns whether
            /// the step committed.
            fn step(
                &mut self,
                server: usize,
                step: impl FnOnce(&mut ServerCore, VTime) -> Result<Vec<Transmission>>,
            ) -> bool {
                let result = step(&mut self.cores[server], self.now);
                if self.cores[server].uncommitted {
                    self.crash(server);
                    return false;
                }
                for t in result.unwrap() {
                    self.shown[server].note(&t);
                    self.queue.push((s(server as u16), t));
                }
                true
            }

            fn crash(&mut self, server: usize) {
                // What was on its way to the dead server is lost, and so
                // is every write it had not made durable.
                self.queue.retain(|(_, t)| t.to.as_usize() != server);
                self.stores[server].power_loss();
                let store: Arc<dyn StableStore> = self.stores[server].clone();
                let agents = self.agents(server);
                let mut core = ServerCore::recover(
                    &self.topo,
                    s(server as u16),
                    self.config,
                    store,
                    agents,
                    self.now,
                )
                .unwrap();
                let tx = core.enable_relay(self.relay.clone(), self.now).unwrap();
                let at = format!("{}, server {server} recovered", self.at);
                self.shown[server].behind_nothing(&core.build_image(), &at);
                self.cores[server] = core;
                self.recoveries += 1;
                for t in tx {
                    self.shown[server].note(&t);
                    self.queue.push((s(server as u16), t));
                }
            }

            /// Delivers one queued datagram, picked by the seed.
            fn deliver_one(&mut self) -> bool {
                if self.queue.is_empty() {
                    return false;
                }
                let (from, t) = self.queue.remove(self.rng.gen_range(0..self.queue.len()));
                self.step(t.to.as_usize(), |c, now| c.on_datagram(from, t.bytes, now));
                true
            }

            /// Delivers everything, ticking the servers to their next
            /// deadline whenever the wire is empty, until both are idle.
            fn drain(&mut self) {
                for _ in 0..1_000 {
                    while self.deliver_one() {}
                    if self.cores.iter().all(ServerCore::is_idle) {
                        return;
                    }
                    let next = self
                        .cores
                        .iter()
                        .filter_map(ServerCore::next_deadline)
                        .min();
                    self.now = next
                        .unwrap_or(self.now + VDuration::from_millis(50))
                        .max(self.now);
                    for server in 0..2 {
                        self.step(server, |c, now| Ok(c.on_tick(now)));
                    }
                }
                panic!("{}: the fan-out did not drain", self.at);
            }

            /// Publishes `PUBS` publications — again after a crash that
            /// lost one — interleaved with seeded deliveries, and drains.
            fn publish_all(&mut self) {
                let mut seq = 1;
                while seq <= PUBS {
                    let body = seq.to_string().into_bytes();
                    let published = self.step(0, |c, now| {
                        c.client_send(aid(0, 9), aid(0, TOPIC), publication("ev", body), now)
                            .map(|(_, tx)| tx)
                    });
                    seq += u64::from(published);
                    for _ in 0..self.rng.gen_range(0..4) {
                        self.deliver_one();
                    }
                }
                self.drain();
                for i in 0..SUBS {
                    let sink = self.cores[1]
                        .engine
                        .snapshot_agent(aid(1, SUB0 + i))
                        .unwrap();
                    let mut sink_state = SeqSink::default();
                    sink_state.restore(&sink);
                    let seen = (sink_state.last, sink_state.faults);
                    assert_eq!(
                        seen,
                        (PUBS, 0),
                        "{}: subscriber {i} (last, faults)",
                        self.at
                    );
                }
            }

            fn commit_points_left(&self, server: usize) -> u64 {
                self.cores[server]
                    .relay
                    .as_ref()
                    .unwrap()
                    .syncs_left
                    .unwrap()
            }

            fn cut_power(&mut self, server: usize, after: u64) {
                self.cores[server].relay.as_mut().unwrap().syncs_left = Some(after);
            }
        }

        #[test]
        fn every_commit_point_survives_power_loss() {
            let mut cuts = 0;
            // Two seeds of long segments; short ones compact, and so
            // checkpoint, mid-run.
            for (segment, seed) in [(1024, 26), (1024, 62), (8, 7)] {
                // A run without a power cut counts each server's commit
                // points after setup...
                let mut run = Run::new(segment, seed);
                for server in 0..2 {
                    run.cut_power(server, u64::MAX);
                }
                run.publish_all();
                let checkpoints: u64 = run.stores.iter().map(|s| s.stats().writes()).sum();
                assert_eq!(checkpoints > 0, segment == 8, "{checkpoints} checkpoints");
                let points: Vec<u64> = (0..2)
                    .map(|i| u64::MAX - run.commit_points_left(i))
                    .collect();
                drop(run);
                // ...and a run per point cuts the power there.
                for (server, &points) in points.iter().enumerate() {
                    for after in 0..points {
                        let mut run = Run::new(segment, seed);
                        run.at = format!(
                            "seed {seed}, segment {segment}, server {server}, cut after {after}"
                        );
                        run.cut_power(server, after);
                        run.publish_all();
                        assert_eq!(run.recoveries, 1, "{}", run.at);
                        cuts += 1;
                    }
                }
            }
            assert!(cuts >= 20, "{cuts} power cuts");
        }
    }
}
