//! The durable store-and-forward relay (DESIGN.md §17).
//!
//! The plain [`TopicAgent`](crate::pubsub::TopicAgent) assumes every
//! subscriber is live: a publication fans out as ordinary sends, and a
//! subscriber that is disconnected when they arrive simply never sees
//! them. The relay closes that dynamicity gap. A topic built with
//! [`TopicAgent::with_relay`](crate::pubsub::TopicAgent::with_relay)
//! forwards its traffic to the server-local relay instead, which:
//!
//! - **journals before delivering** — every publication is appended to the
//!   subscriber's stream of the relay's one durable [`Journal`], then
//!   dispatched; the server commits the journal (one `fdatasync` per step,
//!   `RelayCore::sync`) before anything the step produced leaves it, and
//!   a crash between journal and delivery redelivers on recovery
//!   (at-least-once below, exactly-once after the receiver's dedup);
//! - **commits on ACK** — a local delivery is acked in place as the
//!   subscriber's queue takes it, a handoff when the home relay returns a
//!   cumulative [`RelayAck`]; unacked entries are redelivered after a
//!   capped backoff ([`retry_backoff_ms`], the `aaa-net::health`
//!   schedule);
//! - **bounds cold subscribers** — a disconnected subscriber's queue
//!   accepts at most `max_depth` entries and then drops (counted in
//!   `aaa_pubsub_dropped_total`) instead of growing without bound, and a
//!   TTL expires entries that outlive their usefulness;
//! - **hands off across servers** — a subscriber hosted elsewhere is
//!   served by *its* home relay: the publishing relay journals locally and
//!   forwards `__relay_handoff` records, deduplicated at the home relay by
//!   the `(origin server, origin sequence)` key, and the handoff is
//!   terminal (a relay never re-forwards a handoff), so no relay loop can
//!   form.
//!
//! The relay is not an [`Agent`](crate::agent::Agent): its queues live in
//! its durable journal, which has its own crash story, and its registry
//! (topics, subscribers, handoff watermarks) is server state, recorded in
//! the server's checkpoints and state records like a clock is. It is
//! instead addressed as a pseudo-agent at local id [`RELAY_LOCAL`] and
//! wired directly into [`ServerCore`](crate::ServerCore)'s delivery path,
//! so relay control traffic rides the normal causal bus in both runtimes.
//! The same journal carries the server's state stream (DESIGN.md §17.1).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs;
use std::io::ErrorKind;
use std::path::PathBuf;

use aaa_base::{AgentId, Error, Result, ServerId, VDuration, VTime};
use aaa_net::health::retry_backoff_ms;
use aaa_net::wire::{Decoder, Encoder};
use aaa_net::RelayAck;
use aaa_storage::{Journal, QueueConfig};
use bytes::Bytes;

use crate::message::{DeliveryPolicy, Notification};
use crate::metrics::RelayMetrics;

/// The server-local index reserved for the relay pseudo-agent. No real
/// agent may register at this index.
pub const RELAY_LOCAL: u32 = u32::MAX;

/// Control kind: a topic forwards a publication to its relay.
pub const RELAY_PUBLISH: &str = "__relay_publish";
/// Control kind: a topic registers a subscriber with its relay.
pub const RELAY_SUBSCRIBE: &str = "__relay_subscribe";
/// Control kind: a topic removes a subscriber from its relay.
pub const RELAY_UNSUBSCRIBE: &str = "__relay_unsubscribe";
/// Control kind: the relay delivers one journaled publication to a
/// subscriber on its own server.
pub const RELAY_DELIVER: &str = "__relay_deliver";
/// Control kind: a home relay's cumulative acknowledgement of handoffs
/// ([`RelayAck`] body).
pub const RELAY_ACK: &str = "__relay_ack";
/// Control kind: relay-to-relay transfer of one journaled publication.
pub const RELAY_HANDOFF: &str = "__relay_handoff";

/// The relay pseudo-agent of `server`.
#[must_use]
pub fn relay_agent(server: ServerId) -> AgentId {
    AgentId::new(server, RELAY_LOCAL)
}

/// Retention and redelivery policy of a server's relay.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Per-subscriber unacknowledged-entry cap; beyond it publications to
    /// that subscriber are dropped and counted, never buffered unbounded.
    pub max_depth: usize,
    /// Entries older than this are expired (skipped, then reclaimed at
    /// compaction). `None` retains forever.
    pub ttl: Option<VDuration>,
    /// Records per on-disk segment before the active segment rolls.
    pub segment_max_records: usize,
    /// Redelivery window: at most this many unacked entries in flight to
    /// one subscriber at a time.
    pub window: u64,
    /// Base retry timeout before an unacked dispatch is redelivered; the
    /// capped `aaa-net::health` backoff is added per attempt.
    pub retry_rto: VDuration,
    /// Root directory of the durable journals (`relay-<server>/journal/`
    /// under it); `None` keeps them in memory (redelivery still works,
    /// but a crash loses the backlog).
    pub dir: Option<PathBuf>,
}

impl Default for RelayConfig {
    fn default() -> RelayConfig {
        RelayConfig {
            max_depth: 4096,
            ttl: None,
            segment_max_records: 1024,
            window: 64,
            retry_rto: VDuration::from_millis(200),
            dir: None,
        }
    }
}

impl RelayConfig {
    /// Replaces the per-subscriber depth cap.
    #[must_use]
    pub fn max_depth(mut self, depth: usize) -> RelayConfig {
        self.max_depth = depth;
        self
    }

    /// Replaces the entry TTL.
    #[must_use]
    pub fn ttl(mut self, ttl: Option<VDuration>) -> RelayConfig {
        self.ttl = ttl;
        self
    }

    /// Replaces the segment roll threshold.
    #[must_use]
    pub fn segment_max_records(mut self, records: usize) -> RelayConfig {
        self.segment_max_records = records;
        self
    }

    /// Replaces the redelivery window.
    #[must_use]
    pub fn window(mut self, window: u64) -> RelayConfig {
        self.window = window;
        self
    }

    /// Replaces the base retry timeout.
    #[must_use]
    pub fn retry_rto(mut self, rto: VDuration) -> RelayConfig {
        self.retry_rto = rto;
        self
    }

    /// Backs the journals by durable segments rooted at `dir`.
    #[must_use]
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> RelayConfig {
        self.dir = Some(dir.into());
        self
    }

    fn queue_config(&self) -> QueueConfig {
        QueueConfig {
            // The relay enforces `max_depth` on the undispatched backlog;
            // the queue's own cap is a hard stop that additionally admits
            // the bounded in-flight window.
            max_depth: self
                .max_depth
                .saturating_add(usize::try_from(self.window).unwrap_or(usize::MAX)),
            ttl_ticks: self.ttl.map(VDuration::as_micros),
            segment_max_records: self.segment_max_records,
            // The relay's journal-before-deliver guarantee is against
            // power loss, not just a process crash: default sync policy.
            ..QueueConfig::default()
        }
    }
}

/// The journal stream of `sub`: its `AgentId` packed into a `u64`
/// (server above, local index below), so no mapping table is persisted.
fn stream(sub: AgentId) -> u64 {
    (u64::from(sub.server().as_u16()) << 32) | u64::from(sub.local())
}

/// Opens the relay journal of server `me`: in memory without a `dir`,
/// else at `<dir>/relay-<me>/journal/`.
///
/// # Errors
///
/// [`Error::Storage`] if the journal cannot be recovered, or if the relay
/// directory still holds a `sub-*` queue of the per-subscriber layout the
/// journal replaced: that backlog is not migrated, and opening beside it
/// would strand it silently.
fn open_journal(me: ServerId, cfg: &RelayConfig) -> Result<Journal> {
    let Some(root) = &cfg.dir else {
        return Ok(Journal::in_memory(cfg.queue_config()));
    };
    let relay_dir = root.join(format!("relay-{}", me.as_u16()));
    match fs::read_dir(&relay_dir) {
        Ok(listing) => {
            for entry in listing {
                let entry = entry.map_err(|e| Error::Storage(format!("list relay dir: {e}")))?;
                if entry.file_name().to_string_lossy().starts_with("sub-") {
                    return Err(Error::Storage(format!(
                        "{} is a per-subscriber relay queue of an older layout; \
                         drain it with the build that wrote it, then remove it",
                        entry.path().display()
                    )));
                }
            }
        }
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(Error::Storage(format!("list relay dir: {e}"))),
    }
    Journal::open(relay_dir.join("journal"), cfg.queue_config())
}

/// Wire bytes of an agent id.
const AGENT_ID_LEN: usize = 6;

/// The relay's registry — topics, subscribers and handoff watermarks — as
/// a checkpoint holds it, or the part of it one step changed, as a state
/// record holds it ([`Registry::apply`] merges a change in).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Registry {
    /// Topic agent → its subscribers. In a change, an empty set removes
    /// the topic.
    pub topics: BTreeMap<AgentId, BTreeSet<AgentId>>,
    /// Subscriber → whether it is connected. In a change, `None` removes
    /// the subscriber.
    pub subs: BTreeMap<AgentId, Option<bool>>,
    /// Highest origin sequence accepted per `(origin server, subscriber)`.
    pub handoffs: BTreeMap<(ServerId, AgentId), u64>,
}

impl Registry {
    /// Merges `change` in: its keys replace or remove the same keys here.
    pub fn apply(&mut self, change: Registry) {
        for (topic, members) in change.topics {
            if members.is_empty() {
                self.topics.remove(&topic);
            } else {
                self.topics.insert(topic, members);
            }
        }
        for (sub, connected) in change.subs {
            match connected {
                Some(_) => self.subs.insert(sub, connected),
                None => self.subs.remove(&sub),
            };
        }
        self.handoffs.extend(change.handoffs);
    }

    /// Appends the registry to `e`.
    pub fn encode(&self, e: &mut Encoder) {
        e.count(self.topics.len());
        for (topic, members) in &self.topics {
            e.agent_id(*topic);
            e.count(members.len());
            for m in members {
                e.agent_id(*m);
            }
        }
        e.count(self.subs.len());
        for (sub, connected) in &self.subs {
            e.agent_id(*sub);
            e.u8(connected.map_or(0, |c| 1 + u8::from(c)));
        }
        e.count(self.handoffs.len());
        for ((origin, sub), upto) in &self.handoffs {
            e.server_id(*origin);
            e.agent_id(*sub);
            e.u64(*upto);
        }
    }

    /// Decodes what [`Registry::encode`] wrote.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on truncation or an unknown subscriber state.
    pub fn decode(d: &mut Decoder) -> Result<Registry> {
        let mut registry = Registry::default();
        for _ in 0..d.count(AGENT_ID_LEN + 4)? {
            let topic = d.agent_id()?;
            let mut members = BTreeSet::new();
            for _ in 0..d.count(AGENT_ID_LEN)? {
                members.insert(d.agent_id()?);
            }
            registry.topics.insert(topic, members);
        }
        for _ in 0..d.count(AGENT_ID_LEN + 1)? {
            let sub = d.agent_id()?;
            let connected = match d.u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                s => return Err(Error::Codec(format!("unknown subscriber state {s}"))),
            };
            registry.subs.insert(sub, connected);
        }
        for _ in 0..d.count(2 + AGENT_ID_LEN + 8)? {
            let origin = d.server_id()?;
            let sub = d.agent_id()?;
            registry.handoffs.insert((origin, sub), d.u64()?);
        }
        Ok(registry)
    }
}

/// The registry keys changed since the last [`RelayCore::take_changes`].
#[derive(Debug, Default)]
struct Changed {
    topics: BTreeSet<AgentId>,
    subs: BTreeSet<AgentId>,
    handoffs: BTreeSet<(ServerId, AgentId)>,
}

/// Redelivery state of one subscriber (its entries live in the journal
/// under [`stream`]).
#[derive(Debug)]
struct SubState {
    /// Whether the subscriber is reachable; cold subscribers accumulate
    /// backlog instead of being dispatched to. A subscriber on another
    /// server is handed off to its home relay whatever this says.
    connected: bool,
    /// Highest sequence number dispatched since the last (re)connect or
    /// retry reset; entries in `acked+1 ..= dispatched_upto` are in
    /// flight.
    dispatched_upto: u64,
    /// Retry attempt counter (resets when the window fully acks).
    attempt: u32,
    /// When the unacked in-flight window is redelivered.
    next_retry: Option<VTime>,
}

/// The sans-IO relay state machine of one server.
///
/// Driven by [`ServerCore`](crate::ServerCore): control notifications
/// addressed to [`relay_agent`]`(me)` are routed here, and everything the
/// relay wants to send is drained from `outbox` through the normal
/// submit path (so handoffs and deliveries are stamped, journaled and
/// retransmitted exactly like application traffic).
#[derive(Debug)]
pub(crate) struct RelayCore {
    me: ServerId,
    cfg: RelayConfig,
    /// Every subscriber's queue, one stream each, and the server's state
    /// stream.
    pub journal: Journal,
    /// Topic agent → its subscribers (mirrors the relayed `TopicAgent`s).
    topics: BTreeMap<AgentId, BTreeSet<AgentId>>,
    subs: BTreeMap<AgentId, SubState>,
    /// What the relay wants sent: `(to, note, policy)` triples.
    outbox: VecDeque<(AgentId, Notification, DeliveryPolicy)>,
    /// Handoff dedup: highest origin sequence accepted per
    /// `(origin server, subscriber)` — the `(origin, seq)` idempotency
    /// key with bounded memory (acceptance is monotone).
    handoff_rx: HashMap<(ServerId, AgentId), u64>,
    /// Incrementally maintained total of [`RelayCore::backlog`], so the
    /// per-ack gauge update stays O(1) instead of summing every
    /// subscriber's depth (10k subscribers × one ack each is the common
    /// fan-out shape).
    depth_cache: u64,
    /// The latest instant [`RelayCore::on_tick`] or [`RelayCore::on_ack`]
    /// saw: the TTL horizon of [`RelayCore::compact`].
    tick: u64,
    /// Registry keys changed since the last state record, while the server
    /// records its state ([`RelayCore::track_changes`]).
    changed: Option<Changed>,
    metrics: Option<RelayMetrics>,
    /// The power-cut seam: how many more [`RelayCore::sync`]s succeed.
    /// Once it reaches zero every sync fails without writing, and what
    /// the journal buffered since the last successful one dies with the
    /// server, as it would in a power loss at that commit point.
    #[cfg(test)]
    pub syncs_left: Option<u64>,
}

impl RelayCore {
    /// A relay for server `me`, recovering its journal when `cfg.dir` is
    /// set.
    ///
    /// # Errors
    ///
    /// As for [`open_journal`].
    pub fn new(me: ServerId, cfg: RelayConfig) -> Result<RelayCore> {
        Ok(RelayCore {
            me,
            journal: open_journal(me, &cfg)?,
            cfg,
            topics: BTreeMap::new(),
            subs: BTreeMap::new(),
            outbox: VecDeque::new(),
            handoff_rx: HashMap::new(),
            depth_cache: 0,
            tick: 0,
            changed: None,
            metrics: None,
            #[cfg(test)]
            syncs_left: None,
        })
    }

    /// Starts recording which registry keys change, for
    /// [`RelayCore::take_changes`].
    pub fn track_changes(&mut self) {
        self.changed = Some(Changed::default());
    }

    /// The registry keys changed since the last call, with their current
    /// values (an empty member set or `None` where a topic or subscriber
    /// was removed).
    pub fn take_changes(&mut self) -> Registry {
        let Some(changed) = self.changed.as_mut().map(std::mem::take) else {
            return Registry::default();
        };
        Registry {
            topics: changed
                .topics
                .into_iter()
                .map(|t| (t, self.topics.get(&t).cloned().unwrap_or_default()))
                .collect(),
            subs: changed
                .subs
                .into_iter()
                .map(|s| (s, self.subs.get(&s).map(|st| st.connected)))
                .collect(),
            handoffs: changed
                .handoffs
                .into_iter()
                .filter_map(|k| Some((k, *self.handoff_rx.get(&k)?)))
                .collect(),
        }
    }

    /// `true` when no tracked registry key changed since the last
    /// [`RelayCore::take_changes`].
    pub fn unchanged(&self) -> bool {
        self.changed
            .as_ref()
            .is_none_or(|c| c.topics.is_empty() && c.subs.is_empty() && c.handoffs.is_empty())
    }

    fn changed_sub(&mut self, sub: AgentId) {
        if let Some(c) = &mut self.changed {
            c.subs.insert(sub);
        }
    }

    pub fn attach_metrics(&mut self, metrics: RelayMetrics) {
        // A torn *middle* segment truncated records that a crash
        // mid-append cannot explain; surface it instead of serving the
        // journal as if recovery were clean.
        metrics
            .recovery_anomalies
            .add(self.journal.recovery_anomalies());
        self.metrics = Some(metrics);
    }

    /// The commit point: makes everything journaled since the last call —
    /// the server's state record included — durable with at most one
    /// write and one `fdatasync`, nothing when the journal is clean.
    /// [`ServerCore`](crate::ServerCore) calls it at the end of every
    /// step, before any checkpoint and before any transmission leaves.
    ///
    /// # Errors
    ///
    /// [`Error::Storage`] if the write or sync fails; the journal is then
    /// poisoned and every later relay operation fails the same way until
    /// the server is recovered.
    pub fn sync(&mut self) -> Result<()> {
        #[cfg(test)]
        match &mut self.syncs_left {
            Some(0) => return Err(Error::Storage("injected power cut".into())),
            Some(left) => *left -= 1,
            None => {}
        }
        self.journal.sync()
    }

    /// Compacts the journal. The server calls it from its commit, once a
    /// checkpoint covers every state record the pass would drop.
    ///
    /// # Errors
    ///
    /// As for [`Journal::compact`].
    pub fn compact(&mut self) -> Result<()> {
        let report = self.journal.compact(self.tick)?;
        // Expired entries the pass acknowledged away leave the backlog.
        self.depth_cache = self.depth_cache.saturating_sub(report.expired_dropped);
        if let Some(m) = &self.metrics {
            m.expired.add(report.expired_dropped);
            m.compactions.add(1);
            m.compaction_reclaimed.add(report.bytes_reclaimed);
        }
        self.update_depth_gauge();
        Ok(())
    }

    /// Total unacknowledged backlog across subscribers, recomputed from
    /// the journal (the oracle `depth_cache` mirrors incrementally; tests
    /// cross-check the two).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn backlog(&self) -> usize {
        self.subs
            .keys()
            .map(|&s| self.journal.depth(stream(s)))
            .sum()
    }

    fn update_depth_gauge(&self) {
        if let Some(m) = &self.metrics {
            m.queue_depth
                .set(i64::try_from(self.depth_cache).unwrap_or(i64::MAX));
        }
    }

    fn ensure_sub(&mut self, sub: AgentId) -> &mut SubState {
        let RelayCore {
            journal,
            subs,
            depth_cache,
            changed,
            ..
        } = self;
        subs.entry(sub).or_insert_with(|| {
            if let Some(c) = changed {
                c.subs.insert(sub);
            }
            // A recovered stream carries its backlog.
            *depth_cache = depth_cache.saturating_add(journal.depth(stream(sub)) as u64);
            SubState {
                connected: true,
                dispatched_upto: journal.acked(stream(sub)),
                attempt: 0,
                next_retry: None,
            }
        })
    }

    /// Handles one control message of `kind` from agent `from`: a topic's
    /// publish, subscribe or unsubscribe, or a peer relay's handoff or
    /// ack. The outer error is input the server drops and counts: a `body`
    /// that does not decode, or a handoff or ack from an agent that is not
    /// its server's relay — only a relay may hand off custody or release
    /// it. The inner error is the relay's own, a storage error that fails
    /// the step.
    pub fn on_control(
        &mut self,
        from: AgentId,
        kind: &str,
        body: &Bytes,
        now: VTime,
    ) -> Result<Result<()>> {
        if matches!(kind, RELAY_ACK | RELAY_HANDOFF) && from != relay_agent(from.server()) {
            return Err(Error::Codec(format!("{kind} from {from}, not a relay")));
        }
        let mut d = Decoder::new(body.clone());
        Ok(match kind {
            RELAY_PUBLISH => {
                let topic = d.agent_id()?;
                let kind = d.string()?;
                self.on_publish(topic, &kind, &d.bytes()?, now)
            }
            RELAY_SUBSCRIBE => {
                let topic = d.agent_id()?;
                self.on_subscribe(topic, d.agent_id()?, now);
                Ok(())
            }
            RELAY_UNSUBSCRIBE => {
                let topic = d.agent_id()?;
                self.on_unsubscribe(topic, d.agent_id()?);
                Ok(())
            }
            RELAY_ACK => {
                let ack = RelayAck::decode(body.clone())?;
                self.on_ack(ack.subscriber, ack.upto, now)
            }
            RELAY_HANDOFF => {
                let sub = d.agent_id()?;
                let seq = d.u64()?;
                self.on_handoff(from.server(), sub, seq, &d.bytes()?, now)
            }
            _ => Ok(()),
        })
    }

    /// Registers `sub` on `topic`.
    pub fn on_subscribe(&mut self, topic: AgentId, sub: AgentId, now: VTime) {
        self.topics.entry(topic).or_default().insert(sub);
        if let Some(c) = &mut self.changed {
            c.topics.insert(topic);
        }
        self.ensure_sub(sub);
        self.pump(sub, now);
    }

    /// Removes `sub` from `topic`; its redelivery state is dropped once no
    /// topic references the subscriber and nothing is pending (the stream
    /// keeps its watermark, so a later subscription continues its
    /// sequence).
    pub fn on_unsubscribe(&mut self, topic: AgentId, sub: AgentId) {
        if let Some(members) = self.topics.get_mut(&topic) {
            members.remove(&sub);
            if members.is_empty() {
                self.topics.remove(&topic);
            }
            if let Some(c) = &mut self.changed {
                c.topics.insert(topic);
            }
        }
        let orphan = !self.topics.values().any(|m| m.contains(&sub));
        if orphan && self.journal.depth(stream(sub)) == 0 && self.subs.remove(&sub).is_some() {
            self.changed_sub(sub);
        }
    }

    /// Journals one publication from `topic` for every subscriber, then
    /// dispatches to the warm ones.
    pub fn on_publish(
        &mut self,
        topic: AgentId,
        kind: &str,
        body: &Bytes,
        now: VTime,
    ) -> Result<()> {
        let members: Vec<AgentId> = self
            .topics
            .get(&topic)
            .map(|m| m.iter().copied().collect())
            .unwrap_or_default();
        let mut payload_enc = Encoder::new();
        payload_enc.agent_id(topic);
        payload_enc.string(kind);
        payload_enc.bytes(body);
        let payload = payload_enc.finish().to_vec();
        let tick = now.as_micros();
        for sub in members {
            let horizon = self.ensure_sub(sub).dispatched_upto;
            // The depth cap bounds the *undispatched* backlog; entries
            // already dispatched and awaiting an ack are governed by
            // `window`, so a warm subscriber with lagging acks is never
            // throttled by its own in-flight traffic. Two binary searches,
            // not a scan: a cold subscriber at the cap holds `max_depth`
            // entries.
            let undispatched = self.journal.pending_after(stream(sub), tick, horizon).len();
            if undispatched >= self.cfg.max_depth {
                // The bound working as designed: a cold subscriber's
                // queue is full, so the publication is dropped for
                // them (and only them) and counted.
                if let Some(m) = &self.metrics {
                    m.pubsub_dropped.add(1);
                }
                continue;
            }
            match self
                .journal
                .enqueue(stream(sub), tick, Vec::new(), payload.clone())
            {
                Ok(_) => {
                    self.depth_cache = self.depth_cache.saturating_add(1);
                    if let Some(m) = &self.metrics {
                        m.enqueued.add(1);
                    }
                }
                Err(Error::Backpressure) => {
                    // The queue's own hard cap (`max_depth + window`).
                    if let Some(m) = &self.metrics {
                        m.pubsub_dropped.add(1);
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
            self.pump(sub, now);
        }
        self.update_depth_gauge();
        Ok(())
    }

    /// Commits cumulative delivery for `sub` up to `upto` and refills the
    /// dispatch window.
    pub fn on_ack(&mut self, sub: AgentId, upto: u64, now: VTime) -> Result<()> {
        self.tick = now.as_micros();
        let Some(st) = self.subs.get_mut(&sub) else {
            return Ok(()); // unsubscribed meanwhile: stale ack, ignore
        };
        let released = self.journal.ack_up_to(stream(sub), upto)?;
        if released > 0 {
            self.depth_cache = self.depth_cache.saturating_sub(released);
            if let Some(m) = &self.metrics {
                m.acked.add(released);
            }
        }
        if released > 0 {
            // Progress restarts the retry timer (`pump` re-arms it for
            // whatever is still in flight): a window that keeps draining
            // is slow, not lost, and must not be redelivered wholesale
            // just because it never emptied within one RTO.
            st.attempt = 0;
            st.next_retry = None;
        }
        self.pump(sub, now);
        self.update_depth_gauge();
        Ok(())
    }

    /// Accepts handoff `seq` of `payload` from the relay of `origin` for a
    /// *local* subscriber `sub`.
    ///
    /// Handoff is terminal: a record for a subscriber not hosted here is
    /// dropped (loop prevention), and duplicates — the origin redelivering
    /// past a lost ack — are suppressed by the `(origin, seq)` watermark.
    /// Either way a cumulative ack is returned to the origin relay.
    pub fn on_handoff(
        &mut self,
        origin: ServerId,
        sub: AgentId,
        seq: u64,
        payload: &Bytes,
        now: VTime,
    ) -> Result<()> {
        if sub.server() != self.me {
            // Not ours: a misrouted or looping handoff ends here.
            if let Some(m) = &self.metrics {
                m.handoff_dropped.add(1);
            }
            return Ok(());
        }
        let last = self.handoff_rx.get(&(origin, sub)).copied().unwrap_or(0);
        if seq > last {
            self.handoff_rx.insert((origin, sub), seq);
            if let Some(c) = &mut self.changed {
                c.handoffs.insert((origin, sub));
            }
            if let Some(m) = &self.metrics {
                m.handoff_accepted.add(1);
            }
            self.ensure_sub(sub);
            match self
                .journal
                .enqueue(stream(sub), now.as_micros(), Vec::new(), payload.to_vec())
            {
                Ok(_) => {
                    self.depth_cache = self.depth_cache.saturating_add(1);
                }
                Err(Error::Backpressure) => {
                    if let Some(m) = &self.metrics {
                        m.pubsub_dropped.add(1);
                    }
                }
                Err(e) => return Err(e),
            }
            self.pump(sub, now);
        } else if let Some(m) = &self.metrics {
            m.handoff_duplicates.add(1);
        }
        // Always re-ack: a duplicate means the origin missed our last ack.
        let upto = self.handoff_rx.get(&(origin, sub)).copied().unwrap_or(0);
        self.outbox.push_back((
            relay_agent(origin),
            Notification::new(
                RELAY_ACK,
                RelayAck {
                    subscriber: sub,
                    upto,
                }
                .encode(),
            ),
            DeliveryPolicy::Unordered,
        ));
        self.update_depth_gauge();
        Ok(())
    }

    /// Marks `sub` connected (re-dispatching its backlog; the receiver's
    /// dedup map absorbs any overlap) or disconnected (halting dispatch;
    /// the backlog accumulates under the depth/TTL bounds).
    pub fn set_connected(&mut self, sub: AgentId, connected: bool, now: VTime) {
        let acked = self.journal.acked(stream(sub));
        self.changed_sub(sub);
        let st = self.ensure_sub(sub);
        st.connected = connected;
        st.next_retry = None;
        if connected {
            st.attempt = 0;
            // Anything dispatched before the disconnect may have been
            // lost; rewind to the committed watermark and redeliver.
            st.dispatched_upto = acked;
            self.pump(sub, now);
        }
    }

    /// Advances TTL expiry and redelivery timers; call once per server
    /// tick.
    pub fn on_tick(&mut self, now: VTime) -> Result<()> {
        self.tick = now.as_micros();
        // Fast path: without a TTL nothing expires, and when no retry is
        // due there is nothing to redeliver — skip the per-subscriber walk
        // (the tick fires continuously and the walk touches every
        // subscriber, which hurts at 10k of them).
        if self.cfg.ttl.is_none() && self.next_retry_deadline().is_none_or(|t| t > now) {
            return Ok(());
        }
        let subs: Vec<AgentId> = self.subs.keys().copied().collect();
        let tick = now.as_micros();
        for sub in subs {
            // TTL-expired head-of-queue entries are acked away so they can
            // never wedge the dispatch window of a reconnecting
            // subscriber.
            let key = stream(sub);
            let expired_upto = self.journal.expired_prefix(key, tick);
            if expired_upto > 0 {
                let dropped = self.journal.ack_up_to(key, expired_upto)?;
                self.depth_cache = self.depth_cache.saturating_sub(dropped);
                if let Some(m) = &self.metrics {
                    m.expired.add(dropped);
                }
            }
            let acked = self.journal.acked(key);
            let Some(st) = self.subs.get_mut(&sub) else {
                continue;
            };
            st.dispatched_upto = st.dispatched_upto.max(acked);
            if st.next_retry.is_some_and(|t| t <= now) {
                st.attempt = st.attempt.saturating_add(1);
                if let Some(m) = &self.metrics {
                    m.redeliveries.add(st.dispatched_upto.saturating_sub(acked));
                }
                st.dispatched_upto = acked;
                st.next_retry = None;
                self.pump(sub, now);
            }
        }
        self.update_depth_gauge();
        Ok(())
    }

    /// Dispatches pending entries of `sub` into the outbox, up to the
    /// redelivery window, and arms the retry timer.
    fn pump(&mut self, sub: AgentId, now: VTime) {
        let RelayCore {
            me,
            cfg,
            journal,
            subs,
            outbox,
            ..
        } = self;
        let Some(st) = subs.get_mut(&sub) else { return };
        let remote = sub.server() != *me;
        if !st.connected && !remote {
            st.next_retry = None;
            return;
        }
        let key = stream(sub);
        let acked = journal.acked(key);
        st.dispatched_upto = st.dispatched_upto.max(acked);
        let due = journal
            .pending_after(key, now.as_micros(), st.dispatched_upto)
            .take_while(|e| e.seq.saturating_sub(acked) <= cfg.window);
        for e in due {
            st.dispatched_upto = e.seq;
            // A remote subscriber is served by its home relay: the
            // handoff is `sub | seq | payload`, a delivery `seq | payload`.
            let mut body = Encoder::new();
            let (to, kind) = if remote {
                body.agent_id(sub);
                (relay_agent(sub.server()), RELAY_HANDOFF)
            } else {
                (sub, RELAY_DELIVER)
            };
            body.u64(e.seq);
            body.bytes(&e.payload);
            outbox.push_back((
                to,
                Notification::new(kind, body.finish()),
                DeliveryPolicy::Causal,
            ));
        }
        if st.dispatched_upto > acked {
            if st.next_retry.is_none() {
                let peer = if remote { sub.server() } else { *me };
                let backoff =
                    VDuration::from_millis(retry_backoff_ms(*me, peer, st.attempt.max(1)));
                st.next_retry = Some(now + cfg.retry_rto + backoff);
            }
        } else {
            st.next_retry = None;
        }
    }

    /// Pops the next outgoing relay notification, if any.
    pub fn pop_outbox(&mut self) -> Option<(AgentId, Notification, DeliveryPolicy)> {
        self.outbox.pop_front()
    }

    /// `true` when no outgoing relay notification is queued.
    pub fn outbox_is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// `true` when nothing is queued for a reachable subscriber and the
    /// outbox is drained (cold backlogs do not block idleness).
    pub fn is_idle(&self) -> bool {
        self.outbox.is_empty()
            && self.subs.iter().all(|(&sub, st)| {
                (!st.connected && sub.server() == self.me) || self.journal.depth(stream(sub)) == 0
            })
    }

    /// The earliest pending retry deadline, if any.
    pub fn next_retry_deadline(&self) -> Option<VTime> {
        self.subs.values().filter_map(|st| st.next_retry).min()
    }

    /// The whole registry (topics, subscriber flags, handoff watermarks).
    /// Queue *contents* are not here — they live in the durable journal
    /// (or are accepted as lost for an in-memory one).
    pub fn registry(&self) -> Registry {
        Registry {
            topics: self.topics.clone(),
            subs: self
                .subs
                .iter()
                .map(|(&sub, st)| (sub, Some(st.connected)))
                .collect(),
            handoffs: self.handoff_rx.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }

    /// Installs a recovered registry over the recovered journal. Dispatch
    /// watermarks reset to the acked position: recovery redelivers the
    /// uncommitted window and the receiver's dedup restores exactly-once.
    pub fn restore(&mut self, registry: Registry, now: VTime) {
        self.topics = registry.topics;
        self.handoff_rx = registry.handoffs.into_iter().collect();
        for (sub, connected) in registry.subs {
            // Recovery redispatches from the committed watermark for
            // everyone reachable.
            self.set_connected(sub, connected.unwrap_or(true), now);
        }
        // What was restored is already durable.
        if let Some(c) = &mut self.changed {
            *c = Changed::default();
        }
    }
}

/// Decodes a journaled relay payload back into `(topic, kind, body)`.
pub(crate) fn decode_payload(payload: &Bytes) -> Result<(AgentId, String, Bytes)> {
    let mut d = Decoder::new(payload.clone());
    let topic = d.agent_id()?;
    let kind = d.string()?;
    let body = d.bytes()?;
    Ok((topic, kind, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(s: u16, l: u32) -> AgentId {
        AgentId::new(ServerId::new(s), l)
    }

    fn local_cfg() -> RelayConfig {
        RelayConfig::default()
            .window(4)
            .retry_rto(VDuration::from_millis(10))
    }

    fn drain(r: &mut RelayCore) -> Vec<(AgentId, String)> {
        let mut out = Vec::new();
        while let Some((to, note, _)) = r.pop_outbox() {
            out.push((to, note.kind().to_owned()));
        }
        out
    }

    #[test]
    fn publish_journals_then_dispatches_in_order() {
        let mut r = RelayCore::new(ServerId::new(0), local_cfg()).unwrap();
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        r.on_subscribe(topic, sub, VTime::ZERO);
        for i in 0..3u8 {
            r.on_publish(topic, "ev", &Bytes::from(vec![i]), VTime::ZERO)
                .unwrap();
        }
        let out = drain(&mut r);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(to, k)| *to == sub && k == RELAY_DELIVER));
        assert_eq!(r.backlog(), 3, "journaled until acked");
        r.on_ack(sub, 3, VTime::ZERO).unwrap();
        assert_eq!(r.backlog(), 0);
        assert!(r.is_idle());
    }

    #[test]
    fn window_bounds_inflight_and_acks_refill() {
        let mut r = RelayCore::new(ServerId::new(0), local_cfg()).unwrap();
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        r.on_subscribe(topic, sub, VTime::ZERO);
        for i in 0..10u8 {
            r.on_publish(topic, "ev", &Bytes::from(vec![i]), VTime::ZERO)
                .unwrap();
        }
        assert_eq!(drain(&mut r).len(), 4, "window caps in-flight");
        r.on_ack(sub, 4, VTime::ZERO).unwrap();
        assert_eq!(drain(&mut r).len(), 4, "acks open the window");
    }

    #[test]
    fn cold_subscriber_accumulates_then_drains_on_connect() {
        let mut r = RelayCore::new(ServerId::new(0), local_cfg()).unwrap();
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        r.on_subscribe(topic, sub, VTime::ZERO);
        r.set_connected(sub, false, VTime::ZERO);
        r.on_publish(topic, "ev", &Bytes::from_static(b"x"), VTime::ZERO)
            .unwrap();
        assert!(drain(&mut r).is_empty(), "cold: journal only");
        assert!(r.is_idle(), "cold backlog does not block idleness");
        r.set_connected(sub, true, VTime::ZERO);
        assert_eq!(drain(&mut r).len(), 1);
    }

    #[test]
    fn depth_cache_tracks_backlog_through_every_mutation() {
        let mut r = RelayCore::new(
            ServerId::new(0),
            local_cfg().ttl(Some(VDuration::from_millis(1))),
        )
        .unwrap();
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        r.on_subscribe(topic, sub, VTime::ZERO);
        for i in 0..5u8 {
            r.on_publish(topic, "ev", &Bytes::from(vec![i]), VTime::ZERO)
                .unwrap();
            assert_eq!(r.depth_cache as usize, r.backlog());
        }
        r.on_ack(sub, 2, VTime::ZERO).unwrap();
        assert_eq!(r.depth_cache as usize, r.backlog());
        // TTL-expire the rest on a late tick.
        r.on_tick(VTime::ZERO + VDuration::from_millis(10)).unwrap();
        assert_eq!(r.depth_cache as usize, r.backlog());
        assert_eq!(r.backlog(), 0);
    }

    #[test]
    fn backpressure_drops_for_the_full_subscriber_only() {
        let mut r = RelayCore::new(ServerId::new(0), local_cfg().max_depth(2)).unwrap();
        let topic = aid(0, 1);
        let (cold, warm) = (aid(0, 2), aid(0, 3));
        r.on_subscribe(topic, cold, VTime::ZERO);
        r.on_subscribe(topic, warm, VTime::ZERO);
        r.set_connected(cold, false, VTime::ZERO);
        for i in 0..3u8 {
            r.on_publish(topic, "ev", &Bytes::from(vec![i]), VTime::ZERO)
                .unwrap();
        }
        // cold is capped at 2; warm got all 3.
        let warm_out = drain(&mut r).iter().filter(|(to, _)| *to == warm).count();
        assert_eq!(warm_out, 3);
        assert_eq!(r.backlog(), 2 + 3);
    }

    #[test]
    fn retry_redelivers_the_unacked_window() {
        let mut r = RelayCore::new(ServerId::new(0), local_cfg()).unwrap();
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        r.on_subscribe(topic, sub, VTime::ZERO);
        r.on_publish(topic, "ev", &Bytes::from_static(b"x"), VTime::ZERO)
            .unwrap();
        assert_eq!(drain(&mut r).len(), 1);
        let deadline = r.next_retry_deadline().expect("retry armed");
        r.on_tick(deadline).unwrap();
        assert_eq!(drain(&mut r).len(), 1, "redelivered after the rto");
        assert!(r.next_retry_deadline().unwrap() > deadline, "backoff grows");
        r.on_ack(sub, 1, deadline).unwrap();
        assert!(r.next_retry_deadline().is_none(), "ack disarms the timer");
    }

    #[test]
    fn ack_progress_restarts_the_retry_timer() {
        let mut r = RelayCore::new(ServerId::new(0), local_cfg()).unwrap();
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        r.on_subscribe(topic, sub, VTime::ZERO);
        for i in 0..2u8 {
            r.on_publish(topic, "ev", &Bytes::from(vec![i]), VTime::ZERO)
                .unwrap();
        }
        assert_eq!(drain(&mut r).len(), 2);
        let deadline = r.next_retry_deadline().expect("retry armed");
        r.on_ack(sub, 1, VTime::from_micros(5_000)).unwrap();
        assert!(r.next_retry_deadline().unwrap() > deadline, "restarted");
        r.on_tick(deadline).unwrap();
        assert!(drain(&mut r).is_empty(), "a draining window is not resent");
    }

    #[test]
    fn ttl_expired_head_is_acked_away() {
        let mut r = RelayCore::new(
            ServerId::new(0),
            local_cfg().ttl(Some(VDuration::from_micros(5))),
        )
        .unwrap();
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        r.on_subscribe(topic, sub, VTime::ZERO);
        r.set_connected(sub, false, VTime::ZERO);
        r.on_publish(topic, "ev", &Bytes::from_static(b"x"), VTime::ZERO)
            .unwrap();
        r.on_tick(VTime::from_micros(10)).unwrap();
        assert_eq!(r.backlog(), 0, "expired prefix reclaimed");
        r.set_connected(sub, true, VTime::from_micros(10));
        assert!(drain(&mut r).is_empty(), "nothing stale redelivered");
    }

    #[test]
    fn remote_subscriber_rides_handoff_to_home_relay() {
        let mut origin = RelayCore::new(ServerId::new(0), local_cfg()).unwrap();
        let mut home = RelayCore::new(ServerId::new(1), local_cfg()).unwrap();
        let topic = aid(0, 1);
        let sub = aid(1, 2);
        origin.on_subscribe(topic, sub, VTime::ZERO);
        origin
            .on_publish(topic, "ev", &Bytes::from_static(b"x"), VTime::ZERO)
            .unwrap();
        let (to, note, policy) = origin.pop_outbox().expect("handoff dispatched");
        assert_eq!(to, relay_agent(ServerId::new(1)));
        assert_eq!(note.kind(), RELAY_HANDOFF);
        assert_eq!(policy, DeliveryPolicy::Causal);
        home.on_control(
            relay_agent(ServerId::new(0)),
            RELAY_HANDOFF,
            note.body(),
            VTime::ZERO,
        )
        .unwrap()
        .unwrap();
        // Home relay delivers locally and acks the origin.
        let out: Vec<_> = std::iter::from_fn(|| home.pop_outbox()).collect();
        assert_eq!(out.len(), 2);
        let ack = out.iter().find(|(_, n, _)| n.kind() == RELAY_ACK).unwrap();
        assert_eq!(ack.0, relay_agent(ServerId::new(0)));
        let deliver = out
            .iter()
            .find(|(_, n, _)| n.kind() == RELAY_DELIVER)
            .unwrap();
        assert_eq!(deliver.0, sub);
        // The publication survived the hop.
        let mut d = Decoder::new(deliver.1.body().clone());
        assert_eq!(d.u64().unwrap(), 1);
        let (from, kind, body) = decode_payload(&d.bytes().unwrap()).unwrap();
        assert_eq!(
            (from, kind.as_str(), body.as_ref()),
            (topic, "ev", &b"x"[..])
        );
        // Origin commits on the ack.
        let ack_body = RelayAck::decode(ack.1.body().clone()).unwrap();
        assert_eq!(
            ack_body,
            RelayAck {
                subscriber: sub,
                upto: 1
            }
        );
        origin.on_ack(sub, ack_body.upto, VTime::ZERO).unwrap();
        assert_eq!(origin.backlog(), 0);
    }

    #[test]
    fn only_a_relay_releases_relay_custody() {
        let mut origin = RelayCore::new(ServerId::new(0), local_cfg()).unwrap();
        let (topic, sub) = (aid(0, 1), aid(1, 2));
        origin.on_subscribe(topic, sub, VTime::ZERO);
        origin
            .on_publish(topic, "ev", &Bytes::from_static(b"x"), VTime::ZERO)
            .unwrap();
        let (_, note, _) = origin.pop_outbox().expect("handoff dispatched");
        assert_eq!(note.kind(), RELAY_HANDOFF);
        let ack = RelayAck {
            subscriber: sub,
            upto: 1,
        }
        .encode();
        // A plain agent on the subscriber's server cannot release the
        // handoff before the home relay has journaled it.
        let forged = origin.on_control(aid(1, 5), RELAY_ACK, &ack, VTime::ZERO);
        assert!(forged.is_err(), "refused as input");
        assert_eq!(origin.backlog(), 1);
        origin
            .on_control(relay_agent(ServerId::new(1)), RELAY_ACK, &ack, VTime::ZERO)
            .unwrap()
            .unwrap();
        assert_eq!(origin.backlog(), 0);
    }

    #[test]
    fn duplicate_handoff_is_suppressed_but_reacked() {
        let mut home = RelayCore::new(ServerId::new(1), local_cfg()).unwrap();
        let sub = aid(1, 2);
        hand_off(&mut home, sub, 1);
        hand_off(&mut home, sub, 1);
        let out: Vec<_> = std::iter::from_fn(|| home.pop_outbox()).collect();
        let delivers = out
            .iter()
            .filter(|(_, n, _)| n.kind() == RELAY_DELIVER)
            .count();
        let acks = out.iter().filter(|(_, n, _)| n.kind() == RELAY_ACK).count();
        assert_eq!(delivers, 1, "(origin, seq) dedup");
        assert_eq!(acks, 2, "every handoff is acked, duplicates included");
    }

    #[test]
    fn foreign_handoff_is_dropped_not_forwarded() {
        let mut relay = RelayCore::new(ServerId::new(1), local_cfg()).unwrap();
        hand_off(&mut relay, aid(5, 2), 1); // not hosted on server 1
        assert!(
            relay.pop_outbox().is_none(),
            "loop prevention: terminal drop"
        );
    }

    /// `registry` through its codec, as a checkpoint carries it.
    fn reencoded(registry: &Registry) -> Registry {
        let mut e = Encoder::new();
        registry.encode(&mut e);
        let mut d = Decoder::new(e.finish());
        let decoded = Registry::decode(&mut d).unwrap();
        assert_eq!(d.remaining(), 0);
        decoded
    }

    #[test]
    fn registry_restore_reopens_durable_queues() {
        let dir = std::env::temp_dir().join(format!(
            "aaa-relay-restore-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = local_cfg().dir(&dir);
        let topic = aid(0, 1);
        let sub = aid(0, 2);
        let registry = {
            let mut r = RelayCore::new(ServerId::new(0), cfg.clone()).unwrap();
            r.on_subscribe(topic, sub, VTime::ZERO);
            for i in 0..3u8 {
                r.on_publish(topic, "ev", &Bytes::from(vec![i]), VTime::ZERO)
                    .unwrap();
            }
            drain(&mut r);
            r.on_ack(sub, 1, VTime::ZERO).unwrap();
            // The server commits the journal before the checkpoint.
            r.sync().unwrap();
            reencoded(&r.registry())
        }; // crash: in-flight 2 and 3 never acked
        let mut r = RelayCore::new(ServerId::new(0), cfg).unwrap();
        r.restore(registry, VTime::ZERO);
        let out = drain(&mut r);
        assert_eq!(out.len(), 2, "uncommitted window redelivered");
        assert_eq!(r.backlog(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracked_changes_replay_onto_the_last_registry() {
        let mut r = RelayCore::new(ServerId::new(1), local_cfg()).unwrap();
        r.track_changes();
        let (topic, other) = (aid(1, 1), aid(1, 9));
        let mut replayed = Registry::default();
        let steps: [&dyn Fn(&mut RelayCore); 6] = [
            &|r| {
                r.on_subscribe(topic, aid(1, 2), VTime::ZERO);
                r.on_subscribe(other, aid(1, 3), VTime::ZERO);
            },
            &|r| r.set_connected(aid(1, 2), false, VTime::ZERO),
            &|r| hand_off(r, aid(1, 4), 1),
            &|r| hand_off(r, aid(1, 4), 2),
            // The only member leaves: the topic and the subscriber go.
            &|r| r.on_unsubscribe(other, aid(1, 3)),
            &|_| {},
        ];
        for step in steps {
            step(&mut r);
            drain(&mut r);
            replayed.apply(reencoded(&r.take_changes()));
            assert_eq!(replayed, r.registry());
        }
        assert_eq!(
            r.take_changes(),
            Registry::default(),
            "nothing changed since"
        );
        assert!(!replayed.topics.contains_key(&other));
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aaa-relay-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Hands `r` origin sequence `seq` for `sub` from server 0, carrying
    /// `[seq]`.
    fn hand_off(r: &mut RelayCore, sub: AgentId, seq: u64) {
        let mut p = Encoder::new();
        p.agent_id(aid(0, 1));
        p.string("ev");
        p.bytes(&[seq as u8]);
        r.on_handoff(ServerId::new(0), sub, seq, &p.finish(), VTime::ZERO)
            .unwrap();
    }

    #[test]
    fn unsynced_handoffs_die_with_the_relay_and_redelivery_lands_once() {
        let dir = tmp_dir("unsynced");
        let cfg = local_cfg().dir(&dir);
        let sub = aid(1, 2);
        {
            // A step journals three handoffs and queues their acks, then
            // the server dies before the step's commit.
            let mut home = RelayCore::new(ServerId::new(1), cfg.clone()).unwrap();
            for seq in 1..=3 {
                hand_off(&mut home, sub, seq);
            }
            assert_eq!(drain(&mut home).len(), 6, "three deliveries, three acks");
        }
        // Neither the records nor the uncommitted image's dedup watermark
        // survived, so the origin — which never saw an ack leave — still
        // holds the window and redelivers it, here twice over.
        let mut home = RelayCore::new(ServerId::new(1), cfg.clone()).unwrap();
        assert_eq!(home.journal.depth(stream(sub)), 0);
        for _ in 0..2 {
            for seq in 1..=3 {
                hand_off(&mut home, sub, seq);
            }
        }
        let delivered: Vec<u64> = std::iter::from_fn(|| home.pop_outbox())
            .filter(|(_, n, _)| n.kind() == RELAY_DELIVER)
            .map(|(_, n, _)| Decoder::new(n.body().clone()).u64().unwrap())
            .collect();
        assert_eq!(delivered, vec![1, 2, 3], "accepted exactly once, in order");
        home.sync().unwrap();
        drop(home);
        let home = RelayCore::new(ServerId::new(1), cfg).unwrap();
        assert_eq!(home.journal.depth(stream(sub)), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_subscriber_layout_is_refused_by_path() {
        let dir = tmp_dir("legacy");
        fs::create_dir_all(dir.join("relay-0").join("sub-0-2")).unwrap();
        let err = RelayCore::new(ServerId::new(0), local_cfg().dir(&dir)).unwrap_err();
        assert!(
            matches!(&err, Error::Storage(m) if m.contains("sub-0-2")),
            "{err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_roundtrip() {
        let mut e = Encoder::new();
        e.agent_id(aid(3, 9));
        e.string("price");
        e.bytes(b"42");
        let (topic, kind, body) = decode_payload(&e.finish()).unwrap();
        assert_eq!(topic, aid(3, 9));
        assert_eq!(kind, "price");
        assert_eq!(body.as_ref(), b"42");
    }
}
