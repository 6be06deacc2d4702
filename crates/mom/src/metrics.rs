//! Optional metric bundles held by the sans-IO cores.
//!
//! Cores store `Option<…Metrics>` bundles of concrete `aaa-obs` handles:
//! absent a meter (the default) every event pays exactly one branch and no
//! atomic traffic; with a meter attached each event is one or two relaxed
//! atomic adds. Registration (which takes the registry mutex) happens once,
//! in `attach_meter`, never on the hot path.
//!
//! The metric vocabulary (all labelled `server="<id>"` via the meter's base
//! labels; per-domain families add `domain="<id>"`):
//!
//! | name | kind | unit |
//! |---|---|---|
//! | `aaa_channel_cell_ops_total` | counter | modelled cell operations of the paper's algorithm (simulator cost input) |
//! | `aaa_channel_stamp_bytes_total` (+`mode`) | counter | bytes |
//! | `aaa_channel_transmitted_total` | counter | messages |
//! | `aaa_channel_delivered_total` | counter | messages |
//! | `aaa_channel_forwarded_total` | counter | messages |
//! | `aaa_channel_postponed` | gauge | messages waiting |
//! | `aaa_channel_postponement_us` | histogram | µs (caller clock) |
//! | `aaa_engine_reactions_total` | counter | reactions |
//! | `aaa_engine_dead_letters_total` | counter | messages |
//! | `aaa_engine_queue_depth` | gauge | messages in `QueueIN` |
//! | `aaa_engine_reaction_latency_us` | histogram | µs (wall clock) |
//! | `aaa_server_delivery_latency_us` | histogram | µs send→deliver |
//! | `aaa_server_disk_bytes_total` | counter | bytes persisted |
//! | `aaa_server_retransmissions_total` (+`peer`) | counter | frames |
//! | `aaa_mom_backpressure_total` | counter | rejected client sends |
//! | `aaa_link_batch_frames` | histogram | frames per flushed batch |
//! | `aaa_link_flushes_total` | counter | batch flushes |
//! | `aaa_persist_group_commit_total` | counter | group commits |
//! | `aaa_persist_group_commit_us` | histogram | µs per group commit |
//! | `aaa_relay_queue_depth` | gauge | unacked journaled entries |
//! | `aaa_relay_enqueued_total` | counter | publications journaled |
//! | `aaa_relay_acked_total` | counter | entries committed by ACK |
//! | `aaa_relay_redeliveries_total` | counter | entries redelivered |
//! | `aaa_relay_expired_total` | counter | entries dropped by TTL |
//! | `aaa_relay_handoff_total` | counter | handoffs accepted |
//! | `aaa_relay_handoff_dup_total` | counter | duplicate handoffs |
//! | `aaa_relay_handoff_dropped_total` | counter | misrouted handoffs |
//! | `aaa_relay_compactions_total` | counter | compaction passes |
//! | `aaa_relay_compaction_reclaimed_bytes_total` | counter | bytes |
//! | `aaa_pubsub_dropped_total` | counter | publications dropped |

use std::collections::HashMap;

use aaa_base::{DomainId, ServerId};
use aaa_clocks::StampMode;
use aaa_obs::{Counter, Gauge, Histogram, Meter, LATENCY_BUCKETS_US};

/// Per-domain causal-cost counters (Figures 7/8 of the paper are plots of
/// exactly these two series).
#[derive(Debug, Clone)]
pub(crate) struct DomainChannelMetrics {
    pub cell_ops: Counter,
    pub stamp_bytes: Counter,
}

/// Instruments of one [`crate::channel::ChannelCore`].
#[derive(Debug, Clone)]
pub(crate) struct ChannelMetrics {
    /// Parallel to `ChannelCore::items` (one entry per domain membership).
    pub domains: Vec<DomainChannelMetrics>,
    pub transmitted: Counter,
    pub delivered: Counter,
    pub forwarded: Counter,
    pub postponed: Gauge,
    pub postponement_us: Histogram,
}

impl ChannelMetrics {
    pub fn new(meter: &Meter, domains: &[DomainId], mode: StampMode) -> Self {
        let per_domain = domains
            .iter()
            .map(|d| DomainChannelMetrics {
                cell_ops: meter.counter_with(
                    "aaa_channel_cell_ops_total",
                    "Matrix-cell operations (stamp, check, delivery merge)",
                    &[("domain", d.as_u16().to_string())],
                ),
                // The stamp-byte series carries the mode name so the
                // mode shootout can be read straight off the dashboard.
                stamp_bytes: meter.counter_with(
                    "aaa_channel_stamp_bytes_total",
                    "Causal stamp bytes emitted",
                    &[
                        ("domain", d.as_u16().to_string()),
                        ("mode", mode.to_string()),
                    ],
                ),
            })
            .collect();
        ChannelMetrics {
            domains: per_domain,
            transmitted: meter.counter(
                "aaa_channel_transmitted_total",
                "Messages transmitted to a neighbour (including forwards)",
            ),
            delivered: meter.counter(
                "aaa_channel_delivered_total",
                "Messages delivered to the local engine",
            ),
            forwarded: meter.counter(
                "aaa_channel_forwarded_total",
                "Messages forwarded to another domain (router work)",
            ),
            postponed: meter.gauge(
                "aaa_channel_postponed",
                "Messages received but not yet causally deliverable",
            ),
            postponement_us: meter.histogram(
                "aaa_channel_postponement_us",
                "Time causal messages spent postponed, in microseconds",
                LATENCY_BUCKETS_US,
            ),
        }
    }
}

/// Instruments of one [`crate::engine::EngineCore`].
#[derive(Debug, Clone)]
pub(crate) struct EngineMetrics {
    pub reactions: Counter,
    pub dead_letters: Counter,
    pub queue_depth: Gauge,
    pub reaction_latency_us: Histogram,
}

impl EngineMetrics {
    pub fn new(meter: &Meter) -> Self {
        EngineMetrics {
            reactions: meter.counter("aaa_engine_reactions_total", "Agent reactions committed"),
            dead_letters: meter.counter(
                "aaa_engine_dead_letters_total",
                "Messages dropped because no agent matched their destination",
            ),
            queue_depth: meter.gauge(
                "aaa_engine_queue_depth",
                "Messages waiting on the engine's QueueIN",
            ),
            reaction_latency_us: meter.histogram(
                "aaa_engine_reaction_latency_us",
                "Wall-clock duration of one agent reaction, in microseconds",
                LATENCY_BUCKETS_US,
            ),
        }
    }
}

/// Instruments of one [`crate::ServerCore`] (beyond its channel/engine).
#[derive(Debug, Clone)]
pub(crate) struct ServerMetrics {
    meter: Meter,
    pub delivery_latency_us: Histogram,
    pub disk_bytes: Counter,
    /// Frames per flushed link batch (group-commit coalescing width).
    pub batch_frames: Histogram,
    /// Link batch flushes (each becomes one wire packet to one peer).
    pub flushes: Counter,
    /// Group commits that wrote server state (one state record or
    /// checkpoint covering a whole batch).
    pub group_commit_total: Counter,
    /// Wall-clock duration of one group commit, in microseconds.
    pub group_commit_us: Histogram,
    /// Client sends rejected because the outstanding budget was exhausted.
    pub backpressure: Counter,
    /// Datagrams and frame payloads dropped by the ingestion path.
    pub rejected_datagrams: Counter,
    /// Minted lazily per peer (retransmissions are rare).
    retransmissions: HashMap<ServerId, Counter>,
}

/// Bucket edges for the batch-width histogram: powers of two up to a link
/// batch's fixed 32-frame bound (`aaa_net::link`).
const BATCH_FRAME_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32];

impl ServerMetrics {
    pub fn new(meter: &Meter) -> Self {
        ServerMetrics {
            meter: meter.clone(),
            delivery_latency_us: meter.histogram(
                "aaa_server_delivery_latency_us",
                "End-to-end send-to-delivery latency of causal messages, in \
                 microseconds on the runtime's clock",
                LATENCY_BUCKETS_US,
            ),
            disk_bytes: meter.counter(
                "aaa_server_disk_bytes_total",
                "Bytes written to stable storage by transactional commits",
            ),
            batch_frames: meter.histogram(
                "aaa_link_batch_frames",
                "Frames coalesced into one flushed link batch",
                BATCH_FRAME_BUCKETS,
            ),
            flushes: meter.counter(
                "aaa_link_flushes_total",
                "Link batch flushes (one wire packet per flush)",
            ),
            group_commit_total: meter.counter(
                "aaa_persist_group_commit_total",
                "Transactional group commits (one put per batch of deliveries)",
            ),
            group_commit_us: meter.histogram(
                "aaa_persist_group_commit_us",
                "Wall-clock duration of one group commit, in microseconds",
                LATENCY_BUCKETS_US,
            ),
            backpressure: meter.counter(
                "aaa_mom_backpressure_total",
                "Client sends rejected because the outstanding-message budget \
                 was exhausted",
            ),
            rejected_datagrams: meter.counter(
                "aaa_server_rejected_datagrams_total",
                "Datagrams and frame payloads dropped because they failed to \
                 decode or validate, or because their step aborted",
            ),
            retransmissions: HashMap::new(),
        }
    }

    /// The retransmission counter toward `peer`, minted on first use.
    pub fn retransmissions(&mut self, peer: ServerId) -> &Counter {
        let meter = &self.meter;
        self.retransmissions.entry(peer).or_insert_with(|| {
            meter.counter_with(
                "aaa_server_retransmissions_total",
                "Link-layer frames retransmitted after an RTO expiry",
                &[("peer", peer.as_u16().to_string())],
            )
        })
    }
}

/// Instruments of one [`crate::relay::RelayCore`] plus the pubsub drop
/// counter it accounts on the topics' behalf.
#[derive(Debug, Clone)]
pub(crate) struct RelayMetrics {
    /// Unacknowledged journaled entries across all subscriber queues.
    pub queue_depth: Gauge,
    /// Publications journaled into a subscriber queue.
    pub enqueued: Counter,
    /// Entries committed (released) by a cumulative recipient ACK.
    pub acked: Counter,
    /// Entries redelivered after a retry timeout expired unacked.
    pub redeliveries: Counter,
    /// Entries dropped because they outlived the retention TTL.
    pub expired: Counter,
    /// Relay-to-relay handoffs accepted for a local subscriber.
    pub handoff_accepted: Counter,
    /// Handoffs suppressed by the `(origin, seq)` idempotency key.
    pub handoff_duplicates: Counter,
    /// Handoffs dropped because the subscriber is not hosted here.
    pub handoff_dropped: Counter,
    /// Journal compaction passes completed.
    pub compactions: Counter,
    /// Disk bytes reclaimed by compaction.
    pub compaction_reclaimed: Counter,
    /// Publications dropped at the depth bound (cold subscriber full).
    pub pubsub_dropped: Counter,
    /// Torn mid-generation segments found when recovering the journal —
    /// a sign that records were truncated outside the normal
    /// crash-mid-append window.
    pub recovery_anomalies: Counter,
}

impl RelayMetrics {
    pub fn new(meter: &Meter) -> Self {
        RelayMetrics {
            queue_depth: meter.gauge(
                "aaa_relay_queue_depth",
                "Unacknowledged journaled entries across subscriber queues",
            ),
            enqueued: meter.counter(
                "aaa_relay_enqueued_total",
                "Publications journaled into a durable subscriber queue",
            ),
            acked: meter.counter(
                "aaa_relay_acked_total",
                "Journaled entries committed by a cumulative recipient ACK",
            ),
            redeliveries: meter.counter(
                "aaa_relay_redeliveries_total",
                "Journaled entries redelivered after an unacked retry timeout",
            ),
            expired: meter.counter(
                "aaa_relay_expired_total",
                "Journaled entries dropped because they outlived the TTL",
            ),
            handoff_accepted: meter.counter(
                "aaa_relay_handoff_total",
                "Relay-to-relay handoffs accepted for a local subscriber",
            ),
            handoff_duplicates: meter.counter(
                "aaa_relay_handoff_dup_total",
                "Handoffs suppressed as duplicates by the (origin, seq) key",
            ),
            handoff_dropped: meter.counter(
                "aaa_relay_handoff_dropped_total",
                "Handoffs dropped because the subscriber is not hosted here",
            ),
            compactions: meter.counter(
                "aaa_relay_compactions_total",
                "Relay journal compaction passes completed",
            ),
            compaction_reclaimed: meter.counter(
                "aaa_relay_compaction_reclaimed_bytes_total",
                "Disk bytes reclaimed by relay journal compaction",
            ),
            pubsub_dropped: meter.counter(
                "aaa_pubsub_dropped_total",
                "Publications dropped because a subscriber queue hit its \
                 depth bound",
            ),
            recovery_anomalies: meter.counter(
                "aaa_relay_recovery_anomalies_total",
                "Torn mid-generation segments detected while recovering \
                 the relay journal",
            ),
        }
    }
}
