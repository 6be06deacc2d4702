//! The MOM runtime: one shard pool steps every server, behind a
//! readiness-based transport API.
//!
//! [`MomBuilder`] assembles a complete bus — validated topology, a byte
//! transport, one [`ServerCore`](crate::ServerCore) per server — and
//! returns a [`Mom`]
//! handle for clients: register agents, send notifications, crash and
//! recover servers, snapshot the causality trace, collect statistics.
//! Configuration is three typed values ([`RuntimeConfig`], [`NetConfig`],
//! [`ClockConfig`]; see [`config`]) instead of a flat pile of setters.
//!
//! One execution substrate drives the sans-IO cores: the `evented`
//! module's pool of shard workers, which multiplexes *all* servers onto
//! a fixed number of threads through a slot table and a shared run
//! queue (the protocol `aaa-audit`'s `SlotModel` checks exhaustively).
//! Only its size is configurable ([`RuntimeConfig::workers`]):
//!
//! - **[`RuntimeConfig::threaded`]** (the default) — one worker per
//!   server, the paper's one-JVM-per-server deployment shrunk into a
//!   process: a server whose step blocks in its stable store never
//!   delays another server's step.
//! - **[`RuntimeConfig::evented`]** — a few workers for many servers,
//!   the C10K shape: one process sustains four-digit server counts
//!   because an idle server costs a slot table entry, not a stack and a
//!   scheduler entry.
//!
//! Each server runs a **batched step loop**: one wakeup
//! greedily drains the transport via [`Transport::poll_recv`] and hands
//! every ready datagram to
//! [`ServerCore::on_datagram_batch`](crate::ServerCore::on_datagram_batch)
//! as a single transaction — deliveries and reactions run together, outgoing
//! messages are group-stamped and coalesced into one wire packet per
//! peer (up to 32 frames or 256 KiB each; see [`aaa_net::link`]), and one
//! group commit persists the result. Every step flushes what it buffered
//! before it returns, so no frame waits for a later step or a timer.

pub mod config;
mod driver;
mod evented;

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aaa_base::{AgentId, Error, MessageId, Result, ServerId};
use aaa_net::{MemoryNetwork, MuxTcpNetwork};
use aaa_obs::{LatencyTracker, Meter, MetricsServer, MetricsSnapshot, Registry};
use aaa_storage::{MemoryStore, StableStore};
use aaa_topology::{Topology, TopologySpec};
use aaa_trace::TraceRecorder;
use crossbeam::channel::{bounded, Receiver, Sender};

pub use config::{ClockConfig, NetConfig, RuntimeConfig, TransportKind};

use crate::agent::Agent;
use crate::message::{Notification, SendOptions};
use crate::server::{ServerConfig, StepStats};

use driver::ServerDriver;
use evented::EventedPool;

/// The byte-transport abstraction, re-exported from `aaa-net` where it
/// lives beside the endpoint types that implement it ([`aaa_net::memory`],
/// [`aaa_net::mux`]). Select between them with [`NetConfig::transport`].
pub use aaa_net::Transport;

/// Maximum datagrams one step loop iteration drains from the transport
/// before processing them as a single transaction. Bounds step latency
/// while letting bursts amortize stamping, flushing and the group commit.
pub(crate) const MAX_STEP_DRAIN: usize = 256;

/// The default patience of [`Mom::shutdown`] — how long the bus gets to
/// take its final group commits before workers are reaped regardless.
const DEFAULT_SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);

pub(crate) enum Command {
    Register {
        local: u32,
        agent: Box<dyn Agent>,
        reply: Sender<()>,
    },
    Send {
        from: AgentId,
        to: AgentId,
        note: Notification,
        opts: SendOptions,
        reply: Sender<Result<MessageId>>,
    },
    SendBatch {
        from: AgentId,
        batch: Vec<(AgentId, Notification)>,
        opts: SendOptions,
        reply: Sender<Result<Vec<MessageId>>>,
    },
    Crash,
    Recover {
        agents: Vec<(u32, Box<dyn Agent>)>,
        reply: Sender<Result<()>>,
    },
    Probe {
        reply: Sender<bool>,
    },
    RelayConnect {
        subscriber: AgentId,
        connected: bool,
        reply: Sender<Result<()>>,
    },
    Stats {
        reply: Sender<StepStats>,
    },
    Shutdown,
}

/// Replies to a client command, tolerating a hung-up client.
///
/// Every `Command` carries a bounded reply channel; if the client timed out
/// or was dropped, the receiver is gone and `send` fails. That failure is
/// the *client's* outcome, not the server's — the server step already ran to
/// completion — so the error is deliberately discarded here, in exactly one
/// place.
pub(crate) fn respond<T>(reply: &Sender<T>, value: T) {
    // audit:allow(error-swallow)
    let _ = reply.send(value);
}

/// Bus-wide boot-time state, immutable once built and shared by the
/// [`Mom`] handle and every server's driver.
pub(crate) struct Boot {
    topology: Arc<Topology>,
    config: ServerConfig,
    stores: Vec<Arc<dyn StableStore>>,
    recorder: TraceRecorder,
    record_trace: bool,
    in_flight: Arc<AtomicI64>,
    registry: Option<Registry>,
    latency: Option<LatencyTracker>,
    relay: Option<crate::relay::RelayConfig>,
    pub(crate) start: Instant,
}

impl Boot {
    /// The per-server observability pair (meter + end-to-end latency
    /// tracker), if metrics are enabled. The tracker is minted together
    /// with the registry, so zipping the two options never silently
    /// drops one.
    pub(crate) fn obs_for(&self, i: usize) -> Option<(Meter, LatencyTracker)> {
        self.registry
            .as_ref()
            .zip(self.latency.clone())
            .map(|(r, tracker)| (Meter::new(r).with_label("server", i.to_string()), tracker))
    }

    /// The stable store of server `me` (one per server, checked at build).
    fn store(&self, me: ServerId) -> Arc<dyn StableStore> {
        self.stores[me.as_usize()].clone()
    }

    /// Builds the driver for server `me`.
    pub(crate) fn driver(
        self: &Arc<Self>,
        me: ServerId,
        obs: Option<(Meter, LatencyTracker)>,
    ) -> Result<ServerDriver> {
        ServerDriver::new(self.clone(), me, obs)
    }
}

/// Builder for a MOM bus.
///
/// Configuration is grouped into three typed values, one per layer:
/// [`RuntimeConfig`] (execution), [`NetConfig`] (wire), [`ClockConfig`]
/// (causality stamps). Each has a sensible default, so the minimal bus
/// is `MomBuilder::new(spec).build()?`.
///
/// # Examples
///
/// ```
/// use aaa_mom::{ClockConfig, MomBuilder, NetConfig, RuntimeConfig, StampMode};
/// use aaa_topology::TopologySpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mom = MomBuilder::new(TopologySpec::bus(2, 3))
///     .runtime(RuntimeConfig::evented(2))
///     .clock(ClockConfig::mode(StampMode::Updates))
///     .build()?;
/// mom.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct MomBuilder {
    spec: TopologySpec,
    runtime: RuntimeConfig,
    net: NetConfig,
    clock: ClockConfig,
    transports: Option<Vec<Box<dyn Transport>>>,
    stores: Option<Vec<Arc<dyn StableStore>>>,
    registry: Option<Registry>,
    relay: Option<crate::relay::RelayConfig>,
}

impl MomBuilder {
    /// Starts a builder for the given topology, with every config at its
    /// default ([`RuntimeConfig::threaded`], in-memory transport,
    /// [`aaa_clocks::StampMode::Updates`]).
    pub fn new(spec: TopologySpec) -> Self {
        MomBuilder {
            spec,
            runtime: RuntimeConfig::default(),
            net: NetConfig::default(),
            clock: ClockConfig::default(),
            transports: None,
            stores: None,
            registry: None,
            relay: None,
        }
    }

    /// Sets the execution-layer configuration (pool size, persistence,
    /// tracing, metrics, backpressure).
    #[must_use]
    pub fn runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the network-layer configuration (transport kind, batching,
    /// retransmission timeout, connect timeout).
    #[must_use]
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the clock-layer configuration (stamp encoding mode).
    #[must_use]
    pub fn clock(mut self, clock: ClockConfig) -> Self {
        self.clock = clock;
        self
    }

    /// Supplies pre-built transport endpoints — one per server, indexed
    /// by id — instead of letting the builder create the mesh. This is
    /// how chaos tests run the runtime over
    /// `aaa_chaos::FaultTransport`-wrapped endpoints; it also admits any
    /// custom [`Transport`] implementation. Overrides
    /// [`NetConfig::transport`].
    #[must_use]
    pub fn transports(mut self, transports: Vec<Box<dyn Transport>>) -> Self {
        self.transports = Some(transports);
        self
    }

    /// Supplies per-server stable stores (defaults to fresh
    /// [`MemoryStore`]s). Must be one per server, indexed by id.
    #[must_use]
    pub fn stores(mut self, stores: Vec<Arc<dyn StableStore>>) -> Self {
        self.stores = Some(stores);
        self
    }

    /// Supplies an external metrics [`Registry`] (for example one shared
    /// with other buses or already served over HTTP). Defaults to a fresh
    /// registry, accessible through [`Mom::metrics`].
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Enables the store-and-forward relay on **every** server with the
    /// given configuration (DESIGN.md §17): topics built with
    /// [`crate::pubsub::TopicAgent::with_relay`] get durable
    /// per-subscriber queues, at-least-once redelivery and cross-server
    /// handoff; [`Mom::relay_connect`] / [`Mom::relay_disconnect`] drive
    /// subscriber reachability.
    #[must_use]
    pub fn relay(mut self, relay: crate::relay::RelayConfig) -> Self {
        self.relay = Some(relay);
        self
    }

    /// Validates the topology, boots the runtime and returns the bus
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates topology validation errors ([`Error::InvalidTopology`],
    /// [`Error::CyclicDomainGraph`]) and [`Error::Config`] if a supplied
    /// store or transport list has the wrong length.
    pub fn build(self) -> Result<Mom> {
        let topology = Arc::new(if self.runtime.allow_cycles {
            self.spec.validate_allow_cycles()?
        } else {
            self.spec.validate()?
        });
        let n = topology.server_count();
        let stores = match self.stores {
            Some(stores) => {
                if stores.len() != n {
                    return Err(Error::Config(format!(
                        "expected {n} stores, got {}",
                        stores.len()
                    )));
                }
                stores
            }
            None => (0..n)
                .map(|_| Arc::new(MemoryStore::new()) as Arc<dyn StableStore>)
                .collect(),
        };

        let registry = self
            .runtime
            .metrics
            .then(|| self.registry.unwrap_or_default());
        let boot = Arc::new(Boot {
            topology,
            config: config::server_config(&self.runtime, &self.net, &self.clock),
            stores,
            recorder: TraceRecorder::new(),
            record_trace: self.runtime.record_trace,
            in_flight: Arc::new(AtomicI64::new(0)),
            latency: registry.as_ref().map(|_| LatencyTracker::new()),
            registry,
            relay: self.relay,
            start: Instant::now(),
        });

        let workers = self.runtime.resolve_workers(n);
        let endpoints: Vec<Box<dyn Transport>> = match self.transports {
            Some(transports) => {
                if transports.len() != n {
                    return Err(Error::Config(format!(
                        "expected {n} transports, got {}",
                        transports.len()
                    )));
                }
                transports
            }
            None => match self.net.transport {
                TransportKind::Memory => MemoryNetwork::create(n)
                    .into_iter()
                    .map(|e| Box::new(e) as Box<dyn Transport>)
                    .collect(),
                TransportKind::MuxTcp => MuxTcpNetwork::create_with_connect_timeout(
                    n,
                    workers,
                    self.net.connect_timeout,
                )?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .collect(),
            },
        };

        let pool = EventedPool::start(&boot, endpoints, workers)?;
        Ok(Mom { boot, pool })
    }
}

/// A running MOM bus: the shard pool plus the boot state it shares
/// with its servers.
pub struct Mom {
    boot: Arc<Boot>,
    pool: EventedPool,
}

impl std::fmt::Debug for Mom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mom")
            .field("servers", &self.pool.server_count())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

impl Mom {
    /// The validated topology this bus runs.
    pub fn topology(&self) -> &Topology {
        &self.boot.topology
    }

    /// Queues the command `make` builds around a fresh reply channel on
    /// `server` and returns the receiving end, so a caller can have
    /// several servers working before it waits on any.
    fn ask<T>(
        &self,
        server: ServerId,
        make: impl FnOnce(Sender<T>) -> Command,
    ) -> Result<Receiver<T>> {
        let (reply, rx) = bounded(1);
        self.pool.send_cmd(server.as_usize(), make(reply))?;
        Ok(rx)
    }

    /// [`Mom::ask`], then waits for the server's reply.
    fn call<T>(&self, server: ServerId, make: impl FnOnce(Sender<T>) -> Command) -> Result<T> {
        self.ask(server, make)?
            .recv()
            .map_err(|_| Error::Closed("server"))
    }

    /// Registers an agent on `server` under server-local id `local`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] for an unknown server or
    /// [`Error::Closed`] if the bus is shutting down.
    pub fn register_agent(
        &self,
        server: ServerId,
        local: u32,
        agent: Box<dyn Agent>,
    ) -> Result<AgentId> {
        self.call(server, |reply| Command::Register {
            local,
            agent,
            reply,
        })?;
        Ok(AgentId::new(server, local))
    }

    /// Sends a notification from `from` (an agent identity on its server)
    /// to `to`, waiting until the origin server has accepted it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] for unknown endpoints,
    /// [`Error::Closed`] if the origin server is crashed or shut down, and
    /// propagates channel validation errors.
    pub fn send(&self, from: AgentId, to: AgentId, note: Notification) -> Result<MessageId> {
        self.send_with(from, to, note, SendOptions::causal())
    }

    /// Sends a notification with no ordering guarantee (and no stamp
    /// overhead): the unordered quality of service. Excluded from the
    /// causality trace. Equivalent to
    /// `send_with(from, to, note, SendOptions::unordered())`.
    ///
    /// # Errors
    ///
    /// As for [`Mom::send`].
    pub fn send_unordered(
        &self,
        from: AgentId,
        to: AgentId,
        note: Notification,
    ) -> Result<MessageId> {
        self.send_with(from, to, note, SendOptions::unordered())
    }

    /// Sends a notification with explicit per-send options — the unified
    /// send path ([`Mom::send`] and [`Mom::send_unordered`] are thin
    /// wrappers over it). Anything convertible into [`SendOptions`] is
    /// accepted, including a bare [`DeliveryPolicy`](crate::DeliveryPolicy).
    ///
    /// # Errors
    ///
    /// As for [`Mom::send`].
    pub fn send_with(
        &self,
        from: AgentId,
        to: AgentId,
        note: Notification,
        opts: impl Into<SendOptions>,
    ) -> Result<MessageId> {
        let opts = opts.into();
        self.call(from.server(), |reply| Command::Send {
            from,
            to,
            note,
            opts,
            reply,
        })?
    }

    /// Sends several notifications from `from` as **one transaction** on
    /// the origin server: the batch is stamped together (consecutive
    /// same-peer stamps collapse into one-byte continuations), coalesced
    /// into multi-frame wire packets per peer, and covered by a single
    /// group commit. Returns the assigned message ids in order.
    ///
    /// # Errors
    ///
    /// As for [`Mom::send`]; the first failing submission aborts the batch
    /// (earlier messages remain queued and are still delivered).
    pub fn send_batch(
        &self,
        from: AgentId,
        batch: Vec<(AgentId, Notification)>,
        opts: impl Into<SendOptions>,
    ) -> Result<Vec<MessageId>> {
        let opts = opts.into();
        self.call(from.server(), |reply| Command::SendBatch {
            from,
            batch,
            opts,
            reply,
        })?
    }

    /// Crashes `server`: its in-memory state is discarded and incoming
    /// frames are dropped until [`Mom::recover`]. The stable store
    /// survives.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] / [`Error::Closed`].
    pub fn crash(&self, server: ServerId) -> Result<()> {
        self.pool.send_cmd(server.as_usize(), Command::Crash)
    }

    /// Recovers `server` from its stable store, registering fresh agent
    /// instances (state is restored from their snapshots).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] / [`Error::Closed`], or the
    /// recovery error encountered by the server.
    pub fn recover(&self, server: ServerId, agents: Vec<(u32, Box<dyn Agent>)>) -> Result<()> {
        self.call(server, |reply| Command::Recover { agents, reply })?
    }

    /// Marks `subscriber` reachable on its home server's relay: the
    /// accumulated backlog redelivers in causal order until acknowledged.
    /// Requires the bus to have been built with [`MomBuilder::relay`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] / [`Error::Closed`] (including
    /// when no relay is enabled on the bus).
    pub fn relay_connect(&self, subscriber: AgentId) -> Result<()> {
        self.relay_set_connected(subscriber, true)
    }

    /// Marks `subscriber` unreachable on its home server's relay:
    /// publications accumulate in its durable queue (bounded by
    /// `max_depth` and the TTL) instead of being dispatched.
    ///
    /// # Errors
    ///
    /// As for [`Mom::relay_connect`].
    pub fn relay_disconnect(&self, subscriber: AgentId) -> Result<()> {
        self.relay_set_connected(subscriber, false)
    }

    fn relay_set_connected(&self, subscriber: AgentId, connected: bool) -> Result<()> {
        self.call(subscriber.server(), |reply| Command::RelayConnect {
            subscriber,
            connected,
            reply,
        })?
    }

    /// Cumulative statistics of one server.
    ///
    /// With metrics enabled (the default) this is a **view over the
    /// metrics registry**: the same counters that power [`Mom::metrics`],
    /// summed for the server's `server="<id>"` label. With metrics
    /// disabled it falls back to asking the server for its drained
    /// [`StepStats`] accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] / [`Error::Closed`].
    pub fn stats(&self, server: ServerId) -> Result<StepStats> {
        if server.as_usize() >= self.pool.server_count() {
            return Err(Error::UnknownServer(server));
        }
        if let Some(registry) = &self.boot.registry {
            let snap = registry.snapshot();
            let id = server.as_u16().to_string();
            let labels = [("server", id.as_str())];
            return Ok(StepStats {
                cell_ops: snap.sum_counter_labelled("aaa_channel_cell_ops_total", &labels),
                stamp_bytes: snap.sum_counter_labelled("aaa_channel_stamp_bytes_total", &labels),
                disk_bytes: snap.sum_counter_labelled("aaa_server_disk_bytes_total", &labels),
                delivered: snap.sum_counter_labelled("aaa_channel_delivered_total", &labels),
                transmitted: snap.sum_counter_labelled("aaa_channel_transmitted_total", &labels),
                forwarded: snap.sum_counter_labelled("aaa_channel_forwarded_total", &labels),
                reactions: snap.sum_counter_labelled("aaa_engine_reactions_total", &labels),
            });
        }
        self.call(server, |reply| Command::Stats { reply })
    }

    /// Snapshot of every metric of the bus, in deterministic order.
    ///
    /// Returns an empty snapshot if metrics were disabled with
    /// [`RuntimeConfig::metrics`]. The per-domain causal-cost counters
    /// (`aaa_channel_cell_ops_total`, `aaa_channel_stamp_bytes_total`) are
    /// the series plotted in Figures 7/8 of the paper.
    ///
    /// # Examples
    ///
    /// ```
    /// use aaa_base::{AgentId, ServerId};
    /// use aaa_mom::{EchoAgent, MomBuilder, Notification};
    /// use aaa_topology::TopologySpec;
    /// use std::time::Duration;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mom = MomBuilder::new(TopologySpec::single_domain(2)).build()?;
    /// let echo = mom.register_agent(ServerId::new(1), 1, Box::new(EchoAgent))?;
    /// mom.send(AgentId::new(ServerId::new(0), 9), echo, Notification::signal("hi"))?;
    /// assert!(mom.quiesce(Duration::from_secs(5)));
    ///
    /// let snap = mom.metrics();
    /// // Every message delivered to an engine shows up exactly once.
    /// assert_eq!(snap.sum_counter("aaa_channel_delivered_total"), 2);
    /// // The snapshot renders as Prometheus text…
    /// assert!(snap.render_prometheus().contains("aaa_channel_delivered_total"));
    /// mom.shutdown();
    /// # Ok(())
    /// # }
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        self.boot
            .registry
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }

    /// The metrics registry, if metrics are enabled (to share with other
    /// components or export through a custom pipeline).
    pub fn registry(&self) -> Option<&Registry> {
        self.boot.registry.as_ref()
    }

    /// Serves the metrics registry over HTTP at `addr` (for example
    /// `"127.0.0.1:9464"`, or port `0` to pick a free port): `GET /metrics`
    /// returns Prometheus text, `GET /metrics.json` JSON. The exporter
    /// stops when the returned handle is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if metrics are disabled or the address
    /// cannot be bound.
    pub fn serve_metrics(&self, addr: &str) -> Result<MetricsServer> {
        let registry = self
            .boot
            .registry
            .clone()
            .ok_or_else(|| Error::Config("metrics are disabled on this bus".into()))?;
        aaa_obs::serve(registry, addr).map_err(|e| Error::Config(format!("metrics exporter: {e}")))
    }

    /// Number of end-to-end messages currently in flight (accepted but not
    /// yet delivered to their destination engine).
    pub fn in_flight(&self) -> i64 {
        // Relaxed: a monitoring counter, updated Relaxed at the
        // fetch_add/fetch_sub sites; quiesce() polls it in a loop, so
        // eventual visibility is all it needs.
        self.boot.in_flight.load(Ordering::Relaxed)
    }

    /// Waits until every server reports itself idle twice in a row, or the
    /// timeout expires. Returns `true` on quiescence.
    ///
    /// Crashed servers report idle; combine with [`Mom::recover`] before
    /// quiescing if deliveries must complete.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut consecutive = 0;
        while Instant::now() < deadline {
            // A server that is shut down counts as idle.
            let all_idle = self.boot.topology.servers().all(|server| {
                self.call(server, |reply| Command::Probe { reply })
                    .unwrap_or(true)
            });
            if all_idle {
                consecutive += 1;
                if consecutive >= 2 {
                    return true;
                }
            } else {
                consecutive = 0;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// Snapshot of the recorded causality trace.
    ///
    /// # Errors
    ///
    /// Propagates trace validation errors (which would indicate a recorder
    /// misuse bug).
    pub fn trace(&self) -> Result<aaa_trace::Trace> {
        self.boot.recorder.snapshot()
    }

    /// The stable store of one server (to inspect persistence traffic).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if the server does not exist.
    pub fn store(&self, server: ServerId) -> Result<Arc<dyn StableStore>> {
        self.boot
            .stores
            .get(server.as_usize())
            .cloned()
            .ok_or(Error::UnknownServer(server))
    }

    /// Gracefully stops the bus with the default timeout: every server
    /// takes a final group commit before its worker is reaped. Equivalent to
    /// `shutdown_within(...)` with a 5 s budget, discarding the verdict.
    pub fn shutdown(self) {
        self.finish(Instant::now() + DEFAULT_SHUTDOWN_TIMEOUT);
    }

    /// Drains and stops the bus within `timeout`: waits for in-flight
    /// traffic to quiesce, then has every server take a final group commit
    /// before the workers are joined. Returns `true` if the bus fully
    /// drained and every server finished its final commit in time; `false`
    /// means the timeout cut the drain short (workers are still reaped).
    pub fn shutdown_within(self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let drained = self.quiesce(timeout);
        let committed = self.finish(deadline);
        drained && committed
    }

    /// Sends every server its shutdown command (final group commit),
    /// waits until `deadline` for the slots to finish and reaps
    /// the workers. Returns `false` if reaping timed out before every
    /// server took its final commit.
    fn finish(self, deadline: Instant) -> bool {
        for i in 0..self.pool.server_count() {
            // A slot that already processed a shutdown refuses commands;
            // the rest must still be reaped.
            // audit:allow(error-swallow)
            let _ = self.pool.send_cmd(i, Command::Shutdown);
        }
        self.pool.stop(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::EchoAgent;
    use std::time::Duration;

    fn sid(i: u16) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    fn builder_rejects_invalid_topologies() {
        let sparse = TopologySpec::from_domains(vec![vec![0, 2]]);
        assert!(MomBuilder::new(sparse).build().is_err());
        let cyclic = TopologySpec::from_domains(vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        assert!(matches!(
            MomBuilder::new(cyclic).build(),
            Err(Error::CyclicDomainGraph { .. })
        ));
    }

    #[test]
    fn builder_rejects_wrong_store_count() {
        let stores: Vec<Arc<dyn StableStore>> = vec![Arc::new(MemoryStore::new())];
        let err = MomBuilder::new(TopologySpec::single_domain(3))
            .stores(stores)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn unknown_server_operations_error() {
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .build()
            .unwrap();
        assert!(matches!(
            mom.register_agent(sid(9), 1, Box::new(EchoAgent)),
            Err(Error::UnknownServer(_))
        ));
        assert!(matches!(mom.crash(sid(9)), Err(Error::UnknownServer(_))));
        assert!(matches!(mom.stats(sid(9)), Err(Error::UnknownServer(_))));
        assert!(matches!(mom.store(sid(9)), Err(Error::UnknownServer(_))));
        mom.shutdown();
    }

    #[test]
    fn stats_and_in_flight_settle_to_zero() {
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .build()
            .unwrap();
        mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();
        mom.send(
            AgentId::new(sid(0), 9),
            AgentId::new(sid(1), 1),
            Notification::signal("x"),
        )
        .unwrap();
        assert!(mom.quiesce(Duration::from_secs(5)));
        assert_eq!(mom.in_flight(), 0);
        let s0 = mom.stats(sid(0)).unwrap();
        let s1 = mom.stats(sid(1)).unwrap();
        assert_eq!(s0.transmitted, 1);
        assert_eq!(s1.transmitted, 1); // the echo
        assert_eq!(s1.reactions, 1);
        assert!(format!("{mom:?}").contains("Mom"));
        mom.shutdown();
    }

    #[test]
    fn quiesce_on_idle_bus_is_immediate() {
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .build()
            .unwrap();
        assert!(mom.quiesce(Duration::from_secs(1)));
        assert_eq!(mom.topology().server_count(), 2);
        mom.shutdown();
    }

    #[test]
    fn trace_can_be_disabled() {
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .runtime(RuntimeConfig::threaded().record_trace(false))
            .build()
            .unwrap();
        mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();
        mom.send(
            AgentId::new(sid(0), 9),
            AgentId::new(sid(1), 1),
            Notification::signal("x"),
        )
        .unwrap();
        assert!(mom.quiesce(Duration::from_secs(5)));
        assert_eq!(mom.trace().unwrap().message_count(), 0);
        mom.shutdown();
    }

    #[test]
    fn send_batch_is_one_transaction_with_flush() {
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .build()
            .unwrap();
        mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();
        let batch: Vec<_> = (0..10)
            .map(|i| {
                (
                    AgentId::new(sid(1), 1),
                    Notification::new("b", vec![i as u8]),
                )
            })
            .collect();
        let ids = mom
            .send_batch(AgentId::new(sid(0), 9), batch, SendOptions::new())
            .unwrap();
        assert_eq!(ids.len(), 10);
        assert!(mom.quiesce(Duration::from_secs(5)));
        assert_eq!(mom.in_flight(), 0);
        assert_eq!(mom.stats(sid(1)).unwrap().reactions, 10);
        assert!(mom.trace().unwrap().check_causality().is_ok());
        // The batch metrics observed coalesced flushes.
        let snap = mom.metrics();
        assert!(snap.sum_counter("aaa_link_flushes_total") > 0);
        mom.shutdown();
    }

    #[test]
    fn recover_running_server_is_allowed_and_harmless() {
        // Recovering a server that never crashed resets its volatile state
        // from the (empty) store; without persistence this is a fresh core.
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .build()
            .unwrap();
        mom.recover(sid(1), vec![(1, Box::new(EchoAgent) as Box<dyn Agent>)])
            .unwrap();
        mom.send(
            AgentId::new(sid(0), 9),
            AgentId::new(sid(1), 1),
            Notification::signal("x"),
        )
        .unwrap();
        assert!(mom.quiesce(Duration::from_secs(5)));
        assert_eq!(mom.stats(sid(1)).unwrap().reactions, 1);
        mom.shutdown();
    }

    #[test]
    fn evented_bus_delivers_and_quiesces() {
        let mom = MomBuilder::new(TopologySpec::bus(2, 2))
            .runtime(RuntimeConfig::evented(2))
            .build()
            .unwrap();
        let n = mom.topology().server_count();
        for s in 1..n {
            mom.register_agent(sid(s as u16), 1, Box::new(EchoAgent))
                .unwrap();
        }
        for s in 1..n {
            mom.send(
                AgentId::new(sid(0), 9),
                AgentId::new(sid(s as u16), 1),
                Notification::signal("ping"),
            )
            .unwrap();
        }
        assert!(mom.quiesce(Duration::from_secs(10)));
        assert_eq!(mom.in_flight(), 0);
        let trace = mom.trace().unwrap();
        assert!(trace.check_causality().is_ok());
        assert!(mom.shutdown_within(Duration::from_secs(5)));
    }

    #[test]
    fn evented_crash_recover_round_trip() {
        let mom = MomBuilder::new(TopologySpec::single_domain(3))
            .runtime(RuntimeConfig::evented(2).persist(true))
            .build()
            .unwrap();
        mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();
        mom.send(
            AgentId::new(sid(0), 9),
            AgentId::new(sid(1), 1),
            Notification::signal("a"),
        )
        .unwrap();
        assert!(mom.quiesce(Duration::from_secs(10)));
        mom.crash(sid(1)).unwrap();
        // The origin (server 0) is alive, so this send is accepted; the
        // frame is retransmitted until server 1 recovers, then delivered
        // exactly once.
        mom.send(
            AgentId::new(sid(0), 9),
            AgentId::new(sid(1), 1),
            Notification::signal("b"),
        )
        .unwrap();
        mom.recover(sid(1), vec![(1, Box::new(EchoAgent) as Box<dyn Agent>)])
            .unwrap();
        assert!(mom.quiesce(Duration::from_secs(10)));
        assert_eq!(mom.stats(sid(1)).unwrap().reactions, 2);
        assert!(mom.shutdown_within(Duration::from_secs(5)));
    }

    #[test]
    fn evented_sized_from_parallelism_when_zero() {
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .runtime(RuntimeConfig::evented(0))
            .build()
            .unwrap();
        mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();
        mom.send(
            AgentId::new(sid(0), 9),
            AgentId::new(sid(1), 1),
            Notification::signal("x"),
        )
        .unwrap();
        assert!(mom.quiesce(Duration::from_secs(10)));
        mom.shutdown();
    }

    #[test]
    fn shutdown_within_drains_in_flight_traffic() {
        // A message still crossing the bus when shutdown starts must reach
        // its destination before shutdown returns true.
        let mom = MomBuilder::new(TopologySpec::single_domain(2))
            .build()
            .unwrap();
        mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();
        mom.send(
            AgentId::new(sid(0), 9),
            AgentId::new(sid(1), 1),
            Notification::signal("in flight"),
        )
        .unwrap();
        let registry = mom.registry().cloned();
        assert!(mom.shutdown_within(Duration::from_secs(10)));
        let snap = registry.unwrap().snapshot();
        assert_eq!(snap.sum_counter("aaa_engine_reactions_total"), 1);
    }
}
