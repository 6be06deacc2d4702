//! The server shell the shard pool steps.
//!
//! A [`ServerDriver`] owns everything one server needs besides the
//! worker that runs it: the sans-IO [`ServerCore`], the bus-wide
//! [`Boot`] state it is wired to (store, trace recorder, relay
//! configuration), its metrics attachments, cumulative statistics and
//! the probe throttle for down peers. The pool drives three methods —
//! [`ServerDriver::handle_command`] for client commands,
//! [`ServerDriver::on_batch`] for drained datagrams and
//! [`ServerDriver::tick`] for timers.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aaa_base::{Absorb, Error, Result, ServerId, VTime};
use aaa_net::PeerState;
use aaa_obs::{LatencyTracker, Meter};

use super::{respond, Boot, Command, Transport};
use crate::server::{ServerCore, StepStats, Transmission};

/// While a peer is [`PeerState::Down`], at most one transmission run per
/// this interval goes out to it as a liveness probe; everything else is
/// suppressed (the link layer re-offers it after recovery) so the step
/// loop does not hot-spin retransmits into a dead socket.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

/// One server's state and step logic.
pub(crate) struct ServerDriver {
    boot: Arc<Boot>,
    me: ServerId,
    obs: Option<(Meter, LatencyTracker)>,
    core: Option<ServerCore>,
    cumulative: StepStats,
    last_probe: HashMap<ServerId, Instant>,
}

impl ServerDriver {
    /// Builds the driver with a fresh core.
    ///
    /// # Errors
    ///
    /// Propagates core construction failures (topology/config mismatch).
    pub(crate) fn new(
        boot: Arc<Boot>,
        me: ServerId,
        obs: Option<(Meter, LatencyTracker)>,
    ) -> Result<ServerDriver> {
        let core = ServerCore::new(&boot.topology, me, boot.config, boot.store(me))?;
        let mut driver = ServerDriver {
            boot,
            me,
            obs,
            core: None,
            cumulative: StepStats::default(),
            last_probe: HashMap::new(),
        };
        // A fresh core has no recovered relay registry, so attaching it
        // produces nothing to transmit.
        driver.attach(core, VTime::ZERO)?;
        Ok(driver)
    }

    /// Wires a fresh or recovered core to the bus (trace recorder,
    /// in-flight counter, metrics, relay) and installs it. Enabling the
    /// relay reopens the durable queues named by a recovered registry;
    /// the returned transmissions redeliver their uncommitted window.
    fn attach(&mut self, mut core: ServerCore, now: VTime) -> Result<Vec<Transmission>> {
        if self.boot.record_trace {
            core.set_recorder(self.boot.recorder.clone());
        }
        core.set_in_flight(self.boot.in_flight.clone());
        if let Some((meter, tracker)) = &self.obs {
            core.attach_meter(meter);
            core.set_latency_tracker(tracker.clone());
        }
        let ts = match &self.boot.relay {
            Some(cfg) => core.enable_relay(cfg.clone(), now)?,
            None => Vec::new(),
        };
        self.core = Some(core);
        Ok(ts)
    }

    /// Hands outgoing transmissions to the transport, coalescing
    /// consecutive same-destination packets through the batch-native
    /// path and throttling traffic into Down peers to liveness probes.
    pub(crate) fn transmit(&mut self, endpoint: &dyn Transport, ts: Vec<Transmission>) {
        let mut i = 0;
        while i < ts.len() {
            let to = ts[i].to;
            let mut j = i + 1;
            while j < ts.len() && ts[j].to == to {
                j += 1;
            }
            if endpoint.peer_state(to) == PeerState::Down {
                let probe_due = self
                    .last_probe
                    .get(&to)
                    .is_none_or(|t| t.elapsed() >= PROBE_INTERVAL);
                if !probe_due {
                    i = j; // suppressed: the link layer re-offers later
                    continue;
                }
                self.last_probe.insert(to, Instant::now());
                // Fall through: this run doubles as the liveness probe.
            }
            if j - i == 1 {
                // Best-effort over a lossy transport: a failed wire write is
                // indistinguishable from packet loss, and the link layer's
                // retransmission machinery recovers either way.
                // audit:allow(error-swallow)
                let _ = endpoint.send(to, ts[i].bytes.clone());
            } else {
                let run: Vec<bytes::Bytes> = ts[i..j].iter().map(|t| t.bytes.clone()).collect();
                // Same as above: batch loss is recovered by retransmission.
                // audit:allow(error-swallow)
                let _ = endpoint.send_batch(to, &run);
            }
            i = j;
        }
    }

    /// Applies one client command. Returns `false` when the command was
    /// [`Command::Shutdown`] — the driver has already flushed pending
    /// batches and taken its final group commit; the caller should stop
    /// driving this server.
    pub(crate) fn handle_command(
        &mut self,
        endpoint: &dyn Transport,
        cmd: Command,
        now: VTime,
    ) -> bool {
        match cmd {
            Command::Register {
                local,
                agent,
                reply,
            } => {
                if let Some(core) = self.core.as_mut() {
                    core.register_agent(local, agent);
                }
                respond(&reply, ());
            }
            Command::Send {
                from,
                to,
                note,
                opts,
                reply,
            } => {
                let result = match self.core.as_mut() {
                    Some(core) => core.client_send_with(from, to, note, opts, now),
                    None => Err(Error::Closed("crashed server")),
                };
                let result = result.map(|(id, ts)| {
                    self.transmit(endpoint, ts);
                    id
                });
                self.take_stats();
                respond(&reply, result);
            }
            Command::SendBatch {
                from,
                batch,
                opts,
                reply,
            } => {
                let result = match self.core.as_mut() {
                    Some(core) => core.client_send_batch(from, batch, opts, now),
                    None => Err(Error::Closed("crashed server")),
                };
                let result = result.map(|(ids, ts)| {
                    self.transmit(endpoint, ts);
                    ids
                });
                self.take_stats();
                respond(&reply, result);
            }
            Command::Crash => {
                self.core = None;
            }
            Command::Recover { agents, reply } => {
                let boot = &self.boot;
                let result = ServerCore::recover(
                    &boot.topology,
                    self.me,
                    boot.config,
                    boot.store(self.me),
                    agents,
                    now,
                )
                .and_then(|core| self.attach(core, now))
                .map(|ts| self.transmit(endpoint, ts));
                respond(&reply, result);
            }
            Command::RelayConnect {
                subscriber,
                connected,
                reply,
            } => {
                let result = match self.core.as_mut() {
                    Some(core) => core.relay_set_connected(subscriber, connected, now),
                    None => Err(Error::Closed("crashed server")),
                };
                let result = result.map(|ts| self.transmit(endpoint, ts));
                self.take_stats();
                respond(&reply, result);
            }
            Command::Probe { reply } => {
                let idle = self.core.as_ref().map(|c| c.is_idle()).unwrap_or(true);
                respond(&reply, idle);
            }
            Command::Stats { reply } => {
                self.take_stats();
                respond(&reply, self.cumulative);
            }
            Command::Shutdown => {
                // Graceful teardown: checkpoint the drained state so
                // recovery restarts from here instead of replaying state
                // records.
                if let Some(core) = self.core.as_mut() {
                    // A failed final checkpoint must not abort teardown;
                    // what the last commit made durable still recovers.
                    // audit:allow(error-swallow)
                    let _ = core.checkpoint();
                }
                return false;
            }
        }
        true
    }

    /// Processes one drained batch of datagrams as a single transaction.
    pub(crate) fn on_batch(
        &mut self,
        endpoint: &dyn Transport,
        drained: Vec<(ServerId, bytes::Bytes)>,
        now: VTime,
    ) {
        if let Some(core) = self.core.as_mut() {
            // An `Err` is a storage failure that aborted the step before
            // its commit. The core has counted the drain as rejected and
            // acked none of it, so the peers retransmit it into a later
            // step; there is nothing to put on the wire for this one.
            if let Ok(ts) = core.on_datagram_batch(drained, now) {
                self.transmit(endpoint, ts);
            }
            self.take_stats();
        }
        // Crashed servers silently drop frames: the sender's
        // retransmission redelivers them after recovery.
    }

    /// Polls link timers (retransmissions, overdue batch flushes).
    pub(crate) fn tick(&mut self, endpoint: &dyn Transport, now: VTime) {
        if let Some(core) = self.core.as_mut() {
            let ts = core.on_tick(now);
            self.transmit(endpoint, ts);
        }
    }

    /// The earliest deadline (link retransmission or relay retry), if any
    /// — when the evented runtime must next wake this server without
    /// traffic.
    pub(crate) fn next_wakeup(&self) -> Option<VTime> {
        self.core.as_ref().and_then(ServerCore::next_deadline)
    }

    fn take_stats(&mut self) {
        if let Some(core) = self.core.as_mut() {
            self.cumulative.absorb(core.take_step_stats());
        }
    }
}
