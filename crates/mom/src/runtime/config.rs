//! The typed configuration trio behind [`MomBuilder`](super::MomBuilder).
//!
//! Historically the builder accreted thirteen setters with no structure;
//! this module replaces them with three value types, grouped by the layer
//! they configure:
//!
//! - [`RuntimeConfig`] — *how servers execute*: the shard pool's worker
//!   count (one per server or a fixed few), persistence, trace
//!   recording, metrics, backpressure;
//! - [`NetConfig`] — *how bytes move*: the [`TransportKind`], the TCP
//!   connect timeout, the link retransmission timeout;
//! - [`ClockConfig`] — *how causality is stamped*: the
//!   [`StampMode`].
//!
//! Each type is plain data with chainable `#[must_use]` updates, so a
//! config can be built inline, stored in test fixtures, or derived from
//! another:
//!
//! ```
//! use aaa_mom::{ClockConfig, MomBuilder, NetConfig, RuntimeConfig, StampMode};
//! use aaa_topology::TopologySpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mom = MomBuilder::new(TopologySpec::bus(2, 3))
//!     .runtime(RuntimeConfig::evented(4).persist(true))
//!     .net(NetConfig::memory().rto(aaa_base::VDuration::from_millis(50)))
//!     .clock(ClockConfig::mode(StampMode::Full))
//!     .build()?;
//! mom.shutdown();
//! # Ok(())
//! # }
//! ```

use std::time::Duration;

use aaa_base::VDuration;
use aaa_clocks::StampMode;

use crate::server::ServerConfig;

/// Execution-layer configuration: pool size, durability, observability.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Shard workers stepping the servers. `0` sizes the pool from
    /// available parallelism; any count is clamped to `[1, servers]` at
    /// build time, so the default `usize::MAX` (what
    /// [`RuntimeConfig::threaded`] sets) means one worker per server.
    pub workers: usize,
    /// Transactional persistence of every server (default: off).
    /// Required for crash/recover to be meaningful.
    pub persist: bool,
    /// Outstanding-message cap before client sends fail with
    /// backpressure (default: 65 536). See
    /// [`ServerConfig::max_outstanding`].
    pub max_outstanding: usize,
    /// Causality-trace recording (default: on).
    pub record_trace: bool,
    /// Accept a cyclic domain graph (counterexample experiments; the
    /// theorem's guarantee is void). Default: off.
    pub allow_cycles: bool,
    /// Metrics collection (default: on).
    pub metrics: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::threaded()
    }
}

impl RuntimeConfig {
    /// One shard worker per server with the default knobs: a server
    /// whose step blocks (an `fdatasync` in its store) never holds up
    /// another server's step.
    #[must_use]
    pub fn threaded() -> RuntimeConfig {
        RuntimeConfig {
            workers: usize::MAX,
            persist: false,
            max_outstanding: 65_536,
            record_trace: true,
            allow_cycles: false,
            metrics: true,
        }
    }

    /// Every server multiplexed onto `shards` workers (`0` = size from
    /// available parallelism), default knobs otherwise.
    #[must_use]
    pub fn evented(shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers: shards,
            ..RuntimeConfig::threaded()
        }
    }

    /// The worker count a bus of `servers` servers runs with.
    pub(crate) fn resolve_workers(&self, servers: usize) -> usize {
        let asked = match self.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            k => k,
        };
        asked.clamp(1, servers.max(1))
    }

    /// Enables or disables transactional persistence.
    #[must_use]
    pub fn persist(mut self, on: bool) -> RuntimeConfig {
        self.persist = on;
        self
    }

    /// Caps outstanding (accepted, undelivered) messages per server.
    #[must_use]
    pub fn max_outstanding(mut self, cap: usize) -> RuntimeConfig {
        self.max_outstanding = cap;
        self
    }

    /// Enables or disables causality-trace recording.
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> RuntimeConfig {
        self.record_trace = on;
        self
    }

    /// Accepts cyclic domain graphs (voids the theorem's guarantee).
    #[must_use]
    pub fn allow_cycles(mut self, on: bool) -> RuntimeConfig {
        self.allow_cycles = on;
        self
    }

    /// Enables or disables metrics collection.
    #[must_use]
    pub fn metrics(mut self, on: bool) -> RuntimeConfig {
        self.metrics = on;
        self
    }
}

/// Which byte substrate carries the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process FIFO channels (default; fastest, test-friendly).
    Memory,
    /// Localhost TCP multiplexed over one socket per shard worker:
    /// many logical links per socket, per-link FIFO preserved.
    MuxTcp,
}

/// Network-layer configuration: substrate, connect timeout, retransmission.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The byte substrate (default: [`TransportKind::Memory`]).
    pub transport: TransportKind,
    /// Outbound connect timeout of the TCP substrate (default: 2 s).
    pub connect_timeout: Duration,
    /// Link retransmission timeout (default: 200 ms).
    pub rto: VDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::memory()
    }
}

impl NetConfig {
    /// The in-memory mesh with the default timeouts.
    #[must_use]
    pub fn memory() -> NetConfig {
        NetConfig {
            transport: TransportKind::Memory,
            connect_timeout: aaa_net::MuxTcpNetwork::DEFAULT_CONNECT_TIMEOUT,
            rto: ServerConfig::default().rto,
        }
    }

    /// The shard-multiplexed localhost TCP mesh.
    #[must_use]
    pub fn mux_tcp() -> NetConfig {
        NetConfig {
            transport: TransportKind::MuxTcp,
            ..NetConfig::memory()
        }
    }

    /// Replaces the transport kind.
    #[must_use]
    pub fn transport(mut self, kind: TransportKind) -> NetConfig {
        self.transport = kind;
        self
    }

    /// Sets the TCP outbound connect timeout.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> NetConfig {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the link retransmission timeout.
    #[must_use]
    pub fn rto(mut self, rto: VDuration) -> NetConfig {
        self.rto = rto;
        self
    }
}

/// Clock-layer configuration: how causality stamps are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockConfig {
    /// The stamp encoding mode (default: [`StampMode::Updates`]).
    pub stamp_mode: StampMode,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            stamp_mode: StampMode::Updates,
        }
    }
}

impl ClockConfig {
    /// A clock config with the given stamp mode.
    #[must_use]
    pub fn mode(stamp_mode: StampMode) -> ClockConfig {
        ClockConfig { stamp_mode }
    }
}

/// Folds the trio into the per-server sans-IO config.
pub(crate) fn server_config(
    runtime: &RuntimeConfig,
    net: &NetConfig,
    clock: &ClockConfig,
) -> ServerConfig {
    ServerConfig {
        stamp_mode: clock.stamp_mode,
        rto: net.rto,
        persist: runtime.persist,
        max_outstanding: runtime.max_outstanding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_legacy_builder() {
        let rt = RuntimeConfig::default();
        assert_eq!(rt.workers, RuntimeConfig::threaded().workers);
        assert!(!rt.persist);
        assert!(rt.record_trace);
        assert!(rt.metrics);
        assert_eq!(rt.max_outstanding, 65_536);
        let net = NetConfig::default();
        assert_eq!(net.transport, TransportKind::Memory);
        assert_eq!(net.rto, ServerConfig::default().rto);
        let clock = ClockConfig::default();
        assert_eq!(clock.stamp_mode, StampMode::Updates);
    }

    #[test]
    fn worker_count_resolves_against_the_server_count() {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        for servers in [1, 2, 5, 64] {
            assert_eq!(RuntimeConfig::threaded().resolve_workers(servers), servers);
            assert_eq!(
                RuntimeConfig::evented(0).resolve_workers(servers),
                cores.min(servers)
            );
            assert_eq!(
                RuntimeConfig::evented(3).resolve_workers(servers),
                3.min(servers)
            );
        }
    }

    #[test]
    fn chainers_update_in_place() {
        let rt = RuntimeConfig::evented(0)
            .persist(true)
            .record_trace(false)
            .metrics(false)
            .max_outstanding(7)
            .allow_cycles(true);
        assert_eq!(rt.workers, 0);
        let net = NetConfig::mux_tcp()
            .connect_timeout(Duration::from_millis(100))
            .rto(VDuration::from_millis(10));
        assert_eq!(net.transport, TransportKind::MuxTcp);
        let sc = server_config(&rt, &net, &ClockConfig::mode(StampMode::Full));
        assert!(sc.persist);
        assert_eq!(sc.max_outstanding, 7);
        assert_eq!(sc.rto, VDuration::from_millis(10));
        assert_eq!(sc.stamp_mode, StampMode::Full);
    }
}
