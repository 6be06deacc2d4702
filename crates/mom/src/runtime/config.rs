//! The typed configuration trio behind [`MomBuilder`](super::MomBuilder).
//!
//! Historically the builder accreted thirteen setters with no structure;
//! this module replaces them with three value types, grouped by the layer
//! they configure:
//!
//! - [`RuntimeConfig`] — *how servers execute*: the [`RuntimeKind`]
//!   (thread-per-server or sharded event loops), persistence, trace
//!   recording, metrics, backpressure;
//! - [`NetConfig`] — *how bytes move*: the [`TransportKind`], link
//!   batching policy, retransmission timeout;
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
//!     .clock(ClockConfig::mode(StampMode::Hybrid))
//!     .build()?;
//! mom.shutdown();
//! # Ok(())
//! # }
//! ```

use std::time::Duration;

use aaa_base::VDuration;
use aaa_clocks::StampMode;
use aaa_net::BatchPolicy;

use crate::server::ServerConfig;

/// How the bus executes its servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// One OS thread per server — the paper's one-JVM-per-server shape,
    /// faithful but bounded to a few hundred servers per process.
    Threaded,
    /// N event-loop shards over a fixed worker pool, multiplexing every
    /// server onto them with work-stealing — the C10K runtime.
    Evented {
        /// Number of shard workers; `0` sizes the pool from available
        /// parallelism.
        shards: usize,
    },
}

impl RuntimeKind {
    /// Resolves the worker count for this kind (`None` for threaded).
    #[must_use]
    pub fn worker_count(self) -> Option<usize> {
        match self {
            RuntimeKind::Threaded => None,
            RuntimeKind::Evented { shards } => Some(if shards == 0 {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(4)
            } else {
                shards
            }),
        }
    }
}

/// Execution-layer configuration: runtime kind, durability, observability.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The execution substrate (default: [`RuntimeKind::Threaded`]).
    pub kind: RuntimeKind,
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
    /// Thread-per-server execution with the default knobs.
    #[must_use]
    pub fn threaded() -> RuntimeConfig {
        RuntimeConfig {
            kind: RuntimeKind::Threaded,
            persist: false,
            max_outstanding: 65_536,
            record_trace: true,
            allow_cycles: false,
            metrics: true,
        }
    }

    /// Sharded event-loop execution over `shards` workers (`0` = size
    /// from available parallelism), default knobs otherwise.
    #[must_use]
    pub fn evented(shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            kind: RuntimeKind::Evented { shards },
            ..RuntimeConfig::threaded()
        }
    }

    /// Replaces the runtime kind.
    #[must_use]
    pub fn kind(mut self, kind: RuntimeKind) -> RuntimeConfig {
        self.kind = kind;
        self
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
    /// Localhost TCP multiplexed over one socket per event-loop shard:
    /// many logical links per socket, per-link FIFO preserved. The
    /// threaded runtime uses a single shard.
    MuxTcp,
}

/// Network-layer configuration: substrate, batching, retransmission.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The byte substrate (default: [`TransportKind::Memory`]).
    pub transport: TransportKind,
    /// Outbound connect timeout of the TCP substrate (default: 2 s).
    pub connect_timeout: Duration,
    /// Group-commit batching policy for outgoing link frames.
    ///
    /// Batching is **on by default** with [`BatchPolicy::default`] — up
    /// to 32 frames or 256 KiB per wire packet, `max_delay` zero (frames
    /// coalesce only *within* a step). Pass [`BatchPolicy::disabled`]
    /// for one-packet-per-message, or a non-zero `max_delay` to hold
    /// partial batches across steps.
    pub batch: BatchPolicy,
    /// Link retransmission timeout (default: 200 ms).
    pub rto: VDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::memory()
    }
}

impl NetConfig {
    /// The in-memory mesh with default batching and RTO.
    #[must_use]
    pub fn memory() -> NetConfig {
        NetConfig {
            transport: TransportKind::Memory,
            connect_timeout: aaa_net::MuxTcpNetwork::DEFAULT_CONNECT_TIMEOUT,
            batch: BatchPolicy::default(),
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

    /// Sets the link batching policy.
    #[must_use]
    pub fn batch(mut self, policy: BatchPolicy) -> NetConfig {
        self.batch = policy;
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
        batch: net.batch,
        max_outstanding: runtime.max_outstanding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_legacy_builder() {
        let rt = RuntimeConfig::default();
        assert_eq!(rt.kind, RuntimeKind::Threaded);
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
    fn chainers_update_in_place() {
        let rt = RuntimeConfig::evented(0)
            .persist(true)
            .record_trace(false)
            .metrics(false)
            .max_outstanding(7)
            .allow_cycles(true);
        assert!(matches!(rt.kind, RuntimeKind::Evented { shards: 0 }));
        assert!(rt.kind.worker_count().unwrap() >= 1);
        assert_eq!(RuntimeKind::Evented { shards: 3 }.worker_count(), Some(3));
        assert_eq!(RuntimeKind::Threaded.worker_count(), None);
        let net = NetConfig::mux_tcp()
            .connect_timeout(Duration::from_millis(100))
            .rto(VDuration::from_millis(10));
        assert_eq!(net.transport, TransportKind::MuxTcp);
        let sc = server_config(&rt, &net, &ClockConfig::mode(StampMode::Hybrid));
        assert!(sc.persist);
        assert_eq!(sc.max_outstanding, 7);
        assert_eq!(sc.rto, VDuration::from_millis(10));
        assert_eq!(sc.stamp_mode, StampMode::Hybrid);
    }
}
