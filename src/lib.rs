#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # AAA middleware — scalable causal ordering through domains of causality
//!
//! A from-scratch Rust reproduction of *Preserving Causality in a Scalable
//! Message-Oriented Middleware* (Laumay, Bruneton, Bellissard, Krakowiak —
//! MIDDLEWARE 2001).
//!
//! The crate is an umbrella that re-exports the workspace members:
//!
//! - [`base`] — identifiers, errors, virtual time;
//! - [`clocks`] — Lamport/vector/matrix clocks and the matrix-clock causal
//!   delivery protocol with the Appendix-A Updates optimization;
//! - [`topology`] — domains of causality, acyclicity checking, routing;
//! - [`trace`] — the paper's formal trace model (§4.2) and causality
//!   checkers;
//! - [`net`] — wire codec, the in-memory reliable link substrate, and the
//!   peer failure detector driving the self-healing runtime;
//! - [`chaos`] — deterministic fault injection: seeded fault plans and the
//!   [`chaos::FaultTransport`] wrapper that drops, duplicates, delays and
//!   partitions live traffic;
//! - [`obs`] — the observability layer: lock-free metrics registry,
//!   Prometheus/JSON exposition and the delivery-latency tracker;
//! - [`storage`] — stable storage and the recovery journal;
//! - [`mom`] — the message-oriented middleware itself: agent servers,
//!   engine, channel, causal router-servers;
//! - [`sim`] — the discrete-event simulator and calibrated cost model used
//!   to regenerate the paper's performance figures.
//!
//! # Quickstart
//!
//! ```
//! use aaa_middleware::mom::{ClockConfig, MomBuilder, RuntimeConfig, StampMode};
//! use aaa_middleware::topology::TopologySpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three servers in one domain of causality, stepped by two shard
//! // workers.
//! let spec = TopologySpec::single_domain(3);
//! let mut mom = MomBuilder::new(spec)
//!     .runtime(RuntimeConfig::evented(2))
//!     .clock(ClockConfig::mode(StampMode::Updates))
//!     .build()?;
//! # let _ = &mut mom;
//! # Ok(())
//! # }
//! ```

pub use aaa_base as base;
pub use aaa_chaos as chaos;
pub use aaa_clocks as clocks;
pub use aaa_mom as mom;
pub use aaa_net as net;
pub use aaa_obs as obs;
pub use aaa_sim as sim;
pub use aaa_storage as storage;
pub use aaa_topology as topology;
pub use aaa_trace as trace;

/// One-stop imports for building and observing an AAA bus.
///
/// Pulls together the handles a typical embedder needs — the builder and
/// bus, the agent traits, topology construction, the unified send options,
/// and the metrics/stats surface — so applications can start with
///
/// ```
/// use aaa_middleware::prelude::*;
///
/// # fn main() -> Result<()> { // `Result` here is the re-exported aaa_base::Result
/// let mut mom = MomBuilder::new(TopologySpec::single_domain(2)).build()?;
/// mom.register_agent(ServerId::new(0), 1, Box::new(EchoAgent))?;
/// let snapshot: MetricsSnapshot = mom.metrics();
/// assert_eq!(snapshot.sum_counter("aaa_channel_delivered_total"), 0);
/// mom.shutdown();
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use aaa_base::{
        Absorb, AgentId, DomainId, Error, MessageId, Result, ServerId, VDuration, VTime,
    };
    pub use aaa_chaos::{FaultPlan, FaultTransport};
    pub use aaa_clocks::{Batching, StampMode};
    pub use aaa_mom::{
        Agent, AgentMessage, ClockConfig, DeliveryPolicy, EchoAgent, FnAgent, Mom, MomBuilder,
        NetConfig, Notification, ReactionContext, RuntimeConfig, SendOptions, ServerConfig,
        StepStats, TransportKind,
    };
    pub use aaa_obs::{
        Counter, Gauge, Histogram, LatencyTracker, Meter, MetricsServer, MetricsSnapshot, Registry,
    };
    pub use aaa_sim::{CostModel, Simulation};
    pub use aaa_topology::{Topology, TopologySpec};
    pub use aaa_trace::TraceRecorder;
}
