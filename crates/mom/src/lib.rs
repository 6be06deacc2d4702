#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # The AAA message-oriented middleware
//!
//! A from-scratch reproduction of the AAA (Agent Anytime Anywhere) MOM of
//! *Preserving Causality in a Scalable Message-Oriented Middleware*
//! (Laumay, Bruneton, Bellissard, Krakowiak — MIDDLEWARE 2001), with the
//! paper's contribution at its heart: **causal message delivery scaled
//! through domains of causality**.
//!
//! Each agent server (§3, Figure 1) pairs an [`EngineCore`] — persistent
//! agents reacting atomically to notifications — with a
//! [`ChannelCore`](channel::ChannelCore) — reliable delivery in causal
//! order, enforced with one matrix clock *per domain of causality* rather
//! than one global `n × n` clock. Servers belonging to several domains are
//! causal router-servers and forward messages between domains in delivery
//! order; as long as the domain graph is acyclic, the paper's theorem
//! guarantees global causal order (§4).
//!
//! The crate is layered:
//!
//! - sans-IO cores: [`ChannelCore`](channel::ChannelCore),
//!   [`EngineCore`], [`ServerCore`] — deterministic
//!   state machines, also driven by the `aaa-sim` discrete-event simulator;
//! - the runtime: [`MomBuilder`] / [`Mom`] — one pool of shard workers
//!   stepping every server, sized one worker per server
//!   ([`RuntimeConfig::threaded`], the default) or a fixed few
//!   ([`RuntimeConfig::evented`]), over a pluggable byte transport
//!   (in-memory or shard-multiplexed TCP; see [`NetConfig`]).
//!
//! # Example: causal ping-pong across domains
//!
//! ```
//! use aaa_base::{AgentId, ServerId};
//! use aaa_mom::{EchoAgent, MomBuilder, Notification};
//! use aaa_topology::TopologySpec;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two domains bridged by the router server 0.
//! let mom = MomBuilder::new(TopologySpec::bus(2, 2)).build()?;
//! let echo = mom.register_agent(ServerId::new(3), 1, Box::new(EchoAgent))?;
//! let client = AgentId::new(ServerId::new(1), 7);
//! mom.send(client, echo, Notification::signal("ping"))?;
//! assert!(mom.quiesce(Duration::from_secs(5)));
//! // The recorded trace is causally consistent.
//! assert!(mom.trace()?.check_causality().is_ok());
//! mom.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod agent;
pub mod channel;
pub mod domain_item;
pub mod engine;
pub mod message;
mod metrics;
mod persist;
pub mod pubsub;
pub mod relay;
pub mod runtime;
pub mod server;

pub use aaa_clocks::StampMode;
pub use aaa_net::Transport;
pub use agent::{Agent, EchoAgent, FnAgent, ReactionContext};
pub use domain_item::DomainItem;
pub use engine::EngineCore;
pub use message::{AgentMessage, DeliveryPolicy, Notification, SendOptions};
pub use relay::{relay_agent, RelayConfig};
pub use runtime::{ClockConfig, Mom, MomBuilder, NetConfig, RuntimeConfig, TransportKind};
pub use server::{ServerConfig, ServerCore, StepStats, Transmission};
