#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Deterministic fault injection for the AAA MOM.
//!
//! The paper's causality argument (§4.3) assumes reliable FIFO channels
//! and live causal routers; the original middleware earned that
//! assumption with persistence and retransmission. This crate is the
//! adversary that keeps the reproduction honest: a seeded, fully
//! deterministic description of network misbehaviour — loss,
//! duplication, delay/reorder, partition windows, crash schedules —
//! applied identically in the discrete-event simulator and in the
//! live runtime.
//!
//! - [`FaultPlan`] — the seeded description: per-link
//!   [`LinkFaults`] probabilities, timed [`Partition`] windows and a
//!   [`CrashEvent`] schedule;
//! - [`FaultInjector`] — the decision engine: one RNG draw per datagram,
//!   so a seed fully determines the fault pattern;
//! - [`FaultTransport`] — a [`Transport`](aaa_net::Transport) wrapper
//!   that chaos-tests the live runtime over any inner transport,
//!   steered at runtime through a [`ChaosHandle`];
//! - the simulator consumes the same plan via
//!   `Simulation::with_fault_plan` (the historical drop-only
//!   `FaultConfig` remains as a thin alias).
//!
//! Determinism contract: with a fixed plan (seed included) and a fixed
//! offer order, every decision, statistic and partition verdict is
//! bit-identical across runs — which is what lets `tests/chaos.rs`
//! print a failing seed and reproduce it in one line.

pub mod plan;
pub mod transport;

pub use plan::{
    ChurnEvent, CrashEvent, FaultAction, FaultInjector, FaultPlan, FaultStats, LinkFaults,
    Partition, DEFAULT_DELAY_TICKS,
};
pub use transport::{ChaosHandle, FaultTransport};
