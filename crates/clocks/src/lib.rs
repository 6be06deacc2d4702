#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Logical clocks and the matrix-clock causal-delivery protocol.
//!
//! This crate implements the clock substrate of the AAA middleware
//! reproduction:
//!
//! - [`LamportClock`] — scalar logical time (Lamport 1978), the weakest
//!   ordering device discussed in the paper's introduction;
//! - [`VectorClock`] — exact causal precedence between events, plus the
//!   Birman–Schiper–Stephenson causal *broadcast* protocol
//!   ([`vector::BssState`]) used as a related-work baseline;
//! - [`MatrixClock`] — the `n × n` "what A knows about what B knows" clock
//!   the paper builds on;
//! - [`CausalState`] — the per-domain causal delivery protocol
//!   (Raynal–Schiper–Toueg style) used by every AAA channel: one state
//!   machine whose [`StampMode`] selects what a send puts on the wire —
//!   [`StampMode::Full`] (the whole matrix; the dense reference) or
//!   [`StampMode::Updates`] (only modified entries — Appendix A of the
//!   paper).
//!
//! The two modes take identical delivery decisions and differ only in
//! stamp bytes and bookkeeping cost; [`protocol`] states the contract.
//!
//! # Example: two servers exchanging causally ordered messages
//!
//! ```
//! use aaa_base::DomainServerId;
//! use aaa_clocks::{Batching, CausalState, StampMode};
//!
//! let a = DomainServerId::new(0);
//! let b = DomainServerId::new(1);
//! let mut clock_a = CausalState::new(a, 2, StampMode::Full);
//! let mut clock_b = CausalState::new(b, 2, StampMode::Full);
//!
//! // a sends to b
//! let stamp = clock_a.stamp_send(b, Batching::Single);
//! let pending = clock_b.on_frame(a, stamp);
//! assert!(clock_b.can_deliver(a, &pending));
//! clock_b.deliver(a, &pending);
//! ```

pub mod lamport;
pub mod matrix;
pub mod protocol;
mod rows;
pub mod stamp;
pub mod vector;

pub use lamport::LamportClock;
pub use matrix::MatrixClock;
pub use protocol::{Batching, CausalState, EngineTranscript, PendingStamp};
pub use stamp::{Entries, PackedEntries, Stamp, StampMode, UpdateEntry};
pub use vector::VectorClock;
