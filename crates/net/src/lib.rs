#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Network substrate for the AAA MOM.
//!
//! The paper's AAA channel runs over TCP between JVMs and guarantees
//! *reliable, FIFO* message transfer with acknowledgements and transactions
//! (§3, §5). This crate rebuilds that substrate:
//!
//! - [`wire`] — a hand-rolled, byte-exact binary codec. Stamp sizes on the
//!   wire are a first-class measurement in the paper (the `O(n²)` problem
//!   and the Appendix-A remedy), so the codec is deliberately explicit
//!   about every byte. It encodes into buffers sized up front and decodes
//!   byte and string fields as views of the received buffer;
//! - [`frame`] — the wire frames: stamped middleware messages and link
//!   acknowledgements;
//! - [`link`] — sans-IO reliable FIFO link endpoints
//!   ([`LinkSender`]/[`LinkReceiver`]): per-link sequence numbers,
//!   cumulative acks, retransmission deadlines, duplicate suppression and
//!   reorder buffering. Both the live runtime and the discrete-event
//!   simulator drive these same state machines;
//! - [`memory`] — an in-process transport ([`MemoryNetwork`]) connecting a
//!   set of servers with FIFO byte channels;
//! - [`mux`] — the TCP transport: many logical links per localhost socket
//!   ([`MuxTcpNetwork`] binds one listener per shard worker), per-link
//!   FIFO preserved;
//! - [`decode`] — incremental frame decoding ([`FrameBuf`]): one copy
//!   per drain into a shared buffer, whose views the payloads are,
//!   instead of an allocation per datagram;
//! - [`transport`] — the [`Transport`] trait the runtime drives:
//!   non-blocking readiness ([`Transport::poll_recv`] +
//!   [`Transport::set_ready_notifier`]) and batch-native sends
//!   ([`Transport::send_batch`]).
//!
//! Frame coalescing (group-commit batching) lives in the [`link`] module:
//! a [`LinkSender`] flushes its buffered frames as one multi-frame
//! [`Datagram::Batch`] wire packet when its owner ends a step, or earlier
//! at 32 frames or 256 KiB.
//!
//! # Example: a lossy link made reliable
//!
//! ```
//! use aaa_base::VTime;
//! use aaa_net::link::{LinkReceiver, LinkSender};
//! use bytes::Bytes;
//!
//! let mut tx = LinkSender::new();
//! let mut rx = LinkReceiver::new();
//! let f1 = tx.send(Bytes::from_static(b"hello"), VTime::ZERO);
//! let f2 = tx.send(Bytes::from_static(b"world"), VTime::ZERO);
//! // f1 is lost; f2 arrives first and is buffered, not delivered.
//! let out = rx.on_frame(f2.clone());
//! assert!(out.delivered.is_empty());
//! // The retransmission timer re-sends both; FIFO order is restored.
//! let again = tx.due_retransmissions(VTime::from_micros(1_000_000));
//! let out = rx.on_frame(again[0].clone());
//! assert_eq!(out.delivered.len(), 2);
//! ```

pub mod decode;
pub mod frame;
pub mod health;
pub mod link;
pub mod memory;
pub mod metrics;
pub mod mux;
pub mod transport;
pub mod wire;

pub use decode::{FrameBuf, RawFrame};
pub use frame::{RelayAck, WireMessage};
pub use health::{PeerHealth, PeerState};
pub use link::{Datagram, LinkFrame, LinkReceiver, LinkSender};
pub use memory::{Incoming, MemoryEndpoint, MemoryNetwork};
pub use metrics::NetMetrics;
pub use mux::{MuxTcpEndpoint, MuxTcpNetwork};
pub use transport::{NotifySlot, ReadyNotifier, Transport};
pub use wire::Utf8Bytes;
