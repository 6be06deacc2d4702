#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `aaa-obs` — first-class observability for the AAA middleware
//!
//! The paper's whole argument is quantitative: causal-ordering cost per
//! message (matrix-cell operations, stamp bytes, disk writes — Figures
//! 7–11). This crate gives every layer of the stack one shared vocabulary
//! for those quantities:
//!
//! - a [`Registry`] of lock-free instruments — [`Counter`], [`Gauge`] and
//!   fixed-bucket [`Histogram`]s, all plain atomics with no external
//!   dependencies;
//! - a small [`Meter`] handle that sans-IO cores take as an **optional**
//!   field: cores built without one pay a single branch per event, so
//!   benchmarks with metrics disabled are unaffected;
//! - [`MetricsSnapshot`] with Prometheus-text and JSON exposition, plus a
//!   tiny HTTP exporter ([`serve`]);
//! - a [`LatencyTracker`] correlating message send and delivery times
//!   across servers, on wall-clock *or* virtual time — the simulator and
//!   the live runtime publish the same metric names.
//!
//! ## Hot-path design
//!
//! Registration (`Registry::counter` & friends) takes a mutex and interns
//! the `(name, labels)` pair; it happens once, at core construction. The
//! returned handles are `Arc<AtomicU64>` behind the scenes: updating one is
//! a single relaxed atomic add, safe to clone across threads, and never
//! blocks the registry.
//!
//! ```
//! use aaa_obs::{Meter, Registry};
//!
//! let registry = Registry::new();
//! let meter = Meter::new(&registry).with_label("server", "3");
//! let delivered = meter.counter("aaa_channel_delivered_total", "Messages delivered");
//! delivered.inc();
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("aaa_channel_delivered_total", &[("server", "3")]), Some(1));
//! ```

mod instruments;
mod latency;
mod registry;
mod serve;
mod snapshot;

pub use instruments::{Counter, Gauge, Histogram, LATENCY_BUCKETS_US, SIZE_BUCKETS};
pub use latency::LatencyTracker;
pub use registry::{Meter, Registry};
pub use serve::{serve, MetricsServer};
pub use snapshot::{
    HistogramSnapshot, MetricFamily, MetricKind, MetricsSnapshot, Sample, SampleValue,
};
