#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Domains of causality: topology, validation and routing.
//!
//! The paper's key architectural move (§4) is to replace the single-bus MOM
//! by a *virtual multi-bus* ("snow flake") architecture: servers are grouped
//! into **domains of causality**, and causal order is only maintained inside
//! each domain. Servers belonging to several domains are **causal
//! router-servers**; they forward messages between domains. The main theorem
//! requires the domain interconnection structure to be acyclic.
//!
//! This crate provides:
//!
//! - [`TopologySpec`] — a declarative description of the decomposition, with
//!   builders for the paper's bus / daisy / tree organizations (Figure 9);
//! - [`Topology`] — the validated form: membership tables, per-domain server
//!   id tables, connectivity and acyclicity checks;
//! - [`RoutingTable`] — per-server static next-hop tables built at boot by a
//!   shortest-path search (§5) that expands each domain once, in time
//!   linear in servers plus memberships;
//! - [`cost`] — the analytical cost model of §6.2
//!   (`C ≈ (2d+1)·s²`, bus-vs-tree trade-off).
//!
//! # Example
//!
//! ```
//! use aaa_topology::TopologySpec;
//!
//! // The 8-server, 4-domain example of Figure 2 (0-based server ids).
//! let spec = TopologySpec::from_domains(vec![
//!     vec![0, 1, 2],       // domain A = {S1,S2,S3} of the paper
//!     vec![3, 4],          // domain B = {S4,S5}
//!     vec![6, 7],          // domain C = {S7,S8}
//!     vec![2, 4, 5, 6],    // domain D = {S3,S5,S6,S7}
//! ]);
//! let topo = spec.validate().expect("figure 2 is a valid acyclic topology");
//! assert_eq!(topo.server_count(), 8);
//! assert!(topo.is_router(aaa_base::ServerId::new(2)));
//! ```

pub mod cost;
mod graph;
mod routing;
mod spec;
pub mod split;
mod topology;

pub use routing::{trace_route, RoutingTable};
pub use spec::TopologySpec;
pub use topology::{DomainInfo, Topology};
