//! The validated topology: membership tables and domain id tables.

use serde::{Deserialize, Serialize};

use aaa_base::{DomainId, DomainServerId, Error, Result, ServerId};

use crate::graph;
use crate::routing::DomainRoutes;
use crate::spec::{check_structure, TopologySpec};

/// One validated domain of causality.
///
/// Members are kept in ascending [`ServerId`] order; a server's
/// [`DomainServerId`] is its index in that order — this is the `idTable` of
/// the paper's `DomainItem` structure (§5), mapping between the global and
/// per-domain namespaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainInfo {
    id: DomainId,
    members: Vec<ServerId>,
}

impl DomainInfo {
    /// The domain identifier.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The member servers, ascending.
    pub fn members(&self) -> &[ServerId] {
        &self.members
    }

    /// Number of member servers (`s` in the paper's cost model).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if `server` is a member.
    pub fn contains(&self, server: ServerId) -> bool {
        self.members.binary_search(&server).is_ok()
    }

    /// Translates a global server id to its id within this domain.
    pub fn domain_server_id(&self, server: ServerId) -> Option<DomainServerId> {
        self.members
            .binary_search(&server)
            .ok()
            .map(|i| DomainServerId::new(i as u16))
    }

    /// Translates a per-domain id back to the global server id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this domain.
    pub fn server_at(&self, id: DomainServerId) -> ServerId {
        self.members[id.as_usize()]
    }
}

/// A validated domain decomposition.
///
/// Produced by [`TopologySpec::validate`]; guarantees that server ids are
/// dense, domains are non-empty and duplicate-free, the server graph is
/// connected, and — unless built with
/// [`TopologySpec::validate_allow_cycles`] — that the domain interconnection
/// graph is acyclic (the theorem's precondition P2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    spec: TopologySpec,
    n: usize,
    domains: Vec<DomainInfo>,
    memberships: Vec<Vec<DomainId>>,
    acyclic: bool,
    /// The routing table each domain's single-domain members share.
    routes: DomainRoutes,
}

impl Topology {
    pub(crate) fn build(spec: TopologySpec) -> Result<Topology> {
        Self::build_inner(spec, false)
    }

    pub(crate) fn build_allow_cycles(spec: TopologySpec) -> Result<Topology> {
        Self::build_inner(spec, true)
    }

    fn build_inner(spec: TopologySpec, allow_cycles: bool) -> Result<Topology> {
        let n = check_structure(&spec)?;
        let checked = graph::check(&spec, n, allow_cycles)?;
        let acyclic = !allow_cycles || graph::check(&spec, n, false).is_ok();
        let domains: Vec<DomainInfo> = spec
            .domains()
            .iter()
            .enumerate()
            .map(|(i, members)| {
                let mut members = members.clone();
                members.sort_unstable();
                DomainInfo {
                    id: DomainId::new(i as u16),
                    members,
                }
            })
            .collect();
        Ok(Topology {
            spec,
            n,
            routes: DomainRoutes::new(domains.len()),
            domains,
            memberships: checked.memberships,
            acyclic,
        })
    }

    /// The routing tables the domains' single-domain members share.
    pub(crate) fn domain_routes(&self) -> &DomainRoutes {
        &self.routes
    }

    /// The original specification.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Number of servers in the MOM.
    pub fn server_count(&self) -> usize {
        self.n
    }

    /// Number of domains of causality.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Iterates over all server ids.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.n as u16).map(ServerId::new)
    }

    /// All domains.
    pub fn domains(&self) -> &[DomainInfo] {
        &self.domains
    }

    /// A domain by id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDomain`] if the id is out of range.
    pub fn domain(&self, id: DomainId) -> Result<&DomainInfo> {
        self.domains
            .get(id.as_usize())
            .ok_or(Error::UnknownDomain(id))
    }

    /// The domains `server` belongs to, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn memberships(&self, server: ServerId) -> &[DomainId] {
        &self.memberships[server.as_usize()]
    }

    /// Returns `true` if `server` belongs to two or more domains — i.e., it
    /// is a causal router-server (§4.1).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn is_router(&self, server: ServerId) -> bool {
        self.memberships[server.as_usize()].len() >= 2
    }

    /// All causal router-servers, ascending.
    pub fn routers(&self) -> Vec<ServerId> {
        self.servers().filter(|&s| self.is_router(s)).collect()
    }

    /// The smallest-id domain containing both servers, if any.
    ///
    /// The channel stamps a message with the clock of the domain shared with
    /// the next hop; taking the smallest id makes the choice deterministic
    /// on both sides of the link.
    ///
    /// # Panics
    ///
    /// Panics if either server is out of range.
    pub fn shared_domain(&self, a: ServerId, b: ServerId) -> Option<DomainId> {
        let (da, db) = (
            &self.memberships[a.as_usize()],
            &self.memberships[b.as_usize()],
        );
        // Both lists are sorted: linear intersection, first hit wins.
        let (mut i, mut j) = (0, 0);
        while i < da.len() && j < db.len() {
            match da[i].cmp(&db[j]) {
                std::cmp::Ordering::Equal => return Some(da[i]),
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        None
    }

    /// Servers sharing at least one domain with `server`, ascending.
    ///
    /// Computed on demand from the memberships: a stored server adjacency
    /// would hold `Σ|d|²` entries, and routing does not need one.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn neighbors(&self, server: ServerId) -> Vec<ServerId> {
        let mut out: Vec<ServerId> = self.memberships[server.as_usize()]
            .iter()
            .flat_map(|d| self.domains[d.as_usize()].members())
            .copied()
            .filter(|&s| s != server)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the domain interconnection graph is acyclic (theorem
    /// precondition P2). Always `true` for topologies built with
    /// [`TopologySpec::validate`].
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// Renders the decomposition as a Graphviz `dot` graph: one cluster
    /// per domain, servers as nodes (router-servers doubled-circled),
    /// cluster membership edges for routers.
    ///
    /// ```bash
    /// cargo run --bin aaa-demo figure2 | … # or from code:
    /// ```
    ///
    /// ```
    /// use aaa_topology::TopologySpec;
    ///
    /// let topo = TopologySpec::bus(2, 2).validate()?;
    /// let dot = topo.to_dot();
    /// assert!(dot.starts_with("graph domains {"));
    /// assert!(dot.contains("cluster_d0"));
    /// # Ok::<(), aaa_base::Error>(())
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph domains {\n");
        for s in self.servers() {
            let shape = if self.is_router(s) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  s{} [label=\"{}\", shape={}];", s.as_u16(), s, shape);
        }
        for d in &self.domains {
            let _ = writeln!(out, "  subgraph cluster_d{} {{", d.id().as_u16());
            let _ = writeln!(out, "    label=\"{}\";", d.id());
            // A simple chain of edges keeps every member visibly grouped.
            for w in d.members().windows(2) {
                let _ = writeln!(out, "    s{} -- s{};", w[0].as_u16(), w[1].as_u16());
            }
            if d.size() == 1 {
                let _ = writeln!(out, "    s{};", d.members()[0].as_u16());
            }
            let _ = writeln!(out, "  }}");
        }
        out.push_str("}\n");
        out
    }

    /// Checks that `server` exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if it does not.
    pub fn check_server(&self, server: ServerId) -> Result<()> {
        if server.as_usize() < self.n {
            Ok(())
        } else {
            Err(Error::UnknownServer(server))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2() -> Topology {
        TopologySpec::from_domains(vec![
            vec![0, 1, 2],
            vec![3, 4],
            vec![6, 7],
            vec![2, 4, 5, 6],
        ])
        .validate()
        .unwrap()
    }

    #[test]
    fn figure2_basics() {
        let t = figure2();
        assert_eq!(t.server_count(), 8);
        assert_eq!(t.domain_count(), 4);
        assert!(t.is_acyclic());
        assert_eq!(
            t.routers(),
            vec![ServerId::new(2), ServerId::new(4), ServerId::new(6)]
        );
        assert!(!t.is_router(ServerId::new(0)));
    }

    #[test]
    fn domain_id_tables() {
        let t = figure2();
        let d3 = t.domain(DomainId::new(3)).unwrap();
        assert_eq!(d3.size(), 4);
        assert_eq!(
            d3.domain_server_id(ServerId::new(5)),
            Some(DomainServerId::new(2))
        );
        assert_eq!(d3.server_at(DomainServerId::new(1)), ServerId::new(4));
        assert_eq!(d3.domain_server_id(ServerId::new(0)), None);
        assert!(d3.contains(ServerId::new(6)));
    }

    #[test]
    fn shared_domain_lookup() {
        let t = figure2();
        assert_eq!(
            t.shared_domain(ServerId::new(0), ServerId::new(2)),
            Some(DomainId::new(0))
        );
        assert_eq!(
            t.shared_domain(ServerId::new(2), ServerId::new(6)),
            Some(DomainId::new(3))
        );
        assert_eq!(t.shared_domain(ServerId::new(0), ServerId::new(7)), None);
    }

    #[test]
    fn neighbors_follow_domains() {
        let t = figure2();
        assert_eq!(
            t.neighbors(ServerId::new(0)),
            &[ServerId::new(1), ServerId::new(2)]
        );
        assert_eq!(
            t.neighbors(ServerId::new(2)),
            &[
                ServerId::new(0),
                ServerId::new(1),
                ServerId::new(4),
                ServerId::new(5),
                ServerId::new(6)
            ]
        );
    }

    #[test]
    fn unknown_lookups_error() {
        let t = figure2();
        assert!(matches!(
            t.domain(DomainId::new(99)),
            Err(Error::UnknownDomain(_))
        ));
        assert!(matches!(
            t.check_server(ServerId::new(99)),
            Err(Error::UnknownServer(_))
        ));
        assert!(t.check_server(ServerId::new(7)).is_ok());
    }

    #[test]
    fn cyclic_spec_rejected_but_allowed_explicitly() {
        let cyclic = TopologySpec::from_domains(vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        assert!(cyclic.clone().validate().is_err());
        let t = cyclic.validate_allow_cycles().unwrap();
        assert!(!t.is_acyclic());
    }

    #[test]
    fn dot_export_shape() {
        let t = figure2();
        let dot = t.to_dot();
        assert!(dot.starts_with("graph domains {"));
        assert!(dot.trim_end().ends_with('}'));
        // Every server appears; routers double-circled.
        for s in 0..8 {
            assert!(dot.contains(&format!("s{s} [label=\"S{s}\"")));
        }
        assert!(dot.contains("s2 [label=\"S2\", shape=doublecircle]"));
        assert!(dot.contains("s0 [label=\"S0\", shape=circle]"));
        // One cluster per domain.
        for d in 0..4 {
            assert!(dot.contains(&format!("cluster_d{d}")));
        }
        // Singleton domains render their lone member.
        let single = TopologySpec::from_domains(vec![vec![0, 1], vec![1]])
            .validate_allow_cycles()
            .unwrap();
        assert!(single.to_dot().contains("cluster_d1"));
    }

    #[test]
    fn membership_lists_are_sorted() {
        let t = figure2();
        for s in t.servers() {
            let m = t.memberships(s);
            assert!(m.windows(2).all(|w| w[0] < w[1]));
            assert!(!m.is_empty());
        }
    }
}
