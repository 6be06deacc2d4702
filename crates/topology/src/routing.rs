//! Static routing tables, built at boot by shortest-path search (§5).
//!
//! The paper follows "the classical network protocol approach, using a
//! routing table": for each destination server, the table holds the
//! identifier of the server the message should be sent to next — the
//! destination itself when it shares a domain, a causal router-server
//! otherwise. Tables are built statically at boot time from the topology.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use aaa_base::{DomainId, Error, Result, ServerId};

use crate::topology::Topology;

/// One server's routing table: next hop and hop count per destination.
///
/// Built by a breadth-first search that expands whole domains: the first
/// time a popped server has a domain that is not expanded yet, every
/// still-unreached member of that domain is reached at once, one hop
/// further. A domain is a clique of the server graph (an edge joins two
/// servers sharing a domain), so its first member popped reaches all of it
/// and a later member would reach nothing new; only router-servers are
/// queued, since a server in a single domain was reached through it. The
/// servers a pop reaches are taken in ascending id order — exactly the
/// order in which a search over the server graph examines the popped
/// server's neighbours — so the tie-break between equal-length paths, and
/// hence every table, is the same as that search's, cyclic topologies
/// included, and every boot produces identical tables. One table costs
/// `O(n + Σ|d|)`, not the server graph's `O(Σ|d|²)`.
///
/// A server that belongs to one domain only is not queued by its own
/// search either, so that search is its domain's expansion followed by
/// the same queue of the domain's routers for every such member: their
/// next hops are identical, and their hop counts differ only to
/// themselves. They share one table, built the first time one of them
/// asks and kept by the [`Topology`]; a router-server builds its own. A
/// domain of `s` servers therefore holds one table, not `s`.
///
/// # Examples
///
/// ```
/// use aaa_base::ServerId;
/// use aaa_topology::{RoutingTable, TopologySpec};
///
/// let topo = TopologySpec::from_domains(vec![
///     vec![0, 1, 2],
///     vec![2, 3, 4, 5],
///     vec![5, 6, 7],
/// ])
/// .validate()?;
/// let table = RoutingTable::build(&topo, ServerId::new(0))?;
/// // S0 -> S7 must go through the routers S2 then S5 (cf. Figure 2's
/// // S1 -> S3 -> S7 -> S8 route).
/// assert_eq!(table.next_hop(ServerId::new(7))?, ServerId::new(2));
/// assert_eq!(table.hops(ServerId::new(7))?, 3);
/// # Ok::<(), aaa_base::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTable {
    me: ServerId,
    routes: Arc<Routes>,
}

/// Next hop and hop count per destination, from one server, or from
/// every single-domain member of one domain, to whom the domain's other
/// members are one hop away.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Routes {
    next: Vec<ServerId>,
    hops: Vec<u32>,
}

/// The routes of each domain's single-domain members, built on first use
/// and shared by every [`RoutingTable`] built for one of them. A function
/// of the topology that holds it, so it takes no part in comparing two.
#[derive(Clone)]
pub(crate) struct DomainRoutes(Box<[OnceLock<Arc<Routes>>]>);

impl DomainRoutes {
    /// No routes yet for `domains` domains.
    pub(crate) fn new(domains: usize) -> Self {
        DomainRoutes((0..domains).map(|_| OnceLock::new()).collect())
    }

    /// The routes of `domain`'s single-domain members in `topology`, the
    /// topology holding `self`.
    fn of(&self, topology: &Topology, domain: DomainId) -> Arc<Routes> {
        let once = &self.0[domain.as_usize()];
        Arc::clone(once.get_or_init(|| Arc::new(search(topology, None, &[domain]))))
    }
}

impl PartialEq for DomainRoutes {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DomainRoutes {}

impl fmt::Debug for DomainRoutes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let built = self.0.iter().filter(|once| once.get().is_some()).count();
        write!(f, "DomainRoutes({built} of {} built)", self.0.len())
    }
}

/// The breadth-first search from `me`, or, without one, from a member of
/// `first` that belongs to no other domain. The first pop expands `first`,
/// and each server it reaches is its own next hop.
fn search(topology: &Topology, me: Option<ServerId>, first: &[DomainId]) -> Routes {
    let n = topology.server_count();
    let mut next: Vec<ServerId> = topology.servers().collect();
    let mut hops = vec![u32::MAX; n];
    if let Some(me) = me {
        hops[me.as_usize()] = 0;
    }
    // BFS recording, for every destination, the *first hop* taken out
    // of the source on a shortest path.
    let mut expanded = vec![false; topology.domain_count()];
    let mut reached: Vec<ServerId> = Vec::new();
    let mut queue = VecDeque::new();
    let (mut from, mut domains): (Option<ServerId>, _) = (None, first);
    loop {
        for &d in domains {
            if std::mem::replace(&mut expanded[d.as_usize()], true) {
                continue;
            }
            let members = topology.domains()[d.as_usize()].members();
            reached.extend(members.iter().filter(|w| hops[w.as_usize()] == u32::MAX));
        }
        // Members of several fresh domains interleave (and, in a cyclic
        // topology, repeat): sorting restores the ascending neighbour
        // order the tie-break depends on.
        reached.sort_unstable();
        reached.dedup();
        let (h, via) = match from {
            None => (1, None),
            Some(v) => (hops[v.as_usize()] + 1, Some(next[v.as_usize()])),
        };
        for w in reached.drain(..) {
            hops[w.as_usize()] = h;
            next[w.as_usize()] = via.unwrap_or(w);
            if topology.is_router(w) {
                queue.push_back(w);
            }
        }
        let Some(v) = queue.pop_front() else {
            break;
        };
        (from, domains) = (Some(v), topology.memberships(v));
    }
    debug_assert!(
        hops.iter().all(|&h| h != u32::MAX),
        "validated topologies are connected"
    );
    Routes { next, hops }
}

impl RoutingTable {
    /// The routing table of server `me` for `topology`: its domain's
    /// shared table if it belongs to one domain only, its own otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if `me` is not in the topology.
    /// (Unreachable destinations cannot occur: validation guarantees a
    /// connected server graph.)
    pub fn build(topology: &Topology, me: ServerId) -> Result<RoutingTable> {
        topology.check_server(me)?;
        let routes = match *topology.memberships(me) {
            [domain] => topology.domain_routes().of(topology, domain),
            ref domains => Arc::new(search(topology, Some(me), domains)),
        };
        Ok(RoutingTable { me, routes })
    }

    /// Builds the routing tables of every server, indexed by server id.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`RoutingTable::build`] (none occur for a
    /// validated topology).
    pub fn build_all(topology: &Topology) -> Result<Vec<RoutingTable>> {
        topology
            .servers()
            .map(|s| Self::build(topology, s))
            .collect()
    }

    /// The server this table belongs to.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// The server to forward to next on the way to `dest`.
    ///
    /// Returns `me` itself when `dest == me` (local delivery).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if `dest` is out of range.
    pub fn next_hop(&self, dest: ServerId) -> Result<ServerId> {
        self.routes
            .next
            .get(dest.as_usize())
            .copied()
            .ok_or(Error::UnknownServer(dest))
    }

    /// Number of hops to `dest` (0 for `me` itself).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownServer`] if `dest` is out of range.
    pub fn hops(&self, dest: ServerId) -> Result<u32> {
        let hops = self.routes.hops.get(dest.as_usize());
        // A shared table counts its domain's members one hop away.
        let hops = hops.copied().ok_or(Error::UnknownServer(dest))?;
        Ok(if dest == self.me { 0 } else { hops })
    }

    /// The largest hop count in the table (the server's eccentricity).
    pub fn max_hops(&self) -> u32 {
        let others =
            (self.routes.hops.iter().enumerate()).filter(|&(s, _)| s != self.me.as_usize());
        others.map(|(_, &h)| h).max().unwrap_or(0)
    }
}

/// Follows the per-server tables from `from` to `to`, returning the full
/// server path, endpoints included — like a `traceroute` over the MOM.
///
/// # Errors
///
/// Returns [`Error::UnknownServer`] if either endpoint is out of range for
/// `tables`, or [`Error::NoRoute`] if the tables do not converge within
/// `tables.len()` hops (impossible for tables produced by
/// [`RoutingTable::build_all`]).
pub fn trace_route(tables: &[RoutingTable], from: ServerId, to: ServerId) -> Result<Vec<ServerId>> {
    if from.as_usize() >= tables.len() {
        return Err(Error::UnknownServer(from));
    }
    let mut path = vec![from];
    let mut cur = from;
    while cur != to {
        if path.len() > tables.len() {
            return Err(Error::NoRoute { from, to });
        }
        cur = tables[cur.as_usize()].next_hop(to)?;
        path.push(cur);
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;

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

    fn s(i: u16) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    fn intra_domain_is_direct() {
        let t = figure2();
        let rt = RoutingTable::build(&t, s(0)).unwrap();
        assert_eq!(rt.next_hop(s(1)).unwrap(), s(1));
        assert_eq!(rt.next_hop(s(2)).unwrap(), s(2));
        assert_eq!(rt.hops(s(1)).unwrap(), 1);
        assert_eq!(rt.next_hop(s(0)).unwrap(), s(0));
        assert_eq!(rt.hops(s(0)).unwrap(), 0);
    }

    #[test]
    fn paper_route_s1_to_s8() {
        // Paper: S1→S3, S3→S7, S7→S8 — in 0-based ids: 0→2→6→7.
        let t = figure2();
        let tables = RoutingTable::build_all(&t).unwrap();
        let path = trace_route(&tables, s(0), s(7)).unwrap();
        assert_eq!(path, vec![s(0), s(2), s(6), s(7)]);
    }

    #[test]
    fn routes_are_symmetric_in_length() {
        let t = figure2();
        let tables = RoutingTable::build_all(&t).unwrap();
        for a in t.servers() {
            for b in t.servers() {
                assert_eq!(
                    tables[a.as_usize()].hops(b).unwrap(),
                    tables[b.as_usize()].hops(a).unwrap(),
                    "asymmetric hop count {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn every_hop_shares_a_domain() {
        let t = figure2();
        let tables = RoutingTable::build_all(&t).unwrap();
        for a in t.servers() {
            for b in t.servers() {
                let path = trace_route(&tables, a, b).unwrap();
                for w in path.windows(2) {
                    assert!(
                        t.shared_domain(w[0], w[1]).is_some(),
                        "hop {}->{} crosses no domain",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn max_hops_of_bus() {
        let t = TopologySpec::bus(4, 5).validate().unwrap();
        let tables = RoutingTable::build_all(&t).unwrap();
        // Leaf server -> router -> other router -> leaf server = 3 hops.
        let worst = tables.iter().map(|t| t.max_hops()).max().unwrap();
        assert_eq!(worst, 3);
    }

    #[test]
    fn unknown_destination_errors() {
        let t = figure2();
        let rt = RoutingTable::build(&t, s(0)).unwrap();
        assert!(matches!(rt.next_hop(s(99)), Err(Error::UnknownServer(_))));
        assert!(matches!(rt.hops(s(99)), Err(Error::UnknownServer(_))));
        assert!(matches!(
            RoutingTable::build(&t, s(99)),
            Err(Error::UnknownServer(_))
        ));
    }

    #[test]
    fn single_domain_members_share_their_domains_table() {
        // bus(32, 32): leaf domain 1 is servers 0..32, with router 0.
        let t = TopologySpec::bus(32, 32).validate().unwrap();
        let table = |i| RoutingTable::build(&t, s(i)).unwrap();
        let (one, two, router) = (table(1), table(2), table(0));
        assert!(!t.is_router(s(1)) && t.is_router(s(0)));
        assert!(Arc::ptr_eq(&one.routes, &two.routes));
        assert!(!Arc::ptr_eq(&one.routes, &router.routes));
        assert!(!Arc::ptr_eq(&router.routes, &table(0).routes));
        assert!(Arc::ptr_eq(&one.routes, &table(31).routes));
        assert!(!Arc::ptr_eq(&one.routes, &table(33).routes));
        // They differ only in the hops to themselves.
        assert_eq!((one.hops(s(1)), one.hops(s(2))), (Ok(0), Ok(1)));
        assert_eq!((two.hops(s(1)), two.hops(s(2))), (Ok(1), Ok(0)));
        assert_eq!(
            (one.next_hop(s(1)), two.next_hop(s(1))),
            (Ok(s(1)), Ok(s(1)))
        );
        assert_eq!((one.max_hops(), router.max_hops()), (3, 2));
        // A lone server routes to itself alone.
        let lone = TopologySpec::single_domain(1).validate().unwrap();
        assert_eq!(RoutingTable::build(&lone, s(0)).unwrap().max_hops(), 0);
    }

    #[test]
    fn routing_is_deterministic() {
        let t = TopologySpec::tree(2, 2, 3).validate().unwrap();
        let a = RoutingTable::build_all(&t).unwrap();
        let b = RoutingTable::build_all(&t).unwrap();
        assert_eq!(a, b);
    }
}
