//! The domain interconnection graph: acyclicity and connectivity checks.
//!
//! The theorem's precondition P2 demands that the domain interconnection
//! graph be acyclic (§4.2–4.3). We check acyclicity of the **bipartite
//! incidence graph** (vertices = servers ∪ domains, one edge per
//! membership). This is slightly stronger than "the graph with one node per
//! domain and an edge per shared server is acyclic", and is exactly the
//! condition an implementation needs:
//!
//! - a single server in three domains is a star in the bipartite graph —
//!   acyclic, and indeed harmless (it is an ordinary multi-way router);
//!   the naive domain graph would wrongly see a triangle there;
//! - two domains sharing *two* servers form a bipartite 4-cycle. The paper's
//!   trace model tolerates this case (no §4.2 path-cycle exists), but a real
//!   MOM stamps every message in exactly one domain's clock, so traffic
//!   between the two shared servers could be split across two independent
//!   clocks and lose causality — we reject it.

use aaa_base::{DomainId, Error, Result};

use crate::spec::TopologySpec;

/// Outcome of analysing a spec's membership structure.
#[derive(Debug, Clone)]
pub(crate) struct GraphCheck {
    /// For every server, the domains it belongs to, in ascending order.
    pub memberships: Vec<Vec<DomainId>>,
}

/// Vertex index helpers: servers are `0..n`, domain `d` is `n + d`.
struct Incidence {
    n: usize,
    adj: Vec<Vec<usize>>,
}

impl Incidence {
    fn new(n: usize, m: usize) -> Self {
        Incidence {
            n,
            adj: vec![Vec::new(); n + m],
        }
    }

    fn add(&mut self, server: usize, domain: usize) {
        self.adj[server].push(self.n + domain);
        self.adj[self.n + domain].push(server);
    }

    /// BFS path from `a` to `b`, returned as vertex indices (inclusive).
    fn path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        let mut prev = vec![usize::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        prev[a] = a;
        queue.push_back(a);
        while let Some(v) = queue.pop_front() {
            if v == b {
                let mut path = vec![b];
                let mut cur = b;
                while cur != a {
                    cur = prev[cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &w in &self.adj[v] {
                if prev[w] == usize::MAX {
                    prev[w] = v;
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

/// Simple union-find over `len` elements.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

/// Checks the domain structure of `spec` over `n` servers.
///
/// With `allow_cycles`, the bipartite cycle check is skipped (used to build
/// deliberately broken topologies for the Figure 4 counterexample), but
/// connectivity is still required.
pub(crate) fn check(spec: &TopologySpec, n: usize, allow_cycles: bool) -> Result<GraphCheck> {
    let m = spec.domain_count();
    let mut inc = Incidence::new(n, m);
    let mut uf = UnionFind::new(n + m);
    let mut memberships: Vec<Vec<DomainId>> = vec![Vec::new(); n];

    for (d, members) in spec.domains().iter().enumerate() {
        for s in members {
            let sv = s.as_usize();
            if !uf.union(sv, n + d) && !allow_cycles {
                // Adding this edge closes a cycle; extract a witness from
                // the edges added so far.
                let path = inc
                    .path(sv, n + d)
                    .expect("union-find cycle implies an existing path");
                let mut cycle: Vec<DomainId> = path
                    .into_iter()
                    .filter(|&v| v >= n)
                    .map(|v| DomainId::new((v - n) as u16))
                    .collect();
                cycle.push(DomainId::new(d as u16));
                return Err(Error::CyclicDomainGraph { cycle });
            }
            inc.add(sv, d);
            memberships[sv].push(DomainId::new(d as u16));
        }
    }

    // Connectivity: every server reachable from server 0.
    let root = uf.find(0);
    for s in 1..n {
        if uf.find(s) != root {
            return Err(Error::InvalidTopology(format!(
                "server S{s} is unreachable from S0 (disconnected topology)"
            )));
        }
    }

    for doms in &mut memberships {
        doms.sort_unstable();
    }
    Ok(GraphCheck { memberships })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(domains: Vec<Vec<u16>>) -> TopologySpec {
        TopologySpec::from_domains(domains)
    }

    #[test]
    fn figure2_is_acyclic() {
        // 0-based rendition of Figure 2.
        let s = spec(vec![
            vec![0, 1, 2],
            vec![3, 4],
            vec![6, 7],
            vec![2, 4, 5, 6],
        ]);
        let check = check(&s, 8, false).expect("figure 2 is acyclic");
        assert_eq!(
            check.memberships[2],
            vec![DomainId::new(0), DomainId::new(3)]
        );
        assert_eq!(check.memberships[1], vec![DomainId::new(0)]);
    }

    #[test]
    fn triangle_of_domains_is_cyclic() {
        // D0={0,1}, D1={1,2}, D2={2,0}: a cycle of three domains.
        let s = spec(vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        let err = check(&s, 3, false).unwrap_err();
        match err {
            Error::CyclicDomainGraph { cycle } => {
                assert!(
                    cycle.len() >= 3,
                    "witness should name the domains: {cycle:?}"
                );
            }
            other => panic!("expected cycle error, got {other}"),
        }
    }

    #[test]
    fn two_domains_sharing_two_servers_is_cyclic() {
        let s = spec(vec![vec![0, 1], vec![0, 1]]);
        assert!(matches!(
            check(&s, 2, false),
            Err(Error::CyclicDomainGraph { .. })
        ));
    }

    #[test]
    fn server_in_three_domains_is_fine() {
        // A star router: harmless, must NOT be flagged as a cycle.
        let s = spec(vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        assert!(check(&s, 4, false).is_ok());
    }

    #[test]
    fn allow_cycles_bypasses_the_check() {
        let s = spec(vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        assert!(check(&s, 3, true).is_ok());
    }

    #[test]
    fn disconnected_is_rejected() {
        let s = spec(vec![vec![0, 1], vec![2, 3]]);
        assert!(matches!(
            check(&s, 4, false),
            Err(Error::InvalidTopology(_))
        ));
    }
}
