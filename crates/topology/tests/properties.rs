//! Property-based tests for topology validation, routing and splitting.

use aaa_base::{Error, ServerId};
use aaa_topology::split::{split_by_traffic, SplitConfig, TrafficMatrix};
use aaa_topology::{trace_route, RoutingTable, Topology, TopologySpec};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Strategy: a random tree-structured decomposition description.
/// Returns (domain sizes, attach choices) from which we build a spec that
/// is acyclic by construction.
fn tree_spec_strategy() -> impl Strategy<Value = TopologySpec> {
    (
        prop::collection::vec(2usize..5, 1..6),
        prop::collection::vec((0usize..100, 0usize..100), 0..6),
    )
        .prop_map(|(sizes, attach)| {
            let mut domains: Vec<Vec<u16>> = Vec::new();
            let mut next = 0u16;
            for (i, &size) in sizes.iter().enumerate() {
                let mut members = Vec::with_capacity(size);
                if i > 0 {
                    // Attach through a random server of a random earlier domain.
                    let (d_pick, s_pick) = attach.get(i - 1).copied().unwrap_or((0, 0));
                    let parent = &domains[d_pick % domains.len()];
                    members.push(parent[s_pick % parent.len()]);
                }
                while members.len() < size {
                    members.push(next);
                    next += 1;
                }
                domains.push(members);
            }
            TopologySpec::from_domains(domains)
        })
}

/// Strategy: a random connected spec that may contain cycles — a tree
/// spec plus extra domains over its servers (a chord between two domains,
/// a second domain sharing two servers, a singleton) — for
/// [`TopologySpec::validate_allow_cycles`].
fn cyclic_spec_strategy() -> impl Strategy<Value = TopologySpec> {
    (
        tree_spec_strategy(),
        prop::collection::vec(prop::collection::vec(0usize..100, 1..5), 1..4),
    )
        .prop_map(|(tree, extra)| {
            let n = tree
                .domains()
                .iter()
                .flatten()
                .map(|s| s.as_usize())
                .max()
                .unwrap_or(0)
                + 1;
            let mut domains: Vec<Vec<u16>> = tree
                .domains()
                .iter()
                .map(|d| d.iter().map(|s| s.as_u16()).collect())
                .collect();
            for picks in extra {
                let mut members: Vec<u16> = picks.iter().map(|&p| (p % n) as u16).collect();
                members.sort_unstable();
                members.dedup();
                domains.push(members);
            }
            TopologySpec::from_domains(domains)
        })
}

/// One server's table from the reference search: next hop and hop count
/// per destination.
type Table = (Vec<ServerId>, Vec<u32>);

/// The reference `RoutingTable::build` must match: a breadth-first search
/// over the server graph itself (an edge joins two servers sharing a
/// domain) that queues every server and examines its neighbours in
/// ascending id order, recording the first hop out of `me`.
fn reference_tables(topo: &Topology) -> Vec<Table> {
    let n = topo.server_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for members in topo.spec().domains() {
        for a in members {
            for b in members {
                if a != b {
                    adj[a.as_usize()].push(b.as_usize());
                }
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    (0..n)
        .map(|me| {
            let mut next: Vec<ServerId> = vec![ServerId::new(me as u16); n];
            let mut hops = vec![u32::MAX; n];
            hops[me] = 0;
            let mut queue = VecDeque::from([me]);
            while let Some(v) = queue.pop_front() {
                for &w in &adj[v] {
                    if hops[w] == u32::MAX {
                        hops[w] = hops[v] + 1;
                        next[w] = if v == me {
                            ServerId::new(w as u16)
                        } else {
                            next[v]
                        };
                        queue.push_back(w);
                    }
                }
            }
            (next, hops)
        })
        .collect()
}

/// The first entry where the table a server's channel routes with —
/// `RoutingTable::build`, its domain's shared table if it belongs to one
/// domain only — and the reference search disagree, if any.
fn routing_mismatch(topo: &Topology) -> Option<String> {
    let tables = topo
        .servers()
        .map(|s| RoutingTable::build(topo, s).expect("table builds"));
    for (table, (next, hops)) in tables.zip(reference_tables(topo)) {
        for dest in topo.servers() {
            let got = (table.next_hop(dest).unwrap(), table.hops(dest).unwrap());
            let want = (next[dest.as_usize()], hops[dest.as_usize()]);
            if got != want {
                return Some(format!(
                    "{} -> {dest}: (next, hops) {got:?}, reference {want:?}",
                    table.me()
                ));
            }
        }
    }
    None
}

#[test]
fn routing_matches_reference_on_figure9_shapes() {
    for spec in [
        TopologySpec::bus(32, 32),
        TopologySpec::bus(3, 5),
        TopologySpec::daisy(6, 4),
        TopologySpec::single_domain(256),
    ] {
        let topo = spec.validate().expect("valid");
        assert_eq!(routing_mismatch(&topo), None);
    }
}

proptest! {
    // Default case count, so `PROPTEST_CASES` deepens the oracle.

    /// The domain-expanded search gives every server exactly the table a
    /// server-graph search gives it, tie-breaks included, on acyclic
    /// decompositions, shared tables included.
    #[test]
    fn routing_matches_reference_on_tree_specs(spec in tree_spec_strategy()) {
        let topo = spec.validate().expect("valid");
        let mismatch = routing_mismatch(&topo);
        prop_assert!(mismatch.is_none(), "{mismatch:?}");
    }

    /// The same on cyclic decompositions, where one popped server can
    /// reach a server through two fresh domains at once.
    #[test]
    fn routing_matches_reference_on_cyclic_specs(spec in cyclic_spec_strategy()) {
        let topo = spec.validate_allow_cycles().expect("connected");
        let mismatch = routing_mismatch(&topo);
        prop_assert!(mismatch.is_none(), "{mismatch:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tree-structured decompositions always validate and are acyclic.
    #[test]
    fn tree_specs_validate(spec in tree_spec_strategy()) {
        let topo = spec.validate().expect("tree-structured specs are valid");
        prop_assert!(topo.is_acyclic());
        prop_assert!(topo.server_count() >= 1);
    }

    /// Adding one extra membership that links two existing domains through
    /// a fresh shared server closes a cycle and must be rejected —
    /// *unless* one of the involved domains was the other's unique
    /// neighbour through that same server already (we construct a genuine
    /// chord: a server already present in domain A is inserted into
    /// domain B where A and B are distinct and already connected).
    #[test]
    fn chords_are_rejected(spec in tree_spec_strategy(), pick in 0usize..1000) {
        let domains = spec.domains().to_vec();
        prop_assume!(domains.len() >= 2);
        // Choose a victim server from domain 0 and insert it into another
        // domain it is not already in.
        let victim = domains[0][pick % domains[0].len()];
        let target = 1 + pick % (domains.len() - 1);
        prop_assume!(!domains[target].contains(&victim));
        let mut chorded: Vec<Vec<u16>> = domains
            .iter()
            .map(|d| d.iter().map(|s| s.as_u16()).collect())
            .collect();
        chorded[target].push(victim.as_u16());
        // The spec stays structurally fine but now has a bipartite cycle
        // (victim connects domain 0 and `target`, which were already
        // connected through the tree).
        let result = TopologySpec::from_domains(chorded).validate();
        prop_assert!(
            matches!(result, Err(Error::CyclicDomainGraph { .. })),
            "expected cycle rejection, got {result:?}"
        );
    }

    /// On every valid topology: routes exist between all pairs, follow
    /// shared domains hop by hop, and have symmetric lengths.
    #[test]
    fn routing_is_total_and_consistent(spec in tree_spec_strategy()) {
        let topo = spec.validate().expect("valid");
        let tables = RoutingTable::build_all(&topo).expect("tables build");
        let n = topo.server_count() as u16;
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (ServerId::new(a), ServerId::new(b));
                let path = trace_route(&tables, a, b).expect("route exists");
                prop_assert_eq!(path.first().copied(), Some(a));
                prop_assert_eq!(path.last().copied(), Some(b));
                for w in path.windows(2) {
                    prop_assert!(topo.shared_domain(w[0], w[1]).is_some());
                }
                prop_assert_eq!(
                    tables[a.as_usize()].hops(b).unwrap(),
                    tables[b.as_usize()].hops(a).unwrap()
                );
                prop_assert_eq!(path.len() as u32 - 1, tables[a.as_usize()].hops(b).unwrap());
            }
        }
    }

    /// The splitter always produces a valid acyclic decomposition covering
    /// every server, whatever the traffic looks like.
    #[test]
    fn splitter_output_always_valid(
        n in 2usize..14,
        max_size in 2usize..7,
        rates in prop::collection::vec(0u32..20, 0..60),
    ) {
        let mut traffic = TrafficMatrix::new(n);
        for (k, rate) in rates.iter().enumerate() {
            let i = k % n;
            let j = (k / n + i + 1) % n;
            if i != j {
                traffic.set(i, j, f64::from(*rate));
            }
        }
        let spec = split_by_traffic(&traffic, &SplitConfig { max_domain_size: max_size })
            .expect("split succeeds");
        let topo = spec.validate().expect("split output validates");
        prop_assert!(topo.is_acyclic());
        prop_assert_eq!(topo.server_count(), n);
    }

    /// Figure 9 builders are always valid for reasonable parameters.
    #[test]
    fn figure9_builders_always_valid(k in 1u16..8, s in 2u16..8, d in 0u16..3) {
        let bus = TopologySpec::bus(k, s).validate().expect("bus valid");
        prop_assert!(bus.is_acyclic());
        let daisy = TopologySpec::daisy(k, s).validate().expect("daisy valid");
        prop_assert!(daisy.is_acyclic());
        let fanout = 2.min(s - 1).max(1);
        let tree = TopologySpec::tree(d, fanout, s).validate().expect("tree valid");
        prop_assert!(tree.is_acyclic());
    }
}
