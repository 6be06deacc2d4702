//! Property-based tests of the MOM cores: random topologies, random
//! workloads, adversarial delivery interleavings — global causality must
//! hold on every acyclic decomposition.

use std::collections::VecDeque;
use std::sync::Arc;

use aaa_base::{AgentId, ServerId, VTime};
use aaa_mom::{EchoAgent, Notification, ServerConfig, ServerCore, StampMode, Transmission};
use aaa_storage::MemoryStore;
use aaa_topology::TopologySpec;
use aaa_trace::TraceRecorder;
use proptest::prelude::*;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

/// Builds a random tree-of-domains spec from proptest-chosen shape data.
fn spec_from(sizes: &[usize], attach: &[(usize, usize)]) -> TopologySpec {
    let mut domains: Vec<Vec<u16>> = Vec::new();
    let mut next = 0u16;
    for (i, &size) in sizes.iter().enumerate() {
        let mut members = Vec::with_capacity(size);
        if i > 0 {
            let (d, s) = attach.get(i - 1).copied().unwrap_or((0, 0));
            let parent = &domains[d % domains.len()];
            members.push(parent[s % parent.len()]);
        }
        while members.len() < size {
            members.push(next);
            next += 1;
        }
        domains.push(members);
    }
    TopologySpec::from_domains(domains)
}

/// Runs a workload through sans-IO cores with an adversarial delivery
/// policy: the pending-transmission queue is serviced in an order driven
/// by `schedule_seed` (front/back alternation), exercising many global
/// interleavings while preserving per-link FIFO (links deliver what the
/// core handed them in hand-off order — we only interleave *across*
/// links... conservatively, we only pop from either end of the global
/// queue, which preserves relative order of same-link datagrams).
fn run_adversarial(
    spec: TopologySpec,
    mode: StampMode,
    sends: &[(u16, u16)],
    schedule_seed: u64,
) -> aaa_trace::Trace {
    let topo = spec.validate().expect("valid topology");
    let recorder = TraceRecorder::new();
    let n = topo.server_count() as u16;
    let mut cores: Vec<ServerCore> = (0..n)
        .map(|i| {
            let mut c = ServerCore::new(
                &topo,
                ServerId::new(i),
                ServerConfig {
                    stamp_mode: mode,
                    ..ServerConfig::default()
                },
                Arc::new(MemoryStore::new()),
            )
            .expect("core builds");
            c.register_agent(1, Box::new(EchoAgent));
            c.set_recorder(recorder.clone());
            c
        })
        .collect();

    let mut queue: VecDeque<(ServerId, Transmission)> = VecDeque::new();
    for &(from, to) in sends {
        let (from, to) = (from % n, to % n);
        if from == to {
            continue;
        }
        let (_, ts) = cores[from as usize]
            .client_send(
                aid(from, 9),
                aid(to, 1),
                Notification::signal("m"),
                VTime::ZERO,
            )
            .expect("send accepted");
        let me = ServerId::new(from);
        queue.extend(ts.into_iter().map(|t| (me, t)));
    }

    let mut state = schedule_seed | 1;
    let mut guard = 0;
    while let Some((src, t)) = {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        if state & (1 << 40) == 0 {
            queue.pop_front()
        } else {
            queue.pop_back()
        }
    } {
        guard += 1;
        assert!(guard < 100_000, "adversarial run did not converge");
        let me = t.to;
        let ts = cores[me.as_usize()]
            .on_datagram(src, t.bytes, VTime::ZERO)
            .expect("datagram processed");
        queue.extend(ts.into_iter().map(|t| (me, t)));
    }
    recorder.snapshot().expect("well-formed trace")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Global causality holds on random acyclic topologies under
    /// adversarial delivery interleavings, in every stamp mode.
    #[test]
    fn causality_under_adversarial_interleavings(
        sizes in prop::collection::vec(2usize..4, 1..4),
        attach in prop::collection::vec((0usize..10, 0usize..10), 0..4),
        sends in prop::collection::vec((0u16..12, 0u16..12), 1..25),
        seed in any::<u64>(),
        mode in prop_oneof![Just(StampMode::Full), Just(StampMode::Updates)],
    ) {
        let spec = spec_from(&sizes, &attach);
        let trace = run_adversarial(spec.clone(), mode, &sends, seed);
        prop_assert!(
            trace.check_causality().is_ok(),
            "causality violated on acyclic topology {spec:?}"
        );
        // Domain restrictions hold too.
        let topo = spec.validate().expect("valid");
        for d in topo.domains() {
            prop_assert!(trace.check_causality_in(d.members()).is_ok());
        }
    }

    /// Every accepted message is delivered exactly once (echo included):
    /// the trace has 2 messages per effective send and no losses.
    #[test]
    fn exactly_once_end_to_end(
        sizes in prop::collection::vec(2usize..4, 1..3),
        sends in prop::collection::vec((0u16..8, 0u16..8), 1..20),
        seed in any::<u64>(),
    ) {
        let spec = spec_from(&sizes, &[(0, 1), (0, 3)]);
        let n = spec.server_count() as u16;
        let effective = sends.iter().filter(|(a, b)| a % n != b % n).count();
        let trace = run_adversarial(spec, StampMode::Updates, &sends, seed);
        prop_assert_eq!(trace.message_count(), effective * 2);
        // Every message that was sent was also received (no in-flight
        // leftovers after convergence).
        for m in trace.messages() {
            prop_assert!(
                trace.deliveries_at(m.dst).contains(&m.id),
                "message {} never delivered",
                m.id
            );
        }
    }
}
