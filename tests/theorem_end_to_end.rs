//! The main theorem, stress-tested end to end.
//!
//! P2 ⇒ P1: on any *acyclic* domain decomposition, the MOM's purely local
//! (per-domain) causal ordering yields globally causal delivery. We run
//! randomized topologies and workloads through the live runtime
//! and check every recorded trace with the independent `aaa-trace`
//! checkers.

mod common;

use std::time::Duration;

use aaa_middleware::base::{AgentId, ServerId};
use aaa_middleware::mom::{ClockConfig, EchoAgent, MomBuilder, Notification, StampMode};

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

fn run_random_topology(seed: u64, mode: StampMode) {
    let spec = common::random_acyclic_spec(seed, 4, 2, 4);
    let n = spec.server_count() as u16;
    let mom = MomBuilder::new(spec)
        .clock(ClockConfig::mode(mode))
        .build()
        .expect("valid topology");
    for s in 0..n {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .expect("registration succeeds");
    }
    let pairs = common::random_pairs(seed.wrapping_mul(31), n, 60);
    for (from, to) in pairs {
        mom.send(aid(from, 77), aid(to, 1), Notification::signal("m"))
            .expect("send accepted");
    }
    assert!(
        mom.quiesce(Duration::from_secs(30)),
        "seed {seed}: no quiescence"
    );
    let trace = mom.trace().expect("trace well-formed");
    assert_eq!(trace.message_count(), 120, "seed {seed}: sends + echoes");
    assert!(
        trace.check_causality().is_ok(),
        "seed {seed}: GLOBAL CAUSALITY VIOLATED on an acyclic topology"
    );
    // And the per-domain restrictions hold too (the theorem's hypothesis,
    // enforced by the implementation).
    for d in mom.topology().domains() {
        assert!(
            trace.check_causality_in(d.members()).is_ok(),
            "seed {seed}: domain {} not locally causal",
            d.id()
        );
    }
    mom.shutdown();
}

#[test]
fn theorem_holds_on_random_acyclic_topologies_updates_mode() {
    for seed in 0..8 {
        run_random_topology(seed, StampMode::Updates);
    }
}

#[test]
fn theorem_holds_on_random_acyclic_topologies_full_mode() {
    for seed in 100..104 {
        run_random_topology(seed, StampMode::Full);
    }
}

#[test]
fn theorem_holds_on_deep_daisy() {
    use aaa_middleware::topology::TopologySpec;
    // A 6-domain daisy: messages between the ends cross 5 routers.
    let mom = MomBuilder::new(TopologySpec::daisy(6, 3)).build().unwrap();
    let n = mom.topology().server_count() as u16;
    for s in 0..n {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .unwrap();
    }
    let last = n - 1;
    for i in 0..20 {
        // Alternate ends and middle to exercise long and short routes.
        let to = if i % 2 == 0 { last } else { n / 2 };
        mom.send(aid(0, 9), aid(to, 1), Notification::signal("m"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(30)));
    let trace = mom.trace().unwrap();
    assert!(trace.check_causality().is_ok());
    assert_eq!(trace.message_count(), 40);
    mom.shutdown();
}

#[test]
fn theorem_holds_on_figure2_with_bursty_traffic() {
    use aaa_middleware::topology::TopologySpec;
    let spec = TopologySpec::from_domains(vec![
        vec![0, 1, 2],
        vec![3, 4],
        vec![6, 7],
        vec![2, 4, 5, 6],
    ]);
    let mom = MomBuilder::new(spec).build().unwrap();
    for s in 0..8 {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .unwrap();
    }
    // Bursts: every server fires at every other server back-to-back.
    for from in 0..8u16 {
        for to in 0..8u16 {
            if from != to {
                mom.send(aid(from, 9), aid(to, 1), Notification::signal("b"))
                    .unwrap();
            }
        }
    }
    assert!(mom.quiesce(Duration::from_secs(30)));
    let trace = mom.trace().unwrap();
    assert_eq!(trace.message_count(), 2 * 8 * 7);
    assert!(trace.check_causality().is_ok());
    mom.shutdown();
}
