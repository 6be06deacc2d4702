//! Scale tests: bigger deployments than the unit tests use, closer to the
//! paper's 150-server experiments.

use std::time::Duration;

use aaa_middleware::base::{AgentId, ServerId};
use aaa_middleware::mom::{EchoAgent, MomBuilder, Notification, ServerConfig, StampMode};
use aaa_middleware::sim::{CostModel, Simulation};
use aaa_middleware::topology::TopologySpec;
use aaa_middleware::trace::TraceRecorder;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

#[test]
fn threaded_bus_with_30_servers_and_600_messages() {
    // 6 leaf domains x 5 servers: 30 shard workers, heavy random cross-domain
    // traffic, full causality check at the end.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mom = MomBuilder::new(TopologySpec::bus(6, 5)).build().unwrap();
    let n = mom.topology().server_count() as u16;
    assert_eq!(n, 30);
    for s in 0..n {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(2026);
    for _ in 0..300 {
        let from = rng.gen_range(0..n);
        let mut to = rng.gen_range(0..n);
        if to == from {
            to = (to + 1) % n;
        }
        mom.send(aid(from, 9), aid(to, 1), Notification::signal("s"))
            .unwrap();
    }
    assert!(
        mom.quiesce(Duration::from_secs(60)),
        "30-server bus must drain"
    );
    let trace = mom.trace().unwrap();
    assert_eq!(trace.message_count(), 600);
    assert!(trace.check_causality().is_ok());
    mom.shutdown();
}

#[test]
fn simulated_150_servers_cross_domain() {
    // The paper's largest configuration: 150 servers in a bus of domains.
    // Run entirely in virtual time; verify causality on a sampled workload.
    let spec = TopologySpec::bus(12, 13); // 156 servers
    let topo = spec.validate().unwrap();
    let mut sim = Simulation::new(
        topo,
        ServerConfig {
            stamp_mode: StampMode::Updates,
            ..ServerConfig::default()
        },
        CostModel::paper_calibrated(),
    )
    .unwrap();
    let recorder = TraceRecorder::new();
    sim.record_into(&recorder);
    let n = sim.topology().server_count() as u16;
    for s in 0..n {
        sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
    }
    // A wave of cross-domain messages: every 13th server fires at the
    // opposite side of the bus.
    let mut sent = 0;
    for s in (0..n).step_by(13) {
        let to = (s + n / 2) % n;
        if to != s {
            sim.client_send(aid(s, 9), aid(to, 1), Notification::signal("w"));
            sent += 1;
        }
    }
    sim.run_until_quiet().unwrap();
    let trace = recorder.snapshot().unwrap();
    assert_eq!(trace.message_count(), sent * 2);
    assert!(trace.check_causality().is_ok());
    // The whole wave completes in bounded virtual time (every round trip
    // is a few hundred virtual ms; they overlap across servers).
    assert!(sim.now().as_millis_f64() < 10_000.0);
}

#[test]
fn simulated_flat_90_servers_matches_paper_order_of_magnitude() {
    // One broadcast round at the paper's largest flat configuration.
    let m = aaa_middleware::sim::experiments::broadcast(
        TopologySpec::single_domain(90),
        StampMode::Updates,
        CostModel::paper_calibrated(),
        1,
    )
    .unwrap();
    let ms = m.avg.as_millis_f64();
    // Paper: 25 323 ms. Same order of magnitude is the claim.
    assert!(ms > 8_000.0 && ms < 80_000.0, "broadcast(90) = {ms} ms");
}
