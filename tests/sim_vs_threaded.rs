//! Simulator-vs-runtime consistency: the discrete-event simulator and the
//! live shard pool drive the *same* sans-IO cores; the same workload must
//! produce the same end-to-end message set and causally consistent traces
//! in both — with the pool at a worker per server and at two workers for
//! all of them (one substrate at two sizes), for the plain Appendix-A
//! delta and for the knowledge-pruned one.

mod common;

use std::time::Duration;

use aaa_middleware::base::{AgentId, ServerId};
use aaa_middleware::mom::{
    ClockConfig, EchoAgent, MomBuilder, Notification, RuntimeConfig, ServerConfig, StampMode,
};
use aaa_middleware::sim::{CostModel, Simulation};
use aaa_middleware::trace::TraceRecorder;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

fn run_sim(seed: u64, mode: StampMode) -> (usize, bool) {
    let spec = common::random_acyclic_spec(seed, 3, 2, 4);
    let n = spec.server_count() as u16;
    let topo = spec.validate().unwrap();
    let mut sim = Simulation::new(
        topo,
        ServerConfig {
            stamp_mode: mode,
            ..ServerConfig::default()
        },
        CostModel::paper_calibrated(),
    )
    .unwrap();
    let recorder = TraceRecorder::new();
    sim.record_into(&recorder);
    for s in 0..n {
        sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
    }
    for (from, to) in common::random_pairs(seed + 5, n, 40) {
        sim.client_send(aid(from, 77), aid(to, 1), Notification::signal("m"));
    }
    sim.run_until_quiet().unwrap();
    let trace = recorder.snapshot().unwrap();
    (trace.message_count(), trace.check_causality().is_ok())
}

fn run_mom(seed: u64, mode: StampMode, runtime: RuntimeConfig) -> (usize, bool) {
    let spec = common::random_acyclic_spec(seed, 3, 2, 4);
    let n = spec.server_count() as u16;
    let mom = MomBuilder::new(spec)
        .clock(ClockConfig::mode(mode))
        .runtime(runtime)
        .build()
        .unwrap();
    for s in 0..n {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .unwrap();
    }
    for (from, to) in common::random_pairs(seed + 5, n, 40) {
        mom.send(aid(from, 77), aid(to, 1), Notification::signal("m"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(30)));
    let trace = mom.trace().unwrap();
    let out = (trace.message_count(), trace.check_causality().is_ok());
    mom.shutdown();
    out
}

/// The delta stamp mode, the simulator against both pool sizes, same
/// workload: identical message sets, causal traces everywhere.
#[test]
fn same_workload_same_outcome_across_all_runtimes() {
    let mode = StampMode::Updates;
    for seed in 0..3u64 {
        let (sim_msgs, sim_ok) = run_sim(seed, mode);
        assert!(sim_ok, "seed {seed} {mode:?}: simulator trace not causal");
        assert_eq!(sim_msgs, 80, "40 sends + 40 echoes");
        for (pool, runtime) in [
            ("a worker per server", RuntimeConfig::threaded()),
            ("two workers", RuntimeConfig::evented(2)),
        ] {
            let (msgs, ok) = run_mom(seed, mode, runtime);
            assert_eq!(
                sim_msgs, msgs,
                "seed {seed} {mode:?}: sim vs pool of {pool}: message counts differ"
            );
            assert!(ok, "seed {seed} {mode:?}: pool of {pool}: trace not causal");
        }
    }
}

#[test]
fn simulator_is_fully_deterministic() {
    let run = || {
        let spec = common::random_acyclic_spec(9, 4, 2, 3);
        let n = spec.server_count() as u16;
        let topo = spec.validate().unwrap();
        let mut sim =
            Simulation::new(topo, ServerConfig::default(), CostModel::paper_calibrated()).unwrap();
        for s in 0..n {
            sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        for (from, to) in common::random_pairs(3, n, 30) {
            sim.client_send(aid(from, 77), aid(to, 1), Notification::signal("m"));
        }
        sim.run_until_quiet().unwrap();
        (sim.now(), sim.total_stats())
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert_eq!(t1, t2, "virtual end times must be identical");
    assert_eq!(s1, s2, "statistics must be identical");
}
