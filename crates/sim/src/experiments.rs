//! The paper's measurement protocol (§6.1), packaged as experiment
//! drivers.
//!
//! "We have created an agent on each agent server, which sends back
//! received messages (ping-pong). Messages are sent by a main agent on
//! server 0, which computes the round-trip average time for 100 sends."
//!
//! Three tests: unicast on the local server, unicast on a remote server,
//! broadcast on all servers. Each driver below reproduces one of them on
//! the simulator and returns the measured virtual time.

use aaa_base::{AgentId, Result, ServerId, VDuration};
use aaa_clocks::StampMode;
use aaa_mom::{EchoAgent, Notification, ServerConfig, StepStats};
use aaa_topology::{RoutingTable, Topology, TopologySpec};

use crate::cost::CostModel;
use crate::simulation::Simulation;

/// The local id used for echo agents on every server.
pub const ECHO_AGENT: u32 = 1;
/// The local id of the main (measuring) agent on server 0.
pub const MAIN_AGENT: u32 = 100;

fn build_sim(spec: TopologySpec, mode: StampMode, model: CostModel) -> Result<Simulation> {
    let topology = spec.validate()?;
    let config = ServerConfig {
        stamp_mode: mode,
        ..ServerConfig::default()
    };
    let mut sim = Simulation::new(topology, config, model)?;
    for s in sim.topology().servers().collect::<Vec<_>>() {
        sim.register_agent(s, ECHO_AGENT, Box::new(EchoAgent));
    }
    Ok(sim)
}

/// The server farthest (in routing hops) from server 0 — the paper's
/// "remote server", chosen so the message crosses the maximum number of
/// causal domains.
///
/// # Errors
///
/// Propagates routing-table construction errors (none for validated
/// topologies).
pub fn farthest_server(topology: &Topology) -> Result<ServerId> {
    let table = RoutingTable::build(topology, ServerId::new(0))?;
    let mut best = ServerId::new(0);
    let mut best_hops = 0;
    for s in topology.servers() {
        let hops = table.hops(s)?;
        if hops > best_hops || (hops == best_hops && s > best) {
            best = s;
            best_hops = hops;
        }
    }
    Ok(best)
}

/// One experiment measurement: the average round-trip (or completion)
/// time plus the aggregate protocol statistics.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Average time per round, in virtual time.
    pub avg: VDuration,
    /// Aggregate statistics over the whole run.
    pub stats: StepStats,
}

fn ping_rounds(mut sim: Simulation, target: ServerId, rounds: u32) -> Result<Measurement> {
    let main = AgentId::new(ServerId::new(0), MAIN_AGENT);
    let echo = AgentId::new(target, ECHO_AGENT);
    let mut total = VDuration::ZERO;
    for _ in 0..rounds {
        let t0 = sim.now();
        sim.client_send(main, echo, Notification::signal("ping"));
        sim.run_until_quiet()?;
        total += sim.last_delivery() - t0;
    }
    Ok(Measurement {
        avg: VDuration::from_micros(total.as_micros() / u64::from(rounds.max(1))),
        stats: sim.total_stats(),
    })
}

/// Remote unicast (Figures 7 and 10): ping-pong between server 0 and the
/// farthest server, averaged over `rounds`.
///
/// # Errors
///
/// Propagates topology validation and simulation errors.
pub fn remote_unicast_avg_rtt(
    spec: TopologySpec,
    mode: StampMode,
    model: CostModel,
    rounds: u32,
) -> Result<VDuration> {
    Ok(remote_unicast(spec, mode, model, rounds)?.avg)
}

/// Like [`remote_unicast_avg_rtt`] but also returns protocol statistics.
///
/// # Errors
///
/// Propagates topology validation and simulation errors.
pub fn remote_unicast(
    spec: TopologySpec,
    mode: StampMode,
    model: CostModel,
    rounds: u32,
) -> Result<Measurement> {
    let sim = build_sim(spec, mode, model)?;
    let target = farthest_server(sim.topology())?;
    ping_rounds(sim, target, rounds)
}

/// Local unicast (§6.1's first test): ping-pong between two agents on
/// server 0 — exercises the local bus, no causal machinery.
///
/// # Errors
///
/// Propagates topology validation and simulation errors.
pub fn local_unicast(
    spec: TopologySpec,
    mode: StampMode,
    model: CostModel,
    rounds: u32,
) -> Result<Measurement> {
    let sim = build_sim(spec, mode, model)?;
    ping_rounds(sim, ServerId::new(0), rounds)
}

/// Broadcast (Figure 8): the main agent sends to the echo agent of every
/// other server and waits for all echoes; returns the average completion
/// time over `rounds`.
///
/// # Errors
///
/// Propagates topology validation and simulation errors.
pub fn broadcast(
    spec: TopologySpec,
    mode: StampMode,
    model: CostModel,
    rounds: u32,
) -> Result<Measurement> {
    let mut sim = build_sim(spec, mode, model)?;
    let main = AgentId::new(ServerId::new(0), MAIN_AGENT);
    let targets: Vec<ServerId> = sim
        .topology()
        .servers()
        .filter(|s| *s != ServerId::new(0))
        .collect();
    let mut total = VDuration::ZERO;
    for _ in 0..rounds {
        let t0 = sim.now();
        for &t in &targets {
            sim.client_send(main, AgentId::new(t, ECHO_AGENT), Notification::signal("b"));
        }
        sim.run_until_quiet()?;
        total += sim.last_delivery() - t0;
    }
    Ok(Measurement {
        avg: VDuration::from_micros(total.as_micros() / u64::from(rounds.max(1))),
        stats: sim.total_stats(),
    })
}

/// Average end-to-end delivery time of a sequential pair workload: each
/// `(from, to)` pair sends one notification from server `from`'s client
/// agent to server `to`'s echo agent and waits for the bus to go quiet.
/// Used by the domain-splitting experiment to price decompositions under
/// application-shaped traffic.
///
/// # Errors
///
/// Propagates topology validation and simulation errors, and rejects
/// out-of-range or self-addressed pairs with [`aaa_base::Error::Config`].
pub fn pair_workload_avg_time(
    spec: TopologySpec,
    mode: StampMode,
    model: CostModel,
    pairs: &[(u16, u16)],
) -> Result<VDuration> {
    let mut sim = build_sim(spec, mode, model)?;
    let n = sim.topology().server_count() as u16;
    let mut total = VDuration::ZERO;
    let mut count = 0u64;
    for &(from, to) in pairs {
        if from >= n || to >= n || from == to {
            return Err(aaa_base::Error::Config(format!(
                "invalid workload pair ({from}, {to}) for {n} servers"
            )));
        }
        let t0 = sim.now();
        sim.client_send(
            AgentId::new(ServerId::new(from), MAIN_AGENT),
            AgentId::new(ServerId::new(to), ECHO_AGENT),
            Notification::signal("w"),
        );
        sim.run_until_quiet()?;
        total += sim.last_delivery() - t0;
        count += 1;
    }
    Ok(VDuration::from_micros(total.as_micros() / count.max(1)))
}

/// Average stamp bytes per transmitted message for a pair-traffic
/// workload — the Appendix-A ablation quantity.
///
/// # Errors
///
/// Propagates topology validation and simulation errors.
pub fn stamp_bytes_per_message(spec: TopologySpec, mode: StampMode, rounds: u32) -> Result<f64> {
    let m = remote_unicast(spec, mode, CostModel::zero(), rounds)?;
    if m.stats.transmitted == 0 {
        return Ok(0.0);
    }
    Ok(m.stats.stamp_bytes as f64 / m.stats.transmitted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farthest_in_bus_is_in_last_leaf() {
        let topo = TopologySpec::bus(3, 3).validate().unwrap();
        let far = farthest_server(&topo).unwrap();
        // Leaf 3 holds servers 6..9; its non-router members are 7 and 8.
        assert_eq!(far, ServerId::new(8));
    }

    #[test]
    fn local_unicast_is_cheap_and_flat() {
        let a = local_unicast(
            TopologySpec::single_domain(10),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            5,
        )
        .unwrap();
        let b = local_unicast(
            TopologySpec::single_domain(50),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            5,
        )
        .unwrap();
        // Local traffic bypasses the causal machinery entirely: its cost
        // must not grow with the number of servers.
        assert_eq!(a.avg, b.avg);
        // And it is far below even the smallest remote round trip.
        assert!(a.avg.as_millis_f64() < 40.0);
    }

    #[test]
    fn remote_unicast_matches_paper_scale() {
        // Paper Figure 7: ≈ 61 ms at 10 servers, ≈ 201 ms at 50.
        let t10 = remote_unicast_avg_rtt(
            TopologySpec::single_domain(10),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            5,
        )
        .unwrap()
        .as_millis_f64();
        let t50 = remote_unicast_avg_rtt(
            TopologySpec::single_domain(50),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            5,
        )
        .unwrap()
        .as_millis_f64();
        assert!((t10 - 61.0).abs() < 10.0, "t(10) = {t10}");
        assert!((t50 - 201.0).abs() < 25.0, "t(50) = {t50}");
    }

    #[test]
    fn domains_turn_quadratic_into_linear() {
        // Flat vs bus-of-√n-domains at n = 100: the decomposition must win
        // clearly (Figure 11's crossover is far below 100).
        let flat = remote_unicast_avg_rtt(
            TopologySpec::single_domain(100),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            3,
        )
        .unwrap();
        let bus = remote_unicast_avg_rtt(
            TopologySpec::bus(10, 10),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            3,
        )
        .unwrap();
        assert!(
            bus.as_millis_f64() < flat.as_millis_f64(),
            "bus {bus} should beat flat {flat} at n=100"
        );
    }

    #[test]
    fn broadcast_grows_fast_without_domains() {
        let t10 = broadcast(
            TopologySpec::single_domain(10),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            2,
        )
        .unwrap()
        .avg
        .as_millis_f64();
        let t30 = broadcast(
            TopologySpec::single_domain(30),
            StampMode::Updates,
            CostModel::paper_calibrated(),
            2,
        )
        .unwrap()
        .avg
        .as_millis_f64();
        // Paper Figure 8: 636 ms at 10 servers, 2771 at 30 — superlinear.
        assert!(t10 > 150.0 && t10 < 1300.0, "t(10) = {t10}");
        assert!(t30 / t10 > 3.0, "superlinear growth: {t10} -> {t30}");
    }

    #[test]
    fn stamp_bytes_updates_much_smaller() {
        let full =
            stamp_bytes_per_message(TopologySpec::single_domain(20), StampMode::Full, 10).unwrap();
        let upd = stamp_bytes_per_message(TopologySpec::single_domain(20), StampMode::Updates, 10)
            .unwrap();
        assert!(upd * 5.0 < full, "updates {upd}B vs full {full}B");
    }
}
