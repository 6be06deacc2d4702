//! Experiment X2 — persistence traffic per message, with vs without
//! domains.
//!
//! §3 motivates the decomposition with two costs: network overload *and*
//! "high disk I/O activity to maintain a persistent image of the matrix on
//! each server". Here we enable real transactional persistence in the
//! simulator and count the bytes each configuration writes per delivered
//! message. The simulated servers run no relay journal, so every step
//! writes a checkpoint of the whole state; a server whose relay journals
//! to disk writes only what each step changed (DESIGN.md §17.1).

use aaa_base::{AgentId, ServerId};
use aaa_mom::{EchoAgent, Notification, ServerConfig, StampMode};
use aaa_sim::{CostModel, Simulation};
use aaa_topology::TopologySpec;

fn persisted_bytes_per_delivery(spec: TopologySpec) -> f64 {
    let topo = spec.validate().expect("valid topology");
    let config = ServerConfig {
        stamp_mode: StampMode::Updates,
        persist: true,
        ..ServerConfig::default()
    };
    let mut sim = Simulation::new(topo, config, CostModel::zero()).expect("sim builds");
    let servers: Vec<ServerId> = sim.topology().servers().collect();
    for &s in &servers {
        sim.register_agent(s, 1, Box::new(EchoAgent));
    }
    // Ping-pong from server 0 to the farthest server, 20 rounds.
    let target = aaa_sim::experiments::farthest_server(sim.topology()).unwrap();
    for _ in 0..20 {
        sim.client_send(
            AgentId::new(ServerId::new(0), 100),
            AgentId::new(target, 1),
            Notification::signal("ping"),
        );
        sim.run_until_quiet().expect("sim runs");
    }
    let total = sim.total_stats();
    total.disk_bytes as f64 / total.delivered.max(1) as f64
}

fn main() {
    println!("\n## X2: stable-storage bytes per delivered message");
    println!();
    println!("| configuration | disk bytes / delivery |");
    println!("|:---|---:|");
    let mut prev = None;
    for n in [16usize, 36, 64] {
        let flat = persisted_bytes_per_delivery(TopologySpec::single_domain(n as u16));
        let bus = persisted_bytes_per_delivery(aaa_bench::bus_for(n));
        println!("| flat n={n} | {flat:.0} |");
        println!("| bus √n×√n, n={n} | {bus:.0} |");
        assert!(
            bus < flat,
            "domains must shrink the persistent image: {bus} vs {flat} at n={n}"
        );
        if let Some((pf, _pb)) = prev {
            // The flat image grows quadratically; the bus image stays small.
            assert!(flat > pf, "flat persistence must grow with n");
        }
        prev = Some((flat, bus));
    }
    println!();
    println!(
        "The flat MOM checkpoints an O(n²) matrix image on every transaction; \
         with domains each server checkpoints only its domains' O(s²) clocks."
    );
}
