//! The six workloads and the seeded traffic generator they share.
//!
//! Every workload uses `StampMode::Updates` (the default) and a counting
//! sink agent `1` on every server. Why each exists is recorded next to
//! its definition and repeated in `BENCHMARK.json` and `PERF.md`.

use aaa_base::{AgentId, ServerId};
use aaa_mom::Notification;
use aaa_topology::TopologySpec;

use crate::oracle::{encode_payload, KIND_MSG};
use crate::rng::SplitMix;

/// Messages per `send_batch` / `client_send_batch` call.
pub const BURST: usize = 32;
/// Local id of the sink agent on every server.
pub const SINK_LOCAL: u32 = 1;
/// Local id of the ping / echo agents.
pub const PING_LOCAL: u32 = 2;
/// Local id the generator sends from (a client identity, not an agent).
pub const CLIENT_LOCAL: u32 = 9;
/// Local id of the relayed topic agent (as in the relay tests).
pub const TOPIC_LOCAL: u32 = 500_000;
/// Subscribers of the `durable_fanout` topic.
pub const SUBSCRIBERS: u32 = 64;
/// Publications allowed in flight during `durable_fanout` saturation.
pub const FANOUT_WINDOW: u64 = 8;
/// Random padding appended to a payload: `0..MAX_PAD` bytes.
const MAX_PAD: u64 = 32;
/// Padding of a publication: `0..PUBLICATION_PAD` bytes. Narrower, because
/// the durable workload's exact-bytes prefix is only 16 publications long
/// and a wide range would show as seed-to-seed noise in
/// `wire_bytes_per_msg`.
pub const PUBLICATION_PAD: u64 = 8;

/// Who sends to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Server `i` sends to server `i + 1`: sparse clock deltas, no
    /// postponement, and on a bus both intra-domain hops and two-router
    /// crossings.
    Ring,
    /// Every sender picks seeded uniform-random destinations: dense
    /// deltas and real postponement.
    Mesh,
    /// One relayed topic on server 0 fans out to subscribers on server 1
    /// through durable per-subscriber queues.
    Fanout,
}

/// The execution substrate of the runtime leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Sharded event loops over the in-memory transport.
    EventedMemory,
    /// Sharded event loops over multiplexed TCP on loopback.
    EventedMuxTcp,
    /// One thread per server, persistent stores and a durable relay.
    ThreadedDurable,
}

/// One workload: a topology, a substrate and a traffic pattern.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub traffic: Traffic,
    pub substrate: Substrate,
    topology: fn(bool) -> TopologySpec,
}

/// All workloads, in the order they are documented.
pub const WORKLOADS: [Workload; 6] = [
    // The production hot path: channel, frame, link and runtime do the
    // work; clocks are 8-9 wide and storage is absent.
    Workload {
        name: "bus_ring",
        traffic: Traffic::Ring,
        substrate: Substrate::EventedMemory,
        topology: |_| TopologySpec::bus(8, 8),
    },
    // The 1024-server point: same per-message work, 16x the slots,
    // tables and timers. The smoke run caps it at 64 servers.
    Workload {
        name: "bus_many",
        traffic: Traffic::Ring,
        substrate: Substrate::EventedMemory,
        topology: |smoke| {
            if smoke {
                TopologySpec::bus(8, 8)
            } else {
                TopologySpec::bus(32, 32)
            }
        },
    },
    // The paper's "no domains" baseline: n^2 matrix work per message,
    // sparse deltas.
    Workload {
        name: "flat_wide",
        traffic: Traffic::Ring,
        substrate: Substrate::EventedMemory,
        topology: |smoke| TopologySpec::single_domain(if smoke { 64 } else { 256 }),
    },
    // The same clock layer used differently: dense deltas, postponement.
    Workload {
        name: "flat_mesh",
        traffic: Traffic::Mesh,
        substrate: Substrate::EventedMemory,
        topology: |_| TopologySpec::single_domain(32),
    },
    // Storage and the relay do the work; the only threaded-runtime row.
    Workload {
        name: "durable_fanout",
        traffic: Traffic::Fanout,
        substrate: Substrate::ThreadedDurable,
        topology: |_| TopologySpec::single_domain(2),
    },
    // The transport does the work a channel push does on bus_ring.
    Workload {
        name: "tcp_ring",
        traffic: Traffic::Ring,
        substrate: Substrate::EventedMuxTcp,
        topology: |_| TopologySpec::bus(4, 4),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The topology; `smoke` selects the reduced size.
    pub fn topology(&self, smoke: bool) -> TopologySpec {
        (self.topology)(smoke)
    }
}

/// `server`'s agent with local id `local`.
pub fn aid(server: usize, local: u32) -> AgentId {
    AgentId::new(ServerId::new(server as u16), local)
}

/// One generated message, before it becomes a `Notification`. Kept so a
/// batch refused with `Backpressure` can be rebuilt and offered again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desc {
    pub to: u16,
    pub seq: u64,
    pub pad: u8,
}

/// Builds the batch handed to `send_batch` / `client_send_batch`.
pub fn build_batch(sender: usize, descs: &[Desc]) -> Vec<(AgentId, Notification)> {
    descs
        .iter()
        .map(|d| {
            let body = encode_payload(sender as u32, d.seq, 0, usize::from(d.pad));
            (
                aid(usize::from(d.to), SINK_LOCAL),
                Notification::new(KIND_MSG, body),
            )
        })
        .collect()
}

/// The seeded generator of ring and mesh traffic: the sender visiting
/// order, every destination (mesh) and every payload length come from
/// the seed, so one seed is one input.
pub struct Generator {
    rng: SplitMix,
    n: usize,
    traffic: Traffic,
    order: Vec<u16>,
    cursor: usize,
    /// Next sequence number per (sender, destination); ring traffic has
    /// one destination per sender.
    seqs: Vec<u64>,
}

impl Generator {
    /// A generator for `n` servers.
    pub fn new(seed: u64, n: usize, traffic: Traffic) -> Generator {
        let mut rng = SplitMix::new(seed);
        let mut order: Vec<u16> = (0..n as u16).collect();
        rng.shuffle(&mut order);
        let pairs = if traffic == Traffic::Mesh { n * n } else { n };
        Generator {
            rng,
            n,
            traffic,
            order,
            cursor: 0,
            seqs: vec![1; pairs],
        }
    }

    fn next_desc(&mut self, sender: usize) -> Desc {
        let (to, slot) = match self.traffic {
            Traffic::Mesh => {
                // Uniform over the other n - 1 servers.
                let pick = self.rng.below(self.n as u64 - 1) as usize;
                let to = if pick >= sender { pick + 1 } else { pick };
                (to, sender * self.n + to)
            }
            _ => ((sender + 1) % self.n, sender),
        };
        let seq = self.seqs[slot];
        self.seqs[slot] += 1;
        Desc {
            to: to as u16,
            seq,
            pad: self.rng.below(MAX_PAD) as u8,
        }
    }

    /// The next sender (round-robin over the seeded order) and `len`
    /// messages from it.
    pub fn next_burst(&mut self, len: usize) -> (usize, Vec<Desc>) {
        let sender = usize::from(self.order[self.cursor]);
        self.cursor = (self.cursor + 1) % self.order.len();
        let descs = (0..len).map(|_| self.next_desc(sender)).collect();
        (sender, descs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_with_unique_names_and_valid_topologies() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
            for smoke in [true, false] {
                let topo = w.topology(smoke).validate().unwrap();
                assert!(topo.server_count() >= 2);
                assert!(!smoke || topo.server_count() <= 64);
            }
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let take = |seed| {
            let mut g = Generator::new(seed, 16, Traffic::Mesh);
            (0..40).map(|_| g.next_burst(BURST)).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }

    #[test]
    fn ring_visits_every_sender_and_numbers_each_pair_densely() {
        let n = 8;
        let mut g = Generator::new(1, n, Traffic::Ring);
        let mut seen = vec![0u64; n];
        for _ in 0..3 * n {
            let (sender, descs) = g.next_burst(4);
            for d in &descs {
                assert_eq!(usize::from(d.to), (sender + 1) % n);
                seen[sender] += 1;
                assert_eq!(d.seq, seen[sender]);
            }
        }
        assert!(seen.iter().all(|&c| c == 12));
    }

    #[test]
    fn mesh_never_sends_to_self_and_numbers_per_pair() {
        let n = 6;
        let mut g = Generator::new(9, n, Traffic::Mesh);
        let mut next = vec![1u64; n * n];
        for _ in 0..200 {
            let (sender, descs) = g.next_burst(BURST);
            for d in descs {
                let to = usize::from(d.to);
                assert_ne!(to, sender);
                assert_eq!(d.seq, next[sender * n + to]);
                next[sender * n + to] += 1;
            }
        }
        let batch = build_batch(
            2,
            &[Desc {
                to: 3,
                seq: 5,
                pad: 7,
            }],
        );
        assert_eq!(batch[0].0, aid(3, SINK_LOCAL));
        assert_eq!(batch[0].1.body().len(), crate::oracle::HEADER_LEN + 7);
    }
}
