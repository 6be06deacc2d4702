//! Per-link traffic instruments shared by both transports.
//!
//! [`NetMetrics`] is the optional metric bundle of a transport endpoint
//! ([`crate::MemoryEndpoint`], [`crate::MuxTcpEndpoint`]): frames and
//! payload bytes per direction and peer. Counters are minted when a meter
//! is attached, and only for the peers the endpoint exchanges frames with
//! — its domain neighbours, which the runtime passes in — so a server
//! holds `4 × neighbours` series rather than `4 × n` (`4·n²` across the
//! network). The hot path binary-searches that short sorted list and
//! performs one relaxed atomic add, no lock, no map lookup; traffic with
//! any other server is not counted.
//!
//! Metric vocabulary (families carry the meter's base labels, for example
//! `server="<id>"`; each sample adds `peer="<id>"`):
//!
//! | name | kind | unit |
//! |---|---|---|
//! | `aaa_net_tx_frames_total` | counter | transport frames |
//! | `aaa_net_tx_bytes_total` | counter | payload bytes |
//! | `aaa_net_rx_frames_total` | counter | transport frames |
//! | `aaa_net_rx_bytes_total` | counter | payload bytes |

use aaa_base::ServerId;
use aaa_obs::{Counter, Meter};

/// Per-peer traffic counters of one transport endpoint.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// The counted peers, ascending; `counters[i]` belongs to `peers[i]`.
    peers: Vec<ServerId>,
    counters: Vec<PeerCounters>,
}

#[derive(Debug, Clone)]
struct PeerCounters {
    tx_frames: Counter,
    tx_bytes: Counter,
    rx_frames: Counter,
    rx_bytes: Counter,
}

impl NetMetrics {
    /// Mints tx/rx counters toward each of `peers` (any order).
    pub fn new(meter: &Meter, peers: &[ServerId]) -> Self {
        let mut peers = peers.to_vec();
        peers.sort_unstable();
        peers.dedup();
        let counters = peers
            .iter()
            .map(|p| {
                let label = [("peer", p.as_u16().to_string())];
                PeerCounters {
                    tx_frames: meter.counter_with(
                        "aaa_net_tx_frames_total",
                        "Transport frames sent to a peer",
                        &label,
                    ),
                    tx_bytes: meter.counter_with(
                        "aaa_net_tx_bytes_total",
                        "Transport payload bytes sent to a peer",
                        &label,
                    ),
                    rx_frames: meter.counter_with(
                        "aaa_net_rx_frames_total",
                        "Transport frames received from a peer",
                        &label,
                    ),
                    rx_bytes: meter.counter_with(
                        "aaa_net_rx_bytes_total",
                        "Transport payload bytes received from a peer",
                        &label,
                    ),
                }
            })
            .collect();
        NetMetrics { peers, counters }
    }

    fn of(&self, peer: ServerId) -> Option<&PeerCounters> {
        let i = self.peers.binary_search(&peer).ok()?;
        self.counters.get(i)
    }

    /// Records one frame of `len` payload bytes sent to `peer`.
    pub fn on_tx(&self, peer: ServerId, len: usize) {
        if let Some(c) = self.of(peer) {
            c.tx_frames.inc();
            c.tx_bytes.add(len as u64);
        }
    }

    /// Records one frame of `len` payload bytes received from `peer`.
    pub fn on_rx(&self, peer: ServerId, len: usize) {
        if let Some(c) = self.of(peer) {
            c.rx_frames.inc();
            c.rx_bytes.add(len as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_obs::Registry;

    #[test]
    fn counters_index_by_peer() {
        let registry = Registry::new();
        let meter = Meter::new(&registry).with_label("server", "0");
        let m = NetMetrics::new(&meter, &[ServerId::new(1), ServerId::new(0)]);
        m.on_tx(ServerId::new(1), 10);
        m.on_tx(ServerId::new(1), 5);
        m.on_rx(ServerId::new(0), 7);
        // Peers without counters are ignored, not panicked on.
        m.on_tx(ServerId::new(9), 1);

        let snap = registry.snapshot();
        let labels = [("server", "0"), ("peer", "1")];
        assert_eq!(snap.counter("aaa_net_tx_frames_total", &labels), Some(2));
        assert_eq!(snap.counter("aaa_net_tx_bytes_total", &labels), Some(15));
        assert_eq!(
            snap.counter("aaa_net_rx_bytes_total", &[("server", "0"), ("peer", "0")]),
            Some(7)
        );
        assert_eq!(snap.sum_counter("aaa_net_tx_frames_total"), 2);
    }
}
