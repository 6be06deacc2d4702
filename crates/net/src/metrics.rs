//! Per-link traffic instruments shared by both transports.
//!
//! [`NetMetrics`] is the optional metric bundle of a transport endpoint
//! ([`crate::MemoryEndpoint`], [`crate::MuxTcpEndpoint`]): frames and
//! payload bytes per direction and peer. Counters are minted
//! eagerly for every peer when a meter is attached — the hot path indexes a
//! `Vec` and performs one relaxed atomic add, no lock, no map lookup.
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
    tx_frames: Vec<Counter>,
    tx_bytes: Vec<Counter>,
    rx_frames: Vec<Counter>,
    rx_bytes: Vec<Counter>,
}

fn per_peer(meter: &Meter, peers: usize, name: &'static str, help: &'static str) -> Vec<Counter> {
    (0..peers)
        .map(|p| meter.counter_with(name, help, &[("peer", p.to_string())]))
        .collect()
}

impl NetMetrics {
    /// Mints tx/rx counters toward `peers` servers.
    pub fn new(meter: &Meter, peers: usize) -> Self {
        NetMetrics {
            tx_frames: per_peer(
                meter,
                peers,
                "aaa_net_tx_frames_total",
                "Transport frames sent to a peer",
            ),
            tx_bytes: per_peer(
                meter,
                peers,
                "aaa_net_tx_bytes_total",
                "Transport payload bytes sent to a peer",
            ),
            rx_frames: per_peer(
                meter,
                peers,
                "aaa_net_rx_frames_total",
                "Transport frames received from a peer",
            ),
            rx_bytes: per_peer(
                meter,
                peers,
                "aaa_net_rx_bytes_total",
                "Transport payload bytes received from a peer",
            ),
        }
    }

    /// Records one frame of `len` payload bytes sent to `peer`.
    pub fn on_tx(&self, peer: ServerId, len: usize) {
        if let Some(c) = self.tx_frames.get(peer.as_usize()) {
            c.inc();
            self.tx_bytes[peer.as_usize()].add(len as u64);
        }
    }

    /// Records one frame of `len` payload bytes received from `peer`.
    pub fn on_rx(&self, peer: ServerId, len: usize) {
        if let Some(c) = self.rx_frames.get(peer.as_usize()) {
            c.inc();
            self.rx_bytes[peer.as_usize()].add(len as u64);
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
        let m = NetMetrics::new(&meter, 2);
        m.on_tx(ServerId::new(1), 10);
        m.on_tx(ServerId::new(1), 5);
        m.on_rx(ServerId::new(0), 7);
        // Out-of-range peers are ignored, not panicked on.
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
