//! In-process transport connecting a set of agent servers.
//!
//! Replaces the paper's TCP mesh between JVMs with FIFO byte channels
//! inside one process. Each server owns a [`MemoryEndpoint`]; bytes sent to
//! a peer arrive on the peer's receive queue tagged with the sender's id.
//! Per-(sender → receiver) FIFO ordering is guaranteed (crossbeam channels
//! are FIFO and each endpoint pushes from a single server thread), which is
//! exactly the property the AAA channel's causal protocol needs.
//!
//! The endpoints of one [`MemoryNetwork::create`] share a single table of
//! the `n` inbox senders (one `Arc`) rather than holding `n` clones each,
//! so creating and dropping a network takes `O(n)` channel operations
//! instead of `n²` locked clones and as many locked drops. A send is one
//! bounds-checked index and one channel push. Sending to an endpoint that
//! has been dropped fails with [`Error::Closed`]; an inbox reports
//! [`Error::Closed`] only once the table is gone, i.e. after every
//! endpoint of the network, and every clone of one, has been dropped.

use aaa_base::{Error, Result, ServerId};
use aaa_obs::Meter;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::sync::Arc;

use crate::metrics::NetMetrics;
use crate::transport::{NotifySlot, ReadyNotifier, Transport};

/// A datagram tagged with its sender.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// The server that sent the bytes.
    pub from: ServerId,
    /// The payload.
    pub bytes: Bytes,
}

/// One server's handle on the in-memory network.
#[derive(Debug, Clone)]
pub struct MemoryEndpoint {
    me: ServerId,
    /// Every endpoint's inbox sender, indexed by server id; one table
    /// shared network-wide.
    peers: Arc<[Sender<Incoming>]>,
    inbox: Receiver<Incoming>,
    /// One readiness slot per endpoint, shared network-wide: a sender
    /// pokes the destination's slot right after pushing into its inbox.
    notifiers: Arc<Vec<NotifySlot>>,
    metrics: Option<NetMetrics>,
}

impl Transport for MemoryEndpoint {
    fn me(&self) -> ServerId {
        self.me
    }

    /// Fails with [`Error::UnknownServer`] if `to` is not on the network,
    /// or [`Error::Closed`] if the peer's endpoint has been dropped.
    fn send(&self, to: ServerId, bytes: Bytes) -> Result<()> {
        let tx = self
            .peers
            .get(to.as_usize())
            .ok_or(Error::UnknownServer(to))?;
        let len = bytes.len();
        tx.send(Incoming {
            from: self.me,
            bytes,
        })
        .map_err(|_| Error::Closed("peer endpoint"))?;
        if let Some(slot) = self.notifiers.get(to.as_usize()) {
            slot.notify();
        }
        if let Some(m) = &self.metrics {
            m.on_tx(to, len);
        }
        Ok(())
    }

    fn poll_recv(&self) -> Result<Option<Incoming>> {
        match self.inbox.try_recv() {
            Ok(msg) => {
                if let Some(m) = &self.metrics {
                    m.on_rx(msg.from, msg.bytes.len());
                }
                Ok(Some(msg))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Error::Closed("network")),
        }
    }

    fn set_ready_notifier(&mut self, notifier: ReadyNotifier) {
        if let Some(slot) = self.notifiers.get(self.me.as_usize()) {
            slot.set(notifier);
        }
    }

    /// Subsequent traffic with `peers` updates the
    /// `aaa_net_tx_*`/`aaa_net_rx_*` per-peer counters in the meter's
    /// registry. Without a meter (the default) traffic is uncounted and
    /// costs one branch per frame.
    fn attach_meter(&mut self, meter: &Meter, peers: &[ServerId]) {
        self.metrics = Some(NetMetrics::new(meter, peers));
    }
}

/// Factory for a fully connected in-memory network.
#[derive(Debug)]
pub struct MemoryNetwork;

impl MemoryNetwork {
    /// Creates endpoints for servers `0..n`, fully connected.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the `u16` server-id space.
    pub fn create(n: usize) -> Vec<MemoryEndpoint> {
        assert!(n > 0, "a network needs at least one endpoint");
        // Server ids are u16 on the wire; an unguarded `i as u16` below
        // would silently alias endpoint 65536 onto id 0.
        assert!(
            n <= usize::from(u16::MAX) + 1,
            "server ids are u16: cannot create {n} endpoints"
        );
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let peers: Arc<[Sender<Incoming>]> = txs.into();
        let notifiers = Arc::new((0..n).map(|_| NotifySlot::new()).collect::<Vec<_>>());
        rxs.into_iter()
            .enumerate()
            .map(|(i, inbox)| MemoryEndpoint {
                me: ServerId::new(i as u16),
                peers: peers.clone(),
                inbox,
                notifiers: notifiers.clone(),
                metrics: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point() {
        let eps = MemoryNetwork::create(3);
        eps[0]
            .send(ServerId::new(2), Bytes::from_static(b"hi"))
            .unwrap();
        let got = eps[2].poll_recv().unwrap().expect("message should arrive");
        assert_eq!(got.from, ServerId::new(0));
        assert_eq!(&got.bytes[..], b"hi");
        assert_eq!(eps[0].me(), ServerId::new(0));
    }

    #[test]
    fn per_link_fifo() {
        let eps = MemoryNetwork::create(2);
        for i in 0..100u32 {
            eps[0]
                .send(ServerId::new(1), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..100u32 {
            let got = eps[1].poll_recv().unwrap().expect("queued");
            assert_eq!(got.bytes[..], i.to_le_bytes());
        }
        assert!(eps[1].poll_recv().unwrap().is_none());
    }

    #[test]
    fn unknown_peer_errors() {
        let eps = MemoryNetwork::create(1);
        assert!(matches!(
            eps[0].send(ServerId::new(9), Bytes::new()),
            Err(Error::UnknownServer(_))
        ));
    }

    #[test]
    fn self_send_works() {
        // The channel may loop a frame to itself (degenerate but legal).
        let eps = MemoryNetwork::create(1);
        eps[0]
            .send(ServerId::new(0), Bytes::from_static(b"x"))
            .unwrap();
        assert!(eps[0].poll_recv().unwrap().is_some());
    }

    #[test]
    fn endpoints_share_one_sender_table() {
        let eps = MemoryNetwork::create(4);
        for ep in &eps[1..] {
            assert!(Arc::ptr_eq(&eps[0].peers, &ep.peers));
        }
        assert!(Arc::ptr_eq(&eps[0].peers, &eps[0].clone().peers));
        // The four endpoints are the table's only holders.
        assert_eq!(Arc::strong_count(&eps[0].peers), 4);
    }

    #[test]
    fn send_to_dropped_endpoint_is_closed_others_keep_delivering() {
        let mut eps = MemoryNetwork::create(3);
        drop(eps.pop());
        assert!(matches!(
            eps[0].send(ServerId::new(2), Bytes::from_static(b"x")),
            Err(Error::Closed(_))
        ));
        eps[0]
            .send(ServerId::new(1), Bytes::from_static(b"y"))
            .unwrap();
        eps[1]
            .send(ServerId::new(0), Bytes::from_static(b"z"))
            .unwrap();
        assert_eq!(
            &eps[1].poll_recv().unwrap().expect("delivered").bytes[..],
            b"y"
        );
        assert_eq!(
            &eps[0].poll_recv().unwrap().expect("delivered").bytes[..],
            b"z"
        );
    }

    #[test]
    fn inbox_closes_only_after_every_endpoint_and_clone_is_dropped() {
        let eps = MemoryNetwork::create(3);
        let copy = eps[2].clone();
        // A probe reading server 1's inbox that holds no senders itself.
        let probe = MemoryEndpoint {
            peers: Default::default(),
            ..eps[1].clone()
        };
        let mut holders: Vec<MemoryEndpoint> = eps.into_iter().chain([copy]).collect();
        while let Some(holder) = holders.pop() {
            assert!(probe.poll_recv().unwrap().is_none(), "still held");
            drop(holder);
        }
        assert!(matches!(probe.poll_recv(), Err(Error::Closed(_))));
    }

    #[test]
    fn cross_thread_usage() {
        let eps = MemoryNetwork::create(2);
        let a = eps[0].clone();
        let handle = std::thread::spawn(move || {
            for i in 0..50u32 {
                a.send(ServerId::new(1), Bytes::from(i.to_le_bytes().to_vec()))
                    .unwrap();
            }
        });
        let mut got = 0;
        while got < 50 {
            match eps[1].poll_recv().unwrap() {
                Some(_) => got += 1,
                None => std::thread::yield_now(),
            }
        }
        handle.join().unwrap();
    }
}
