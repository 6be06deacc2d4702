//! Connection-multiplexed TCP: many logical links per socket.
//!
//! The TCP transport. The paper's one-JVM-per-server shape meshes `n`
//! servers with up to `n²` sockets; at C10K scale that is untenable (a
//! bus(32,32) topology would need ~a million potential connections). A
//! [`MuxTcpNetwork`] instead binds **one listener per event-loop shard**
//! and carries every logical link `(x → y)` over the single shared socket
//! to `y`'s shard: `n²` logical links over `O(shards)` sockets. With one
//! shard it is plain localhost TCP.
//!
//! Wire format per frame: `u16` source server, `u16` destination server,
//! `u32` payload length (all little-endian), payload bytes. The
//! destination field is what lets one socket serve every server on a
//! shard — the shard reader demultiplexes by destination into per-server
//! inboxes. A payload over 64 MiB (`MAX_FRAME`) is refused by the
//! sender: the reader cannot tell it from a corrupt stream and would drop
//! the socket every other logical link to that shard shares.
//!
//! **Per-link FIFO** holds because each logical link's frames always
//! travel the same socket (writes serialized under the per-socket lock,
//! one reader per accepted stream), which is the ordering property the
//! AAA channel's causal protocol needs from its substrate.
//!
//! Frames are decoded through [`FrameBuf`]: payloads are shared views into
//! one buffer per read burst, copied once per burst, not per-datagram
//! allocations.
//!
//! Sends never sleep or retry — endpoints are driven from event-loop
//! shards where blocking is banned — so a failed write surfaces
//! immediately as packet loss and the link layer retransmits.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aaa_base::{Error, Result, ServerId};
use aaa_obs::Meter;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::decode::FrameBuf;
use crate::health::{PeerHealth, PeerState};
use crate::memory::Incoming;
use crate::metrics::NetMetrics;
use crate::transport::{NotifySlot, ReadyNotifier, Transport};

/// Mux frame header: source `u16`, destination `u16`, length `u32`.
const HEADER_LEN: usize = 8;

/// Largest payload a frame may carry. The reader treats a longer length
/// prefix as a corrupt stream and drops the connection.
const MAX_FRAME: usize = 64 << 20;

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("mux {context}: {e}"))
}

/// State shared by every endpoint of one mux network.
struct MuxShared {
    shards: usize,
    shard_addrs: Vec<SocketAddr>,
    /// One outbound socket per **destination shard**, shared by every
    /// sender in the process — the multiplexing.
    conns: Vec<Mutex<Option<TcpStream>>>,
    connect_timeout: Duration,
    shutdown: AtomicBool,
    live: AtomicUsize,
    inboxes: Vec<Sender<Incoming>>,
    notify: Vec<NotifySlot>,
    health: PeerHealth,
}

impl std::fmt::Debug for MuxShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxShared")
            .field("shards", &self.shards)
            .field("servers", &self.inboxes.len())
            .finish_non_exhaustive()
    }
}

impl MuxShared {
    fn shard_of(&self, server: ServerId) -> usize {
        server.as_usize() % self.shards
    }

    /// Writes one framed buffer to the destination shard's shared socket,
    /// connecting lazily. Exactly one attempt: shard threads must not
    /// sleep, so there is no in-transport retry — the link layer's
    /// retransmission is the recovery path.
    fn write_to_shard(&self, shard: usize, buf: &[u8]) -> Result<()> {
        let mut conn = self.conns[shard].lock();
        if conn.is_none() {
            // Intentional coupling: the per-socket lock must cover the
            // lazy connect, or two senders race to create the stream and
            // one connection's frames are torn. Bounded by
            // connect_timeout; per-link FIFO depends on this lock.
            // audit:allow(guard-across-blocking)
            let stream = TcpStream::connect_timeout(&self.shard_addrs[shard], self.connect_timeout)
                .map_err(|e| io_err("connect", e))?;
            stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
            *conn = Some(stream);
        }
        let stream = match conn.as_mut() {
            Some(s) => s,
            // Unreachable (inserted just above); surfaced as a failed
            // write so the link layer's retransmission path recovers.
            None => {
                return Err(io_err(
                    "connect",
                    std::io::Error::other("connection missing"),
                ))
            }
        };
        // Intentional coupling: writes to the shared shard socket are
        // serialized under its lock — that serialization IS the
        // per-link FIFO guarantee the causal protocol needs from the
        // substrate. The socket is non-blocking-adjacent (nodelay, no
        // retry sleep), so the hold is one syscall.
        // audit:allow(guard-across-blocking)
        if let Err(e) = stream.write_all(buf) {
            *conn = None; // reconnect on the next attempt
            return Err(io_err("write", e));
        }
        Ok(())
    }
}

/// One server's handle on the multiplexed shard mesh.
#[derive(Debug)]
pub struct MuxTcpEndpoint {
    me: ServerId,
    shared: Arc<MuxShared>,
    inbox: Receiver<Incoming>,
    metrics: Option<NetMetrics>,
}

impl MuxTcpEndpoint {
    /// Appends one framed packet to `out`, refusing a payload the reader
    /// would reject (see [`MAX_FRAME`]).
    fn frame_into(&self, out: &mut Vec<u8>, to: ServerId, bytes: &[u8]) -> Result<()> {
        if bytes.len() > MAX_FRAME {
            return Err(Error::Codec(format!(
                "mux frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                bytes.len()
            )));
        }
        out.extend_from_slice(&self.me.as_u16().to_le_bytes());
        out.extend_from_slice(&to.as_u16().to_le_bytes());
        // Cannot saturate: MAX_FRAME fits a u32.
        out.extend_from_slice(&u32::try_from(bytes.len()).unwrap_or(u32::MAX).to_le_bytes());
        out.extend_from_slice(bytes);
        Ok(())
    }

    fn write_framed(&self, to: ServerId, buf: &[u8]) -> Result<()> {
        if to.as_usize() >= self.shared.inboxes.len() {
            return Err(Error::UnknownServer(to));
        }
        let shard = self.shared.shard_of(to);
        match self.shared.write_to_shard(shard, buf) {
            Ok(()) => {
                self.shared.health.on_success(to);
                Ok(())
            }
            Err(e) => {
                self.shared.health.on_failure(to);
                Err(e)
            }
        }
    }
}

impl Transport for MuxTcpEndpoint {
    fn me(&self) -> ServerId {
        self.me
    }

    /// Fails with [`Error::UnknownServer`] for an unknown peer,
    /// [`Error::Codec`] for a payload over the frame limit (nothing is
    /// written), or a transport error on connect/write failure (one
    /// attempt, no backoff sleep — callers rely on link-layer
    /// retransmission).
    fn send(&self, to: ServerId, bytes: Bytes) -> Result<()> {
        self.send_batch(to, std::slice::from_ref(&bytes))
    }

    /// One buffered socket write for the whole batch; errors as for
    /// `send`.
    fn send_batch(&self, to: ServerId, batch: &[Bytes]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let total: usize = batch.iter().map(|b| HEADER_LEN + b.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for bytes in batch {
            self.frame_into(&mut buf, to, bytes)?;
        }
        self.write_framed(to, &buf)?;
        if let Some(m) = &self.metrics {
            for bytes in batch {
                m.on_tx(to, bytes.len());
            }
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
            Err(TryRecvError::Disconnected) => Err(Error::Closed("mux endpoint")),
        }
    }

    fn set_ready_notifier(&mut self, notifier: ReadyNotifier) {
        if let Some(slot) = self.shared.notify.get(self.me.as_usize()) {
            slot.set(notifier);
        }
    }

    /// Subsequent traffic with `peers` updates the
    /// `aaa_net_tx_*`/`aaa_net_rx_*` per-peer counters.
    fn attach_meter(&mut self, meter: &Meter, peers: &[ServerId]) {
        self.metrics = Some(NetMetrics::new(meter, peers));
    }

    /// Shared across the mesh: the socket to a shard is shared, so is the
    /// evidence about its peers.
    fn peer_state(&self, to: ServerId) -> PeerState {
        self.shared.health.state(to)
    }
}

impl Drop for MuxTcpEndpoint {
    fn drop(&mut self) {
        // AcqRel: the release half orders this endpoint's final sends
        // before the decrement; the acquire half makes the last dropper
        // see them all before it pulls the plug.
        if self.shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last endpoint gone: stop the shard acceptors and readers.
            self.shared.shutdown.store(true, Ordering::Release);
        }
    }
}

/// Factory for a multiplexed localhost mesh: one listener per shard,
/// `n` endpoints demultiplexed onto them.
#[derive(Debug)]
pub struct MuxTcpNetwork;

impl MuxTcpNetwork {
    /// Default outbound connect timeout.
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

    /// Creates endpoints for servers `0..n`, multiplexed over `shards`
    /// listener sockets (server `i` lives on shard `i % shards`).
    ///
    /// # Errors
    ///
    /// Returns a transport error if a listener cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `shards` is zero, or `n` exceeds the `u16`
    /// server-id space.
    pub fn create(n: usize, shards: usize) -> Result<Vec<MuxTcpEndpoint>> {
        Self::create_with_connect_timeout(n, shards, Self::DEFAULT_CONNECT_TIMEOUT)
    }

    /// Like [`MuxTcpNetwork::create`] with an explicit connect timeout.
    ///
    /// # Errors
    ///
    /// As for [`MuxTcpNetwork::create`].
    ///
    /// # Panics
    ///
    /// As for [`MuxTcpNetwork::create`].
    pub fn create_with_connect_timeout(
        n: usize,
        shards: usize,
        timeout: Duration,
    ) -> Result<Vec<MuxTcpEndpoint>> {
        assert!(n > 0, "a network needs at least one endpoint");
        assert!(shards > 0, "a mux network needs at least one shard");
        // Server ids are u16 on the wire; an unguarded cast below would
        // silently alias endpoint 65536 onto id 0.
        assert!(
            n <= usize::from(u16::MAX) + 1,
            "server ids are u16: cannot create {n} endpoints"
        );
        let shards = shards.min(n);
        let mut listeners = Vec::with_capacity(shards);
        let mut shard_addrs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind", e))?;
            shard_addrs.push(listener.local_addr().map_err(|e| io_err("local_addr", e))?);
            listeners.push(listener);
        }
        let mut inboxes = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            inboxes.push(tx);
            rxs.push(rx);
        }
        let shared = Arc::new(MuxShared {
            shards,
            shard_addrs,
            conns: (0..shards).map(|_| Mutex::new(None)).collect(),
            connect_timeout: timeout,
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(n),
            inboxes,
            notify: (0..n).map(|_| NotifySlot::new()).collect(),
            health: PeerHealth::new(n),
        });
        for listener in listeners {
            spawn_shard_acceptor(listener, shared.clone())?;
        }
        Ok(rxs
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| MuxTcpEndpoint {
                me: ServerId::new(i as u16),
                shared: shared.clone(),
                inbox,
                metrics: None,
            })
            .collect())
    }
}

fn spawn_shard_acceptor(listener: TcpListener, shared: Arc<MuxShared>) -> Result<()> {
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err("nonblocking", e))?;
    std::thread::spawn(move || {
        while !shared.shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = shared.clone();
                    std::thread::spawn(move || shard_reader_loop(stream, &shared));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
    });
    Ok(())
}

/// Payload length from an 8-byte `(from, to, len)` header.
fn mux_payload_len(header: &[u8]) -> Option<usize> {
    let &[_, _, _, _, l0, l1, l2, l3] = header else {
        return None;
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    (len <= MAX_FRAME).then_some(len)
}

/// Demultiplexes one accepted stream: decodes mux frames into shared views and
/// routes each to its destination server's inbox, then pokes that
/// server's readiness notifier.
fn shard_reader_loop(stream: TcpStream, shared: &MuxShared) {
    let mut stream = stream;
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut buf = FrameBuf::new();
    let mut scratch = vec![0u8; 64 * 1024];
    while !shared.shutdown.load(Ordering::Acquire) {
        match stream.read(&mut scratch) {
            Ok(0) => return, // peer closed
            Ok(k) => {
                buf.extend(&scratch[..k]);
                let Some(frames) = buf.drain_frames(HEADER_LEN, mux_payload_len) else {
                    return; // corrupt stream: drop the connection
                };
                for frame in frames {
                    let &[f0, f1, t0, t1, ..] = frame.header.as_ref() else {
                        continue; // impossible: drain_frames yields full headers
                    };
                    let from = ServerId::new(u16::from_le_bytes([f0, f1]));
                    let to = ServerId::new(u16::from_le_bytes([t0, t1]));
                    let Some(inbox) = shared.inboxes.get(to.as_usize()) else {
                        continue; // unknown destination: drop the frame
                    };
                    if inbox
                        .send(Incoming {
                            from,
                            bytes: frame.payload,
                        })
                        .is_err()
                    {
                        continue; // endpoint dropped: drop the frame
                    }
                    if let Some(slot) = shared.notify.get(to.as_usize()) {
                        slot.notify();
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::poll_until;
    use std::time::Instant;

    fn s(i: u16) -> ServerId {
        ServerId::new(i)
    }

    fn recv(ep: &MuxTcpEndpoint) -> Incoming {
        poll_until(ep, Duration::from_secs(5))
    }

    #[test]
    fn point_to_point_across_shards() {
        let eps = MuxTcpNetwork::create(4, 2).unwrap();
        assert_eq!(eps[0].shared.shards, 2);
        eps[0].send(s(3), Bytes::from_static(b"hi")).unwrap();
        let got = recv(&eps[3]);
        assert_eq!(got.from, s(0));
        assert_eq!(&got.bytes[..], b"hi");
    }

    #[test]
    fn many_logical_links_share_one_socket() {
        // Four servers on one shard: all 16 logical links run over a
        // single destination socket; every frame still lands correctly.
        let eps = MuxTcpNetwork::create(4, 1).unwrap();
        for from in 0..4u16 {
            for to in 0..4u16 {
                eps[from as usize]
                    .send(s(to), Bytes::from(vec![from as u8, to as u8]))
                    .unwrap();
            }
        }
        for (to, ep) in eps.iter().enumerate() {
            let mut got = Vec::new();
            for _ in 0..4 {
                let inc = recv(ep);
                assert_eq!(inc.bytes[1] as usize, to);
                got.push(inc.from);
            }
            got.sort();
            assert_eq!(got, vec![s(0), s(1), s(2), s(3)]);
        }
    }

    #[test]
    fn per_link_fifo_through_the_mux() {
        let eps = MuxTcpNetwork::create(4, 2).unwrap();
        for i in 0..100u32 {
            eps[1]
                .send(s(2), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..100u32 {
            let got = recv(&eps[2]);
            assert_eq!(got.from, s(1));
            assert_eq!(got.bytes[..], i.to_le_bytes());
        }
    }

    #[test]
    fn unknown_peer_errors() {
        let eps = MuxTcpNetwork::create(2, 1).unwrap();
        assert!(matches!(
            eps[0].send(s(9), Bytes::new()),
            Err(Error::UnknownServer(_))
        ));
    }

    #[test]
    fn notifier_fires_per_arrival() {
        use std::sync::atomic::AtomicUsize;
        let mut eps = MuxTcpNetwork::create(2, 1).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let ep1 = &mut eps[1];
        ep1.set_ready_notifier(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        eps[0].send(s(1), Bytes::from_static(b"x")).unwrap();
        let got = recv(&eps[1]);
        assert_eq!(&got.bytes[..], b"x");
        assert!(hits.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn oversize_frame_is_refused_and_spares_the_shared_socket() {
        // Four servers on one shard: every link into it shares one socket.
        let eps = MuxTcpNetwork::create(4, 1).unwrap();
        eps[0].send(s(1), Bytes::from_static(b"before")).unwrap();
        assert_eq!(&recv(&eps[1]).bytes[..], b"before");
        let oversize = Bytes::from(vec![0u8; MAX_FRAME + 1]);
        assert!(matches!(
            eps[2].send(s(1), oversize.clone()),
            Err(Error::Codec(_))
        ));
        assert!(matches!(
            eps[2].send_batch(s(1), &[Bytes::from_static(b"torn"), oversize]),
            Err(Error::Codec(_))
        ));
        // Nothing was written: the next frame on the socket is another
        // link's, intact.
        eps[3].send(s(1), Bytes::from_static(b"after")).unwrap();
        let got = recv(&eps[1]);
        assert_eq!((got.from, &got.bytes[..]), (s(3), &b"after"[..]));
        assert_eq!(eps[2].peer_state(s(1)), PeerState::Up);
    }

    #[test]
    fn non_listening_port_fails_fast_and_marks_the_peer_down() {
        let eps =
            MuxTcpNetwork::create_with_connect_timeout(2, 1, Duration::from_millis(100)).unwrap();
        // Stop the acceptor: its listener closes and the port refuses.
        eps[0].shared.shutdown.store(true, Ordering::Release);
        let start = Instant::now();
        while eps[0].send(s(1), Bytes::from_static(b"x")).is_ok() {
            assert!(start.elapsed() < Duration::from_secs(5), "port still open");
            std::thread::sleep(Duration::from_millis(1));
        }
        // One attempt per send, no retry sleep: two more failures are
        // far below the 2 s default connect timeout, and make three.
        let start = Instant::now();
        assert!(eps[0].send(s(1), Bytes::from_static(b"x")).is_err());
        assert!(eps[0].send(s(1), Bytes::from_static(b"x")).is_err());
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(eps[0].peer_state(s(1)), PeerState::Down);
    }
}
