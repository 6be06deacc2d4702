//! Layer replays: `ServerCore` cannot be opened from outside, so the
//! finer layers are measured by pushing the datagrams the traced run
//! captured, in the same order, through each layer's public functions.
//!
//! - `net.link`: `Datagram::decode/encode`, `LinkReceiver::on_frame`,
//!   `LinkSender::buffer/flush/on_ack`;
//! - `net.frame`: `WireMessage::decode/encode`;
//! - `mom.channel`: shadow `ChannelCore`s fed the same submissions and
//!   wire messages (`submit_with`, `take_transmissions_batched`,
//!   `on_message`);
//! - `clocks`: shadow `CausalState`s fed the clock operations the shadow
//!   channels performed, in the same order (`stamp_send`, `on_frame`,
//!   `can_deliver`, `deliver`);
//! - `mom.engine`: `enqueue` + `step` over the delivered messages;
//! - `topology.routing`: `build_all` and `next_hop`;
//! - `storage.queue` (durable workload): a scratch `SegmentQueue` given
//!   the same record sizes and ack pattern.
//!
//! Stateless work is timed in bulk (one clock pair around the whole
//! loop). Stateful replays time each call and subtract the calibrated
//! cost of the clock pair itself.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use aaa_base::{AgentId, DomainId, DomainServerId, ServerId, VTime};
use aaa_clocks::{Batching, CausalState, PendingStamp, Stamp, StampMode};
use aaa_mom::{
    channel::ChannelCore, AgentMessage, DeliveryPolicy, EngineCore, FnAgent, Notification,
};
use aaa_net::{Datagram, LinkFrame, LinkReceiver, LinkSender, WireMessage};
use aaa_storage::{QueueConfig, SegmentQueue, SyncPolicy};
use aaa_topology::{RoutingTable, Topology};
use bytes::Bytes;

use crate::inline::Step;
use crate::Res;

/// Total time and calls of one timed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    pub total: Duration,
    pub calls: u64,
}

impl Timed {
    fn bulk(total: Duration, calls: usize) -> Timed {
        Timed {
            total,
            calls: calls as u64,
        }
    }

    /// Times a stateless pass of `calls` calls three times and keeps the
    /// fastest: interference only ever adds time.
    fn best_of_three(calls: usize, mut pass: impl FnMut()) -> Timed {
        let fastest = (0..3)
            .map(|_| {
                let started = Instant::now();
                pass();
                started.elapsed()
            })
            .min()
            .unwrap_or_default();
        Timed::bulk(fastest, calls)
    }

    /// Mean ns per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        self.total.as_nanos() as f64 / self.calls.max(1) as f64
    }

    /// Total ns.
    pub fn total_ns(&self) -> f64 {
        self.total.as_nanos() as f64
    }
}

/// Times single calls, subtracting the cost of reading the clock twice.
struct CallTimer {
    overhead: Duration,
}

impl CallTimer {
    /// Calibrates the clock-pair overhead on this machine.
    fn calibrate() -> CallTimer {
        const ROUNDS: u32 = 200_000;
        let started = Instant::now();
        let mut sink = Duration::ZERO;
        for _ in 0..ROUNDS {
            let t = Instant::now();
            sink += t.elapsed();
        }
        std::hint::black_box(sink);
        CallTimer {
            overhead: started.elapsed() / ROUNDS,
        }
    }

    fn time<T>(&self, into: &mut Timed, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        into.total += t.elapsed().saturating_sub(self.overhead);
        into.calls += 1;
        out
    }
}

/// Everything the replays measured, over `wire_msgs` hop-messages.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// Wire messages (one per hop) in the captured steps.
    pub wire_msgs: u64,
    /// Messages delivered to their final agent within the capture.
    pub final_deliveries: u64,
    pub data_datagrams: u64,
    pub ack_datagrams: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    /// Frames received twice (0 on a healthy run).
    pub retransmits: u64,

    pub datagram_decode: Timed,
    pub datagram_encode: Timed,
    pub link_receiver: Timed,
    /// `buffer` + `flush` + `on_ack`, per frame sent.
    pub link_sender: Timed,
    pub frame_decode: Timed,
    pub frame_encode: Timed,

    pub channel_submit: Timed,
    pub channel_take_tx: Timed,
    pub channel_on_message: Timed,
    /// Steps whose shadow channel produced a different number of wire
    /// messages than the real one (0 means the replay was faithful).
    pub channel_mismatches: u64,

    pub stamp_send: Timed,
    pub stamp_entries: u64,
    pub stamp_bytes: u64,
    pub on_frame: Timed,
    pub can_deliver: Timed,
    pub deliver: Timed,
    pub postponed_max: u64,
    /// Shadow stamps that differed from the captured ones.
    pub stamp_mismatches: u64,
    pub state_bytes_per_server: f64,

    pub engine_enqueue_step: Timed,
    pub routing_build_all_ms: f64,
    pub next_hop: Timed,
}

/// One clock operation performed by a shadow channel.
enum ClockOp {
    Stamp {
        server: u16,
        domain: DomainId,
        to: ServerId,
        stamp: Stamp,
    },
    Frame {
        server: u16,
        domain: DomainId,
        from: ServerId,
        stamp: Stamp,
    },
}

fn decode_frames(bytes: &Bytes) -> Res<Option<Vec<LinkFrame>>> {
    match Datagram::decode(bytes.clone()).map_err(|e| format!("captured datagram: {e}"))? {
        Datagram::Ack { .. } => Ok(None),
        Datagram::Data(f) => Ok(Some(vec![f])),
        Datagram::Batch(fs) => Ok(Some(fs)),
    }
}

fn decode_messages(bytes: &Bytes) -> Res<Vec<WireMessage>> {
    decode_frames(bytes)?
        .unwrap_or_default()
        .into_iter()
        .map(|f| WireMessage::decode(f.payload).map_err(|e| format!("captured frame: {e}")))
        .collect()
}

/// `net.link` and `net.frame`, in bulk.
fn replay_wire(steps: &[Step], r: &mut Replay) -> Res<()> {
    // Datagram decode over every received datagram.
    let inputs: Vec<&Bytes> = steps
        .iter()
        .filter_map(|s| s.input.as_ref().map(|(_, b)| b))
        .collect();
    r.datagram_decode = Timed::best_of_three(inputs.len(), || {
        for b in &inputs {
            std::hint::black_box(Datagram::decode((*b).clone()).is_ok());
        }
    });

    // Link receivers: one per directed link, resolved before timing.
    let mut rx_index: HashMap<(u16, u16), usize> = HashMap::new();
    let mut rx_ops: Vec<(usize, LinkFrame)> = Vec::new();
    for s in steps {
        let Some((from, bytes)) = &s.input else {
            continue;
        };
        match decode_frames(bytes)? {
            None => r.ack_datagrams += 1,
            Some(frames) => {
                r.data_datagrams += 1;
                let next = rx_index.len();
                let idx = *rx_index.entry((*from, s.server)).or_insert(next);
                rx_ops.extend(frames.into_iter().map(|f| (idx, f)));
            }
        }
    }
    let mut receivers: Vec<LinkReceiver> =
        (0..rx_index.len()).map(|_| LinkReceiver::new()).collect();
    let payloads: Vec<Bytes> = rx_ops.iter().map(|(_, f)| f.payload.clone()).collect();
    r.frames = rx_ops.len() as u64;
    r.frame_bytes = payloads.iter().map(|p| p.len() as u64).sum();
    let started = Instant::now();
    let mut released = 0usize;
    for (idx, frame) in rx_ops {
        released += receivers[idx].on_frame(frame).delivered.len();
    }
    r.link_receiver = Timed::bulk(started.elapsed(), payloads.len());
    // A frame the receiver did not release was a retransmitted duplicate.
    r.retransmits = (payloads.len() - released) as u64;

    // Frame decode and encode; each result is dropped at once, as the
    // server drops it, so the pass stays in cache the way a step does.
    r.frame_decode = Timed::best_of_three(payloads.len(), || {
        for p in &payloads {
            std::hint::black_box(WireMessage::decode(p.clone()).is_ok());
        }
    });
    let messages: Vec<WireMessage> = payloads
        .iter()
        .map(|p| WireMessage::decode(p.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("captured frame: {e}"))?;
    r.frame_encode = Timed::best_of_three(messages.len(), || {
        for m in &messages {
            std::hint::black_box(m.encode().len());
        }
    });

    // Link senders: the payloads each server emitted, per link, and the
    // cumulative acks it received, in step order.
    enum TxOp {
        Buffer(usize, Bytes),
        Flush(usize),
        Ack(usize),
    }
    let mut tx_index: HashMap<(u16, u16), usize> = HashMap::new();
    let mut tx_ops = Vec::new();
    let mut sent_frames = 0usize;
    for s in steps {
        if let Some((from, bytes)) = &s.input {
            if let Ok(Datagram::Ack { .. }) = Datagram::decode(bytes.clone()) {
                if let Some(&idx) = tx_index.get(&(s.server, *from)) {
                    tx_ops.push(TxOp::Ack(idx));
                }
            }
        }
        for (to, bytes) in &s.out {
            let Some(frames) = decode_frames(bytes)? else {
                continue;
            };
            let next = tx_index.len();
            let idx = *tx_index.entry((s.server, *to)).or_insert(next);
            sent_frames += frames.len();
            tx_ops.extend(frames.into_iter().map(|f| TxOp::Buffer(idx, f.payload)));
            tx_ops.push(TxOp::Flush(idx));
        }
    }
    let mut senders: Vec<LinkSender> = (0..tx_index.len()).map(|_| LinkSender::new()).collect();
    let mut flushed: Vec<Vec<LinkFrame>> = Vec::new();
    let now = VTime::ZERO;
    let started = Instant::now();
    for op in tx_ops {
        match op {
            TxOp::Buffer(idx, payload) => flushed.extend(senders[idx].buffer(payload, now)),
            TxOp::Flush(idx) => flushed.extend(senders[idx].flush()),
            // The replayed senders number frames from 1, the captured acks
            // carry the real numbering; acking everything buffered so far
            // does the same work (pop the acked prefix).
            TxOp::Ack(idx) => {
                let upto = senders[idx].next_seq() - 1;
                senders[idx].on_ack(upto);
            }
        }
    }
    r.link_sender = Timed::bulk(started.elapsed(), sent_frames);
    let datagrams: Vec<Datagram> = flushed
        .into_iter()
        .filter_map(Datagram::for_frames)
        .collect();
    r.datagram_encode = Timed::best_of_three(datagrams.len(), || {
        for d in &datagrams {
            std::hint::black_box(d.encode().len());
        }
    });
    Ok(())
}

/// `mom.channel`, through shadow channels; returns the clock operations
/// they performed and the messages they delivered locally.
fn replay_channel(
    steps: &[Step],
    topology: &Topology,
    timer: &CallTimer,
    r: &mut Replay,
) -> Res<(Vec<ClockOp>, Vec<AgentMessage>)> {
    let mut shadows: HashMap<u16, ChannelCore> = HashMap::new();
    let mut ops = Vec::new();
    let mut delivered = Vec::new();
    for s in steps {
        let me = ServerId::new(s.server);
        let shadow = match shadows.entry(s.server) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(
                ChannelCore::new(topology, me, StampMode::Updates)
                    .map_err(|e| format!("shadow channel: {e}"))?,
            ),
        };
        if let Some((from, bytes)) = &s.input {
            let from = ServerId::new(*from);
            for msg in decode_messages(bytes)? {
                if let Some(stamp) = &msg.stamp {
                    ops.push(ClockOp::Frame {
                        server: s.server,
                        domain: msg.domain,
                        from,
                        stamp: stamp.clone(),
                    });
                }
                let local = timer
                    .time(&mut r.channel_on_message, || shadow.on_message(from, msg))
                    .map_err(|e| format!("shadow on_message: {e}"))?;
                delivered.extend(local);
            }
        }
        // Messages that entered the bus in this step: those whose origin
        // is this server. Message ids are assigned in submission order,
        // which recovers the queue order the per-peer datagrams lost.
        let mut emitted = 0usize;
        let mut origin: Vec<WireMessage> = Vec::new();
        for (_, bytes) in &s.out {
            for msg in decode_messages(bytes)? {
                emitted += 1;
                if msg.src_server == me {
                    origin.push(msg);
                }
            }
        }
        if emitted == 0 && s.input.is_none() {
            continue; // an idle tick
        }
        origin.sort_by_key(|m| m.id.seq());
        for msg in origin {
            let policy = if msg.stamp.is_some() {
                DeliveryPolicy::Causal
            } else {
                DeliveryPolicy::Unordered
            };
            let note = Notification::new(msg.kind, msg.body);
            timer
                .time(&mut r.channel_submit, || {
                    shadow.submit_with(msg.from_agent, msg.to_agent, note, policy)
                })
                .map_err(|e| format!("shadow submit: {e}"))?;
        }
        let taken = timer
            .time(&mut r.channel_take_tx, || {
                shadow.take_transmissions_batched(true)
            })
            .map_err(|e| format!("shadow take_transmissions: {e}"))?;
        if taken.len() != emitted {
            r.channel_mismatches += 1;
        }
        r.wire_msgs += taken.len() as u64;
        for (hop, msg) in taken {
            if let Some(stamp) = msg.stamp {
                ops.push(ClockOp::Stamp {
                    server: s.server,
                    domain: msg.domain,
                    to: hop,
                    stamp,
                });
            }
        }
    }
    Ok((ops, delivered))
}

/// One server's shadow clock state: a `CausalState` per domain and the
/// postponed list shared by them, as in the channel.
#[derive(Default)]
struct ShadowClocks {
    items: Vec<(DomainId, CausalState)>,
    postponed: Vec<(usize, DomainServerId, PendingStamp)>,
}

/// `clocks`, through shadow `CausalState`s driven by the operation log.
fn replay_clocks(
    ops: Vec<ClockOp>,
    topology: &Topology,
    timer: &CallTimer,
    r: &mut Replay,
) -> Res<()> {
    let dsid = |domain: DomainId, server: ServerId| -> Res<(DomainServerId, usize)> {
        let info = topology
            .domain(domain)
            .map_err(|e| format!("clock replay: {e}"))?;
        let id = info
            .domain_server_id(server)
            .ok_or_else(|| format!("clock replay: {server} is not in {domain}"))?;
        Ok((id, info.size()))
    };
    let mut servers: HashMap<u16, ShadowClocks> = HashMap::new();
    for op in ops {
        let (server, domain) = match &op {
            ClockOp::Stamp { server, domain, .. } | ClockOp::Frame { server, domain, .. } => {
                (*server, *domain)
            }
        };
        let shadow = servers.entry(server).or_default();
        let item = match shadow.items.iter().position(|(d, _)| *d == domain) {
            Some(i) => i,
            None => {
                let (me, size) = dsid(domain, ServerId::new(server))?;
                shadow
                    .items
                    .push((domain, CausalState::new(me, size, StampMode::Updates)));
                shadow.items.len() - 1
            }
        };
        match op {
            ClockOp::Stamp { to, stamp, .. } => {
                let (to, _) = dsid(domain, to)?;
                let clock = &mut shadow.items[item].1;
                let made = timer.time(&mut r.stamp_send, || {
                    clock.stamp_send(to, Batching::Grouped)
                });
                r.stamp_entries += made.entry_count() as u64;
                r.stamp_bytes += made.encoded_len() as u64;
                if made != stamp {
                    r.stamp_mismatches += 1;
                }
            }
            ClockOp::Frame { from, stamp, .. } => {
                let (from, _) = dsid(domain, from)?;
                let clock = &mut shadow.items[item].1;
                let pending = timer.time(&mut r.on_frame, || clock.on_frame(from, stamp));
                shadow.postponed.push((item, from, pending));
                r.postponed_max = r.postponed_max.max(shadow.postponed.len() as u64);
                // The channel's pump: deliver everything deliverable.
                loop {
                    let mut hit = None;
                    for (i, (it, from, pending)) in shadow.postponed.iter().enumerate() {
                        let clock = &shadow.items[*it].1;
                        if timer.time(&mut r.can_deliver, || clock.can_deliver(*from, pending)) {
                            hit = Some(i);
                            break;
                        }
                    }
                    let Some(i) = hit else { break };
                    let (it, from, pending) = shadow.postponed.remove(i);
                    let clock = &mut shadow.items[it].1;
                    timer.time(&mut r.deliver, || clock.deliver(from, &pending));
                }
            }
        }
    }
    let mut state_bytes = 0usize;
    for shadow in servers.values() {
        for (_, clock) in &shadow.items {
            let mut image = Vec::new();
            clock.write_bytes(&mut image);
            state_bytes += image.len();
        }
    }
    r.state_bytes_per_server = state_bytes as f64 / servers.len().max(1) as f64;
    Ok(())
}

/// `mom.engine`: enqueue + step (with a no-op agent) per delivery.
fn replay_engine(delivered: Vec<AgentMessage>, r: &mut Replay) {
    let mut engine = EngineCore::new();
    let mut known: Vec<AgentId> = Vec::new();
    for m in &delivered {
        if !known.contains(&m.to) {
            known.push(m.to);
            engine.register(m.to, Box::new(FnAgent::new(|_, _, _| {})));
        }
    }
    let calls = delivered.len();
    let started = Instant::now();
    let mut reacted = 0usize;
    for m in delivered {
        engine.enqueue(m);
        reacted += usize::from(engine.step().is_some_and(|rx| rx.reacted));
    }
    r.engine_enqueue_step = Timed::bulk(started.elapsed(), calls);
    std::hint::black_box(reacted);
}

/// `topology.routing`: table construction and one lookup per hop.
fn replay_routing(steps: &[Step], topology: &Topology, r: &mut Replay) -> Res<()> {
    let started = Instant::now();
    let tables = RoutingTable::build_all(topology).map_err(|e| format!("build_all: {e}"))?;
    r.routing_build_all_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut lookups: Vec<(usize, ServerId)> = Vec::new();
    for s in steps {
        for (_, bytes) in &s.out {
            for msg in decode_messages(bytes)? {
                lookups.push((usize::from(s.server), msg.dest_server));
            }
        }
    }
    r.next_hop = Timed::best_of_three(lookups.len(), || {
        for (server, dest) in &lookups {
            std::hint::black_box(tables[*server].next_hop(*dest).is_ok());
        }
    });
    Ok(())
}

/// Runs every replay over the captured steps.
pub fn run(steps: &[Step], topology: &Topology) -> Res<Replay> {
    let mut r = Replay::default();
    let timer = CallTimer::calibrate();
    replay_wire(steps, &mut r)?;
    let (ops, delivered) = replay_channel(steps, topology, &timer, &mut r)?;
    r.final_deliveries = delivered.len() as u64;
    replay_clocks(ops, topology, &timer, &mut r)?;
    replay_engine(delivered, &mut r);
    replay_routing(steps, topology, &mut r)?;
    Ok(r)
}

/// The `storage.queue` numbers of the durable workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueReplay {
    pub enqueue_sync_us: f64,
    pub ack_sync_us: f64,
    pub enqueue_nosync_ns: f64,
    pub ack_ns: f64,
    pub pending_scan_ns: f64,
    pub bytes_per_record: f64,
    pub reopen_ms: f64,
    pub compact_ms: f64,
}

/// A scratch `SegmentQueue` given records of `payload_len` bytes and the
/// relay's ack pattern (a cumulative ack per delivery): appends and acks
/// under both sync policies, the pending scan, compaction and reopening.
pub fn replay_queue(
    dir: &Path,
    records: usize,
    payload_len: usize,
    stamp_len: usize,
) -> Res<QueueReplay> {
    let io = |what: &'static str| move |e: aaa_base::Error| format!("scratch queue {what}: {e}");
    let mut q = QueueReplay::default();
    let payload = vec![0x5Au8; payload_len];
    let stamp = vec![0x3Cu8; stamp_len];

    // Appends with fdatasync per record (the relay's default).
    let sync_dir = dir.join("queue-sync");
    let mut queue = SegmentQueue::open(&sync_dir, QueueConfig::default()).map_err(io("open"))?;
    let sync_records = records.min(256);
    let started = Instant::now();
    for tick in 0..sync_records {
        queue
            .enqueue(tick as u64, stamp.clone(), payload.clone())
            .map_err(io("enqueue"))?;
    }
    q.enqueue_sync_us = started.elapsed().as_secs_f64() * 1e6 / sync_records as f64;
    // The relay journals one cumulative ack per delivery, synced too.
    let started = Instant::now();
    for upto in 1..=sync_records as u64 {
        queue.ack_up_to(upto).map_err(io("ack"))?;
    }
    q.ack_sync_us = started.elapsed().as_secs_f64() * 1e6 / sync_records as f64;
    drop(queue);

    // The same appends left in the page cache: the cost of everything but
    // the sync.
    let cfg = QueueConfig {
        sync: SyncPolicy::OsBuffered,
        ..QueueConfig::default()
    };
    let nosync_dir = dir.join("queue-nosync");
    let mut queue = SegmentQueue::open(&nosync_dir, cfg).map_err(io("open"))?;
    let started = Instant::now();
    for tick in 0..records {
        queue
            .enqueue(tick as u64, stamp.clone(), payload.clone())
            .map_err(io("enqueue"))?;
    }
    q.enqueue_nosync_ns = started.elapsed().as_nanos() as f64 / records as f64;
    q.bytes_per_record = queue.stats().bytes_written() as f64 / records as f64;

    // The dispatch scan over the whole backlog.
    let scans = 16;
    let started = Instant::now();
    let mut seen = 0usize;
    for _ in 0..scans {
        seen += queue.pending(records as u64).count();
    }
    q.pending_scan_ns = started.elapsed().as_nanos() as f64 / scans as f64;
    std::hint::black_box(seen);

    // Reopen with the full backlog journaled: the read side.
    drop(queue);
    let started = Instant::now();
    let mut queue = SegmentQueue::open(&nosync_dir, cfg).map_err(io("reopen"))?;
    q.reopen_ms = started.elapsed().as_secs_f64() * 1e3;
    if queue.depth() != records {
        return Err(format!(
            "scratch queue reopened with {} of {records} records",
            queue.depth()
        ));
    }

    // One cumulative ack per delivery, for the first half.
    let half = (records / 2).max(1) as u64;
    let started = Instant::now();
    for upto in 1..=half {
        queue.ack_up_to(upto).map_err(io("ack"))?;
    }
    q.ack_ns = started.elapsed().as_nanos() as f64 / half as f64;

    let started = Instant::now();
    queue.compact(records as u64).map_err(io("compact"))?;
    q.compact_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_timer_subtracts_its_own_overhead() {
        let timer = CallTimer::calibrate();
        assert!(timer.overhead < Duration::from_micros(5));
        let mut t = Timed::default();
        for _ in 0..1000 {
            timer.time(&mut t, || std::hint::black_box(1 + 1));
        }
        assert_eq!(t.calls, 1000);
        // A no-op call must come out near zero, not near the clock cost.
        assert!(t.mean_ns() < 200.0, "{}", t.mean_ns());
    }
}
