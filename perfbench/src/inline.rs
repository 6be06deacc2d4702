//! The inline execution: the harness owns N `ServerCore`s and the queue
//! of `Transmission`s between them, on one thread, the way `aaa-sim`
//! does but with no cost model — the whole sans-IO life of a message
//! (stamp, encode, link, decode, delivery test, merge, reaction, commit)
//! and nothing of the scheduler.
//!
//! The event sequence depends only on the seed, never on the clock: the
//! next step is an injection while fewer than `window` messages are
//! undelivered and a delivery otherwise, timers fire by event count, and
//! the cores see a virtual time derived from the event count. That makes
//! `wire_bytes_per_msg` exact for a seed.
//!
//! With a tracer, the same loop records a span around every call into a
//! core, pushes every datagram through a real transport endpoint on its
//! way into the queue, and captures the datagrams for the layer replays.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aaa_base::{Absorb, AgentId, ServerId, VTime};
use aaa_mom::pubsub::{publication, subscription, TopicAgent};
use aaa_mom::{
    relay_agent, Agent, RelayConfig, SendOptions, ServerConfig, ServerCore, StepStats,
    Transmission, Transport,
};
use aaa_net::{MemoryNetwork, MuxTcpNetwork};
use aaa_storage::{DirStore, MemoryStore, StableStore};
use aaa_topology::Topology;
use aaa_trace::TraceRecorder;
use bytes::Bytes;

use crate::oracle::{delivered_total, encode_payload, SinkAgent, SinkShared, Tally, KIND_MSG};
use crate::rng::SplitMix;
use crate::stat::Stat;
use crate::trace::{spanned, Name, TracedAgent, TracedStore, Tracer};
use crate::workload::{
    aid, build_batch, Generator, Substrate, Traffic, Workload, BURST, CLIENT_LOCAL, FANOUT_WINDOW,
    PUBLICATION_PAD, SINK_LOCAL, SUBSCRIBERS, TOPIC_LOCAL,
};
use crate::{err, Res};

/// Events per microsecond of virtual time: slow enough that the 200 ms
/// link and relay retry timers never fire on a healthy run.
const EVENTS_PER_US: u64 = 16;
/// One server's timers are polled every this many events.
const TICK_EVERY: u64 = 256;
/// The wall clock is read every this many events.
const CLOCK_EVERY: u64 = 64;

/// How the inline execution is sized and instrumented.
#[derive(Clone)]
pub struct InlineOpts {
    pub seed: u64,
    pub smoke: bool,
    pub windows: usize,
    pub window: Duration,
    /// Record spans (the traced run).
    pub tracer: Option<Arc<Tracer>>,
    /// Capture steps for the layer replays: at most this many, and only
    /// for this long after the first one.
    pub capture_steps: usize,
    pub capture_for: Duration,
    /// Record an `aaa-trace` causality trace (run with `windows: 0`: the
    /// check is quadratic in the deliveries per server).
    pub record_causality: bool,
    pub work_dir: PathBuf,
}

/// One call into a core, as captured for the replays: what went in and
/// the datagrams that came out.
pub struct Step {
    pub server: u16,
    pub input: Option<(u16, Bytes)>,
    pub out: Vec<(u16, Bytes)>,
}

/// Exact counts over the whole execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Deliveries to sink agents.
    pub delivered: u64,
    /// Calls into `client_send*` / `on_datagram`.
    pub steps: u64,
    pub datagrams: u64,
    pub wire_bytes: u64,
    pub stats: StepStats,
}

/// What the inline execution measured.
pub struct InlineResult {
    pub core_us_per_msg: Stat,
    /// Bytes handed to the transport per delivered message over the
    /// fixed prefix; exact for a seed.
    pub wire_bytes_per_msg: f64,
    pub tally: Tally,
    pub counts: Counts,
    pub topology: Arc<Topology>,
    pub steps: Vec<Step>,
    /// Size of the last persisted server image (0 without persistence).
    pub image_bytes: u64,
    /// `Trace::check_causality` verdict, when recorded.
    pub causality: Option<Result<(), String>>,
}

struct Item {
    from: u16,
    to: u16,
    bytes: Bytes,
    batch: u64,
}

/// The order in which queued datagrams are processed.
enum Queue {
    /// Global send order (never postpones a message).
    Fifo(VecDeque<Item>),
    /// A seeded random non-empty link each time; per-link FIFO holds, and
    /// links overtake each other, so causal delivery has real work to do.
    Shuffle {
        n: usize,
        links: Vec<VecDeque<Item>>,
        active: Vec<u32>,
        rng: SplitMix,
    },
}

impl Queue {
    fn push(&mut self, item: Item) {
        match self {
            Queue::Fifo(q) => q.push_back(item),
            Queue::Shuffle {
                n, links, active, ..
            } => {
                let link = usize::from(item.from) * *n + usize::from(item.to);
                if links[link].is_empty() {
                    active.push(link as u32);
                }
                links[link].push_back(item);
            }
        }
    }

    fn pop(&mut self) -> Option<Item> {
        match self {
            Queue::Fifo(q) => q.pop_front(),
            Queue::Shuffle {
                links, active, rng, ..
            } => {
                if active.is_empty() {
                    return None;
                }
                let pick = rng.below(active.len() as u64) as usize;
                let link = active[pick] as usize;
                let item = links[link].pop_front();
                if links[link].is_empty() {
                    active.swap_remove(pick);
                }
                item
            }
        }
    }
}

/// Where injected traffic comes from.
enum Source {
    Generated(Generator),
    /// Sequenced publications into the relayed topic.
    Publications {
        topic: AgentId,
        rng: SplitMix,
        published: u64,
    },
}

struct Harness {
    cores: Vec<ServerCore>,
    sinks: Vec<Arc<SinkShared>>,
    queue: Queue,
    source: Source,
    /// Deliveries one injected message ends as (the fan-out factor).
    fan: u64,
    window: u64,
    events: u64,
    attempted: u64,
    refused: u64,
    next_batch: u64,
    counts: Counts,
    tracer: Option<Arc<Tracer>>,
    endpoints: Vec<Box<dyn Transport>>,
    steps: Vec<Step>,
    capture_left: usize,
    capture_until: Option<Instant>,
}

impl Harness {
    fn now(&self) -> VTime {
        VTime::from_micros(self.events / EVENTS_PER_US)
    }

    fn delivered(&self) -> u64 {
        match self.source {
            Source::Generated(_) => self.counts.delivered,
            Source::Publications { .. } => delivered_total(&self.sinks),
        }
    }

    fn outstanding(&self) -> u64 {
        (self.attempted - self.refused) * self.fan - self.delivered()
    }

    /// Books one finished call into `server`: drains its step statistics,
    /// hands its datagrams to the transport and queues them.
    fn finish_step(
        &mut self,
        server: usize,
        input: Option<(u16, Bytes)>,
        out: Vec<Transmission>,
        batch: u64,
    ) -> Res<()> {
        let stats = self.cores[server].take_step_stats();
        if matches!(self.source, Source::Generated(_)) {
            self.counts.delivered += stats.delivered;
        }
        self.counts.stats.absorb(stats);
        if self.capture_left > 0 {
            self.capture_left -= 1;
            if self.capture_until.is_some_and(|t| Instant::now() > t) {
                self.capture_left = 0;
            }
            self.steps.push(Step {
                server: server as u16,
                input,
                out: out
                    .iter()
                    .map(|t| (t.to.as_u16(), t.bytes.clone()))
                    .collect(),
            });
        }
        for t in out {
            self.counts.datagrams += 1;
            self.counts.wire_bytes += t.bytes.len() as u64;
            let to = t.to.as_u16();
            let bytes = if self.endpoints.is_empty() {
                t.bytes
            } else {
                self.through_transport(server, t, batch)?
            };
            self.queue.push(Item {
                from: server as u16,
                to,
                bytes,
                batch,
            });
        }
        Ok(())
    }

    /// The transport hand-off of the traced run: send on the source's
    /// endpoint, receive on the destination's. On TCP the receive span
    /// includes the wait for the reader thread.
    fn through_transport(&self, from: usize, t: Transmission, batch: u64) -> Res<Bytes> {
        let dest = &self.endpoints[t.to.as_usize()];
        spanned(&self.tracer, Name::TransportSend, batch, || {
            self.endpoints[from].send(t.to, t.bytes)
        })
        .map_err(err("transport send"))?;
        spanned(&self.tracer, Name::TransportRecv, batch, || loop {
            match dest.poll_recv() {
                Ok(Some(incoming)) => return Ok(incoming.bytes),
                Ok(None) => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        })
        .map_err(err("transport receive"))
    }

    fn inject(&mut self) -> Res<()> {
        self.next_batch += 1;
        let batch = self.next_batch;
        let now = self.now();
        let (server, sent) = match &mut self.source {
            Source::Generated(gen) => {
                let (sender, descs) = gen.next_burst(BURST);
                self.attempted += descs.len() as u64;
                let built = spanned(&self.tracer, Name::LoadgenBuild, batch, || {
                    build_batch(sender, &descs)
                });
                let from = aid(sender, CLIENT_LOCAL);
                let core = &mut self.cores[sender];
                let sent = spanned(&self.tracer, Name::ClientSend, batch, || {
                    core.client_send_batch(from, built, SendOptions::new(), now)
                });
                (
                    sender,
                    sent.map(|(_, ts)| ts).map_err(|_| descs.len() as u64),
                )
            }
            Source::Publications {
                topic,
                rng,
                published,
            } => {
                *published += 1;
                self.attempted += 1;
                let pad = rng.below(PUBLICATION_PAD) as usize;
                let note = publication(KIND_MSG, encode_payload(0, *published, 0, pad));
                let (from, topic) = (aid(0, CLIENT_LOCAL), *topic);
                let core = &mut self.cores[0];
                let sent = spanned(&self.tracer, Name::ClientSend, batch, || {
                    core.client_send(from, topic, note, now)
                });
                (0, sent.map(|(_, ts)| ts).map_err(|_| 1))
            }
        };
        self.events += 1;
        self.counts.steps += 1;
        match sent {
            Ok(ts) => self.finish_step(server, None, ts, batch),
            Err(refused) => {
                self.refused += refused;
                Ok(())
            }
        }
    }

    /// Processes one queued datagram; `false` when the queue is empty.
    fn deliver_one(&mut self) -> Res<bool> {
        let Some(item) = self.queue.pop() else {
            return Ok(false);
        };
        let now = self.now();
        let to = usize::from(item.to);
        let from = ServerId::new(item.from);
        let input = (self.capture_left > 0).then(|| (item.from, item.bytes.clone()));
        let core = &mut self.cores[to];
        let out = spanned(&self.tracer, Name::OnDatagram, item.batch, || {
            core.on_datagram(from, item.bytes, now)
        })
        .map_err(err("on_datagram"))?;
        self.events += 1;
        self.counts.steps += 1;
        self.finish_step(to, input, out, item.batch)?;
        if self.events.is_multiple_of(TICK_EVERY) {
            self.tick()?;
        }
        Ok(true)
    }

    /// Polls one server's timers (round-robin).
    fn tick(&mut self) -> Res<()> {
        let server = ((self.events / TICK_EVERY) % self.cores.len() as u64) as usize;
        let now = self.now();
        let core = &mut self.cores[server];
        let out = spanned(&self.tracer, Name::OnTick, 0, || core.on_tick(now));
        self.finish_step(server, None, out, 0)
    }

    /// One step of the closed loop.
    fn step(&mut self) -> Res<()> {
        if self.outstanding() < self.window {
            self.inject()
        } else if self.deliver_one()? {
            Ok(())
        } else {
            Err(format!(
                "{} messages undelivered with nothing queued",
                self.outstanding()
            ))
        }
    }

    fn drain(&mut self) -> Res<()> {
        while self.deliver_one()? {}
        if self.outstanding() != 0 {
            return Err(format!(
                "{} messages undelivered after the drain",
                self.outstanding()
            ));
        }
        Ok(())
    }
}

/// The server configuration the runtime would use for this workload.
fn server_config(w: &Workload) -> ServerConfig {
    ServerConfig {
        persist: w.substrate == Substrate::ThreadedDurable,
        ..ServerConfig::default()
    }
}

fn wrap_agent(agent: Box<dyn Agent>, tracer: &Option<Arc<Tracer>>) -> Box<dyn Agent> {
    match tracer {
        Some(t) => Box::new(TracedAgent::new(agent, t.clone())),
        None => agent,
    }
}

/// A running inline execution, measured one window at a time.
pub struct Inline {
    h: Harness,
    stores: Vec<Arc<TracedStore>>,
    recorder: Option<TraceRecorder>,
    topology: Arc<Topology>,
    wire_bytes_per_msg: f64,
    samples: Vec<f64>,
}

impl Inline {
    /// Builds the servers and runs the two fixed prefixes.
    pub fn start(w: &Workload, opts: &InlineOpts) -> Res<Inline> {
        let topology = Arc::new(
            w.topology(opts.smoke)
                .validate()
                .map_err(err("validate topology"))?,
        );
        let n = topology.server_count();
        let durable = w.substrate == Substrate::ThreadedDurable;
        let recorder = opts.record_causality.then(TraceRecorder::new);

        let mut stores = Vec::new();
        let mut cores = Vec::with_capacity(n);
        for s in 0..n {
            let inner: Arc<dyn StableStore> = if durable {
                let dir = opts.work_dir.join(format!("inline-store-{s}"));
                Arc::new(DirStore::open(dir).map_err(err("open store"))?)
            } else {
                Arc::new(MemoryStore::new())
            };
            let store = TracedStore::new(inner, opts.tracer.clone());
            let mut core = ServerCore::new(
                &topology,
                ServerId::new(s as u16),
                server_config(w),
                store.clone(),
            )
            .map_err(err("create server"))?;
            if let Some(rec) = &recorder {
                core.set_recorder(rec.clone());
            }
            if durable {
                let relay = RelayConfig::default().dir(opts.work_dir.join("inline-relay"));
                core.enable_relay(relay, VTime::ZERO)
                    .map_err(err("enable relay"))?;
            }
            stores.push(store);
            cores.push(core);
        }

        let mut sinks = Vec::new();
        let source = if w.traffic == Traffic::Fanout {
            let topic = cores[0].register_agent(
                TOPIC_LOCAL,
                wrap_agent(
                    Box::new(TopicAgent::with_relay(relay_agent(ServerId::new(0)))),
                    &opts.tracer,
                ),
            );
            for i in 1..=SUBSCRIBERS {
                let shared = SinkShared::new(1);
                cores[1].register_agent(
                    i,
                    wrap_agent(Box::new(SinkAgent::new(shared.clone())), &opts.tracer),
                );
                sinks.push(shared);
            }
            Source::Publications {
                topic,
                rng: SplitMix::new(opts.seed),
                published: 0,
            }
        } else {
            for core in &mut cores {
                let shared = SinkShared::new(n);
                core.register_agent(
                    SINK_LOCAL,
                    wrap_agent(Box::new(SinkAgent::new(shared.clone())), &opts.tracer),
                );
                sinks.push(shared);
            }
            Source::Generated(Generator::new(opts.seed, n, w.traffic))
        };

        let endpoints: Vec<Box<dyn Transport>> = match (&opts.tracer, w.substrate) {
            (None, _) => Vec::new(),
            (Some(_), Substrate::EventedMuxTcp) => MuxTcpNetwork::create(n, 1)
                .map_err(err("create mux tcp mesh"))?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .collect(),
            (Some(_), _) => MemoryNetwork::create(n)
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .collect(),
        };

        let fan = if w.traffic == Traffic::Fanout {
            u64::from(SUBSCRIBERS)
        } else {
            1
        };
        let mut h = Harness {
            cores,
            sinks,
            queue: if w.traffic == Traffic::Mesh {
                Queue::Shuffle {
                    n,
                    links: (0..n * n).map(|_| VecDeque::new()).collect(),
                    active: Vec::new(),
                    rng: SplitMix::new(opts.seed ^ 0x5EED_1234),
                }
            } else {
                Queue::Fifo(VecDeque::new())
            },
            source,
            fan,
            window: if w.traffic == Traffic::Fanout {
                FANOUT_WINDOW * fan
            } else {
                4096u64.max((BURST * n) as u64)
            },
            events: 0,
            attempted: 0,
            refused: 0,
            next_batch: 0,
            counts: Counts::default(),
            tracer: opts.tracer.clone(),
            endpoints,
            steps: Vec::new(),
            // Captured from the very first step, so the replays' shadow state
            // starts where the real state did.
            capture_left: opts.capture_steps,
            capture_until: (opts.capture_steps > 0).then(|| Instant::now() + opts.capture_for),
        };

        if let Source::Publications { topic, .. } = h.source {
            // Subscribe every sink, then let the control traffic settle.
            for i in 1..=SUBSCRIBERS {
                let now = h.now();
                let (_, ts) = h.cores[1]
                    .client_send(aid(1, i), topic, subscription(), now)
                    .map_err(err("subscribe"))?;
                h.events += 1;
                h.finish_step(1, None, ts, 0)?;
            }
            h.drain()?;
        }

        // Two fixed, seed-determined prefixes, each drained to quiescence. The
        // first brings the clocks to their steady state (mesh deltas keep
        // growing until every server has heard from every other a few times);
        // over the second, wire bytes per message are exact for the seed.
        let round = (BURST * n) as u64;
        let (warm, mark) = match w.traffic {
            Traffic::Fanout => (8, 16),
            Traffic::Ring => (round, round.max(4096)),
            Traffic::Mesh => (16 * round, round.max(4096)),
        };
        while h.attempted < warm {
            h.step()?;
        }
        h.drain()?;
        let (bytes_before, delivered_before) = (h.counts.wire_bytes, h.delivered());
        while h.attempted < warm + mark {
            h.step()?;
        }
        h.drain()?;
        let wire_bytes_per_msg = (h.counts.wire_bytes - bytes_before) as f64
            / (h.delivered() - delivered_before).max(1) as f64;
        Ok(Inline {
            h,
            stores,
            recorder,
            topology,
            wire_bytes_per_msg,
            samples: Vec::new(),
        })
    }

    /// Runs the closed loop for `length` without sampling it: page faults,
    /// allocator growth and the refill of the in-flight window stay out of
    /// the samples.
    pub fn warm_up(&mut self, length: Duration) -> Res<()> {
        let started = Instant::now();
        while started.elapsed() < length {
            for _ in 0..CLOCK_EVERY {
                self.h.step()?;
            }
        }
        Ok(())
    }

    /// Runs the closed loop for `length` and samples wall microseconds per
    /// delivered message over it. The queue is not drained between
    /// windows: the loop stays in its steady state.
    pub fn window(&mut self, length: Duration) -> Res<()> {
        let from = (Instant::now(), self.h.delivered());
        while from.0.elapsed() < length {
            for _ in 0..CLOCK_EVERY {
                self.h.step()?;
            }
        }
        let got = self.h.delivered() - from.1;
        if got > 0 {
            self.samples
                .push(from.0.elapsed().as_secs_f64() * 1e6 / got as f64);
        }
        Ok(())
    }

    /// Drains to quiescence, closes the oracle's books and returns what
    /// was measured.
    pub fn finish(mut self) -> Res<InlineResult> {
        let h = &mut self.h;
        h.drain()?;
        if let Some(busy) = h.cores.iter().find(|c| !c.is_idle()) {
            return Err(format!("server {} is not idle after the drain", busy.me()));
        }
        let causality = match &self.recorder {
            Some(rec) => Some(
                rec.snapshot()
                    .map_err(err("trace snapshot"))?
                    .check_causality()
                    .map_err(|v| format!("causality violated: {v:?}")),
            ),
            None => None,
        };
        let tally = Tally::close(h.attempted * h.fan, h.refused * h.fan, &h.sinks);
        h.counts.delivered = h.delivered();
        Ok(InlineResult {
            core_us_per_msg: Stat::of(&self.samples),
            wire_bytes_per_msg: self.wire_bytes_per_msg,
            tally,
            counts: h.counts,
            topology: self.topology,
            steps: std::mem::take(&mut h.steps),
            image_bytes: self
                .stores
                .iter()
                .map(|s| s.last_put_len())
                .max()
                .unwrap_or(0),
            causality,
        })
    }
}

/// Runs the whole inline execution of `w` in one go: prefixes, half a
/// window of warm-up, `opts.windows` windows.
pub fn run(w: &Workload, opts: &InlineOpts) -> Res<InlineResult> {
    let mut inline = Inline::start(w, opts)?;
    if opts.windows > 0 {
        inline.warm_up(opts.window / 2)?;
    }
    for _ in 0..opts.windows {
        inline.window(opts.window)?;
    }
    inline.finish()
}
