//! The runtime execution: a real `Mom`, driven closed-loop by one
//! generator thread (this one).
//!
//! The caller asks for one window at a time — a saturation window
//! (bursts through `Mom::send_batch` under a cap on undelivered
//! messages) or a ping-pong window (one token between two agents) — so
//! it can interleave them with the inline execution's windows across the
//! whole run. Closed loop is the honest model here: `Mom::send` blocks
//! until the origin server accepts, agents send from reactions, and the
//! paper's §6.1 is a ping-pong. The open-loop (paced) leg is a diagnostic
//! of the traced run only.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aaa_base::{AgentId, Error, ServerId};
use aaa_mom::pubsub::{publication, subscription, TopicAgent};
use aaa_mom::{
    relay_agent, Agent, ClockConfig, EchoAgent, Mom, MomBuilder, NetConfig, Notification,
    RelayConfig, RuntimeConfig, SendOptions, StampMode,
};
use aaa_storage::{DirStore, StableStore};
use aaa_topology::RoutingTable;

use crate::hist::Histogram;
use crate::oracle::{
    delivered_total, encode_payload, PingAgent, PingShared, SinkAgent, SinkShared, Tally, KIND_MSG,
    KIND_PACED,
};
use crate::rng::SplitMix;
use crate::sys;
use crate::workload::{
    aid, build_batch, Generator, Substrate, Traffic, Workload, BURST, CLIENT_LOCAL, FANOUT_WINDOW,
    PING_LOCAL, PUBLICATION_PAD, SINK_LOCAL, SUBSCRIBERS, TOPIC_LOCAL,
};
use crate::{err, Res};

/// How long the generator sleeps when its window is full.
const WINDOW_FULL_NAP: Duration = Duration::from_micros(200);
/// Patience for anything that must drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);
/// Rate and lateness threshold of the paced (open-loop) diagnostic.
const PACED_PER_S: u64 = 2000;
const LATE_AFTER: Duration = Duration::from_millis(1);
/// Untimed lead-in of every window, as a share of the window: the
/// in-flight window refills and the token gets going before the first mark.
const LEAD_IN: f64 = 0.1;

/// How the runtime execution is built.
#[derive(Debug, Clone)]
pub struct RuntimeOpts {
    pub seed: u64,
    pub smoke: bool,
    /// Event-loop shards for the evented substrates.
    pub shards: usize,
    /// Collect the traced run's diagnostics: per-round latency, the paced
    /// leg's latency, relay counters (which need the metrics registry).
    pub diag: bool,
    /// Scratch directory for the durable workload.
    pub work_dir: PathBuf,
}

/// A latency distribution, in microseconds: the median, the 99th
/// percentile, and the highest percentile that still has ten samples
/// beyond it (`tail_q`), with the sample count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub tail_us: f64,
    pub tail_q: f64,
    pub samples: u64,
}

impl Latency {
    fn of(hist: &Histogram) -> Latency {
        let us = |q: f64| hist.quantile(q).unwrap_or(0.0) / 1e3;
        let (tail_q, tail_ns) = hist.tail().unwrap_or((0.0, 0.0));
        Latency {
            p50_us: us(0.5),
            p99_us: us(0.99),
            tail_us: tail_ns / 1e3,
            tail_q,
            samples: hist.count(),
        }
    }
}

/// What the generator saw while saturating, summed over every window.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadStats {
    /// Messages (or publications) handed to `send*` calls, and their time.
    pub sent: u64,
    pub send_time: Duration,
    /// Generator loop turns, and those spent napping on a full window.
    pub turns: u64,
    pub full_naps: u64,
    pub backpressure_retries: u64,
    pub delivered: u64,
    pub ctx_switches: u64,
    pub threads: u64,
}

/// Diagnostics of the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Diagnostics {
    /// Per-round latency of the ping-pong (or per publication).
    pub rtt: Latency,
    /// Open-loop latency, timed from each message's due instant.
    pub paced: Latency,
    pub relay_enqueued_per_pub: f64,
    pub relay_acks_per_delivery: f64,
    /// Relay redeliveries before the recovery leg (waste: no fault has
    /// been injected yet).
    pub relay_redeliveries: f64,
}

/// One saturation window's outcome.
#[derive(Debug, Clone, Copy)]
pub struct SatSample {
    pub delivered_per_s: f64,
    pub cpu_us_per_msg: f64,
}

/// Polls `done` until it holds or `DRAIN_TIMEOUT` passes.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Res<()> {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

/// Retries `op` while the server answers `Backpressure` (the documented
/// flow-control contract), counting the retries.
fn retry_backpressure<T>(
    retries: &mut u64,
    mut op: impl FnMut() -> aaa_base::Result<T>,
) -> aaa_base::Result<T> {
    loop {
        match op() {
            Err(Error::Backpressure) => {
                *retries += 1;
                std::thread::sleep(WINDOW_FULL_NAP);
            }
            other => return other,
        }
    }
}

/// A mark at a window boundary: `(instant, deliveries, cpu seconds)`.
type Mark = (Instant, u64, f64);

fn sample(from: Mark, to: Mark) -> SatSample {
    let delivered = (to.1 - from.1).max(1) as f64;
    SatSample {
        delivered_per_s: delivered / (to.0 - from.0).as_secs_f64(),
        cpu_us_per_msg: (to.2 - from.2) * 1e6 / delivered,
    }
}

/// A running evented bus (ring or mesh traffic).
struct Bus {
    mom: Mom,
    n: usize,
    sinks: Vec<Arc<SinkShared>>,
    ping: Arc<PingShared>,
    ping_agent: AgentId,
    paced: Arc<Histogram>,
    epoch: Instant,
    gen: Generator,
    attempted: u64,
    refused: u64,
    load: LoadStats,
}

impl Bus {
    /// Builds the bus, registers sinks and the ping pair, and runs the
    /// warm-up round (one message per sender).
    fn build(w: &Workload, opts: &RuntimeOpts) -> Res<Bus> {
        let net = match w.substrate {
            Substrate::EventedMuxTcp => NetConfig::mux_tcp(),
            _ => NetConfig::memory(),
        };
        let mom = MomBuilder::new(w.topology(opts.smoke))
            .clock(ClockConfig::mode(StampMode::Updates))
            .runtime(
                RuntimeConfig::evented(opts.shards)
                    .record_trace(false)
                    .metrics(false),
            )
            .net(net)
            .build()
            .map_err(err("build bus"))?;
        let n = mom.topology().server_count();
        let epoch = Instant::now();
        let paced = Arc::new(Histogram::new());
        let mut sinks = Vec::with_capacity(n);
        for s in 0..n {
            let shared = SinkShared::new(n);
            let mut sink = SinkAgent::new(shared.clone());
            if opts.diag {
                sink = sink.with_paced(paced.clone(), epoch);
            }
            mom.register_agent(ServerId::new(s as u16), SINK_LOCAL, Box::new(sink))
                .map_err(err("register sink"))?;
            sinks.push(shared);
        }
        // The ping agent lives on server 0, its echo on the server with
        // the most routing hops from there (the lowest id among equals).
        let table = RoutingTable::build(mom.topology(), ServerId::new(0)).map_err(err("route"))?;
        let hops = |s: usize| table.hops(ServerId::new(s as u16)).unwrap_or(0);
        let far = (1..n)
            .max_by_key(|&s| (hops(s), std::cmp::Reverse(s)))
            .unwrap_or(1);
        let echo = mom
            .register_agent(ServerId::new(far as u16), PING_LOCAL, Box::new(EchoAgent))
            .map_err(err("register echo"))?;
        let ping = PingShared::new(opts.diag);
        let ping_agent = mom
            .register_agent(
                ServerId::new(0),
                PING_LOCAL,
                Box::new(PingAgent::new(echo, ping.clone())),
            )
            .map_err(err("register ping"))?;
        let mut bus = Bus {
            mom,
            n,
            sinks,
            ping,
            ping_agent,
            paced,
            epoch,
            gen: Generator::new(opts.seed, n, w.traffic),
            attempted: 0,
            refused: 0,
            load: LoadStats::default(),
        };
        for _ in 0..n {
            bus.send_burst(1)?;
        }
        bus.drain("the warm-up round")?;
        bus.load = LoadStats::default();
        Ok(bus)
    }

    /// Sends the generator's next burst, retrying `Backpressure`.
    fn send_burst(&mut self, len: usize) -> Res<()> {
        let (sender, descs) = self.gen.next_burst(len);
        self.attempted += descs.len() as u64;
        let from = aid(sender, CLIENT_LOCAL);
        let started = Instant::now();
        let sent = retry_backpressure(&mut self.load.backpressure_retries, || {
            self.mom
                .send_batch(from, build_batch(sender, &descs), SendOptions::new())
        });
        self.load.send_time += started.elapsed();
        self.load.sent += descs.len() as u64;
        if sent.is_err() {
            // The first failing submission aborts the batch; count all of
            // it as refused (the oracle then reports what did arrive).
            self.refused += descs.len() as u64;
        }
        Ok(())
    }

    fn drain(&self, what: &str) -> Res<()> {
        let want = self.attempted - self.refused;
        wait_until(what, || delivered_total(&self.sinks) >= want)
    }

    /// One ping-pong window: starts the token between server 0 and the
    /// farthest server, lets it bounce for `lead_in + window`, stops it.
    /// Returns microseconds per round trip, `None` if no round completed
    /// (the token was lost).
    fn ping_window(&mut self, lead_in: Duration, window: Duration) -> Res<Option<f64>> {
        self.ping.stop.store(false, Ordering::Release);
        self.ping.idle.store(false, Ordering::Release);
        self.mom
            .send(
                aid(0, CLIENT_LOCAL),
                self.ping_agent,
                Notification::new("ping", vec![0u8; 16]),
            )
            .map_err(err("kick off ping-pong"))?;
        let rounds = || self.ping.rounds.load(Ordering::Acquire);
        std::thread::sleep(lead_in);
        let from = (Instant::now(), rounds());
        std::thread::sleep(window);
        let to = (Instant::now(), rounds());
        self.ping.stop.store(true, Ordering::Release);
        let played = to.1 - from.1;
        if played == 0 {
            return Ok(None);
        }
        // The token is absorbed at its next arrival on server 0.
        wait_until("the ping token to come home", || {
            self.ping.idle.load(Ordering::Acquire)
        })?;
        Ok(Some((to.0 - from.0).as_secs_f64() * 1e6 / played as f64))
    }

    /// Open loop: one message every 1/`PACED_PER_S` s from the seeded
    /// sender order, each timed by its sink from the instant it was due.
    /// Returns the share of sends issued more than `LATE_AFTER` late.
    fn paced(&mut self, length: Duration) -> Res<f64> {
        let total = (length.as_secs_f64() * PACED_PER_S as f64) as u64;
        let gap = Duration::from_nanos(1_000_000_000 / PACED_PER_S);
        let start = Instant::now();
        let mut late = 0u64;
        for k in 0..total {
            let due = start + gap * k as u32;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                // Sleep most of the way, spin the last stretch.
                if due - now > Duration::from_micros(150) {
                    std::thread::sleep(due - now - Duration::from_micros(100));
                }
            }
            if due.elapsed() > LATE_AFTER {
                late += 1;
            }
            let (sender, descs) = self.gen.next_burst(1);
            let d = descs[0];
            let due_ns = (due - self.epoch).as_nanos() as u64;
            let body = encode_payload(sender as u32, d.seq, due_ns, usize::from(d.pad));
            self.attempted += 1;
            let sent = self.mom.send(
                aid(sender, CLIENT_LOCAL),
                aid(usize::from(d.to), SINK_LOCAL),
                Notification::new(KIND_PACED, body),
            );
            if sent.is_err() {
                self.refused += 1;
            }
        }
        self.drain("the paced leg")?;
        Ok(late as f64 / total.max(1) as f64)
    }
}

/// The durable fan-out bus: threaded runtime, persistent stores, a
/// relayed topic on server 0 and `SUBSCRIBERS` sinks on server 1.
struct Fanout {
    mom: Mom,
    topic: AgentId,
    subs: Vec<AgentId>,
    sinks: Vec<Arc<SinkShared>>,
    rng: SplitMix,
    published: u64,
    refused: u64,
    rtt_hist: Option<Histogram>,
    /// Relay counters as they stood before the recovery leg.
    relay_before_recovery: Option<(u64, u64, u64)>,
    load: LoadStats,
}

impl Fanout {
    fn build(w: &Workload, opts: &RuntimeOpts, dir: &Path) -> Res<Fanout> {
        let stores: Vec<Arc<dyn StableStore>> = (0..2)
            .map(|s| {
                DirStore::open(dir.join(format!("store-{s}")))
                    .map(|d| Arc::new(d) as Arc<dyn StableStore>)
            })
            .collect::<Result<_, _>>()
            .map_err(err("open store"))?;
        let mom = MomBuilder::new(w.topology(opts.smoke))
            .clock(ClockConfig::mode(StampMode::Updates))
            .runtime(
                RuntimeConfig::threaded()
                    .persist(true)
                    .record_trace(false)
                    // The relay's counters are read from the registry, in
                    // diagnostic runs only.
                    .metrics(opts.diag),
            )
            .stores(stores)
            .relay(RelayConfig::default().dir(dir.join("relay")))
            .build()
            .map_err(err("build durable bus"))?;
        let topic = mom
            .register_agent(
                ServerId::new(0),
                TOPIC_LOCAL,
                Box::new(TopicAgent::with_relay(relay_agent(ServerId::new(0)))),
            )
            .map_err(err("register topic"))?;
        let mut sinks = Vec::new();
        let mut subs = Vec::new();
        for i in 1..=SUBSCRIBERS {
            let shared = SinkShared::new(1);
            subs.push(
                mom.register_agent(
                    ServerId::new(1),
                    i,
                    Box::new(SinkAgent::new(shared.clone())),
                )
                .map_err(err("register subscriber"))?,
            );
            sinks.push(shared);
        }
        let mut fan = Fanout {
            mom,
            topic,
            subs,
            sinks,
            rng: SplitMix::new(opts.seed),
            published: 0,
            refused: 0,
            rtt_hist: opts.diag.then(Histogram::new),
            relay_before_recovery: None,
            load: LoadStats::default(),
        };
        for &sub in &fan.subs {
            retry_backpressure(&mut fan.load.backpressure_retries, || {
                fan.mom.send(sub, fan.topic, subscription())
            })
            .map_err(err("subscribe"))?;
        }
        if !fan.mom.quiesce(DRAIN_TIMEOUT) {
            return Err("subscriptions did not settle".into());
        }
        fan.publish();
        fan.drain("the warm-up publication")?;
        fan.load = LoadStats::default();
        Ok(fan)
    }

    /// Publishes the next sequence number (payload length from the seed).
    fn publish(&mut self) {
        self.published += 1;
        let pad = self.rng.below(PUBLICATION_PAD) as usize;
        let body = encode_payload(0, self.published, 0, pad);
        let started = Instant::now();
        let sent = retry_backpressure(&mut self.load.backpressure_retries, || {
            self.mom.send(
                aid(0, CLIENT_LOCAL),
                self.topic,
                publication(KIND_MSG, body.clone()),
            )
        });
        self.load.send_time += started.elapsed();
        self.load.sent += 1;
        if sent.is_err() {
            self.refused += 1;
        }
    }

    fn delivered(&self) -> u64 {
        delivered_total(&self.sinks)
    }

    fn fan(&self) -> u64 {
        self.subs.len() as u64
    }

    fn drain(&self, what: &str) -> Res<()> {
        let want = (self.published - self.refused) * self.fan();
        wait_until(what, || self.delivered() >= want)
    }

    /// One publication in flight at a time: `Mom::send` to delivery at
    /// the last subscriber. Microseconds per publication over the window.
    fn one_in_flight(&mut self, window: Duration) -> Res<Option<f64>> {
        let started = Instant::now();
        let mut rounds = 0u64;
        while started.elapsed() < window {
            let sent_at = Instant::now();
            self.publish();
            self.drain("a publication")?;
            if let Some(h) = &self.rtt_hist {
                h.record(sent_at.elapsed().as_nanos() as u64);
            }
            rounds += 1;
        }
        Ok((rounds > 0).then(|| started.elapsed().as_secs_f64() * 1e6 / rounds as f64))
    }

    fn relay_counters(&self) -> (u64, u64, u64) {
        let snap = self.mom.metrics();
        (
            snap.sum_counter("aaa_relay_enqueued_total"),
            snap.sum_counter("aaa_relay_acked_total"),
            snap.sum_counter("aaa_relay_redeliveries_total"),
        )
    }

    /// The read side: journal `backlog_pubs` publications for disconnected
    /// subscribers, crash their server, and time `Mom::recover` to the
    /// last delivery of the backlog.
    fn recover(&mut self, backlog_pubs: u64) -> Res<f64> {
        self.relay_before_recovery = Some(self.relay_counters());
        let mut retries = 0;
        for &sub in &self.subs {
            retry_backpressure(&mut retries, || self.mom.relay_disconnect(sub))
                .map_err(err("disconnect"))?;
        }
        let before = self.delivered();
        for _ in 0..backlog_pubs {
            self.publish();
        }
        if !self.mom.quiesce(DRAIN_TIMEOUT) {
            return Err("the backlog did not journal".into());
        }
        if self.delivered() != before {
            return Err("a disconnected subscriber received a live delivery".into());
        }
        let home = ServerId::new(1);
        self.mom.crash(home).map_err(err("crash"))?;
        // Fresh agent instances over the same oracle state: the check is
        // exactly-once and in order *across* the crash.
        let agents: Vec<(u32, Box<dyn Agent>)> = self
            .subs
            .iter()
            .zip(&self.sinks)
            .map(|(sub, shared)| {
                (
                    sub.local(),
                    Box::new(SinkAgent::new(shared.clone())) as Box<dyn Agent>,
                )
            })
            .collect();
        let started = Instant::now();
        self.mom.recover(home, agents).map_err(err("recover"))?;
        for &sub in &self.subs {
            retry_backpressure(&mut retries, || self.mom.relay_connect(sub))
                .map_err(err("reconnect"))?;
        }
        self.drain("the journaled backlog")?;
        Ok(started.elapsed().as_secs_f64())
    }
}

/// What the closed-loop generator needs from a bus to saturate it.
trait Saturate {
    /// Deliveries to sink agents so far.
    fn delivered(&self) -> u64;
    /// Whether the cap on undelivered work is reached.
    fn window_full(&self) -> bool;
    /// Offers the next unit of load (a burst, or a publication).
    fn offer(&mut self) -> Res<()>;
    /// Waits until everything offered so far is delivered.
    fn drain(&self, what: &str) -> Res<()>;
    fn load(&mut self) -> &mut LoadStats;
}

impl Saturate for Bus {
    fn delivered(&self) -> u64 {
        delivered_total(&self.sinks)
    }

    /// At most max(4096, 32 x servers) messages undelivered.
    fn window_full(&self) -> bool {
        self.mom.in_flight() >= (4096usize.max(BURST * self.n)) as i64
    }

    /// One burst of `BURST` from the next sender of the seeded order.
    fn offer(&mut self) -> Res<()> {
        self.send_burst(BURST)
    }

    fn drain(&self, what: &str) -> Res<()> {
        Bus::drain(self, what)
    }

    fn load(&mut self) -> &mut LoadStats {
        &mut self.load
    }
}

impl Saturate for Fanout {
    fn delivered(&self) -> u64 {
        Fanout::delivered(self)
    }

    /// At most `FANOUT_WINDOW` publications in flight.
    fn window_full(&self) -> bool {
        self.published - Fanout::delivered(self) / self.fan() >= FANOUT_WINDOW
    }

    fn offer(&mut self) -> Res<()> {
        self.publish();
        Ok(())
    }

    fn drain(&self, what: &str) -> Res<()> {
        Fanout::drain(self, what)
    }

    fn load(&mut self) -> &mut LoadStats {
        &mut self.load
    }
}

/// Closed-loop saturation for `lead_in + window`: offers load whenever the
/// window is not full, naps when it is, and drains at the end. Returns the
/// marks taken after the lead-in and at the end of the window.
fn saturate(bus: &mut dyn Saturate, lead_in: Duration, window: Duration) -> Res<(Mark, Mark)> {
    let mark = |bus: &dyn Saturate| (Instant::now(), bus.delivered(), sys::cpu_seconds());
    let started = Instant::now();
    let mut first = None;
    loop {
        let elapsed = started.elapsed();
        if first.is_none() && elapsed >= lead_in {
            first = Some(mark(bus));
        }
        if elapsed >= lead_in + window {
            break;
        }
        bus.load().turns += 1;
        if bus.window_full() {
            bus.load().full_naps += 1;
            std::thread::sleep(WINDOW_FULL_NAP);
        } else {
            bus.offer()?;
        }
    }
    let last = mark(bus);
    bus.drain("the saturation backlog")?;
    Ok((first.unwrap_or(last), last))
}

enum Kind {
    Evented(Box<Bus>),
    Durable(Box<Fanout>),
}

/// A running bus for one workload, measured one window at a time.
pub struct Runtime {
    kind: Kind,
    /// Ping-pong windows in which no round completed.
    stalled: u64,
}

impl Runtime {
    /// Builds the bus: topology validation, routing tables, runtime spawn,
    /// agent registration and one warm-up round. Returns it with the time
    /// all that took (`setup_s`). `rep` names the scratch subdirectory.
    pub fn start(w: &Workload, opts: &RuntimeOpts, rep: usize) -> Res<(Runtime, f64)> {
        let started = Instant::now();
        let kind = match w.traffic {
            Traffic::Fanout => {
                let dir = opts.work_dir.join(format!("runtime-{rep}"));
                Kind::Durable(Box::new(Fanout::build(w, opts, &dir)?))
            }
            Traffic::Ring | Traffic::Mesh => Kind::Evented(Box::new(Bus::build(w, opts)?)),
        };
        let secs = started.elapsed().as_secs_f64();
        Ok((Runtime { kind, stalled: 0 }, secs))
    }

    /// One set-up that is only timed: built, warmed up, shut down.
    pub fn setup_once(w: &Workload, opts: &RuntimeOpts, rep: usize) -> Res<f64> {
        let (rt, secs) = Runtime::start(w, opts, rep)?;
        rt.shutdown();
        Ok(secs)
    }

    fn shutdown(self) {
        match self.kind {
            Kind::Evented(bus) => bus.mom.shutdown(),
            Kind::Durable(fan) => fan.mom.shutdown(),
        }
    }

    fn bus(&mut self) -> &mut dyn Saturate {
        match &mut self.kind {
            Kind::Evented(bus) => bus.as_mut(),
            Kind::Durable(fan) => fan.as_mut(),
        }
    }

    /// Untimed saturation: memory is touched, queues grow to their working
    /// size, mesh clocks reach their steady state.
    pub fn warm_up(&mut self, length: Duration) -> Res<()> {
        let before = self.load();
        saturate(self.bus(), length, Duration::ZERO)?;
        *self.bus().load() = before;
        Ok(())
    }

    /// One saturation window (after an untimed lead-in), drained at the
    /// end so the next window of anything starts from a quiet bus.
    pub fn saturation_window(&mut self, window: Duration) -> Res<SatSample> {
        let (ctx0, _) = sys::ctx_switches_and_threads();
        let (from, to) = saturate(self.bus(), window.mul_f64(LEAD_IN), window)?;
        let (ctx1, threads) = sys::ctx_switches_and_threads();
        let load = self.bus().load();
        load.ctx_switches += ctx1.saturating_sub(ctx0);
        load.threads = threads;
        load.delivered += to.1 - from.1;
        Ok(sample(from, to))
    }

    /// One round-trip window: microseconds per ping-pong round (evented)
    /// or per publication with one in flight (durable). `None` when no
    /// round completed.
    pub fn ping_window(&mut self, window: Duration) -> Res<Option<f64>> {
        let rtt = match &mut self.kind {
            Kind::Evented(bus) => bus.ping_window(window.mul_f64(LEAD_IN), window)?,
            Kind::Durable(fan) => fan.one_in_flight(window)?,
        };
        self.stalled += u64::from(rtt.is_none());
        Ok(rtt)
    }

    /// The paced (open-loop) leg; returns the generator's late share.
    /// The durable workload has none (its sends take milliseconds).
    pub fn paced(&mut self, length: Duration) -> Res<f64> {
        match &mut self.kind {
            Kind::Evented(bus) => bus.paced(length),
            Kind::Durable(_) => Ok(0.0),
        }
    }

    /// The durable workload's recovery leg; `None` elsewhere.
    pub fn recover(&mut self, backlog_pubs: u64) -> Res<Option<f64>> {
        match &mut self.kind {
            Kind::Evented(_) => Ok(None),
            Kind::Durable(fan) => fan.recover(backlog_pubs).map(Some),
        }
    }

    /// What the generator saw so far.
    pub fn load(&self) -> LoadStats {
        match &self.kind {
            Kind::Evented(bus) => bus.load,
            Kind::Durable(fan) => fan.load,
        }
    }

    /// Waits for quiescence, closes the oracle's books and shuts down.
    pub fn finish(self) -> Res<(Tally, Diagnostics)> {
        let mut diag = Diagnostics::default();
        let tally = match &self.kind {
            Kind::Evented(bus) => {
                if !bus.mom.quiesce(DRAIN_TIMEOUT) {
                    return Err("bus did not quiesce after the run".into());
                }
                if let Some(hist) = &bus.ping.hist {
                    diag.rtt = Latency::of(hist);
                }
                diag.paced = Latency::of(&bus.paced);
                let mut tally = Tally::close(bus.attempted, bus.refused, &bus.sinks);
                // Each round trip is two messages; a window without a
                // round is a lost token.
                tally.attempted += 2 * bus.ping.rounds.load(Ordering::Acquire);
                tally.lost += self.stalled;
                tally
            }
            Kind::Durable(fan) => {
                if !fan.mom.quiesce(DRAIN_TIMEOUT) {
                    return Err("durable bus did not quiesce after the run".into());
                }
                if let Some(hist) = &fan.rtt_hist {
                    diag.rtt = Latency::of(hist);
                    let (_, _, redelivered) = fan
                        .relay_before_recovery
                        .unwrap_or_else(|| fan.relay_counters());
                    let (enqueued, acked, _) = fan.relay_counters();
                    let accepted = (fan.published - fan.refused).max(1) as f64;
                    diag.relay_enqueued_per_pub = enqueued as f64 / accepted;
                    diag.relay_acks_per_delivery = acked as f64 / fan.delivered().max(1) as f64;
                    diag.relay_redeliveries = redelivered as f64;
                }
                // One attempt is one subscriber delivery: a publication
                // fans out to every subscriber, so a refused one fails
                // that many.
                let mut tally = Tally::close(
                    fan.published * fan.fan(),
                    fan.refused * fan.fan(),
                    &fan.sinks,
                );
                tally.lost += self.stalled;
                tally
            }
        };
        self.shutdown();
        Ok((tally, diag))
    }
}
