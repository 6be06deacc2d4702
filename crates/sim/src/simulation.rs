//! The discrete-event loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use aaa_base::{Absorb, AgentId, Result, ServerId, VDuration, VTime};
use aaa_chaos::{FaultAction, FaultInjector, FaultPlan, FaultStats};
use aaa_mom::{
    Agent, DeliveryPolicy, Notification, SendOptions, ServerConfig, ServerCore, StepStats,
};
use aaa_obs::{Gauge, LatencyTracker, Meter, MetricsSnapshot, Registry};
use aaa_storage::MemoryStore;
use aaa_topology::Topology;
use aaa_trace::TraceRecorder;
use bytes::Bytes;

use crate::cost::CostModel;

#[derive(Debug)]
enum Event {
    Datagram {
        from: ServerId,
        to: ServerId,
        bytes: Bytes,
    },
    Client {
        from: AgentId,
        to: AgentId,
        note: Notification,
        policy: DeliveryPolicy,
    },
    /// A burst submitted as one transaction: batched stamping, coalesced
    /// wire packets, one group commit.
    ClientBatch {
        from: AgentId,
        batch: Vec<(AgentId, Notification)>,
    },
    /// Retransmission-timer poll for one server (fault injection and
    /// crash recovery only).
    Timer { server: usize },
}

/// A deterministic simulation of a complete MOM.
///
/// Servers are single-threaded resources: each event occupies its target
/// server for the duration given by the [`CostModel`], and transmissions
/// depart when the processing that produced them completes, arriving one
/// link latency later. Events tie-break on insertion order, so runs are
/// exactly reproducible.
pub struct Simulation {
    topology: Arc<Topology>,
    cores: Vec<ServerCore>,
    config: ServerConfig,
    stores: Vec<Arc<MemoryStore>>,
    model: CostModel,
    heap: BinaryHeap<Reverse<(VTime, u64, usize)>>,
    events: Vec<Option<Event>>,
    busy: Vec<VTime>,
    now: VTime,
    last_delivery: VTime,
    seq: u64,
    cumulative: Vec<StepStats>,
    fault: Option<FaultInjector>,
    dropped_by_crash: u64,
    timer_armed: Vec<Option<VTime>>,
    crashed: Vec<bool>,
    recorder: Option<TraceRecorder>,
    registry: Option<Registry>,
    latency: Option<LatencyTracker>,
    vtime_gauge: Option<Gauge>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("servers", &self.cores.len())
            .field("now", &self.now)
            .field("queued_events", &self.heap.len())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation of `topology` with the given stamp mode and
    /// cost model.
    ///
    /// # Errors
    ///
    /// Propagates server construction errors (none for a validated
    /// topology).
    pub fn new(topology: Topology, config: ServerConfig, model: CostModel) -> Result<Simulation> {
        // Without fault injection the simulated network is reliable, so
        // retransmission timers must never fire: give links an enormous
        // RTO and never schedule timer events.
        let config = ServerConfig {
            rto: VDuration::from_millis(u64::MAX / 2_000),
            ..config
        };
        Self::build(topology, config, model, None)
    }

    /// Builds a simulation executing a full [`FaultPlan`]: per-link
    /// drop/duplicate/delay probabilities and timed partition windows.
    /// The plan's *tick* unit is **virtual-time milliseconds** (a
    /// partition `[100, 400)` is active from 100 ms to 400 ms of
    /// simulated time); a delayed datagram is re-offered
    /// [`FaultPlan::delay_ticks`] milliseconds later, overtaking anything
    /// sent in between. Crash schedules ([`FaultPlan::crashes`]) are not
    /// executed by the event loop — drive them from the harness via
    /// [`Simulation::crash`]/[`Simulation::recover`], which need the
    /// recovery agents.
    ///
    /// # Errors
    ///
    /// Propagates server construction errors, or
    /// [`aaa_base::Error::Config`] if the plan is invalid.
    pub fn with_fault_plan(
        topology: Topology,
        config: ServerConfig,
        model: CostModel,
        plan: FaultPlan,
    ) -> Result<Simulation> {
        Self::build(topology, config, model, Some(FaultInjector::new(plan)?))
    }

    fn build(
        topology: Topology,
        config: ServerConfig,
        model: CostModel,
        fault: Option<FaultInjector>,
    ) -> Result<Simulation> {
        let topology = Arc::new(topology);
        let stores: Vec<Arc<MemoryStore>> = topology
            .servers()
            .map(|_| Arc::new(MemoryStore::new()))
            .collect();
        let cores = topology
            .servers()
            .map(|s| {
                ServerCore::new(
                    &topology,
                    s,
                    config,
                    stores[s.as_usize()].clone() as Arc<dyn aaa_storage::StableStore>,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let n = cores.len();
        Ok(Simulation {
            topology,
            cores,
            config,
            stores,
            model,
            heap: BinaryHeap::new(),
            events: Vec::new(),
            busy: vec![VTime::ZERO; n],
            now: VTime::ZERO,
            last_delivery: VTime::ZERO,
            seq: 0,
            cumulative: vec![StepStats::default(); n],
            fault,
            dropped_by_crash: 0,
            timer_armed: vec![None; n],
            crashed: vec![false; n],
            recorder: None,
            registry: None,
            latency: None,
            vtime_gauge: None,
        })
    }

    /// Attaches a metrics registry: every server core gets a meter
    /// labelled `server="<id>"` — publishing the **same metric vocabulary
    /// as the live runtime**, only on virtual time — plus one
    /// `aaa_sim_vtime_us` gauge tracking the simulation clock. Delivery
    /// latencies observed through `aaa_server_delivery_latency_us` are
    /// virtual-time microseconds.
    pub fn attach_registry(&mut self, registry: &Registry) {
        let tracker = LatencyTracker::new();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let meter = Meter::new(registry).with_label("server", i.to_string());
            core.attach_meter(&meter);
            core.set_latency_tracker(tracker.clone());
        }
        self.vtime_gauge = Some(Meter::new(registry).gauge(
            "aaa_sim_vtime_us",
            "Current virtual time of the simulation, in microseconds",
        ));
        self.registry = Some(registry.clone());
        self.latency = Some(tracker);
    }

    /// Snapshot of every metric, if a registry is attached; empty
    /// otherwise.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }

    /// Crashes `server` at the current virtual time: its in-memory state
    /// is discarded and datagrams addressed to it are dropped until
    /// [`Simulation::recover`]. Its stable store survives, so with
    /// [`ServerConfig::persist`] enabled the server resumes transparently.
    ///
    /// Crash recovery relies on link retransmission timers, so build the
    /// simulation with [`Simulation::with_fault_plan`] (an empty plan is
    /// fine) — the plain constructor disables timers by using an
    /// effectively infinite RTO.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn crash(&mut self, server: ServerId) {
        self.crashed[server.as_usize()] = true;
    }

    /// Recovers `server` from its stable store with fresh agent instances.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerCore::recover`] errors (corrupt image).
    pub fn recover(&mut self, server: ServerId, agents: Vec<(u32, Box<dyn Agent>)>) -> Result<()> {
        let s = server.as_usize();
        let start = self.busy[s].max(self.now);
        let mut core = ServerCore::recover(
            &self.topology,
            server,
            self.config,
            self.stores[s].clone() as Arc<dyn aaa_storage::StableStore>,
            agents,
            start,
        )?;
        if let Some(rec) = &self.recorder {
            core.set_recorder(rec.clone());
        }
        if let (Some(registry), Some(tracker)) = (&self.registry, &self.latency) {
            let meter = Meter::new(registry).with_label("server", s.to_string());
            core.attach_meter(&meter);
            core.set_latency_tracker(tracker.clone());
        }
        self.cores[s] = core;
        self.crashed[s] = false;
        // Retransmissions both from and to the recovered server need the
        // timers re-armed.
        for i in 0..self.cores.len() {
            self.arm_timer(i);
        }
        Ok(())
    }

    /// Number of datagrams dropped by the fault-injection loss lottery so
    /// far. Does **not** include datagrams discarded because their
    /// destination was crashed — those are counted by
    /// [`Simulation::dropped_by_crash`] (they are a consequence of the
    /// crash schedule, not of link loss, and historically went entirely
    /// uncounted).
    pub fn dropped_datagrams(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.stats().dropped)
    }

    /// Number of datagrams discarded because their destination server was
    /// crashed at arrival time. Kept separate from
    /// [`Simulation::dropped_datagrams`]: a crashed destination is a
    /// *host* fault repaired by recovery + retransmission, while the drop
    /// counter measures *link* loss injected by the plan.
    pub fn dropped_by_crash(&self) -> u64 {
        self.dropped_by_crash
    }

    /// Cumulative fault-injection decision statistics (zero without a
    /// plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
            .as_ref()
            .map_or_else(FaultStats::default, |f| f.stats())
    }

    /// Heals every injected fault from now on: partition windows are
    /// cleared and all drop/duplicate/delay probabilities drop to zero.
    /// Already-scheduled duplicates/delays still play out; statistics are
    /// preserved. Lets a harness end a chaos phase and assert the system
    /// quiesces cleanly.
    pub fn heal_faults(&mut self) {
        if let Some(f) = self.fault.as_mut() {
            f.heal_all();
        }
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current virtual time (the completion time of the latest processed
    /// work).
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Virtual time of the most recent delivery to an engine.
    pub fn last_delivery(&self) -> VTime {
        self.last_delivery
    }

    /// Cumulative statistics of one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn stats(&self, server: ServerId) -> StepStats {
        self.cumulative[server.as_usize()]
    }

    /// Sum of the statistics over all servers.
    pub fn total_stats(&self) -> StepStats {
        let mut total = StepStats::default();
        for s in &self.cumulative {
            total.absorb(*s);
        }
        total
    }

    /// Registers an agent on a server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn register_agent(
        &mut self,
        server: ServerId,
        local: u32,
        agent: Box<dyn Agent>,
    ) -> AgentId {
        self.cores[server.as_usize()].register_agent(local, agent)
    }

    /// Attaches a shared trace recorder to every server.
    pub fn record_into(&mut self, recorder: &TraceRecorder) {
        self.recorder = Some(recorder.clone());
        for core in &mut self.cores {
            core.set_recorder(recorder.clone());
        }
    }

    fn push(&mut self, at: VTime, ev: Event) {
        let idx = self.events.len();
        self.events.push(Some(ev));
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Schedules a causally ordered client send at the current virtual
    /// time.
    pub fn client_send(&mut self, from: AgentId, to: AgentId, note: Notification) {
        let at = self.now;
        self.push(
            at,
            Event::Client {
                from,
                to,
                note,
                policy: DeliveryPolicy::Causal,
            },
        );
    }

    /// Schedules an unordered-QoS client send at the current virtual time.
    pub fn client_send_unordered(&mut self, from: AgentId, to: AgentId, note: Notification) {
        let at = self.now;
        self.push(
            at,
            Event::Client {
                from,
                to,
                note,
                policy: DeliveryPolicy::Unordered,
            },
        );
    }

    /// Schedules a burst of causally ordered client sends processed as
    /// **one transaction** at the current virtual time: the batch is
    /// stamped together (consecutive same-hop stamps collapse into
    /// one-byte `GroupNext` continuations), coalesced into multi-frame
    /// wire packets and covered by one group commit — so the cost model
    /// charges the batch's amortized stamp bytes, not per-message
    /// matrices.
    pub fn client_send_batch(&mut self, from: AgentId, batch: Vec<(AgentId, Notification)>) {
        let at = self.now;
        self.push(at, Event::ClientBatch { from, batch });
    }

    /// Schedules a causally ordered client send at an explicit virtual
    /// time.
    pub fn client_send_at(&mut self, at: VTime, from: AgentId, to: AgentId, note: Notification) {
        self.push(
            at,
            Event::Client {
                from,
                to,
                note,
                policy: DeliveryPolicy::Causal,
            },
        );
    }

    /// Runs the event loop until no event remains, returning the final
    /// virtual time.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (misrouted frames, unknown servers) —
    /// none occur for validated topologies and well-formed workloads.
    pub fn run_until_quiet(&mut self) -> Result<VTime> {
        self.run(None)
    }

    /// Runs the event loop until no event remains at or before `deadline`,
    /// leaving later events queued. Needed for crash scenarios, where
    /// retransmissions toward a crashed server would otherwise keep the
    /// loop alive forever.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors, as in [`Simulation::run_until_quiet`].
    pub fn run_until(&mut self, deadline: VTime) -> Result<VTime> {
        self.run(Some(deadline))
    }

    fn run(&mut self, deadline: Option<VTime>) -> Result<VTime> {
        while let Some(&Reverse((at, _, _))) = self.heap.peek() {
            if deadline.is_some_and(|d| at > d) {
                break;
            }
            let Some(Reverse((at, _, idx))) = self.heap.pop() else {
                break;
            };
            let ev = self.events[idx].take().expect("event consumed once");
            let (server, out) = match ev {
                Event::Datagram { from, to, bytes } => {
                    // A crashed server drops everything addressed to it;
                    // the sender's retransmission redelivers after
                    // recovery (mirrors the live runtime). Counted
                    // separately from link loss — see `dropped_by_crash`.
                    if self.crashed[to.as_usize()] {
                        self.dropped_by_crash += 1;
                        self.arm_timer(from.as_usize());
                        continue;
                    }
                    // Fault injection: one seeded decision per datagram.
                    // Loss and partition blocks are repaired by the
                    // sender's retransmission timer; duplicates are
                    // absorbed by the link layer's duplicate suppression;
                    // delays re-offer the datagram later (reordering),
                    // repaired by the receiver's reorder buffer. Partition
                    // ticks are virtual-time milliseconds.
                    let (action, delay_ms) = match self.fault.as_mut() {
                        Some(f) => (
                            f.decide(from, to, at.as_micros() / 1_000),
                            f.plan().delay_ticks,
                        ),
                        None => (FaultAction::Deliver, 0),
                    };
                    match action {
                        FaultAction::Drop | FaultAction::Block => {
                            self.arm_timer(from.as_usize());
                            continue;
                        }
                        FaultAction::Delay => {
                            self.push(
                                at + VDuration::from_millis(delay_ms),
                                Event::Datagram { from, to, bytes },
                            );
                            continue;
                        }
                        FaultAction::Duplicate => {
                            // Deliver now *and* re-offer an identical copy
                            // one link latency later.
                            self.push(
                                at + self.model.link_latency,
                                Event::Datagram {
                                    from,
                                    to,
                                    bytes: bytes.clone(),
                                },
                            );
                        }
                        FaultAction::Deliver => {}
                    }
                    let s = to.as_usize();
                    let start = self.busy[s].max(at);
                    let out = self.cores[s].on_datagram(from, bytes, start)?;
                    (s, out)
                }
                Event::Client {
                    from,
                    to,
                    note,
                    policy,
                } => {
                    let s = from.server().as_usize();
                    let start = self.busy[s].max(at);
                    let (_, out) = self.cores[s].client_send_with(from, to, note, policy, start)?;
                    (s, out)
                }
                Event::ClientBatch { from, batch } => {
                    let s = from.server().as_usize();
                    let start = self.busy[s].max(at);
                    let (_, out) =
                        self.cores[s].client_send_batch(from, batch, SendOptions::new(), start)?;
                    (s, out)
                }
                Event::Timer { server } => {
                    self.timer_armed[server] = None;
                    let start = self.busy[server].max(at);
                    let out = self.cores[server].on_tick(start);
                    (server, out)
                }
            };
            let stats = self.cores[server].take_step_stats();
            let start = self.busy[server].max(at);
            let done = start + self.model.step_cost(&stats);
            self.busy[server] = done;
            self.now = self.now.max(done);
            if let Some(g) = &self.vtime_gauge {
                g.set(self.now.as_micros() as i64);
            }
            if stats.delivered > 0 {
                self.last_delivery = done;
            }
            self.cumulative[server].absorb(stats);
            let me = ServerId::new(server as u16);
            for t in out {
                self.push(
                    done + self.model.link_latency,
                    Event::Datagram {
                        from: me,
                        to: t.to,
                        bytes: t.bytes,
                    },
                );
            }
            if self.fault.is_some() || self.crashed.iter().any(|&c| c) {
                self.arm_timer(server);
            }
        }
        Ok(self.now)
    }

    /// Ensures a timer event is queued for `server`'s earliest link
    /// retransmission deadline (fault-injection mode only).
    fn arm_timer(&mut self, server: usize) {
        let Some(deadline) = self.cores[server].next_deadline() else {
            return;
        };
        match self.timer_armed[server] {
            Some(t) if t <= deadline => {}
            _ => {
                self.timer_armed[server] = Some(deadline);
                self.push(deadline, Event::Timer { server });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_clocks::StampMode;
    use aaa_mom::EchoAgent;
    use aaa_topology::TopologySpec;

    fn aid(s: u16, l: u32) -> AgentId {
        AgentId::new(ServerId::new(s), l)
    }

    fn sim(n: u16, model: CostModel) -> Simulation {
        let topo = TopologySpec::single_domain(n).validate().unwrap();
        let mut sim = Simulation::new(topo, ServerConfig::default(), model).unwrap();
        for s in 0..n {
            sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        sim
    }

    #[test]
    fn ping_pong_advances_time_deterministically() {
        let run = || {
            let mut sim = sim(2, CostModel::paper_calibrated());
            sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("ping"));
            sim.run_until_quiet().unwrap();
            sim.last_delivery()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulation must be deterministic");
        // One round trip ≈ 55 ms + small matrix term.
        let ms = a.as_millis_f64();
        assert!(ms > 50.0 && ms < 70.0, "round trip {ms} ms");
    }

    #[test]
    fn bigger_domains_cost_more() {
        let mut t = Vec::new();
        for n in [10u16, 30, 50] {
            let mut sim = sim(n, CostModel::paper_calibrated());
            sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("ping"));
            sim.run_until_quiet().unwrap();
            t.push(sim.last_delivery().as_millis_f64());
        }
        assert!(
            t[0] < t[1] && t[1] < t[2],
            "quadratic growth expected: {t:?}"
        );
        // Superlinear: tripling n should much-more-than-triple the delta.
        let d1 = t[1] - t[0];
        let d2 = t[2] - t[1];
        assert!(d2 > d1, "{t:?}");
    }

    #[test]
    fn batched_bursts_amortize_stamp_bytes() {
        // Same 16-message burst, one batch vs sixteen separate sends: the
        // batched run
        // must ship far fewer stamp bytes (GroupNext continuations are one
        // tag byte, encoded as zero stamp-payload bytes) while delivering
        // identically and keeping the Fig-7/8 cost series meaningful.
        let topo = || TopologySpec::single_domain(8).validate().unwrap();
        let burst: Vec<_> = (0..16)
            .map(|i| (aid(1, 1), Notification::new("b", vec![i as u8])))
            .collect();

        let mut batched =
            Simulation::new(topo(), ServerConfig::default(), CostModel::zero()).unwrap();
        for s in 0..8 {
            batched.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        batched.client_send_batch(aid(0, 9), burst.clone());
        batched.run_until_quiet().unwrap();

        let mut unbatched =
            Simulation::new(topo(), ServerConfig::default(), CostModel::zero()).unwrap();
        for s in 0..8 {
            unbatched.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        for (to, note) in burst {
            unbatched.client_send(aid(0, 9), to, note);
        }
        unbatched.run_until_quiet().unwrap();

        let b = batched.total_stats();
        let u = unbatched.total_stats();
        assert_eq!(b.delivered, u.delivered, "same end-to-end deliveries");
        assert!(
            b.stamp_bytes * 2 < u.stamp_bytes,
            "batched stamping must amortize: {} vs {} bytes",
            b.stamp_bytes,
            u.stamp_bytes
        );
        assert!(b.cell_ops < u.cell_ops, "continuations are O(1) cell work");
    }

    #[test]
    fn zero_model_still_delivers() {
        let mut sim = sim(3, CostModel::zero());
        sim.client_send(aid(0, 9), aid(2, 1), Notification::signal("x"));
        let end = sim.run_until_quiet().unwrap();
        assert!(end > VTime::ZERO, "link latency alone advances time");
        let total = sim.total_stats();
        assert_eq!(total.delivered, 2); // message + echo
    }

    #[test]
    fn trace_recording_in_sim() {
        let topo = TopologySpec::bus(2, 3).validate().unwrap();
        let mut sim = Simulation::new(topo, ServerConfig::default(), CostModel::zero()).unwrap();
        let recorder = TraceRecorder::new();
        sim.record_into(&recorder);
        for s in 0..6u16 {
            sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        // Cross-domain ping-pong through the backbone.
        sim.client_send(aid(1, 9), aid(5, 1), Notification::signal("ping"));
        sim.run_until_quiet().unwrap();
        let trace = recorder.snapshot().unwrap();
        assert_eq!(trace.message_count(), 2);
        assert!(trace.check_causality().is_ok());
        // Routers did forwarding work.
        let forwarded: u64 = (0..6).map(|i| sim.stats(ServerId::new(i)).forwarded).sum();
        assert!(forwarded >= 2);
    }

    #[test]
    fn lossy_network_still_delivers_everything_causally() {
        let topo = TopologySpec::single_domain(4).validate().unwrap();
        let config = ServerConfig {
            rto: aaa_base::VDuration::from_millis(50),
            ..ServerConfig::default()
        };
        let mut sim = Simulation::with_fault_plan(
            topo,
            config,
            CostModel::paper_calibrated(),
            FaultPlan::drop_only(0.25, 11),
        )
        .unwrap();
        let recorder = TraceRecorder::new();
        sim.record_into(&recorder);
        for s in 0..4u16 {
            sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        for i in 0..20u16 {
            let from = i % 4;
            let to = (i + 1) % 4;
            sim.client_send(aid(from, 9), aid(to, 1), Notification::signal("x"));
        }
        sim.run_until_quiet().unwrap();
        assert!(sim.dropped_datagrams() > 0, "faults should actually fire");
        let trace = recorder.snapshot().unwrap();
        assert_eq!(trace.message_count(), 40, "nothing may be lost end-to-end");
        assert!(trace.check_causality().is_ok());
    }

    #[test]
    fn lossy_runs_are_deterministic() {
        let run = || {
            let topo = TopologySpec::single_domain(3).validate().unwrap();
            let config = ServerConfig {
                rto: aaa_base::VDuration::from_millis(30),
                ..ServerConfig::default()
            };
            let mut sim = Simulation::with_fault_plan(
                topo,
                config,
                CostModel::paper_calibrated(),
                FaultPlan::drop_only(0.3, 5),
            )
            .unwrap();
            for s in 0..3u16 {
                sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
            }
            for _ in 0..10 {
                sim.client_send(aid(0, 9), aid(2, 1), Notification::signal("x"));
                sim.run_until_quiet().unwrap();
            }
            (sim.now(), sim.dropped_datagrams())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_and_recover_in_virtual_time() {
        use aaa_mom::Agent;

        struct Counter(u32);
        impl Agent for Counter {
            fn react(
                &mut self,
                _: &mut aaa_mom::ReactionContext<'_>,
                _: AgentId,
                _: &Notification,
            ) {
                self.0 += 1;
            }
            fn snapshot(&self) -> Vec<u8> {
                self.0.to_le_bytes().to_vec()
            }
            fn restore(&mut self, image: &[u8]) {
                self.0 = u32::from_le_bytes(image.try_into().expect("4 bytes"));
            }
        }

        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let config = ServerConfig {
            persist: true,
            rto: aaa_base::VDuration::from_millis(50),
            ..ServerConfig::default()
        };
        let mut sim = Simulation::with_fault_plan(
            topo,
            config,
            CostModel::paper_calibrated(),
            FaultPlan::drop_only(0.0, 0),
        )
        .unwrap();
        let recorder = TraceRecorder::new();
        sim.record_into(&recorder);
        let dest = ServerId::new(1);
        sim.register_agent(dest, 1, Box::new(Counter(0)));

        // Two deliveries, then a crash, two more (lost), recovery.
        for _ in 0..2 {
            sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("x"));
        }
        sim.run_until_quiet().unwrap();
        sim.crash(dest);
        for _ in 0..2 {
            sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("x"));
        }
        // While the server is down, retransmissions toward it cycle
        // forever; run for a bounded slice of virtual time only.
        let pause = sim.now() + aaa_base::VDuration::from_millis(500);
        sim.run_until(pause).unwrap();
        sim.recover(dest, vec![(1, Box::new(Counter(0)) as Box<dyn Agent>)])
            .unwrap();
        sim.run_until_quiet().unwrap();

        // All four ticks arrived exactly once, across the crash.
        let trace = recorder.snapshot().unwrap();
        assert_eq!(trace.message_count(), 4);
        assert_eq!(trace.deliveries_at(dest).len(), 4);
        assert!(trace.check_causality().is_ok());
    }

    #[test]
    fn rich_fault_plan_still_delivers_causally() {
        use aaa_chaos::{FaultPlan, LinkFaults};
        let topo = TopologySpec::single_domain(4).validate().unwrap();
        let config = ServerConfig {
            rto: aaa_base::VDuration::from_millis(50),
            ..ServerConfig::default()
        };
        let plan = FaultPlan::new(17)
            .faults(LinkFaults {
                drop: 0.15,
                duplicate: 0.1,
                delay: 0.1,
            })
            .partition((ServerId::new(0), ServerId::new(2)), 50, 250);
        let mut sim =
            Simulation::with_fault_plan(topo, config, CostModel::paper_calibrated(), plan).unwrap();
        let recorder = TraceRecorder::new();
        sim.record_into(&recorder);
        for s in 0..4u16 {
            sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        for i in 0..20u16 {
            let from = i % 4;
            let to = (i + 1) % 4;
            sim.client_send(aid(from, 9), aid(to, 1), Notification::signal("x"));
        }
        sim.run_until_quiet().unwrap();
        let stats = sim.fault_stats();
        assert!(
            stats.dropped + stats.duplicated + stats.delayed + stats.blocked > 0,
            "faults should actually fire: {stats:?}"
        );
        let trace = recorder.snapshot().unwrap();
        assert_eq!(trace.message_count(), 40, "exactly-once end-to-end");
        assert!(trace.check_causality().is_ok());
        assert_eq!(sim.dropped_by_crash(), 0);
    }

    #[test]
    fn rich_fault_plans_are_deterministic() {
        use aaa_chaos::{FaultPlan, LinkFaults};
        let run = || {
            let topo = TopologySpec::single_domain(3).validate().unwrap();
            let config = ServerConfig {
                rto: aaa_base::VDuration::from_millis(30),
                ..ServerConfig::default()
            };
            let plan = FaultPlan::new(23).faults(LinkFaults {
                drop: 0.2,
                duplicate: 0.1,
                delay: 0.1,
            });
            let mut sim =
                Simulation::with_fault_plan(topo, config, CostModel::paper_calibrated(), plan)
                    .unwrap();
            for s in 0..3u16 {
                sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
            }
            for _ in 0..10 {
                sim.client_send(aid(0, 9), aid(2, 1), Notification::signal("x"));
                sim.run_until_quiet().unwrap();
            }
            (sim.now(), sim.fault_stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_discards_are_counted_separately() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let config = ServerConfig {
            rto: aaa_base::VDuration::from_millis(50),
            ..ServerConfig::default()
        };
        let mut sim = Simulation::with_fault_plan(
            topo,
            config,
            CostModel::paper_calibrated(),
            FaultPlan::drop_only(0.0, 0),
        )
        .unwrap();
        let dest = ServerId::new(1);
        sim.register_agent(dest, 1, Box::new(EchoAgent));
        sim.crash(dest);
        sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("x"));
        let pause = sim.now() + aaa_base::VDuration::from_millis(300);
        sim.run_until(pause).unwrap();
        // The loss lottery never fired, but the crashed destination
        // discarded at least the first transmission.
        assert_eq!(sim.dropped_datagrams(), 0);
        assert!(sim.dropped_by_crash() > 0, "crash discards must be counted");
    }

    #[test]
    fn heal_faults_lets_the_run_quiesce() {
        use aaa_chaos::{FaultPlan, LinkFaults};
        let topo = TopologySpec::single_domain(3).validate().unwrap();
        let config = ServerConfig {
            rto: aaa_base::VDuration::from_millis(40),
            ..ServerConfig::default()
        };
        let plan = FaultPlan::new(9)
            .faults(LinkFaults::drop_only(0.4))
            .partition((ServerId::new(0), ServerId::new(1)), 0, u64::MAX);
        let mut sim =
            Simulation::with_fault_plan(topo, config, CostModel::paper_calibrated(), plan).unwrap();
        let recorder = TraceRecorder::new();
        sim.record_into(&recorder);
        for s in 0..3u16 {
            sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
        }
        for _ in 0..5 {
            sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("x"));
        }
        // Bounded chaos phase, then heal and quiesce.
        let pause = sim.now() + aaa_base::VDuration::from_millis(400);
        sim.run_until(pause).unwrap();
        sim.heal_faults();
        sim.run_until_quiet().unwrap();
        let trace = recorder.snapshot().unwrap();
        assert_eq!(trace.message_count(), 10, "heal lets everything through");
        assert!(trace.check_causality().is_ok());
    }

    #[test]
    fn invalid_drop_probability_rejected() {
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        assert!(Simulation::with_fault_plan(
            topo,
            ServerConfig::default(),
            CostModel::zero(),
            FaultPlan::drop_only(1.5, 0),
        )
        .is_err());
    }

    #[test]
    fn updates_mode_cheaper_on_wan() {
        let run = |mode: StampMode| {
            let topo = TopologySpec::single_domain(10).validate().unwrap();
            let config = ServerConfig {
                stamp_mode: mode,
                ..ServerConfig::default()
            };
            let mut sim = Simulation::new(topo, config, CostModel::wan(100.0)).unwrap();
            for s in 0..10u16 {
                sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
            }
            // Repeated pair traffic: the Updates sweet spot.
            for _ in 0..20 {
                sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("x"));
                sim.run_until_quiet().unwrap();
            }
            sim.now().as_millis_f64()
        };
        let full = run(StampMode::Full);
        let updates = run(StampMode::Updates);
        assert!(
            updates < full * 0.75,
            "updates {updates} ms should beat full {full} ms on a WAN"
        );
    }

    #[test]
    fn registry_mirrors_stats_and_tracks_vtime() {
        let mut sim = sim(3, CostModel::paper_calibrated());
        let registry = Registry::default();
        sim.attach_registry(&registry);
        sim.client_send(aid(0, 9), aid(2, 1), Notification::signal("ping"));
        sim.run_until_quiet().unwrap();

        let snap = sim.metrics();
        let total = sim.total_stats();
        assert_eq!(
            snap.sum_counter("aaa_channel_delivered_total"),
            total.delivered
        );
        assert_eq!(
            snap.sum_counter("aaa_channel_transmitted_total"),
            total.transmitted
        );
        assert_eq!(
            snap.sum_counter("aaa_channel_cell_ops_total"),
            total.cell_ops
        );
        assert_eq!(
            snap.sum_counter("aaa_channel_stamp_bytes_total"),
            total.stamp_bytes
        );
        // The vtime gauge follows the simulation clock.
        assert_eq!(
            snap.gauge("aaa_sim_vtime_us", &[]),
            Some(sim.now().as_micros() as i64)
        );
        // Nothing in flight after quiescence.
        assert_eq!(snap.sum_gauge("aaa_channel_postponed"), 0);
        // Delivery latency was measured for the remote hops in virtual time.
        let hist = snap
            .histogram("aaa_server_delivery_latency_us", &[("server", "2")])
            .expect("destination server observed a delivery latency");
        assert!(hist.count >= 1, "at least the ping was timed");
        assert!(
            hist.sum > 0,
            "virtual latency is non-zero under the paper model"
        );
    }

    #[test]
    fn metrics_without_registry_are_empty() {
        let mut sim = sim(2, CostModel::zero());
        sim.client_send(aid(0, 9), aid(1, 1), Notification::signal("x"));
        sim.run_until_quiet().unwrap();
        let snap = sim.metrics();
        assert_eq!(snap.sum_counter("aaa_channel_delivered_total"), 0);
    }
}
