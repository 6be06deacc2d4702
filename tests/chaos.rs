//! Chaos soak: seeded deterministic fault plans against the full stack.
//!
//! Four legs:
//!
//! 1. A randomized **simulator soak** — 24 derived fault plans covering
//!    loss, duplication, delay/reorder, partitions and router crashes,
//!    across both stamp modes, with and without multi-message batch
//!    transactions opening the workload. Every run must
//!    deliver exactly once, in causal order, with nothing left postponed.
//!    A failing seed prints a one-line repro (`RANDOM_SEED=<seed> …`).
//! 2. A **sabotage leg** — the same harness with retransmission disabled
//!    must *fail*, proving the checks actually detect loss.
//! 3. A **live partition leg** (a shard worker per server) — live
//!    `FaultTransport` partition between
//!    two servers, the failure detector marks the peer down
//!    (`aaa_net_peer_state`), the partition heals, the link self-heals and
//!    the detector records the recovery.
//! 4. A **live-runtime matrix** — the same 24-seed derivation against
//!    the live shard pool (`RuntimeConfig::evented`), with
//!    `FaultTransport`-wrapped in-memory endpoints, walking both stamp
//!    modes and 1–3 shards. Exactly-once, causal order, clean quiesce and
//!    a graceful drain on every seed.

use std::sync::Arc;
use std::time::Duration;

use aaa_middleware::base::{AgentId, ServerId, VDuration, VTime};
use aaa_middleware::chaos::{ChaosHandle, FaultPlan, FaultStats, FaultTransport, LinkFaults};
use aaa_middleware::mom::{
    Agent, ClockConfig, EchoAgent, FnAgent, MomBuilder, NetConfig, Notification, RuntimeConfig,
    ServerConfig, StampMode, Transport,
};
use aaa_middleware::net::MemoryNetwork;
use aaa_middleware::obs::Registry;
use aaa_middleware::sim::{CostModel, Simulation};
use aaa_middleware::topology::TopologySpec;
use aaa_middleware::trace::TraceRecorder;
use parking_lot::Mutex;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

/// Two leaf domains joined by router server 2.
const SERVERS: u16 = 5;
const ROUTER: u16 = 2;
const SENDS: usize = 30;

fn spec() -> TopologySpec {
    TopologySpec::from_domains(vec![vec![0, 1, 2], vec![2, 3, 4]])
}

// ---- tiny deterministic generator for deriving plan parameters --------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

struct Case {
    plan: FaultPlan,
    stamp: StampMode,
    /// Whether batch transactions open the workload.
    batching: bool,
}

/// Derives a full fault plan from one seed. `seed % 4` picks the dominant
/// fault shape (loss / duplication / delay / partition) so a small seed
/// range provably covers all four; every fifth seed also crashes the
/// router mid-run (schedule carried in the plan, driven by the harness).
fn derive_case(seed: u64) -> Case {
    let mut st = seed;
    let shape = seed % 4;
    let faults = LinkFaults {
        drop: if shape == 0 {
            0.15 + 0.10 * unit(&mut st)
        } else {
            0.08 * unit(&mut st)
        },
        duplicate: if shape == 1 {
            0.10 + 0.08 * unit(&mut st)
        } else {
            0.04 * unit(&mut st)
        },
        delay: if shape == 2 {
            0.10 + 0.08 * unit(&mut st)
        } else {
            0.04 * unit(&mut st)
        },
    };
    let mut plan = FaultPlan::new(seed).faults(faults);
    if shape == 3 {
        // Cut one leaf off from the router for a while; the window closes
        // well before quiesce, so retransmission must repair the gap.
        let from = 5 + splitmix(&mut st) % 20;
        plan = plan.partition((ServerId::new(0), ServerId::new(ROUTER)), from, from + 80);
    }
    if seed.is_multiple_of(5) {
        plan = plan.crash(ServerId::new(ROUTER), 5, Some(120));
    }
    Case {
        plan,
        // `seed / 2` walks the mode list half as fast as the fault shape,
        // so 24 seeds cover every (shape, mode) pairing at least once.
        stamp: StampMode::ALL[(seed / 2) as usize % StampMode::ALL.len()],
        batching: (seed / 4).is_multiple_of(2),
    }
}

/// Runs one seeded chaos case through the simulator and verifies it end
/// to end. Returns the injector's fault statistics and the number of
/// crash discards on success; the error string carries a one-line repro.
fn run_case(seed: u64, sabotage: bool) -> Result<(FaultStats, u64), String> {
    let repro = format!("repro: RANDOM_SEED={seed} cargo test --release --test chaos");
    let fail = |what: String| format!("seed {seed}: {what}; {repro}");
    let case = derive_case(seed);
    let config = ServerConfig {
        stamp_mode: case.stamp,
        // The sabotage leg disables retransmission outright: the harness
        // must notice the resulting loss.
        rto: if sabotage {
            VDuration::from_millis(u64::MAX / 2_000)
        } else {
            VDuration::from_millis(40)
        },
        persist: true,
        ..ServerConfig::default()
    };
    let topo = spec().validate().map_err(|e| fail(e.to_string()))?;
    let mut sim = Simulation::with_fault_plan(
        topo,
        config,
        CostModel::paper_calibrated(),
        case.plan.clone(),
    )
    .map_err(|e| fail(e.to_string()))?;
    let recorder = TraceRecorder::new();
    sim.record_into(&recorder);
    let registry = Registry::new();
    sim.attach_registry(&registry);
    for s in 0..SERVERS {
        sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
    }

    // Workload: cross- and intra-domain singles; the batching legs front a
    // few multi-message transactions (stamped and flushed together).
    let mut sent = 0usize;
    if case.batching {
        for b in 0..3u16 {
            let batch: Vec<_> = (0..4u16)
                .map(|i| {
                    (
                        aid((b + i + 2) % SERVERS, 1),
                        Notification::new("m", format!("b{b}-{i}")),
                    )
                })
                .collect();
            sent += batch.len();
            sim.client_send_batch(aid(b % SERVERS, 9), batch);
        }
    }
    while sent < SENDS {
        let from = (sent as u16) % SERVERS;
        let to = (sent as u16 + 2) % SERVERS;
        sim.client_send(
            aid(from, 9),
            aid(to, 1),
            Notification::new("m", format!("s{sent}")),
        );
        sent += 1;
    }

    // Crash schedule: carried by the plan, driven by the harness (the
    // event loop cannot know which agents to reinstall).
    for crash in case.plan.crashes.clone() {
        sim.run_until(VTime::ZERO + VDuration::from_millis(crash.at_tick))
            .map_err(|e| fail(e.to_string()))?;
        sim.crash(crash.server);
        if let Some(recover_at) = crash.recover_at {
            sim.run_until(VTime::ZERO + VDuration::from_millis(recover_at))
                .map_err(|e| fail(e.to_string()))?;
            sim.recover(
                crash.server,
                vec![(1, Box::new(EchoAgent) as Box<dyn Agent>)],
            )
            .map_err(|e| fail(e.to_string()))?;
        }
    }
    if sabotage {
        // Without retransmission the run never becomes quiet on its own
        // merits; bound it and inspect what got through.
        sim.run_until(VTime::ZERO + VDuration::from_millis(60_000))
            .map_err(|e| fail(e.to_string()))?;
    } else {
        sim.run_until_quiet().map_err(|e| fail(e.to_string()))?;
    }

    // Every send is echoed: exactly-once means exactly 2x deliveries.
    let expected = sent * 2;
    let trace = recorder.snapshot().map_err(|e| fail(format!("{e:?}")))?;
    if trace.message_count() != expected {
        return Err(fail(format!(
            "delivered {} of {expected} messages",
            trace.message_count()
        )));
    }
    trace
        .check_causality()
        .map_err(|v| fail(format!("global causality violated: {v:?}")))?;
    for d in sim.topology().domains() {
        trace
            .check_causality_in(d.members())
            .map_err(|v| fail(format!("domain {} not locally causal: {v:?}", d.id())))?;
    }
    let postponed = registry.snapshot().sum_gauge("aaa_channel_postponed");
    if postponed != 0 {
        return Err(fail(format!("{postponed} messages left postponed")));
    }
    Ok((sim.fault_stats(), sim.dropped_by_crash()))
}

#[test]
fn chaos_soak_24_seeds_cover_all_fault_shapes() {
    let mut agg = FaultStats::default();
    let mut crash_discards = 0u64;
    for seed in 0..24 {
        match run_case(seed, false) {
            Ok((stats, crashed)) => {
                agg.decided += stats.decided;
                agg.dropped += stats.dropped;
                agg.duplicated += stats.duplicated;
                agg.delayed += stats.delayed;
                agg.blocked += stats.blocked;
                crash_discards += crashed;
            }
            Err(msg) => panic!("{msg}"),
        }
    }
    // The soak is only meaningful if every fault shape actually fired.
    assert!(agg.dropped > 0, "no datagram was ever dropped: {agg:?}");
    assert!(
        agg.duplicated > 0,
        "no datagram was ever duplicated: {agg:?}"
    );
    assert!(agg.delayed > 0, "no datagram was ever delayed: {agg:?}");
    assert!(
        agg.blocked > 0,
        "no partition ever blocked traffic: {agg:?}"
    );
    assert!(
        crash_discards > 0,
        "no datagram ever hit a crashed router: {agg:?}"
    );
}

/// One live chaos run on the sharded evented runtime. Faults are injected
/// by `FaultTransport` under the real shard pool (readiness notifiers,
/// work-stealing, timer wakeups); the derivation mirrors [`derive_case`]:
/// `seed % 4` picks the dominant fault shape — shape 3 is a live
/// mid-workload partition between a leaf and the router — while `seed / 2`
/// walks the stamp modes and `seed % 3` varies the shard count.
fn run_evented_case(seed: u64) -> Result<FaultStats, String> {
    let repro = format!("repro: seed {seed} in chaos_matrix_24_seeds_on_evented_runtime");
    let fail = |what: String| format!("seed {seed}: {what}; {repro}");
    let mut st = seed;
    let shape = seed % 4;
    let faults = LinkFaults {
        drop: if shape == 0 {
            0.15 + 0.10 * unit(&mut st)
        } else {
            0.08 * unit(&mut st)
        },
        duplicate: if shape == 1 {
            0.10 + 0.08 * unit(&mut st)
        } else {
            0.04 * unit(&mut st)
        },
        delay: if shape == 2 {
            0.10 + 0.08 * unit(&mut st)
        } else {
            0.04 * unit(&mut st)
        },
    };
    let handle =
        ChaosHandle::new(FaultPlan::new(seed).faults(faults)).map_err(|e| fail(e.to_string()))?;
    let n = SERVERS as usize;
    let transports: Vec<Box<dyn Transport>> = MemoryNetwork::create(n)
        .into_iter()
        .map(|ep| Box::new(FaultTransport::new(ep, &handle, n)) as Box<dyn Transport>)
        .collect();
    let shards = 1 + (seed % 3) as usize;
    let mom = MomBuilder::new(spec())
        .transports(transports)
        .clock(ClockConfig::mode(
            StampMode::ALL[(seed / 2) as usize % StampMode::ALL.len()],
        ))
        .runtime(RuntimeConfig::evented(shards).metrics(true))
        .net(NetConfig::memory().rto(VDuration::from_millis(20)))
        .build()
        .map_err(|e| fail(e.to_string()))?;
    for s in 0..SERVERS {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .map_err(|e| fail(e.to_string()))?;
    }

    if shape == 3 {
        // Live partition: cut a leaf off from the router for the first
        // half of the workload; retransmission repairs the gap after the
        // heal.
        handle.partition_now(ServerId::new(0), ServerId::new(ROUTER));
    }
    for i in 0..SENDS {
        let from = (i as u16) % SERVERS;
        let to = (i as u16 + 2) % SERVERS;
        mom.send(
            aid(from, 9),
            aid(to, 1),
            Notification::new("m", format!("s{i}")),
        )
        .map_err(|e| fail(e.to_string()))?;
    }
    if shape == 3 {
        std::thread::sleep(Duration::from_millis(30));
        handle.heal_all();
    }

    if !mom.quiesce(Duration::from_secs(30)) {
        return Err(fail("never quiesced".to_owned()));
    }
    let expected = SENDS * 2;
    let trace = mom.trace().map_err(|e| fail(e.to_string()))?;
    if trace.message_count() != expected {
        return Err(fail(format!(
            "delivered {} of {expected} messages",
            trace.message_count()
        )));
    }
    trace
        .check_causality()
        .map_err(|v| fail(format!("global causality violated: {v:?}")))?;
    let postponed = mom.metrics().sum_gauge("aaa_channel_postponed");
    if postponed != 0 {
        return Err(fail(format!("{postponed} messages left postponed")));
    }
    if mom.in_flight() != 0 {
        return Err(fail(format!(
            "{} messages still in flight",
            mom.in_flight()
        )));
    }
    if !mom.shutdown_within(Duration::from_secs(10)) {
        return Err(fail("graceful shutdown did not drain in time".to_owned()));
    }
    Ok(handle.stats())
}

#[test]
fn chaos_matrix_24_seeds_on_evented_runtime() {
    let mut agg = FaultStats::default();
    for seed in 0..24 {
        match run_evented_case(seed) {
            Ok(stats) => {
                agg.decided += stats.decided;
                agg.dropped += stats.dropped;
                agg.duplicated += stats.duplicated;
                agg.delayed += stats.delayed;
                agg.blocked += stats.blocked;
            }
            Err(msg) => panic!("{msg}"),
        }
    }
    // The matrix is only meaningful if every live fault shape fired.
    assert!(agg.dropped > 0, "no datagram was ever dropped: {agg:?}");
    assert!(
        agg.duplicated > 0,
        "no datagram was ever duplicated: {agg:?}"
    );
    assert!(agg.delayed > 0, "no datagram was ever delayed: {agg:?}");
    assert!(
        agg.blocked > 0,
        "no partition ever blocked traffic: {agg:?}"
    );
}

#[test]
fn chaos_random_seed_from_environment() {
    // CI's randomized leg: RANDOM_SEED=$GITHUB_RUN_ID explores a fresh
    // plan every run; locally this replays a failing seed one-liner.
    let seed = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242);
    if let Err(msg) = run_case(seed, false) {
        panic!("{msg}");
    }
}

#[test]
fn sabotaged_retransmission_is_caught_by_the_harness() {
    // Seed 0 is the loss-heavy shape plus a router crash; with the RTO
    // effectively infinite nothing repairs the damage, and the harness
    // MUST report it (with the repro line attached).
    let msg = run_case(0, true)
        .map(|_| ())
        .expect_err("disabled retransmission must make the chaos harness fail");
    assert!(
        msg.contains("RANDOM_SEED=0"),
        "failure must carry a one-line repro, got: {msg}"
    );
}

#[test]
fn fault_transport_partition_heals_on_threaded_runtime() {
    let n = 3usize;
    let handle = ChaosHandle::new(FaultPlan::new(7)).unwrap();
    let transports: Vec<Box<dyn Transport>> = MemoryNetwork::create(n)
        .into_iter()
        .map(|ep| Box::new(FaultTransport::new(ep, &handle, n)) as Box<dyn Transport>)
        .collect();
    let seen: Arc<Mutex<Vec<String>>> = Default::default();
    let seen2 = seen.clone();
    let mom = MomBuilder::new(TopologySpec::single_domain(n as u16))
        .transports(transports)
        .runtime(RuntimeConfig::threaded().metrics(true))
        .net(NetConfig::memory().rto(VDuration::from_millis(20)))
        .build()
        .unwrap();
    mom.register_agent(
        ServerId::new(1),
        1,
        Box::new(FnAgent::new(move |_ctx, _from, note| {
            seen2.lock().push(note.body_str().unwrap_or("").to_owned());
        })),
    )
    .unwrap();

    // Every (server, neighbour) gauge at Up=2: one domain, so each server
    // meters the n - 1 others.
    let all_up = (2 * n * (n - 1)) as i64;

    // Phase 1: a healthy round trip.
    mom.send(aid(0, 9), aid(1, 1), Notification::new("m", "pre"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(5)));
    assert_eq!(mom.metrics().sum_gauge("aaa_net_peer_state"), all_up);

    // Phase 2: partition 0 <-> 1 and keep sending into the cut.
    handle.partition_now(ServerId::new(0), ServerId::new(1));
    for i in 0..5 {
        mom.send(
            aid(0, 9),
            aid(1, 1),
            Notification::new("m", format!("part-{i}")),
        )
        .unwrap();
    }
    // The failure detector must take the peer out of Up (Suspect after the
    // first failed attempt, Down after three).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while mom.metrics().sum_gauge("aaa_net_peer_state") >= all_up {
        assert!(
            std::time::Instant::now() < deadline,
            "peer_state never left Up during the partition"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.stats().blocked > 0, "partition never blocked a send");

    // Phase 3: heal; the link layer retransmits, the detector recovers.
    handle.heal_all();
    assert!(
        mom.quiesce(Duration::from_secs(10)),
        "healed partition must drain"
    );
    assert_eq!(mom.in_flight(), 0);
    mom.send(aid(0, 9), aid(1, 1), Notification::new("m", "post"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(5)));

    let got = seen.lock().clone();
    assert_eq!(
        got,
        vec!["pre", "part-0", "part-1", "part-2", "part-3", "part-4", "post"],
        "exactly-once, in-order delivery across the partition"
    );
    let snap = mom.metrics();
    assert_eq!(
        snap.sum_gauge("aaa_net_peer_state"),
        all_up,
        "every peer back to Up after the heal"
    );
    assert!(
        snap.sum_counter("aaa_net_peer_recoveries_total") > 0,
        "the down->up transition must be recorded"
    );
    assert!(mom.trace().unwrap().check_causality().is_ok());
    mom.shutdown();
}
