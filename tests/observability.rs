//! Cross-crate observability: the metrics registry must agree with the
//! formal trace model, with the legacy `StepStats` view, and with the
//! paper's headline scalability claims (Figures 7/8 vs the domain
//! decomposition) — all read through the public `Mom::metrics()` /
//! `Simulation::metrics()` surface.

mod common;

use std::sync::Arc;
use std::time::Duration;

use aaa_middleware::chaos::{ChaosHandle, FaultPlan, FaultTransport};
use aaa_middleware::mom::{ServerCore, Transport};
use aaa_middleware::net::MemoryNetwork;
use aaa_middleware::obs::MetricFamily;
use aaa_middleware::prelude::*;
use aaa_middleware::storage::MemoryStore;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

/// The sum over servers of delivered messages in the registry equals the
/// trace length, and the `StepStats` view agrees with the registry it is
/// derived from.
#[test]
fn delivered_counters_sum_to_trace_length() {
    let spec = common::random_acyclic_spec(3, 3, 2, 4);
    let n = spec.server_count() as u16;
    let mom = MomBuilder::new(spec).build().unwrap();
    for s in 0..n {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .unwrap();
    }
    for (from, to) in common::random_pairs(11, n, 30) {
        mom.send(aid(from, 77), aid(to, 1), Notification::signal("m"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(30)));

    let trace = mom.trace().unwrap();
    let snap = mom.metrics();
    assert_eq!(
        snap.sum_counter("aaa_channel_delivered_total"),
        trace.message_count() as u64,
        "registry and trace disagree on end-to-end deliveries"
    );
    // The legacy per-server stats are a view over the same registry.
    let mut total = StepStats::default();
    for s in 0..n {
        total.absorb(mom.stats(ServerId::new(s)).unwrap());
    }
    assert_eq!(total.delivered, trace.message_count() as u64);
    assert_eq!(
        total.stamp_bytes,
        snap.sum_counter("aaa_channel_stamp_bytes_total")
    );
    mom.shutdown();
}

/// After quiescence nothing may remain postponed: the gauge that tracked
/// causally-blocked messages must be back at zero on every server, in both
/// runtimes — including under message loss, where postponement actually
/// fires.
#[test]
fn postponed_gauge_returns_to_zero_after_quiesce() {
    // Live runtime.
    let mom = MomBuilder::new(TopologySpec::single_domain(4))
        .build()
        .unwrap();
    for s in 0..4 {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .unwrap();
    }
    for (from, to) in common::random_pairs(7, 4, 20) {
        mom.send(aid(from, 9), aid(to, 1), Notification::signal("x"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(30)));
    assert_eq!(mom.metrics().sum_gauge("aaa_channel_postponed"), 0);
    mom.shutdown();

    // Simulator under 25 % loss: retransmissions reorder traffic enough to
    // exercise the postponement path deterministically.
    let topo = TopologySpec::single_domain(4).validate().unwrap();
    let config = ServerConfig {
        rto: VDuration::from_millis(50),
        ..ServerConfig::default()
    };
    let mut sim = aaa_middleware::sim::Simulation::with_fault_plan(
        topo,
        config,
        CostModel::paper_calibrated(),
        FaultPlan::drop_only(0.25, 11),
    )
    .unwrap();
    let registry = Registry::default();
    sim.attach_registry(&registry);
    for s in 0..4u16 {
        sim.register_agent(ServerId::new(s), 1, Box::new(EchoAgent));
    }
    for (from, to) in common::random_pairs(13, 4, 20) {
        sim.client_send(aid(from, 9), aid(to, 1), Notification::signal("x"));
    }
    sim.run_until_quiet().unwrap();
    assert!(sim.dropped_datagrams() > 0, "faults should actually fire");
    let snap = sim.metrics();
    assert_eq!(snap.sum_gauge("aaa_channel_postponed"), 0);
    // Every loss shows up as a link retransmission somewhere.
    assert!(snap.sum_counter("aaa_server_retransmissions_total") > 0);
}

/// The link-batching families as a server's own instruments render them:
/// a `ServerCore` with a meter attached flushes a batch of one frame and
/// one of 32 to its peer.
fn server_link_families() -> Vec<MetricFamily> {
    let registry = Registry::default();
    let topo = TopologySpec::single_domain(2).validate().unwrap();
    let store = Arc::new(MemoryStore::new());
    let mut core =
        ServerCore::new(&topo, ServerId::new(0), ServerConfig::default(), store).unwrap();
    core.attach_meter(&Meter::new(&registry).with_label("server", "0"));
    for width in [1u8, 32] {
        let batch = (0..width)
            .map(|i| (aid(1, 1), Notification::new("b", vec![i])))
            .collect();
        let (_, tx) =
            (core.client_send_batch(aid(0, 9), batch, SendOptions::new(), VTime::ZERO)).unwrap();
        assert_eq!(tx.len(), 1, "a batch of {width} is one flush");
    }
    let families = registry.snapshot().families.into_iter();
    families
        .filter(|f| f.name.starts_with("aaa_link_"))
        .collect()
}

/// Golden-file check of the Prometheus text exposition: a hand-built
/// registry with one family of each kind, plus the link-batching families
/// of a real server (so the golden pins the server's own bucket edges),
/// must render byte-for-byte as `tests/golden/metrics.prom`. Regenerate
/// with `UPDATE_GOLDEN=1 cargo test --test observability`.
#[test]
fn prometheus_rendering_matches_golden_file() {
    let registry = Registry::default();
    let m0 = Meter::new(&registry).with_label("server", "0");
    let m1 = Meter::new(&registry).with_label("server", "1");

    let c0 = m0.counter(
        "aaa_channel_delivered_total",
        "Messages delivered to local agents",
    );
    let c1 = m1.counter(
        "aaa_channel_delivered_total",
        "Messages delivered to local agents",
    );
    c0.add(3);
    c1.add(4);
    m0.counter_with(
        "aaa_net_tx_frames_total",
        "Frames sent, by destination peer",
        &[("peer", "1".to_string())],
    )
    .add(7);
    let g = m0.gauge("aaa_channel_postponed", "Messages currently postponed");
    g.add(2);
    g.add(-2);
    let h = m0.histogram(
        "aaa_server_delivery_latency_us",
        "Send-to-delivery latency, microseconds",
        &[100, 1_000, 10_000],
    );
    h.observe(40);
    h.observe(900);
    h.observe(2_000_000);
    // Group-commit instruments.
    m0.counter(
        "aaa_persist_group_commit_total",
        "Transactional group commits (one put per batch of deliveries)",
    )
    .add(2);
    m0.histogram(
        "aaa_persist_group_commit_us",
        "Wall-clock duration of one group commit, in microseconds",
        &[100, 1_000, 10_000],
    )
    .observe(250);
    m0.counter(
        "aaa_server_rejected_datagrams_total",
        "Datagrams and frame payloads dropped because they failed to \
         decode or validate, or because their step aborted",
    )
    .add(2);
    // Audit-pass instruments (unlabeled meter: these are per-workspace,
    // not per-server). Fixed values keep the golden deterministic.
    let ma = Meter::new(&registry);
    ma.gauge_with(
        "aaa_audit_model_states_explored",
        "Distinct states explored by the bounded model checks at CI shape",
        &[("model", "engine-full".to_string())],
    )
    .set(6_370);
    ma.gauge_with(
        "aaa_audit_model_states_explored",
        "Distinct states explored by the bounded model checks at CI shape",
        &[("model", "slot".to_string())],
    )
    .set(33_151);
    ma.gauge_with(
        "aaa_audit_elapsed_ms",
        "Audit pass wall time by phase (milliseconds)",
        &[("phase", "per-file".to_string())],
    )
    .set(41);

    let mut snapshot = registry.snapshot();
    snapshot.families.extend(server_link_families());
    snapshot.families.sort_by(|a, b| a.name.cmp(&b.name));
    let rendered = snapshot.render_prometheus();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run UPDATE_GOLDEN=1 cargo test --test observability");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from tests/golden/metrics.prom \
         (set UPDATE_GOLDEN=1 to regenerate intentionally)"
    );
}

/// Stamp bytes for one round trip, read off the registry of a fresh bus.
fn round_trip_stamp_bytes(spec: TopologySpec, from: u16, to: u16) -> u64 {
    let n = spec.server_count() as u16;
    let mom = MomBuilder::new(spec)
        .clock(ClockConfig::mode(StampMode::Full))
        .runtime(RuntimeConfig::threaded().record_trace(false))
        .build()
        .unwrap();
    for s in 0..n {
        mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
            .unwrap();
    }
    mom.send(aid(from, 9), aid(to, 1), Notification::signal("ping"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(30)));
    let bytes = mom.metrics().sum_counter("aaa_channel_stamp_bytes_total");
    mom.shutdown();
    bytes
}

/// The paper's Figures 7/8 claim, read from the metrics API: without
/// domains the wire cost of causal ordering grows quadratically with the
/// number of servers, while with small fixed-size domains (the bus of
/// Figure 9/10) doubling the system leaves the per-message stamp cost
/// nearly flat.
#[test]
fn stamp_cost_quadratic_without_domains_flat_with() {
    // Single domain, 6 → 12 servers: matrix stamps are n × n, so one round
    // trip carries ~4× the stamp bytes.
    let single_small = round_trip_stamp_bytes(TopologySpec::single_domain(6), 0, 5);
    let single_big = round_trip_stamp_bytes(TopologySpec::single_domain(12), 0, 11);
    let single_ratio = single_big as f64 / single_small as f64;
    assert!(
        single_ratio > 3.0,
        "single-domain stamp bytes should grow ~quadratically: \
         {single_small} → {single_big} ({single_ratio:.2}×)"
    );

    // Bus of 3-server domains, 2 → 4 leaves (6 → 12 servers), cross-domain
    // round trip between the first and the last leaf: stamps are sized by
    // the domains crossed, not by the whole system.
    let bus_small = round_trip_stamp_bytes(TopologySpec::bus(2, 3), 1, 5);
    let bus_big = round_trip_stamp_bytes(TopologySpec::bus(4, 3), 1, 11);
    let bus_ratio = bus_big as f64 / bus_small as f64;
    assert!(
        bus_ratio < 2.5,
        "small-domain stamp bytes should stay nearly flat: \
         {bus_small} → {bus_big} ({bus_ratio:.2}×)"
    );
    assert!(
        single_ratio > bus_ratio,
        "domains must beat the flat organization: {single_ratio:.2}× vs {bus_ratio:.2}×"
    );
}

/// Transport counters exist only toward the peers a server exchanges
/// frames with — its domain neighbours — not toward every server: a
/// `bus(8,8)` boot mints at most Σ neighbours tx series (504), not 64².
#[test]
fn net_series_follow_domain_neighbours() {
    let mom = MomBuilder::new(TopologySpec::bus(8, 8))
        .runtime(RuntimeConfig::evented(2).metrics(true))
        .build()
        .unwrap();
    let topo = mom.topology();
    let neighbours: usize = topo.servers().map(|s| topo.neighbors(s).len()).sum();
    assert_eq!(neighbours, 504);
    mom.register_agent(ServerId::new(63), 1, Box::new(EchoAgent))
        .unwrap();
    mom.send(aid(1, 9), aid(63, 1), Notification::signal("hi"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(30)));

    let snap = mom.metrics();
    let series = snap
        .family("aaa_net_tx_frames_total")
        .map_or(0, |f| f.samples.len());
    assert!(
        (1..=neighbours).contains(&series),
        "{series} tx series for {neighbours} neighbour pairs"
    );
    // The cross-domain round trip crossed the routers' links and was counted.
    assert!(snap.sum_counter("aaa_net_tx_frames_total") >= 6);
    mom.shutdown();
}

/// The failure detector a `FaultTransport` adds meters the same peers:
/// its two per-peer families stay within 2 × Σ neighbours series on a
/// `bus(8,8)` (1 008), where one series per server pair was 2 × 64².
#[test]
fn health_series_follow_domain_neighbours() {
    let spec = TopologySpec::bus(8, 8);
    let n = spec.server_count();
    let handle = ChaosHandle::new(FaultPlan::new(3)).unwrap();
    let transports: Vec<Box<dyn Transport>> = MemoryNetwork::create(n)
        .into_iter()
        .map(|ep| Box::new(FaultTransport::new(ep, &handle, n)) as Box<dyn Transport>)
        .collect();
    let mom = MomBuilder::new(spec)
        .transports(transports)
        .runtime(RuntimeConfig::evented(2).metrics(true))
        .build()
        .unwrap();
    let topo = mom.topology();
    let neighbours: usize = topo.servers().map(|s| topo.neighbors(s).len()).sum();
    mom.register_agent(ServerId::new(63), 1, Box::new(EchoAgent))
        .unwrap();
    mom.send(aid(1, 9), aid(63, 1), Notification::signal("hi"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(30)));

    let snap = mom.metrics();
    let series = |family: &str| snap.family(family).map_or(0, |f| f.samples.len());
    let health = series("aaa_net_peer_state") + series("aaa_net_peer_recoveries_total");
    assert!(
        (1..=2 * neighbours).contains(&health),
        "{health} health series for {neighbours} neighbour pairs"
    );
    mom.shutdown();
}

/// The JSON exposition carries the same totals as the typed snapshot.
#[test]
fn json_exposition_matches_snapshot() {
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .build()
        .unwrap();
    mom.register_agent(ServerId::new(1), 1, Box::new(EchoAgent))
        .unwrap();
    mom.send(aid(0, 9), aid(1, 1), Notification::signal("hi"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(30)));
    let snap = mom.metrics();
    let json = snap.render_json();
    assert!(json.contains("\"aaa_channel_delivered_total\""));
    assert!(snap.sum_counter("aaa_channel_delivered_total") >= 2);
    mom.shutdown();
}
