//! Group-commit batching under adversity: randomized batch sizes, packet
//! loss and mid-batch crashes must never cost causal order, exactly-once
//! delivery, or quiescence — the batching pipeline is an optimization,
//! not a semantics change.

#[allow(dead_code)]
mod common;

use std::sync::Arc;
use std::time::Duration;

use aaa_middleware::prelude::*;
use aaa_middleware::trace::TraceRecorder;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

/// Sink agent that appends every body it sees to a shared log.
fn collector(seen: Arc<Mutex<Vec<String>>>) -> Box<dyn Agent> {
    Box::new(FnAgent::new(move |_ctx, _from, note: &Notification| {
        seen.lock().push(note.body_str().unwrap_or("").to_owned());
    }))
}

/// Simulator: random-size batched bursts through a bus of domains, under
/// 20 % packet loss. Retransmission re-sends whole batches; delivery must
/// stay causal and exactly-once, and nothing may remain postponed.
#[test]
fn random_batches_under_loss_stay_causal_and_exactly_once() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C & seed.wrapping_mul(977));
        let topo = TopologySpec::bus(3, 3).validate().unwrap();
        let n = 9u16;
        let config = ServerConfig {
            rto: VDuration::from_millis(40),
            ..ServerConfig::default()
        };
        let mut sim = Simulation::with_fault_plan(
            topo,
            config,
            CostModel::paper_calibrated(),
            FaultPlan::drop_only(0.2, seed + 3),
        )
        .unwrap();
        let registry = Registry::default();
        sim.attach_registry(&registry);
        let recorder = TraceRecorder::new();
        sim.record_into(&recorder);
        for s in 0..n {
            sim.register_agent(ServerId::new(s), 1, collector(Default::default()));
        }

        let mut total = 0usize;
        for _ in 0..12 {
            let from = rng.gen_range(0..n);
            let burst = rng.gen_range(1..=48usize);
            let batch: Vec<_> = (0..burst)
                .map(|_| {
                    let to = rng.gen_range(0..n);
                    (aid(to, 1), Notification::signal("b"))
                })
                .collect();
            total += batch.len();
            sim.client_send_batch(aid(from, 9), batch);
        }
        sim.run_until_quiet().unwrap();

        assert!(sim.dropped_datagrams() > 0, "seed {seed}: loss never fired");
        let trace = recorder.snapshot().unwrap();
        assert_eq!(trace.message_count(), total, "seed {seed}: lost messages");
        assert!(
            trace.check_causality().is_ok(),
            "seed {seed}: batched trace violates causality"
        );
        let snap = sim.metrics();
        assert_eq!(
            snap.sum_counter("aaa_channel_delivered_total"),
            total as u64,
            "seed {seed}: duplicate or missing deliveries"
        );
        assert_eq!(
            snap.sum_gauge("aaa_channel_postponed"),
            0,
            "seed {seed}: messages left postponed after quiescence"
        );
        // Coalescing actually happened: fewer flushes than frames.
        let flushes = snap.sum_counter("aaa_link_flushes_total");
        let frames = snap.sum_counter("aaa_channel_transmitted_total");
        assert!(
            flushes > 0 && flushes < frames,
            "seed {seed}: no coalescing"
        );
    }
}

/// Live runtime: random-size `send_batch` bursts over four random
/// topologies all converge to the same causal, exactly-once outcome.
#[test]
fn randomized_batch_policies_converge_threaded() {
    for i in 0..4 {
        let mut rng = StdRng::seed_from_u64(31 + i);
        let spec = common::random_acyclic_spec(i + 7, 3, 2, 3);
        let n = spec.server_count() as u16;
        let mom = MomBuilder::new(spec).build().unwrap();
        for s in 0..n {
            mom.register_agent(ServerId::new(s), 1, Box::new(EchoAgent))
                .unwrap();
        }
        let mut total = 0u64;
        for _ in 0..8 {
            let from = rng.gen_range(0..n);
            let burst = rng.gen_range(1..=20usize);
            let batch: Vec<_> = (0..burst)
                .map(|_| {
                    let to = rng.gen_range(0..n);
                    (aid(to, 1), Notification::signal("m"))
                })
                .collect();
            total += batch.len() as u64;
            mom.send_batch(aid(from, 9), batch, SendOptions::new())
                .unwrap();
        }
        assert!(
            mom.quiesce(Duration::from_secs(30)),
            "spec {i}: failed to quiesce"
        );
        let trace = mom.trace().unwrap();
        assert!(
            trace.check_causality().is_ok(),
            "spec {i}: causality violated"
        );
        // Every request delivered once, plus one echo each.
        assert_eq!(
            trace.message_count() as u64,
            total * 2,
            "spec {i}: wrong delivery count"
        );
        assert_eq!(mom.metrics().sum_gauge("aaa_channel_postponed"), 0);
        mom.shutdown();
    }
}

/// A committed batch that no peer acknowledged survives a crash of its
/// source: the batch is lost on the wire to a crashed destination, and
/// the source crashes before its first retransmission. Because frames
/// enter the retransmission window at *buffer* time, the persisted image
/// covers the whole batch: once both servers recover it is re-sent and
/// delivered exactly once, in order.
#[test]
fn mid_batch_crash_recovers_buffered_frames() {
    let seen: Arc<Mutex<Vec<String>>> = Default::default();
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .runtime(RuntimeConfig::threaded().persist(true))
        .build()
        .unwrap();
    let (source, dest) = (ServerId::new(0), ServerId::new(1));
    mom.register_agent(dest, 1, collector(seen.clone()))
        .unwrap();

    let batch: Vec<_> = (0..5)
        .map(|i| (aid(1, 1), Notification::new("m", format!("{i}"))))
        .collect();
    // Accepted, committed and flushed — into a crashed destination, which
    // drops it; the source crashes well before its retransmission is due.
    mom.crash(dest).unwrap();
    // A server handles its commands in order: once this call returns, the
    // destination is down.
    mom.stats(dest).unwrap();
    mom.send_batch(aid(0, 9), batch, SendOptions::new())
        .unwrap();
    mom.crash(source).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    assert!(seen.lock().is_empty(), "the batch was lost on the wire");

    mom.recover(dest, vec![(1, collector(seen.clone()))])
        .unwrap();
    mom.recover(source, Vec::new()).unwrap();
    assert!(
        mom.quiesce(Duration::from_secs(30)),
        "recovered batch never delivered"
    );
    assert_eq!(
        seen.lock().clone(),
        vec!["0", "1", "2", "3", "4"],
        "mid-batch crash must not lose, duplicate or reorder"
    );
    assert!(mom.trace().unwrap().check_causality().is_ok());
    assert_eq!(mom.metrics().sum_gauge("aaa_channel_postponed"), 0);
    mom.shutdown();
}

/// Crashing a *destination* between two halves of a burst stream: every
/// step flushes what it buffered, so the first half is on
/// the wire when the receiver dies; retransmission re-sends those frames
/// as batches after recovery and dedup keeps delivery exactly-once.
#[test]
fn destination_crash_between_bursts_is_exactly_once() {
    let seen: Arc<Mutex<Vec<String>>> = Default::default();
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .runtime(RuntimeConfig::threaded().persist(true))
        .build()
        .unwrap();
    let dest = ServerId::new(1);
    mom.register_agent(dest, 1, collector(seen.clone()))
        .unwrap();

    let mut expected = Vec::new();
    let burst = |lo: usize, hi: usize| -> Vec<(AgentId, Notification)> {
        (lo..hi)
            .map(|i| (aid(1, 1), Notification::new("m", format!("{i}"))))
            .collect()
    };
    expected.extend((0..6).map(|i| i.to_string()));
    mom.send_batch(aid(0, 9), burst(0, 6), SendOptions::new())
        .unwrap();
    mom.crash(dest).unwrap();
    // Second burst while the destination is down: frames queue unacked.
    expected.extend((6..12).map(|i| i.to_string()));
    mom.send_batch(aid(0, 9), burst(6, 12), SendOptions::new())
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    mom.recover(dest, vec![(1, collector(seen.clone()))])
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(30)));

    assert_eq!(
        seen.lock().clone(),
        expected,
        "burst split by a crash must still deliver exactly once, in order"
    );
    assert_eq!(mom.metrics().sum_gauge("aaa_channel_postponed"), 0);
    mom.shutdown();
}
