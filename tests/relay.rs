//! Store-and-forward relay under churn chaos and crashes (DESIGN.md §17).
//!
//! The relay's contract: every subscriber sees every publication of its
//! topic **exactly once, in publication order**, no matter how often it
//! disconnects and reconnects, whether it lives on the publishing server
//! or across a domain boundary, and across a crash of its home relay —
//! with the backlog bounded and the causal bus's guarantees intact.
//! These tests drive the whole stack (topic agent → relay → durable
//! queue → handoff → ACK commit) through the public `Mom` surface and
//! judge it with the `aaa-trace` per-subscriber oracle.

use std::sync::Arc;
use std::time::Duration;

use aaa_middleware::base::{AgentId, ServerId, VDuration};
use aaa_middleware::chaos::{ChurnEvent, FaultPlan};
use aaa_middleware::mom::pubsub::{publication, subscription, TopicAgent};
use aaa_middleware::mom::{relay_agent, FnAgent, MomBuilder, RelayConfig, RuntimeConfig};
use aaa_middleware::topology::TopologySpec;
use aaa_middleware::trace::SubscriberCheck;
use parking_lot::Mutex;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

/// Registers `count` subscriber agents on `server` that parse the
/// publication body as a sequence number and record it with the oracle.
fn register_subscribers(
    mom: &aaa_middleware::mom::Mom,
    server: ServerId,
    count: u32,
    origin: ServerId,
    check: &SubscriberCheck,
) -> Vec<AgentId> {
    (1..=count)
        .map(|i| {
            let check = check.clone();
            let sub = mom
                .register_agent(
                    server,
                    i,
                    Box::new(FnAgent::new(move |ctx, _from, note| {
                        let seq: u64 = note.body_str().unwrap_or("0").parse().unwrap_or(0);
                        check.record(ctx.me(), origin, seq);
                    })),
                )
                .unwrap();
            sub
        })
        .collect()
}

/// 10 000 subscribers on the publishing server under seeded zipfian
/// connect/disconnect churn: every subscriber still sees every
/// publication exactly once and in order, and nothing stays postponed
/// after quiescence.
#[test]
fn ten_thousand_subscribers_survive_zipfian_churn() {
    const SUBS: u32 = 10_000;
    const PUBS: u64 = 12;
    const CHURN_EVENTS: usize = 400;
    const HORIZON: u64 = PUBS; // one churn "tick" per publication slot

    let topic_server = ServerId::new(0);
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .relay(RelayConfig::default().retry_rto(VDuration::from_millis(50)))
        .build()
        .unwrap();
    let topic = mom
        .register_agent(
            topic_server,
            500_000,
            Box::new(TopicAgent::with_relay(relay_agent(topic_server))),
        )
        .unwrap();

    let check = SubscriberCheck::new();
    let subs = register_subscribers(&mom, topic_server, SUBS, topic_server, &check);
    for sub in &subs {
        mom.send(*sub, topic, subscription()).unwrap();
    }
    assert!(
        mom.quiesce(Duration::from_secs(60)),
        "subscriptions must settle before publishing"
    );

    // The seeded churn schedule: zipfian over subscriber rank, so a hot
    // head flaps constantly while the tail mostly stays connected.
    let plan = FaultPlan::new(0xC0FFEE).zipf_churn(&subs, CHURN_EVENTS, HORIZON);
    plan.validate().unwrap();
    let mut reconnects: Vec<ChurnEvent> = Vec::new();
    let mut next_event = plan.churn.iter().peekable();
    for tick in 0..HORIZON {
        // Fire the tick's disconnects, then any reconnect now due.
        while let Some(e) = next_event.peek() {
            if e.at_tick > tick {
                break;
            }
            mom.relay_disconnect(e.subscriber).unwrap();
            reconnects.push(**e);
            next_event.next();
        }
        reconnects.retain(|e| {
            if e.reconnect_at.is_some_and(|r| r <= tick) {
                mom.relay_connect(e.subscriber).unwrap();
                false
            } else {
                true
            }
        });
        let seq = tick + 1;
        mom.send(
            aid(1, 42),
            topic,
            publication("price", seq.to_string().into_bytes()),
        )
        .unwrap();
    }
    // Drain the schedule: everyone reconnects, backlogs flush.
    for e in plan.churn.iter().chain(reconnects.iter()) {
        mom.relay_connect(e.subscriber).unwrap();
    }
    assert!(
        mom.quiesce(Duration::from_secs(120)),
        "churned fan-out must drain"
    );

    let report = check.report();
    assert!(report.is_clean(), "relay contract violated: {report:?}");
    assert_eq!(report.streams, u64::from(SUBS), "every subscriber heard");
    assert_eq!(
        report.delivered,
        u64::from(SUBS) * PUBS,
        "exactly-once fan-out: {report:?}"
    );
    assert_eq!(
        mom.metrics().sum_gauge("aaa_channel_postponed"),
        0,
        "nothing may stay causally postponed after quiescence"
    );
    mom.shutdown();
}

/// Cross-domain handoff under churn: subscribers live two domains away
/// from the topic, so every publication crosses the causal router as a
/// relay-to-relay handoff. The oracle must stay clean and the recorded
/// trace causally consistent.
#[test]
fn cross_domain_handoff_survives_churn() {
    const SUBS: u32 = 64;
    const PUBS: u64 = 30;

    let spec = TopologySpec::from_domains(vec![vec![0, 1, 2], vec![2, 3, 4]]);
    let mom = MomBuilder::new(spec)
        .relay(RelayConfig::default().retry_rto(VDuration::from_millis(50)))
        .build()
        .unwrap();
    let topic_server = ServerId::new(0);
    let sub_server = ServerId::new(4);
    let topic = mom
        .register_agent(
            topic_server,
            500_000,
            Box::new(TopicAgent::with_relay(relay_agent(topic_server))),
        )
        .unwrap();

    let check = SubscriberCheck::new();
    let subs = register_subscribers(&mom, sub_server, SUBS, topic_server, &check);
    for sub in &subs {
        mom.send(*sub, topic, subscription()).unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(30)));

    let plan = FaultPlan::new(7).zipf_churn(&subs, 40, PUBS);
    let mut pending: Vec<ChurnEvent> = plan.churn.clone();
    for tick in 0..PUBS {
        pending.retain(|e| {
            if e.at_tick <= tick {
                mom.relay_disconnect(e.subscriber).unwrap();
                false
            } else {
                true
            }
        });
        mom.send(
            aid(1, 42),
            topic,
            publication("price", (tick + 1).to_string().into_bytes()),
        )
        .unwrap();
    }
    for e in &plan.churn {
        mom.relay_connect(e.subscriber).unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(60)), "handoff must drain");

    let report = check.report();
    assert!(report.is_clean(), "handoff contract violated: {report:?}");
    assert_eq!(report.delivered, u64::from(SUBS) * PUBS);
    assert!(
        mom.trace().unwrap().check_causality().is_ok(),
        "relay traffic must not break bus causality"
    );
    mom.shutdown();
}

/// Crash-safe redelivery with a mid-compaction crash artefact: a
/// subscriber disconnects, its home relay accumulates a durable backlog
/// in its journal (rolling segments along the way), the home server
/// crashes mid-compaction (stray `.tmp` left in the journal directory),
/// recovers, and the reconnecting subscriber receives the whole backlog
/// exactly once, in causal order.
#[test]
fn reconnect_after_relay_crash_replays_backlog_in_order() {
    const BEFORE: u64 = 10;
    const AFTER: u64 = 20;

    let dir = std::env::temp_dir().join(format!("aaa-relay-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .runtime(RuntimeConfig::threaded().persist(true))
        .relay(
            RelayConfig::default()
                .dir(&dir)
                .segment_max_records(8)
                .retry_rto(VDuration::from_millis(50)),
        )
        .build()
        .unwrap();
    let topic_server = ServerId::new(0);
    let sub_server = ServerId::new(1);
    let topic = mom
        .register_agent(
            topic_server,
            500_000,
            Box::new(TopicAgent::with_relay(relay_agent(topic_server))),
        )
        .unwrap();
    let subscriber_agent = {
        let seen = seen.clone();
        move || -> Box<dyn aaa_middleware::mom::Agent> {
            let seen = seen.clone();
            Box::new(FnAgent::new(move |_ctx, _from, note| {
                let seq: u64 = note.body_str().unwrap_or("0").parse().unwrap_or(0);
                seen.lock().push(seq);
            }))
        }
    };
    let sub = mom
        .register_agent(sub_server, 7, subscriber_agent())
        .unwrap();
    mom.send(sub, topic, subscription()).unwrap();
    assert!(mom.quiesce(Duration::from_secs(20)));

    // Warm phase: the subscriber is live and sees 1..=BEFORE.
    for seq in 1..=BEFORE {
        mom.send(
            aid(0, 42),
            topic,
            publication("price", seq.to_string().into_bytes()),
        )
        .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(20)));
    assert_eq!(*seen.lock(), (1..=BEFORE).collect::<Vec<_>>());

    // Cold phase: disconnect, publish a backlog that rolls several
    // durable segments at the subscriber's home relay.
    mom.relay_disconnect(sub).unwrap();
    for seq in BEFORE + 1..=BEFORE + AFTER {
        mom.send(
            aid(0, 42),
            topic,
            publication("price", seq.to_string().into_bytes()),
        )
        .unwrap();
    }
    assert!(
        mom.quiesce(Duration::from_secs(20)),
        "handoffs must journal at the home relay while the subscriber is cold"
    );

    // Crash the home server mid-compaction: a compaction that died
    // before its rename leaves a stray `.tmp` in the journal directory.
    mom.crash(sub_server).unwrap();
    let journal_dir = dir.join("relay-1").join("journal");
    assert!(journal_dir.is_dir(), "durable journal must exist on disk");
    std::fs::write(journal_dir.join(".compact-000099.tmp"), b"torn compaction").unwrap();

    mom.recover(sub_server, vec![(7, subscriber_agent())])
        .unwrap();
    mom.relay_connect(sub).unwrap();
    assert!(
        mom.quiesce(Duration::from_secs(30)),
        "recovered relay must replay the backlog"
    );

    assert_eq!(
        *seen.lock(),
        (1..=BEFORE + AFTER).collect::<Vec<_>>(),
        "backlog replayed exactly once, in causal order, across the crash"
    );
    assert!(
        !journal_dir.join(".compact-000099.tmp").exists(),
        "the torn compaction artefact is cleaned up on reopen"
    );
    assert!(mom.trace().unwrap().check_causality().is_ok());
    mom.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
