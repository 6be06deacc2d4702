//! Publish/subscribe over the live runtime, across domains.

use std::sync::Arc;
use std::time::Duration;

use aaa_base::{AgentId, ServerId};
use aaa_mom::pubsub::{publication, subscription, unsubscription, TopicAgent};
use aaa_mom::{FnAgent, MomBuilder, Notification, RuntimeConfig};
use aaa_topology::TopologySpec;
use parking_lot::Mutex;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

fn sid(i: u16) -> ServerId {
    ServerId::new(i)
}

#[test]
fn fanout_across_domains_preserves_publication_order() {
    // Topic on server 0 (domain 0); subscribers on servers 2 and 4
    // (domains 1 and 2), reached through routers.
    let spec = TopologySpec::from_domains(vec![vec![0, 1], vec![1, 2, 3], vec![3, 4]]);
    let mom = MomBuilder::new(spec).build().unwrap();
    let topic = mom
        .register_agent(sid(0), 1, Box::new(TopicAgent::new()))
        .unwrap();

    let received: Arc<Mutex<Vec<(u16, String)>>> = Default::default();
    let mut subs = Vec::new();
    for s in [2u16, 4] {
        let received = received.clone();
        let sub = mom
            .register_agent(
                sid(s),
                1,
                Box::new(FnAgent::new(move |_ctx, _from, note: &Notification| {
                    received
                        .lock()
                        .push((s, note.body_str().unwrap_or("").to_owned()));
                })),
            )
            .unwrap();
        mom.send(sub, topic, subscription()).unwrap();
        subs.push(sub);
    }
    assert!(mom.quiesce(Duration::from_secs(10)));

    let publisher = aid(1, 50);
    for i in 0..5 {
        mom.send(publisher, topic, publication("tick", format!("{i}")))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(10)));

    let received = received.lock().clone();
    for s in [2u16, 4] {
        let mine: Vec<&str> = received
            .iter()
            .filter(|(srv, _)| *srv == s)
            .map(|(_, b)| b.as_str())
            .collect();
        assert_eq!(mine, vec!["0", "1", "2", "3", "4"], "subscriber S{s} order");
    }
    assert!(mom.trace().unwrap().check_causality().is_ok());
    mom.shutdown();
}

#[test]
fn republication_chain_stays_causal() {
    // Topic A on server 0; a relay subscriber on server 2 republishes
    // everything to topic B on server 1; a final subscriber on server 3
    // subscribes to BOTH topics. Causality guarantees the final subscriber
    // never sees the republication before the original.
    let spec = TopologySpec::from_domains(vec![vec![0, 1, 2, 3]]);
    let mom = MomBuilder::new(spec).build().unwrap();
    let topic_a = mom
        .register_agent(sid(0), 1, Box::new(TopicAgent::new()))
        .unwrap();
    let topic_b = mom
        .register_agent(sid(1), 1, Box::new(TopicAgent::new()))
        .unwrap();

    // Final subscriber: records stream tags.
    let seen: Arc<Mutex<Vec<String>>> = Default::default();
    let sink = seen.clone();
    let final_sub = mom
        .register_agent(
            sid(3),
            1,
            Box::new(FnAgent::new(move |_ctx, _from, note: &Notification| {
                let mut seen = sink.lock();
                if note.kind() == "relayed" {
                    assert!(
                        seen.iter().any(|k| k == "original"),
                        "relayed event arrived before the original!"
                    );
                }
                seen.push(note.kind().to_owned());
            })),
        )
        .unwrap();

    // Relay: subscribes to A, republishes to B.
    let relay = mom
        .register_agent(
            sid(2),
            1,
            Box::new(FnAgent::new(move |ctx, _from, note: &Notification| {
                if note.kind() == "original" {
                    ctx.send(topic_b, publication("relayed", note.body().clone()));
                }
            })),
        )
        .unwrap();

    mom.send(final_sub, topic_a, subscription()).unwrap();
    mom.send(final_sub, topic_b, subscription()).unwrap();
    mom.send(relay, topic_a, subscription()).unwrap();
    assert!(mom.quiesce(Duration::from_secs(10)));

    let publisher = aid(0, 50);
    for i in 0..3 {
        mom.send(publisher, topic_a, publication("original", format!("{i}")))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(10)));

    let seen = seen.lock().clone();
    assert_eq!(seen.iter().filter(|k| *k == "original").count(), 3);
    assert_eq!(seen.iter().filter(|k| *k == "relayed").count(), 3);
    assert!(mom.trace().unwrap().check_causality().is_ok());
    mom.shutdown();
}

#[test]
fn unsubscription_stops_delivery() {
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .build()
        .unwrap();
    let topic = mom
        .register_agent(sid(0), 1, Box::new(TopicAgent::new()))
        .unwrap();
    let count: Arc<Mutex<u32>> = Default::default();
    let c = count.clone();
    let sub = mom
        .register_agent(
            sid(1),
            1,
            Box::new(FnAgent::new(move |_ctx, _from, _note: &Notification| {
                *c.lock() += 1;
            })),
        )
        .unwrap();
    let publisher = aid(0, 50);

    mom.send(sub, topic, subscription()).unwrap();
    assert!(mom.quiesce(Duration::from_secs(5)));
    mom.send(publisher, topic, publication("e", b"1".to_vec()))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(5)));
    assert_eq!(*count.lock(), 1);

    mom.send(sub, topic, unsubscription()).unwrap();
    assert!(mom.quiesce(Duration::from_secs(5)));
    mom.send(publisher, topic, publication("e", b"2".to_vec()))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(5)));
    assert_eq!(*count.lock(), 1, "no delivery after unsubscription");
    mom.shutdown();
}

#[test]
fn topic_state_survives_crash() {
    let mom = MomBuilder::new(TopologySpec::single_domain(3))
        .runtime(RuntimeConfig::threaded().persist(true).record_trace(false))
        .build()
        .unwrap();
    let topic = mom
        .register_agent(sid(0), 1, Box::new(TopicAgent::new()))
        .unwrap();
    let count: Arc<Mutex<u32>> = Default::default();
    let c = count.clone();
    let sub = mom
        .register_agent(
            sid(1),
            1,
            Box::new(FnAgent::new(move |_ctx, _from, _note: &Notification| {
                *c.lock() += 1;
            })),
        )
        .unwrap();
    mom.send(sub, topic, subscription()).unwrap();
    assert!(mom.quiesce(Duration::from_secs(5)));

    // Crash the topic's server; recover with a fresh TopicAgent instance.
    mom.crash(sid(0)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    mom.recover(sid(0), vec![(1, Box::new(TopicAgent::new()))])
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(10)));

    // The durable subscriber list survived: publications still fan out.
    mom.send(aid(2, 50), topic, publication("e", b"post-crash".to_vec()))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(10)));
    assert_eq!(*count.lock(), 1, "subscription must survive the crash");
    mom.shutdown();
}
