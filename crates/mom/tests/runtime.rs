//! End-to-end tests of the live runtime.

use std::sync::Arc;
use std::time::Duration;

use aaa_base::{AgentId, ServerId};
use aaa_mom::{
    ClockConfig, EchoAgent, FnAgent, MomBuilder, NetConfig, Notification, RuntimeConfig, StampMode,
};
use aaa_topology::TopologySpec;
use parking_lot::Mutex;

fn aid(s: u16, l: u32) -> AgentId {
    AgentId::new(ServerId::new(s), l)
}

fn sid(i: u16) -> ServerId {
    ServerId::new(i)
}

#[test]
fn single_domain_random_traffic_is_causal() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = 5u16;
    let mom = MomBuilder::new(TopologySpec::single_domain(n))
        .clock(ClockConfig::mode(StampMode::Updates))
        .build()
        .unwrap();
    for s in 0..n {
        mom.register_agent(sid(s), 1, Box::new(EchoAgent)).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let from = rng.gen_range(0..n);
        let mut to = rng.gen_range(0..n);
        if to == from {
            to = (to + 1) % n;
        }
        mom.send(aid(from, 99), aid(to, 1), Notification::signal("m"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(20)), "did not quiesce");
    let trace = mom.trace().unwrap();
    // 100 sends + 100 echoes.
    assert_eq!(trace.message_count(), 200);
    assert!(trace.check_causality().is_ok());
    mom.shutdown();
}

#[test]
fn figure2_topology_cross_domain_traffic_is_globally_causal() {
    // The paper's 8-server example (0-based), full random mesh traffic.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let spec = TopologySpec::from_domains(vec![
        vec![0, 1, 2],
        vec![3, 4],
        vec![6, 7],
        vec![2, 4, 5, 6],
    ]);
    let mom = MomBuilder::new(spec).build().unwrap();
    for s in 0..8 {
        mom.register_agent(sid(s), 1, Box::new(EchoAgent)).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..120 {
        let from = rng.gen_range(0..8u16);
        let mut to = rng.gen_range(0..8u16);
        if to == from {
            to = (to + 1) % 8;
        }
        mom.send(aid(from, 50), aid(to, 1), Notification::signal("x"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(30)), "did not quiesce");
    let trace = mom.trace().unwrap();
    assert_eq!(trace.message_count(), 240);
    assert!(
        trace.check_causality().is_ok(),
        "theorem violated on acyclic topology"
    );
    // Each domain restriction is causal too.
    for domain in mom.topology().domains() {
        assert!(trace.check_causality_in(domain.members()).is_ok());
    }
    // Routers actually forwarded traffic.
    let forwarded: u64 = (0..8).map(|i| mom.stats(sid(i)).unwrap().forwarded).sum();
    assert!(forwarded > 0, "cross-domain traffic must be routed");
    mom.shutdown();
}

#[test]
fn bus_topology_end_to_end() {
    let mom = MomBuilder::new(TopologySpec::bus(3, 3)).build().unwrap();
    let received: Arc<Mutex<Vec<String>>> = Default::default();
    let sink = received.clone();
    mom.register_agent(
        sid(8),
        1,
        Box::new(FnAgent::new(move |_ctx, _from, note| {
            sink.lock().push(note.body_str().unwrap_or("").to_owned());
        })),
    )
    .unwrap();
    // Client on server 1 (leaf domain 1) sends three ordered messages to
    // server 8 (leaf domain 3) — they cross two routers.
    for i in 0..3 {
        mom.send(
            aid(1, 9),
            aid(8, 1),
            Notification::new("seq", format!("{i}")),
        )
        .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(10)));
    assert_eq!(*received.lock(), vec!["0", "1", "2"]);
    // The two routers on the path (0 and 6) forwarded every message.
    let f0 = mom.stats(sid(0)).unwrap().forwarded;
    let f6 = mom.stats(sid(6)).unwrap().forwarded;
    assert_eq!(f0, 3);
    assert_eq!(f6, 3);
    mom.shutdown();
}

#[test]
fn crash_and_recover_under_traffic() {
    struct Counter(Arc<Mutex<u32>>, u32);
    impl aaa_mom::Agent for Counter {
        fn react(&mut self, _: &mut aaa_mom::ReactionContext<'_>, _: AgentId, _: &Notification) {
            self.1 += 1;
            *self.0.lock() = self.1;
        }
        fn snapshot(&self) -> Vec<u8> {
            self.1.to_le_bytes().to_vec()
        }
        fn restore(&mut self, image: &[u8]) {
            self.1 = u32::from_le_bytes(image.try_into().expect("4 bytes"));
            *self.0.lock() = self.1;
        }
    }

    let observed: Arc<Mutex<u32>> = Default::default();
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        // trace recording is off: it has no recovery semantics for
        // re-registered recorders
        .runtime(RuntimeConfig::threaded().persist(true).record_trace(false))
        .build()
        .unwrap();
    mom.register_agent(sid(1), 1, Box::new(Counter(observed.clone(), 0)))
        .unwrap();

    // Two messages delivered normally.
    for _ in 0..2 {
        mom.send(aid(0, 9), aid(1, 1), Notification::signal("x"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(10)));
    assert_eq!(*observed.lock(), 2);

    // Crash server 1, send two more messages into the void (they sit in
    // server 0's retransmission queue), then recover.
    mom.crash(sid(1)).unwrap();
    for _ in 0..2 {
        mom.send(aid(0, 9), aid(1, 1), Notification::signal("x"))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    mom.recover(sid(1), vec![(1, Box::new(Counter(observed.clone(), 0)))])
        .unwrap();
    assert!(
        mom.quiesce(Duration::from_secs(20)),
        "retransmissions should complete after recovery"
    );
    assert_eq!(*observed.lock(), 4, "state restored and gap replayed");
    mom.shutdown();
}

#[test]
fn sends_to_crashed_server_fail_fast() {
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .build()
        .unwrap();
    mom.crash(sid(0)).unwrap();
    // Give the command time to be processed.
    std::thread::sleep(Duration::from_millis(20));
    let err = mom
        .send(aid(0, 1), aid(1, 1), Notification::signal("x"))
        .unwrap_err();
    assert!(matches!(err, aaa_base::Error::Closed(_)));
    mom.shutdown();
}

#[test]
fn stamp_sizes_updates_vs_full() {
    // Same workload in both modes; Updates must ship far fewer stamp
    // bytes (Appendix A).
    let run = |mode: StampMode| -> u64 {
        let n = 8u16;
        let mom = MomBuilder::new(TopologySpec::single_domain(n))
            .clock(ClockConfig::mode(mode))
            .runtime(RuntimeConfig::threaded().record_trace(false))
            .build()
            .unwrap();
        for s in 0..n {
            mom.register_agent(sid(s), 1, Box::new(EchoAgent)).unwrap();
        }
        // Stable communication pairs: the regime Appendix A optimizes.
        for _round in 0..10 {
            for s in 0..n {
                let to = (s + 1) % n;
                mom.send(aid(s, 9), aid(to, 1), Notification::signal("x"))
                    .unwrap();
            }
        }
        assert!(mom.quiesce(Duration::from_secs(20)));
        let total = (0..n).map(|i| mom.stats(sid(i)).unwrap().stamp_bytes).sum();
        mom.shutdown();
        total
    };
    let full = run(StampMode::Full);
    let updates = run(StampMode::Updates);
    assert!(
        updates * 2 < full,
        "updates ({updates}B) should be well under full ({full}B)"
    );
}

#[test]
fn unknown_destination_is_rejected() {
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .build()
        .unwrap();
    let err = mom
        .send(aid(0, 1), aid(9, 1), Notification::signal("x"))
        .unwrap_err();
    assert!(matches!(err, aaa_base::Error::UnknownServer(_)));
    mom.shutdown();
}

#[test]
fn cyclic_topology_is_rejected_unless_opted_in() {
    let cyclic = TopologySpec::from_domains(vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
    assert!(MomBuilder::new(cyclic.clone()).build().is_err());
    let mom = MomBuilder::new(cyclic)
        .runtime(RuntimeConfig::threaded().allow_cycles(true))
        .build()
        .unwrap();
    assert!(!mom.topology().is_acyclic());
    mom.shutdown();
}

#[test]
fn persistence_accounting_is_visible() {
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .runtime(RuntimeConfig::threaded().persist(true))
        .build()
        .unwrap();
    mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();
    mom.send(aid(0, 9), aid(1, 1), Notification::signal("x"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(10)));
    let store = mom.store(sid(1)).unwrap();
    assert!(store.stats().writes() > 0, "commits must hit the store");
    assert!(store.stats().bytes_written() > 0);
    let disk: u64 = (0..2).map(|i| mom.stats(sid(i)).unwrap().disk_bytes).sum();
    assert!(disk > 0);
    mom.shutdown();
}

#[test]
fn mux_tcp_transport_end_to_end_on_both_runtimes() {
    // The same bus over localhost TCP at both pool sizes (a worker and a
    // mux shard per server, then two of each): cross-domain traffic,
    // causal trace.
    for runtime in [RuntimeConfig::threaded(), RuntimeConfig::evented(2)] {
        let mom = MomBuilder::new(TopologySpec::bus(2, 3))
            .runtime(runtime.clone())
            .net(NetConfig::mux_tcp())
            .build()
            .unwrap();
        for s in 0..6 {
            mom.register_agent(sid(s), 1, Box::new(EchoAgent)).unwrap();
        }
        for i in 0..10u16 {
            let from = i % 6;
            let to = (i + 3) % 6;
            mom.send(aid(from, 9), aid(to, 1), Notification::signal("tcp"))
                .unwrap();
        }
        assert!(
            mom.quiesce(Duration::from_secs(30)),
            "tcp bus should quiesce on {runtime:?}"
        );
        let trace = mom.trace().unwrap();
        assert_eq!(trace.message_count(), 20, "{runtime:?}");
        assert!(trace.check_causality().is_ok(), "{runtime:?}");
        mom.shutdown();
    }
}

#[test]
fn unordered_qos_delivers_but_stays_out_of_the_trace() {
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .build()
        .unwrap();
    let seen: Arc<Mutex<Vec<String>>> = Default::default();
    let sink = seen.clone();
    mom.register_agent(
        sid(1),
        1,
        Box::new(FnAgent::new(move |_ctx, _from, note| {
            sink.lock().push(note.kind().to_owned());
        })),
    )
    .unwrap();
    mom.send(aid(0, 9), aid(1, 1), Notification::signal("causal"))
        .unwrap();
    mom.send_unordered(aid(0, 9), aid(1, 1), Notification::signal("fast"))
        .unwrap();
    assert!(mom.quiesce(Duration::from_secs(10)));
    let seen = seen.lock().clone();
    assert_eq!(seen.len(), 2, "both QoS levels deliver");
    // Only the causal message is in the trace.
    let trace = mom.trace().unwrap();
    assert_eq!(trace.message_count(), 1);
    assert!(trace.check_causality().is_ok());
    assert_eq!(mom.in_flight(), 0, "unordered still settles the counter");
    mom.shutdown();
}

/// `RuntimeConfig::threaded()` promises a worker per server: a server
/// parked inside its step (here in its store's `put`, as an `fdatasync`
/// would park it) does not keep another server from accepting and
/// delivering a client send.
#[test]
fn a_server_blocked_in_its_step_does_not_stall_the_others() {
    use aaa_base::Result;
    use aaa_storage::{MemoryStore, StableStore, StorageStats};
    use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

    /// Parks every `put` until the test drops the gate's sender.
    struct GatedStore {
        inner: MemoryStore,
        entered: Sender<()>,
        gate: Receiver<()>,
    }
    impl StableStore for GatedStore {
        fn put(&self, key: &str, value: &[u8]) -> Result<()> {
            self.entered.send(()).unwrap();
            // `Err` is the release: the sender is gone.
            assert!(self.gate.recv().is_err());
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
            self.inner.get(key)
        }
        fn remove(&self, key: &str) -> Result<()> {
            self.inner.remove(key)
        }
        fn keys(&self) -> Result<Vec<String>> {
            self.inner.keys()
        }
        fn stats(&self) -> &StorageStats {
            self.inner.stats()
        }
    }

    let (entered_tx, entered) = unbounded();
    let (release, gate) = bounded::<()>(1);
    let stores: Vec<Arc<dyn StableStore>> = vec![
        Arc::new(GatedStore {
            inner: MemoryStore::new(),
            entered: entered_tx,
            gate,
        }),
        Arc::new(MemoryStore::new()),
    ];
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .runtime(RuntimeConfig::threaded().persist(true))
        .stores(stores)
        .build()
        .unwrap();
    let (delivered_tx, delivered) = unbounded();
    mom.register_agent(
        sid(1),
        1,
        Box::new(FnAgent::new(move |_ctx, _from, note| {
            delivered_tx.send(note.kind().to_owned()).unwrap();
        })),
    )
    .unwrap();

    std::thread::scope(|scope| {
        // Server 0 commits this send, and the commit parks in the store.
        let parked = scope.spawn(|| mom.send(aid(0, 9), aid(0, 1), Notification::signal("parked")));
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("server 0 reaches its store");
        let through =
            scope.spawn(|| mom.send(aid(1, 9), aid(1, 1), Notification::signal("through")));
        let got = delivered.recv_timeout(Duration::from_secs(10));
        let still_parked = !parked.is_finished();
        // Open the gate before judging, so a failure ends the scope
        // instead of hanging it.
        drop(release);
        through.join().unwrap().expect("server 1 accepts the send");
        parked.join().unwrap().expect("server 0 finishes its step");
        assert_eq!(got.as_deref(), Ok("through"));
        assert!(still_parked, "server 0 was inside its step throughout");
    });
    assert!(mom.quiesce(Duration::from_secs(10)));
    mom.shutdown();
}

/// Bytes that are not a datagram, and a link frame whose payload is not a
/// message, arrive at a live server from an endpoint outside the bus: the
/// server drops and counts them, and the bus keeps delivering.
#[test]
fn garbage_off_the_wire_is_counted_not_fatal() {
    use aaa_mom::Transport;
    use aaa_net::link::{Datagram, LinkFrame};
    use aaa_net::MemoryNetwork;
    use bytes::Bytes;

    let mut endpoints = MemoryNetwork::create(3);
    let stranger = endpoints.pop().unwrap();
    let mom = MomBuilder::new(TopologySpec::single_domain(2))
        .transports(
            endpoints
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .collect(),
        )
        .build()
        .unwrap();
    mom.register_agent(sid(1), 1, Box::new(EchoAgent)).unwrap();

    let bad_payload = Datagram::Data(LinkFrame {
        seq: 1,
        payload: Bytes::from_static(b"not a message"),
    });
    for round in 0..5 {
        stranger
            .send(sid(1), Bytes::from_static(b"\xffnot a datagram"))
            .unwrap();
        if round == 0 {
            stranger.send(sid(1), bad_payload.encode()).unwrap();
        }
        mom.send(aid(0, 9), aid(1, 1), Notification::signal("ping"))
            .unwrap();
    }
    assert!(mom.quiesce(Duration::from_secs(10)));
    assert_eq!(mom.stats(sid(1)).unwrap().reactions, 5);
    assert!(mom.trace().unwrap().check_causality().is_ok());
    assert_eq!(
        mom.metrics()
            .sum_counter("aaa_server_rejected_datagrams_total"),
        6
    );
    mom.shutdown();
}
