//! A checkpoint image with a postponed delta message, pinned byte for byte.
//!
//! Three servers of one Updates domain run a fixed schedule: server 0
//! sends `a` to server 2, then `b` to server 1; server 1 delivers `b` and
//! sends `c` to server 2; `c` reaches server 2 before `a`, so server 2
//! postpones it (two servers alone never postpone: a sender's frames
//! arrive in link order, and the receiver's column of its stamp names only
//! that link). Server 2's checkpoint — its clock, the postponed entry's
//! pending stamp, the link it heard `c` on — must equal
//! `tests/golden/checkpoint.hex`. Checkpoints written by earlier builds
//! must still recover, so a mismatch is a codec bug, never a reason to
//! rewrite the file. A server recovered from the golden bytes keeps `c`
//! postponed and delivers `a`, then `c`, once `a` arrives.

use std::sync::{Arc, Mutex};

use aaa_base::{AgentId, ServerId, VTime};
use aaa_mom::{Agent, FnAgent, Notification, ServerConfig, ServerCore, Transmission};
use aaa_storage::{MemoryStore, StableStore};
use aaa_topology::{Topology, TopologySpec};

const GOLDEN: &str = include_str!("golden/checkpoint.hex");
/// Where a server keeps its checkpoint in its stable store.
const IMAGE_KEY: &str = "server-image";

fn sid(i: u16) -> ServerId {
    ServerId::new(i)
}

fn at(micros: u64) -> VTime {
    VTime::from_micros(micros)
}

fn config() -> ServerConfig {
    ServerConfig {
        persist: true,
        ..ServerConfig::default()
    }
}

/// A sink agent that records the kinds it receives, in order.
fn recording_sink(log: &Arc<Mutex<Vec<String>>>) -> Box<dyn Agent> {
    let log = Arc::clone(log);
    Box::new(FnAgent::new(move |_, _, note: &Notification| {
        log.lock().unwrap().push(note.kind().to_owned());
    }))
}

/// The one datagram of `out`, addressed to `to`.
fn only(out: Vec<Transmission>, to: ServerId) -> Transmission {
    assert_eq!(out.len(), 1, "one datagram");
    let t = out.into_iter().next().unwrap();
    assert_eq!(t.to, to);
    t
}

/// The schedule up to `c`'s postponement at server 2: server 2, its store,
/// what it has delivered, and the datagram carrying `a`, still in flight.
struct Postponed {
    topo: Topology,
    receiver: ServerCore,
    store: Arc<MemoryStore>,
    log: Arc<Mutex<Vec<String>>>,
    a: Transmission,
}

fn postponed() -> Postponed {
    let topo = TopologySpec::single_domain(3).validate().unwrap();
    let stores: Vec<Arc<MemoryStore>> = (0..3).map(|_| Arc::new(MemoryStore::new())).collect();
    let mut cores: Vec<ServerCore> = (0..3)
        .map(|i| ServerCore::new(&topo, sid(i), config(), stores[usize::from(i)].clone()).unwrap())
        .collect();
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink1 = cores[1].register_agent(1, Box::new(FnAgent::new(|_, _, _| {})));
    let sink2 = cores[2].register_agent(1, recording_sink(&log));
    let (client0, client1) = (AgentId::new(sid(0), 9), AgentId::new(sid(1), 9));

    let (_, out) = cores[0]
        .client_send(
            client0,
            sink2,
            Notification::new("a", b"first".to_vec()),
            at(100),
        )
        .unwrap();
    let a = only(out, sid(2));
    let (_, out) = cores[0]
        .client_send(
            client0,
            sink1,
            Notification::new("b", b"via 1".to_vec()),
            at(200),
        )
        .unwrap();
    let b = only(out, sid(1));
    cores[1].on_datagram(sid(0), b.bytes, at(300)).unwrap();
    assert_eq!(cores[1].take_step_stats().delivered, 1, "b delivered at 1");
    let (_, out) = cores[1]
        .client_send(
            client1,
            sink2,
            Notification::new("c", b"after a".to_vec()),
            at(400),
        )
        .unwrap();
    let c = only(out, sid(2));
    cores[2].on_datagram(sid(1), c.bytes, at(500)).unwrap();
    assert_eq!(cores[2].channel().postponed_count(), 1, "c waits for a");
    assert!(log.lock().unwrap().is_empty());

    let receiver = cores.pop().unwrap();
    let store = stores[2].clone();
    Postponed {
        topo,
        receiver,
        store,
        log,
        a,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("golden hex"))
        .collect()
}

fn golden() -> Vec<u8> {
    let line = GOLDEN.trim_end();
    let (name, hex) = line.split_once(' ').expect("a `name hex` line");
    assert_eq!(name, "checkpoint.postponed_delta");
    unhex(hex)
}

#[test]
fn a_checkpoint_with_a_postponed_delta_is_byte_identical() {
    let mut run = postponed();
    run.receiver.checkpoint().unwrap();
    let image = run.store.get(IMAGE_KEY).unwrap().expect("a checkpoint");
    assert_eq!(
        hex(&image),
        hex(&golden()),
        "checkpoint differs from tests/golden/checkpoint.hex"
    );

    // The live server delivers `a`, then `c`.
    run.receiver
        .on_datagram(sid(0), run.a.bytes, at(600))
        .unwrap();
    assert_eq!(*run.log.lock().unwrap(), ["a", "c"]);
}

#[test]
fn a_server_recovered_from_the_golden_checkpoint_delivers_in_causal_order() {
    let run = postponed();
    let store = Arc::new(MemoryStore::new());
    store.put(IMAGE_KEY, &golden()).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut recovered = ServerCore::recover(
        &run.topo,
        sid(2),
        config(),
        store,
        vec![(1, recording_sink(&log))],
        at(550),
    )
    .unwrap();
    assert_eq!(recovered.channel().postponed_count(), 1, "c still waits");
    recovered.on_datagram(sid(0), run.a.bytes, at(600)).unwrap();
    assert_eq!(recovered.take_step_stats().delivered, 2);
    assert_eq!(*log.lock().unwrap(), ["a", "c"]);
    assert!(recovered.is_idle());
}
