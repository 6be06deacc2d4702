//! The wire format, pinned byte for byte.
//!
//! A fixed corpus — wire messages without a stamp and under every stamp
//! tag a current build writes (0, 3, 6), the three datagram forms (a
//! batch of 2 and of 32 frames), and a relay ack — is encoded and compared
//! with `tests/golden/wire.hex`, one `name hex` line per value. Each golden
//! line must also decode back to its value. An encoder rewritten for
//! speed must leave every line as it is: peers of other builds read these
//! bytes.

use aaa_base::{AgentId, DomainId, MessageId, ServerId};
use aaa_clocks::{MatrixClock, PackedEntries, Stamp, UpdateEntry};
use aaa_net::{Datagram, LinkFrame, RelayAck, WireMessage};
use bytes::Bytes;

const GOLDEN: &str = include_str!("golden/wire.hex");

fn entry(row: u16, col: u16, value: u64) -> UpdateEntry {
    UpdateEntry { row, col, value }
}

fn message(seq: u64, stamp: Option<Stamp>, body: &'static [u8]) -> WireMessage {
    WireMessage {
        id: MessageId::new(ServerId::new(3), seq),
        from_agent: AgentId::new(ServerId::new(3), 1),
        to_agent: AgentId::new(ServerId::new(9), 70_000),
        src_server: ServerId::new(3),
        dest_server: ServerId::new(9),
        domain: DomainId::new(258),
        stamp,
        kind: "ping".into(),
        body: Bytes::from_static(body),
    }
}

fn messages() -> Vec<(&'static str, WireMessage)> {
    let mut full = MatrixClock::new(2);
    full.set(0, 1, 5);
    full.set(1, 0, 300);
    full.set(1, 1, u64::MAX);
    let entries = vec![
        entry(0, 1, 3),
        entry(2, 1, 9),
        entry(2, 5, 300),
        entry(200, 7, 1 << 40),
    ];
    vec![
        ("message.unstamped", message(1, None, b"")),
        ("message.full", message(2, Some(Stamp::Full(full)), b"x")),
        (
            "message.group_next",
            message(3, Some(Stamp::GroupNext), b"payload"),
        ),
        (
            "message.delta",
            message(
                4,
                Some(Stamp::Delta(PackedEntries::new(&entries))),
                b"ACME:42.5",
            ),
        ),
    ]
}

fn frames(count: u64) -> Vec<LinkFrame> {
    (1..=count)
        .map(|seq| LinkFrame {
            seq: 1_000 + seq,
            payload: message(seq, Some(Stamp::GroupNext), b"ring").encode(),
        })
        .collect()
}

fn datagrams() -> Vec<(&'static str, Datagram)> {
    let data = LinkFrame {
        seq: 42,
        payload: message(
            5,
            Some(Stamp::Delta(PackedEntries::new(&[entry(0, 1, 7)]))),
            b"one",
        )
        .encode(),
    };
    vec![
        ("datagram.data", Datagram::Data(data)),
        ("datagram.ack", Datagram::Ack { cum_seq: 1 << 33 }),
        ("datagram.batch2", Datagram::Batch(frames(2))),
        ("datagram.batch32", Datagram::Batch(frames(32))),
    ]
}

fn relay_ack() -> RelayAck {
    RelayAck {
        subscriber: AgentId::new(ServerId::new(7), 123),
        upto: u64::MAX - 1,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Bytes {
    let bytes: Vec<u8> = (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("golden hex"))
        .collect();
    Bytes::from(bytes)
}

/// The corpus, encoded, in file order.
fn encoded() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = messages()
        .iter()
        .map(|(name, m)| (*name, hex(&m.encode())))
        .collect();
    out.extend(
        datagrams()
            .iter()
            .map(|(name, d)| (*name, hex(&d.encode()))),
    );
    out.push(("relay_ack", hex(&relay_ack().encode())));
    out
}

fn golden() -> Vec<(&'static str, &'static str)> {
    GOLDEN
        .lines()
        .filter(|line| !line.is_empty())
        .map(|line| line.split_once(' ').expect("`name hex` lines"))
        .collect()
}

#[test]
fn the_corpus_encodes_to_the_golden_bytes() {
    let actual = encoded();
    let expected = golden();
    let names: Vec<&str> = actual.iter().map(|(name, _)| *name).collect();
    let golden_names: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, golden_names,
        "corpus and golden file list the same values"
    );
    for ((name, got), (_, want)) in actual.iter().zip(&expected) {
        assert_eq!(
            got, want,
            "{name}: encoding differs from tests/golden/wire.hex"
        );
    }
}

#[test]
fn the_golden_bytes_decode_to_the_corpus() {
    let lines = golden();
    let bytes = |name: &str| {
        let (_, text) = lines.iter().find(|(n, _)| *n == name).expect("golden line");
        unhex(text)
    };
    for (name, m) in messages() {
        assert_eq!(WireMessage::decode(bytes(name)).expect(name), m, "{name}");
        assert_eq!(m.encoded_len(), bytes(name).len(), "{name}: encoded_len");
    }
    for (name, d) in datagrams() {
        assert_eq!(Datagram::decode(bytes(name)).expect(name), d, "{name}");
    }
    assert_eq!(
        RelayAck::decode(bytes("relay_ack")).expect("relay ack"),
        relay_ack()
    );
}
