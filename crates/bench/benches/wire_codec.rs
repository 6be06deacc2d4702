//! Micro-benchmarks of the wire codec: encoding and decoding stamped
//! middleware messages, full-matrix vs Updates stamps. Throughput is per
//! encoded byte, whatever the stamp's layout makes that.

use aaa_base::{AgentId, DomainId, MessageId, ServerId};
use aaa_clocks::{MatrixClock, Stamp, UpdateEntry};
use aaa_net::WireMessage;
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn message_with(stamp: Stamp) -> WireMessage {
    WireMessage {
        id: MessageId::new(ServerId::new(3), 42),
        from_agent: AgentId::new(ServerId::new(3), 1),
        to_agent: AgentId::new(ServerId::new(9), 2),
        src_server: ServerId::new(3),
        dest_server: ServerId::new(9),
        domain: DomainId::new(1),
        stamp: Some(stamp),
        kind: "quote".into(),
        body: Bytes::from_static(b"ACME:42.17:20010917"),
    }
}

/// The `flat_mesh` shape: a row-major delta over a domain of 32, every
/// fourth cell changed (256 entries), counters in the hundreds.
fn mesh_delta() -> WireMessage {
    message_with(Stamp::Delta(
        (0..1024u16)
            .step_by(4)
            .map(|cell| UpdateEntry {
                row: cell / 32,
                col: cell % 32,
                value: 100 + u64::from(cell),
            })
            .collect(),
    ))
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    for &n in &[8usize, 32, 128] {
        let full = message_with(Stamp::Full(MatrixClock::new(n)));
        group.throughput(Throughput::Bytes(full.encoded_len() as u64));
        group.bench_with_input(BenchmarkId::new("full", n), &full, |b, msg| {
            b.iter(|| black_box(msg.encode()));
        });
    }
    let delta = message_with(Stamp::Delta(
        (0..4)
            .map(|i| UpdateEntry {
                row: i,
                col: i + 1,
                value: u64::from(i) * 7,
            })
            .collect(),
    ));
    group.throughput(Throughput::Bytes(delta.encoded_len() as u64));
    group.bench_function("delta_4_entries", |b| {
        b.iter(|| black_box(delta.encode()));
    });
    let mesh = mesh_delta();
    group.throughput(Throughput::Bytes(mesh.encoded_len() as u64));
    group.bench_function("delta_mesh_256_entries", |b| {
        b.iter(|| black_box(mesh.encode()));
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    for &n in &[8usize, 32, 128] {
        let bytes = message_with(Stamp::Full(MatrixClock::new(n))).encode();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("full", n), &bytes, |b, bytes| {
            b.iter(|| black_box(WireMessage::decode(bytes.clone()).unwrap()));
        });
    }
    let bytes = mesh_delta().encode();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("delta_mesh_256_entries", |b| {
        b.iter(|| black_box(WireMessage::decode(bytes.clone()).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
