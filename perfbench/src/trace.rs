//! Spans recorded by the harness around every call it makes into the
//! program, and — as children — inside the harness-owned store and agent
//! wrappers. Spans inside the program are a later change.
//!
//! Spans stay in memory: the first `KEEP` verbatim, all of them folded
//! into per-name accumulators. A span's self time is its duration minus
//! the time its direct children cover (children nest strictly, so that is
//! the sum of their durations).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use aaa_base::AgentId;
use aaa_mom::{Agent, Notification, ReactionContext};
use aaa_storage::{StableStore, StorageStats};

use crate::json::Value;

/// Spans kept verbatim for the trace file.
const KEEP: usize = 200_000;

/// The span names, indexable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    LoadgenBuild,
    ClientSend,
    OnDatagram,
    OnTick,
    StorePut,
    AgentReaction,
    TransportSend,
    TransportRecv,
}

impl Name {
    pub const ALL: [Name; 8] = [
        Name::LoadgenBuild,
        Name::ClientSend,
        Name::OnDatagram,
        Name::OnTick,
        Name::StorePut,
        Name::AgentReaction,
        Name::TransportSend,
        Name::TransportRecv,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::LoadgenBuild => "loadgen.build_batch",
            Name::ClientSend => "mom.server.client_send",
            Name::OnDatagram => "mom.server.on_datagram",
            Name::OnTick => "mom.server.on_tick",
            Name::StorePut => "storage.store.put",
            Name::AgentReaction => "agent.reaction",
            Name::TransportSend => "net.transport.send",
            Name::TransportRecv => "net.transport.recv",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: Name,
    /// Shared by everything one `client_send_batch` caused.
    batch: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every span, kept or folded.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Acc {
    /// Mean duration in ns (0 when the name never occurred).
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

struct Open {
    id: u64,
    name: Name,
    batch: u64,
    start_ns: u64,
    child_ns: u64,
}

struct Inner {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    acc: [Acc; Name::ALL.len()],
}

/// The span recorder. Used from one thread at a time; the mutex is there
/// because the store and agent wrappers must be `Send + Sync`.
pub struct Tracer(Mutex<Inner>);

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer(Mutex::new(Inner {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            kept: Vec::new(),
            acc: [Acc::default(); Name::ALL.len()],
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0.lock().expect("no thread panics while tracing")
    }

    /// Opens a span under the innermost open one. A child inherits its
    /// parent's batch id; `batch` is used at the top level.
    pub fn enter(&self, name: Name, batch: u64) {
        let mut t = self.lock();
        let id = t.next_id;
        t.next_id += 1;
        let batch = t.stack.last().map_or(batch, |p| p.batch);
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.stack.push(Open {
            id,
            name,
            batch,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        let mut t = self.lock();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        let Some(open) = t.stack.pop() else { return };
        let dur = end_ns - open.start_ns;
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let acc = &mut t.acc[open.name as usize];
        acc.count += 1;
        acc.total_ns += dur;
        acc.self_ns += dur.saturating_sub(open.child_ns);
        if t.kept.len() < KEEP {
            t.kept.push(Span {
                id: open.id,
                parent,
                name: open.name,
                batch: open.batch,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: Name, batch: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, batch);
        let out = f();
        self.exit();
        out
    }

    /// Totals for `name`.
    pub fn acc(&self, name: Name) -> Acc {
        self.lock().acc[name as usize]
    }

    /// Spans recorded so far (kept and folded).
    pub fn span_count(&self) -> u64 {
        self.lock().acc.iter().map(|a| a.count).sum()
    }

    /// The trace document: per-name totals and the verbatim spans.
    pub fn to_json(&self) -> Value {
        let t = self.lock();
        let totals = Name::ALL.iter().map(|&n| {
            let a = t.acc[n as usize];
            (
                n.as_str(),
                Value::obj([
                    ("count", Value::Int(a.count)),
                    ("total_ns", Value::Int(a.total_ns)),
                    ("self_ns", Value::Int(a.self_ns)),
                ]),
            )
        });
        let spans = t.kept.iter().map(|s| {
            Value::Arr(vec![
                Value::Int(s.id),
                Value::Int(s.parent),
                Value::str(s.name.as_str()),
                Value::Int(s.batch),
                Value::Int(s.start_ns),
                Value::Int(s.end_ns),
            ])
        });
        Value::obj([
            (
                "span_fields",
                Value::Arr(
                    ["id", "parent", "name", "batch", "start_ns", "end_ns"]
                        .map(Value::str)
                        .to_vec(),
                ),
            ),
            ("totals", Value::obj(totals)),
            ("spans", Value::Arr(spans.collect())),
        ])
    }
}

/// Runs `f` inside a span when tracing, bare otherwise. A free function
/// over an optional tracer, so a caller can pass one of its fields and
/// still borrow the others mutably.
pub fn spanned<T>(
    tracer: &Option<Arc<Tracer>>,
    name: Name,
    batch: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, batch, f),
        None => f(),
    }
}

/// A harness-owned store: the real store behind a `storage.store.put`
/// span, plus the size of the last image written.
pub struct TracedStore {
    inner: Arc<dyn StableStore>,
    tracer: Option<Arc<Tracer>>,
    last_put_len: std::sync::atomic::AtomicU64,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn StableStore>, tracer: Option<Arc<Tracer>>) -> Arc<TracedStore> {
        Arc::new(TracedStore {
            inner,
            tracer,
            last_put_len: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Bytes of the most recent `put`.
    pub fn last_put_len(&self) -> u64 {
        self.last_put_len.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl StableStore for TracedStore {
    fn put(&self, key: &str, value: &[u8]) -> aaa_base::Result<()> {
        self.last_put_len
            .store(value.len() as u64, std::sync::atomic::Ordering::Relaxed);
        spanned(&self.tracer, Name::StorePut, 0, || {
            self.inner.put(key, value)
        })
    }

    fn get(&self, key: &str) -> aaa_base::Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    fn remove(&self, key: &str) -> aaa_base::Result<()> {
        self.inner.remove(key)
    }

    fn keys(&self) -> aaa_base::Result<Vec<String>> {
        self.inner.keys()
    }

    fn stats(&self) -> &StorageStats {
        self.inner.stats()
    }
}

/// A harness-owned agent wrapper: the real agent behind an
/// `agent.reaction` span.
pub struct TracedAgent {
    inner: Box<dyn Agent>,
    tracer: Arc<Tracer>,
}

impl TracedAgent {
    pub fn new(inner: Box<dyn Agent>, tracer: Arc<Tracer>) -> TracedAgent {
        TracedAgent { inner, tracer }
    }
}

impl Agent for TracedAgent {
    fn react(&mut self, ctx: &mut ReactionContext<'_>, from: AgentId, note: &Notification) {
        self.tracer.enter(Name::AgentReaction, 0);
        self.inner.react(ctx, from, note);
        self.tracer.exit();
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn restore(&mut self, image: &[u8]) {
        self.inner.restore(image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_batches_propagate() {
        let tr = Tracer::new();
        tr.enter(Name::OnDatagram, 7);
        busy(200_000);
        tr.span(Name::StorePut, 0, || busy(300_000));
        tr.span(Name::AgentReaction, 0, || busy(100_000));
        tr.exit();
        let outer = tr.acc(Name::OnDatagram);
        let put = tr.acc(Name::StorePut);
        let react = tr.acc(Name::AgentReaction);
        assert_eq!((outer.count, put.count, react.count), (1, 1, 1));
        assert!(put.total_ns >= 300_000 && react.total_ns >= 100_000);
        assert!(outer.total_ns >= put.total_ns + react.total_ns + 200_000);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - put.total_ns - react.total_ns
        );
        assert_eq!(put.self_ns, put.total_ns);
        assert_eq!(tr.span_count(), 3);

        let doc = tr.to_json();
        let spans = doc.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        // Children close first; every span carries the root's batch id and
        // children point at the root.
        let root = spans[2].as_arr().unwrap();
        assert_eq!(root[1], Value::Int(0));
        for child in &spans[..2] {
            let c = child.as_arr().unwrap();
            assert_eq!(c[1], root[0], "parent id");
            assert_eq!(c[3], Value::Int(7), "batch id");
        }
    }

    #[test]
    fn spans_beyond_the_cap_are_folded_not_kept() {
        let tr = Tracer::new();
        for _ in 0..KEEP + 10 {
            tr.span(Name::OnTick, 1, || {});
        }
        assert_eq!(tr.acc(Name::OnTick).count, (KEEP + 10) as u64);
        let doc = tr.to_json();
        assert_eq!(
            doc.get("spans").and_then(Value::as_arr).unwrap().len(),
            KEEP
        );
    }
}
