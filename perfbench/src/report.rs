//! One workload, one mode: runs the executions and assembles the metrics.
//!
//! `--trace 0` reports the end-to-end metrics, every one of them from
//! executions with spans, trace recording and the metrics registry off.
//! `--trace 1` reports the per-layer metrics from the traced inline run,
//! the layer replays and the runtime diagnostics, and prints the budget.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::inline::{self, Inline, InlineOpts, InlineResult};
use crate::json::Value;
use crate::oracle::Tally;
use crate::replay::{self, QueueReplay, Replay};
use crate::runtime::{Runtime, RuntimeOpts};
use crate::stat::Stat;
use crate::sys;
use crate::trace::{Name, Tracer};
use crate::workload::{Traffic, Workload, SUBSCRIBERS};
use crate::Res;

/// Rounds of an untraced run: each is one inline window, one saturation
/// window and one round-trip window, so every metric samples the whole
/// run and an episode of interference cannot swallow one metric whole.
const ROUNDS: usize = 12;
/// The durable workload's round trips take tens of milliseconds; fewer,
/// longer windows keep several of them in each.
const DURABLE_ROUNDS: usize = 6;
/// Set-ups timed before the rounds (the last one is measured on) and after.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Share of `--seconds` each kind of window gets in an untraced run.
const SATURATION_SHARE: f64 = 0.40;
const PING_SHARE: f64 = 0.25;
const INLINE_SHARE: f64 = 0.35;
/// Windows per phase of the traced run's sequential executions.
const TRACED_WINDOWS: usize = 5;

/// How one invocation is sized.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    /// Scratch and artefact directory (inside the checkout).
    pub perf_dir: PathBuf,
}

/// One named metric: the reported value and the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub stat: Stat,
}

/// A windowed metric: its least disturbed window is reported.
fn best(name: &'static str, unit: &'static str, higher_is_better: bool, samples: &[f64]) -> Metric {
    let stat = Stat::of(samples);
    Metric {
        name,
        unit,
        value: stat.best(higher_is_better),
        stat,
    }
}

fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        stat: Stat::one(value),
    }
}

/// The outcome of one invocation.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for stderr (environment, budget, findings).
    pub notes: Vec<String>,
    /// Conditions besides the tally that make the run incorrect.
    pub violations: Vec<String>,
}

/// Event-loop shards: generator + shards must fit the machine, or the
/// benchmark measures the scheduler.
pub fn shard_count() -> usize {
    sys::nproc().saturating_sub(1).clamp(1, 3)
}

/// A scratch directory removed when dropped — on success and on failure.
struct Scratch(PathBuf);

impl Scratch {
    fn create(root: &Path, seed: u64) -> Res<Scratch> {
        let dir = root.join(format!("work-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is not worth a panic
        // while unwinding.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Window lengths of one invocation.
struct Plan {
    rounds: usize,
    saturation: Duration,
    ping: Duration,
    inline: Duration,
    warm_up: Duration,
    paced: Duration,
    backlog_pubs: u64,
}

fn plan(w: &Workload, spec: &RunSpec) -> Plan {
    if spec.smoke {
        let w200 = Duration::from_millis(200);
        return Plan {
            rounds: 2,
            saturation: w200,
            ping: w200,
            inline: w200,
            warm_up: w200 / 2,
            paced: Duration::from_millis(250),
            backlog_pubs: 4,
        };
    }
    // The traced run only needs the runtime's diagnostics: a few windows.
    let (rounds, budget) = match (spec.trace, w.traffic) {
        (true, _) => (TRACED_WINDOWS, 0.5),
        (false, Traffic::Fanout) => (DURABLE_ROUNDS, 1.0),
        (false, _) => (ROUNDS, 1.0),
    };
    let share = |s: f64| Duration::from_secs_f64(spec.seconds * budget * s / rounds as f64);
    Plan {
        rounds,
        saturation: share(SATURATION_SHARE),
        ping: share(PING_SHARE),
        inline: share(INLINE_SHARE),
        warm_up: Duration::from_secs_f64(spec.seconds * 0.04),
        paced: Duration::from_secs_f64((spec.seconds * 0.08).min(3.0)),
        backlog_pubs: 16,
    }
}

fn runtime_opts(spec: &RunSpec, work: &Path) -> RuntimeOpts {
    RuntimeOpts {
        seed: spec.seed,
        smoke: spec.smoke,
        shards: shard_count(),
        diag: spec.trace,
        work_dir: work.to_path_buf(),
    }
}

fn inline_opts(spec: &RunSpec, work: &Path, windows: usize, window: Duration) -> InlineOpts {
    InlineOpts {
        seed: spec.seed,
        smoke: spec.smoke,
        windows,
        window,
        tracer: None,
        capture_steps: 0,
        capture_for: Duration::ZERO,
        record_causality: false,
        work_dir: work.to_path_buf(),
    }
}

/// Runs `w` as `spec` says.
pub fn run(w: &Workload, spec: &RunSpec) -> Res<Outcome> {
    let scratch = Scratch::create(&spec.perf_dir, spec.seed)?;
    let mut notes = vec![format!(
        "workload={} seed={} seconds={} smoke={} trace={} nproc={} shards={} work_fs={}",
        w.name,
        spec.seed,
        spec.seconds,
        spec.smoke,
        spec.trace,
        sys::nproc(),
        shard_count(),
        sys::fs_type(&scratch.0),
    )];
    let outcome = if spec.trace {
        run_traced(w, spec, &scratch.0, &mut notes)
    } else {
        run_untraced(w, spec, &scratch.0, &mut notes)
    };
    outcome.map(|(tally, metrics, violations)| Outcome {
        tally,
        metrics,
        notes,
        violations,
    })
}

type Parts = (Tally, Vec<Metric>, Vec<String>);

fn note_recovery(recover_s: Option<f64>, notes: &mut Vec<String>) {
    if let Some(s) = recover_s {
        notes.push(format!(
            "durable recovery: Mom::recover to last backlog delivery {s:.4} s"
        ));
    }
}

fn run_untraced(w: &Workload, spec: &RunSpec, work: &Path, notes: &mut Vec<String>) -> Res<Parts> {
    let plan = plan(w, spec);
    let ropts = runtime_opts(spec, work);
    let mut setups = Vec::new();
    for rep in 1..SETUPS_BEFORE {
        setups.push(Runtime::setup_once(w, &ropts, rep)?);
    }
    let (mut rt, secs) = Runtime::start(w, &ropts, 0)?;
    setups.push(secs);
    let mut inl = Inline::start(w, &inline_opts(spec, &work.join("inline"), 0, plan.inline))?;
    rt.warm_up(plan.warm_up)?;
    inl.warm_up(plan.warm_up)?;

    let (mut per_s, mut cpu_us, mut rtt) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..plan.rounds {
        inl.window(plan.inline)?;
        let sat = rt.saturation_window(plan.saturation)?;
        per_s.push(sat.delivered_per_s);
        cpu_us.push(sat.cpu_us_per_msg);
        rtt.extend(rt.ping_window(plan.ping)?);
    }
    let inl = inl.finish()?;
    let mut tally = inl.tally;
    note_recovery(rt.recover(plan.backlog_pubs)?, notes);
    let (rt_tally, _) = rt.finish()?;
    tally.absorb(rt_tally);
    for rep in 0..SETUPS_AFTER {
        setups.push(Runtime::setup_once(w, &ropts, SETUPS_BEFORE + rep)?);
    }
    if rtt.is_empty() {
        return Err("no round trip completed in any window".into());
    }
    let metrics = vec![
        best("setup_s", "s", false, &setups),
        best("delivered_per_s", "msgs/s", true, &per_s),
        best("rtt_us", "us", false, &rtt),
        best("core_us_per_msg", "us", false, &inl.core_us_per_msg.samples),
        best("cpu_us_per_msg", "us", false, &cpu_us),
        one("wire_bytes_per_msg", "B", inl.wire_bytes_per_msg),
        one("peak_rss_mb", "MB", sys::peak_rss_mb()),
    ];
    Ok((tally, metrics, Vec::new()))
}

/// Per-delivered-message nanoseconds of each layer, from the replays and
/// the store spans, against the untraced inline cost.
struct Budget {
    clocks: f64,
    net: f64,
    channel: f64,
    engine: f64,
    storage: f64,
    core: f64,
}

impl Budget {
    fn unattributed(&self) -> f64 {
        self.core - (self.clocks + self.net + self.channel + self.engine + self.storage)
    }

    fn share(&self, ns: f64) -> f64 {
        ns / self.core.max(f64::MIN_POSITIVE)
    }

    fn lines(&self, workload: &str) -> Vec<String> {
        let row = |layer: &str, ns: f64| {
            format!(
                "budget {workload:>14} {layer:<28} {:>12.1} ns/msg {:>7.1} %",
                ns,
                100.0 * self.share(ns)
            )
        };
        vec![
            row("clocks", self.clocks),
            row("net (frame + link)", self.net),
            row("mom.channel + routing (self)", self.channel),
            row("mom.engine + reaction", self.engine),
            row("storage (store + queue)", self.storage),
            row("unattributed remainder", self.unattributed()),
            row("core_us_per_msg (untraced)", self.core),
        ]
    }
}

fn run_traced(w: &Workload, spec: &RunSpec, work: &Path, notes: &mut Vec<String>) -> Res<Parts> {
    let mut violations = Vec::new();

    // Untraced inline first: the base of the budget and of the tracing
    // overhead.
    let plan = plan(w, spec);
    let base = inline::run(
        w,
        &inline_opts(spec, &work.join("inline-base"), TRACED_WINDOWS, plan.inline),
    )?;
    let base_core = base.core_us_per_msg.best(false);
    let mut tally = base.tally;
    drop(base);

    // The same execution with spans on, captured for the replays.
    let tracer = Tracer::new();
    let mut opts = inline_opts(
        spec,
        &work.join("inline-traced"),
        TRACED_WINDOWS,
        plan.inline,
    );
    opts.tracer = Some(tracer.clone());
    opts.capture_steps = 200_000;
    opts.capture_for = if spec.smoke {
        Duration::from_millis(150)
    } else {
        Duration::from_secs_f64(spec.seconds * 0.06)
    };
    let traced: InlineResult = inline::run(w, &opts)?;
    tally.absorb(traced.tally);
    let rep: Replay = replay::run(&traced.steps, &traced.topology)?;
    let queue: QueueReplay = if w.traffic == Traffic::Fanout {
        let records = if spec.smoke { 128 } else { 1024 };
        let payload = (rep.frame_bytes / rep.frames.max(1)) as usize;
        replay::replay_queue(&work.join("scratch-queue"), records, payload, 16)?
    } else {
        QueueReplay::default()
    };
    let trace_path = spec.perf_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, tracer.to_json().render())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    notes.push(format!("spans written to {}", trace_path.display()));

    // Causal order, checked by the repo's own trace model on the workload
    // that postpones.
    if w.traffic == Traffic::Mesh {
        let mut opts = inline_opts(spec, &work.join("inline-causal"), 0, Duration::ZERO);
        opts.record_causality = true;
        let causal = inline::run(w, &opts)?;
        tally.absorb(causal.tally);
        match causal.causality {
            Some(Ok(())) => notes.push("Trace::check_causality: OK".into()),
            Some(Err(e)) => violations.push(e),
            None => violations.push("no causality trace was recorded".into()),
        }
    }

    // The runtime's diagnostics: a few windows of each kind, the paced
    // leg, the recovery leg.
    let (mut rt, _) = Runtime::start(w, &runtime_opts(spec, work), 0)?;
    rt.warm_up(plan.warm_up)?;
    let mut cpu_us = Vec::new();
    for _ in 0..plan.rounds {
        cpu_us.push(rt.saturation_window(plan.saturation)?.cpu_us_per_msg);
        rt.ping_window(plan.ping)?;
    }
    let late_share = rt.paced(plan.paced)?;
    let recover_s = rt.recover(plan.backlog_pubs)?;
    note_recovery(recover_s, notes);
    let load = rt.load();
    let (rt_tally, d) = rt.finish()?;
    tally.absorb(rt_tally);
    let runtime_cpu_us = Stat::of(&cpu_us).best(false);
    if rep.channel_mismatches + rep.stamp_mismatches > 0 {
        notes.push(format!(
            "replay fidelity: {} channel steps and {} stamps differed from the captured run",
            rep.channel_mismatches, rep.stamp_mismatches
        ));
    }

    let c = traced.counts;
    let delivered = c.delivered.max(1) as f64;
    let hops_per_msg = c.stats.transmitted as f64 / delivered;
    let wire = rep.wire_msgs.max(1) as f64;
    // A layer's cost per delivered message is, for each of its operations,
    // the replay's mean cost per call times how often a delivered message
    // needs it: once per hop for the per-message operations (the run's
    // exact hops per delivery), once per `frames_per_datagram` messages
    // for the datagram codec. Means, not totals: the capture ends with up
    // to a window of messages sent but not yet received, so send-side and
    // receive-side call counts differ.
    let span = |n: Name| tracer.acc(n);
    let frames_per_datagram = rep.frames as f64 / rep.data_datagrams.max(1) as f64;
    let clocks_per_hop = rep.stamp_send.mean_ns()
        + rep.on_frame.mean_ns()
        + rep.deliver.mean_ns()
        + rep.can_deliver.mean_ns() * rep.can_deliver.calls as f64
            / rep.deliver.calls.max(1) as f64;
    let net_per_hop = rep.frame_encode.mean_ns()
        + rep.frame_decode.mean_ns()
        + rep.link_sender.mean_ns()
        + rep.link_receiver.mean_ns()
        + (rep.datagram_encode.mean_ns() + rep.datagram_decode.mean_ns())
            / frames_per_datagram.max(1.0);
    // One submission per message, one `take_transmissions` per step
    // (amortised over the messages the captured steps sent), one
    // `on_message` per hop.
    let channel_per_msg = rep.channel_submit.mean_ns()
        + hops_per_msg * (rep.channel_take_tx.total_ns() / wire + rep.channel_on_message.mean_ns());
    let store = span(Name::StorePut);
    let relay_appends_per_delivery = d.relay_enqueued_per_pub / f64::from(SUBSCRIBERS);
    let budget = Budget {
        clocks: hops_per_msg * clocks_per_hop,
        net: hops_per_msg * net_per_hop,
        // The channel's own work: its calls minus the clock calls made
        // inside them (routing lookups are inside them too, and stay).
        channel: channel_per_msg - hops_per_msg * clocks_per_hop,
        engine: (rep.engine_enqueue_step.mean_ns() + span(Name::AgentReaction).mean_ns())
            * c.stats.reactions as f64
            / delivered,
        // Store puts are spans of the traced run; queue appends and acks
        // happen inside the relay, so their share is replayed cost times
        // the relay's own counts.
        storage: store.total_ns as f64 / delivered
            + queue.enqueue_sync_us * 1e3 * relay_appends_per_delivery
            + queue.ack_sync_us * 1e3 * d.relay_acks_per_delivery,
        core: base_core * 1e3,
    };
    notes.extend(budget.lines(w.name));

    let server_spans = [Name::ClientSend, Name::OnDatagram, Name::OnTick].map(span);
    let server_calls: u64 = server_spans.iter().map(|a| a.count).sum();
    let server_self: u64 = server_spans.iter().map(|a| a.self_ns).sum();
    let traced_core = traced.core_us_per_msg.best(false);
    let overhead_share = traced_core / base_core.max(f64::MIN_POSITIVE) - 1.0;
    notes.push(format!(
        "tracing overhead: traced {:.4} us/msg vs untraced {:.4} us/msg ({:+.1} %)",
        traced_core,
        base_core,
        100.0 * overhead_share
    ));

    let metrics = vec![
        one("clocks.stamp_send_ns", "ns", rep.stamp_send.mean_ns()),
        one(
            "clocks.stamp_entries_per_msg",
            "count",
            rep.stamp_entries as f64 / rep.stamp_send.calls.max(1) as f64,
        ),
        one(
            "clocks.stamp_bytes_per_msg",
            "B",
            rep.stamp_bytes as f64 / rep.stamp_send.calls.max(1) as f64,
        ),
        one("clocks.on_frame_ns", "ns", rep.on_frame.mean_ns()),
        one("clocks.can_deliver_ns", "ns", rep.can_deliver.mean_ns()),
        one("clocks.deliver_ns", "ns", rep.deliver.mean_ns()),
        one(
            "clocks.can_deliver_calls_per_msg",
            "ratio",
            rep.can_deliver.calls as f64 / rep.deliver.calls.max(1) as f64,
        ),
        one("clocks.postponed_max", "count", rep.postponed_max as f64),
        one(
            "clocks.state_bytes_per_server",
            "B",
            rep.state_bytes_per_server,
        ),
        one("net.frame.encode_ns", "ns", rep.frame_encode.mean_ns()),
        one("net.frame.decode_ns", "ns", rep.frame_decode.mean_ns()),
        one(
            "net.frame.bytes_per_msg",
            "B",
            rep.frame_bytes as f64 / rep.frames.max(1) as f64,
        ),
        one(
            "net.link.datagram_encode_ns",
            "ns",
            rep.datagram_encode.mean_ns(),
        ),
        one(
            "net.link.datagram_decode_ns",
            "ns",
            rep.datagram_decode.mean_ns(),
        ),
        one("net.link.sender_ns", "ns", rep.link_sender.mean_ns()),
        one("net.link.receiver_ns", "ns", rep.link_receiver.mean_ns()),
        one("net.link.frames_per_datagram", "ratio", frames_per_datagram),
        one(
            "net.link.acks_per_msg",
            "ratio",
            rep.ack_datagrams as f64 / rep.frames.max(1) as f64 * hops_per_msg,
        ),
        one("net.link.retransmits", "count", rep.retransmits as f64),
        one(
            "net.transport.send_ns",
            "ns",
            span(Name::TransportSend).mean_ns(),
        ),
        one(
            "net.transport.recv_ns",
            "ns",
            span(Name::TransportRecv).mean_ns(),
        ),
        one(
            "net.transport.datagrams_per_msg",
            "ratio",
            c.datagrams as f64 / delivered,
        ),
        one(
            "net.transport.tx_bytes_per_msg",
            "B",
            c.wire_bytes as f64 / delivered,
        ),
        one(
            "topology.routing.build_all_ms",
            "ms",
            rep.routing_build_all_ms,
        ),
        one("topology.routing.next_hop_ns", "ns", rep.next_hop.mean_ns()),
        one("topology.routing.hops_per_msg", "ratio", hops_per_msg),
        one("mom.channel.submit_ns", "ns", rep.channel_submit.mean_ns()),
        one(
            "mom.channel.take_tx_ns",
            "ns",
            rep.channel_take_tx.mean_ns(),
        ),
        one(
            "mom.channel.on_message_ns",
            "ns",
            rep.channel_on_message.mean_ns(),
        ),
        one(
            "mom.channel.forwarded_per_msg",
            "ratio",
            c.stats.forwarded as f64 / delivered,
        ),
        one(
            "mom.engine.enqueue_step_ns",
            "ns",
            rep.engine_enqueue_step.mean_ns(),
        ),
        one(
            "mom.engine.reactions_per_msg",
            "ratio",
            c.stats.reactions as f64 / delivered,
        ),
        one(
            "mom.server.client_send_ns",
            "ns",
            span(Name::ClientSend).mean_ns(),
        ),
        one(
            "mom.server.on_datagram_ns",
            "ns",
            span(Name::OnDatagram).mean_ns(),
        ),
        one("mom.server.on_tick_ns", "ns", span(Name::OnTick).mean_ns()),
        one(
            "mom.server.self_ns",
            "ns",
            server_self as f64 / server_calls.max(1) as f64,
        ),
        one(
            "mom.server.steps_per_msg",
            "ratio",
            c.steps as f64 / delivered,
        ),
        one("storage.store.put_ns", "ns", store.mean_ns()),
        one(
            "storage.store.puts_per_msg",
            "ratio",
            store.count as f64 / delivered,
        ),
        one(
            "storage.store.bytes_per_msg",
            "B",
            c.stats.disk_bytes as f64 / delivered,
        ),
        one("storage.store.image_bytes", "B", traced.image_bytes as f64),
        one("storage.queue.enqueue_sync_us", "us", queue.enqueue_sync_us),
        one("storage.queue.ack_sync_us", "us", queue.ack_sync_us),
        one(
            "storage.queue.enqueue_nosync_ns",
            "ns",
            queue.enqueue_nosync_ns,
        ),
        one("storage.queue.ack_ns", "ns", queue.ack_ns),
        one("storage.queue.pending_scan_ns", "ns", queue.pending_scan_ns),
        one(
            "storage.queue.bytes_per_record",
            "B",
            queue.bytes_per_record,
        ),
        one("storage.queue.reopen_ms", "ms", queue.reopen_ms),
        one("storage.queue.compact_ms", "ms", queue.compact_ms),
        one(
            "mom.relay.enqueued_per_pub",
            "ratio",
            d.relay_enqueued_per_pub,
        ),
        one(
            "mom.relay.acks_per_delivery",
            "ratio",
            d.relay_acks_per_delivery,
        ),
        one("mom.relay.redeliveries", "count", d.relay_redeliveries),
        one("mom.relay.recover_s", "s", recover_s.unwrap_or(0.0)),
        one(
            "mom.runtime.send_call_us",
            "us",
            load.send_time.as_secs_f64() * 1e6 / load.sent.max(1) as f64,
        ),
        one(
            "mom.runtime.overhead_us_per_msg",
            "us",
            runtime_cpu_us - base_core,
        ),
        one(
            "mom.runtime.ctx_switches_per_msg",
            "ratio",
            load.ctx_switches as f64 / load.delivered.max(1) as f64,
        ),
        one("mom.runtime.threads", "count", load.threads as f64),
        one("mom.runtime.rtt_p50_us", "us", d.rtt.p50_us),
        one("mom.runtime.rtt_p99_us", "us", d.rtt.p99_us),
        one("mom.runtime.rtt_tail_us", "us", d.rtt.tail_us),
        one("mom.runtime.rtt_tail_pct", "%", 100.0 * d.rtt.tail_q),
        one("mom.runtime.rtt_samples", "count", d.rtt.samples as f64),
        one("mom.runtime.paced_p50_us", "us", d.paced.p50_us),
        one("mom.runtime.paced_p99_us", "us", d.paced.p99_us),
        one("mom.runtime.paced_tail_us", "us", d.paced.tail_us),
        one("mom.runtime.paced_tail_pct", "%", 100.0 * d.paced.tail_q),
        one("mom.runtime.paced_samples", "count", d.paced.samples as f64),
        one("loadgen.late_share", "ratio", late_share),
        one(
            "loadgen.window_full_share",
            "ratio",
            load.full_naps as f64 / load.turns.max(1) as f64,
        ),
        one(
            "loadgen.backpressure_retries",
            "count",
            load.backpressure_retries as f64,
        ),
        one("trace.overhead_share", "ratio", overhead_share),
        one("trace.spans", "count", tracer.span_count() as f64),
        one(
            "trace.replay_mismatches",
            "count",
            (rep.channel_mismatches + rep.stamp_mismatches) as f64,
        ),
        one("budget.clocks_share", "ratio", budget.share(budget.clocks)),
        one("budget.net_share", "ratio", budget.share(budget.net)),
        one(
            "budget.channel_share",
            "ratio",
            budget.share(budget.channel),
        ),
        one("budget.engine_share", "ratio", budget.share(budget.engine)),
        one(
            "budget.storage_share",
            "ratio",
            budget.share(budget.storage),
        ),
        one(
            "budget.unattributed_share",
            "ratio",
            budget.share(budget.unattributed()),
        ),
    ];
    Ok((tally, metrics, violations))
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> Value {
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    });
    Value::obj([
        (
            "correct",
            Value::Bool(outcome.tally.failed() == 0 && outcome.violations.is_empty()),
        ),
        ("attempted", Value::Int(outcome.tally.attempted)),
        ("failed", Value::Int(outcome.tally.failed())),
        ("metrics", Value::obj(metrics)),
    ])
}
