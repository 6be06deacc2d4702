//! `bench-stamps` — the stamp-mode shootout: per-message stamp bytes, CPU
//! per deliver and postponed depth for every [`StampMode`], at domain
//! widths far beyond the paper's ~100-server comfort zone.
//!
//! ```text
//! bench-stamps [--short]
//! ```
//!
//! The protocol cost of a stamp mode is a property of [`CausalState`]
//! alone, so the shootout drives the clock layer directly: four *active*
//! servers exchange all-to-all traffic inside a domain *declared* to hold
//! `n` servers (the regime the ROADMAP north-star cares about: enormous
//! membership, sparse active communication). One link runs a tick late, so
//! frames genuinely postpone and the can-deliver scan is exercised.
//!
//! Two legs, n = 100 and n = 1000, both real protocol runs: stamp bytes
//! are exact, CPU is wall-clock over the stamp/on-frame/deliver path from
//! the second tick on. The first tick counts for bytes and depth but not
//! for CPU: it is where lazily created state is allocated (the first
//! blocks of every `SENT`), a cost per server, not per message, that a
//! 20-tick leg would otherwise report as a per-deliver cost.
//! (n = 10000 is not run — a full-mode matrix is 800 MB *per server* —
//! and an analytic row does not belong in a measurements file; it becomes
//! a leg when ROADMAP item 2's sparse state makes it runnable.)
//!
//! The full run writes `BENCH_stamps.json` and asserts the acceptance
//! bar: the delta mode ships ≥10× fewer stamp bytes than full at
//! n = 1000, and its CPU per deliver at n = 1000 is at most 4× what it is
//! at n = 100 — the delta mode's clock work follows the stamp, not the
//! domain width (a core that touches `n²` cells per message reads ≈ 140×
//! there). `--short` (one small leg, the CI smoke run) prints its JSON to
//! stdout and leaves the committed results file alone.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use aaa_middleware::base::DomainServerId;
use aaa_middleware::clocks::{Batching, CausalState, PendingStamp, Stamp, StampMode};

/// Active servers exchanging traffic; everything else in the domain is
/// declared membership only.
const ACTIVE: usize = 4;

fn d(i: usize) -> DomainServerId {
    DomainServerId::new(u16::try_from(i).unwrap_or(u16::MAX))
}

/// One measured run of one mode at one declared width.
struct ModeResult {
    mode: StampMode,
    messages: u64,
    stamp_bytes: u64,
    /// Clock-layer time and deliveries of every tick but the first.
    protocol_cpu: Duration,
    timed_delivers: u64,
    delivers: u64,
    max_postponed: usize,
}

impl ModeResult {
    fn bytes_per_msg(&self) -> f64 {
        self.stamp_bytes as f64 / self.messages.max(1) as f64
    }

    fn cpu_us_per_deliver(&self) -> f64 {
        self.protocol_cpu.as_secs_f64() * 1e6 / self.timed_delivers.max(1) as f64
    }
}

/// Per-server clock state if every cell were written, to its `n²` terms:
/// the `SENT` counters plus their equally wide change tags (both `n² × 8`
/// bytes). The resident state is block-sparse and holds the written
/// blocks under an `n² / 4`-byte index, so this is its bound, not its
/// size; the `O(n)` vectors and the maxima over the tags are not
/// counted.
fn state_bytes_per_server(n: usize) -> u64 {
    2 * (n as u64) * (n as u64) * 8
}

struct Frame {
    from: usize,
    stamp: Option<Stamp>,
    pending: Option<PendingStamp>,
}

/// Runs `ticks` rounds of all-to-all traffic among the active servers in a
/// domain declared `n` wide, with the `active[0] → active[1]` link held
/// back one tick so later frames arrive before their causal predecessors.
// The symmetric (from, to) walks index clocks/links/postponed in parallel;
// zipped iterators would obscure which server each access belongs to.
#[allow(clippy::needless_range_loop)]
fn run_mode(n: usize, mode: StampMode, ticks: usize) -> ModeResult {
    let mut clocks: Vec<CausalState> = (0..ACTIVE)
        .map(|i| CausalState::new(d(i), n, mode))
        .collect();
    let mut links: Vec<Vec<VecDeque<Frame>>> = (0..ACTIVE)
        .map(|_| (0..ACTIVE).map(|_| VecDeque::new()).collect())
        .collect();
    let mut postponed: Vec<Vec<Frame>> = (0..ACTIVE).map(|_| Vec::new()).collect();

    let mut result = ModeResult {
        mode,
        messages: 0,
        stamp_bytes: 0,
        protocol_cpu: Duration::ZERO,
        timed_delivers: 0,
        delivers: 0,
        max_postponed: 0,
    };

    for tick in 0..ticks {
        let (mut tick_cpu, mut tick_delivers) = (Duration::ZERO, 0u64);
        // Sends: all-to-all among the active set, grouped per peer the way
        // the channel's batched path stamps bursts.
        for from in 0..ACTIVE {
            for to in 0..ACTIVE {
                if from == to {
                    continue;
                }
                let t0 = Instant::now();
                let stamp = clocks[from].stamp_send(d(to), Batching::Single);
                tick_cpu += t0.elapsed();
                result.messages += 1;
                result.stamp_bytes += stamp.encoded_len() as u64;
                links[from][to].push_back(Frame {
                    from,
                    stamp: Some(stamp),
                    pending: None,
                });
            }
        }
        // Arrivals: every link drains except the slow one, which stays one
        // tick behind (skips draining on even ticks, catches up on odd).
        for from in 0..ACTIVE {
            for to in 0..ACTIVE {
                if from == 0 && to == 1 && tick % 2 == 0 {
                    continue;
                }
                while let Some(mut frame) = links[from][to].pop_front() {
                    let Some(stamp) = frame.stamp.take() else {
                        continue;
                    };
                    let t0 = Instant::now();
                    frame.pending = Some(clocks[to].on_frame(d(from), stamp));
                    tick_cpu += t0.elapsed();
                    postponed[to].push(frame);
                    result.max_postponed = result.max_postponed.max(postponed[to].len());
                }
            }
        }
        // Delivery: scan with a rotating start so blocked frames are
        // genuinely re-examined.
        for (who, queue) in postponed.iter_mut().enumerate() {
            loop {
                let len = queue.len();
                let mut hit = None;
                for off in 0..len {
                    let i = (off + tick) % len;
                    let Some(p) = queue[i].pending.as_ref() else {
                        continue;
                    };
                    let t0 = Instant::now();
                    let ok = clocks[who].can_deliver(d(queue[i].from), p);
                    tick_cpu += t0.elapsed();
                    if ok {
                        hit = Some(i);
                        break;
                    }
                }
                let Some(i) = hit else { break };
                let frame = queue.remove(i);
                if let Some(p) = frame.pending.as_ref() {
                    let t0 = Instant::now();
                    clocks[who].deliver(d(frame.from), p);
                    tick_cpu += t0.elapsed();
                }
                tick_delivers += 1;
            }
        }
        result.delivers += tick_delivers;
        if tick > 0 {
            result.protocol_cpu += tick_cpu;
            result.timed_delivers += tick_delivers;
        }
    }
    // Drain the slow link and whatever is still queued.
    loop {
        let mut progressed = false;
        for from in 0..ACTIVE {
            for to in 0..ACTIVE {
                while let Some(mut frame) = links[from][to].pop_front() {
                    let Some(stamp) = frame.stamp.take() else {
                        continue;
                    };
                    frame.pending = Some(clocks[to].on_frame(d(from), stamp));
                    postponed[to].push(frame);
                    progressed = true;
                }
            }
        }
        for (who, queue) in postponed.iter_mut().enumerate() {
            while let Some(i) = (0..queue.len()).find(|&i| {
                queue[i]
                    .pending
                    .as_ref()
                    .is_some_and(|p| clocks[who].can_deliver(d(queue[i].from), p))
            }) {
                let frame = queue.remove(i);
                if let Some(p) = frame.pending.as_ref() {
                    clocks[who].deliver(d(frame.from), p);
                }
                result.delivers += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    let stuck: usize = postponed.iter().map(Vec::len).sum();
    assert_eq!(stuck, 0, "{mode} at n={n}: frames stuck after drain");
    assert_eq!(
        result.delivers, result.messages,
        "{mode} at n={n}: lost frames"
    );
    result
}

fn json_mode(r: &ModeResult) -> String {
    format!(
        "      \"{}\": {{ \"stamp_bytes_per_msg\": {:.1}, \"cpu_us_per_deliver\": {:.2}, \
         \"max_postponed_depth\": {}, \"messages\": {} }}",
        r.mode,
        r.bytes_per_msg(),
        r.cpu_us_per_deliver(),
        r.max_postponed,
        r.messages,
    )
}

fn json_leg(n: usize, modes: &[ModeResult]) -> String {
    let body: Vec<String> = modes.iter().map(json_mode).collect();
    format!(
        "    {{ \"n\": {n}, \"measured\": true, \"state_bytes_per_server\": {},\n      \
         \"modes\": {{\n{}\n      }} }}",
        state_bytes_per_server(n),
        body.join(",\n")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = match args.as_slice() {
        [] => false,
        [flag] if flag == "--short" => true,
        _ => {
            eprintln!("usage: bench-stamps [--short]");
            std::process::exit(2);
        }
    };

    // Tick counts sized so the full-matrix legs stay in the hundreds of
    // megabytes and seconds range; the sparse modes are cheap regardless.
    let widths: &[(usize, usize)] = if short {
        &[(100, 6)]
    } else {
        &[(100, 60), (1000, 20)]
    };

    eprintln!(
        "bench-stamps: {ACTIVE} active servers, widths {:?}{}",
        widths.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        if short { " [short]" } else { "" }
    );

    let mut legs = Vec::new();
    let mut at_100: Vec<ModeResult> = Vec::new();
    let mut at_1000: Vec<ModeResult> = Vec::new();
    for &(n, ticks) in widths {
        let modes: Vec<ModeResult> = StampMode::ALL
            .into_iter()
            .map(|mode| {
                let r = run_mode(n, mode, ticks);
                eprintln!(
                    "  n={n:>5} {:>8}: {:>12.1} B/msg  {:>8.2} us/deliver  depth {}",
                    r.mode.to_string(),
                    r.bytes_per_msg(),
                    r.cpu_us_per_deliver(),
                    r.max_postponed,
                );
                r
            })
            .collect();
        legs.push(json_leg(n, &modes));
        match n {
            100 => at_100 = modes,
            1000 => at_1000 = modes,
            _ => {}
        }
    }

    // Both legs only run in the full mode; `--short` has nothing to zip.
    for (narrow, wide) in at_100.iter().zip(&at_1000) {
        if wide.mode == StampMode::Full {
            continue;
        }
        let ratio = wide.cpu_us_per_deliver() / narrow.cpu_us_per_deliver();
        eprintln!(
            "  {} cpu per deliver, n=1000 vs n=100: {ratio:.2}x",
            wide.mode
        );
        assert!(
            ratio <= 4.0,
            "{} costs {ratio:.1}x more CPU per deliver at n=1000 than at n=100 (need <=4x)",
            wide.mode
        );
    }

    let mut reductions = String::new();
    if !at_1000.is_empty() {
        let full = at_1000
            .iter()
            .find(|r| r.mode == StampMode::Full)
            .map(ModeResult::bytes_per_msg);
        assert!(full.is_some(), "full leg ran");
        if let Some(full) = full {
            let mut parts = Vec::new();
            for r in &at_1000 {
                if r.mode == StampMode::Full {
                    continue;
                }
                let ratio = full / r.bytes_per_msg();
                eprintln!("  n=1000 {} vs full: {ratio:.1}x fewer stamp bytes", r.mode);
                parts.push(format!("    \"{}\": {ratio:.1}", r.mode));
                if !short {
                    assert!(
                        ratio >= 10.0,
                        "{} at n=1000 only {ratio:.1}x below full (need >=10x)",
                        r.mode
                    );
                }
            }
            reductions = format!(
                ",\n  \"stamp_bytes_reduction_vs_full_at_1000\": {{\n{}\n  }}",
                parts.join(",\n")
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"stamps\",\n  \"active_servers\": {ACTIVE},\n  \
         \"short\": {short},\n  \"legs\": [\n{}\n  ]{reductions}\n}}\n",
        legs.join(",\n")
    );
    if short {
        print!("{json}");
        return;
    }
    match std::fs::write("BENCH_stamps.json", &json) {
        Ok(()) => eprintln!("  wrote BENCH_stamps.json"),
        Err(e) => eprintln!("  failed to write BENCH_stamps.json: {e}"),
    }
}
