//! Tier-1 gate: the workspace static-analysis pass must be clean.
//!
//! `workspace_is_clean` runs the full `aaa-audit` pass over this very
//! tree — any new `unwrap()` on a delivery path, wire-enum drift, metric
//! vocabulary fork, wall-clock read in the simulator or lock held across
//! a send fails `cargo test` with a `file:line` diagnostic, unless it is
//! intentionally excepted (`crates/audit/allow/` or `// audit:allow`).
//!
//! The `sabotage_*` tests are the auditor's own acceptance criteria: each
//! injects a representative violation into an *in-memory* copy of the
//! tree (nothing on disk is touched, nothing needs to compile) and
//! asserts the pass catches it where a reviewer would expect.

use std::path::Path;

use aaa_audit::allowlist::Allowlist;
use aaa_audit::source::SourceFile;
use aaa_audit::{apply_suppressions, audit_workspace, run_rules, Config, Finding, Workspace};
use aaa_middleware::obs::{Meter, Registry};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_clean() {
    let config = Config::for_aaa_workspace();
    let report = audit_workspace(root(), &config).expect("audit pass runs");
    assert!(
        report.files_scanned > 50,
        "implausibly few files scanned ({}) — did the tree move?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "audit findings (fix them or run `cargo run -p aaa-audit -- --fix-allowlist` \
         for intentional exceptions):\n{}",
        rendered.join("\n")
    );
    assert!(
        report.stale_allowlist.is_empty(),
        "stale allowlist entries (the excepted line no longer trips the rule — \
         refresh with `cargo run -p aaa-audit -- --fix-allowlist`):\n{}",
        report
            .stale_allowlist
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The pass exports its verdict through the observability layer: a
    // clean tree is an explicit zero per rule, not a missing series.
    let registry = Registry::new();
    report.record_metrics(&Meter::new(&registry));
    let snap = registry.snapshot();
    assert_eq!(snap.sum_counter("aaa_audit_findings_total"), 0);
    let exposition = snap.render_prometheus();
    assert!(exposition.contains("aaa_audit_findings_total"));
}

/// One sabotage patch: workspace-relative path plus a text rewrite.
type Edit<'a> = (&'a str, &'a dyn Fn(&str) -> String);

/// Re-runs the audit after rewriting one file of an in-memory tree.
fn findings_after(edits: &[Edit<'_>]) -> Vec<Finding> {
    let config = Config::for_aaa_workspace();
    let mut ws = Workspace::load(root()).expect("workspace loads");
    for (rel, mutate) in edits {
        let idx = ws
            .files
            .iter()
            .position(|f| f.rel == *rel)
            .unwrap_or_else(|| panic!("{rel} not in workspace"));
        let text = mutate(&ws.files[idx].text);
        assert_ne!(text, ws.files[idx].text, "sabotage patch missed: {rel}");
        ws.files[idx] = SourceFile::parse((*rel).to_owned(), text);
    }
    let raw = run_rules(&ws, &config);
    let allow = Allowlist::load(&root().join(config.allow_dir)).expect("allowlist loads");
    apply_suppressions(&ws, raw, &allow).findings
}

#[test]
fn sabotage_unwrap_in_link_is_caught() {
    let f = findings_after(&[("crates/net/src/link.rs", &|t| {
        format!("{t}\nfn sneaky(x: Option<u8>) -> u8 {{ x.unwrap() }}\n")
    })]);
    let hit = f.iter().find(|f| {
        f.rule == "panic-freedom"
            && f.file == "crates/net/src/link.rs"
            && f.message.contains("unwrap")
    });
    let hit = hit.unwrap_or_else(|| panic!("unwrap not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
}

#[test]
fn sabotage_stamp_variant_in_encode_only_is_caught() {
    // A new `Stamp::Probe` wire variant, handled by the serializer but
    // forgotten in the deserializer — the classic cross-version breaker.
    let f = findings_after(&[
        ("crates/clocks/src/stamp.rs", &|t| {
            t.replacen("Full(MatrixClock),", "Probe,\n    Full(MatrixClock),", 1)
        }),
        ("crates/net/src/wire.rs", &|t| {
            t.replacen(
                    "Stamp::Full(m) => {",
                    "Stamp::Probe => {\n                self.u8(9);\n            }\n            Stamp::Full(m) => {",
                    1,
                )
        }),
    ]);
    let hit = f
        .iter()
        .find(|f| f.rule == "match-drift" && f.message.contains("Probe"))
        .unwrap_or_else(|| panic!("encode-only variant not flagged; findings: {f:#?}"));
    // The diagnostic points at the variant's definition and names the
    // deserializer that forgot it.
    assert_eq!(hit.file, "crates/clocks/src/stamp.rs");
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("stamp_tagged"),
        "should name the deserializer missing the variant: {}",
        hit.message
    );
    // And only the decode side drifted — the encode side covers `Probe`.
    assert!(
        !f.iter().any(|f| f.rule == "match-drift"
            && f.message.contains("Probe")
            && f.message.contains("encode side")),
        "encode side handles the variant; findings: {f:#?}"
    );
}

#[test]
fn sabotage_unstamped_send_is_caught() {
    // A helper inside aaa-mom that pushes bytes straight onto the
    // transport without going through `stamp_send*` — exactly the §4.2
    // bypass the stamp-flow rule exists to catch.
    let f = findings_after(&[("crates/mom/src/server.rs", &|t| {
        format!(
            "{t}\nfn sneaky_bypass(ep: &dyn Transport, to: ServerId, bytes: Bytes) \
             -> Result<()> {{ ep.send(to, bytes) }}\n"
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "stamp-flow" && f.file == "crates/mom/src/server.rs")
        .unwrap_or_else(|| panic!("unstamped send not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("stamp"),
        "diagnostic should explain the missing stamp domination: {}",
        hit.message
    );
}

#[test]
fn sabotage_unguarded_len_cast_is_caught() {
    // A raw `len() as u32` on a codec path: wraps silently past 4 GiB
    // instead of producing a prefix the decoder can reject.
    let f = findings_after(&[("crates/net/src/wire.rs", &|t| {
        format!("{t}\nfn sneaky_len(v: &[u8]) -> u32 {{ v.len() as u32 }}\n")
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "wire-cast-truncation" && f.file == "crates/net/src/wire.rs")
        .unwrap_or_else(|| panic!("unguarded narrowing cast not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
}

#[test]
fn sabotage_raw_clock_increment_is_caught() {
    // Revert the matrix clock's own-event increment to wrapping `+= 1`:
    // a wrapped cell compares as *past* and reorders delivery.
    let f = findings_after(&[("crates/clocks/src/matrix.rs", &|t| {
        t.replacen(
            "self.cells[i] = self.cells[i].saturating_add(1);",
            "self.cells[i] += 1;",
            1,
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "clock-overflow" && f.file == "crates/clocks/src/matrix.rs")
        .unwrap_or_else(|| panic!("raw clock increment not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("saturating"),
        "diagnostic should prescribe the saturating fix: {}",
        hit.message
    );
}

#[test]
fn sabotage_swallowed_error_in_mom_is_caught() {
    // A statement-position `.ok();` in the persistence layer: the commit
    // failed, nobody heard about it, and §4.3's "accepted implies
    // processed" assumption silently broke.
    let f = findings_after(&[("crates/mom/src/persist.rs", &|t| {
        format!("{t}\nfn sneaky(r: Result<(), u8>) {{ r.ok(); }}\n")
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "error-swallow" && f.file == "crates/mom/src/persist.rs")
        .unwrap_or_else(|| panic!("swallowed error not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
}

#[test]
fn sabotage_blocking_call_in_step_is_caught() {
    // A blocking sleep inside a function the batched step loop reaches:
    // one stalled step delays every queued delivery behind it.
    let f = findings_after(&[("crates/mom/src/server.rs", &|t| {
        t.replacen(
            "pub fn on_tick(&mut self, now: VTime) -> Vec<Transmission> {",
            "pub fn on_tick(&mut self, now: VTime) -> Vec<Transmission> {\n        \
             std::thread::sleep(std::time::Duration::from_millis(1));",
            1,
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "block-in-step" && f.file == "crates/mom/src/server.rs")
        .unwrap_or_else(|| panic!("blocking call in step not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("on_tick"),
        "diagnostic should name the step entry that reaches the call: {}",
        hit.message
    );
}

#[test]
fn sabotage_blocking_call_in_shard_loop_is_caught() {
    // A sleep injected into the shard step: a stalled shard worker delays
    // *every* server multiplexed onto it — the rule must reach the
    // `run_ready_server` entry's whole call tree.
    let f = findings_after(&[("crates/mom/src/runtime/evented.rs", &|t| {
        t.replacen(
            "slot.scheduled.store(false, Ordering::Release);",
            "slot.scheduled.store(false, Ordering::Release);\n        \
             std::thread::sleep(TIMER_RESOLUTION);",
            1,
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "block-in-step" && f.file == "crates/mom/src/runtime/evented.rs")
        .unwrap_or_else(|| panic!("blocking call in shard loop not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("run_ready_server"),
        "diagnostic should name the shard-loop entry: {}",
        hit.message
    );
}

#[test]
fn sabotage_new_pub_item_without_baseline_is_caught() {
    // A new `pub fn` added to aaa-mom without touching PUBLIC_API.txt:
    // the surface grew without the prelude/docs decision the baseline
    // diff is meant to force into review.
    let f = findings_after(&[("crates/mom/src/lib.rs", &|t| {
        format!("{t}\npub fn sneaky_new_api() {{}}\n")
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "pub-api-drift" && f.message.contains("sneaky_new_api"))
        .unwrap_or_else(|| panic!("unrecorded pub item not flagged; findings: {f:#?}"));
    assert_eq!(hit.file, "crates/mom/src/lib.rs");
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("fix-pub-api"),
        "diagnostic should prescribe the baseline refresh: {}",
        hit.message
    );
}

#[test]
fn sabotage_unmodeled_atomic_in_shard_loop_is_caught() {
    // A new `paused` flag wired into the evented runtime's hot path
    // without teaching the interleaving model about it: the PR 8 proof
    // would keep passing while no longer describing the real protocol.
    let f = findings_after(&[("crates/mom/src/runtime/evented.rs", &|t| {
        t.replacen(
            "scheduled: AtomicBool,",
            "scheduled: AtomicBool,\n    paused: AtomicBool,",
            1,
        )
        .replacen(
            "slot.scheduled.store(false, Ordering::Release);",
            "slot.scheduled.store(false, Ordering::Release);\n        \
             slot.paused.store(false, Ordering::Release);",
            1,
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "model-drift" && f.message.contains("paused.store"))
        .unwrap_or_else(|| panic!("unmodeled atomic not flagged; findings: {f:#?}"));
    assert_eq!(hit.file, "crates/mom/src/runtime/evented.rs");
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("COVERED_ACCESSES"),
        "diagnostic should prescribe extending the model: {}",
        hit.message
    );
}

#[test]
fn sabotage_undominated_deliver_is_caught() {
    // A delivery effect with no persistence anywhere in its call cone:
    // exactly-once survives until the first crash, then forks history.
    let f = findings_after(&[("crates/mom/src/channel.rs", &|t| {
        format!(
            "{t}\nfn sneaky_volatile(c: &mut CausalState, from: DomainServerId, \
             p: &PendingStamp) {{ c.deliver(from, p); }}\n"
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "persist-before-deliver" && f.message.contains("sneaky_volatile"))
        .unwrap_or_else(|| panic!("undominated deliver not flagged; findings: {f:#?}"));
    assert_eq!(hit.file, "crates/mom/src/channel.rs");
    assert!(hit.line > 0, "diagnostic must carry a line number");
}

#[test]
fn sabotage_unsynced_relay_ack_is_caught() {
    // The journal commit dropped from the server's commit path: relay acks
    // would be released in memory and acknowledged on the wire before
    // their records are durable.
    let f = findings_after(&[("crates/mom/src/server.rs", &|t| {
        t.replace("Some(relay) => relay.sync(),", "Some(_) => Ok(()),")
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "persist-before-deliver" && f.file == "crates/mom/src/relay.rs")
        .unwrap_or_else(|| panic!("unsynced relay ack not flagged; findings: {f:#?}"));
    assert!(hit.message.contains("ack_up_to"), "{}", hit.message);
    assert!(hit.message.contains("`relay.sync`"), "{}", hit.message);
}

#[test]
fn audit_output_is_byte_identical_across_runs() {
    // Determinism is part of the contract: identical trees produce
    // identical findings, identical rendered SARIF and identical metric
    // expositions — no HashMap iteration order, no filesystem order.
    let config = Config::for_aaa_workspace();
    let ws = Workspace::load(root()).expect("workspace loads");
    let a = run_rules(&ws, &config);
    let b = run_rules(&ws, &config);
    assert_eq!(a, b, "raw findings must be run-stable");
    assert_eq!(
        aaa_audit::sarif::render(&a),
        aaa_audit::sarif::render(&b),
        "SARIF bytes must be run-stable"
    );

    let render_metrics = |raw: Vec<Finding>| {
        let allow = Allowlist::load(&root().join(config.allow_dir)).expect("allowlist loads");
        let report = apply_suppressions(&ws, raw, &allow);
        let registry = Registry::new();
        report.record_metrics(&Meter::new(&registry));
        registry.snapshot().render_prometheus()
    };
    assert_eq!(
        render_metrics(a),
        render_metrics(b),
        "Prometheus exposition must be run-stable"
    );
}

#[test]
fn sabotage_unregistered_metric_is_caught() {
    let f = findings_after(&[("crates/net/src/metrics.rs", &|t| {
        format!(
                "{t}\nfn sneaky(meter: &Meter) {{ meter.gauge(\"aaa_sneaky_gauge\", \"undocumented\"); }}\n"
            )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "metric-drift" && f.message.contains("aaa_sneaky_gauge"))
        .unwrap_or_else(|| panic!("unregistered metric not flagged; findings: {f:#?}"));
    assert_eq!(hit.file, "crates/net/src/metrics.rs");
    assert!(hit.line > 0, "diagnostic must carry a line number");
}

#[test]
fn sabotage_lock_inversion_is_caught() {
    // Two helpers taking the same pair of locks in opposite orders — the
    // textbook deadlock the interprocedural lock-order graph exists for.
    let f = findings_after(&[("crates/net/src/health.rs", &|t| {
        format!(
            "{t}\nfn sneaky_fwd(alpha: &Mutex<u8>, zeta: &Mutex<u8>) -> u8 {{\n    \
             let ga = alpha.lock();\n    let gz = zeta.lock();\n    *ga + *gz\n}}\n\
             fn sneaky_rev(alpha: &Mutex<u8>, zeta: &Mutex<u8>) -> u8 {{\n    \
             let gz = zeta.lock();\n    let ga = alpha.lock();\n    *ga + *gz\n}}\n"
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "lock-order" && f.file == "crates/net/src/health.rs")
        .unwrap_or_else(|| panic!("lock inversion not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
    // The diagnostic names the full cycle, not just one edge.
    assert!(
        hit.message.contains("alpha") && hit.message.contains("zeta"),
        "cycle message should name both resources: {}",
        hit.message
    );
}

#[test]
fn sabotage_relaxed_schedule_gate_is_caught() {
    // Downgrade the evented runtime's `scheduled` wakeup gate to Relaxed:
    // the swap would no longer order the queue deposit before the wakeup,
    // exactly the lost-update family `atomic-protocol` polices.
    let f = findings_after(&[("crates/mom/src/runtime/evented.rs", &|t| {
        t.replacen(
            "scheduled.swap(true, Ordering::AcqRel)",
            "scheduled.swap(true, Ordering::Relaxed)",
            1,
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "atomic-protocol" && f.file == "crates/mom/src/runtime/evented.rs")
        .unwrap_or_else(|| panic!("Relaxed gate swap not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("swap"),
        "diagnostic should name the gate-shaped operation: {}",
        hit.message
    );
}

#[test]
fn sabotage_guard_across_send_batch_is_caught() {
    // A mutex guard held across a batched transport send: the blocking
    // I/O stalls every other thread contending on that lock.
    let f = findings_after(&[("crates/net/src/health.rs", &|t| {
        format!(
            "{t}\nfn sneaky_hold(m: &Mutex<Vec<u8>>) {{\n    \
             let sneaky_guard = m.lock();\n    send_batch(&sneaky_guard);\n}}\n"
        )
    })]);
    let hit = f
        .iter()
        .find(|f| f.rule == "guard-across-blocking" && f.file == "crates/net/src/health.rs")
        .unwrap_or_else(|| panic!("guard across send_batch not flagged; findings: {f:#?}"));
    assert!(hit.line > 0, "diagnostic must carry a line number");
    assert!(
        hit.message.contains("send_batch") && hit.message.contains("sneaky_guard"),
        "diagnostic should name the blocking call and the guard: {}",
        hit.message
    );
}
