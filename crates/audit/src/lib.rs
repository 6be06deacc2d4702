#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `aaa-audit` — the workspace's static-analysis pass and
//! protocol-invariant auditor.
//!
//! The paper's guarantee (local causal delivery in every domain plus an
//! acyclic domain graph implies global causal delivery, §4.3) is enforced
//! by *code discipline* as much as by the protocol: a panic on a hot path
//! aborts a half-committed channel transaction, a wall-clock read inside
//! the deterministic simulator makes replay diverge, and a wire-enum
//! variant handled in `encode` but not `decode` silently breaks
//! cross-version exactly-once delivery. This crate walks every workspace
//! source file with a tiny self-contained Rust [lexer] (no `syn`; the
//! vendor tree is offline) and enforces a growing rule set, including:
//!
//! | rule id | guards |
//! |---|---|
//! | `panic-freedom` | no `unwrap`/`expect`/`panic!`-family/indexing-by-literal in non-test code of `net`, `mom`, `clocks`, `storage`, bench drivers and examples |
//! | `determinism` | no `Instant`/`SystemTime`/`thread_rng` in `sim` and `clocks` |
//! | `match-drift` | every wire-enum variant appears in both its serializer and deserializer |
//! | `metric-drift` | the `aaa_*` metric vocabulary in code, README table and Prometheus golden file agree |
//! | `lock-order` | the interprocedural lock-acquisition graph across `mom`/`net`/`obs`/`storage` is a DAG |
//! | `guard-across-blocking` | no `Mutex`/`RwLock` guard *live* (real spans, guards returned by helpers included) across a blocking primitive, channel `recv` or transport `send*` |
//! | `atomic-protocol` | gate-shaped atomics use Acquire/Release+; `Relaxed` only on counters; `SeqCst` carries a why-comment |
//!
//! Intentional exceptions live in per-rule allowlist files
//! (`crates/audit/allow/<rule>.allow`, refreshed with
//! `cargo run -p aaa-audit -- --fix-allowlist`) or inline as
//! `// audit:allow(rule)` on (or directly above) the offending line.
//! Active findings are counted into the observability layer as
//! `aaa_audit_findings_total{rule=...}`.

pub mod allowlist;
pub mod guards;
pub mod interleave;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod tree;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use aaa_obs::Meter;

use allowlist::Allowlist;
use source::SourceFile;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`panic-freedom`, `determinism`, ...).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line the finding points at (the allowlist key).
    pub line_text: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A wire enum whose serializer/deserializer pair must cover every
/// variant (the `match-drift` rule).
#[derive(Debug, Clone)]
pub struct EnumPair {
    /// The enum's type name (e.g. `Stamp`).
    pub enum_name: &'static str,
    /// Workspace-relative path of the file defining the enum.
    pub def: &'static str,
    /// `(file, fn name)` of the serializer side.
    pub encode: (&'static str, &'static str),
    /// `(file, fn name)` of the deserializer side.
    pub decode: (&'static str, &'static str),
}

/// What the auditor checks and where.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes subject to the `panic-freedom` rule.
    pub panic_scopes: Vec<&'static str>,
    /// Path prefixes subject to the `determinism` rule.
    pub determinism_scopes: Vec<&'static str>,
    /// Path prefixes subject to the concurrency rules (`lock-order`,
    /// `guard-across-blocking`): the crates whose locks interleave at
    /// runtime.
    pub concurrency_scopes: Vec<&'static str>,
    /// Function names considered blocking while a guard is live
    /// (`guard-across-blocking`): primitives, channel receives and
    /// transport sends.
    pub guard_blocking: Vec<&'static str>,
    /// Path prefixes subject to the `atomic-protocol` rule.
    pub atomic_scopes: Vec<&'static str>,
    /// Wire enums whose codec pairs must not drift.
    pub enum_pairs: Vec<EnumPair>,
    /// Workspace-relative path of the README holding the metric table.
    pub readme: &'static str,
    /// Workspace-relative paths of Prometheus golden files.
    pub golden: Vec<&'static str>,
    /// Workspace-relative directory holding `<rule>.allow` files.
    pub allow_dir: &'static str,
    /// Path prefixes where raw transport sends must be stamp-dominated
    /// (`stamp-flow`); deliberately excludes `aaa-net`, which *is* the
    /// transport.
    pub stamp_scopes: Vec<&'static str>,
    /// Function names that perform causal stamping (`stamp-flow` seeds).
    pub stamp_seeds: Vec<&'static str>,
    /// Path prefixes subject to `wire-cast-truncation` (codec/wire code).
    pub cast_scopes: Vec<&'static str>,
    /// Path prefixes subject to `clock-overflow`.
    pub clock_scopes: Vec<&'static str>,
    /// Field names holding clock state (`clock-overflow` targets).
    pub clock_cells: Vec<&'static str>,
    /// Path prefixes subject to `error-swallow`.
    pub swallow_scopes: Vec<&'static str>,
    /// Path prefixes forming the batched server step's deterministic core
    /// (`block-in-step` call-graph scope). Excludes transport endpoints
    /// and the runtime thread shell, which own their blocking.
    pub step_scopes: Vec<&'static str>,
    /// Step entry-point function names (`block-in-step` seeds).
    pub step_entries: Vec<&'static str>,
    /// Function names considered blocking inside the step.
    pub step_blocking: Vec<&'static str>,
    /// Path prefix whose `pub` items are pinned by `pub-api-drift`.
    pub api_scope: &'static str,
    /// Workspace-relative path of the public-API baseline file.
    pub api_golden: &'static str,
    /// Workspace-relative path of the evented runtime file whose
    /// shared-memory access set the `model-drift` rule checks against
    /// [`interleave::COVERED_ACCESSES`].
    pub model_file: &'static str,
    /// Entry-point function names from which `model-drift` computes the
    /// modeled window (forward reachability, stopping at `drop`).
    pub model_entries: Vec<&'static str>,
    /// Path prefixes subject to `persist-before-deliver`.
    pub persist_scopes: Vec<&'static str>,
    /// `(effect method, seed)`: the durability point that must dominate
    /// each recovery-critical effect (`persist-before-deliver`). An effect
    /// is covered only by a function that reaches *its* seed: a function
    /// name, or `receiver.method` for the call sites of `method` on that
    /// receiver.
    pub persist_seeds: Vec<(&'static str, &'static str)>,
}

impl Config {
    /// The rule set codified for this workspace.
    pub fn for_aaa_workspace() -> Config {
        Config {
            panic_scopes: vec![
                "crates/net/src/",
                "crates/mom/src/",
                "crates/clocks/src/",
                "crates/storage/src/",
                // Bench drivers and examples feed BENCH_*.json and the
                // README walkthroughs; a panicking bench is a silent
                // perf-trajectory hole.
                "src/bin/",
                "examples/",
            ],
            determinism_scopes: vec!["crates/sim/src/", "crates/clocks/src/"],
            concurrency_scopes: vec![
                "crates/mom/src/",
                "crates/net/src/",
                "crates/obs/src/",
                "crates/storage/src/",
            ],
            guard_blocking: vec![
                "sleep",
                "recv",
                "recv_timeout",
                "park",
                "wait",
                "wait_timeout",
                "block_on",
                "accept",
                "send",
                "send_batch",
                "send_to",
                "write_all",
                "connect",
                "connect_timeout",
            ],
            atomic_scopes: vec![
                "crates/mom/src/",
                "crates/net/src/",
                "crates/obs/src/",
                "crates/storage/src/",
            ],
            enum_pairs: vec![
                EnumPair {
                    enum_name: "Stamp",
                    def: "crates/clocks/src/stamp.rs",
                    encode: ("crates/net/src/wire.rs", "stamp"),
                    decode: ("crates/net/src/wire.rs", "stamp_tagged"),
                },
                EnumPair {
                    enum_name: "Datagram",
                    def: "crates/net/src/link.rs",
                    encode: ("crates/net/src/link.rs", "encode"),
                    decode: ("crates/net/src/link.rs", "decode"),
                },
                EnumPair {
                    enum_name: "DeliveryPolicy",
                    def: "crates/mom/src/message.rs",
                    encode: ("crates/mom/src/persist.rs", "encode_envelope"),
                    decode: ("crates/mom/src/persist.rs", "decode_envelope"),
                },
            ],
            readme: "README.md",
            golden: vec!["tests/golden/metrics.prom"],
            allow_dir: "crates/audit/allow",
            stamp_scopes: vec!["crates/mom/src/", "crates/sim/src/"],
            stamp_seeds: vec!["stamp_send"],
            cast_scopes: vec![
                "crates/net/src/",
                "crates/clocks/src/matrix.rs",
                "crates/clocks/src/protocol.rs",
                "crates/clocks/src/vector.rs",
                "crates/mom/src/persist.rs",
                "crates/mom/src/pubsub.rs",
                "crates/storage/src/file.rs",
                "src/bin/",
                "examples/",
            ],
            clock_scopes: vec!["crates/clocks/src/"],
            clock_cells: vec![
                "cells",
                "deliv",
                "counts",
                "state",
                "now",
                "delivered",
                "sent",
            ],
            swallow_scopes: vec![
                "crates/net/src/",
                "crates/mom/src/",
                "crates/clocks/src/",
                "crates/storage/src/",
            ],
            step_scopes: vec![
                "crates/mom/src/server.rs",
                "crates/mom/src/channel.rs",
                "crates/mom/src/engine.rs",
                "crates/mom/src/persist.rs",
                "crates/mom/src/pubsub.rs",
                "crates/mom/src/agent.rs",
                // The evented runtime's shard loop and the shared server
                // driver: one blocking call here stalls a whole shard —
                // every server multiplexed onto that worker, not just one.
                "crates/mom/src/runtime/driver.rs",
                "crates/mom/src/runtime/evented.rs",
                "crates/net/src/link.rs",
                "crates/net/src/wire.rs",
                "crates/clocks/src/",
                "crates/storage/src/",
            ],
            step_entries: vec![
                "on_datagram",
                "on_datagram_batch",
                "on_tick",
                "client_send_with",
                "client_send_batch",
                "run_ready_server",
            ],
            step_blocking: vec![
                "sleep",
                "recv",
                "recv_timeout",
                "park",
                "wait",
                "wait_timeout",
                "block_on",
                "accept",
                "read_line",
                "read_to_end",
            ],
            api_scope: "crates/mom/src/",
            api_golden: "crates/mom/PUBLIC_API.txt",
            model_file: "crates/mom/src/runtime/evented.rs",
            model_entries: vec![
                "run_ready_server",
                "schedule",
                "worker",
                "timer",
                "send_cmd",
            ],
            // The relay's journal puts `crates/storage/src/` on the
            // redelivery path. Clock deliveries must reach the commit
            // routine that checkpoints (`put`); a relay ack commit must
            // reach the server's journal commit, `relay.sync()`, its one
            // commit point — the checkpoint `put` does not make a journal
            // record durable, and a `sync` on some other journal is not
            // this relay's commit.
            persist_scopes: vec!["crates/mom/src/", "crates/storage/src/"],
            persist_seeds: vec![
                ("deliver", "put"),
                ("on_ack", "put"),
                ("ack_up_to", "relay.sync"),
            ],
        }
    }
}

/// A loaded workspace: every `.rs` file under `crates/*/src` and the root
/// package's `src/`, lexed and annotated.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Parsed source files, sorted by relative path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Reads and lexes the workspace rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; unreadable UTF-8 files are skipped.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut rels: Vec<PathBuf> = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            for entry in fs::read_dir(&crates_dir)? {
                let entry = entry?;
                let src = entry.path().join("src");
                if src.is_dir() {
                    collect_rs(&src, &mut rels)?;
                }
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            collect_rs(&root_src, &mut rels)?;
        }
        let examples = root.join("examples");
        if examples.is_dir() {
            collect_rs(&examples, &mut rels)?;
        }
        let mut files = Vec::with_capacity(rels.len());
        for path in rels {
            let Ok(text) = fs::read_to_string(&path) else {
                continue; // non-UTF-8 or vanished; nothing for a lexer here
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::parse(rel, text));
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Looks up a file by workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

impl Workspace {
    /// Builds a workspace from in-memory files (tests / synthetic trees).
    pub fn from_files(files: Vec<(String, String)>) -> Workspace {
        let mut parsed: Vec<SourceFile> = files
            .into_iter()
            .map(|(rel, text)| SourceFile::parse(rel, text))
            .collect();
        parsed.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace {
            root: PathBuf::new(),
            files: parsed,
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The result of one full audit pass.
#[derive(Debug)]
pub struct AuditReport {
    /// Findings still active after inline escapes and the allowlist.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `// audit:allow(rule)` comments.
    pub suppressed_inline: Vec<Finding>,
    /// Findings suppressed by allowlist entries.
    pub suppressed_allowlist: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale; CI fails on these).
    pub stale_allowlist: Vec<allowlist::AllowEntry>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Wall time per audit phase in milliseconds (`load`, `per-file`,
    /// `global`, `suppress`). Empty when the report was assembled without
    /// the timed driver ([`apply_suppressions`] directly).
    pub timings: Vec<(&'static str, u64)>,
}

impl AuditReport {
    /// Active findings for `rule`.
    pub fn count(&self, rule: &str) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Active finding counts per rule (only rules with findings appear).
    pub fn per_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.rule).or_insert(0) += 1;
        }
        map
    }

    /// Records active finding counts into the observability layer as
    /// `aaa_audit_findings_total{rule=...}` — every rule gets a sample,
    /// so a clean pass exports explicit zeros.
    pub fn record_metrics(&self, meter: &Meter) {
        let per_rule = self.per_rule();
        for rule in rules::ALL_RULES {
            let c = meter.counter_with(
                "aaa_audit_findings_total",
                "Static-analysis findings by audit rule",
                &[("rule", (*rule).to_owned())],
            );
            c.add(per_rule.get(rule).copied().unwrap_or(0) as u64);
        }
    }

    /// `true` when the tree is clean: no active findings and no stale
    /// allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allowlist.is_empty()
    }

    /// Records phase wall times as `aaa_audit_elapsed_ms{phase=...}`.
    ///
    /// Deliberately separate from [`record_metrics`](Self::record_metrics):
    /// finding counts are deterministic and byte-stable across runs (the
    /// test suite pins that), wall times are not — mixing them would make
    /// every `--metrics` rendering unique.
    pub fn record_timings(&self, meter: &Meter) {
        for (phase, ms) in &self.timings {
            let g = meter.gauge_with(
                "aaa_audit_elapsed_ms",
                "Audit pass wall time by phase (milliseconds)",
                &[("phase", (*phase).to_owned())],
            );
            g.set(i64::try_from(*ms).unwrap_or(i64::MAX));
        }
    }
}

/// Runs the bounded model checks at CI shape and exports the explored
/// state-set sizes as `aaa_audit_model_states_explored{model=...}` — the
/// coverage denominator of the PR 8/9 interleaving proofs, visible to
/// the same dashboards that watch the finding counts.
pub fn record_model_states(meter: &Meter) {
    use aaa_clocks::StampMode;
    let mut runs: Vec<(&str, usize)> = Vec::new();
    let slot = interleave::SlotModel {
        cfg: interleave::SlotConfig::ci(),
    };
    runs.push((
        "slot",
        interleave::explore(&slot, interleave::Options::default())
            .map(|e| e.states)
            .unwrap_or(0),
    ));
    for (label, mode) in [
        ("engine-full", StampMode::Full),
        ("engine-updates", StampMode::Updates),
    ] {
        let m = interleave::EngineModel {
            cfg: interleave::EngineConfig::ci(mode),
        };
        runs.push((
            label,
            interleave::explore(&m, interleave::Options::default())
                .map(|e| e.states)
                .unwrap_or(0),
        ));
    }
    for (model, states) in runs {
        let g = meter.gauge_with(
            "aaa_audit_model_states_explored",
            "Distinct states explored by the bounded model checks at CI shape",
            &[("model", model.to_owned())],
        );
        g.set(i64::try_from(states).unwrap_or(i64::MAX));
    }
}

/// Runs the *per-file* rules over one file: findings depend only on the
/// file's own content and the config.
pub fn per_file_rules(file: &SourceFile, config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    if in_scope(&file.rel, &config.panic_scopes) {
        findings.extend(rules::panic_freedom::check(file));
    }
    if in_scope(&file.rel, &config.determinism_scopes) {
        findings.extend(rules::determinism::check(file));
    }
    if in_scope(&file.rel, &config.atomic_scopes) {
        findings.extend(rules::atomic_protocol::check(file));
    }
    if in_scope(&file.rel, &config.cast_scopes) {
        findings.extend(rules::wire_cast::check(file));
    }
    if in_scope(&file.rel, &config.clock_scopes) {
        findings.extend(rules::clock_overflow::check(file, &config.clock_cells));
    }
    if in_scope(&file.rel, &config.swallow_scopes) {
        findings.extend(rules::error_swallow::check(file));
    }
    findings
}

/// Runs the *cross-file* rules: anything needing the whole workspace
/// (enum codec pairs, the metric vocabulary, the call graph).
pub fn global_rules(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rules::match_drift::check(ws, &config.enum_pairs));
    let readme_text = fs::read_to_string(ws.root.join(config.readme)).unwrap_or_default();
    let golden_texts: Vec<(&'static str, String)> = config
        .golden
        .iter()
        .map(|g| (*g, fs::read_to_string(ws.root.join(g)).unwrap_or_default()))
        .collect();
    findings.extend(rules::metric_drift::check(
        ws,
        config.readme,
        &readme_text,
        &golden_texts,
    ));
    findings.extend(rules::stamp_flow::check(ws, config));
    findings.extend(rules::error_swallow::check_global(ws, config));
    findings.extend(rules::block_in_step::check(ws, config));
    findings.extend(rules::lock_order::check(ws, config));
    findings.extend(rules::guard_across_blocking::check(ws, config));
    findings.extend(rules::model_drift::check(ws, config));
    findings.extend(rules::persist_before_deliver::check(ws, config));
    let api_text = fs::read_to_string(ws.root.join(config.api_golden)).unwrap_or_default();
    findings.extend(rules::pub_api::check(
        ws,
        config.api_scope,
        config.api_golden,
        &api_text,
    ));
    findings
}

/// Sorts findings into the canonical reporting order. The full key
/// (file, line, rule, line text, message) makes the order — and with it
/// every rendered artifact: allowlist, `--metrics`, SARIF — byte-stable
/// across filesystems and runs.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.line_text, &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule,
            &b.line_text,
            &b.message,
        ))
    });
}

/// Raw per-file findings, in file order.
fn per_file_findings(ws: &Workspace, config: &Config) -> Vec<Finding> {
    ws.files
        .iter()
        .flat_map(|f| per_file_rules(f, config))
        .collect()
}

/// Runs every rule over `ws`, returning *raw* findings (before any
/// allowlist or inline-escape filtering).
pub fn run_rules(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let mut findings = per_file_findings(ws, config);
    findings.extend(global_rules(ws, config));
    sort_findings(&mut findings);
    findings
}

fn in_scope(rel: &str, scopes: &[&'static str]) -> bool {
    scopes.iter().any(|s| rel.starts_with(s))
}

/// Runs the full audit over the workspace at `root`: load, lex, run every
/// rule, then apply inline escapes and the committed allowlist, with
/// per-phase wall times recorded on the report.
///
/// # Errors
///
/// Propagates filesystem errors from loading the tree or the allowlist.
pub fn audit_workspace(root: &Path, config: &Config) -> io::Result<AuditReport> {
    let ms = |t: Instant| u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX);
    let mut timings: Vec<(&'static str, u64)> = Vec::new();

    let t = Instant::now();
    let ws = Workspace::load(root)?;
    timings.push(("load", ms(t)));

    let t = Instant::now();
    let mut raw = per_file_findings(&ws, config);
    timings.push(("per-file", ms(t)));

    let t = Instant::now();
    raw.extend(global_rules(&ws, config));
    sort_findings(&mut raw);
    timings.push(("global", ms(t)));

    let allow = Allowlist::load(&root.join(config.allow_dir))?;
    let t = Instant::now();
    let mut report = apply_suppressions(&ws, raw, &allow);
    timings.push(("suppress", ms(t)));
    report.timings = timings;
    Ok(report)
}

/// Splits raw findings into active / inline-suppressed /
/// allowlist-suppressed, and computes stale allowlist entries.
pub fn apply_suppressions(ws: &Workspace, raw: Vec<Finding>, allow: &Allowlist) -> AuditReport {
    let files_scanned = ws.files.len();
    let mut findings = Vec::new();
    let mut suppressed_inline = Vec::new();
    let mut suppressed_allowlist = Vec::new();
    let mut matched = vec![false; allow.entries.len()];
    for f in raw {
        let inline = ws
            .file(&f.file)
            .map(|sf| sf.is_allowed_inline(f.line, f.rule))
            .unwrap_or(false);
        if inline {
            suppressed_inline.push(f);
            continue;
        }
        match allow.matches(&f) {
            Some(idx) => {
                matched[idx] = true;
                suppressed_allowlist.push(f);
            }
            None => findings.push(f),
        }
    }
    let stale_allowlist = allow
        .entries
        .iter()
        .zip(&matched)
        .filter(|(_, &m)| !m)
        .map(|(e, _)| e.clone())
        .collect();
    AuditReport {
        findings,
        suppressed_inline,
        suppressed_allowlist,
        stale_allowlist,
        files_scanned,
        timings: Vec::new(),
    }
}

/// Regenerates the public-API baseline from the live tree
/// (`--fix-pub-api`): the reviewed way to admit a `pub` surface change.
/// Returns the number of inventoried items.
///
/// # Errors
///
/// Propagates filesystem errors loading the tree or writing the baseline.
pub fn fix_pub_api(root: &Path, config: &Config) -> io::Result<usize> {
    let ws = Workspace::load(root)?;
    let inv = rules::pub_api::inventory(&ws, config.api_scope);
    fs::write(
        root.join(config.api_golden),
        rules::pub_api::render_baseline(&inv),
    )?;
    Ok(inv.len())
}

/// Rewrites the allowlist directory to exactly cover today's
/// (non-inline-suppressed) findings: the `--fix-allowlist` snapshot.
///
/// # Errors
///
/// Propagates filesystem errors writing the allow files.
pub fn fix_allowlist(root: &Path, config: &Config) -> io::Result<AuditReport> {
    let ws = Workspace::load(root)?;
    let raw = run_rules(&ws, config);
    let kept: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            !ws.file(&f.file)
                .map(|sf| sf.is_allowed_inline(f.line, f.rule))
                .unwrap_or(false)
        })
        .collect();
    let allow = Allowlist::from_findings(&kept);
    allow.save(&root.join(config.allow_dir))?;
    // Re-run with the fresh allowlist: by construction everything is
    // suppressed and nothing is stale.
    let report = apply_suppressions(&ws, kept, &allow);
    Ok(report)
}
