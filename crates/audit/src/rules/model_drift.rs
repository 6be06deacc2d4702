//! `model-drift`: the evented runtime may not outgrow its model check.
//!
//! PR 8's `interleave::SlotModel` proves the `Slot` wakeup protocol
//! (`crates/mom/src/runtime/evented.rs`) free of lost wakeups and
//! step-after-dead races — but only for the protocol *as modeled*. The
//! proof rots silently the day someone adds an atomic flag, a lock or a
//! queue operation to the shard loop without teaching the model about
//! it: the explorer still passes, now proving the wrong protocol.
//!
//! This rule closes that gap structurally. It statically extracts the
//! shared-memory access set of the runtime — every `field.method(..)`
//! call where `field` is a struct field of atomic/lock/channel type and
//! `method` is a synchronization operation — restricted to functions
//! reachable from the configured entry points (`run_ready_server`,
//! `schedule`, the worker/timer loops, `send_cmd`), and fails if
//! [`COVERED_ACCESSES`] — the model's declared action list — no longer
//! covers it. The reverse
//! drift (a declared access that vanished from the code) is reported as
//! a stale-coverage finding, the same contract as a stale allowlist
//! entry.
//!
//! Reachability deliberately stops at `drop`: `std::mem::drop(guard)`
//! shares its simple name with every `Drop` impl in the name-merged
//! call graph, and following it would pull shutdown-only teardown
//! accesses (`stop.store` in `halt`) into the modeled window.

use std::collections::{BTreeSet, VecDeque};

use crate::interleave::COVERED_ACCESSES;
use crate::lexer::TokKind;
use crate::source::{match_brace, SourceFile};
use crate::tree::{enclosing_fn, fn_spans, CallGraph};
use crate::{Config, Finding, Workspace};

/// Method names that constitute a shared-memory protocol access when
/// called on an atomic / lock / channel field.
const ACCESS_METHODS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "fetch_xor",
    "is_empty",
    "load",
    "lock",
    "read",
    "recv",
    "recv_timeout",
    "send",
    "store",
    "swap",
    "try_lock",
    "try_read",
    "try_recv",
    "try_send",
    "try_write",
    "write",
];

/// Type-name fragments that mark a struct field as shared protocol
/// state.
const SHARED_TYPE_MARKERS: &[&str] =
    &["Atomic", "Condvar", "Mutex", "Receiver", "RwLock", "Sender"];

/// Struct fields of `file` whose declared type mentions an atomic, lock
/// or channel marker.
fn shared_fields(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.toks;
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        // Find the body `{` (tuple structs and unit structs have none).
        let mut j = i + 1;
        while j < toks.len()
            && !toks[j].is_punct('{')
            && !toks[j].is_punct(';')
            && !toks[j].is_punct('(')
        {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            i = j.max(i + 1);
            continue;
        }
        let Some(close) = match_brace(toks, j) else {
            i = j + 1;
            continue;
        };
        let mut k = j + 1;
        while k < close {
            // A field is `name :` where the colon is not part of `::`.
            let is_field = toks[k].kind == TokKind::Ident
                && toks.get(k + 1).map(|t| t.is_punct(':')).unwrap_or(false)
                && !toks.get(k + 2).map(|t| t.is_punct(':')).unwrap_or(false);
            if !is_field {
                k += 1;
                continue;
            }
            let name = toks[k].text.clone();
            // Scan the type to the field-separating comma, tracking
            // nesting so `HashMap<K, V>` commas don't end the field.
            let mut depth = 0i32;
            let mut t = k + 2;
            let mut shared = false;
            while t < close {
                let tok = &toks[t];
                if tok.is_punct('<') || tok.is_punct('(') || tok.is_punct('[') {
                    depth += 1;
                } else if tok.is_punct('>') || tok.is_punct(')') || tok.is_punct(']') {
                    depth -= 1;
                } else if tok.is_punct(',') && depth <= 0 {
                    break;
                } else if tok.kind == TokKind::Ident
                    && SHARED_TYPE_MARKERS.iter().any(|m| tok.text.contains(m))
                {
                    shared = true;
                }
                t += 1;
            }
            if shared {
                out.insert(name);
            }
            k = t + 1;
        }
        i = close + 1;
    }
    out
}

/// Forward reachability over callee edges with barrier names the walk
/// never crosses.
fn reachable_excluding(graph: &CallGraph, seeds: &[&str], blocked: &[&str]) -> BTreeSet<String> {
    let mut set: BTreeSet<String> = seeds
        .iter()
        .filter(|s| !blocked.contains(s))
        .map(|s| (*s).to_owned())
        .collect();
    let mut queue: VecDeque<String> = set.iter().cloned().collect();
    while let Some(name) = queue.pop_front() {
        if let Some(callees) = graph.callees.get(&name) {
            for c in callees {
                if blocked.iter().any(|b| b == c) {
                    continue;
                }
                if set.insert(c.clone()) {
                    queue.push_back(c.clone());
                }
            }
        }
    }
    set
}

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let Some(file) = ws.file(config.model_file) else {
        return Vec::new(); // synthetic trees without the runtime
    };
    let covered: BTreeSet<&str> = COVERED_ACCESSES.iter().copied().collect();
    let fields = shared_fields(file);
    let graph = CallGraph::build([file]);
    let reachable = reachable_excluding(&graph, &config.model_entries, &["drop"]);
    let spans = fn_spans(file);
    let toks = &file.toks;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for i in file.non_test_indices().collect::<Vec<_>>() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !fields.contains(&t.text) {
            continue;
        }
        if !toks.get(i + 1).map(|x| x.is_punct('.')).unwrap_or(false) {
            continue;
        }
        let Some(m) = toks.get(i + 2) else { continue };
        if m.kind != TokKind::Ident || !ACCESS_METHODS.contains(&m.text.as_str()) {
            continue;
        }
        if !toks.get(i + 3).map(|x| x.is_punct('(')).unwrap_or(false) {
            continue;
        }
        let Some(f) = enclosing_fn(&spans, i) else {
            continue;
        };
        if f.is_test || !reachable.contains(&f.name) {
            continue;
        }
        let desc = format!("{}.{}", t.text, m.text);
        seen.insert(desc.clone());
        if !covered.contains(desc.as_str()) {
            out.push(Finding {
                rule: super::MODEL_DRIFT,
                file: file.rel.clone(),
                line: m.line,
                message: format!(
                    "shared-memory access `{desc}` is reachable from the evented shard loop \
                     (via `{}`) but has no covering action in `interleave::SlotModel` — the \
                     PR 8 interleaving proof no longer describes this protocol; model the \
                     access (add a transition and extend COVERED_ACCESSES in \
                     crates/audit/src/interleave.rs) or justify inline",
                    f.name
                ),
                line_text: file.trimmed_line(m.line).to_owned(),
            });
        }
    }
    for c in &covered {
        if !seen.contains(*c) {
            out.push(Finding {
                rule: super::MODEL_DRIFT,
                file: file.rel.clone(),
                line: 1,
                message: format!(
                    "`{c}` is declared covered by `interleave::COVERED_ACCESSES` but no such \
                     access is reachable from the evented entry points any more — the model \
                     checks a transition the code no longer has; remove the stale entry"
                ),
                line_text: file.trimmed_line(1).to_owned(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL_FILE: &str = "crates/mom/src/runtime/evented.rs";

    fn config() -> Config {
        Config::for_aaa_workspace()
    }

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_files(
            files
                .iter()
                .map(|(r, t)| ((*r).to_owned(), (*t).to_owned()))
                .collect(),
        )
    }

    /// A miniature evented runtime exercising every covered access, so
    /// the stale-coverage leg stays quiet and tests can add drift on top.
    fn covered_runtime(extra_field: &str, extra_body: &str) -> String {
        format!(
            "struct Slot {{\n\
                 scheduled: AtomicBool,\n\
                 dead: AtomicBool,\n\
                 cmd_tx: Sender<Command>,\n\
                 cmd_rx: Receiver<Command>,\n\
                 state: Mutex<SlotState>,\n\
                 deadline_us: AtomicU64,\n\
                 {extra_field}\n\
             }}\n\
             struct PoolShared {{\n\
                 runq_tx: Sender<usize>,\n\
                 runq_rx: Receiver<usize>,\n\
                 stop: AtomicBool,\n\
             }}\n\
             impl PoolShared {{\n\
                 fn schedule(&self, i: usize) {{\n\
                     if self.slots[i].dead.load(o) {{ return; }}\n\
                     if !self.slots[i].scheduled.swap(true, o) {{ let _ = self.runq_tx.send(i); }}\n\
                 }}\n\
                 fn run_ready_server(&self, slot: &Slot) {{\n\
                     slot.scheduled.store(false, o);\n\
                     if slot.dead.load(o) {{ return; }}\n\
                     let Some(mut g) = slot.state.try_lock() else {{ return; }};\n\
                     while let Ok(c) = slot.cmd_rx.try_recv() {{\n\
                         slot.dead.store(true, o);\n\
                         slot.deadline_us.store(0, o);\n\
                     }}\n\
                     {extra_body}\n\
                     if !slot.cmd_rx.is_empty() {{ self.schedule(0); }}\n\
                 }}\n\
                 fn worker(&self) {{\n\
                     while !self.stop.load(o) {{ let _ = self.runq_rx.recv_timeout(t); }}\n\
                 }}\n\
                 fn timer(&self, slot: &Slot) {{\n\
                     while !self.stop.load(o) {{\n\
                         let due = slot.deadline_us.load(o);\n\
                         let _ = slot.deadline_us.compare_exchange(due, x, o, o);\n\
                     }}\n\
                 }}\n\
                 fn send_cmd(&self, slot: &Slot) {{\n\
                     if slot.dead.load(o) {{ return; }}\n\
                     let _ = slot.cmd_tx.send(c);\n\
                 }}\n\
             }}\n"
        )
    }

    #[test]
    fn covered_runtime_is_clean() {
        let w = ws(&[(MODEL_FILE, &covered_runtime("", ""))]);
        let f = check(&w, &config());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn new_atomic_without_model_action_is_flagged() {
        let w = ws(&[(
            MODEL_FILE,
            &covered_runtime("paused: AtomicBool,", "slot.paused.store(true, o);"),
        )]);
        let f = check(&w, &config());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "model-drift");
        assert!(f[0].message.contains("paused.store"), "{}", f[0].message);
        assert!(f[0].message.contains("run_ready_server"));
    }

    #[test]
    fn access_outside_the_modeled_window_is_ignored() {
        // `halt` is not reachable from the entry points (the only route
        // is through `drop`, which is a barrier), so its accesses are
        // not the model's problem.
        let extra = "";
        let src = format!(
            "{}impl PoolShared {{\n\
                 fn halt(&self) {{ self.stop.store(true, o); }}\n\
             }}\n\
             impl Drop for EventedPool {{\n\
                 fn drop(&mut self) {{ self.halt(); }}\n\
             }}\n",
            covered_runtime(extra, "")
        );
        let w = ws(&[(MODEL_FILE, &src)]);
        let f = check(&w, &config());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn removed_access_makes_coverage_stale() {
        // Drop the timer fn entirely: the CAS and timer-load accesses
        // disappear, so their COVERED_ACCESSES entries go stale.
        let src = covered_runtime("", "").replace(
            "fn timer(&self, slot: &Slot) {",
            "fn timer_disabled(&self, slot: &Slot) {",
        );
        let w = ws(&[(MODEL_FILE, &src)]);
        let f = check(&w, &config());
        assert!(
            f.iter()
                .any(|x| x.message.contains("deadline_us.compare_exchange")
                    && x.message.contains("stale")),
            "{f:?}"
        );
    }

    #[test]
    fn local_variables_with_access_names_are_not_fields() {
        let src = format!(
            "{}impl PoolShared {{\n\
                 fn helper(&self) {{ let drained = Vec::new(); if drained.is_empty() {{ }} }}\n\
             }}\n",
            covered_runtime("", "self.helper();")
        );
        let w = ws(&[(MODEL_FILE, &src)]);
        let f = check(&w, &config());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn absent_model_file_is_fine() {
        let w = ws(&[("crates/mom/src/other.rs", "fn f() {}")]);
        assert!(check(&w, &config()).is_empty());
    }
}
