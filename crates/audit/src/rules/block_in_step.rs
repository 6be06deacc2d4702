//! `block-in-step`: the batched server step must never block.
//!
//! PR 2's group-commit pipeline made one server turn a *batch*: drain the
//! inbox, process, react, flush, one `StableStore::put` per turn. The
//! whole latency story (paper §6, Fig. 11) rests on that turn being
//! CPU-bound — a `thread::sleep`, a blocking `recv` or a thread `join`
//! anywhere in the step's call tree stalls *every* channel hosted by the
//! server and, transitively, every peer waiting on its acknowledgements.
//! PR 3's `lock-across-send` caught one member of this family (a lock
//! guard held across a send); this rule generalizes it to arbitrary
//! blocking calls, using the intra-workspace call graph.
//!
//! Mechanically: starting from the configured step entry points
//! (`on_datagram_batch`, `on_tick`, `client_send_with`, ...), compute the
//! forward closure over [`CallGraph`] callee edges, then scan the body of
//! every reachable function in the step scope for `.await` and for calls
//! of configured blocking names (`sleep`, `recv`, `recv_timeout`,
//! `park`, ...). The scope deliberately excludes the transport endpoints
//! and the runtime's own thread shell — those *own* their blocking; the
//! deterministic core must not.

use std::collections::BTreeSet;

use crate::source::SourceFile;
use crate::tree::{fn_spans, CallGraph};
use crate::{Config, Finding, Workspace};

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let in_scope: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| config.step_scopes.iter().any(|s| f.rel.starts_with(s)))
        .collect();
    let graph = CallGraph::build(in_scope.iter().copied());
    // Per-entry forward closures, so diagnostics can name the entry point
    // whose call tree contains the blocking call.
    let closures: Vec<(&'static str, BTreeSet<String>)> = config
        .step_entries
        .iter()
        .map(|e| (*e, graph.reachable_from(&[e])))
        .collect();
    let reachable: BTreeSet<&String> = closures.iter().flat_map(|(_, s)| s.iter()).collect();

    let mut out = Vec::new();
    for file in &in_scope {
        let toks = &file.toks;
        for span in fn_spans(file) {
            if span.is_test || !reachable.contains(&span.name) {
                continue;
            }
            let Some((bs, be)) = span.body else { continue };
            let entry = closures
                .iter()
                .find(|(_, set)| set.contains(&span.name))
                .map(|(e, _)| *e)
                .unwrap_or("<step>");
            for i in bs..be.min(toks.len()) {
                if file.test_mask.get(i).copied().unwrap_or(false) {
                    continue;
                }
                // `.await` inside the step.
                if toks[i].is_ident("await") && i > 0 && toks[i - 1].is_punct('.') {
                    out.push(blocking_finding(
                        file,
                        toks[i].line,
                        "await",
                        &span.name,
                        entry,
                    ));
                    continue;
                }
                // A call of a configured blocking name.
                if config.step_blocking.iter().any(|b| toks[i].is_ident(b))
                    && toks.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false)
                    && !(i > 0 && toks[i - 1].is_punct('!'))
                {
                    out.push(blocking_finding(
                        file,
                        toks[i].line,
                        &toks[i].text,
                        &span.name,
                        entry,
                    ));
                }
            }
        }
    }
    out
}

fn blocking_finding(file: &SourceFile, line: u32, what: &str, in_fn: &str, entry: &str) -> Finding {
    Finding {
        rule: super::BLOCK_IN_STEP,
        file: file.rel.clone(),
        line,
        message: format!(
            "blocking `{what}` in `{in_fn}`, reachable from server-step entry `{entry}` — \
             the batched step must stay CPU-bound or one stalled call delays every channel \
             on this server (group-commit latency argument, DESIGN.md §9)"
        ),
        line_text: file.trimmed_line(line).to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_files(
            files
                .iter()
                .map(|(r, t)| ((*r).to_owned(), (*t).to_owned()))
                .collect(),
        )
    }

    #[test]
    fn sleep_reachable_from_step_is_flagged() {
        let w = ws(&[(
            "crates/mom/src/server.rs",
            "fn on_datagram_batch(&mut self) { self.helper(); }\n\
             fn helper(&mut self) { std::thread::sleep(d); }",
        )]);
        let f = check(&w, &Config::for_aaa_workspace());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sleep"));
        assert!(f[0].message.contains("on_datagram_batch"));
    }

    #[test]
    fn await_in_step_is_flagged() {
        let w = ws(&[(
            "crates/mom/src/server.rs",
            "fn on_tick(&mut self) { self.fut.await; }",
        )]);
        let f = check(&w, &Config::for_aaa_workspace());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("await"));
    }

    #[test]
    fn blocking_outside_the_step_tree_is_fine() {
        let w = ws(&[(
            "crates/mom/src/server.rs",
            "fn on_tick(&mut self) { self.work(); }\n\
             fn unrelated(&mut self) { std::thread::sleep(d); }",
        )]);
        let f = check(&w, &Config::for_aaa_workspace());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_files_are_exempt() {
        let w = ws(&[(
            "crates/net/src/mux.rs",
            "fn on_tick(&mut self) { std::thread::sleep(d); }",
        )]);
        let f = check(&w, &Config::for_aaa_workspace());
        assert!(f.is_empty(), "{f:?}");
    }
}
