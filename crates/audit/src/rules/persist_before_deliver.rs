//! `persist-before-deliver`: recovery-critical delivery effects must be
//! dominated by a stable-store write.
//!
//! The paper's recovery story (§5) assumes the causal state a server
//! reloads after a crash agrees with what its peers observed: once a
//! message is *delivered* (the clock engine's `DELIV` row advances) or an
//! ack is *consumed* (a link's retransmission buffer releases the frames a
//! cumulative ack covers, `on_ack`), that transition must be
//! reconstructible from disk. A delivery that mutates
//! only in-memory clock state before anything reaches the
//! [`StableStore`](../../../storage) is exactly-once on the happy path
//! and at-least-twice after recovery — the peer's matrix says the message
//! is consumed, the reloaded server's says it is not, and the redelivery
//! is a causal-order violation the EngineModel (crate::interleave) would
//! flag if it could see the crash.
//!
//! The rule reuses the `stamp-flow` dominance machinery: every
//! `.deliver(from, pending)` / `.on_ack(from)` / `.ack_up_to(..)` call
//! site on the configured mom/storage paths must have a dominating
//! persistence call — the enclosing function, one of its transitive
//! callees, or one of its transitive callers must reach the effect's seed
//! (`Config::persist_seeds`): the image `put` for clock deliveries, the
//! journal `sync` for relay ack commits. Batched group-commit is fine
//! (the commit happens in the caller that drains the batch); a delivery
//! path with *no* persistence anywhere in its cone is not. Deliberate
//! volatile paths (pure-simulation harnesses) justify themselves with
//! `// audit:allow(persist-before-deliver)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::tree::{arg_count, enclosing_fn, fn_spans, CallGraph};
use crate::{Config, Finding, Workspace};

/// Delivery-effect method names with the argument counts that make them
/// the protocol call (distinguishing `CausalState::deliver(from,
/// pending)` from e.g. a one-argument queue `deliver`).
const DELIVER_METHODS: &[(&str, usize)] = &[
    ("deliver", 2),
    ("on_ack", 1),
    // The relay's ack commit, on a queue (`upto`) or a journal stream
    // (`stream, upto`): releasing a subscriber's prefix is
    // recovery-critical exactly like a clock-engine delivery — an ack
    // consumed only in memory is re-offered after recovery and the
    // subscriber sees the window twice.
    ("ack_up_to", 1),
    ("ack_up_to", 2),
];

/// The functions a persistence seed starts from. A bare seed is a
/// function name. A `receiver.method` seed is every non-test function
/// that calls `method` on a receiver spelled `receiver`: the commit
/// *site*, which a same-named method elsewhere cannot stand in for in the
/// name-merged call graph.
fn seed_fns(files: &[&SourceFile], seed: &str) -> BTreeSet<String> {
    let Some((recv, method)) = seed.split_once('.') else {
        return BTreeSet::from([seed.to_owned()]);
    };
    let mut fns = BTreeSet::new();
    for file in files {
        let toks = &file.toks;
        let spans = fn_spans(file);
        for i in file.non_test_indices() {
            let site = toks[i].is_ident(recv)
                && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 2).is_some_and(|t| t.is_ident(method))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('('));
            if let Some(f) = site.then(|| enclosing_fn(&spans, i)).flatten() {
                fns.insert(f.name.clone());
            }
        }
    }
    fns
}

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let in_scope: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| config.persist_scopes.iter().any(|s| f.rel.starts_with(s)))
        .collect();
    let graph = CallGraph::build(in_scope.iter().copied());
    // Per seed, the functions it starts from and those that
    // (transitively) reach them. The delivery-method names are barriers
    // for the same reason as in `stamp-flow`: a workspace `fn deliver`
    // that itself persists must not make every raw `.deliver(..)` site
    // look covered through the simple-name merge.
    let deliver_names: Vec<&str> = DELIVER_METHODS.iter().map(|(m, _)| *m).collect();
    let persisting: BTreeMap<&str, (BTreeSet<String>, BTreeSet<String>)> = config
        .persist_seeds
        .iter()
        .map(|&(_, seed)| {
            let base = seed_fns(&in_scope, seed);
            let names: Vec<&str> = base.iter().map(String::as_str).collect();
            let reaching = graph.reaching_excluding(&names, &deliver_names);
            (seed, (base, reaching))
        })
        .collect();
    let no_seed = (BTreeSet::new(), BTreeSet::new());

    let mut out = Vec::new();
    for file in &in_scope {
        let toks = &file.toks;
        let spans = fn_spans(file);
        for i in file.non_test_indices().collect::<Vec<_>>() {
            if !toks[i].is_punct('.') {
                continue;
            }
            let Some(name_tok) = toks.get(i + 1) else {
                continue;
            };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            if !toks.get(i + 2).map(|t| t.is_punct('(')).unwrap_or(false) {
                continue;
            }
            let args = arg_count(toks, i + 2);
            if !DELIVER_METHODS
                .iter()
                .any(|&(m, n)| name_tok.is_ident(m) && args == Some(n))
            {
                continue;
            }
            let seed = config
                .persist_seeds
                .iter()
                .find(|(m, _)| name_tok.is_ident(m))
                .map_or("put", |&(_, seed)| seed);
            let (base, persisting) = persisting.get(seed).unwrap_or(&no_seed);
            // The seed's own functions never cover as *callers*: in the
            // name-merged graph a commit routine can look like a
            // transitive caller of almost anything, but it dominates an
            // effect only by being reached, not by reaching it.
            let covered = match enclosing_fn(&spans, i + 1) {
                Some(f) => {
                    persisting.contains(&f.name)
                        || graph
                            .transitive_callers(&f.name)
                            .iter()
                            .any(|c| !base.contains(c) && persisting.contains(c))
                }
                None => false,
            };
            if covered {
                continue;
            }
            let enclosing = enclosing_fn(&spans, i + 1)
                .map(|f| format!("`{}`", f.name))
                .unwrap_or_else(|| "<no enclosing fn>".to_owned());
            out.push(Finding {
                rule: super::PERSIST_BEFORE_DELIVER,
                file: file.rel.clone(),
                line: name_tok.line,
                message: format!(
                    "`.{}(..)` advances recovery-critical delivery state from {enclosing} with \
                     no dominating `{}` in this function, its callees or its callers — after a \
                     crash the reloaded state disagrees with the peers' and redelivery breaks \
                     exactly-once; route the effect through the persistence path or justify a \
                     volatile path inline",
                    name_tok.text, seed
                ),
                line_text: file.trimmed_line(name_tok.line).to_owned(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn undominated_deliver_is_flagged() {
        let w = ws(&[(
            "crates/mom/src/x.rs",
            "fn volatile(&mut self) { self.clock.deliver(from, &pending); }",
        )]);
        let f = check(&w, &config());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "persist-before-deliver");
        assert!(f[0].message.contains("volatile"));
    }

    #[test]
    fn persistence_in_same_fn_covers() {
        let w = ws(&[(
            "crates/mom/src/x.rs",
            "fn commit(&mut self) { self.store.put(key, bytes); self.clock.deliver(from, &pending); }",
        )]);
        assert!(check(&w, &config()).is_empty());
    }

    #[test]
    fn persistence_in_caller_covers_group_commit() {
        let w = ws(&[(
            "crates/mom/src/x.rs",
            "fn pump(&mut self) { self.clock.deliver(from, &pending); }\n\
             fn step(&mut self) { self.store.put(key, bytes); self.pump(); }",
        )]);
        assert!(check(&w, &config()).is_empty());
    }

    #[test]
    fn on_ack_needs_dominance_too() {
        let w = ws(&[(
            "crates/mom/src/x.rs",
            "fn volatile(&mut self) { self.clock.on_ack(from); }",
        )]);
        let f = check(&w, &config());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("on_ack"));
    }

    #[test]
    fn undominated_ack_up_to_is_flagged_in_relay_and_storage_scope() {
        // Sabotage: an ack commit with no persistence anywhere in its
        // cone, once on the mom path and once on the storage path.
        for rel in ["crates/mom/src/x.rs", "crates/storage/src/x.rs"] {
            let w = ws(&[(
                rel,
                "fn volatile(&mut self) { self.queue.ack_up_to(upto); }",
            )]);
            let f = check(&w, &config());
            assert_eq!(f.len(), 1, "{rel}: {f:?}");
            assert!(f[0].message.contains("ack_up_to"));
        }
    }

    #[test]
    fn the_relay_commit_covers_ack_commits_and_the_image_put_does_not() {
        let step = "fn release(&mut self) { self.journal.ack_up_to(s, upto); }\n\
                    fn commit_journal(&mut self) { relay.sync(); }\n\
                    fn step(&mut self) { r.release(a); self.commit_journal(); }";
        let w = ws(&[("crates/mom/src/x.rs", step)]);
        assert!(check(&w, &config()).is_empty());
        let put_only =
            "fn step(&mut self) { self.journal.ack_up_to(s, upto); self.store.put(k, v); }";
        let w = ws(&[("crates/mom/src/x.rs", put_only)]);
        let f = check(&w, &config());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`relay.sync`"), "{}", f[0].message);
    }

    #[test]
    fn a_same_named_sync_on_another_receiver_does_not_cover() {
        // A single-stream queue syncing its own journal after every
        // operation is not the relay's commit point, though its `enqueue`
        // shares a name with the one the relay calls.
        let w = ws(&[
            (
                "crates/storage/src/q.rs",
                "fn enqueue(&mut self) { self.journal.sync(); }",
            ),
            (
                "crates/mom/src/x.rs",
                "fn release(&mut self) { self.journal.ack_up_to(s, upto); }\n\
                 fn handle(&mut self) { r.release(a); self.journal.enqueue(s, t); }",
            ),
        ]);
        let f = check(&w, &config());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("release"), "{}", f[0].message);
    }

    #[test]
    fn arity_distinguishes_other_delivers() {
        // A one-argument queue `deliver` and a three-argument helper are
        // not the causal-protocol call.
        let w = ws(&[(
            "crates/mom/src/x.rs",
            "fn f(&mut self) { self.queue.deliver(msg); self.helper.deliver(a, b, c); }",
        )]);
        assert!(check(&w, &config()).is_empty());
    }

    #[test]
    fn out_of_scope_and_test_code_are_exempt() {
        let w = ws(&[
            (
                "crates/sim/src/x.rs",
                "fn volatile(&mut self) { self.clock.deliver(from, &pending); }",
            ),
            (
                "crates/mom/src/y.rs",
                "#[cfg(test)]\nmod t { fn f(c: &mut C) { c.deliver(from, &pending); } }",
            ),
        ]);
        assert!(check(&w, &config()).is_empty());
    }
}
