//! `wire-cast-truncation`: no unguarded narrowing casts on codec paths.
//!
//! `v.len() as u32` in an encoder silently truncates once the collection
//! crosses 2³² entries; the decoder then reads a *valid-looking* length
//! prefix and deserializes a structurally consistent but wrong value — the
//! worst kind of wire bug, because nothing errors. The causal-delivery
//! literature (PAPERS.md) places exactly this class of protocol-soundness
//! bug at the root of causal-delivery failures in scalable systems.
//!
//! The rule flags every `<expr> as u16` / `<expr> as u32` in non-test
//! code of the configured codec/wire paths, **unless** the enclosing
//! function already guards the narrowing: a `try_from` call or an
//! explicit `::MAX` bound check earlier in the same function body
//! suppresses the finding (`n > u16::MAX` rejects, `u32::try_from`
//! checks). Literal casts (`0 as u32`) are constant and skipped.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::tree::{enclosing_fn, fn_spans};
use crate::Finding;

/// Narrowing target types the rule cares about on the wire.
const NARROW_TARGETS: &[&str] = &["u16", "u32"];

/// Runs the rule over one in-scope file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.toks;
    let spans = fn_spans(file);
    let mut out = Vec::new();
    for i in file.non_test_indices().collect::<Vec<_>>() {
        if !toks[i].is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        // The cast must have a runtime operand: an identifier, `)` or `]`
        // directly to the left. `0 as u32` and `u16::MAX as usize` style
        // constant casts are irrelevant here.
        let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
            continue;
        };
        let operand_ok = prev.kind == TokKind::Ident || prev.is_punct(')') || prev.is_punct(']');
        if !operand_ok {
            continue;
        }
        // Guarded? `try_from` or a `::MAX` bound check earlier in the
        // enclosing fn body suppresses.
        let guarded = enclosing_fn(&spans, i)
            .and_then(|f| f.body.map(|(s, _)| s))
            .map(|body_start| {
                toks[body_start..i]
                    .iter()
                    .any(|t| t.is_ident("try_from") || t.is_ident("MAX"))
            })
            .unwrap_or(false);
        if guarded {
            continue;
        }
        out.push(Finding {
            rule: super::WIRE_CAST,
            file: file.rel.clone(),
            line: toks[i].line,
            message: format!(
                "unguarded narrowing `as {}` on a codec path silently truncates out-of-range \
                 values on the wire — use `{}::try_from(..)` (or an explicit `::MAX` bound \
                 check) so oversized input fails loudly instead of decoding wrong",
                target.text, target.text
            ),
            line_text: file.trimmed_line(toks[i].line).to_owned(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("crates/net/src/x.rs", src))
    }

    #[test]
    fn flags_len_cast() {
        let f = run("fn enc(&mut self, v: &[u8]) { self.u32(v.len() as u32); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wire-cast-truncation");
        assert!(f[0].message.contains("u32"));
    }

    #[test]
    fn try_from_guard_suppresses() {
        let f = run(
            "fn enc(&mut self, v: &[u8]) { let n = u32::try_from(v.len()).unwrap_or(u32::MAX); \
             self.u32(n); let w = v.len() as u32; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn max_bound_check_suppresses() {
        let f = run("fn dec(&mut self, n: usize) -> Result<u16> { \
             if n > u16::MAX as usize { return Err(Error::Codec); } Ok(n as u16) }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn literal_and_widening_casts_ignored() {
        let f = run("fn f(x: u8) -> usize { let a = 0 as u32; let b = x as usize; b }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_must_precede_the_cast() {
        let f = run("fn f(n: usize) -> u16 { let x = n as u16; let _ = u16::try_from(n); x }");
        assert_eq!(f.len(), 1, "guard after the cast does not help");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run("#[cfg(test)]\nmod t { fn f(n: usize) -> u16 { n as u16 } }");
        assert!(f.is_empty(), "{f:?}");
    }
}
