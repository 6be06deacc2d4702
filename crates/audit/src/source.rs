//! A lexed workspace source file, with test-region and escape-hatch
//! bookkeeping shared by every rule.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, TokKind};

/// One source file, lexed and annotated.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Raw file contents.
    pub text: String,
    /// Token stream with comments removed (what rules scan).
    pub toks: Vec<Tok>,
    /// `test_mask[i]` is `true` when `toks[i]` lies inside a
    /// `#[cfg(test)]` / `#[test]` / `#[bench]`-gated item.
    pub test_mask: Vec<bool>,
    /// Lines on which `// audit:allow(rule)` comments grant suppression:
    /// line number → set of rule ids allowed there.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
}

impl SourceFile {
    /// Lexes and annotates `text`.
    pub fn parse(rel: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let text = text.into();
        let all = lex(&text);
        let mut toks = Vec::with_capacity(all.len());
        let mut allows: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for t in all {
            if t.kind == TokKind::Comment {
                for rule in parse_allow_rules(&t.text) {
                    // The escape covers the comment's own line(s) and the
                    // line right after it (a comment above the flagged
                    // statement).
                    for line in t.line..=t.end_line.saturating_add(1) {
                        allows.entry(line).or_default().insert(rule.clone());
                    }
                }
            } else {
                toks.push(t);
            }
        }
        let test_mask = compute_test_mask(&toks);
        SourceFile {
            rel: rel.into(),
            text,
            toks,
            test_mask,
            allows,
        }
    }

    /// The trimmed source text of 1-based `line` (empty if out of range).
    pub fn trimmed_line(&self, line: u32) -> &str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(str::trim)
            .unwrap_or("")
    }

    /// `true` if an inline `// audit:allow(rule)` escape covers `line`.
    pub fn is_allowed_inline(&self, line: u32, rule: &str) -> bool {
        self.allows
            .get(&line)
            .map(|set| set.contains(rule) || set.contains("all"))
            .unwrap_or(false)
    }

    /// Iterator over indices of non-test tokens.
    pub fn non_test_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.toks.len()).filter(move |&i| !self.test_mask[i])
    }
}

/// Extracts rule ids from every `audit:allow(a, b)` marker in a comment.
fn parse_allow_rules(comment: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("audit:allow(") {
        rest = &rest[at + "audit:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        for part in rest[..close].split(',') {
            let part = part.trim();
            if !part.is_empty() {
                rules.push(part.to_owned());
            }
        }
        rest = &rest[close + 1..];
    }
    rules
}

/// Marks token ranges covered by test-gated items.
///
/// An item is test-gated when an attribute `#[...]` immediately preceding
/// it contains the identifier `test` or `bench` (covers `#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, ...))]`, `#[bench]`). The gated range
/// runs from the attribute through the end of the item: its brace-matched
/// `{ ... }` block or the first top-level `;`, whichever comes first — and
/// never past the `}` that closes the enclosing block, so a gated last
/// field of a struct or struct literal does not swallow the code after it.
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let attr_start = i;
            let Some(attr_end) = match_bracket(toks, i + 1) else {
                break;
            };
            let gated = toks[i + 2..attr_end]
                .iter()
                .any(|t| t.is_ident("test") || t.is_ident("bench"));
            i = attr_end + 1;
            if !gated {
                continue;
            }
            // Skip further stacked attributes.
            while i + 1 < toks.len() && toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
                match match_bracket(toks, i + 1) {
                    Some(end) => i = end + 1,
                    None => break,
                }
            }
            // Find the item end: first `;` at depth 0, the close of the
            // first `{ ... }` block, or just before an unmatched `}`.
            let mut j = i;
            let mut depth_paren = 0i32;
            let mut depth_bracket = 0i32;
            let item_end = loop {
                if j >= toks.len() {
                    break toks.len().saturating_sub(1);
                }
                let t = &toks[j];
                if t.is_punct('(') {
                    depth_paren += 1;
                } else if t.is_punct(')') {
                    depth_paren -= 1;
                } else if t.is_punct('[') {
                    depth_bracket += 1;
                } else if t.is_punct(']') {
                    depth_bracket -= 1;
                } else if t.is_punct(';') && depth_paren <= 0 && depth_bracket <= 0 {
                    break j;
                } else if t.is_punct('{') {
                    break match_brace(toks, j).unwrap_or(toks.len() - 1);
                } else if t.is_punct('}') {
                    break j.saturating_sub(1);
                }
                j += 1;
            };
            for m in mask
                .iter_mut()
                .take((item_end + 1).min(toks.len()))
                .skip(attr_start)
            {
                *m = true;
            }
            i = item_end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Given `toks[open]` == `[`, returns the index of the matching `]`.
pub fn match_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Given `toks[open]` == `{`, returns the index of the matching `}`.
pub fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Finds every `fn <name>` in the file and returns the union of the token
/// index ranges of their bodies (inclusive start, exclusive end).
pub fn fn_bodies(file: &SourceFile, name: &str) -> Vec<(usize, usize)> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].is_ident(name) {
            // Scan forward to the body's opening brace.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let end = match_brace(toks, j).unwrap_or(toks.len() - 1);
                out.push((j, end + 1));
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_comment_grants_current_and_next_line() {
        let f = SourceFile::parse(
            "x.rs",
            "// audit:allow(panic-freedom)\nfoo();\nbar(); // audit:allow(determinism)\n",
        );
        assert!(f.is_allowed_inline(1, "panic-freedom"));
        assert!(f.is_allowed_inline(2, "panic-freedom"));
        assert!(!f.is_allowed_inline(3, "panic-freedom"));
        assert!(f.is_allowed_inline(3, "determinism"));
        assert!(f.is_allowed_inline(4, "determinism"));
    }

    #[test]
    fn allow_comment_multiple_rules() {
        let f = SourceFile::parse("x.rs", "// audit:allow(a, b)\nz();\n");
        assert!(f.is_allowed_inline(2, "a"));
        assert!(f.is_allowed_inline(2, "b"));
        assert!(!f.is_allowed_inline(2, "c"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = r#"
fn live() { x.unwrap(); }

#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
}
"#;
        let f = SourceFile::parse("x.rs", src);
        let live: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(live, vec![false, true]);
    }

    #[test]
    fn test_attribute_masks_single_fn() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn live() { b.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let masked: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(masked, vec![true, false]);
    }

    #[test]
    fn cfg_test_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse crate::tests::helper;\nfn live() { c.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let masked: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(masked, vec![false]);
    }

    #[test]
    fn gated_last_field_ends_with_its_block() {
        let src = "struct S {\n    live: u8,\n    #[cfg(test)]\n    seam: bool,\n}\n\
                   impl S { fn f() { e.unwrap(); } }\n\
                   fn g() -> S { S { live: 0, #[cfg(test)] seam: false } }\n\
                   fn h() { k.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let masked: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap") || t.is_ident("seam"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(masked, vec![true, false, true, false]);
    }

    #[test]
    fn derive_attribute_is_not_a_test_gate() {
        let src = "#[derive(Debug)]\nstruct S;\nfn live() { d.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let masked: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(masked, vec![false]);
    }

    #[test]
    fn fn_bodies_finds_braced_ranges() {
        let src = "fn a() -> u8 { 1 }\nfn b();\nimpl X { fn a(&self) { inner() } }\n";
        let f = SourceFile::parse("x.rs", src);
        let bodies = fn_bodies(&f, "a");
        assert_eq!(bodies.len(), 2);
        for (s, e) in bodies {
            assert!(f.toks[s].is_punct('{'));
            assert!(f.toks[e - 1].is_punct('}'));
        }
        assert!(fn_bodies(&f, "b").is_empty());
    }
}
