//! `metric-name` / `span-name`: library code takes every series and span
//! name from `cuart_telemetry::names`, the module generated from
//! [`crate::registry`]. Clippy has no lint for this, so the scan lives
//! here and `tests/metric_registry.rs` runs it over the tree.
//!
//! * A `"cuart.…"` / `"grt.…"` string literal is a spelled-out series name.
//! * `SpanNode::leaf("…")` / `SpanNode::node("…")` is a spelled-out span
//!   name.
//!
//! The scan reads tokens, not lines: comments never fire, and a call that
//! rustfmt breaks across lines still does. It stops at a file's first
//! `#[cfg(test)]`, since tests may spell names out.

use crate::lexer::{lex, Token};
use crate::registry;
use std::io;
use std::path::{Path, PathBuf};

/// One spelled-out name: its line and what to use instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrayName {
    pub line: u32,
    pub message: String,
}

/// Does a string literal look like a series name? A namespace prefix
/// followed by a lowercase letter or a digit.
fn looks_like_metric(s: &str) -> bool {
    ["cuart.", "grt."].iter().any(|p| {
        s.strip_prefix(p)
            .and_then(|rest| rest.chars().next())
            .is_some_and(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
    })
}

/// Do the tokens from `at` spell `#[cfg(test)]`?
fn is_cfg_test(code: &[&Token], at: usize) -> bool {
    let want = ["#", "[", "cfg", "(", "test", ")", "]"];
    code.get(at..at + want.len()).is_some_and(|toks| {
        want.iter()
            .zip(toks)
            .all(|(w, t)| t.is_punct(w) || t.ident() == Some(w))
    })
}

/// Is the string literal at `at` the first argument of
/// `SpanNode::leaf(` / `SpanNode::node(`?
fn is_span_name(code: &[&Token], at: usize) -> bool {
    let call = at.checked_sub(4).and_then(|from| code.get(from..at));
    matches!(call, Some([ty, path, ctor, open])
        if ty.ident() == Some("SpanNode")
            && path.is_punct("::")
            && matches!(ctor.ident(), Some("leaf" | "node"))
            && open.is_punct("("))
}

/// Every spelled-out series or span name in `source`, in order.
pub fn stray_names(source: &str) -> Vec<StrayName> {
    let tokens = lex(source);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let end = (0..code.len())
        .find(|&at| is_cfg_test(&code, at))
        .unwrap_or(code.len());
    let mut out = Vec::new();
    for (at, t) in code.iter().enumerate().take(end) {
        let Some(s) = t.str_lit() else { continue };
        let message = if is_span_name(&code, at) {
            match registry::SPANS.iter().find(|d| d.name == s) {
                Some(d) => format!(
                    "span name literal \"{s}\": use `cuart_telemetry::names::spans::{}`",
                    d.konst
                ),
                None => format!(
                    "unregistered span name \"{s}\": add it to \
                     crates/analyze/src/registry.rs and regenerate"
                ),
            }
        } else if looks_like_metric(s) {
            match registry::METRICS.iter().find(|m| m.name == s) {
                Some(m) => format!(
                    "metric name literal \"{s}\": use `cuart_telemetry::names::{}`",
                    m.konst
                ),
                None => format!(
                    "unregistered series name literal \"{s}\": add it to \
                     crates/analyze/src/registry.rs and regenerate"
                ),
            }
        } else {
            continue;
        };
        out.push(StrayName {
            line: t.line,
            message,
        });
    }
    out
}

/// Scan every `.rs` file under `crates/*/src` of the workspace at `root`,
/// except this crate and the generated `names.rs`. Returns one
/// `path:line: message` per spelled-out name.
pub fn scan_tree(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates"))? {
        let krate = krate?.path();
        if !krate.ends_with("analyze") {
            rust_files(&krate.join("src"), &mut files)?;
        }
    }
    files.sort();
    let mut hits = Vec::new();
    for file in files
        .iter()
        .filter(|f| !f.ends_with("telemetry/src/names.rs"))
    {
        let source = std::fs::read_to_string(file)?;
        let rel = file.strip_prefix(root).unwrap_or(file).display();
        for stray in stray_names(&source) {
            hits.push(format!("{rel}:{}: {}", stray.line, stray.message));
        }
    }
    Ok(hits)
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The text between the first `begin` in `text` and the next `end`.
pub fn extract_between<'a>(text: &'a str, begin: &str, end: &str) -> Option<&'a str> {
    let b = text.find(begin)? + begin.len();
    let e = text[b..].find(end)? + b;
    Some(&text[b..e])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(out: &[StrayName]) -> Vec<u32> {
        out.iter().map(|s| s.line).collect()
    }

    #[test]
    fn literal_metric_names_are_flagged_with_their_const() {
        let text = r#"fn f(t: &T) { t.incr("cuart.lookup.batches", 1); t.incr("cuart.not.registered", 1); }
fn g(t: &T) { t.incr(names::LOOKUP_BATCHES, 1); t.gauge_set("grt.fixture.bytes", 1.0); }
"#;
        let out = stray_names(text);
        assert_eq!(lines(&out), [1, 1, 2], "{out:#?}");
        assert!(out[0].message.contains("names::LOOKUP_BATCHES"));
        assert!(out[1].message.contains("unregistered"));
        assert!(out[2].message.contains("unregistered"));
    }

    #[test]
    fn non_metric_strings_and_tests_pass() {
        let text = r#"
fn f() -> &'static str { "cuart. is the namespace"; "cuart-analyze"; "grt" }
// t.incr("cuart.in.a.line.comment", 1);
fn g(t: &T) { t.incr(names::LOOKUP_BATCHES, 1); /* "cuart.in.a.block" */ } // "cuart.trailing"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(x, "cuart.lookup.batches"); let s = SpanNode::leaf("h2d", 1); }
}
"#;
        let out = stray_names(text);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn span_literals_are_flagged() {
        let text = r#"
fn f() {
    let a = SpanNode::leaf("h2d", 5);
    let b = SpanNode::node("mystery.span", vec![]);
    let c = SpanNode::leaf(names::spans::D2H, 5);
    let d = SpanNode::leaf(
        "d2h",
        5,
    );
}
"#;
        let out = stray_names(text);
        assert_eq!(lines(&out), [3, 4, 7], "{out:#?}");
        assert!(out[0].message.contains("spans::H2D"));
        assert!(out[1].message.contains("unregistered"));
        assert!(out[2].message.contains("spans::D2H"));
    }

    #[test]
    fn extract_between_finds_the_block() {
        let text = "a\nBEGIN\nbody\nEND\nz";
        assert_eq!(extract_between(text, "BEGIN", "END"), Some("\nbody\n"));
        assert_eq!(extract_between(text, "NOPE", "END"), None);
    }
}
