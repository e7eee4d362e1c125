//! `metric-name`, `span-name`, `metric-registry`: every series/span name
//! flows through the generated registry, and docs cannot drift from it.
//!
//! * `metric-name` — a `"cuart.*"` / `"grt.*"` string literal outside
//!   the registry and outside tests must be replaced by its
//!   `cuart_telemetry::names::*` constant.
//! * `span-name` — `SpanNode::leaf("…")` / `SpanNode::node("…")` with a
//!   literal name must use `names::spans::*`; unknown span names are
//!   flagged even when constants are used elsewhere.
//! * `metric-registry` — `crates/telemetry/src/names.rs` must be exactly
//!   what `--emit-registry` generates, and the DESIGN.md §6 metric table
//!   (between the `<!-- analyze:metric-table -->` markers) must be
//!   exactly what `--emit-design-table` generates; every registered span
//!   name must appear in DESIGN.md §6.1.

use super::Lint;
use crate::findings::Finding;
use crate::registry;
use crate::source::{SourceFile, Tier};
use std::path::Path;

/// Does a string literal look like a series name? Namespace prefix plus
/// at least one further dotted segment of metric-ish characters.
fn looks_like_metric(s: &str) -> bool {
    let rest = s.strip_prefix("cuart.").or_else(|| s.strip_prefix("grt."));
    match rest {
        Some(r) => {
            !r.is_empty()
                && r.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
        }
        None => false,
    }
}

pub struct MetricName;

impl Lint for MetricName {
    fn id(&self) -> &'static str {
        "metric-name"
    }
    fn describe(&self) -> &'static str {
        "cuart.*/grt.* series names must come from the generated registry"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.tier == Tier::Skip || file.rel_path.starts_with("crates/analyze/") {
            return;
        }
        for (_, t) in file.code_tokens() {
            if file.in_test_code(t.start) {
                continue;
            }
            let Some(s) = t.str_lit() else { continue };
            if !looks_like_metric(s) {
                continue;
            }
            let known = registry::METRICS.iter().find(|m| m.name == s);
            let message = match known {
                Some(m) => format!(
                    "metric name literal \"{s}\": use `cuart_telemetry::names::{}`",
                    m.konst
                ),
                None => format!(
                    "unregistered series name literal \"{s}\": add it to \
                     crates/analyze/src/registry.rs and regenerate"
                ),
            };
            out.push(Finding {
                rule: "metric-name",
                path: file.rel_path.clone(),
                line: t.line,
                message,
                snippet: file.line_text(t.line).to_string(),
                key: String::new(),
            });
        }
    }
}

pub struct SpanName;

impl Lint for SpanName {
    fn id(&self) -> &'static str {
        "span-name"
    }
    fn describe(&self) -> &'static str {
        "SpanNode names must come from the registry's spans module"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        // The tracing module itself and tests may spell names out.
        if file.tier == Tier::Skip
            || file.rel_path.starts_with("crates/analyze/")
            || file.rel_path == "crates/telemetry/src/tracing.rs"
        {
            return;
        }
        let toks: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in toks.iter().enumerate() {
            // Pattern: `SpanNode :: (leaf|node) ( "…"`.
            if !matches!(t.ident(), Some("leaf" | "node")) {
                continue;
            }
            if !(i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].ident() == Some("SpanNode")
                && toks.get(i + 1).is_some_and(|p| p.is_punct("(")))
            {
                continue;
            }
            let Some(name_tok) = toks.get(i + 2) else {
                continue;
            };
            let Some(s) = name_tok.str_lit() else {
                continue; // a constant or expression — fine
            };
            if file.in_test_code(t.start) {
                continue;
            }
            let known = registry::SPANS.iter().find(|d| d.name == s);
            let message = match known {
                Some(d) => format!(
                    "span name literal \"{s}\": use `cuart_telemetry::names::spans::{}`",
                    d.konst
                ),
                None => format!(
                    "unregistered span name \"{s}\": add it to \
                     crates/analyze/src/registry.rs and regenerate"
                ),
            };
            out.push(Finding {
                rule: "span-name",
                path: file.rel_path.clone(),
                line: name_tok.line,
                message,
                snippet: file.line_text(name_tok.line).to_string(),
                key: String::new(),
            });
        }
    }
}

/// Markers bracketing the generated metric table in DESIGN.md.
pub const TABLE_BEGIN: &str = "<!-- analyze:metric-table:begin -->";
pub const TABLE_END: &str = "<!-- analyze:metric-table:end -->";

pub struct MetricRegistry;

impl MetricRegistry {
    fn finding(path: &str, message: String) -> Finding {
        Finding {
            rule: "metric-registry",
            path: path.to_string(),
            line: 1,
            message,
            snippet: String::new(),
            key: String::new(),
        }
    }
}

impl Lint for MetricRegistry {
    fn id(&self) -> &'static str {
        "metric-registry"
    }
    fn describe(&self) -> &'static str {
        "generated registry and DESIGN.md metric/span tables match the catalog"
    }

    fn check_tree(&self, root: &Path, out: &mut Vec<Finding>) {
        // 1. The generated registry module is current.
        let names_path = root.join("crates/telemetry/src/names.rs");
        match std::fs::read_to_string(&names_path) {
            Ok(actual) => {
                if actual != registry::generate_names_rs() {
                    out.push(Self::finding(
                        "crates/telemetry/src/names.rs",
                        "generated registry is stale: run \
                         `cargo run -p cuart-analyze -- --emit-registry`"
                            .to_string(),
                    ));
                }
            }
            Err(e) => out.push(Self::finding(
                "crates/telemetry/src/names.rs",
                format!("cannot read generated registry: {e}"),
            )),
        }

        // 2. The DESIGN.md metric table is current, and every span name
        //    is documented.
        let design_path = root.join("DESIGN.md");
        let design = match std::fs::read_to_string(&design_path) {
            Ok(d) => d,
            Err(e) => {
                out.push(Self::finding("DESIGN.md", format!("cannot read: {e}")));
                return;
            }
        };
        match extract_between(&design, TABLE_BEGIN, TABLE_END) {
            Some(block) => {
                if block.trim() != registry::generate_metric_table().trim() {
                    out.push(Self::finding(
                        "DESIGN.md",
                        "metric table drifted from the registry: run \
                         `cargo run -p cuart-analyze -- --emit-design-table`"
                            .to_string(),
                    ));
                }
            }
            None => out.push(Self::finding(
                "DESIGN.md",
                format!("missing metric-table markers {TABLE_BEGIN} … {TABLE_END}"),
            )),
        }
        for s in registry::SPANS {
            if !design.contains(&format!("`{}`", s.name)) {
                out.push(Self::finding(
                    "DESIGN.md",
                    format!("span `{}` is registered but undocumented in §6.1", s.name),
                ));
            }
        }
    }
}

fn extract_between<'a>(text: &'a str, begin: &str, end: &str) -> Option<&'a str> {
    let b = text.find(begin)? + begin.len();
    let e = text[b..].find(end)? + b;
    Some(&text[b..e])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceFile, Tier};

    fn run(rule: &dyn Lint, path: &str, text: &str, tier: Tier) -> Vec<Finding> {
        let f = SourceFile::from_text(path.into(), text.into(), tier);
        let mut out = Vec::new();
        rule.check_file(&f, &mut out);
        out
    }

    #[test]
    fn literal_metric_names_are_flagged_with_their_const() {
        let text = r#"fn f(t: &T) { t.incr("cuart.lookup.batches", 1); t.incr("cuart.not.registered", 1); }"#;
        let out = run(&MetricName, "crates/core/src/api.rs", text, Tier::Lib);
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out[0].message.contains("names::LOOKUP_BATCHES"));
        assert!(out[1].message.contains("unregistered"));
    }

    #[test]
    fn non_metric_strings_and_tests_pass() {
        let text = r#"
fn f() -> &'static str { "cuart. is the namespace"; "cuart-analyze"; "grt" }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(x, "cuart.lookup.batches"); }
}
"#;
        let out = run(&MetricName, "crates/core/src/api.rs", text, Tier::Lib);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn span_literals_are_flagged() {
        let text = r#"
fn f() {
    let a = SpanNode::leaf("h2d", 5);
    let b = SpanNode::node("mystery.span", vec![]);
    let c = SpanNode::leaf(names::spans::D2H, 5);
}
"#;
        let out = run(&SpanName, "crates/core/src/api.rs", text, Tier::Lib);
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out[0].message.contains("spans::H2D"));
        assert!(out[1].message.contains("unregistered"));
    }

    #[test]
    fn extract_between_finds_the_block() {
        let text = "a\nBEGIN\nbody\nEND\nz";
        assert_eq!(extract_between(text, "BEGIN", "END"), Some("\nbody\n"));
        assert_eq!(extract_between(text, "NOPE", "END"), None);
    }
}
