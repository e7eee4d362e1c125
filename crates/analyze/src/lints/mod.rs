//! The pluggable lint framework and the project-specific rules.
//!
//! Each rule is a [`Lint`]: per-file checks walk one token stream,
//! tree checks see the workspace root (for DESIGN.md and the generated
//! registry). Suppression
//! (`// cuart-allow: <rule> <reason>`) and the baseline are applied by
//! the driver, not the rules, so rules always report everything they see.

pub mod arith;
pub mod metrics;
pub mod panic_path;

use crate::findings::Finding;
use crate::source::SourceFile;
use std::path::Path;

/// One lint rule.
pub trait Lint {
    /// Stable rule id, usable in `cuart-allow:` comments.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn describe(&self) -> &'static str;
    /// Per-file check.
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}
    /// Whole-tree check against the workspace `root` (registry/docs
    /// consistency).
    fn check_tree(&self, _root: &Path, _out: &mut Vec<Finding>) {}
}

/// The full rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(panic_path::PanicPath),
        Box::new(panic_path::IndexHotPath),
        Box::new(arith::ArithOverflow),
        Box::new(metrics::MetricName),
        Box::new(metrics::SpanName),
        Box::new(metrics::MetricRegistry),
        Box::new(BadAllow),
    ]
}

/// Every valid rule id (for `bad-allow`'s unknown-rule check).
pub fn rule_ids() -> Vec<&'static str> {
    all_rules().iter().map(|r| r.id()).collect()
}

/// `bad-allow`: a `cuart-allow` comment that cannot work — missing rule
/// id, missing reason, or naming a rule that does not exist. Suppression
/// must stay auditable, so broken suppressions are findings themselves.
pub struct BadAllow;

impl Lint for BadAllow {
    fn id(&self) -> &'static str {
        "bad-allow"
    }
    fn describe(&self) -> &'static str {
        "cuart-allow comments must name a known rule and carry a reason"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for &line in &file.malformed_allows {
            out.push(Finding {
                rule: self.id(),
                path: file.rel_path.clone(),
                line,
                message: "malformed cuart-allow: expected `// cuart-allow: <rule> <reason>`"
                    .to_string(),
                snippet: file.line_text(line).to_string(),
                key: String::new(),
            });
        }
        let known = rule_ids();
        for (line, rule) in file.allow_rules() {
            if !known.contains(&rule) {
                out.push(Finding {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line,
                    message: format!("cuart-allow names unknown rule `{rule}`"),
                    snippet: file.line_text(line).to_string(),
                    key: String::new(),
                });
            }
        }
    }
}
