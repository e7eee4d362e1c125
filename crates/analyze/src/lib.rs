//! `cuart-analyze`: in-tree static analysis for the CuART workspace.
//!
//! A lightweight Rust lexer ([`lexer`]) feeds a pluggable lint framework
//! ([`lints`]) with project-specific rules:
//!
//! * `panic-path` / `index-hot-path` — no panicking constructs in
//!   non-test library code (PR 2's `CuartError` discipline, enforced);
//! * `arith-overflow` — accounting arithmetic must state overflow
//!   intent (PR 8's wrapping sweep, enforced);
//! * `metric-name` / `span-name` / `metric-registry` — every series and
//!   span name flows through the generated registry
//!   (`crates/telemetry/src/names.rs`), which is cross-checked against
//!   the DESIGN.md metric table;
//! * `bad-allow` — suppressions stay auditable.
//!
//! Findings fingerprint into a committed baseline
//! (`results/analyze-baseline.json`): accepted findings pass CI, any
//! *new* finding fails it (`--baseline … --deny-new`).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod findings;
pub mod lexer;
pub mod lints;
pub mod registry;
pub mod source;

use findings::Finding;
use lints::Lint;
use source::{classify, SourceFile};
use std::path::Path;

/// Outcome of one analysis run.
pub struct Analysis {
    /// Unsuppressed findings, sorted, with fingerprint keys assigned.
    pub findings: Vec<Finding>,
    /// Findings silenced by `cuart-allow` comments.
    pub suppressed: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Analyze the workspace rooted at `root` (per-file and tree checks).
pub fn analyze_tree(root: &Path) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    for path in source::discover(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(root, &path, classify(&rel))?);
    }
    Ok(analyze_files(&files, root, true))
}

/// Analyze an in-memory file set. `tree_checks` also runs the
/// cross-file rules (registry/docs consistency).
pub fn analyze_files(files: &[SourceFile], root: &Path, tree_checks: bool) -> Analysis {
    let rules = lints::all_rules();
    let mut raw = Vec::new();
    for rule in &rules {
        for file in files {
            rule.check_file(file, &mut raw);
        }
    }
    if tree_checks {
        for rule in &rules {
            rule.check_tree(root, &mut raw);
        }
    }
    // Apply suppressions. `bad-allow` findings cannot be allowed away.
    let by_path: std::collections::HashMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let total = raw.len();
    let mut kept: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            f.rule == "bad-allow"
                || !by_path
                    .get(f.path.as_str())
                    .is_some_and(|sf| sf.is_allowed(f.rule, f.line))
        })
        .collect();
    findings::assign_keys(&mut kept);
    Analysis {
        suppressed: total - kept.len(),
        files_scanned: files.len(),
        findings: kept,
    }
}

/// Run the fixture corpus under `root/crates/analyze/fixtures`: every
/// fixture file declares a pretend workspace path and its expected
/// findings; the corpus proves each rule still fires. Returns a list of
/// mismatch descriptions (empty = pass).
pub fn check_fixtures(root: &Path) -> std::io::Result<Vec<String>> {
    let dir = root.join("crates/analyze/fixtures");
    let mut files = Vec::new();
    let mut expected: std::collections::BTreeMap<(String, String), usize> = Default::default();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)?
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        let pretend = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("// analyze-fixture-path: "))
            .map(str::trim)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: missing `// analyze-fixture-path:` header",
                        path.display()
                    ),
                )
            })?
            .to_string();
        for line in text.lines() {
            if let Some(rule) = line.trim().strip_prefix("// expect-finding: ") {
                *expected
                    .entry((pretend.clone(), rule.trim().to_string()))
                    .or_insert(0) += 1;
            }
        }
        files.push(SourceFile::from_text(
            pretend.clone(),
            text,
            classify(&pretend),
        ));
    }
    // Per-file rules run against the pretend paths; the registry/docs
    // rule is exercised separately below.
    let rules = lints::all_rules();
    let mut raw = Vec::new();
    for rule in &rules {
        for file in &files {
            rule.check_file(file, &mut raw);
        }
    }
    // Apply the same suppression semantics as a real run, so fixtures can
    // prove that documented allows are honoured (and that `bad-allow`
    // findings cannot be allowed away).
    let by_path: std::collections::HashMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    raw.retain(|f| {
        f.rule == "bad-allow"
            || !by_path
                .get(f.path.as_str())
                .is_some_and(|sf| sf.is_allowed(f.rule, f.line))
    });
    let mut got: std::collections::BTreeMap<(String, String), usize> = Default::default();
    for f in &raw {
        *got.entry((f.path.clone(), f.rule.to_string())).or_insert(0) += 1;
    }
    let mut errors = Vec::new();
    let keys: std::collections::BTreeSet<_> = expected.keys().chain(got.keys()).cloned().collect();
    for key in keys {
        let want = expected.get(&key).copied().unwrap_or(0);
        let have = got.get(&key).copied().unwrap_or(0);
        if want != have {
            errors.push(format!(
                "{} [{}]: expected {} finding(s), got {}",
                key.0, key.1, want, have
            ));
        }
    }
    // `metric-registry` fires on drift: prove it against a scratch root
    // holding a stale registry and an unmarked DESIGN.md.
    let scratch = root.join("target/analyze-fixtures-scratch");
    std::fs::create_dir_all(scratch.join("crates/telemetry/src"))?;
    std::fs::write(
        scratch.join("crates/telemetry/src/names.rs"),
        "// deliberately stale\n",
    )?;
    std::fs::write(scratch.join("DESIGN.md"), "# no markers here\n")?;
    let mut drift = Vec::new();
    lints::metrics::MetricRegistry.check_tree(&scratch, &mut drift);
    if !drift
        .iter()
        .any(|f| f.message.contains("stale") || f.message.contains("drifted"))
        || !drift.iter().any(|f| f.message.contains("markers"))
    {
        errors.push("metric-registry did not fire on a stale scratch tree".to_string());
    }
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_findings_are_counted_not_reported() {
        let files = vec![SourceFile::from_text(
            "crates/core/src/x.rs".into(),
            "// cuart-allow: panic-path documented invariant here\n\
             fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
             fn g(x: Option<u32>) -> u32 { x.unwrap() }\n"
                .into(),
            source::Tier::Lib,
        )];
        let a = analyze_files(&files, Path::new("."), false);
        assert_eq!(a.suppressed, 1);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].line, 3);
    }

    #[test]
    fn bad_allow_cannot_suppress_itself() {
        let files = vec![SourceFile::from_text(
            "crates/core/src/x.rs".into(),
            "// cuart-allow-file: bad-allow trying to silence the auditor\n\
             // cuart-allow: nonexistent-rule some reason\n\
             fn f() {}\n"
                .into(),
            source::Tier::Lib,
        )];
        let a = analyze_files(&files, Path::new("."), false);
        assert!(
            a.findings.iter().any(|f| f.rule == "bad-allow"),
            "{:#?}",
            a.findings
        );
    }
}
