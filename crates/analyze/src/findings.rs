//! Findings: what a lint reports, how it is fingerprinted for the
//! baseline, and how it renders as text or JSON.

use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`panic-path`, `arith-overflow`, `metric-name`,
    /// `index-hot-path`, `bad-allow`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Trimmed source line, for context and fingerprinting.
    pub snippet: String,
    /// Stable fingerprint: `rule:path:hash(snippet):occurrence`.
    ///
    /// Line numbers are deliberately excluded so unrelated edits above a
    /// finding do not invalidate the baseline; the occurrence index
    /// disambiguates identical snippets in one file.
    pub key: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// FNV-1a, enough for snippet fingerprints.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assign fingerprint keys to a batch of findings (call once per run,
/// after all lints, so occurrence indices are deterministic).
pub fn assign_keys(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    let mut seen: std::collections::HashMap<(String, String, u64), u32> =
        std::collections::HashMap::new();
    for f in findings.iter_mut() {
        let h = fnv1a(&normalize(&f.snippet));
        let n = seen
            .entry((f.rule.to_string(), f.path.clone(), h))
            .or_insert(0);
        f.key = format!("{}:{}:{:016x}:{}", f.rule, f.path, h, n);
        *n += 1;
    }
}

/// Whitespace-insensitive snippet normalization, so re-indenting a line
/// does not produce a "new" finding.
fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Escape a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a deterministic JSON document.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}{}\n",
            json_escape(&f.key),
            f.rule,
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            json_escape(&f.snippet),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, path: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            message: "m".into(),
            snippet: snippet.into(),
            key: String::new(),
        }
    }

    #[test]
    fn keys_are_stable_under_line_drift_and_reindent() {
        let mut a = vec![f("panic-path", "x.rs", 10, "a.unwrap();")];
        let mut b = vec![f("panic-path", "x.rs", 99, "    a.unwrap();")];
        assign_keys(&mut a);
        assign_keys(&mut b);
        assert_eq!(a[0].key, b[0].key);
    }

    #[test]
    fn duplicate_snippets_get_distinct_keys() {
        let mut v = vec![
            f("panic-path", "x.rs", 1, "a.unwrap();"),
            f("panic-path", "x.rs", 5, "a.unwrap();"),
        ];
        assign_keys(&mut v);
        assert_ne!(v[0].key, v[1].key);
        assert!(v[0].key.ends_with(":0"));
        assert!(v[1].key.ends_with(":1"));
    }

    #[test]
    fn json_round_trips_through_the_telemetry_parser() {
        let mut v = vec![f("metric-name", "y.rs", 3, "\"cuart.x\"")];
        assign_keys(&mut v);
        let doc = cuart_telemetry::json::parse(&to_json(&v)).unwrap();
        let arr = doc.get("findings").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("rule").and_then(|r| r.as_str()),
            Some("metric-name")
        );
    }
}
