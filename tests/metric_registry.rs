//! One catalog of names, everywhere. `cuart_telemetry::names` is the
//! hand-edited catalog of every series and span name. This suite checks
//! that DESIGN.md §6 documents exactly the registered series and §6.1
//! every registered span, that library code takes its names from `names`
//! rather than spelling them out, and that everything a live session and
//! a served fleet emit is registered.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::SchedulerConfig;
use cuart_host::sharded::ShardedScheduler;
use cuart_net::{NetClient, NetServer, NetServerConfig};
use cuart_telemetry::{names, Snapshot, Telemetry};
use cuart_workloads::uniform_keys;
use std::collections::BTreeSet;
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root")
        .to_path_buf()
}

fn instrumented_index(n: usize) -> (CuartIndex, Vec<Vec<u8>>, Arc<Telemetry>) {
    let keys = uniform_keys(n, 8, 42);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    let telemetry = Arc::new(Telemetry::new());
    let index =
        CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(telemetry.clone());
    (index, keys, telemetry)
}

/// Every counter, gauge, histogram and span in `snap` is registered.
fn assert_only_registered(snap: &Snapshot) {
    assert!(!snap.counters.is_empty(), "the run must emit counters");
    for name in snap.counters.keys() {
        assert!(names::is_registered(name), "unregistered counter `{name}`");
    }
    for name in snap.gauges.keys() {
        assert!(names::is_registered(name), "unregistered gauge `{name}`");
    }
    for name in snap.histograms.keys() {
        assert!(
            names::is_registered(name),
            "unregistered histogram `{name}`"
        );
    }
    assert!(!snap.spans.is_empty(), "the run must emit spans");
    for span in &snap.spans {
        assert!(
            names::spans::ALL_SPANS.contains(&span.name.as_str()),
            "unregistered span `{}`",
            span.name
        );
    }
}

#[test]
fn registry_is_well_formed() {
    let namespaces = ["cuart.", "grt.", "sched."];
    let mut seen = BTreeSet::new();
    for name in names::ALL_METRICS {
        assert!(
            namespaces.iter().any(|ns| name.starts_with(ns)),
            "registered series `{name}` outside the known namespaces"
        );
        assert!(seen.insert(*name), "duplicate registered series `{name}`");
    }
    let mut seen = BTreeSet::new();
    for span in names::spans::ALL_SPANS {
        assert!(seen.insert(*span), "duplicate registered span `{span}`");
    }
    for prefix in names::METRIC_PREFIXES {
        assert!(
            namespaces.iter().any(|ns| prefix.starts_with(ns)),
            "prefix `{prefix}` unscoped"
        );
        assert!(prefix.ends_with('.'), "prefix `{prefix}` must end in `.`");
        // A prefix alone is not a series name.
        assert!(!names::is_registered(prefix));
    }
}

#[test]
fn live_snapshot_emits_only_registered_names() {
    let (index, keys, telemetry) = instrumented_index(3000);
    let dev = devices::a100();
    let mut session = index.device_session(&dev);
    session.lookup_batch(&keys[..1024]).unwrap();
    let updates: Vec<(Vec<u8>, u64)> = keys[..512].iter().map(|k| (k.clone(), 7)).collect();
    session.update_batch(&updates).unwrap();
    let fresh: Vec<(Vec<u8>, u64)> = uniform_keys(64, 8, 4242)
        .into_iter()
        .map(|k| (k, 9))
        .collect();
    session.insert_batch(&fresh).unwrap();
    assert_only_registered(&telemetry.snapshot());
}

#[test]
fn served_snapshot_emits_only_registered_names() {
    let (index, keys, telemetry) = instrumented_index(3000);
    let devs = [devices::rtx3090(), devices::gtx1070()];
    let sharded =
        ShardedScheduler::spawn(Arc::new(index), &devs, SchedulerConfig::default()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = NetServer::serve_sharded(
        listener,
        sharded,
        Some(Arc::clone(&telemetry)),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.lookup(keys[..256].to_vec()).unwrap();
    client
        .update(keys[..64].iter().map(|k| (k.clone(), 7)).collect())
        .unwrap();
    let fresh = uniform_keys(64, 8, 4242).into_iter().map(|k| (k, 9));
    client.insert(fresh.collect()).unwrap();
    let mut sorted = keys.clone();
    sorted.sort();
    client
        .range(vec![(sorted[10].clone(), sorted[40].clone())])
        .unwrap();
    drop(client);
    server.shutdown_handle().shutdown();
    server.join().unwrap();

    let snap = telemetry.snapshot();
    assert_only_registered(&snap);
    let series: Vec<&String> = snap.counters.keys().chain(snap.gauges.keys()).collect();
    assert!(
        series
            .iter()
            .any(|n| n.starts_with(names::SCHED_SHARD_PREFIX)),
        "a 2-shard fleet must write its per-shard twins: {series:?}"
    );
    assert!(
        series.iter().any(|n| n.starts_with("cuart.net.")),
        "a served run must write `cuart.net.*` series: {series:?}"
    );
}

/// The text between the first `begin` in `text` and the next `end`.
fn between<'a>(text: &'a str, begin: &str, end: &str) -> Option<&'a str> {
    let b = text.find(begin)? + begin.len();
    let e = text[b..].find(end)? + b;
    Some(&text[b..e])
}

#[test]
fn design_md_documents_the_registry() {
    let design = fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let section = between(&design, "\n## 6. ", "\n## 7. ").expect("DESIGN.md has a §6 and a §7");
    // Every code span of §6 that names a series or a family of them.
    let spelled: Vec<&str> = section
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| s.starts_with("cuart.") || s.starts_with("grt."))
        .collect();
    for name in names::ALL_METRICS {
        assert!(
            spelled.contains(name),
            "series `{name}` is registered but not documented in DESIGN.md §6"
        );
    }
    for prefix in names::METRIC_PREFIXES {
        assert!(
            spelled
                .iter()
                .any(|s| s.len() > prefix.len() && s.starts_with(prefix)),
            "family `{prefix}` is registered but not documented in DESIGN.md §6"
        );
    }
    let registered = || names::ALL_METRICS.iter().chain(names::METRIC_PREFIXES);
    for s in spelled {
        // A family (`cuart.sched.*`, `cuart.trace.critical.<stage>`) is
        // checked by its stem, an exact name as written.
        let stem_len = s
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.'))
            .unwrap_or(s.len());
        let stem = &s[..stem_len];
        if stem_len == s.len() {
            assert!(
                names::is_registered(s),
                "DESIGN.md §6 documents `{s}`, which is not registered"
            );
        } else {
            assert!(
                registered().any(|n| n.starts_with(stem)),
                "DESIGN.md §6 documents the family `{s}`, but no registered name starts `{stem}`"
            );
        }
    }
    let spans = between(&design, "### 6.1 ", "\n## ").expect("DESIGN.md has a §6.1");
    for span in names::spans::ALL_SPANS {
        assert!(
            spans.contains(&format!("`{span}`")),
            "span `{span}` is registered but not documented in DESIGN.md §6.1"
        );
    }
}

/// Every series or span name spelled out in `source` before its first
/// `#[cfg(test)]`, outside comment lines, as `(line, message)`. A series
/// name is a `"cuart.`/`"grt.` literal followed by a lowercase letter or a
/// digit; a span name is a literal first argument of `SpanNode::leaf(` or
/// `SpanNode::node(`, also when rustfmt put it on a line of its own.
fn stray_names(source: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = source
        .lines()
        .map(|l| {
            if l.trim_start().starts_with("//") {
                ""
            } else {
                l
            }
        })
        .collect();
    let lines = lines.join("\n");
    let code = lines.split("#[cfg(test)]").next().unwrap_or(&lines);
    let mut hits = Vec::new();
    let mut flag = |at: usize, what: &str, registered: fn(&str) -> bool| {
        let name = code[at + 1..].split('"').next().unwrap_or("");
        let verdict = if registered(name) {
            "use its `cuart_telemetry::names` constant"
        } else {
            "unregistered: declare it in crates/telemetry/src/names.rs"
        };
        let line = code[..at].matches('\n').count() + 1;
        hits.push((line, format!("{what} name \"{name}\": {verdict}")));
    };
    for quote in ["\"cuart.", "\"grt."] {
        for (at, _) in code.match_indices(quote) {
            let rest = &code[at + quote.len()..];
            if rest.starts_with(|c: char| c.is_ascii_lowercase() || c.is_ascii_digit()) {
                flag(at, "series", names::is_registered);
            }
        }
    }
    for call in ["SpanNode::leaf(", "SpanNode::node("] {
        for (at, _) in code.match_indices(call) {
            let arg = code[at + call.len()..].trim_start();
            if arg.starts_with('"') {
                flag(code.len() - arg.len(), "span", |n| {
                    names::spans::ALL_SPANS.contains(&n)
                });
            }
        }
    }
    hits.sort();
    hits
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The line of every hit, in order.
fn hit_lines(hits: &[(usize, String)]) -> Vec<usize> {
    hits.iter().map(|h| h.0).collect()
}

#[test]
fn stray_name_scan_flags_series_literals() {
    let text = r#"fn f(t: &T) { t.incr("cuart.lookup.batches", 1); t.incr("cuart.not.registered", 1); }
fn g(t: &T) { t.incr(names::LOOKUP_BATCHES, 1); t.gauge_set("grt.fixture.bytes", 1.0); }
"#;
    let hits = stray_names(text);
    assert_eq!(hit_lines(&hits), [1, 1, 2], "{hits:#?}");
    assert!(hits[0].1.contains("\"cuart.lookup.batches\": use its"));
    assert!(hits[1].1.contains("unregistered"));
    assert!(hits[2].1.contains("unregistered"));
}

#[test]
fn stray_name_scan_skips_prose_comment_lines_and_tests() {
    // Comment lines and everything from `#[cfg(test)]` on never fire; a
    // comment after code on the same line does.
    let text = r#"
fn f() -> &'static str { "cuart. is the namespace"; "cuart-net"; "grt" }
// t.incr("cuart.in.a.line.comment", 1);
fn g(t: &T) { t.incr(names::LOOKUP_BATCHES, 1); /* "cuart.in.a.block" */ } // "cuart.trailing"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(x, "cuart.lookup.batches"); let s = SpanNode::leaf("h2d", 1); }
}
"#;
    let hits = stray_names(text);
    assert_eq!(hit_lines(&hits), [4, 4], "{hits:#?}");
}

#[test]
fn stray_name_scan_flags_span_literals() {
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
    let hits = stray_names(text);
    assert_eq!(hit_lines(&hits), [3, 4, 7], "{hits:#?}");
    assert!(hits[0].1.contains("\"h2d\": use its"));
    assert!(hits[1].1.contains("unregistered"));
    assert!(hits[2].1.contains("\"d2h\": use its"));
}

#[test]
fn library_code_takes_names_from_the_registry() {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        rust_files(&krate.expect("dir entry").path().join("src"), &mut files);
    }
    files.sort();
    let mut hits = Vec::new();
    for file in files
        .iter()
        .filter(|f| !f.ends_with("telemetry/src/names.rs"))
    {
        let source = fs::read_to_string(file).expect("source is readable");
        let rel = file.strip_prefix(&root).unwrap_or(file).display();
        for (line, message) in stray_names(&source) {
            hits.push(format!("{rel}:{line}: {message}"));
        }
    }
    assert!(
        hits.is_empty(),
        "use the `cuart_telemetry::names` constant; a new name is one line \
         in crates/telemetry/src/names.rs and a mention in DESIGN.md §6:\n{}",
        hits.join("\n")
    );
}

/// A catalogued name nothing writes is a series no run can show: every
/// constant the catalog declares is named by library code outside it —
/// before a file's `#[cfg(test)]`, outside comment lines.
#[test]
fn every_catalog_name_is_used_by_library_code() {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        rust_files(&krate.expect("dir entry").path().join("src"), &mut files);
    }
    let mut words = BTreeSet::new();
    for file in files
        .iter()
        .filter(|f| !f.ends_with("telemetry/src/names.rs"))
    {
        let source = fs::read_to_string(file).expect("source is readable");
        let code = source.split("#[cfg(test)]").next().unwrap_or_default();
        let lines = code.lines().filter(|l| !l.trim_start().starts_with("//"));
        let split = |l: &str| {
            l.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        words.extend(lines.flat_map(split));
    }
    let catalog = fs::read_to_string(root.join("crates/telemetry/src/names.rs")).expect("catalog");
    let unused: Vec<&str> = catalog
        .lines()
        .filter_map(|l| Some(l.trim().split_once(" = \"")?.0))
        .filter(|konst| {
            konst
                .bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
        })
        .filter(|konst| !words.contains(*konst))
        .collect();
    assert!(
        unused.is_empty(),
        "catalogued but never used by library code: {unused:?}"
    );
}
