//! One catalog of names, everywhere. The catalog in
//! `crates/analyze/src/registry.rs` generates `cuart_telemetry::names`
//! (`cuart-analyze --emit-registry`) and the DESIGN.md §6 metric table
//! (`--emit-design-table`). This suite checks that both generated files
//! are current, that every registered span is documented in §6.1, that
//! library code takes its names from `names` rather than spelling them
//! out (the token scan in `cuart_analyze::lints::metrics`), and that
//! everything a live session emits is registered.

use cuart::{CuartConfig, CuartIndex};
use cuart_analyze::lints::metrics;
use cuart_analyze::registry;
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_telemetry::{names, Telemetry};
use cuart_workloads::uniform_keys;
use std::collections::BTreeSet;
use std::fs;
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

    let snap = telemetry.snapshot();
    assert!(!snap.counters.is_empty(), "session must emit counters");
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
    assert!(!snap.spans.is_empty(), "session must emit spans");
    for span in &snap.spans {
        assert!(
            names::spans::ALL_SPANS.contains(&span.name.as_str()),
            "unregistered span `{}`",
            span.name
        );
    }
}

#[test]
fn generated_names_rs_is_current() {
    let on_disk = fs::read_to_string(workspace_root().join("crates/telemetry/src/names.rs"))
        .expect("names.rs is readable");
    assert!(
        on_disk == registry::generate_names_rs(),
        "crates/telemetry/src/names.rs is stale: run \
         `cargo run -p cuart-analyze -- --emit-registry`"
    );
}

#[test]
fn design_md_documents_the_registry() {
    let design = fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let table = metrics::extract_between(&design, registry::TABLE_BEGIN, registry::TABLE_END)
        .expect("DESIGN.md keeps the metric-table markers");
    assert!(
        table.trim() == registry::generate_metric_table().trim(),
        "the DESIGN.md §6 metric table drifted from the registry: run \
         `cargo run -p cuart-analyze -- --emit-design-table`"
    );
    let spans = metrics::extract_between(&design, "### 6.1 ", "\n## ")
        .expect("DESIGN.md has a §6.1 before its next section");
    for span in registry::SPANS {
        assert!(
            spans.contains(&format!("`{}`", span.name)),
            "span `{}` is registered but not documented in DESIGN.md §6.1",
            span.name
        );
    }
}

#[test]
fn library_code_takes_names_from_the_registry() {
    let hits = metrics::scan_tree(&workspace_root()).expect("crates/*/src is readable");
    assert!(
        hits.is_empty(),
        "use the `cuart_telemetry::names` constant; a new name goes into \
         crates/analyze/src/registry.rs, then `cargo run -p cuart-analyze -- \
         --emit-registry --emit-design-table`:\n{}",
        hits.join("\n")
    );
}
