//! fig-regress — a perf-regression gate over a pinned smoke workload.
//!
//! Runs a fixed, fully deterministic serving workload (8 Ki keys, batches
//! of 1 Ki, pinned RTX 3090 model, fixed seeds) directly through
//! [`cuart::CuartSession`] batches, and distils it to a small set of
//! metrics: modeled kernel-side throughput per op kind, plus the share of
//! modeled batch time each pipeline stage consumes (from the recorded
//! span trees). Because every number is modeled, the metrics are exact
//! across runs and machines — any drift is a *code* change, not noise.
//!
//! `figures fig-regress --update-baseline` writes `results/baseline.json`;
//! plain `figures fig-regress` compares against it and fails the process
//! when throughput drops (or stage shares drift) past `--threshold`.

use cuart::{CuartConfig, CuartIndex};
use cuart_gpu_sim::devices;
use cuart_telemetry::Telemetry;
use cuart_workloads::uniform_keys;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Baseline file schema tag, bumped when the metric set changes shape.
pub const SCHEMA: &str = "cuart-fig-regress-v1";

/// Default relative regression threshold (5 %).
pub const DEFAULT_THRESHOLD: f64 = 0.05;

const KEYS: usize = 8192;
const BATCH: usize = 1024;
const KEY_LEN: usize = 8;
const SEED: u64 = 0xC0A7;

/// Run the pinned smoke workload and return its metric map.
///
/// Metrics:
/// - `lookup_mops` / `update_mops` / `insert_mops` — modeled kernel-side
///   throughput per op kind.
/// - `served_lookup_modeled_mops` — modeled serving throughput of the same
///   lookup workload pushed through the `cuart-net` loopback RPC path
///   (single sequential client, request size pinned to the batch target, so
///   each request coalesces into exactly one batch and the modeled time is
///   exact across runs despite the TCP transport). Modeled device clock,
///   not wall clock: the stack benchmark (`benchmark/`) measures that
///   path's wall clock.
/// - `stage_share.<name>` — fraction of total leaf span time spent in each
///   pipeline stage (`h2d`, `dram`, `exec`, `d2h`).
pub fn run_smoke() -> BTreeMap<String, f64> {
    let all = uniform_keys(KEYS + 2 * BATCH, KEY_LEN, SEED);
    let (stored, fresh) = all.split_at(KEYS);
    let mut art = cuart_art::Art::new();
    for (i, k) in stored.iter().enumerate() {
        art.insert(k, i as u64 + 1)
            .expect("unique fixed-length keys");
    }
    let telemetry = Arc::new(Telemetry::new());
    let index = CuartIndex::build(&art, &CuartConfig::default()).with_telemetry(telemetry.clone());
    let dev = devices::rtx3090();
    let mut session = index.device_session(&dev);

    let mut metrics = BTreeMap::new();
    let mut lookup_ns = 0.0;
    for b in 0..KEYS / BATCH {
        let queries: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| {
                stored[b.wrapping_mul(BATCH).wrapping_add(i.wrapping_mul(7)) % stored.len()].clone()
            })
            .collect();
        let (_, report) = session.lookup_batch(&queries).expect("smoke lookup");
        lookup_ns += report.time_ns;
    }
    metrics.insert("lookup_mops".into(), KEYS as f64 / lookup_ns * 1000.0);

    let mut update_ns = 0.0;
    for b in 0..4 {
        let ops: Vec<(Vec<u8>, u64)> = (0..BATCH)
            .map(|i| (stored[(b * BATCH + i) % stored.len()].clone(), i as u64))
            .collect();
        let (_, report) = session.update_batch(&ops).expect("smoke update");
        update_ns += report.time_ns;
    }
    metrics.insert(
        "update_mops".into(),
        (4 * BATCH) as f64 / update_ns * 1000.0,
    );

    let mut insert_ns = 0.0;
    for chunk in fresh.chunks(BATCH) {
        let ops: Vec<(Vec<u8>, u64)> = chunk
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u64 + 1_000_000))
            .collect();
        let (_, report) = session.insert_batch(&ops).expect("smoke insert");
        insert_ns += report.time_ns;
    }
    metrics.insert(
        "insert_mops".into(),
        fresh.len() as f64 / insert_ns * 1000.0,
    );

    metrics.insert(
        "served_lookup_modeled_mops".into(),
        net_smoke_mops(&art, stored, &dev),
    );

    // Stage shares from the recorded span trees: a leaf is any span no
    // other span names as parent; shares are leaf time over total leaf time.
    let snap = telemetry.snapshot();
    let parents: std::collections::BTreeSet<u64> = snap
        .spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| s.parent)
        .collect();
    let mut by_stage: BTreeMap<&str, u64> = BTreeMap::new();
    for s in snap.spans.iter().filter(|s| !parents.contains(&s.id)) {
        *by_stage.entry(s.name.as_str()).or_default() += s.duration_ns();
    }
    let total: u64 = by_stage.values().sum();
    if total > 0 {
        for (stage, ns) in by_stage {
            metrics.insert(format!("stage_share.{stage}"), ns as f64 / total as f64);
        }
    }
    metrics
}

/// Modeled serving throughput of the smoke lookup workload through the
/// `cuart-net` loopback RPC path, in MOps/s.
///
/// Deterministic by construction: one sequential client, each request
/// exactly `BATCH` keys against a scheduler whose batch target is also
/// `BATCH` with a far-off coalescing deadline, so every request flushes
/// as exactly one size-triggered batch. The metric divides by
/// [`SchedulerStats::modeled_time_ns`](cuart_host::scheduler::SchedulerStats::modeled_time_ns)
/// (kernel time plus one launch overhead per batch) — wall-clock TCP and
/// thread-handoff time is deliberately excluded, so the number is exact
/// across runs and machines.
fn net_smoke_mops(
    art: &cuart_art::Art<u64>,
    stored: &[Vec<u8>],
    dev: &cuart_gpu_sim::DeviceConfig,
) -> f64 {
    use cuart_host::scheduler::{Scheduler, SchedulerConfig};
    use cuart_net::{NetClient, NetServer, NetServerConfig};

    // A fresh index without telemetry: the serving pass must not leak
    // spans into the stage-share accounting of the in-process passes.
    let index = Arc::new(CuartIndex::build(art, &CuartConfig::default()));
    let cfg = SchedulerConfig {
        batch_target: BATCH,
        deadline: std::time::Duration::from_millis(50),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(index, *dev, cfg);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let server = NetServer::serve_single(listener, sched, None, NetServerConfig::default())
        .expect("serve on loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("loopback connect");
    for b in 0..KEYS / BATCH {
        let queries: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| {
                stored[b.wrapping_mul(BATCH).wrapping_add(i.wrapping_mul(7)) % stored.len()].clone()
            })
            .collect();
        client.lookup(queries).expect("smoke net lookup");
    }
    drop(client);
    server.shutdown_handle().shutdown();
    let report = server.join().expect("clean drain");
    assert_eq!(report.served_ops, KEYS as u64, "every key must be served");
    let stats = report.sched.aggregate();
    assert_eq!(
        stats.batches,
        (KEYS / BATCH) as u64,
        "one batch per request"
    );
    stats.keys_dispatched as f64 * 1_000.0 / stats.modeled_time_ns(dev)
}

/// Serialize a metric map as the baseline JSON document.
pub fn to_json(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"workload\": \"{KEYS} keys, batch {BATCH}, rtx3090, seed {SEED}\","
    );
    out.push_str("  \"metrics\": {\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        let _ = writeln!(out, "    \"{k}\": {v:.6}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// Parse a baseline document produced by [`to_json`].
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = cuart_telemetry::json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(SCHEMA) => {}
        other => {
            return Err(format!(
                "unknown baseline schema {other:?}, expected {SCHEMA:?}"
            ))
        }
    }
    let metrics = doc.get("metrics").ok_or("missing \"metrics\" object")?;
    match metrics {
        cuart_telemetry::json::Value::Obj(map) => map
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|f| (k.clone(), f))
                    .ok_or_else(|| format!("metric {k:?} is not a number"))
            })
            .collect(),
        _ => Err("\"metrics\" is not an object".into()),
    }
}

/// Compare `current` against `baseline`. Returns the list of regressions
/// (empty = gate passes). Throughput metrics (`*_mops`) regress when they
/// drop more than `threshold` relative; `stage_share.*` metrics regress
/// when they drift more than `threshold` absolute in either direction —
/// a stage silently growing its share is exactly the kind of change the
/// gate exists to surface.
pub fn compare(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    threshold: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for (name, &base) in baseline {
        let is_share = name.starts_with("stage_share.");
        let Some(&cur) = current.get(name) else {
            regressions.push(format!(
                "{name}: missing from current run (baseline {base:.4})"
            ));
            continue;
        };
        if is_share {
            if (cur - base).abs() > threshold {
                regressions.push(format!(
                    "{name}: share drifted {base:.4} -> {cur:.4} (|Δ| {:.4} > {threshold})",
                    (cur - base).abs()
                ));
            }
        } else if cur < base * (1.0 - threshold) {
            regressions.push(format!(
                "{name}: {base:.2} -> {cur:.2} ({:+.1}% < -{:.0}%)",
                (cur / base - 1.0) * 100.0,
                threshold * 100.0
            ));
        }
    }
    regressions
}

/// Human-readable side-by-side of every metric, baseline vs current.
pub fn diff_report(current: &BTreeMap<String, f64>, baseline: &BTreeMap<String, f64>) -> String {
    let mut out = String::new();
    for (name, &cur) in current {
        match baseline.get(name) {
            Some(&base) if base != 0.0 => {
                let _ = writeln!(
                    out,
                    "  {name:<24} baseline {base:>12.4}  current {cur:>12.4}  ({:+.2}%)",
                    (cur / base - 1.0) * 100.0
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  {name:<24} baseline       (none)  current {cur:>12.4}"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_metrics_are_deterministic() {
        let a = run_smoke();
        let b = run_smoke();
        assert_eq!(a, b, "modeled metrics must be exact across runs");
        assert!(a["lookup_mops"] > 0.0);
        assert!(a["update_mops"] > 0.0);
        assert!(a["insert_mops"] > 0.0);
        assert!(a["served_lookup_modeled_mops"] > 0.0);
        let share_sum: f64 = a
            .iter()
            .filter(|(k, _)| k.starts_with("stage_share."))
            .map(|(_, v)| v)
            .sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1, got {share_sum}"
        );
        assert!(a.contains_key("stage_share.exec"), "{a:?}");
        assert!(a.contains_key("stage_share.h2d"), "{a:?}");
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let metrics = run_smoke();
        let parsed = parse_baseline(&to_json(&metrics)).unwrap();
        assert_eq!(parsed.len(), metrics.len());
        for (k, v) in &metrics {
            assert!((parsed[k] - v).abs() < 1e-5, "{k}: {v} vs {}", parsed[k]);
        }
        assert!(parse_baseline("{\"schema\":\"other\"}").is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn compare_flags_throughput_drops_and_share_drift() {
        let base: BTreeMap<String, f64> = [
            ("lookup_mops".to_string(), 100.0),
            ("stage_share.exec".to_string(), 0.50),
        ]
        .into();
        // Within threshold: pass.
        let ok: BTreeMap<String, f64> = [
            ("lookup_mops".to_string(), 97.0),
            ("stage_share.exec".to_string(), 0.53),
        ]
        .into();
        assert!(compare(&ok, &base, 0.05).is_empty());
        // Throughput drop and share drift: both flagged.
        let bad: BTreeMap<String, f64> = [
            ("lookup_mops".to_string(), 90.0),
            ("stage_share.exec".to_string(), 0.60),
        ]
        .into();
        let regressions = compare(&bad, &base, 0.05);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        // Faster is never a regression.
        let fast: BTreeMap<String, f64> = [
            ("lookup_mops".to_string(), 150.0),
            ("stage_share.exec".to_string(), 0.50),
        ]
        .into();
        assert!(compare(&fast, &base, 0.05).is_empty());
        // A share the current run lost is a regression like any other.
        let no_shares: BTreeMap<String, f64> = [("lookup_mops".to_string(), 100.0)].into();
        assert_eq!(compare(&no_shares, &base, 0.05).len(), 1);
    }

    #[test]
    fn committed_baseline_matches_current_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baseline.json");
        let text = std::fs::read_to_string(path)
            .expect("results/baseline.json is committed; regenerate with figures fig-regress --update-baseline");
        let baseline = parse_baseline(&text).unwrap();
        let current = run_smoke();
        let regressions = compare(&current, &baseline, DEFAULT_THRESHOLD);
        assert!(
            regressions.is_empty(),
            "committed baseline regressed:\n{}\n{}",
            regressions.join("\n"),
            diff_report(&current, &baseline)
        );
    }
}
