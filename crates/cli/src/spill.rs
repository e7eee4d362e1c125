//! The one output spill every command writes its files through, and
//! `cuart verify-trace`, which checks a spilled trace.

use crate::CliError;
use cuart_telemetry::tracing::{critical_paths, to_chrome_json, to_folded};
use cuart_telemetry::Telemetry;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Where a command writes its files (`--metrics-out`, `--trace-out`,
/// `--folded-out`); each is off when `None`.
#[derive(Debug, Clone, Default)]
pub struct Spill {
    /// The metrics snapshot: Prometheus text for a `.prom` path, else JSON.
    pub metrics: Option<PathBuf>,
    /// The Chrome-trace export; each batch tree's critical path is printed.
    pub trace: Option<PathBuf>,
    /// The folded stacks.
    pub folded: Option<PathBuf>,
}

impl Spill {
    /// Write every file asked for from `telemetry`'s snapshot, noting each
    /// in `out`.
    pub(crate) fn write(&self, out: &mut String, telemetry: &Telemetry) -> Result<(), CliError> {
        if self.metrics.is_none() && self.trace.is_none() && self.folded.is_none() {
            return Ok(());
        }
        let snap = telemetry.snapshot();
        if let Some(p) = &self.metrics {
            let text = if p.extension().is_some_and(|e| e == "prom") {
                snap.to_prometheus()
            } else {
                snap.to_json()
            };
            std::fs::write(p, text)?;
            let _ = write!(out, "\nmetrics -> {}", p.display());
        }
        if let Some(p) = &self.trace {
            std::fs::write(p, to_chrome_json(&snap.spans))?;
            let (path, spans) = (p.display(), snap.spans.len());
            let _ = write!(out, "\ntrace -> {path} ({spans} spans)");
            for cp in critical_paths(&snap.spans)
                .iter()
                .filter(|cp| is_batch_tree(&cp.root_name))
            {
                let _ = write!(
                    out,
                    "\n{}: critical path {} ({:.0}% of leaf time, {:.1} µs)",
                    cp.root_name,
                    cp.stage,
                    cp.share * 100.0,
                    cp.stage_ns as f64 / 1e3
                );
            }
        }
        if let Some(p) = &self.folded {
            std::fs::write(p, to_folded(&snap.spans))?;
            let _ = write!(out, "\nfolded -> {}", p.display());
        }
        Ok(())
    }
}

/// Whether a root span of this name is a sequential batch tree (a
/// session's `batch.*` or a scheduler's `sched.batch.*`), whose leaves
/// partition the modeled batch time.
fn is_batch_tree(root_name: &str) -> bool {
    root_name.starts_with("batch.") || root_name.starts_with("sched.batch.")
}

/// One parsed Chrome-trace event, microsecond timestamps.
struct TraceEvent {
    id: u64,
    parent: u64,
    name: String,
    ts: f64,
    dur: f64,
}

/// Validate an exported Chrome-trace file: the JSON parses, every event
/// is a complete ("X") event with `ts`/`dur` and span ids, children nest
/// inside their parents, and for every sequential batch tree (`batch.*` /
/// `sched.batch.*` roots) the leaf durations sum to the root duration
/// within 1 % — the invariant that makes the traces trustworthy as a
/// breakdown of modeled batch time.
pub fn cmd_verify_trace(path: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)?;
    let doc = cuart_telemetry::json::parse(&text)
        .map_err(|e| CliError::Input(format!("{}: invalid JSON: {e}", path.display())))?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or_else(|| CliError::Input(format!("{}: no traceEvents array", path.display())))?;
    let mut evs: Vec<TraceEvent> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let field = |k: &str| {
            e.get(k)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| CliError::Input(format!("event {i}: missing number {k:?}")))
        };
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        if ph != "X" {
            return Err(CliError::Input(format!(
                "event {i}: ph {ph:?}, expected complete event \"X\""
            )));
        }
        let args = e
            .get("args")
            .ok_or_else(|| CliError::Input(format!("event {i}: missing args")))?;
        let id_of = |k: &str| {
            args.get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| CliError::Input(format!("event {i}: missing span id args.{k}")))
        };
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or_default();
        evs.push(TraceEvent {
            id: id_of("id")?,
            parent: id_of("parent")?,
            name: name.to_string(),
            ts: field("ts")?,
            dur: field("dur")?,
        });
    }
    let by_id: std::collections::BTreeMap<u64, &TraceEvent> =
        evs.iter().map(|e| (e.id, e)).collect();
    let mut children: std::collections::BTreeMap<u64, Vec<&TraceEvent>> = Default::default();
    // Sub-microsecond slack: spans are ns-exact, rendered at µs scale.
    const EPS: f64 = 0.002;
    let mut nested = 0usize;
    for e in &evs {
        if e.parent == 0 {
            continue;
        }
        let p = by_id.get(&e.parent).ok_or_else(|| {
            CliError::Input(format!(
                "span {} ({}): unknown parent {}",
                e.id, e.name, e.parent
            ))
        })?;
        if e.ts < p.ts - EPS || e.ts + e.dur > p.ts + p.dur + EPS {
            return Err(CliError::Input(format!(
                "span {} ({}) [{} +{}] escapes parent {} ({}) [{} +{}]",
                e.id, e.name, e.ts, e.dur, p.id, p.name, p.ts, p.dur
            )));
        }
        nested += 1;
        children.entry(e.parent).or_default().push(e);
    }
    let mut batch_trees = 0usize;
    for root in evs
        .iter()
        .filter(|e| e.parent == 0 && is_batch_tree(&e.name))
    {
        // Leaf durations of the subtree must reproduce the root duration.
        let mut leaf_sum = 0.0f64;
        let mut stack = vec![root];
        while let Some(e) = stack.pop() {
            match children.get(&e.id) {
                Some(kids) => stack.extend(kids.iter().copied()),
                None => leaf_sum += e.dur,
            }
        }
        if (leaf_sum - root.dur).abs() > root.dur * 0.01 + EPS {
            return Err(CliError::Input(format!(
                "batch tree {} ({}): leaf durations sum to {leaf_sum} µs, root spans {} µs",
                root.id, root.name, root.dur
            )));
        }
        batch_trees += 1;
    }
    Ok(format!(
        "{}: OK — {} spans, {} nested, {} batch trees leaf-sum-verified (±1%)",
        path.display(),
        evs.len(),
        nested,
        batch_trees
    ))
}
