//! Hierarchical span tracing over the **modeled** timeline.
//!
//! The engines know exactly where modeled time goes — sort vs. transfer
//! vs. kernel vs. DRAM — but counters flatten that structure away. This
//! module keeps it: producers build a [`SpanNode`] tree per batch (leaf
//! durations are modeled nanoseconds) and commit it with
//! [`Telemetry::record_span_tree`](crate::Telemetry::record_span_tree),
//! which lays the tree out on a session-monotonic modeled clock, assigns
//! ids, stores the flattened [`Span`]s in a bounded ring and attributes
//! the tree's time to its dominant leaf stage
//! (`cuart.trace.critical.<stage>` counters).
//!
//! Invariant the producers uphold (and the exporter checks verify): for a
//! per-batch tree (`batch.*` / `sched.batch.*` roots) the children run
//! sequentially, so the **leaf durations sum to the root duration** — the
//! batch's modeled time. Trees with overlapping children (the hybrid
//! CPU/GPU split, the multi-stream pipeline) use explicit start offsets
//! instead, and their root spans the envelope.
//!
//! Two render targets, both plain functions over `&[Span]` so they work
//! on snapshots from any build:
//!
//! * [`to_chrome_json`] — Chrome-trace / Perfetto "X" (complete) events,
//!   microsecond timestamps with nanosecond precision,
//! * [`to_folded`] — flamegraph folded stacks (`a;b;c <self-ns>`).

#![expect(
    clippy::expect_used,
    reason = "every `.expect(\"string write\")` here is `fmt::Write` into a `String`, which is infallible; threading a `fmt::Error` out of the exporters would be dead code"
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default bound of the span ring (whole spans, not trees).
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// One recorded span: a named interval on the modeled timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Session-unique id (assigned at commit; never 0).
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Stage name (`sched.batch.lookup`, `kernel`, `dram`, `h2d`, …).
    pub name: String,
    /// Modeled start, nanoseconds since session open.
    pub start_ns: u64,
    /// Modeled end, nanoseconds since session open.
    pub end_ns: u64,
    /// Free-form key/value attributes (batch size, bounds, …).
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Modeled duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span tree under construction, before ids and absolute times exist.
///
/// Leaves carry modeled durations; interior nodes span their children.
/// Children are laid out back to back unless [`SpanNode::at`] pins one to
/// an explicit offset from the parent's start (overlap, pipelines).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    /// Stage name.
    pub name: String,
    /// Own duration: the full duration for leaves; for interior nodes a
    /// floor that children may extend past.
    pub duration_ns: u64,
    /// Explicit start offset from the parent's start; `None` means
    /// "directly after the previous sibling".
    pub start_rel_ns: Option<u64>,
    /// Free-form key/value attributes.
    pub attrs: Vec<(String, String)>,
    /// Child stages.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leaf stage of `duration_ns` modeled nanoseconds.
    pub fn leaf(name: impl Into<String>, duration_ns: u64) -> SpanNode {
        SpanNode {
            name: name.into(),
            duration_ns,
            ..SpanNode::default()
        }
    }

    /// An interior node spanning `children` (laid out sequentially).
    pub fn node(name: impl Into<String>, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            children,
            ..SpanNode::default()
        }
    }

    /// Attach an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl ToString) -> SpanNode {
        self.attrs.push((key.into(), value.to_string()));
        self
    }

    /// Pin this node to start `offset_ns` after its parent's start
    /// instead of after the previous sibling.
    pub fn at(mut self, offset_ns: u64) -> SpanNode {
        self.start_rel_ns = Some(offset_ns);
        self
    }

    /// Append a child (builder style).
    pub fn with_child(mut self, child: SpanNode) -> SpanNode {
        self.children.push(child);
        self
    }

    /// Sum leaf durations into `totals`, keyed by leaf name.
    pub fn leaf_totals(&self, totals: &mut BTreeMap<String, u64>) {
        if self.children.is_empty() {
            *totals.entry(self.name.clone()).or_insert(0) += self.duration_ns;
        } else {
            for c in &self.children {
                c.leaf_totals(totals);
            }
        }
    }

    /// The dominant leaf stage `(name, duration, share-of-leaf-time)`, or
    /// `None` for an empty tree. Ties resolve to the lexicographically
    /// first name, so attribution is deterministic.
    pub fn dominant_leaf(&self) -> Option<(String, u64, f64)> {
        let mut totals = BTreeMap::new();
        self.leaf_totals(&mut totals);
        let total: u64 = totals.values().sum();
        let (name, ns) = totals.into_iter().max_by_key(|(_, ns)| *ns)?;
        let share = if total == 0 {
            0.0
        } else {
            ns as f64 / total as f64
        };
        Some((name, ns, share))
    }

    /// Flatten this tree into [`Span`]s starting at `start_ns`, assigning
    /// ids from `next_id` (pre-increment). Returns the root's end time.
    /// Children without an explicit offset run back to back; the root's
    /// end is the later of its own duration and its last-ending child.
    pub fn layout(
        &self,
        parent: u64,
        start_ns: u64,
        next_id: &mut u64,
        out: &mut Vec<Span>,
    ) -> u64 {
        let id = *next_id;
        *next_id += 1;
        // Reserve the slot so parents precede children in store order.
        let slot = out.len();
        out.push(Span {
            id,
            parent,
            name: self.name.clone(),
            start_ns,
            end_ns: start_ns,
            attrs: self.attrs.clone(),
        });
        let mut cursor = start_ns;
        let mut end = start_ns.saturating_add(self.duration_ns);
        for child in &self.children {
            let child_start = match child.start_rel_ns {
                Some(rel) => start_ns.saturating_add(rel),
                None => cursor,
            };
            let child_end = child.layout(id, child_start, next_id, out);
            cursor = child_end;
            end = end.max(child_end);
        }
        out[slot].end_ns = end;
        end
    }
}

/// Critical-path attribution of one committed tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Root span id.
    pub root: u64,
    /// Root span name.
    pub root_name: String,
    /// Dominant leaf stage name.
    pub stage: String,
    /// Leaf time attributed to the dominant stage, nanoseconds.
    pub stage_ns: u64,
    /// Dominant stage's share of the tree's total leaf time, `0.0..=1.0`.
    pub share: f64,
}

/// Recompute critical paths from flattened spans (one entry per root that
/// has at least one leaf). The inverse of what
/// [`record_span_tree`](crate::Telemetry::record_span_tree) feeds the
/// `cuart.trace.critical.*` counters — useful on exported snapshots.
pub fn critical_paths(spans: &[Span]) -> Vec<CriticalPath> {
    let mut has_children: BTreeMap<u64, bool> = BTreeMap::new();
    let mut root_of: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        has_children.entry(s.id).or_insert(false);
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            has_children.insert(s.parent, true);
        }
    }
    for s in spans {
        let mut cur = s;
        // Walk to the root; orphans (parent evicted from the ring) count
        // as their own root.
        while cur.parent != 0 {
            match by_id.get(&cur.parent) {
                Some(p) => cur = p,
                None => break,
            }
        }
        root_of.insert(s.id, cur.id);
    }
    let mut per_root: BTreeMap<u64, BTreeMap<String, u64>> = BTreeMap::new();
    for s in spans {
        if !has_children[&s.id] {
            *per_root
                .entry(root_of[&s.id])
                .or_default()
                .entry(s.name.clone())
                .or_insert(0) += s.duration_ns();
        }
    }
    per_root
        .into_iter()
        .filter_map(|(root, totals)| {
            let total: u64 = totals.values().sum();
            let (stage, stage_ns) = totals.into_iter().max_by_key(|(_, ns)| *ns)?;
            Some(CriticalPath {
                root,
                root_name: by_id.get(&root).map(|s| s.name.clone()).unwrap_or_default(),
                stage,
                stage_ns,
                share: if total == 0 {
                    0.0
                } else {
                    stage_ns as f64 / total as f64
                },
            })
        })
        .collect()
}

/// Escape for a JSON string literal (local copy; the snapshot module's
/// helper is private to it).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond precision, without float round-trip
/// surprises: `1234` ns → `"1.234"`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render spans as Chrome-trace / Perfetto JSON (`chrome://tracing`,
/// <https://ui.perfetto.dev>). One complete ("X") event per span on a
/// single modeled timeline; `args` carries the span ids so tooling can
/// rebuild the tree exactly.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{},\"parent\":{}",
            esc(&s.name),
            us(s.start_ns),
            us(s.duration_ns()),
            s.id,
            s.parent,
        )
        .expect("string write");
        for (k, v) in &s.attrs {
            write!(out, ",\"{}\":\"{}\"", esc(k), esc(v)).expect("string write");
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Render spans as flamegraph folded stacks: one
/// `root;child;…;leaf <self-ns>` line per stack with non-zero self time
/// (duration minus child time), aggregated and sorted — ready for
/// `flamegraph.pl` or speedscope.
pub fn to_folded(spans: &[Span]) -> String {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            *child_ns.entry(s.parent).or_insert(0) += s.duration_ns();
        }
    }
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let self_ns = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        if self_ns == 0 {
            continue;
        }
        let mut path = vec![s.name.as_str()];
        let mut cur = s;
        while cur.parent != 0 {
            match by_id.get(&cur.parent) {
                Some(p) => {
                    path.push(p.name.as_str());
                    cur = p;
                }
                None => break,
            }
        }
        path.reverse();
        *stacks.entry(path.join(";")).or_insert(0) += self_ns;
    }
    let mut out = String::new();
    for (stack, ns) in stacks {
        writeln!(out, "{stack} {ns}").expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_tree() -> SpanNode {
        SpanNode::node(
            "sched.batch.lookup",
            vec![
                SpanNode::leaf("sort", 300),
                SpanNode::leaf("h2d", 200),
                SpanNode::node(
                    "kernel",
                    vec![SpanNode::leaf("dram", 600), SpanNode::leaf("exec", 400)],
                ),
                SpanNode::leaf("d2h", 100),
            ],
        )
        .with_attr("keys", 1024)
    }

    #[test]
    fn sequential_layout_sums_leaves_to_root() {
        let mut out = Vec::new();
        let mut next = 1;
        let end = batch_tree().layout(0, 1_000, &mut next, &mut out);
        assert_eq!(end, 1_000 + 1_600);
        let root = &out[0];
        assert_eq!(root.parent, 0);
        assert_eq!(root.duration_ns(), 1_600);
        let leaf_sum: u64 = out
            .iter()
            .filter(|s| out.iter().all(|c| c.parent != s.id))
            .map(|s| s.duration_ns())
            .sum();
        assert_eq!(leaf_sum, root.duration_ns());
        // Children nest inside their parents.
        let by_id: BTreeMap<u64, &Span> = out.iter().map(|s| (s.id, s)).collect();
        for s in &out {
            if s.parent != 0 {
                let p = by_id[&s.parent];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns, "{s:?}");
            }
        }
        // Sequential siblings do not overlap.
        assert_eq!(out[1].name, "sort");
        assert_eq!(out[2].name, "h2d");
        assert_eq!(out[1].end_ns, out[2].start_ns);
    }

    #[test]
    fn explicit_offsets_allow_overlap() {
        // Hybrid split: both legs start at 0, root spans the envelope.
        let tree = SpanNode::node(
            "hybrid.route",
            vec![
                SpanNode::leaf("gpu", 500).at(0),
                SpanNode::leaf("cpu", 900).at(0),
            ],
        );
        let mut out = Vec::new();
        let mut next = 1;
        let end = tree.layout(0, 0, &mut next, &mut out);
        assert_eq!(end, 900);
        assert_eq!(out[0].duration_ns(), 900);
        assert_eq!(out[1].start_ns, 0);
        assert_eq!(out[2].start_ns, 0);
    }

    #[test]
    fn dominant_leaf_attribution() {
        let (stage, ns, share) = batch_tree().dominant_leaf().unwrap();
        assert_eq!(stage, "dram");
        assert_eq!(ns, 600);
        assert!((share - 600.0 / 1_600.0).abs() < 1e-12);
        // Recomputation from flattened spans agrees.
        let mut out = Vec::new();
        let mut next = 1;
        batch_tree().layout(0, 0, &mut next, &mut out);
        let cps = critical_paths(&out);
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].stage, "dram");
        assert_eq!(cps[0].root_name, "sched.batch.lookup");
        assert!((cps[0].share - share).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_is_parseable_and_ns_exact() {
        let mut out = Vec::new();
        let mut next = 1;
        batch_tree().layout(0, 1_234, &mut next, &mut out);
        let json = to_chrome_json(&out);
        let v = crate::json::parse(&json).expect("chrome trace parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), out.len());
        let first = &events[0];
        assert_eq!(first.get("ph").and_then(|p| p.as_str()), Some("X"));
        // 1234 ns → 1.234 µs, exactly.
        assert_eq!(first.get("ts").and_then(|t| t.as_f64()), Some(1.234));
        assert_eq!(
            first
                .get("args")
                .and_then(|a| a.get("keys"))
                .and_then(|k| k.as_str()),
            Some("1024")
        );
    }

    #[test]
    fn folded_stacks_aggregate_self_time() {
        let mut out = Vec::new();
        let mut next = 1;
        batch_tree().layout(0, 0, &mut next, &mut out);
        batch_tree().layout(0, 2_000, &mut next, &mut out);
        let folded = to_folded(&out);
        // Leaves carry all the time; two identical trees double it.
        assert!(
            folded.contains("sched.batch.lookup;kernel;dram 1200"),
            "{folded}"
        );
        assert!(folded.contains("sched.batch.lookup;sort 600"), "{folded}");
        // Interior nodes have zero self time, so no bare kernel line.
        assert!(!folded.contains(";kernel "), "{folded}");
        // Deterministic: sorted, repeatable.
        assert_eq!(folded, to_folded(&out));
    }

    #[test]
    fn microsecond_rendering_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(7), "0.007");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }
}
