//! Hierarchical span tracing over the **modeled** timeline.
//!
//! The engines know exactly where modeled time goes — sort vs. transfer
//! vs. kernel vs. DRAM — but counters flatten that structure away. This
//! module keeps it: producers build a [`SpanNode`] tree per batch (leaf
//! durations are modeled nanoseconds) and commit it with
//! [`Telemetry::record_span_tree`](crate::Telemetry::record_span_tree),
//! which lays the tree out on a session-monotonic modeled clock, assigns
//! ids, stores the spans in a bounded ring and attributes the tree's time
//! to its dominant leaf stage (`cuart.trace.critical.<stage>` counters).
//!
//! # Hot-path rule
//!
//! A tree is built from `'static` names and typed [`AttrValue`]s, so its
//! only allocations are its own `Vec`s. The commit takes it **by value**
//! and moves names and attributes into the ring; with the ring full and
//! the tree's stage seen before (its critical counter handle is cached per
//! stage), a commit allocates nothing. Strings are made only when
//! [`Telemetry::snapshot`](crate::Telemetry::snapshot) renders the ring
//! into [`Span`]s.
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

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Default bound of the span ring (whole spans, not trees).
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// One recorded span: a named interval on the modeled timeline.
///
/// This is the exported form: [`Telemetry::snapshot`](crate::Telemetry::snapshot)
/// renders it from the registry's compact store, so names and attribute
/// values are strings here however they were recorded.
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

/// A span attribute value, kept typed until an exporter reads it: a
/// commit stores it as is, and only [`Telemetry::snapshot`](crate::Telemetry::snapshot)
/// renders it to the string a [`Span`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (counts, bytes, nanoseconds).
    U64(u64),
    /// A flag.
    Bool(bool),
    /// Text; a `&'static str` costs no allocation.
    Text(Cow<'static, str>),
    /// A share in `0.0..=1.0`, rendered with three decimals.
    Ratio(f64),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Text(v) => f.write_str(v),
            AttrValue::Ratio(v) => write!(f, "{v:.3}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Text(Cow::Borrowed(v))
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(Cow::Owned(v))
    }
}

/// A span tree under construction, before ids and absolute times exist.
///
/// Leaves carry modeled durations; interior nodes span their children.
/// Children are laid out back to back unless [`SpanNode::at`] pins one to
/// an explicit offset from the parent's start (overlap, pipelines). Names
/// and attribute keys are usually `'static`, so building a tree allocates
/// only its `Vec`s, and [`Telemetry::record_span_tree`](crate::Telemetry::record_span_tree)
/// moves it into the span store without copying a string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    /// Stage name.
    pub name: Cow<'static, str>,
    /// Own duration: the full duration for leaves; for interior nodes a
    /// floor that children may extend past.
    pub duration_ns: u64,
    /// Explicit start offset from the parent's start; `None` means
    /// "directly after the previous sibling".
    pub start_rel_ns: Option<u64>,
    /// Key/value attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Child stages.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leaf stage of `duration_ns` modeled nanoseconds.
    pub fn leaf(name: impl Into<Cow<'static, str>>, duration_ns: u64) -> SpanNode {
        SpanNode {
            name: name.into(),
            duration_ns,
            ..SpanNode::default()
        }
    }

    /// An interior node spanning `children` (laid out sequentially).
    pub fn node(name: impl Into<Cow<'static, str>>, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            children,
            ..SpanNode::default()
        }
    }

    /// Attach an attribute (builder style).
    pub fn with_attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> SpanNode {
        self.attrs.push((key, value.into()));
        self
    }

    /// Pin this node to start `offset_ns` after its parent's start
    /// instead of after the previous sibling.
    pub fn at(mut self, offset_ns: u64) -> SpanNode {
        self.start_rel_ns = Some(offset_ns);
        self
    }

    /// Visit every leaf, depth first.
    fn for_each_leaf<'s>(&'s self, f: &mut impl FnMut(&'s SpanNode)) {
        if self.children.is_empty() {
            f(self);
        } else {
            for c in &self.children {
                c.for_each_leaf(f);
            }
        }
    }

    /// The dominant leaf stage: its name, its summed duration and the
    /// tree's total leaf time. Ties resolve to the lexicographically first
    /// name. One walk sums the leaves per name into a table on the stack,
    /// no map; a tree with more distinct leaf names than it holds (none the
    /// engines build) sums into a table with a slot per leaf instead.
    pub(crate) fn dominant(&self) -> Option<(&Cow<'static, str>, u64, u64)> {
        let mut stages = [(NO_STAGE, 0u64); STAGE_TABLE];
        if let Some((len, total)) = self.stage_totals(&mut stages) {
            return pick_dominant(&stages[..len], total);
        }
        let mut leaves = 0;
        self.for_each_leaf(&mut |_| leaves += 1);
        let mut stages = vec![(NO_STAGE, 0u64); leaves];
        let (len, total) = self.stage_totals(&mut stages)?;
        pick_dominant(&stages[..len], total)
    }

    /// Sum leaf durations per distinct name into `table`; returns the
    /// number of names and the total leaf time, or `None` when the tree
    /// has more distinct names than `table` has slots.
    fn stage_totals<'s>(
        &'s self,
        table: &mut [(&'s Cow<'static, str>, u64)],
    ) -> Option<(usize, u64)> {
        let (mut len, mut total, mut overflow) = (0, 0u64, false);
        let slots = table.len();
        self.for_each_leaf(&mut |l| {
            total += l.duration_ns;
            // Stage names are mostly the same `'static` constants, so
            // compare addresses before bytes.
            let same = |name: &Cow<'static, str>| {
                (name.as_ptr() == l.name.as_ptr() && name.len() == l.name.len()) || *name == l.name
            };
            match table[..len].iter_mut().find(|(name, _)| same(name)) {
                Some((_, ns)) => *ns += l.duration_ns,
                None if len < slots => {
                    table[len] = (&l.name, l.duration_ns);
                    len += 1;
                }
                None => overflow = true,
            }
        });
        (!overflow).then_some((len, total))
    }

    /// The dominant leaf stage `(name, duration, share-of-leaf-time)`, or
    /// `None` for an empty tree. Ties resolve to the lexicographically
    /// first name, so attribution is deterministic.
    pub fn dominant_leaf(&self) -> Option<(&str, u64, f64)> {
        self.dominant()
            .map(|(name, ns, total)| (name.as_ref(), ns, share(ns, total)))
    }
}

/// Distinct leaf names [`SpanNode::dominant`] sums on the stack. The
/// engines' trees have at most eight.
const STAGE_TABLE: usize = 16;

/// Filler of the stage table's unused slots.
const NO_STAGE: &Cow<'static, str> = &Cow::Borrowed("");

/// The largest per-name total; a tie goes to the lexicographically first
/// name.
fn pick_dominant<'s>(
    stages: &[(&'s Cow<'static, str>, u64)],
    total: u64,
) -> Option<(&'s Cow<'static, str>, u64, u64)> {
    let best = stages.iter().fold(None, |best, &(name, ns)| match best {
        Some((b_name, b_ns)) if b_ns > ns || (b_ns == ns && b_name <= name) => best,
        _ => Some((name, ns)),
    });
    best.map(|(name, ns)| (name, ns, total))
}

/// `part / total`, 0 for an empty total.
pub(crate) fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
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
            // Ascending names; a later one wins only when strictly
            // larger, so ties go to the lexicographically first.
            let (stage, stage_ns) =
                totals
                    .into_iter()
                    .fold(None, |best, (name, ns)| match best {
                        Some((_, b)) if b >= ns => best,
                        _ => Some((name, ns)),
                    })?;
            Some(CriticalPath {
                root,
                root_name: by_id.get(&root).map(|s| s.name.clone()).unwrap_or_default(),
                stage,
                stage_ns,
                share: share(stage_ns, total),
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
    use crate::Telemetry;

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
        .with_attr("keys", 1024usize)
    }

    /// Commit `trees` back to back into a fresh registry, after a
    /// `start_ns`-long pad leaf when `start_ns > 0`; returns the spans of
    /// the trees (the pad dropped).
    fn committed(start_ns: u64, trees: Vec<SpanNode>) -> Vec<Span> {
        let t = Telemetry::new();
        if start_ns > 0 {
            t.record_span_tree(SpanNode::leaf("pad", start_ns));
        }
        for tree in trees {
            t.record_span_tree(tree);
        }
        let mut spans = t.snapshot().spans;
        if start_ns > 0 {
            spans.remove(0);
        }
        spans
    }

    #[test]
    fn sequential_layout_sums_leaves_to_root() {
        let out = committed(1_000, vec![batch_tree()]);
        let root = &out[0];
        assert_eq!(root.end_ns, 1_000 + 1_600);
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
        let out = committed(0, vec![tree]);
        assert_eq!(out[0].end_ns, 900);
        assert_eq!(out[0].duration_ns(), 900);
        assert_eq!(out[1].start_ns, 0);
        assert_eq!(out[2].start_ns, 0);
    }

    #[test]
    fn dominant_leaf_attribution() {
        let tree = batch_tree();
        let (stage, ns, share) = tree.dominant_leaf().unwrap();
        assert_eq!(stage, "dram");
        assert_eq!(ns, 600);
        assert!((share - 600.0 / 1_600.0).abs() < 1e-12);
        // Recomputation from the committed spans agrees.
        let cps = critical_paths(&committed(0, vec![batch_tree()]));
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].stage, "dram");
        assert_eq!(cps[0].root_name, "sched.batch.lookup");
        assert!((cps[0].share - share).abs() < 1e-12);
    }

    #[test]
    fn tied_leaves_resolve_to_the_lexicographically_first_name() {
        // `h2d` and `d2h` tie at 300 ns (the `d2h` total is split over two
        // leaves); `d2h` sorts first. `zz` is listed first but is smaller.
        let tree = SpanNode::node(
            "batch.lookup",
            vec![
                SpanNode::leaf("zz", 100),
                SpanNode::leaf("h2d", 300),
                SpanNode::leaf("d2h", 200),
                SpanNode::leaf("d2h", 100),
            ],
        );
        let (stage, ns, share) = tree.dominant_leaf().unwrap();
        assert_eq!((stage, ns), ("d2h", 300));
        assert!((share - 300.0 / 700.0).abs() < 1e-12);
        let t = Telemetry::new();
        t.record_span_tree(tree);
        let snap = t.snapshot();
        assert_eq!(snap.counters.get("cuart.trace.critical.d2h"), Some(&1));
        assert_eq!(snap.counters.get("cuart.trace.critical.h2d"), None);
        let cps = critical_paths(&snap.spans);
        assert_eq!(cps.len(), 1);
        assert_eq!((cps[0].stage.as_str(), cps[0].stage_ns), ("d2h", 300));
    }

    #[test]
    fn trees_with_many_stage_names_apply_the_same_rule() {
        // More distinct leaf names than the stack table holds: `s05` and
        // `s17` tie at the maximum, `s05` sorts first.
        const NAMES: [&str; 20] = [
            "s00", "s01", "s02", "s03", "s04", "s05", "s06", "s07", "s08", "s09", "s10", "s11",
            "s12", "s13", "s14", "s15", "s16", "s17", "s18", "s19",
        ];
        let leaves = NAMES
            .iter()
            .rev()
            .map(|&n| SpanNode::leaf(n, if n == "s05" || n == "s17" { 50 } else { 10 }))
            .collect();
        let tree = SpanNode::node("root", leaves);
        let (stage, ns, share) = tree.dominant_leaf().unwrap();
        assert_eq!((stage, ns), ("s05", 50));
        assert!((share - 50.0 / 280.0).abs() < 1e-12);
        let cps = critical_paths(&committed(0, vec![tree]));
        assert_eq!((cps[0].stage.as_str(), cps[0].stage_ns), ("s05", 50));
    }

    #[test]
    fn attributes_render_when_read() {
        let tree = SpanNode::leaf("kernel", 10)
            .with_attr("warps", 16u64)
            .with_attr("sorted", false)
            .with_attr("op", "lookup")
            .with_attr("l2_hit_rate", AttrValue::Ratio(0.77777));
        let out = committed(0, vec![tree]);
        let attrs: Vec<(&str, &str)> = out[0]
            .attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            attrs,
            [
                ("warps", "16"),
                ("sorted", "false"),
                ("op", "lookup"),
                ("l2_hit_rate", "0.778")
            ]
        );
    }

    #[test]
    fn chrome_json_is_parseable_and_ns_exact() {
        let out = committed(1_234, vec![batch_tree()]);
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
        let out = committed(0, vec![batch_tree(), batch_tree()]);
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
