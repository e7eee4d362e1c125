//! The registry.
//!
//! # Hot-path rule
//!
//! Metric handles are `Arc`s of atomics. An owner that records per batch
//! or per request resolves its handles **once**, when it is built, and
//! bumps through them: one or two relaxed atomic ops, no lock, no name
//! lookup, no allocation. The owners that do so are the device session
//! (per-kind series, the kernel series, the image-sharing gauges — at
//! session open), the scheduler (its `cuart.sched.*` series and a shard's
//! `cuart.sched.shard.<i>.*` twins — at spawn), the sharded router and the
//! network server (once per server). The by-name calls
//! ([`Telemetry::incr`], [`Telemetry::gauge_set`], [`Telemetry::observe`])
//! resolve through the registry's `RwLock`ed maps on every call; they stay
//! only where recording is rare — index build, a session's fault and
//! recovery events — and in one-shot tools (GRT, the hybrid model), where
//! a held handle would buy nothing. (Breaker transitions and connection
//! open/close are rare too, but their owners hold the handles anyway.)
//!
//! A resolved series appears in snapshots only once it has been written,
//! so resolving a handle early never changes what a snapshot shows.
//!
//! The span ring takes a short `Mutex` per committed tree, amortised
//! across the whole batch, not per key. The event ring's `Mutex` is
//! taken only on a state transition; no batch touches it.

use crate::event::BatchEvent;
use crate::names;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::tracing::{share, AttrValue, Span, SpanNode, DEFAULT_SPAN_CAPACITY};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Default bound of the state-transition event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Set on a series' first write; snapshots skip series never written.
#[derive(Debug, Default)]
struct Live(AtomicBool);

impl Live {
    fn mark(&self) {
        // Read first: after the first write the flag's line stays shared.
        if !self.0.load(Ordering::Relaxed) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    fn get(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    live: Live,
}

impl Counter {
    /// Add `n`.
    pub fn incr(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        self.live.mark();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge storing an `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
    live: Live,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.live.mark();
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets: one for zero plus one per bit position.
const BUCKETS: usize = 65;

/// Log-scale histogram for ns latencies, bytes, transactions-per-key.
///
/// Bucket 0 holds exactly the value 0; bucket `i ≥ 1` holds the range
/// `[2^(i-1), 2^i - 1]`, i.e. values with bit length `i`.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: 0 for 0, else its bit length.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i`.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freeze into a snapshot.
    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: (0..BUCKETS)
                .filter_map(|i| {
                    let n = self.counts[i].load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper(i), n))
                })
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct RingInner {
    buf: VecDeque<BatchEvent>,
    next_seq: u64,
    dropped: u64,
}

/// Bounded ring of transition [`BatchEvent`]s, session-monotonic `seq`.
#[derive(Debug)]
struct EventRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
        }
    }

    fn record(&self, mut event: BatchEvent) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
        event.seq
    }

    fn snapshot(&self) -> (Vec<BatchEvent>, u64) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (inner.buf.iter().copied().collect(), inner.dropped)
    }
}

/// One span as the ring keeps it: the committed tree's name and typed
/// attributes, moved in, rendered to a [`Span`] only by a snapshot.
#[derive(Debug)]
struct SpanRecord {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    fn render(&self) -> Span {
        Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            attrs: self
                .attrs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.to_string()))
                .collect(),
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    buf: VecDeque<SpanRecord>,
    /// Spans ever pushed; `pushed - buf.len()` is the position of
    /// `buf[0]` in push order.
    pushed: u64,
    /// Next span id; starts at 1 so 0 can mean "no parent".
    next_id: u64,
    /// Modeled session clock: committed trees are laid out back to back.
    clock_ns: u64,
    dropped: u64,
    /// `cuart.trace.critical.<stage>` handles, resolved on a stage's
    /// first attribution.
    critical: Vec<(Cow<'static, str>, CounterHandle)>,
}

impl SpanInner {
    /// Append `span`, evicting the oldest at `capacity`; returns its
    /// position in push order.
    fn push(&mut self, capacity: usize, span: SpanRecord) -> u64 {
        if self.buf.len() == capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(span);
        self.pushed += 1;
        self.pushed - 1
    }

    /// Set the end of the span pushed at position `at`, unless a larger
    /// tree than the ring has already evicted it.
    fn set_end(&mut self, at: u64, end_ns: u64) {
        let first = self.pushed - self.buf.len() as u64;
        if let Some(span) = at
            .checked_sub(first)
            .and_then(|i| self.buf.get_mut(i as usize))
        {
            span.end_ns = end_ns;
        }
    }

    /// Move `node` and its subtree into the ring starting at `start_ns`,
    /// parents before children; returns the node's end time. Children
    /// without an explicit offset run back to back; a node ends at the
    /// later of its own duration and its last-ending child.
    fn lay_out(&mut self, capacity: usize, node: SpanNode, parent: u64, start_ns: u64) -> u64 {
        let SpanNode {
            name,
            duration_ns,
            attrs,
            children,
            ..
        } = node;
        let id = self.next_id;
        self.next_id += 1;
        let at = self.push(
            capacity,
            SpanRecord {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
                attrs,
            },
        );
        let mut cursor = start_ns;
        let mut end = start_ns.saturating_add(duration_ns);
        for child in children {
            let child_start = child
                .start_rel_ns
                .map_or(cursor, |rel| start_ns.saturating_add(rel));
            let child_end = self.lay_out(capacity, child, id, child_start);
            cursor = child_end;
            end = end.max(child_end);
        }
        self.set_end(at, end);
        end
    }
}

/// Bounded ring of committed spans plus the modeled session clock.
///
/// Eviction is per span, oldest first — a very long session can shed the
/// head of an old tree while keeping its tail; `dropped` counts what went
/// missing and the consumers ([`crate::tracing::critical_paths`], the
/// folded exporter) treat orphaned spans as their own roots.
#[derive(Debug)]
struct SpanRing {
    capacity: usize,
    inner: Mutex<SpanInner>,
}

impl SpanRing {
    fn new(capacity: usize) -> Self {
        SpanRing {
            capacity: capacity.max(1),
            inner: Mutex::new(SpanInner {
                buf: VecDeque::new(),
                pushed: 0,
                next_id: 1,
                clock_ns: 0,
                dropped: 0,
                critical: Vec::new(),
            }),
        }
    }

    fn snapshot(&self) -> (Vec<Span>, u64) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (
            inner.buf.iter().map(SpanRecord::render).collect(),
            inner.dropped,
        )
    }
}

/// Handle type returned by [`Telemetry::counter`]; derefs to [`Counter`].
pub type CounterHandle = Arc<Counter>;
/// Handle type returned by [`Telemetry::gauge`]; derefs to [`Gauge`].
pub type GaugeHandle = Arc<Gauge>;
/// Handle type returned by [`Telemetry::histogram`]; derefs to [`Histogram`].
pub type HistogramHandle = Arc<Histogram>;

/// The session-wide metrics registry.
///
/// Shared as `Option<Arc<Telemetry>>` by everything that records: the
/// disabled path is a single branch on the `Option` with no allocation
/// and no locking.
#[derive(Debug)]
pub struct Telemetry {
    counters: RwLock<BTreeMap<String, CounterHandle>>,
    gauges: RwLock<BTreeMap<String, GaugeHandle>>,
    histograms: RwLock<BTreeMap<String, HistogramHandle>>,
    events: EventRing,
    spans: SpanRing,
    /// `cuart.trace.critical_share`, set by every committed tree.
    critical_share: GaugeHandle,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// New registry with the default event- and span-ring capacities.
    pub fn new() -> Self {
        Self::with_capacities(DEFAULT_EVENT_CAPACITY, DEFAULT_SPAN_CAPACITY)
    }

    /// New registry retaining at most `event_capacity` transition events
    /// and `span_capacity` spans.
    pub fn with_capacities(event_capacity: usize, span_capacity: usize) -> Self {
        let critical_share = GaugeHandle::default();
        let gauges = BTreeMap::from([(
            names::TRACE_CRITICAL_SHARE.to_string(),
            Arc::clone(&critical_share),
        )]);
        Telemetry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(gauges),
            histograms: RwLock::new(BTreeMap::new()),
            events: EventRing::new(event_capacity),
            spans: SpanRing::new(span_capacity),
            critical_share,
        }
    }

    fn resolve<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(m) = map.read().unwrap_or_else(PoisonError::into_inner).get(name) {
            return Arc::clone(m);
        }
        let mut w = map.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// Handle to the counter `name`, creating it on first use. The
    /// counter shows in snapshots from its first bump on.
    pub fn counter(&self, name: &str) -> CounterHandle {
        Self::resolve(&self.counters, name)
    }

    /// Handle to the gauge `name`, creating it on first use. The gauge
    /// shows in snapshots from its first set on.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        Self::resolve(&self.gauges, name)
    }

    /// Handle to the histogram `name`, creating it on first use. The
    /// histogram shows in snapshots from its first observation on.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        Self::resolve(&self.histograms, name)
    }

    /// Convenience: bump counter `name` by `n`. Resolves the name on
    /// every call — cold paths only; see the module docs.
    pub fn incr(&self, name: &str, n: u64) {
        self.counter(name).incr(n);
    }

    /// Convenience: set gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Convenience: record `v` into histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).observe(v);
    }

    /// Append a state-transition event to the event ring; returns its
    /// sequence number. Batches record span trees, never events.
    pub fn record(&self, event: BatchEvent) -> u64 {
        self.events.record(event)
    }

    /// Commit a whole span tree to the bounded span store and attribute
    /// its critical path; returns the root span's id.
    ///
    /// The tree is laid out on the modeled session clock (trees are
    /// placed back to back; within a tree children run back to back
    /// unless pinned with [`SpanNode::at`]) and moved into the store, so
    /// the commit copies no string. The dominant *leaf* stage (see
    /// [`SpanNode::dominant_leaf`]) bumps `cuart.trace.critical.<stage>`
    /// — through a handle cached per stage — and its share of total leaf
    /// time is published on the `cuart.trace.critical_share` gauge.
    pub fn record_span_tree(&self, root: SpanNode) -> u64 {
        let critical = root.dominant();
        let mut inner = self
            .spans
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((stage, ns, total)) = critical {
            match inner.critical.iter().find(|(s, _)| s == stage) {
                Some((_, counter)) => counter.incr(1),
                None => {
                    let counter = self.counter(&format!("{}{stage}", names::TRACE_CRITICAL_PREFIX));
                    counter.incr(1);
                    inner.critical.push((stage.clone(), counter));
                }
            }
            self.critical_share.set(share(ns, total));
        }
        let root_id = inner.next_id;
        let start = inner.clock_ns;
        let end = inner.lay_out(self.spans.capacity, root, 0, start);
        inner.clock_ns = end.max(start);
        root_id
    }

    /// Freeze the whole registry into an owned [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(_, v)| v.live.get())
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(_, v)| v.live.get())
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(_, v)| v.count() > 0)
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let (events, events_dropped) = self.events.snapshot();
        let (spans, spans_dropped) = self.spans.snapshot();
        let mut snap = Snapshot {
            counters,
            gauges,
            histograms,
            events,
            events_dropped,
            spans,
            spans_dropped,
        };
        // Ring overflow is surfaced as first-class counters so exporters
        // and dashboards see it without special-casing the snapshot
        // fields (satellite: no silent event drops).
        snap.counters
            .insert(names::EVENTS_DROPPED.to_string(), events_dropped);
        snap.counters
            .insert(names::SPANS_DROPPED.to_string(), spans_dropped);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BatchKind;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in the bucket whose bound brackets it.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 20, u64::MAX - 1] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v} above bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "{v} fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn histogram_stats_and_snapshot() {
        let h = Histogram::default();
        for v in [0u64, 1, 5, 5, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1011);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 → bucket 0; 1 → le=1; 5,5 → le=7; 1000 → le=1023.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (7, 2), (1023, 1)]);
        assert!((s.mean() - 202.2).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.min, s.max), (0, 0, 0));
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn ring_wraparound_keeps_tail_and_counts_drops() {
        let t = Telemetry::with_capacities(4, DEFAULT_SPAN_CAPACITY);
        for i in 0..10u64 {
            t.record(BatchEvent::new(BatchKind::Degraded, i));
        }
        let s = t.snapshot();
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.events_dropped, 6);
        // The tail is retained, with monotone seq numbers 6..=9.
        let seqs: Vec<u64> = s.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(s.events[0].keys, 6);
    }

    #[test]
    fn handles_alias_the_registry() {
        let t = Telemetry::new();
        let c = t.counter("x");
        c.incr(2);
        t.incr("x", 3);
        assert_eq!(t.counter("x").get(), 5);
        t.gauge_set("g", 1.5);
        assert_eq!(t.gauge("g").get(), 1.5);
        t.observe("h", 9);
        assert_eq!(t.histogram("h").count(), 1);
    }

    #[test]
    fn resolved_series_show_once_written() {
        let t = Telemetry::new();
        let (c, g, h) = (t.counter("c"), t.gauge("g"), t.histogram("h"));
        let s = t.snapshot();
        assert!(!s.counters.contains_key("c"));
        assert!(s.gauges.is_empty(), "{:?}", s.gauges);
        assert!(s.histograms.is_empty());
        // A zero bump and a zero set still register, as by name.
        c.incr(0);
        g.set(0.0);
        h.observe(0);
        let s = t.snapshot();
        assert_eq!(s.counters.get("c"), Some(&0));
        assert_eq!(s.gauges.get("g"), Some(&0.0));
        assert_eq!(s.histograms.get("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn span_trees_lay_out_on_the_session_clock() {
        let t = Telemetry::new();
        let batch = SpanNode::node(
            "batch.lookup",
            vec![
                SpanNode::leaf("h2d", 100),
                SpanNode::leaf("kernel", 300),
                SpanNode::leaf("d2h", 50),
            ],
        );
        let id1 = t.record_span_tree(batch.clone());
        let id2 = t.record_span_tree(batch);
        assert!(id1 >= 1 && id2 > id1);
        let s = t.snapshot();
        assert_eq!(s.spans.len(), 8);
        assert_eq!(s.spans_dropped, 0);
        // First tree occupies [0, 450), second starts where it ended.
        assert_eq!((s.spans[0].start_ns, s.spans[0].end_ns), (0, 450));
        assert_eq!((s.spans[4].start_ns, s.spans[4].end_ns), (450, 900));
        // Children point at their root and tile it exactly.
        let kids: Vec<&Span> = s.spans.iter().filter(|x| x.parent == id1).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(kids.iter().map(|x| x.duration_ns()).sum::<u64>(), 450);
    }

    #[test]
    fn span_ring_evicts_oldest_and_counts_drops() {
        let t = Telemetry::with_capacities(DEFAULT_EVENT_CAPACITY, 3);
        let tree = SpanNode::node("root", vec![SpanNode::leaf("leaf", 10)]);
        for _ in 0..3 {
            t.record_span_tree(tree.clone());
        }
        let s = t.snapshot();
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans_dropped, 3);
        assert_eq!(s.counters.get(names::SPANS_DROPPED), Some(&3));
    }

    #[test]
    fn a_tree_larger_than_the_ring_keeps_its_tail() {
        let t = Telemetry::with_capacities(DEFAULT_EVENT_CAPACITY, 3);
        let leaves = (1..=4).map(|i| SpanNode::leaf("leaf", 10 * i)).collect();
        let root = t.record_span_tree(SpanNode::node("root", leaves));
        let s = t.snapshot();
        // The root was evicted before its end was known; its children
        // survive as orphans, laid out back to back.
        assert_eq!(s.spans_dropped, 2);
        let kept: Vec<(u64, u64, u64)> = s
            .spans
            .iter()
            .map(|x| (x.parent, x.start_ns, x.end_ns))
            .collect();
        assert_eq!(kept, [(root, 10, 30), (root, 30, 60), (root, 60, 100)]);
    }

    #[test]
    fn critical_path_counters_name_the_dominant_stage() {
        let t = Telemetry::new();
        let tree = SpanNode::node(
            "sched.batch.lookup",
            vec![
                SpanNode::leaf("sort", 100),
                SpanNode::node(
                    "kernel",
                    vec![SpanNode::leaf("dram", 600), SpanNode::leaf("exec", 200)],
                ),
                SpanNode::leaf("d2h", 100),
            ],
        );
        t.record_span_tree(tree);
        let s = t.snapshot();
        assert_eq!(s.counters.get("cuart.trace.critical.dram"), Some(&1));
        let share = s.gauges.get(names::TRACE_CRITICAL_SHARE).copied().unwrap();
        assert!((share - 0.6).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn dropped_event_counter_lands_in_the_counter_map() {
        let t = Telemetry::with_capacities(2, DEFAULT_SPAN_CAPACITY);
        for i in 0..5u64 {
            t.record(BatchEvent::new(BatchKind::Degraded, i));
        }
        let s = t.snapshot();
        assert_eq!(s.counters.get(names::EVENTS_DROPPED), Some(&3));
        assert_eq!(s.counters.get(names::SPANS_DROPPED), Some(&0));
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let t = Arc::new(Telemetry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let c = t.counter("n");
                    for _ in 0..1000 {
                        c.incr(1);
                        t.observe("lat", 42);
                    }
                });
            }
        });
        assert_eq!(t.counter("n").get(), 8000);
        assert_eq!(t.histogram("lat").count(), 8000);
    }
}
