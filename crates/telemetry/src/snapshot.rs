//! Point-in-time snapshots and the JSON / Prometheus text exporters.
//!
//! A [`Snapshot`] is a plain, fully-owned copy of the registry taken under
//! short read locks; exporting it never touches the live metrics again.
//! Both exporters emit keys in deterministic (BTreeMap) order so snapshots
//! of identical sessions are byte-identical — the golden tests rely on it.

#![expect(
    clippy::expect_used,
    reason = "every `.expect(\"string write\")` here is `fmt::Write` into a `String`, which is infallible; threading a `fmt::Error` out of the exporters would be dead code"
)]

use crate::event::BatchEvent;
use crate::json::escape;
use crate::tracing::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Frozen state of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty log2 buckets as `(inclusive upper bound, count)`,
    /// ascending. Bucket bounds are `0, 1, 3, 7, …, 2^k - 1, …, u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Frozen state of a whole [`Telemetry`](crate::Telemetry) registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last-write-wins) by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// The retained tail of the state-transition events, oldest first.
    pub events: Vec<BatchEvent>,
    /// Events evicted from the bounded ring before this snapshot.
    pub events_dropped: u64,
    /// The retained tail of the hierarchical span store, oldest first.
    pub spans: Vec<Span>,
    /// Spans evicted from the bounded span store before this snapshot.
    pub spans_dropped: u64,
}

/// Render an `f64` as JSON (finite → shortest round-trip form, non-finite
/// → `null`, integral values keep a trailing `.0`).
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Sanitize a metric name for the Prometheus text format:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Snapshot {
    /// Serialize the snapshot as a single JSON object.
    ///
    /// Layout: `{"counters":{...},"gauges":{...},"histograms":{...},`
    /// `"events":[...],"events_dropped":N,"spans":[...],`
    /// `"spans_dropped":N}` with keys in sorted order, so identical
    /// sessions export byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":{v}", escape(name)).expect("string write");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":{}", escape(name), json_f64(*v)).expect("string write");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"buckets\":[",
                escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                json_f64(h.mean()),
            )
            .expect("string write");
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(out, "{{\"le\":{le},\"count\":{n}}}").expect("string write");
            }
            out.push_str("]}");
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"seq\":{},\"kind\":\"{}\",\"keys\":{}}}",
                e.seq,
                e.kind.as_str(),
                e.keys
            )
            .expect("string write");
        }
        write!(out, "],\"events_dropped\":{}", self.events_dropped).expect("string write");
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.id,
                s.parent,
                escape(&s.name),
                s.start_ns,
                s.end_ns,
            )
            .expect("string write");
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(out, "\"{}\":\"{}\"", escape(k), escape(v)).expect("string write");
            }
            out.push_str("}}");
        }
        write!(out, "],\"spans_dropped\":{}}}", self.spans_dropped).expect("string write");
        out
    }

    /// Serialize counters, gauges and histograms in the Prometheus text
    /// exposition format. Events are summarised (`cuart_events_dropped`),
    /// not dumped — traces do not fit the format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            writeln!(out, "# TYPE {n} counter").expect("string write");
            writeln!(out, "{n} {v}").expect("string write");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            writeln!(out, "# TYPE {n} gauge").expect("string write");
            writeln!(out, "{n} {v}").expect("string write");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            writeln!(out, "# TYPE {n} histogram").expect("string write");
            let mut cumulative = 0u64;
            for (le, count) in &h.buckets {
                cumulative += count;
                if *le == u64::MAX {
                    writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cumulative}").expect("string write");
                } else {
                    writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}").expect("string write");
                }
            }
            if h.buckets.last().map(|(le, _)| *le) != Some(u64::MAX) {
                writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cumulative}").expect("string write");
            }
            writeln!(out, "{n}_sum {}", h.sum).expect("string write");
            writeln!(out, "{n}_count {}", h.count).expect("string write");
        }
        writeln!(out, "# TYPE cuart_events_dropped counter").expect("string write");
        writeln!(out, "cuart_events_dropped {}", self.events_dropped).expect("string write");
        writeln!(out, "# TYPE cuart_spans_dropped counter").expect("string write");
        writeln!(out, "cuart_spans_dropped {}", self.spans_dropped).expect("string write");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BatchKind;

    #[test]
    fn json_escaping_and_floats() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn prometheus_name_sanitization() {
        assert_eq!(prom_name("cuart.lookup.batches"), "cuart_lookup_batches");
        assert_eq!(prom_name("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn empty_snapshot_exports() {
        let s = Snapshot::default();
        assert_eq!(
            s.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"events\":[],\
             \"events_dropped\":0,\"spans\":[],\"spans_dropped\":0}"
        );
        let prom = s.to_prometheus();
        assert!(prom.contains("cuart_events_dropped 0"));
        assert!(prom.contains("cuart_spans_dropped 0"));
        // An empty registry exposes exactly the two overflow counters.
        assert_eq!(prom.lines().count(), 4);
        assert!(prom.lines().all(|l| !l.is_empty()));
    }

    #[test]
    fn exports_are_deterministic_regardless_of_insert_order() {
        let build = |order: &[&str]| {
            let mut s = Snapshot::default();
            for (i, name) in order.iter().enumerate() {
                s.counters.insert(name.to_string(), i as u64 + 1);
                s.gauges.insert(format!("g.{name}"), i as f64);
            }
            s
        };
        let mut a = build(&["zeta", "alpha", "mid"]);
        let mut b = build(&["alpha", "mid", "zeta"]);
        // Same final contents regardless of insertion order…
        for s in [&mut a, &mut b] {
            for (i, name) in ["zeta", "alpha", "mid"].iter().enumerate() {
                s.counters.insert(name.to_string(), i as u64 + 1);
                s.gauges.insert(format!("g.{name}"), i as f64);
            }
        }
        // …exports byte-identical text.
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        // Keys come out sorted.
        let json = a.to_json();
        let alpha = json.find("\"alpha\"").unwrap();
        let mid = json.find("\"mid\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < mid && mid < zeta);
    }

    #[test]
    fn prometheus_escapes_hostile_metric_names() {
        let mut s = Snapshot::default();
        s.counters.insert("weird name{with}\"chars\"".into(), 7);
        let prom = s.to_prometheus();
        assert!(prom.contains("weird_name_with__chars_ 7"));
        assert!(!prom
            .lines()
            .any(|l| !l.starts_with('#') && l.contains('{') && !l.contains("le=")));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_with_inf() {
        let mut s = Snapshot::default();
        s.histograms.insert(
            "cuart.lookup.kernel_ns".into(),
            HistogramSnapshot {
                count: 4,
                sum: 1040,
                min: 1,
                max: 1000,
                buckets: vec![(1, 1), (31, 2), (1023, 1)],
            },
        );
        let prom = s.to_prometheus();
        let lines: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("cuart_lookup_kernel_ns"))
            .collect();
        assert_eq!(
            lines,
            vec![
                "cuart_lookup_kernel_ns_bucket{le=\"1\"} 1",
                "cuart_lookup_kernel_ns_bucket{le=\"31\"} 3",
                "cuart_lookup_kernel_ns_bucket{le=\"1023\"} 4",
                "cuart_lookup_kernel_ns_bucket{le=\"+Inf\"} 4",
                "cuart_lookup_kernel_ns_sum 1040",
                "cuart_lookup_kernel_ns_count 4",
            ]
        );
    }

    #[test]
    fn spans_serialize_with_escaped_attrs() {
        let mut s = Snapshot::default();
        s.spans.push(Span {
            id: 1,
            parent: 0,
            name: "batch.lookup".into(),
            start_ns: 0,
            end_ns: 450,
            attrs: vec![
                ("keys".into(), "16".into()),
                ("q\"uote".into(), "a\nb".into()),
            ],
        });
        s.spans_dropped = 2;
        let json = s.to_json();
        assert!(json.contains("\"spans\":[{\"id\":1,\"parent\":0,\"name\":\"batch.lookup\""));
        assert!(json.contains("\"q\\\"uote\":\"a\\nb\""));
        assert!(json.contains("\"spans_dropped\":2"));
        let v = crate::json::parse(&json).expect("snapshot JSON parses");
        let spans = v.get("spans").and_then(|x| x.as_array()).unwrap();
        assert_eq!(spans[0].get("end_ns").and_then(|n| n.as_u64()), Some(450));
    }

    #[test]
    fn event_serializes_all_fields() {
        let mut s = Snapshot::default();
        let mut e = BatchEvent::new(BatchKind::Degraded, 4);
        e.seq = 9;
        s.events.push(e);
        let json = s.to_json();
        assert!(json.contains("\"events\":[{\"seq\":9,\"kind\":\"degraded\",\"keys\":4}]"));
    }
}
