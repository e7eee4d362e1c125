//! Wall-clock spans recorded by the benchmark around each call into a
//! layer, their self times, and the Chrome-trace export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds on the process-wide monotonic clock all spans share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One call into one layer for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique among the spans of a run; never 0.
    pub id: u64,
    /// The enclosing layer's span for the same request; 0 for none.
    pub parent: u64,
    /// Rung name (`proto`, `cpu`, `session`, `sched`, `sharded`, `wire`).
    pub name: &'static str,
    /// Shared by the spans of one request across all rungs.
    pub request_id: u64,
    /// The closed-loop caller that issued the request.
    pub client: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, grouped by span name: its duration minus the
/// durations of the spans that name it as parent. The rungs are separate
/// replays, so a child's interval does not lie inside its parent's and the
/// difference can be negative (two shards in parallel beat one scheduler).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children_ns.entry(s.parent).or_insert(0) += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let covered = children_ns.get(&s.id).copied().unwrap_or(0);
        out.entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 - covered as f64);
    }
    out
}

/// Chrome-trace / Perfetto JSON: one complete ("X") event per span, one
/// process row per rung and one thread row per caller, so the two
/// closed-loop callers of a rung never overlap on a row.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut pids: Vec<&'static str> = Vec::new();
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let pid = match pids.iter().position(|n| *n == s.name) {
            Some(p) => p,
            None => {
                pids.push(s.name);
                pids.len() - 1
            }
        };
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request_id\":{}}}}}",
            s.name,
            pid + 1,
            s.client + 1,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.request_id,
        )
        .expect("write to String");
    }
    for (p, name) in pids.iter().enumerate() {
        write!(
            out,
            ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"rung {}\"}}}}",
            p + 1,
            name
        )
        .expect("write to String");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, req: u64, dur: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request_id: req,
            client: 0,
            start_ns: 100,
            end_ns: 100 + dur,
        }
    }

    #[test]
    fn self_time_subtracts_every_child_of_the_same_request() {
        let spans = [
            // Request 1: wire 500 ⊃ {sched 300 ⊃ session 40, proto 20}.
            span(1, 0, "wire", 1, 500),
            span(2, 1, "sched", 1, 300),
            span(3, 2, "session", 1, 40),
            span(4, 1, "proto", 1, 20),
            // Request 2: wire 400 ⊃ sched 450 — a negative self time.
            span(5, 0, "wire", 2, 400),
            span(6, 5, "sched", 2, 450),
            // A standalone rung.
            span(7, 0, "cpu", 1, 9),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st["wire"], vec![180.0, -50.0]);
        assert_eq!(st["sched"], vec![260.0, 450.0]);
        assert_eq!(st["session"], vec![40.0]);
        assert_eq!(st["proto"], vec![20.0]);
        assert_eq!(st["cpu"], vec![9.0]);
        // Self times of one request's tree add back up to its root span.
        let sum: f64 = ["wire", "sched", "session", "proto"]
            .iter()
            .map(|n| st[n][0])
            .sum();
        assert_eq!(sum, 500.0);
    }

    #[test]
    fn chrome_export_parses_and_keeps_ids() {
        let spans = [span(1, 0, "wire", 7, 1500), span(2, 1, "sched", 7, 250)];
        let doc = cuart_telemetry::json::parse(&to_chrome_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // Two spans plus one process-name record per rung.
        assert_eq!(events.len(), 4);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(args.get("request_id").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(events[0].get("dur").and_then(|v| v.as_f64()), Some(1.5));
    }
}
