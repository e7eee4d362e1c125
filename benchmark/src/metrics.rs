//! The metric catalogue — names, units, clocks — and the result of one
//! workload run. `BENCHMARK.json` lists the same names; a test holds the
//! two together.

use std::fmt::Write as _;

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock (or host memory): subject to the sandbox's noise.
    Wall,
    /// The simulator's modeled device clock: repeats exactly.
    Modeled,
    /// A count made by the program or the benchmark.
    Count,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        clock,
        higher_is_better,
    }
}

use Clock::{Count, Modeled, Wall};

/// What a user of the system sees; the untraced run reports these.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Wall, false),
    def("wall_ops_per_s", "1/s", Wall, true),
    def("wall_lat_p50_us", "us", Wall, false),
    def("cpu_us_per_key", "us", Wall, false),
    def("peak_rss_mib", "MiB", Wall, false),
    def("modeled_mops", "Mops/s", Modeled, true),
];

/// Single layers; the traced run reports these. Prefix = crate.
pub const PER_LAYER: &[Def] = &[
    def("workloads.gen_s", "s", Wall, false),
    def("art.build_s", "s", Wall, false),
    def("core.index_build_s", "s", Wall, false),
    def("core.session_open_s", "s", Wall, false),
    def("core.device_mib", "MiB", Count, false),
    def("net.proto_ns_per_key", "ns", Wall, false),
    def("net.wire_self_us_per_req", "us", Wall, false),
    def("net.wire_bytes_per_key", "B", Count, false),
    def("net.allocs_per_key", "count", Count, false),
    def("net.alloc_bytes_per_key", "B", Count, false),
    def("net.frames_in", "count", Count, false),
    def("net.window_stalls", "count", Count, false),
    def("net.error_frames", "count", Count, false),
    def("net.decode_errors", "count", Count, false),
    def("host.sched_self_us_per_req", "us", Wall, false),
    def("host.shard_self_us_per_req", "us", Wall, false),
    def("host.allocs_per_key", "count", Count, false),
    def("host.batches", "count", Count, false),
    def("host.mean_batch_fill", "count", Count, true),
    def("host.deadline_flush_share", "share", Count, false),
    def("host.size_flush_share", "share", Count, true),
    def("host.max_queue_depth", "count", Count, false),
    def("host.shed_ops", "count", Count, false),
    def("host.rejected_ops", "count", Count, false),
    def("host.failed_batches", "count", Count, false),
    def("host.breaker_trips", "count", Count, false),
    def("host.shard_imbalance", "share", Count, false),
    def("host.modeled_mops_served", "Mops/s", Modeled, true),
    def("host.coalesce_efficiency", "share", Modeled, true),
    def("core.cpu_ns_per_key", "ns", Wall, false),
    def("core.session_wall_ns_per_key", "ns", Wall, false),
    def("core.allocs_per_key", "count", Count, false),
    def("gpu-sim.wall_ns_per_access", "ns", Wall, false),
    def("core.overflow_len", "count", Count, false),
    def("core.free_leaves", "count", Count, false),
    def("gpu-sim.modeled_ns_per_key.lookup", "ns", Modeled, false),
    def("gpu-sim.modeled_ns_per_key.update", "ns", Modeled, false),
    def("gpu-sim.modeled_ns_per_key.insert", "ns", Modeled, false),
    def("gpu-sim.modeled_ns_per_key.range", "ns", Modeled, false),
    def("gpu-sim.sectors_per_key", "count", Modeled, false),
    def("gpu-sim.dram_tx_per_key", "count", Modeled, false),
    def("gpu-sim.raw_accesses_per_key", "count", Modeled, false),
    def("gpu-sim.l2_hit_rate", "share", Modeled, true),
    def("gpu-sim.warp_efficiency", "share", Modeled, true),
    def("gpu-sim.stage_share.h2d", "share", Modeled, false),
    def("gpu-sim.stage_share.dram", "share", Modeled, false),
    def("gpu-sim.stage_share.exec", "share", Modeled, true),
    def("gpu-sim.stage_share.d2h", "share", Modeled, false),
    def("telemetry.overhead_share", "share", Wall, false),
    def("telemetry.spans_dropped", "count", Count, false),
    def("telemetry.events_dropped", "count", Count, false),
    def("client.lat_tail_us", "us", Wall, false),
    def("client.lat_tail_pct", "pct", Count, true),
    def("client.lat_max_us", "us", Wall, false),
    def("client.requests", "count", Count, true),
    def("client.segment_spread", "share", Wall, false),
    def("client.trace_overhead_share", "share", Wall, false),
];

/// Values for every entry of one catalogue, in catalogue order.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record `name`; a name outside the catalogue is a bug in the caller.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values[at] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// Record several metrics sharing a prefix.
    pub fn set_all(&mut self, prefix: &str, values: &[(&str, f64)]) {
        for (suffix, v) in values {
            self.set(&format!("{prefix}{suffix}"), *v);
        }
    }

    /// Every entry with its value; a layer the workload does not touch reads 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.unwrap_or(0.0)))
    }
}

/// One workload, one mode, one seed.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: &'static str,
    /// `run` (untraced, end-to-end metrics) or `trace` (the ladder).
    pub mode: &'static str,
    pub seed: u64,
    /// Requests sent, every rung and pass included.
    pub attempted: u64,
    /// Requests failed, refused or answered wrongly, plus error frames.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// FNV-1a of the first generated segment: same seed, same bytes.
    pub stream_hash: u64,
    pub metrics: Metrics,
}

impl WorkloadResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the driver reads: one JSON object.
    pub fn driver_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }

    /// `workload metric value unit clock`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.metrics.iter() {
            writeln!(
                out,
                "{} {} {v} {} {}",
                self.workload,
                d.name,
                d.unit,
                d.clock.as_str()
            )
            .expect("write to String");
        }
        writeln!(
            out,
            "{} failed_share {} share count",
            self.workload,
            self.failed_share()
        )
        .expect("write to String");
        out
    }

    /// This result as one entry of a run-set file's `runs` array.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"seed\":{},\"attempted\":{},\"failed\":{},\
             \"failed_share\":{},\"stream_hash\":\"{:016x}\",\"metrics\":{{",
            self.workload,
            self.mode,
            self.seed,
            self.attempted,
            self.failed,
            self.failed_share(),
            self.stream_hash
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\"{}\":{{\"value\":{v},\"unit\":\"{}\",\"clock\":\"{}\"}}",
                d.name,
                d.unit,
                d.clock.as_str()
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart_telemetry::json::{self, Value};

    fn sample() -> WorkloadResult {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 1.25);
        metrics.set("modeled_mops", f64::NAN);
        WorkloadResult {
            workload: "direct-batch",
            mode: "run",
            seed: 3,
            attempted: 40,
            failed: 1,
            first_failure: None,
            stream_hash: 0xAB,
            metrics,
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let doc = json::parse(&sample().driver_json()).expect("valid JSON");
        let Value::Obj(top) = &doc else {
            panic!("object")
        };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(40));
        let Some(Value::Obj(m)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(m.len(), END_TO_END.len());
        let setup = &m["setup_s"];
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        // Unset and non-finite values read 0 rather than breaking the JSON.
        assert_eq!(
            m["modeled_mops"].get("value").and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn run_entry_carries_a_clock_on_every_metric() {
        let doc = json::parse(&sample().to_json()).expect("valid JSON");
        let Some(Value::Obj(m)) = doc.get("metrics") else {
            panic!("metrics")
        };
        for (name, v) in m {
            let clock = v.get("clock").and_then(Value::as_str);
            assert!(
                matches!(clock, Some("wall" | "modeled" | "count")),
                "{name}"
            );
        }
        assert_eq!(
            m["modeled_mops"].get("clock").and_then(Value::as_str),
            Some("modeled")
        );
        assert_eq!(doc.get("failed_share").and_then(Value::as_f64), Some(0.025));
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` and the catalogue must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(
                    l.get("unit").and_then(Value::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    l.get("better").and_then(Value::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
            }
        }
        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<_> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let specs: Vec<_> = crate::workload::WORKLOADS.iter().map(|s| s.name).collect();
        assert_eq!(names, specs);
    }
}
