//! # cuart-cli — build, persist and query CuART indexes from the shell
//!
//! `cuart help` lists every command and flag. Key files hold one key per
//! line — raw text, or hex pairs with `--hex`; a `key<TAB>value` line sets
//! the value, which is otherwise the key's (1-based) line number.
//!
//! One module per command (`index`, `bench`, `serve`, `spill`), each
//! taking the library's own configuration types — [`DeviceConfig`],
//! [`FaultConfig`](cuart_gpu_sim::FaultConfig),
//! [`SchedulerConfig`](cuart_host::scheduler::SchedulerConfig),
//! [`NetServerConfig`](cuart_net::NetServerConfig) — and writing its files
//! through one [`Spill`]. The binary is a thin argument parser: one flag
//! table drives its parsing, its refusals and its usage text.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cuart::CuartIndex;
use cuart_gpu_sim::{devices, DeviceConfig};
use std::path::Path;
use std::time::Duration;

mod bench;
mod index;
mod serve;
mod spill;

pub use bench::cmd_bench;
pub use index::{cmd_build, cmd_get, cmd_info, cmd_range, cmd_verify_snapshot};
pub use serve::{cmd_bench_net, cmd_serve, Target};
pub use spill::{cmd_verify_trace, Spill};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// I/O failure (file missing, unreadable, …).
    Io(std::io::Error),
    /// Malformed input (bad hex, bad value, prefix violation, …).
    Input(String),
    /// Engine failure surfaced by the CuART core (device fault, corrupt
    /// snapshot, …).
    Engine(cuart::CuartError),
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<cuart::CuartError> for CliError {
    fn from(e: cuart::CuartError) -> Self {
        CliError::Engine(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Input(msg) => write!(f, "{msg}"),
            CliError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

/// Parse one key: raw bytes, or hex when `hex` is set — pairs of
/// `[0-9a-fA-F]`, nothing else (no sign, no multi-byte character).
pub fn parse_key(s: &str, hex: bool) -> Result<Vec<u8>, CliError> {
    if !hex {
        return Ok(s.as_bytes().to_vec());
    }
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(CliError::Input(format!("odd-length hex key {s:?}")));
    }
    let nibble = |b: u8| char::from(b).to_digit(16);
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => Ok(((hi << 4) | lo) as u8),
            _ => Err(CliError::Input(format!("bad hex key {s:?}"))),
        })
        .collect()
}

/// Load `key` or `key<TAB>value` lines.
pub fn load_key_file(path: &Path, hex: bool) -> Result<Vec<(Vec<u8>, u64)>, CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (key_part, value) = match line.split_once('\t') {
            Some((k, v)) => {
                let value = v
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| CliError::Input(format!("line {}: bad value {v:?}", i + 1)))?;
                (k, value)
            }
            None => (line, i as u64 + 1),
        };
        out.push((parse_key(key_part, hex)?, value));
    }
    if out.is_empty() {
        return Err(CliError::Input(format!("{}: no keys", path.display())));
    }
    Ok(out)
}

/// Resolve a device name.
pub fn device_by_name(name: &str) -> Result<DeviceConfig, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "a100" | "server" => devices::a100(),
        "rtx3090" | "3090" | "workstation" => devices::rtx3090(),
        "gtx1070" | "1070" | "notebook" => devices::gtx1070(),
        other => {
            return Err(CliError::Input(format!(
                "unknown device {other:?} (a100 | rtx3090 | gtx1070)"
            )))
        }
    })
}

/// Resolve a comma-separated device list (`--device A,B,…`): one device,
/// or one per key-space shard.
pub fn devices_by_name(list: &str) -> Result<Vec<DeviceConfig>, CliError> {
    let devs: Vec<DeviceConfig> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(device_by_name)
        .collect::<Result<_, _>>()?;
    if devs.is_empty() {
        return Err(CliError::Input("--device names no device".into()));
    }
    Ok(devs)
}

/// Every stored `(key, value)` of the index in key order; the workload
/// the commands replay. An empty index is an input error.
fn stored_keys(index: &CuartIndex) -> Result<Vec<(Vec<u8>, u64)>, CliError> {
    let b = index.buffers();
    let stored = cuart::range::range_query(b, &[0u8], &vec![0xFFu8; b.max_key_len.max(1)]);
    if stored.is_empty() {
        return Err(CliError::Input("index is empty".into()));
    }
    Ok(stored)
}

/// Both clocks on one line, each labelled: the modeled device clock (what
/// the paper's figures and `fig-regress` read) and the host wall clock
/// (what running the simulator and the serving stack costs on this
/// machine). `modeled_ns` is summed modeled time, `wall` the measured span.
fn two_clock_line(keys: u64, modeled_ns: f64, wall: Duration) -> String {
    let modeled = if modeled_ns > 0.0 {
        format!("{:.1} MOps/s", keys as f64 / modeled_ns * 1e3)
    } else {
        "no device batches completed".to_string()
    };
    let wall_s = wall.as_secs_f64();
    format!(
        "modeled device clock: {modeled}; host wall clock: {:.0} keys/s ({keys} keys in {:.1} ms)",
        if wall_s > 0.0 {
            keys as f64 / wall_s
        } else {
            0.0
        },
        wall_s * 1e3,
    )
}

// The crate's unit tests stay in one module, so a test's path does not
// depend on which command module holds the code it covers.
#[cfg(test)]
mod tests {
    use super::*;
    use cuart_gpu_sim::{devices, FaultConfig, FaultInjector};
    use cuart_host::scheduler::{AdmissionPolicy, SchedulerConfig};
    use cuart_net::NetServerConfig;
    use std::path::Path;
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cuart-cli-{name}-{}", std::process::id()))
    }

    fn write_keys(name: &str, lines: &[&str]) -> std::path::PathBuf {
        let p = tmp(name);
        std::fs::write(&p, lines.join("\n")).unwrap();
        p
    }

    /// A key file of `n` keys `00000000, 00000001, …` (each valued by its
    /// number) and the index built from it.
    fn fixture(name: &str, n: u64) -> (std::path::PathBuf, std::path::PathBuf) {
        let lines: Vec<String> = (0..n).map(|i| format!("{i:08}\t{i}")).collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let keys = write_keys(name, &refs);
        let idx = tmp(&format!("{name}-idx"));
        cmd_build(&keys, &idx, false, 2).unwrap();
        (keys, idx)
    }

    /// A self-hosted `bench-net` run of `clients` × `ops` lookups in
    /// 64-key frames against the server `sched` configures on one GTX 1070.
    fn hosted(
        idx: &Path,
        clients: usize,
        ops: usize,
        smoke: bool,
        sched: SchedulerConfig,
        spill: Spill,
    ) -> Result<String, CliError> {
        let devs = vec![devices::gtx1070()];
        let target = Target::Host { devs, sched, spill };
        cmd_bench_net(idx, target, clients, ops, 64, smoke)
    }

    fn metrics(path: &Path) -> Spill {
        Spill {
            metrics: Some(path.into()),
            ..Spill::default()
        }
    }

    #[test]
    fn parse_keys_raw_and_hex() {
        assert_eq!(parse_key("abc", false).unwrap(), b"abc");
        assert_eq!(parse_key("00ff10", true).unwrap(), vec![0, 255, 16]);
        assert!(parse_key("0f0", true).is_err());
        assert!(parse_key("zz", true).is_err());
    }

    /// Only pairs of hex digits are a hex key: a multi-byte character is
    /// refused, not sliced mid-character, and so is a sign, which
    /// `u8::from_str_radix` would take as part of a byte.
    #[test]
    fn hex_keys_take_hex_digits_only() {
        assert_eq!(parse_key("aBcD", true).unwrap(), vec![0xab, 0xcd]);
        for key in ["aéb", "+1ff", "-1ff", " +1", "0x"] {
            let err = parse_key(key, true).unwrap_err();
            assert!(err.to_string().contains("bad hex key"), "{key:?}: {err}");
        }
    }

    #[test]
    fn key_file_with_and_without_values() {
        let p = write_keys("kv", &["alpha\t100", "beta", "gamma\t7"]);
        let pairs = load_key_file(&p, false).unwrap();
        assert_eq!(pairs[0], (b"alpha".to_vec(), 100));
        assert_eq!(pairs[1], (b"beta".to_vec(), 2)); // line number
        assert_eq!(pairs[2], (b"gamma".to_vec(), 7));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn build_info_get_roundtrip() {
        let keys = write_keys("build", &["key-alpha\t11", "key-beta\t22", "key-gamma\t33"]);
        let idx = tmp("build-idx");
        let msg = cmd_build(&keys, &idx, false, 2).unwrap();
        assert!(msg.contains("built 3 keys"), "{msg}");
        let info = cmd_info(&idx).unwrap();
        assert!(info.contains("keys:            3"), "{info}");
        assert_eq!(cmd_get(&idx, "key-beta", false).unwrap(), "22");
        assert_eq!(cmd_get(&idx, "key-nope", false).unwrap(), "(not found)");
        std::fs::remove_file(keys).ok();
        std::fs::remove_file(idx).ok();
    }

    #[test]
    fn range_and_bench_with_a_key_file() {
        let lines: Vec<String> = (0..500u64)
            .map(|i| format!("{:08}\t{}", i * 3, i))
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let keys = write_keys("range", &refs);
        let idx = tmp("range-idx");
        cmd_build(&keys, &idx, false, 2).unwrap();

        let out = cmd_range(&idx, "00000030", "00000060", false, 100).unwrap();
        assert!(out.contains("(11 rows total)"), "{out}");

        // Probes from a key file, one of them a miss.
        let probes = write_keys("probes", &["00000030", "00000031", "00000033"]);
        let loaded = load_key_file(&probes, false).unwrap();
        let rtx = devices::rtx3090();
        let none = Spill::default();
        let out = cmd_bench(&idx, Some(loaded), &rtx, 3, 1, None, &none).unwrap();
        assert!(out.starts_with("3 lookups in 1 batches of 3"), "{out}");
        assert!(out.contains(": 2/3 hits, "), "{out}");
        assert!(out.contains(" DRAM transactions, "), "{out}");
        assert!(out.contains("% L2 hits\n"), "{out}");

        // Without a key file the stored keys are replayed: all hits.
        let out = cmd_bench(&idx, None, &devices::a100(), 256, 2, None, &none).unwrap();
        assert!(out.contains(": 512/512 hits, "), "{out}");
        assert!(out.contains("modeled device clock: "), "{out}");
        assert!(out.contains(" MOps/s; host wall clock: "), "{out}");
        assert!(out.contains(" keys/s (512 keys in "), "{out}");

        for p in [keys, idx, probes] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bench_spills_metrics_by_file_name() {
        let lines: Vec<String> = (0..200u64).map(|i| format!("{:08}\t{}", i, i)).collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let keys = write_keys("metrics", &refs);
        let idx = tmp("metrics-idx");
        cmd_build(&keys, &idx, false, 2).unwrap();
        let spill = |out: &Path| {
            let spill = Spill {
                metrics: Some(out.into()),
                ..Spill::default()
            };
            let msg = cmd_bench(&idx, None, &devices::a100(), 64, 2, None, &spill).unwrap();
            assert!(msg.contains("\nmetrics -> "), "{msg}");
            std::fs::read_to_string(out).unwrap()
        };

        // A `.prom` path gets Prometheus text.
        let prom_file = tmp("metrics-out").with_extension("prom");
        let prom = spill(&prom_file);
        assert!(prom.contains("cuart_events_dropped"), "{prom}");
        assert!(prom.contains("cuart_lookup_batches 2"), "{prom}");
        // Lookups share the whole image and own none of it.
        assert!(prom.contains("cuart_device_owned_bytes 0"), "{prom}");
        // Any other path gets JSON.
        let json_file = tmp("metrics-out").with_extension("json");
        let json = spill(&json_file);
        assert!(json.starts_with('{'), "{json}");
        assert!(json.contains("\"cuart.lookup.batches\":2"), "{json}");
        assert!(json.contains("\"name\":\"batch.lookup\""), "{json}");
        assert!(json.contains("\"cuart.device.shared_bytes\":"), "{json}");

        for p in [keys, idx, prom_file, json_file] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(cmd_info(Path::new("/nonexistent.cuart")).is_err());
        assert!(device_by_name("tpu").is_err());
        // A list that names no device, or an unknown one, is refused.
        for list in [",", "rtx3090,tpu"] {
            let err = devices_by_name(list);
            assert!(matches!(err, Err(CliError::Input(_))), "{list}: {err:?}");
        }
        assert_eq!(devices_by_name("rtx3090, gtx1070").unwrap().len(), 2);
        let empty = tmp("empty");
        std::fs::write(&empty, "").unwrap();
        assert!(load_key_file(&empty, false).is_err());
        std::fs::remove_file(empty).ok();
        // Prefix-violating key set is rejected with a clear message.
        let bad = write_keys("bad", &["ab", "abc"]);
        let idx = tmp("bad-idx");
        let err = cmd_build(&bad, &idx, false, 0).unwrap_err();
        assert!(format!("{err}").contains("prefix"), "{err}");
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn verify_snapshot_accepts_good_and_rejects_corrupt() {
        let keys = write_keys("verify", &["key-a\t1", "key-b\t2"]);
        let idx = tmp("verify-idx");
        cmd_build(&keys, &idx, false, 2).unwrap();
        let ok = cmd_verify_snapshot(&idx).unwrap();
        assert!(ok.contains("OK"), "{ok}");
        assert!(ok.contains("2 keys"), "{ok}");
        // Bit-flip the tail and watch it bounce.
        let mut bytes = std::fs::read(&idx).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let bad = tmp("verify-bad");
        std::fs::write(&bad, &bytes).unwrap();
        let err = cmd_verify_snapshot(&bad).unwrap_err();
        assert!(format!("{err}").contains("snapshot corrupt"), "{err}");
        for p in [keys, idx, bad] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn fault_flags_run_and_report() {
        let (keys, idx) = fixture("faultopts", 300);
        let probes = load_key_file(&keys, false).unwrap();
        let faults = Some(FaultConfig::uniform(7, 0.05));
        let rtx = devices::rtx3090();
        let out = cmd_bench(&idx, Some(probes), &rtx, 100, 3, faults, &Spill::default()).unwrap();
        assert!(out.contains("\nfaults: "), "{out}");
        // Whatever the injector did, results must still be correct: every
        // stored key hits.
        assert!(out.contains(": 300/300 hits, "), "{out}");
        std::fs::remove_file(keys).ok();
        std::fs::remove_file(idx).ok();
    }

    #[test]
    fn trace_exports_verify_clean() {
        let (keys, idx) = fixture("trace", 300);
        let (trace, folded) = (tmp("trace-json"), tmp("trace-folded"));
        let spill = Spill {
            metrics: None,
            trace: Some(trace.clone()),
            folded: Some(folded.clone()),
        };
        let out = cmd_bench(&idx, None, &devices::rtx3090(), 128, 4, None, &spill).unwrap();
        assert!(out.starts_with("512 lookups in 4 batches of 128"), "{out}");
        assert!(out.contains("\ntrace -> "), "{out}");
        assert_eq!(out.matches(": critical path ").count(), 4, "{out}");
        let verdict = cmd_verify_trace(&trace).unwrap();
        assert!(verdict.contains("OK"), "{verdict}");
        assert!(verdict.contains("4 batch trees"), "{verdict}");
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(stacks.contains("batch.lookup;"), "{stacks}");
        for p in [keys, idx, trace, folded] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn verify_trace_rejects_malformed_files() {
        let bad = tmp("bad-trace");
        std::fs::write(&bad, "{not json").unwrap();
        assert!(matches!(cmd_verify_trace(&bad), Err(CliError::Input(_))));
        // Parses, but a child escapes its parent's interval.
        std::fs::write(
            &bad,
            r#"{"traceEvents":[
                {"name":"batch.lookup","ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"args":{"id":1,"parent":0}},
                {"name":"kernel","ph":"X","pid":1,"tid":1,"ts":5,"dur":10,"args":{"id":2,"parent":1}}
            ]}"#,
        )
        .unwrap();
        let err = cmd_verify_trace(&bad).unwrap_err();
        assert!(err.to_string().contains("escapes parent"), "{err}");
        // Nests fine, but the leaves don't sum to the root.
        std::fs::write(
            &bad,
            r#"{"traceEvents":[
                {"name":"batch.lookup","ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"args":{"id":1,"parent":0}},
                {"name":"kernel","ph":"X","pid":1,"tid":1,"ts":0,"dur":4,"args":{"id":2,"parent":1}}
            ]}"#,
        )
        .unwrap();
        let err = cmd_verify_trace(&bad).unwrap_err();
        assert!(err.to_string().contains("leaf durations"), "{err}");
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn bench_net_self_hosted_drill_drains_cleanly() {
        let (keys, idx) = fixture("bench-net", 400);
        let spill = tmp("bench-net-metrics");
        let out = hosted(
            &idx,
            2,
            512,
            false,
            SchedulerConfig::default(),
            metrics(&spill),
        )
        .unwrap();
        assert!(out.contains("512 lookups from 2 client(s)"), "{out}");
        assert!(out.contains("512 hits"), "{out}");
        assert!(out.contains("ops/s goodput"), "{out}");
        assert!(out.contains("drained"), "{out}");
        assert!(out.contains("512 ops served"), "{out}");
        let written = std::fs::read_to_string(&spill).unwrap();
        assert!(written.contains("cuart.net.frames_out"), "{written}");
        assert!(written.contains("cuart.net.drained"), "{written}");
        for p in [keys, idx, spill] {
            std::fs::remove_file(p).ok();
        }
    }

    /// The serving simulation: producers drive a self-hosted server's
    /// scheduler, which reports both clocks and spills its series.
    #[test]
    fn serve_sim_runs_producers_and_reports() {
        let (keys, idx) = fixture("serve", 400);
        let spill = tmp("serve-metrics");
        let out = hosted(
            &idx,
            2,
            512,
            false,
            SchedulerConfig::default(),
            metrics(&spill),
        )
        .unwrap();
        assert!(out.contains("512 lookups from 2 client(s)"), "{out}");
        assert!(out.contains("512 hits, 0 refused"), "{out}");
        assert!(
            out.contains(" MOps/s; host wall clock: ") && out.contains(" keys/s (512 keys in "),
            "both clocks, labelled: {out}"
        );
        assert!(out.contains("metrics ->"), "{out}");
        let written = std::fs::read_to_string(&spill).unwrap();
        assert!(written.contains("cuart.sched.batches"), "{written}");
        assert!(written.contains("cuart.sched.enqueued"), "{written}");
        for p in [keys, idx, spill] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bench_net_sharded_fleet_reports_per_shard() {
        let (keys, idx) = fixture("sharded", 400);
        let spill = tmp("sharded-metrics");
        let target = Target::Host {
            devs: devices_by_name("rtx3090, gtx1070").unwrap(),
            sched: SchedulerConfig::default(),
            spill: metrics(&spill),
        };
        let out = cmd_bench_net(&idx, target, 2, 2048, 64, false).unwrap();
        assert!(out.contains("2048 hits"), "{out}");
        assert!(out.contains("routed over 2 shards"), "{out}");
        assert!(out.contains("modeled scale-out"), "{out}");
        assert!(out.contains(" MOps/s; host wall clock: "), "{out}");
        assert!(out.contains("shard 0 (NVIDIA RTX 3090"), "{out}");
        assert!(out.contains("shard 1 (NVIDIA GTX 1070"), "{out}");
        // The per-shard twins sum to the global series exactly (a shard
        // no key routed to has no series).
        let doc = cuart_telemetry::json::parse(&std::fs::read_to_string(&spill).unwrap()).unwrap();
        let counter = |name: &str| {
            let value = doc.get("counters").unwrap().get(name);
            value.map_or(0, |v| v.as_u64().unwrap())
        };
        assert!(counter("cuart.sched.routed_requests") > 0);
        let twins: u64 = (0..2)
            .map(|i| counter(&format!("cuart.sched.shard.{i}.enqueued")))
            .sum();
        assert_eq!(twins, counter("cuart.sched.enqueued"));
        assert!(twins > 0);
        for p in [keys, idx, spill] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bench_net_overload_drill_sheds_and_recovers() {
        let (keys, idx) = fixture("overload", 400);
        let spill = tmp("overload-metrics");
        let sched = SchedulerConfig {
            fault_injector: Some(FaultInjector::uniform(7, 0.05)),
            admission: AdmissionPolicy::Reject,
            queue_cap: 4096,
            op_deadline: Some(Duration::from_micros(500)),
            ..SchedulerConfig::default()
        };
        // Smoke: the pinned load, the deterministic fault storm, the
        // recovery drive and the shed probe.
        let out = hosted(&idx, 2, 512, true, sched, metrics(&spill)).unwrap();
        let shed: u64 = out
            .split(" shed / ")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no shed count: {out}"));
        assert!(shed > 0, "the shed probe guarantees a shed op: {out}");
        // The storm tripped the breaker and the drill drove it back to
        // recovery: both ends of the walk land in the spill, in order.
        let written = std::fs::read_to_string(&spill).unwrap();
        assert!(written.contains("cuart.sched.breaker_trips"), "{written}");
        assert!(written.contains("cuart.sched.shed"), "{written}");
        let open = written
            .find("\"breaker_open\"")
            .expect("breaker_open event");
        let recovered = written.find("\"recovered\"").expect("recovered event");
        assert!(open < recovered, "{written}");
        for p in [keys, idx, spill] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bench_net_smoke_writes_verifiable_trace() {
        let (keys, idx) = fixture("smoke", 400);
        let trace = tmp("smoke-trace");
        let spill = Spill {
            trace: Some(trace.clone()),
            ..Spill::default()
        };
        let out = hosted(&idx, 1, 64, true, SchedulerConfig::default(), spill).unwrap();
        // Smoke pins the load shape regardless of the flags.
        assert!(out.contains("8192 lookups from 4 client(s)"), "{out}");
        assert!(out.contains("trace ->"), "{out}");
        // Each batch tree's critical path is printed; a request span is
        // no batch tree.
        assert!(
            out.contains("\nsched.batch.lookup: critical path "),
            "{out}"
        );
        assert!(!out.contains("net.request: critical path"), "{out}");
        let verdict = cmd_verify_trace(&trace).unwrap();
        assert!(verdict.contains("OK"), "{verdict}");
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("sched.batch.lookup"), "{text}");
        for p in [keys, idx, trace] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_and_bench_net_pair_over_a_real_socket() {
        let (keys, idx) = fixture("serve-net", 400);
        // Grab an ephemeral port, free it, and hand it to `cuart serve`
        // (bench-net's dial loop retries while the server binds).
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let spill = tmp("serve-net-metrics");
        let server = {
            let idx = idx.clone();
            let addr = addr.clone();
            let spill = spill.clone();
            std::thread::spawn(move || {
                let sched = SchedulerConfig {
                    deadline: Duration::from_micros(200),
                    batch_target: 512,
                    ..SchedulerConfig::default()
                };
                let net = NetServerConfig {
                    allow_remote_shutdown: true,
                    ..NetServerConfig::default()
                };
                let devs = [devices::gtx1070()];
                cmd_serve(&idx, &addr, &devs, sched, net, &metrics(&spill))
            })
        };
        // `shutdown` drains the serve thread.
        let target = Target::Connect {
            addr: &addr,
            shutdown: true,
        };
        let out = cmd_bench_net(&idx, target, 2, 256, 64, false).unwrap();
        assert!(out.contains("256 hits"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("drained"), "{served}");
        assert!(served.contains("ops served"), "{served}");
        let written = std::fs::read_to_string(&spill).unwrap();
        assert!(written.contains("cuart.net.drained"), "{written}");
        for p in [keys, idx, spill] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn hex_mode_end_to_end() {
        let keys = write_keys("hex", &["00010203\t5", "00010204\t6"]);
        let idx = tmp("hex-idx");
        cmd_build(&keys, &idx, true, 2).unwrap();
        assert_eq!(cmd_get(&idx, "00010204", true).unwrap(), "6");
        let out = cmd_range(&idx, "00010203", "00010204", true, 10).unwrap();
        assert!(out.contains("00010203\t5"), "{out}");
        std::fs::remove_file(keys).ok();
        std::fs::remove_file(idx).ok();
    }
}
