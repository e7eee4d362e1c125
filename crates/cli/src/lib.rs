//! # cuart-cli — build, persist and query CuART indexes from the shell
//!
//! ```text
//! cuart build  --keys keys.txt --out idx.cuart [--hex] [--lut-span 3]
//! cuart info   idx.cuart
//! cuart get    idx.cuart <key> [--hex]
//! cuart range  idx.cuart <lo> <hi> [--hex] [--limit 20]
//! cuart bench  idx.cuart [--keys probes.txt] [--hex] [--device rtx3090]
//!              [--batch 32768] [--batches 8] [--fault-seed N] [--fault-rate P]
//!              [--metrics-out m.json|m.prom] [--trace-out FILE] [--folded-out FILE]
//! cuart serve  idx.cuart --listen 127.0.0.1:7070 [server flags]
//!              [--window N] [--idle-timeout-ms N] [--allow-shutdown]
//! cuart bench-net idx.cuart [--connect ADDR [--shutdown] | server flags]
//!              [--clients 4] [--ops 65536] [--req-keys 256] [--smoke]
//!
//! server flags: [--device NAME[,NAME...]] [--batch N] [--deadline-us N] [--unsorted]
//!               [--fault-seed N] [--fault-rate P]
//!               [--admission block|reject] [--admission-timeout-us N]
//!               [--queue-cap N] [--op-deadline-us N]
//!               [--metrics-out FILE] [--trace-out FILE] [--folded-out FILE]
//! cuart verify-trace trace.json
//! cuart verify-snapshot idx.cuart
//! ```
//!
//! Key files hold one key per line — raw text by default, or hex pairs
//! with `--hex`. `build` assigns each key its (1-based) line number as the
//! value unless a tab-separated `key<TAB>value` format is used.
//!
//! `bench` is the one session replay: batches of lookups, from `--keys` or
//! the stored keys, pushed through one device session. Every command
//! writes its files through one spill: `--metrics-out` is Prometheus text
//! when the path ends in `.prom` and JSON otherwise.
//!
//! All command logic lives in this library (unit-tested); the binary is a
//! thin argument parser that refuses any flag its command does not read.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cuart::{CuartConfig, CuartIndex, CuartSession};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::{devices, DeviceConfig, FaultConfig, FaultInjector};
pub use cuart_host::scheduler::AdmissionPolicy;
use cuart_host::scheduler::{BreakerConfig, SchedError, Scheduler, SchedulerConfig};
use cuart_host::sharded::ShardedScheduler;
use cuart_net::{NetClient, NetError, NetServer, SchedReport};
use cuart_telemetry::tracing::{critical_paths, to_chrome_json, to_folded};
use cuart_telemetry::Telemetry;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

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

/// Parse one key: raw bytes, or hex when `hex` is set.
pub fn parse_key(s: &str, hex: bool) -> Result<Vec<u8>, CliError> {
    if !hex {
        return Ok(s.as_bytes().to_vec());
    }
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(CliError::Input(format!("odd-length hex key {s:?}")));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| CliError::Input(format!("bad hex key {s:?}")))
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

/// Build an index from a key file and save it.
pub fn cmd_build(
    keys_path: &Path,
    out_path: &Path,
    hex: bool,
    lut_span: usize,
) -> Result<String, CliError> {
    let pairs = load_key_file(keys_path, hex)?;
    let mut art = Art::new();
    for (k, v) in &pairs {
        art.insert(k, *v)
            .map_err(|e| CliError::Input(format!("key {:?}: {e}", preview(k))))?;
    }
    let cfg = CuartConfig {
        lut_span,
        ..CuartConfig::default()
    };
    let index = CuartIndex::build(&art, &cfg);
    index.save(out_path)?;
    Ok(format!(
        "built {} keys -> {} ({:.1} MiB device image)",
        index.len(),
        out_path.display(),
        index.device_bytes() as f64 / (1 << 20) as f64
    ))
}

/// Describe a saved index.
pub fn cmd_info(path: &Path) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let b = index.buffers();
    let mut out = String::new();
    writeln!(out, "{}:", path.display()).expect("write");
    writeln!(out, "  keys:            {}", index.len()).expect("write");
    writeln!(out, "  max key length:  {} bytes", b.max_key_len).expect("write");
    writeln!(out, "  lut span:        {} bytes", b.config.lut_span).expect("write");
    writeln!(out, "  long-key policy: {:?}", b.config.long_key_policy).expect("write");
    writeln!(
        out,
        "  device image:    {:.1} MiB",
        index.device_bytes() as f64 / (1 << 20) as f64
    )
    .expect("write");
    for (label, ty) in [
        ("N4", cuart::link::LinkType::N4),
        ("N16", cuart::link::LinkType::N16),
        ("N48", cuart::link::LinkType::N48),
        ("N256", cuart::link::LinkType::N256),
        ("N2L", cuart::link::LinkType::N2L),
        ("leaf8", cuart::link::LinkType::Leaf8),
        ("leaf16", cuart::link::LinkType::Leaf16),
        ("leaf32", cuart::link::LinkType::Leaf32),
    ] {
        let n = b.record_count(ty);
        if n > 0 {
            writeln!(out, "  {label:<6} records:  {n}").expect("write");
        }
    }
    if b.host_entries() > 0 {
        writeln!(out, "  host-side keys:  {}", b.host_entries()).expect("write");
    }
    Ok(out.trim_end().to_string())
}

/// Point lookup through the CPU engine.
pub fn cmd_get(path: &Path, key: &str, hex: bool) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let key = parse_key(key, hex)?;
    Ok(match index.lookup_cpu(&key) {
        Some(v) => format!("{v}"),
        None => "(not found)".to_string(),
    })
}

/// Inclusive range query; prints up to `limit` rows plus the span sizes.
pub fn cmd_range(
    path: &Path,
    lo: &str,
    hi: &str,
    hex: bool,
    limit: usize,
) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let lo = parse_key(lo, hex)?;
    let hi = parse_key(hi, hex)?;
    let rows = cuart::range::range_query(index.buffers(), &lo, &hi);
    let mut out = String::new();
    for (k, v) in rows.iter().take(limit) {
        writeln!(out, "{}\t{v}", render(k, hex)).expect("write");
    }
    writeln!(out, "({} rows total)", rows.len()).expect("write");
    Ok(out.trim_end().to_string())
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

/// Fault-injection options for the device-session commands
/// (`--fault-seed` / `--fault-rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultOptions {
    /// Seed of the deterministic injector RNG.
    pub seed: u64,
    /// Per-site fault probability in `0.0..=1.0`.
    pub rate: f64,
}

/// Overload-protection options of a served scheduler (`--admission`,
/// `--admission-timeout-us`, `--queue-cap`, `--op-deadline-us`).
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadOptions {
    /// What producers experience when the bounded queue is full.
    pub admission: AdmissionPolicy,
    /// Resident-op cap of the submission queue; 0 = unbounded.
    pub queue_cap: usize,
    /// Default per-op latency budget in microseconds; expired ops are
    /// shed with `DeadlineExceeded` before dispatch.
    pub op_deadline_us: Option<u64>,
}

/// The server-side flags `cuart serve` and a self-hosted `cuart bench-net`
/// share, parsed once, so the server a drill runs is the one `serve`
/// builds (see `start_server`).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Serving devices (`--device`), comma-separated: one name serves one
    /// device, N names serve N key-space shards.
    pub device: String,
    /// Most keys in one batch (`--batch`).
    pub batch: usize,
    /// How long an idle executor holds an underfilled batch open, in µs
    /// (`--deadline-us`).
    pub deadline_us: u64,
    /// Dispatch batches in arrival order instead of sorted (`--unsorted`).
    pub unsorted: bool,
    /// Device fault injection (`--fault-seed` / `--fault-rate`).
    pub faults: Option<FaultOptions>,
    /// Admission and shedding.
    pub overload: OverloadOptions,
}

impl Default for ServeOptions {
    /// What `cuart serve` ships: [`SchedulerConfig::default`]'s batching
    /// on one RTX 3090.
    fn default() -> Self {
        let sched = SchedulerConfig::default();
        ServeOptions {
            device: "rtx3090".into(),
            batch: sched.batch_target,
            deadline_us: sched.deadline.as_micros() as u64,
            unsorted: false,
            faults: None,
            overload: OverloadOptions::default(),
        }
    }
}

impl ServeOptions {
    /// The serving devices: one, or one per shard.
    pub fn devices(&self) -> Result<Vec<DeviceConfig>, CliError> {
        let devs: Vec<DeviceConfig> = self
            .device
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

/// Open a device session, attaching a [`FaultInjector`] when fault
/// options were given.
fn open_session<'a>(
    index: &'a CuartIndex,
    dev: &DeviceConfig,
    faults: Option<FaultOptions>,
) -> CuartSession<'a> {
    match faults {
        Some(f) => index.device_session_with_faults(dev, FaultInjector::uniform(f.seed, f.rate)),
        None => index.device_session(dev),
    }
}

/// One-line fault summary appended to command output when injection is on.
fn fault_summary(session: &CuartSession<'_>) -> String {
    let s = session.fault_stats();
    format!(
        "\nfaults: {} injected, {} retries, {} degradations, {} recoveries{}",
        s.injected,
        s.retries,
        s.degradations,
        s.recoveries,
        if s.degraded {
            " — session still degraded (CPU path)"
        } else {
            ""
        }
    )
}

/// Validate a saved snapshot: header, per-section CRCs and a structural
/// parse — without keeping the index in memory.
pub fn cmd_verify_snapshot(path: &Path) -> Result<String, CliError> {
    let info = cuart::persist::verify_snapshot(path)?;
    Ok(format!(
        "{}: OK — format v{}, {} sections CRC-verified, {} bytes, {} keys",
        path.display(),
        info.version,
        info.sections,
        info.file_bytes,
        info.entries
    ))
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

/// Replay batches of lookups through one device session (`cuart bench`),
/// the paper's measurement: `batches` batches of `batch` probes, taken
/// round-robin from the `keys` file or, without one, from the stored keys.
/// Prints the lookups, hits, DRAM transactions and L2 hit rate, then both
/// clocks: modeled kernel-side MOps/s and the wall-clock keys/s the
/// simulator sustains on this host. With `faults`, a seeded injector
/// shadows every device leg and a fault summary follows. The output files
/// go through the spill `serve` and `bench-net` use.
#[allow(
    clippy::too_many_arguments,
    reason = "one parameter per command-line flag"
)]
pub fn cmd_bench(
    path: &Path,
    keys: Option<&Path>,
    hex: bool,
    device: &str,
    batch: usize,
    batches: usize,
    faults: Option<FaultOptions>,
    metrics_out: Option<&Path>,
    trace_out: Option<&Path>,
    folded_out: Option<&Path>,
) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let dev = device_by_name(device)?;
    let telemetry = Arc::new(Telemetry::new());
    let index = index.with_telemetry(telemetry.clone());
    let probes = match keys {
        Some(p) => load_key_file(p, hex)?,
        None => stored_keys(&index)?,
    };
    let mut session = open_session(&index, &dev, faults);
    let (mut hits, mut dram, mut l2_hits, mut sectors) = (0, 0, 0, 0);
    let mut total_ns = 0.0;
    let mut wall = Duration::ZERO;
    for b in 0..batches {
        let queries: Vec<Vec<u8>> = (0..batch)
            .map(|i| probes[(b * batch + i * 7) % probes.len()].0.clone())
            .collect();
        let started = std::time::Instant::now();
        let (results, report) = session.lookup_batch(&queries)?;
        wall += started.elapsed();
        hits += results.iter().filter(|&&r| r != NOT_FOUND).count();
        dram += report.dram_transactions;
        l2_hits += report.l2_hits;
        sectors += report.sectors;
        total_ns += report.time_ns;
    }
    let lookups = batch * batches;
    // With every batch on the CPU fallback (degraded session) there is no
    // modeled device time to rate; the clock line says so.
    let mut out = format!(
        "{lookups} lookups in {batches} batches of {batch} on {} (kernel-side): \
         {hits}/{lookups} hits, {dram} DRAM transactions, {:.0}% L2 hits\n{}",
        dev.name,
        100.0 * l2_hits as f64 / sectors.max(1) as f64,
        two_clock_line(lookups as u64, total_ns, wall),
    );
    if faults.is_some() {
        out.push_str(&fault_summary(&session));
    }
    spill_outputs(&mut out, &telemetry, metrics_out, trace_out, folded_out)?;
    Ok(out)
}

/// The one output tail every command writes its files through: the
/// metrics snapshot (Prometheus text when the path ends in `.prom`, JSON
/// otherwise), the Chrome-trace export with each batch tree's dominant
/// (critical-path) stage, and the folded stacks.
fn spill_outputs(
    out: &mut String,
    telemetry: &Telemetry,
    metrics_out: Option<&Path>,
    trace_out: Option<&Path>,
    folded_out: Option<&Path>,
) -> Result<(), CliError> {
    if metrics_out.is_none() && trace_out.is_none() && folded_out.is_none() {
        return Ok(());
    }
    let snap = telemetry.snapshot();
    if let Some(p) = metrics_out {
        let text = if p.extension().is_some_and(|e| e == "prom") {
            snap.to_prometheus()
        } else {
            snap.to_json()
        };
        std::fs::write(p, text)?;
        let _ = write!(out, "\nmetrics -> {}", p.display());
    }
    if let Some(p) = trace_out {
        std::fs::write(p, to_chrome_json(&snap.spans))?;
        let _ = write!(
            out,
            "\ntrace -> {} ({} spans)",
            p.display(),
            snap.spans.len()
        );
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
    if let Some(p) = folded_out {
        std::fs::write(p, to_folded(&snap.spans))?;
        let _ = write!(out, "\nfolded -> {}", p.display());
    }
    Ok(())
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
        evs.push(TraceEvent {
            id: id_of("id")?,
            parent: id_of("parent")?,
            name: e
                .get("name")
                .and_then(|n| n.as_str())
                .unwrap_or_default()
                .to_string(),
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

/// Network-serving options for `cuart serve` (`--window`,
/// `--idle-timeout-ms`, `--allow-shutdown`).
#[derive(Debug, Clone, Copy)]
pub struct NetOptions {
    /// Per-connection in-flight request window (TCP backpressure beyond).
    pub window: usize,
    /// Close connections idle for this many milliseconds; 0 = never.
    pub idle_timeout_ms: u64,
    /// Honor the wire shutdown opcode (drills/tests).
    pub allow_shutdown: bool,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            window: cuart_net::NetServerConfig::default().window,
            idle_timeout_ms: 0,
            allow_shutdown: false,
        }
    }
}

impl NetOptions {
    fn server_config(&self) -> cuart_net::NetServerConfig {
        cuart_net::NetServerConfig {
            window: self.window.max(1),
            idle_timeout: match self.idle_timeout_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            allow_remote_shutdown: self.allow_shutdown,
        }
    }
}

/// Start the server `cuart serve` runs: a scheduler built from `opts` —
/// a sharded fleet when `devs` names several devices — behind
/// `listener`, every layer recording into `telemetry`. `storm` replaces
/// the random fault rate with the pinned smoke storm of [`cmd_bench_net`].
fn start_server(
    index: CuartIndex,
    telemetry: &Arc<Telemetry>,
    devs: &[DeviceConfig],
    opts: &ServeOptions,
    net: &NetOptions,
    listener: TcpListener,
    storm: bool,
) -> Result<NetServer, CliError> {
    let index = Arc::new(index.with_telemetry(telemetry.clone()));
    let (fault_injector, breaker) = match opts.faults {
        // Early device ops fail (degrade + breaker trip), later ones are
        // clean, and a short cooldown lets the Open → HalfOpen → Closed
        // walk finish inside the drill.
        Some(f) if storm => (
            Some(FaultInjector::new(
                FaultConfig::uniform(f.seed, 0.0).fail_range(0, 8),
            )),
            BreakerConfig {
                open_cooldown: Duration::from_millis(2),
                probe_batches: 1,
                ..BreakerConfig::default()
            },
        ),
        faults => (
            faults.map(|f| FaultInjector::uniform(f.seed, f.rate)),
            BreakerConfig::default(),
        ),
    };
    let cfg = SchedulerConfig {
        batch_target: opts.batch.max(1),
        deadline: Duration::from_micros(opts.deadline_us),
        sort_batches: !opts.unsorted,
        fault_injector,
        queue_cap: opts.overload.queue_cap,
        admission: opts.overload.admission,
        op_deadline: opts.overload.op_deadline_us.map(Duration::from_micros),
        breaker,
        shard: None,
    };
    let telemetry = Some(Arc::clone(telemetry));
    if devs.len() > 1 {
        let fleet = ShardedScheduler::spawn(index, devs, cfg)
            .map_err(|e| CliError::Input(format!("scheduler: {e}")))?;
        NetServer::serve_sharded(listener, fleet, telemetry, net.server_config())
    } else {
        let sched = Scheduler::spawn(index, devs[0], cfg);
        NetServer::serve_single(listener, sched, telemetry, net.server_config())
    }
    .map_err(CliError::Io)
}

/// Serve a saved index over TCP (`cuart serve INDEX --listen ADDR`): the
/// binary RPC protocol of [`cuart_net`] in front of the server
/// `start_server` builds from `opts`. Blocks until a remote shutdown
/// frame arrives (requires `--allow-shutdown`) or the process is killed;
/// on a clean drain the final summary (and `--metrics-out` spill,
/// including the `cuart.net.*` series and the `cuart.net.drained` gauge)
/// is emitted.
pub fn cmd_serve(
    path: &Path,
    listen: &str,
    opts: &ServeOptions,
    net: NetOptions,
    metrics_out: Option<&Path>,
    trace_out: Option<&Path>,
    folded_out: Option<&Path>,
) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let devs = opts.devices()?;
    let telemetry = Arc::new(Telemetry::new());
    let listener = TcpListener::bind(listen)
        .map_err(|e| CliError::Input(format!("cannot listen on {listen}: {e}")))?;
    let server = start_server(index, &telemetry, &devs, opts, &net, listener, false)?;
    let addr = server.local_addr();
    // Liveness line on stderr before blocking, so scripts (and the CI
    // drill) know the listener is up even when stdout is buffered.
    eprintln!(
        "serving {} on {addr} ({} shard(s), window {}{})",
        path.display(),
        devs.len(),
        net.window,
        if net.allow_shutdown {
            ", remote shutdown armed"
        } else {
            ""
        }
    );
    let report = server
        .join()
        .map_err(|e| CliError::Input(format!("serve: {e}")))?;
    let mut out = render_net_report(&report, &addr.to_string());
    spill_outputs(&mut out, &telemetry, metrics_out, trace_out, folded_out)?;
    Ok(out)
}

/// The drained server's summary; a sharded fleet adds its modeled
/// scale-out throughput (total keys over the slowest shard) and one line
/// per shard.
fn render_net_report(report: &cuart_net::NetReport, addr: &str) -> String {
    let agg = report.sched.aggregate();
    let mut out = format!(
        "drained {addr} cleanly — {} connection(s), {} ops served\n\
         frames {} in / {} out, {} decode errors, {} error frames, \
         {} window stalls\nscheduler: {} batches (mean fill {:.0}), \
         {} shed / {} rejected / {} admission timeouts, {} breaker trips",
        report.accepted,
        report.served_ops,
        report.frames_in,
        report.frames_out,
        report.decode_errors,
        report.error_frames,
        report.window_stalls,
        agg.batches,
        agg.mean_batch_fill(),
        agg.shed_ops,
        agg.rejected_ops,
        agg.admission_timeout_ops,
        agg.breaker_trips,
    );
    if let SchedReport::Sharded(s) = &report.sched {
        let _ = write!(
            out,
            "\nsharded: {} requests routed over {} shards, modeled scale-out \
             {:.1} MOps/s (slowest shard {:.1} µs busy)",
            s.routed_requests,
            s.shards.len(),
            s.modeled_aggregate_mops(),
            s.modeled_time_ns() / 1e3,
        );
        for shard in &s.shards {
            let st = &shard.stats;
            let _ = write!(
                out,
                "\nshard {} ({}): {} ops, {} batches, kernel {:.1} µs, \
                 {} shed / {} rejected, {} breaker trips",
                shard.shard,
                shard.device.name,
                st.ops_enqueued,
                st.batches,
                st.kernel_time_ns / 1e3,
                st.shed_ops,
                st.rejected_ops,
                st.breaker_trips,
            );
        }
    }
    out
}

/// Loopback/remote serving drill (`cuart bench-net`): N client threads
/// spray point lookups at a [`cuart_net`] server in `req_keys`-key
/// frames. With `connect` the drill drives an external `cuart serve`
/// (retrying the dial until the listener is up; `serve` is not read, and
/// the CLI refuses server-side flags there). Otherwise it self-hosts the
/// server `start_server` builds from `serve` on an ephemeral loopback
/// port, drains it when done, and reports both clocks and the server's
/// summary.
///
/// Clients count overload refusals (`QueueFull`, `AdmissionTimeout`,
/// `DeadlineExceeded`) instead of failing on them; goodput is the ops
/// that were not refused. `smoke` pins the load (4 clients × 8192 ops in
/// 256-key frames) for comparable CI runs and, self-hosted, adds the
/// deterministic drill:
/// - with faults on one device, a pinned fault storm replaces the random
///   rate, and 1-key lookups follow the load until the circuit breaker's
///   `Open → HalfOpen → Closed` walk shows a `recovered` event;
/// - with `--op-deadline-us`, 1 µs-budget lookups follow until one is shed.
///
/// `shutdown` sends the remote-shutdown frame to a `connect`ed server.
#[allow(
    clippy::too_many_arguments,
    reason = "one parameter per command-line flag"
)]
pub fn cmd_bench_net(
    path: &Path,
    connect: Option<&str>,
    clients: usize,
    ops: usize,
    req_keys: usize,
    smoke: bool,
    shutdown: bool,
    serve: &ServeOptions,
    metrics_out: Option<&Path>,
    trace_out: Option<&Path>,
    folded_out: Option<&Path>,
) -> Result<String, CliError> {
    let (clients, ops, req_keys) = if smoke {
        (4, 8192, 256)
    } else {
        (clients.max(1), ops.max(1), req_keys.max(1))
    };
    let index = CuartIndex::load(path)?;
    let stored = stored_keys(&index)?;

    // Self-hosted server unless `connect` points at an external one.
    let telemetry = Arc::new(Telemetry::new());
    let (addr, hosted) = match connect {
        Some(a) => (a.to_string(), None),
        None => {
            let devs = serve.devices()?;
            let storm = smoke && serve.faults.is_some() && devs.len() == 1;
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let net = NetOptions::default();
            let server = start_server(index, &telemetry, &devs, serve, &net, listener, storm)?;
            (server.local_addr().to_string(), Some((server, devs, storm)))
        }
    };

    // An external listener may still be binding; retry the dial briefly.
    let dial = |what: &str| -> Result<NetClient, CliError> {
        let mut last = None;
        for _ in 0..100 {
            match NetClient::connect(&addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        Err(CliError::Input(format!(
            "{what}: cannot reach {addr}: {}",
            last.map(|e| e.to_string()).unwrap_or_default()
        )))
    };
    dial("probe")?.ping().map_err(net_err)?;

    let per_client = ops.div_ceil(clients).max(1);
    let t0 = std::time::Instant::now();
    let mut handles = Vec::new();
    for p in 0..clients {
        let mut conn = dial("client")?;
        // Each client strides through the stored keys from its own
        // offset, so arrival order at the executor is interleaved.
        let probes: Vec<Vec<u8>> = (0..per_client)
            .map(|i| {
                stored[p.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) % stored.len()]
                    .0
                    .clone()
            })
            .collect();
        handles.push(std::thread::spawn(move || -> Result<_, NetError> {
            let (mut hits, mut refused) = (0u64, 0u64);
            for chunk in probes.chunks(req_keys) {
                match conn.lookup(chunk.to_vec()) {
                    Ok(results) => {
                        hits += results.iter().filter(|&&r| r != NOT_FOUND).count() as u64;
                    }
                    Err(e) if is_refusal(&e) => refused += chunk.len() as u64,
                    Err(e) => return Err(e),
                }
            }
            Ok((hits, refused))
        }));
    }
    let (mut hits, mut refused) = (0u64, 0u64);
    for h in handles {
        let (h, r) = h
            .join()
            .map_err(|_| CliError::Input("client thread panicked".into()))?
            .map_err(net_err)?;
        hits += h;
        refused += r;
    }
    let wall = t0.elapsed();
    let sent = (per_client * clients) as u64;
    let served = sent - refused;
    let mut out = format!(
        "{sent} lookups from {clients} client(s) over TCP to {addr} — \
         {hits} hits, {refused} refused, {:.1} ms wall, {:.0} ops/s goodput",
        wall.as_secs_f64() * 1e3,
        served as f64 / wall.as_secs_f64().max(1e-9),
    );
    let Some((server, devs, storm)) = hosted else {
        if shutdown {
            dial("shutdown")?.shutdown_server().map_err(net_err)?;
        }
        return Ok(out);
    };
    let key = &stored[0].0;
    if storm {
        drive_breaker_recovery(&mut dial("recovery drive")?, &telemetry, key)?;
    }
    if smoke && serve.overload.op_deadline_us.is_some() {
        shed_probe(&mut dial("shed probe")?, key)?;
    }
    server.shutdown_handle().shutdown();
    let report = server
        .join()
        .map_err(|e| CliError::Input(format!("drain: {e}")))?;
    let modeled_ns = match &report.sched {
        SchedReport::Single(s) => s.modeled_time_ns(&devs[0]),
        SchedReport::Sharded(s) => s.modeled_time_ns(),
    };
    let _ = write!(
        out,
        "\n{}\n{}",
        two_clock_line(served, modeled_ns, wall),
        render_net_report(&report, &addr)
    );
    spill_outputs(&mut out, &telemetry, metrics_out, trace_out, folded_out)?;
    Ok(out)
}

/// An overload refusal, which a drill counts instead of failing on.
fn is_refusal(e: &NetError) -> bool {
    matches!(
        e.as_sched_error(),
        Some(SchedError::QueueFull | SchedError::AdmissionTimeout | SchedError::DeadlineExceeded)
    )
}

/// Send 1-key lookups until the circuit breaker's recovery is visible in
/// telemetry (a `recovered` session event: the half-open probe
/// re-uploaded the device image), for at most 500 rounds. The pinned
/// storm's load may drain before the breaker's cooldown does.
fn drive_breaker_recovery(
    conn: &mut NetClient,
    telemetry: &Telemetry,
    key: &[u8],
) -> Result<(), CliError> {
    use cuart_telemetry::BatchKind;
    // A generous budget: the drill's tight `--op-deadline-us` default
    // would shed this traffic before it reaches the device.
    conn.set_deadline(Some(Duration::from_secs(5)));
    for _ in 0..500 {
        let snap = telemetry.snapshot();
        if snap.events.iter().any(|ev| ev.kind == BatchKind::Recovered) {
            return Ok(());
        }
        match conn.lookup(vec![key.to_vec()]) {
            Ok(_) => {}
            Err(e) if matches!(e.as_sched_error(), Some(SchedError::DeadlineExceeded)) => {}
            Err(e) => return Err(CliError::Input(format!("recovery drive: {e}"))),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(CliError::Input(
        "breaker never recovered within the drill budget".into(),
    ))
}

/// Send 1 µs-budget lookups (the wire encodes "no budget" as 0) until one
/// is shed with `DeadlineExceeded`, at most 100, so the drill always
/// exercises the shedding path.
fn shed_probe(conn: &mut NetClient, key: &[u8]) -> Result<(), CliError> {
    conn.set_deadline(Some(Duration::from_micros(1)));
    for _ in 0..100 {
        match conn.lookup(vec![key.to_vec()]) {
            Err(e) if matches!(e.as_sched_error(), Some(SchedError::DeadlineExceeded)) => {
                return Ok(())
            }
            Ok(_) => {}
            Err(e) => return Err(net_err(e)),
        }
    }
    Err(CliError::Input(
        "shed probe: no 1 µs-budget lookup was shed in 100 tries".into(),
    ))
}

fn net_err(e: NetError) -> CliError {
    CliError::Input(format!("net: {e}"))
}

fn preview(key: &[u8]) -> String {
    String::from_utf8_lossy(&key[..key.len().min(24)]).into_owned()
}

fn render(key: &[u8], hex: bool) -> String {
    if hex {
        key.iter().map(|b| format!("{b:02x}")).collect()
    } else {
        String::from_utf8_lossy(key).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// 64-key frames against the server `serve` describes.
    fn hosted(
        idx: &Path,
        clients: usize,
        ops: usize,
        smoke: bool,
        serve: &ServeOptions,
        spill: Option<&Path>,
        trace: Option<&Path>,
    ) -> Result<String, CliError> {
        cmd_bench_net(
            idx, None, clients, ops, 64, smoke, false, serve, spill, trace, None,
        )
    }

    fn notebook() -> ServeOptions {
        ServeOptions {
            device: "gtx1070".into(),
            ..ServeOptions::default()
        }
    }

    #[test]
    fn parse_keys_raw_and_hex() {
        assert_eq!(parse_key("abc", false).unwrap(), b"abc");
        assert_eq!(parse_key("00ff10", true).unwrap(), vec![0, 255, 16]);
        assert!(parse_key("0f0", true).is_err());
        assert!(parse_key("zz", true).is_err());
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
        let out = cmd_bench(
            &idx,
            Some(&probes),
            false,
            "rtx3090",
            3,
            1,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.starts_with("3 lookups in 1 batches of 3"), "{out}");
        assert!(out.contains(": 2/3 hits, "), "{out}");
        assert!(out.contains(" DRAM transactions, "), "{out}");
        assert!(out.contains("% L2 hits\n"), "{out}");

        // Without a key file the stored keys are replayed: all hits.
        let out = cmd_bench(&idx, None, false, "a100", 256, 2, None, None, None, None).unwrap();
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
            let msg = cmd_bench(
                &idx,
                None,
                false,
                "a100",
                64,
                2,
                None,
                Some(out),
                None,
                None,
            )
            .unwrap();
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
        let opts = Some(FaultOptions {
            seed: 7,
            rate: 0.05,
        });
        let out = cmd_bench(
            &idx,
            Some(&keys),
            false,
            "rtx3090",
            100,
            3,
            opts,
            None,
            None,
            None,
        )
        .unwrap();
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
        let trace = tmp("trace-json");
        let folded = tmp("trace-folded");
        let out = cmd_bench(
            &idx,
            None,
            false,
            "rtx3090",
            128,
            4,
            None,
            None,
            Some(&trace),
            Some(&folded),
        )
        .unwrap();
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
        let out = hosted(&idx, 2, 512, false, &notebook(), Some(&spill), None).unwrap();
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
        // Sorted batches, then the unsorted control.
        for unsorted in [false, true] {
            let serve = ServeOptions {
                unsorted,
                ..notebook()
            };
            let out = hosted(&idx, 2, 512, false, &serve, Some(&spill), None).unwrap();
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
        }
        for p in [keys, idx, spill] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bench_net_sharded_fleet_reports_per_shard() {
        let (keys, idx) = fixture("sharded", 400);
        let spill = tmp("sharded-metrics");
        let fleet = |device: &str| ServeOptions {
            device: device.into(),
            ..ServeOptions::default()
        };
        let out = hosted(
            &idx,
            2,
            2048,
            false,
            &fleet("rtx3090, gtx1070"),
            Some(&spill),
            None,
        )
        .unwrap();
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
        // A list that names no device, or an unknown one, is refused.
        for device in [",", "rtx3090,tpu"] {
            let err = hosted(&idx, 1, 256, false, &fleet(device), None, None);
            assert!(matches!(err, Err(CliError::Input(_))), "{device}: {err:?}");
        }
        for p in [keys, idx, spill] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bench_net_overload_drill_sheds_and_recovers() {
        let (keys, idx) = fixture("overload", 400);
        let spill = tmp("overload-metrics");
        let serve = ServeOptions {
            faults: Some(FaultOptions {
                seed: 7,
                rate: 0.05,
            }),
            overload: OverloadOptions {
                admission: AdmissionPolicy::Reject,
                queue_cap: 4096,
                op_deadline_us: Some(500),
            },
            ..notebook()
        };
        // Smoke: the pinned load, the deterministic fault storm, the
        // recovery drive and the shed probe.
        let out = hosted(&idx, 2, 512, true, &serve, Some(&spill), None).unwrap();
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
        let out = hosted(&idx, 1, 64, true, &notebook(), None, Some(&trace)).unwrap();
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
                let opts = ServeOptions {
                    deadline_us: 200,
                    batch: 512,
                    ..notebook()
                };
                let net = NetOptions {
                    allow_shutdown: true,
                    ..NetOptions::default()
                };
                cmd_serve(&idx, &addr, &opts, net, Some(&spill), None, None)
            })
        };
        let out = cmd_bench_net(
            &idx,
            Some(&addr),
            2,
            256,
            64,
            false,
            true, // --shutdown drains the serve thread
            &ServeOptions::default(),
            None,
            None,
            None,
        )
        .unwrap();
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
