//! The `cuart` command-line tool. See the `cuart-cli` crate docs.

use cuart_cli::*;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Usage text; the `{...}` placeholders are the serving defaults, filled
/// in from the config structs by [`usage`].
const USAGE: &str = "\
cuart — build, persist and query CuART indexes

USAGE:
  cuart build  --keys FILE --out FILE [--hex] [--lut-span N]
  cuart info   INDEX
  cuart get    INDEX KEY [--hex]
  cuart range  INDEX LO HI [--hex] [--limit N]
  cuart bench  INDEX [--keys FILE] [--hex] [--device NAME] [--batch 32768]
               [--batches 8] [--fault-seed N] [--fault-rate P]
               [--metrics-out FILE] [--trace-out FILE] [--folded-out FILE]
  cuart serve  INDEX --listen ADDR [SERVER FLAGS] [--window {window}]
               [--idle-timeout-ms N] [--allow-shutdown]
  cuart bench-net INDEX [--connect ADDR [--shutdown] | SERVER FLAGS]
               [--clients 4] [--ops 65536] [--req-keys 256] [--smoke]
  cuart verify-trace TRACE.json
  cuart verify-snapshot INDEX

SERVER FLAGS (serve, and bench-net's self-hosted server):
  [--device NAME[,NAME...]] [--batch {batch}] [--deadline-us {deadline_us}]
  [--unsorted] [--fault-seed N] [--fault-rate P]
  [--admission block|reject] [--admission-timeout-us N]
  [--queue-cap N] [--op-deadline-us N]
  [--metrics-out FILE] [--trace-out FILE] [--folded-out FILE]

DEVICES: a100 (server), rtx3090 (workstation), gtx1070 (notebook)
FLAGS: a flag the command does not list above is refused (exit 2)
KEY FILES: one key per line; optional 'key<TAB>value'; --hex for hex keys
BENCH: replays --batches batches of --batch lookups through one device
session, probes taken round-robin from --keys or else the stored keys;
prints hits, DRAM transactions, L2 hit rate and both clocks
METRICS: --metrics-out writes counters, gauges, histograms, the per-batch
span trees and the state-transition events (degraded/recovered,
breaker_*) of the run: Prometheus text when FILE ends in .prom, else JSON
FAULTS: --fault-rate P injects device faults with probability P per op
(seeded by --fault-seed, default 0) to drill the retry/degrade/recover
path.
TRACING: --trace-out exports hierarchical span trees as Chrome-trace
JSON — open in chrome://tracing or Perfetto — and prints each batch
tree's critical-path stage; --folded-out writes flamegraph-style folded
stacks. verify-trace checks a trace file nests and that every batch
tree's leaf durations reproduce the modeled batch time (±1%).
BATCHING: the executor dispatches whatever is queued as soon as it is
free; --deadline-us makes an idle executor hold an underfilled batch
open that long (a linger), --batch caps one batch.
OVERLOAD: --queue-cap bounds the scheduler's resident ops; a full queue
blocks (default), fails fast (--admission reject) or blocks up to
--admission-timeout-us (refused beside reject). --op-deadline-us sheds
ops still queued past their budget with DeadlineExceeded instead of
serving them late.
SCALE-OUT: --device with N comma-separated names serves from N key-space
shards, one per named device (e.g. rtx3090,rtx3090,gtx1070,gtx1070);
every shard has its own queue cap and circuit breaker, and per-shard
cuart.sched.shard.<i>.* series land in the metrics spill next to the
global cuart.sched.* totals.
verify-snapshot checks a saved index (header, per-section CRCs,
structural parse) without loading it
NETWORK: `serve` puts the scheduler behind the cuart-net binary RPC
protocol on --listen and blocks until a remote shutdown frame
(--allow-shutdown) drains it; `bench-net` sprays lookups from --clients
TCP connections at --connect, or at the server `serve` would build from
the same SERVER FLAGS on a self-hosted loopback port, and reports
goodput (refusals counted, not fatal) and, self-hosted, both clocks.
--smoke pins bench-net to 4 clients x 8192 ops in 256-key frames and,
self-hosted, drills a pinned fault storm to breaker recovery (with
--fault-*) and a shed (with --op-deadline-us); --shutdown sends the
drain frame to a --connect server when done.";

/// The flags [`serve_options`] reads: they configure a server, so
/// `bench-net --connect` refuses them.
const SERVER_FLAGS: &[&str] = &[
    "device",
    "batch",
    "deadline-us",
    "unsorted",
    "fault-seed",
    "fault-rate",
    "admission",
    "admission-timeout-us",
    "queue-cap",
    "op-deadline-us",
    "metrics-out",
    "trace-out",
    "folded-out",
];

/// The flags each command reads (`serve` and `bench-net` also read
/// [`SERVER_FLAGS`]); `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "build" => "keys out hex lut-span",
        "info" | "verify-trace" | "verify-snapshot" => "",
        "get" => "hex",
        "range" => "hex limit",
        "bench" => {
            "keys hex device batch batches fault-seed fault-rate \
             metrics-out trace-out folded-out"
        }
        "serve" => "listen window idle-timeout-ms allow-shutdown",
        "bench-net" => "connect clients ops req-keys smoke shutdown",
        _ => return None,
    })
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let takes_value = !matches!(
                    name,
                    "hex" | "unsorted" | "smoke" | "allow-shutdown" | "shutdown"
                );
                // A value flag at the end, or followed by another flag,
                // has no value: refused, not recorded as present.
                let value = match raw.get(i + 1) {
                    _ if !takes_value => None,
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => fail(&format!("--{name} takes a value")),
                };
                i += 1 + usize::from(value.is_some());
                flags.push((name.to_string(), value));
            } else {
                positional.push(raw[i].clone());
                i += 1;
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `--name` parsed as a `T`; a value that does not parse fails.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.flag(name)
            .map(|s| s.parse().unwrap_or_else(|_| fail(&format!("bad --{name}"))))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(|s| s.as_str())
    }
}

/// [`USAGE`] with the defaults `cuart serve` ships — read from the same
/// config structs the server is built from, so the text cannot drift.
fn usage() -> String {
    let serve = ServeOptions::default();
    USAGE
        .replace("{deadline_us}", &serve.deadline_us.to_string())
        .replace("{batch}", &serve.batch.to_string())
        .replace("{window}", &NetOptions::default().window.to_string())
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    exit(2)
}

fn required_path(_args: &Args, what: &str, value: Option<&str>) -> PathBuf {
    match value {
        Some(v) => PathBuf::from(v),
        None => fail(&format!("missing {what}")),
    }
}

/// Parse `--fault-seed` / `--fault-rate` into [`FaultOptions`]. Either
/// flag switches injection on; the seed defaults to 0 and the rate to
/// 0.05 (the 5 % drill rate).
fn fault_options(args: &Args) -> Option<FaultOptions> {
    let seed = args.parsed("fault-seed");
    let rate: Option<f64> = args.parsed("fault-rate");
    if seed.is_none() && rate.is_none() {
        return None;
    }
    let rate = rate.unwrap_or(0.05);
    if !(0.0..=1.0).contains(&rate) {
        fail("bad --fault-rate (must be within 0.0..=1.0)");
    }
    Some(FaultOptions {
        seed: seed.unwrap_or(0),
        rate,
    })
}

/// Parse the server-side flags `serve` and self-hosted `bench-net` share
/// ([`SERVER_FLAGS`] but the three spill paths).
fn serve_options(args: &Args) -> ServeOptions {
    let defaults = ServeOptions::default();
    let timeout_us = args.parsed("admission-timeout-us");
    let admission = match (args.flag("admission"), timeout_us) {
        (Some("reject"), None) => AdmissionPolicy::Reject,
        (Some("reject"), Some(_)) => {
            fail("--admission reject does not take --admission-timeout-us")
        }
        (Some("block") | None, Some(us)) => {
            AdmissionPolicy::BlockWithTimeout(std::time::Duration::from_micros(us))
        }
        (Some("block") | None, None) => AdmissionPolicy::Block,
        (Some(other), _) => fail(&format!("bad --admission {other:?} (block|reject)")),
    };
    ServeOptions {
        device: args.flag("device").unwrap_or(&defaults.device).to_string(),
        batch: args.parsed("batch").unwrap_or(defaults.batch),
        deadline_us: args.parsed("deadline-us").unwrap_or(defaults.deadline_us),
        unsorted: args.has("unsorted"),
        faults: fault_options(args),
        overload: OverloadOptions {
            admission,
            queue_cap: args.parsed("queue-cap").unwrap_or(0),
            op_deadline_us: args.parsed("op-deadline-us"),
        },
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        fail("no command");
    }
    let cmd = raw[0].clone();
    let args = Args::parse(&raw[1..]);
    if let Some(own) = command_flags(&cmd) {
        let serving = matches!(cmd.as_str(), "serve" | "bench-net");
        let known = |f: &str| {
            own.split_whitespace().any(|o| o == f) || (serving && SERVER_FLAGS.contains(&f))
        };
        if let Some((flag, _)) = args.flags.iter().find(|(f, _)| !known(f)) {
            fail(&format!("{cmd} does not take --{flag}"));
        }
    }
    let hex = args.has("hex");
    let metrics_out = args.flag("metrics-out").map(PathBuf::from);
    let trace_out = args.flag("trace-out").map(PathBuf::from);
    let folded_out = args.flag("folded-out").map(PathBuf::from);
    let result = match cmd.as_str() {
        "build" => {
            let keys = required_path(&args, "--keys FILE", args.flag("keys"));
            let out = required_path(&args, "--out FILE", args.flag("out"));
            let span = args.parsed("lut-span").unwrap_or(3);
            cmd_build(&keys, &out, hex, span)
        }
        "info" => cmd_info(&required_path(&args, "INDEX", args.pos(0))),
        "get" => {
            let idx = required_path(&args, "INDEX", args.pos(0));
            let key = args.pos(1).unwrap_or_else(|| fail("missing KEY"));
            cmd_get(&idx, key, hex)
        }
        "range" => {
            let idx = required_path(&args, "INDEX", args.pos(0));
            let lo = args.pos(1).unwrap_or_else(|| fail("missing LO"));
            let hi = args.pos(2).unwrap_or_else(|| fail("missing HI"));
            let limit = args.parsed("limit").unwrap_or(20);
            cmd_range(&idx, lo, hi, hex, limit)
        }
        "bench" => cmd_bench(
            &required_path(&args, "INDEX", args.pos(0)),
            args.flag("keys").map(Path::new),
            hex,
            args.flag("device").unwrap_or("rtx3090"),
            args.parsed("batch").unwrap_or(32 * 1024),
            args.parsed("batches").unwrap_or(8),
            fault_options(&args),
            metrics_out.as_deref(),
            trace_out.as_deref(),
            folded_out.as_deref(),
        ),
        "serve" => {
            let idx = required_path(&args, "INDEX", args.pos(0));
            let listen = args
                .flag("listen")
                .unwrap_or_else(|| fail("missing --listen ADDR"));
            let defaults = NetOptions::default();
            let net = NetOptions {
                window: args.parsed("window").unwrap_or(defaults.window),
                idle_timeout_ms: args.parsed("idle-timeout-ms").unwrap_or(0),
                allow_shutdown: args.has("allow-shutdown"),
            };
            cmd_serve(
                &idx,
                listen,
                &serve_options(&args),
                net,
                metrics_out.as_deref(),
                trace_out.as_deref(),
                folded_out.as_deref(),
            )
        }
        "bench-net" => {
            let idx = required_path(&args, "INDEX", args.pos(0));
            let connect = args.flag("connect");
            if connect.is_some() {
                if let Some(flag) = SERVER_FLAGS.iter().find(|f| args.has(f)) {
                    fail(&format!(
                        "--{flag} configures the self-hosted server; --connect drives \
                         an external one"
                    ));
                }
            }
            cmd_bench_net(
                &idx,
                connect,
                args.parsed("clients").unwrap_or(4),
                args.parsed("ops").unwrap_or(64 * 1024),
                args.parsed("req-keys").unwrap_or(256),
                args.has("smoke"),
                args.has("shutdown"),
                &serve_options(&args),
                metrics_out.as_deref(),
                trace_out.as_deref(),
                folded_out.as_deref(),
            )
        }
        "verify-trace" => cmd_verify_trace(&required_path(&args, "TRACE.json", args.pos(0))),
        "verify-snapshot" => cmd_verify_snapshot(&required_path(&args, "INDEX", args.pos(0))),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return;
        }
        other => fail(&format!("unknown command {other:?}")),
    };
    match result {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}
