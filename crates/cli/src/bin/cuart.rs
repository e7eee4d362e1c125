//! The `cuart` command-line tool. See the `cuart-cli` crate docs.

use cuart_cli::*;
use cuart_gpu_sim::{FaultConfig, FaultInjector};
use cuart_host::scheduler::{AdmissionPolicy, SchedulerConfig};
use cuart_net::NetServerConfig;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

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
  [--fault-seed N] [--fault-rate P]
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
serving them late; 0, like an absent flag, sets no budget.
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
--fault-rate or --fault-seed) and a shed (with --op-deadline-us);
--shutdown sends the drain frame to a --connect server when done.";

/// What a flag is. A server flag takes a value and configures the
/// server: `serve` and a self-hosted `bench-net` read it, and `bench-net
/// --connect` refuses it.
#[derive(PartialEq)]
enum Kind {
    Value,
    Switch,
    Server,
}
use Kind::{Server, Switch, Value};

/// Every flag: its name, its kind and the commands that read it (besides
/// `serve` and `bench-net` for a server flag). [`Args::parse`] reads the
/// table to tell a value from a switch and to refuse a flag the command
/// does not read; `bench-net --connect`, to refuse the server flags.
const FLAGS: &[(&str, Kind, &str)] = &[
    ("keys", Value, "build bench"),
    ("out", Value, "build"),
    ("hex", Switch, "build get range bench"),
    ("lut-span", Value, "build"),
    ("limit", Value, "range"),
    ("batches", Value, "bench"),
    ("listen", Value, "serve"),
    ("window", Value, "serve"),
    ("idle-timeout-ms", Value, "serve"),
    ("allow-shutdown", Switch, "serve"),
    ("connect", Value, "bench-net"),
    ("shutdown", Switch, "bench-net"),
    ("clients", Value, "bench-net"),
    ("ops", Value, "bench-net"),
    ("req-keys", Value, "bench-net"),
    ("smoke", Switch, "bench-net"),
    ("device", Server, "bench"),
    ("batch", Server, "bench"),
    ("deadline-us", Server, ""),
    ("fault-seed", Server, "bench"),
    ("fault-rate", Server, "bench"),
    ("admission", Server, ""),
    ("admission-timeout-us", Server, ""),
    ("queue-cap", Server, ""),
    ("op-deadline-us", Server, ""),
    ("metrics-out", Server, "bench"),
    ("trace-out", Server, "bench"),
    ("folded-out", Server, "bench"),
];

type Run = fn(&Args) -> Result<String, CliError>;

/// Every command and what it runs.
const COMMANDS: &[(&str, Run)] = &[
    ("build", |a| {
        let (keys, out) = (a.required("keys", "FILE"), a.required("out", "FILE"));
        let span = a.parsed("lut-span").unwrap_or(3);
        cmd_build(Path::new(keys), Path::new(out), a.has("hex"), span)
    }),
    ("info", |a| cmd_info(a.index())),
    ("get", |a| cmd_get(a.index(), a.pos(1, "KEY"), a.has("hex"))),
    ("range", |a| {
        let (lo, hi, limit) = (a.pos(1, "LO"), a.pos(2, "HI"), a.parsed("limit"));
        cmd_range(a.index(), lo, hi, a.has("hex"), limit.unwrap_or(20))
    }),
    ("bench", |a| {
        let hex = a.has("hex");
        let keys = a.flag("keys").map(|p| load_key_file(Path::new(p), hex));
        let dev = device_by_name(a.flag("device").unwrap_or("rtx3090"))?;
        let batch = a.parsed("batch").unwrap_or(32 * 1024);
        let batches = a.parsed("batches").unwrap_or(8);
        let keys = keys.transpose()?;
        cmd_bench(a.index(), keys, &dev, batch, batches, faults(a), &spill(a))
    }),
    ("serve", |a| {
        let (listen, devs) = (a.required("listen", "ADDR"), devices(a)?);
        let (sched, net) = (scheduler(a), net_server(a));
        cmd_serve(a.index(), listen, &devs, sched, net, &spill(a))
    }),
    ("bench-net", |a| {
        let target = match a.flag("connect") {
            Some(addr) => {
                let server = FLAGS
                    .iter()
                    .find(|(f, kind, _)| *kind == Server && a.has(f));
                if let Some((flag, ..)) = server {
                    fail(&format!(
                        "--{flag} configures the self-hosted server; --connect drives an external one"
                    ));
                }
                let shutdown = a.has("shutdown");
                Target::Connect { addr, shutdown }
            }
            None => {
                if a.has("shutdown") {
                    fail("--shutdown drains a --connect server; a self-hosted one drains itself");
                }
                let (devs, sched, spill) = (devices(a)?, scheduler(a), spill(a));
                Target::Host { devs, sched, spill }
            }
        };
        let clients = a.parsed("clients").unwrap_or(4);
        let ops = a.parsed("ops").unwrap_or(64 * 1024);
        let req_keys = a.parsed("req-keys").unwrap_or(256);
        let smoke = a.has("smoke");
        cmd_bench_net(a.index(), target, clients, ops, req_keys, smoke)
    }),
    ("verify-trace", |a| {
        cmd_verify_trace(Path::new(a.pos(0, "TRACE.json")))
    }),
    ("verify-snapshot", |a| cmd_verify_snapshot(a.index())),
];

struct Args {
    positional: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Split `raw` into positionals and the flags `cmd` reads; any other
    /// flag, and a value flag without its value, fails.
    fn parse(cmd: &str, raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let Some((name, kind, _)) = FLAGS.iter().find(|f| f.0 == name && reads(cmd, f))
                else {
                    fail(&format!("{cmd} does not take --{name}"))
                };
                // A value flag at the end, or followed by another flag,
                // has no value: refused, not recorded as present.
                let value = match raw.get(i + 1) {
                    _ if *kind == Switch => None,
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => fail(&format!("--{name} takes a value")),
                };
                i += 1 + usize::from(value.is_some());
                flags.push((*name, value));
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
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `--name` parsed as a `T`; a value that does not parse fails.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.flag(name)
            .map(|s| s.parse().unwrap_or_else(|_| fail(&format!("bad --{name}"))))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// `--name VALUE`, which the command cannot run without.
    fn required(&self, name: &str, what: &str) -> &str {
        self.flag(name)
            .unwrap_or_else(|| fail(&format!("missing --{name} {what}")))
    }

    /// The `i`-th positional argument, which the command cannot run without.
    fn pos(&self, i: usize, what: &str) -> &str {
        self.positional
            .get(i)
            .map(String::as_str)
            .unwrap_or_else(|| fail(&format!("missing {what}")))
    }

    fn index(&self) -> &Path {
        Path::new(self.pos(0, "INDEX"))
    }
}

/// Whether `cmd` reads `flag`.
fn reads(cmd: &str, &(_, ref kind, commands): &(&str, Kind, &str)) -> bool {
    (*kind == Server && matches!(cmd, "serve" | "bench-net"))
        || commands.split(' ').any(|c| c == cmd)
}

/// [`USAGE`] with the defaults `cuart serve` ships — read from the config
/// types the server is built from, so the text cannot drift.
fn usage() -> String {
    let sched = SchedulerConfig::default();
    USAGE
        .replace("{deadline_us}", &sched.deadline.as_micros().to_string())
        .replace("{batch}", &sched.batch_target.to_string())
        .replace("{window}", &NetServerConfig::default().window.to_string())
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    exit(2)
}

/// `--fault-seed` / `--fault-rate`: either switches injection on; the seed
/// defaults to 0 and the rate to 0.05 (the 5 % drill rate).
fn faults(a: &Args) -> Option<FaultConfig> {
    let seed = a.parsed("fault-seed");
    let rate: Option<f64> = a.parsed("fault-rate");
    if seed.is_none() && rate.is_none() {
        return None;
    }
    let rate = rate.unwrap_or(0.05);
    if !(0.0..=1.0).contains(&rate) {
        fail("bad --fault-rate (must be within 0.0..=1.0)");
    }
    Some(FaultConfig::uniform(seed.unwrap_or(0), rate))
}

/// `--device A,B,…`: one serving device, or one per key-space shard.
fn devices(a: &Args) -> Result<Vec<cuart_gpu_sim::DeviceConfig>, CliError> {
    devices_by_name(a.flag("device").unwrap_or("rtx3090"))
}

/// The server flags but `--device` and the spill's, as the config every
/// scheduler of the server is built from.
fn scheduler(a: &Args) -> SchedulerConfig {
    let defaults = SchedulerConfig::default();
    let timeout = a.parsed("admission-timeout-us").map(Duration::from_micros);
    let admission = match (a.flag("admission"), timeout) {
        (Some("reject"), None) => AdmissionPolicy::Reject,
        (Some("reject"), Some(_)) => {
            fail("--admission reject does not take --admission-timeout-us")
        }
        (Some("block") | None, Some(t)) => AdmissionPolicy::BlockWithTimeout(t),
        (Some("block") | None, None) => AdmissionPolicy::Block,
        (Some(other), _) => fail(&format!("bad --admission {other:?} (block|reject)")),
    };
    SchedulerConfig {
        batch_target: a.parsed("batch").unwrap_or(defaults.batch_target),
        deadline: a
            .parsed("deadline-us")
            .map_or(defaults.deadline, Duration::from_micros),
        fault_injector: faults(a).map(FaultInjector::new),
        queue_cap: a.parsed("queue-cap").unwrap_or(defaults.queue_cap),
        admission,
        // 0 is no budget, as on the wire.
        op_deadline: a
            .parsed("op-deadline-us")
            .filter(|&us| us > 0)
            .map(Duration::from_micros),
        ..defaults
    }
}

/// `--window`, `--idle-timeout-ms` (0 is never) and `--allow-shutdown`.
fn net_server(a: &Args) -> NetServerConfig {
    let defaults = NetServerConfig::default();
    NetServerConfig {
        window: a.parsed("window").unwrap_or(defaults.window),
        idle_timeout: a
            .parsed("idle-timeout-ms")
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis),
        allow_remote_shutdown: a.has("allow-shutdown"),
    }
}

fn spill(a: &Args) -> Spill {
    let path = |name| a.flag(name).map(PathBuf::from);
    Spill {
        metrics: path("metrics-out"),
        trace: path("trace-out"),
        folded: path("folded-out"),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        fail("no command")
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return;
    }
    let Some((_, run)) = COMMANDS.iter().find(|(name, _)| name == cmd) else {
        fail(&format!("unknown command {cmd:?}"))
    };
    match run(&Args::parse(cmd, rest)) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(cmd: &str, raw: &[&str]) -> Args {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(cmd, &raw)
    }

    /// Every `--flag` spelled in the usage text is in [`FLAGS`], every
    /// entry of [`FLAGS`] is spelled there, and so is every command the
    /// table names.
    #[test]
    fn usage_and_flag_table_agree() {
        let text = usage();
        let spelled: std::collections::BTreeSet<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let table: std::collections::BTreeSet<&str> = FLAGS.iter().map(|f| f.0).collect();
        assert_eq!(spelled, table);
        assert_eq!(FLAGS.len(), table.len(), "a flag is listed twice");
        for (cmd, _) in COMMANDS {
            assert!(text.contains(&format!("  cuart {cmd} ")), "{cmd}");
        }
        for (flag, _, commands) in FLAGS {
            for cmd in commands.split_whitespace() {
                assert!(COMMANDS.iter().any(|(c, _)| *c == cmd), "--{flag}: {cmd}");
            }
        }
    }

    /// 0 means "none" for a latency budget, as on the wire and as for
    /// `--queue-cap` and `--idle-timeout-ms`: a zero budget would shed
    /// every request before the executor reached it.
    #[test]
    fn a_zero_op_deadline_is_no_deadline() {
        let budget = |us: &str| scheduler(&args("serve", &["--op-deadline-us", us])).op_deadline;
        assert_eq!(budget("0"), None);
        assert_eq!(budget("500"), Some(Duration::from_micros(500)));
        assert_eq!(scheduler(&args("serve", &[])).op_deadline, None);
    }
}
