//! Stack benchmark for CuART: both clocks, four workloads, a six-rung
//! layer ladder. See `benchmark/README.md`.
//!
//! ```text
//! stack-bench --workload W --seed N --seconds S --trace 0|1   (the driver's form)
//! stack-bench run   [--seed N] [--seconds S] [--workload W] [--smoke] [--trace] [--out FILE]
//! stack-bench trace [--seed N] [--workload W] [--smoke] [--out FILE]
//! stack-bench compare DIR_A DIR_B
//! ```

mod alloc;
mod bench;
mod compare;
mod drive;
mod metrics;
mod modeled;
mod oracle;
mod procfs;
mod span;
mod stack;
mod stats;
mod workload;

use bench::Options;
use metrics::WorkloadResult;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Scale, Spec, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Schema tag of run-set files.
const SCHEMA: &str = "cuart-stack-bench-v1";
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Where traces go: inside the benchmark's own directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

const USAGE: &str = "usage:
  stack-bench --workload W --seed N --seconds S --trace 0|1
  stack-bench run   [--seed N] [--seconds S] [--workload W] [--smoke] [--trace] [--out FILE]
  stack-bench trace [--seed N] [--workload W] [--smoke] [--out FILE]
  stack-bench compare DIR_A DIR_B";

/// `--name value` pairs, bare `--name` switches and positionals.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    flags.insert(name.to_string(), String::new());
                }
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} {v:?}")),
        }
    }

    fn workloads(&self) -> Result<Vec<&'static Spec>, String> {
        match self.flags.get("workload") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => workload::workload(name)
                .map(|s| vec![s])
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }

    fn options(&self) -> Result<Options, String> {
        let seconds: f64 = self.get("seconds", DEFAULT_SECONDS)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is out of range"));
        }
        let smoke = self.has("smoke");
        Ok(Options {
            seed: self.get("seed", 1)?,
            // A smoke run is two short segments whatever the clock says.
            seconds: if smoke { 0.0 } else { seconds },
            scale: if smoke { Scale::SMOKE } else { Scale::FULL },
        })
    }
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// What the numbers were measured on.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = first_line(Command::new("rustc").arg("--version"));
    let commit = first_line(
        Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(env!("CARGO_MANIFEST_DIR")),
    );
    let unknown = || "unknown".to_string();
    format!(
        "{{\"nproc\":{nproc},\"profile\":\"{profile}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        rustc.unwrap_or_else(unknown),
        commit.unwrap_or_else(unknown)
    )
}

/// A run-set file: schema tag, host fingerprint, one entry per run.
fn run_set(entries: &[String]) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"host\":{},\"runs\":[\n{}\n]}}\n",
        host_fingerprint(),
        entries.join(",\n")
    )
}

/// The entries of a run-set file this program wrote, still as text.
fn run_entries(doc: &str) -> Option<&str> {
    doc.split_once("\"runs\":[\n")?.1.strip_suffix("\n]}\n")
}

fn write_run_set(path: &Path, entries: &[String]) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, run_set(entries))
}

/// The ladder of one workload; its spans go to `out/trace-<workload>.json`.
fn traced(spec: &'static Spec, opt: &Options) -> io::Result<WorkloadResult> {
    let t = bench::trace(spec, opt)?;
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, span::to_chrome_json(&t.spans))?;
    eprintln!(
        "{}: {} spans -> {}; layer self times sum to {:.1} us, untraced p50 is {:.1} us",
        spec.name,
        t.spans.len(),
        path.display(),
        t.ladder_sum_us,
        t.untraced_p50_us
    );
    Ok(t.result)
}

fn report_failure(r: &WorkloadResult) {
    if r.failed > 0 {
        eprintln!(
            "{} ({}): {} of {} requests failed; first: {}",
            r.workload,
            r.mode,
            r.failed,
            r.attempted,
            r.first_failure.as_deref().unwrap_or("(no detail)")
        );
    }
}

/// The two measurements a workload has; also the subcommands' names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }
}

/// One measurement in this process: a line per metric on stdout. Returns
/// its run-set entry and whether every answer was right.
fn measure_here(spec: &'static Spec, mode: Mode, opt: &Options) -> Result<(String, bool), String> {
    eprintln!("# {}: {}", spec.name, spec.why);
    let r = match mode {
        Mode::Run => bench::run(spec, opt),
        Mode::Trace => traced(spec, opt),
    }
    .map_err(|e| format!("{}: {e}", spec.name))?;
    print!("{}", r.lines());
    io::stdout().flush().map_err(|e| e.to_string())?;
    report_failure(&r);
    Ok((r.to_json(), r.failed == 0))
}

/// One measurement in a process of its own, as the driver runs them: peak
/// RSS, allocator state and thread placement start fresh for each.
fn measure_in_child(spec: &Spec, mode: Mode, args: &Args) -> Result<(String, bool), String> {
    let what = format!("{} {}", mode.name(), spec.name);
    let exe = std::env::current_exe().map_err(|e| format!("{what}: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let part = Path::new(OUT_DIR).join(format!(
        ".part-{}-{}-{}.json",
        std::process::id(),
        mode.name(),
        spec.name
    ));
    let mut cmd = Command::new(exe);
    cmd.arg(mode.name()).args(["--workload", spec.name]);
    for flag in ["seed", "seconds"] {
        if let Some(v) = args.flags.get(flag) {
            cmd.arg(format!("--{flag}")).arg(v);
        }
    }
    if args.has("smoke") {
        cmd.arg("--smoke");
    }
    let status = cmd
        .arg("--out")
        .arg(&part)
        .status()
        .map_err(|e| format!("{what}: {e}"))?;
    // 1 = measured, but some answer was wrong; anything else measured nothing.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{what}: child ended with {status}"));
    }
    let doc = std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
    let _ = std::fs::remove_file(&part);
    let entry = run_entries(&doc).ok_or_else(|| format!("{what}: malformed run set"))?;
    Ok((entry.to_string(), status.success()))
}

/// `run` and `trace`: every (or one) workload, a line per metric. More
/// than one measurement means one child process each.
fn cmd_measure(args: &Args, modes: &[Mode]) -> Result<ExitCode, String> {
    let opt = args.options()?;
    let specs = args.workloads()?;
    let alone = specs.len() * modes.len() == 1;
    let mut entries = Vec::new();
    let mut all_right = true;
    for spec in specs {
        for &mode in modes {
            let (entry, right) = if alone {
                measure_here(spec, mode, &opt)?
            } else {
                measure_in_child(spec, mode, args)?
            };
            entries.push(entry);
            all_right &= right;
        }
    }
    if let Some(out) = args.flags.get("out") {
        write_run_set(&PathBuf::from(out), &entries).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(if all_right {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The driver's form: one workload, one mode, one JSON line last.
fn cmd_driver(args: &Args) -> Result<ExitCode, String> {
    let opt = args.options()?;
    let [spec] = args.workloads()?[..] else {
        return Err("--workload is required".into());
    };
    let r = match args.get("trace", 0u8)? {
        0 => bench::run(spec, &opt),
        1 => traced(spec, &opt),
        t => return Err(format!("bad --trace {t}")),
    }
    .map_err(|e| format!("{}: {e}", spec.name))?;
    report_failure(&r);
    println!("{}", r.driver_json());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = &args.positional[..] else {
        return Err("compare takes two directories".into());
    };
    let load = |d: &String| compare::RunSet::load(Path::new(d)).map_err(|e| format!("{d}: {e}"));
    let bounds = compare::load_bounds(Path::new(BENCHMARK_JSON)).map_err(|e| e.to_string())?;
    let (table, failed) = compare::compare(&load(a)?, &load(b)?, &bounds);
    print!("{table}");
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => Args::parse(&argv[1..], &["smoke", "trace"]).and_then(|a| {
            let both = [Mode::Run, Mode::Trace];
            cmd_measure(&a, if a.has("trace") { &both } else { &both[..1] })
        }),
        Some("trace") => {
            Args::parse(&argv[1..], &["smoke"]).and_then(|a| cmd_measure(&a, &[Mode::Trace]))
        }
        Some("compare") => Args::parse(&argv[1..], &[]).and_then(|a| cmd_compare(&a)),
        Some(flag) if flag.starts_with("--") => {
            Args::parse(&argv, &["smoke"]).and_then(|a| cmd_driver(&a))
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("stack-bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_set_entries_round_trip_as_text() {
        let entries = vec![
            "{\"workload\":\"a\"}".to_string(),
            "{\"workload\":\"b\"}".to_string(),
        ];
        let doc = run_set(&entries);
        assert_eq!(run_entries(&doc), Some(entries.join(",\n").as_str()));
        let parsed = cuart_telemetry::json::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(
            parsed
                .get("runs")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(run_entries("{\"runs\":[]}"), None);
    }

    #[test]
    fn flags_switches_and_positionals() {
        let argv: Vec<String> = ["--seed", "7", "--smoke", "a", "--out", "f.json", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv, &["smoke"]).unwrap();
        assert_eq!(args.get("seed", 1u64), Ok(7));
        assert!(args.has("smoke") && !args.has("trace"));
        assert_eq!(args.positional, ["a", "b"]);
        assert_eq!(args.get("seconds", 10.0), Ok(10.0));
        assert!(
            Args::parse(&argv[..1], &[]).is_err(),
            "a flag without its value"
        );
        assert!(
            args.options().unwrap().seconds == 0.0,
            "smoke ignores the clock"
        );
        let bad: Vec<String> = ["--workload", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Args::parse(&bad, &[]).unwrap().workloads().is_err());
    }
}
