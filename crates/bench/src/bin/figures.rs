//! Regenerate the paper's figures. See `cuart-bench` crate docs.
//!
//! ```text
//! figures all                    # every figure at 1/16 scale
//! figures fig10 fig17            # selected figures
//! figures all --scale 64         # smaller/faster
//! figures all --full             # paper-scale (needs a big machine)
//! figures all --out results/     # output directory (default: results/)
//! figures all --telemetry        # also dump results/telemetry.json
//! figures fig-regress            # perf gate vs results/baseline.json
//! figures fig-regress --update-baseline   # re-pin the baseline
//! figures ablations              # modeled design-choice ablations
//! ```

use cuart_bench::series::merge_summary;
use cuart_bench::{ablations, figures, regress, RunCtx};
use cuart_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// The `fig-regress` pseudo-figure: run the pinned smoke workload and
/// gate on the checked-in baseline (see [`regress`]). Exits the process
/// on failure so CI trips; `--update-baseline` re-pins instead.
fn run_regress_gate(baseline_path: &str, update: bool, threshold: f64) {
    let current = regress::run_smoke();
    if update {
        if let Some(dir) = std::path::Path::new(baseline_path).parent() {
            std::fs::create_dir_all(dir).expect("create baseline dir");
        }
        std::fs::write(baseline_path, regress::to_json(&current)).expect("write baseline");
        println!("fig-regress: baseline re-pinned -> {baseline_path}");
        return;
    }
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!(
            "fig-regress: cannot read {baseline_path}: {e}\n\
             (generate it with: figures fig-regress --update-baseline)"
        );
        std::process::exit(2);
    });
    let base = regress::parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("fig-regress: bad baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    print!("{}", regress::diff_report(&current, &base));
    let regressions = regress::compare(&current, &base, threshold);
    if regressions.is_empty() {
        println!(
            "fig-regress: OK ({} metrics within {:.0}% of {baseline_path})",
            base.len(),
            threshold * 100.0
        );
    } else {
        eprintln!("fig-regress: FAILED against {baseline_path}:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}

const USAGE: &str = "usage: figures <all|figN|fig-regress|ablations ...> [--scale N] [--full] \
                     [--out DIR] [--telemetry] [--baseline FILE] [--update-baseline] [--threshold F]";

/// Print the usage and the known ids, then exit 2 — before any figure ran.
fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}\n{USAGE}");
    eprintln!(
        "known ids: all {} fig-regress ablations",
        figures::ALL.join(" ")
    );
    std::process::exit(2);
}

/// The value after flag `args[*i]`, advancing `i` past it.
fn flag_value<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => usage_error(&format!("{flag} takes a value")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = 16usize;
    let mut out_dir = "results".to_string();
    let mut want_telemetry = false;
    let mut baseline = "results/baseline.json".to_string();
    let mut update_baseline = false;
    let mut threshold = regress::DEFAULT_THRESHOLD;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = match flag_value(&args, &mut i).parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage_error("--scale takes an integer >= 1"),
                }
            }
            "--full" => scale = 1,
            "--out" => out_dir = flag_value(&args, &mut i).to_string(),
            "--telemetry" => want_telemetry = true,
            "--baseline" => baseline = flag_value(&args, &mut i).to_string(),
            "--update-baseline" => update_baseline = true,
            "--threshold" => {
                threshold = flag_value(&args, &mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--threshold takes a float"))
            }
            "all" => ids.extend(figures::ALL.iter().map(|s| s.to_string())),
            id if figures::ALL.contains(&id) || id == "fig-regress" || id == "ablations" => {
                ids.push(id.to_string())
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage_error("no figure id given");
    }
    if ids.iter().any(|id| id == "fig-regress") {
        run_regress_gate(&baseline, update_baseline, threshold);
        ids.retain(|id| id != "fig-regress");
        if ids.is_empty() {
            return;
        }
    }
    if ids.iter().any(|id| id == "ablations") {
        print!("{}", ablations::report());
        ids.retain(|id| id != "ablations");
        if ids.is_empty() {
            return;
        }
    }
    ids.dedup();

    let telemetry = want_telemetry.then(|| Arc::new(Telemetry::new()));
    let mut ctx = RunCtx::new(scale, &out_dir);
    if let Some(t) = &telemetry {
        ctx = ctx.with_telemetry(t.clone());
    }
    println!("# CuART figure regeneration (scale 1/{scale}, output {out_dir}/)\n");
    let mut summary = String::new();
    for id in &ids {
        let start = Instant::now();
        eprintln!("[{id}] running ...");
        let fig = figures::run(id, &ctx);
        fig.write_csv(&ctx.out_dir).expect("write CSV");
        let elapsed = start.elapsed().as_secs_f64();
        eprintln!("[{id}] done in {elapsed:.1}s -> {out_dir}/{id}.csv");
        let md = fig.to_markdown();
        println!("{md}");
        summary.push_str(&md);
    }
    std::fs::create_dir_all(&ctx.out_dir).expect("create output dir");
    // Merge by `### <fig>` section: a single-figure run refreshes its own
    // section and leaves the other figures' tables where they were.
    let summary_path = ctx.out_dir.join("SUMMARY.md");
    let existing = std::fs::read_to_string(&summary_path).unwrap_or_default();
    std::fs::write(&summary_path, merge_summary(&existing, &summary)).expect("write summary");
    println!("merged {} figure(s) into {out_dir}/SUMMARY.md", ids.len());
    if let Some(t) = &telemetry {
        let path = ctx.out_dir.join("telemetry.json");
        std::fs::write(&path, t.snapshot().to_json()).expect("write telemetry snapshot");
        println!("wrote {}", path.display());
    }
}
