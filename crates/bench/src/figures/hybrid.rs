//! Figures 13/14 — the hybrid CPU/GPU long-key split.

use crate::context::RunCtx;
use crate::series::{Figure, Series};
use cuart_grt::ApiProfile;
use cuart_host::gpu_runner::{run_cuart_lookups, run_grt_lookups, E2eReport, RunConfig};
use cuart_host::hybrid::{hybrid_throughput, HybridReport, CPU_LONG_KEY_NS};
use cuart_workloads::QueryStream;

const CPU_THREADS: usize = 56; // the paper's server: 2x Epyc 7752
const BATCH: usize = 32 * 1024;

/// One hybrid split of `BATCH` keys, `cpu_fraction` of them on the CPU,
/// recorded into the context's registry when one is attached.
fn hybrid(ctx: &RunCtx, gpu: &E2eReport, cpu_fraction: f64) -> HybridReport {
    let report = hybrid_throughput(gpu, BATCH, cpu_fraction, CPU_THREADS, CPU_LONG_KEY_NS);
    if let Some(t) = ctx.telemetry() {
        report.record_into(t, BATCH, cpu_fraction);
    }
    report
}

fn gpu_baseline(ctx: &RunCtx) -> (E2eReport, E2eReport, E2eReport) {
    let n = ctx.tree_size(26_000_000);
    let (art, keys) = ctx.build_art(n, 32, 1301);
    let dev = ctx.server();
    let cfg = RunConfig::default();
    let cuart = ctx.cuart(&art);
    let grt = ctx.grt(&art);
    let mut qs = QueryStream::new(keys.clone(), 1.0, 13);
    let cu = run_cuart_lookups(&cuart, &dev, &cfg, &mut qs);
    let mut qs = QueryStream::new(keys.clone(), 1.0, 13);
    let gc = run_grt_lookups(&grt, ApiProfile::Cuda, &dev, &cfg, &mut qs);
    let mut qs = QueryStream::new(keys, 1.0, 13);
    let go = run_grt_lookups(&grt, ApiProfile::OpenCl, &dev, &cfg, &mut qs);
    (cu, gc, go)
}

/// Figure 13 — *"Hybrid CPU/GPU query approach (8 threads GPU / 56 threads
/// CPU, 32+byte keys, 32ki items per batch, 26Mi entries, server)"*.
/// Long keys are processed on the CPU; expected: throughput collapses
/// fast — ~50 % at 3 % CPU keys — then flattens into a CPU-bound tail.
pub fn fig13(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig13",
        "Hybrid: throughput vs long-key fraction (8 GPU / 56 CPU threads, server)",
        "long keys on CPU (%)",
        "MOps/s",
    );
    let (cu, _, _) = gpu_baseline(ctx);
    let mut s = Series::new("CuART hybrid");
    for pct in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0] {
        s.push(pct, hybrid(ctx, &cu, pct / 100.0).mops);
    }
    fig.series.push(s);
    fig
}

/// Figure 14 — *"Hybrid CPU/GPU query approach (8 threads GPU / 56 threads
/// CPU, 5% CPU keys, 32ki items per batch, 26Mi entries, server)"*. A
/// control experiment with 5 % **short** keys forced onto the CPU:
/// expected — every GPU engine converges to (almost) the same CPU-bound
/// level.
pub fn fig14(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig14",
        "Hybrid: all engines with 5% of keys on the CPU (server)",
        "engine (0=CuART, 1=GRT-CUDA, 2=GRT-OpenCL)",
        "MOps/s",
    );
    let (cu, gc, go) = gpu_baseline(ctx);
    let mut gpu_only = Series::new("GPU only");
    let mut with_cpu = Series::new("5% keys on CPU");
    for (i, r) in [&cu, &gc, &go].iter().enumerate() {
        gpu_only.push(i as f64, r.mops);
        with_cpu.push(i as f64, hybrid(ctx, r, 0.05).mops);
    }
    fig.series.push(gpu_only);
    fig.series.push(with_cpu);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> RunCtx {
        RunCtx::new(400, std::env::temp_dir())
    }

    #[test]
    fn fig13_collapse_shape() {
        let fig = fig13(&tiny_ctx());
        let s = fig.series("CuART hybrid").unwrap();
        let base = s.y_at(0.0).unwrap();
        let at3 = s.y_at(3.0).unwrap();
        let at50 = s.y_at(50.0).unwrap();
        assert!(
            at3 < 0.75 * base,
            "3% CPU keys must hurt badly: {at3} vs {base}"
        );
        assert!(at50 < at3);
        // Monotone non-increasing.
        for w in s.points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
    }

    #[test]
    fn fig14_cpu_bound_convergence() {
        let fig = fig14(&tiny_ctx());
        let gpu = fig.series("GPU only").unwrap();
        let cpu = fig.series("5% keys on CPU").unwrap();
        // GPU-only differs per engine; with the CPU leg they converge.
        let spread_gpu = gpu.max_y() - gpu.points.iter().map(|(_, y)| *y).fold(f64::MAX, f64::min);
        let spread_cpu = cpu.max_y() - cpu.points.iter().map(|(_, y)| *y).fold(f64::MAX, f64::min);
        assert!(spread_cpu < spread_gpu);
        // And the CPU leg costs everyone throughput.
        for i in 0..3 {
            assert!(cpu.y_at(i as f64).unwrap() <= gpu.y_at(i as f64).unwrap());
        }
    }
}
