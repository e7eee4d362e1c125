//! Figures 8–12 — GPU exact-lookup throughput sweeps.

use crate::context::RunCtx;
use crate::series::{Figure, Series};
use cuart::CuartIndex;
use cuart_art::Art;
use cuart_gpu_sim::DeviceConfig;
use cuart_grt::{ApiProfile, GrtIndex};
use cuart_host::gpu_runner::{run_cuart_lookups, run_grt_lookups, RunConfig};
use cuart_workloads::{btc_keys, QueryStream};

/// The three lookup engines compared throughout §4.3/§4.4. Indexes are
/// built once per data set and shared across sweep points — rebuilding the
/// 128 MB compacted-root LUT per point would dominate the harness — and a
/// sweep over data sets holds one at a time (`sweep_engines`).
pub(crate) struct EngineSet {
    cuart: CuartIndex,
    grt: GrtIndex,
    keys: Vec<Vec<u8>>,
}

impl EngineSet {
    pub(crate) fn build(ctx: &RunCtx, art: &Art<u64>, keys: Vec<Vec<u8>>) -> Self {
        EngineSet {
            cuart: ctx.cuart(art),
            grt: ctx.grt(art),
            keys,
        }
    }

    pub(crate) fn labels() -> [&'static str; 3] {
        ["CuART", "GRT-CUDA", "GRT-OpenCL"]
    }

    /// End-to-end MOps/s for one engine under `cfg`.
    pub(crate) fn mops(&self, engine: &str, dev: &DeviceConfig, cfg: &RunConfig, seed: u64) -> f64 {
        let mut qs = QueryStream::new(self.keys.clone(), 1.0, seed);
        match engine {
            "CuART" => run_cuart_lookups(&self.cuart, dev, cfg, &mut qs).mops,
            "GRT-CUDA" => run_grt_lookups(&self.grt, ApiProfile::Cuda, dev, cfg, &mut qs).mops,
            "GRT-OpenCL" => run_grt_lookups(&self.grt, ApiProfile::OpenCl, dev, cfg, &mut qs).mops,
            other => panic!("unknown engine {other}"),
        }
    }
}

/// Figure 8 — *"Lookup Throughput with increasing batch size (26Mi
/// entries, 8 threads, 32 byte keys, server)"*. Expected: poor at tiny
/// batches (dispatch overhead), a broad plateau from ~8 Ki to ~128 Ki.
pub fn fig8(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig8",
        "Lookup throughput vs batch size (26Mi entries, 8 threads, 32B keys, server)",
        "batch size",
        "MOps/s",
    );
    let n = ctx.tree_size(26_000_000);
    let (art, keys) = ctx.build_art(n, 32, 801);
    let set = EngineSet::build(ctx, &art, keys);
    drop(art);
    let dev = ctx.server();
    let batches = [1024usize, 4096, 8192, 16384, 32768, 65536, 131072];
    for engine in EngineSet::labels() {
        let mut s = Series::new(engine);
        for &batch in &batches {
            let cfg = RunConfig {
                batch_size: batch,
                total_queries: (batch * 16).max(1 << 18),
                sample_batches: 2,
                ..RunConfig::default()
            };
            s.push(batch as f64, set.mops(engine, &dev, &cfg, 8));
        }
        fig.series.push(s);
    }
    fig
}

/// Figure 9 — *"Lookup Throughput with increasing number of threads (26Mi
/// entries, 32 byte keys, 32ki items per batch, server)"*. Expected: rises
/// with host threads, then plateaus at the GPU bound; the OpenCL variant
/// plateaus lower (2 effective streams).
pub fn fig9(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig9",
        "Lookup throughput vs host threads (26Mi entries, 32B keys, 32Ki batch, server)",
        "host threads",
        "MOps/s",
    );
    let n = ctx.tree_size(26_000_000);
    let (art, keys) = ctx.build_art(n, 32, 901);
    let set = EngineSet::build(ctx, &art, keys);
    drop(art);
    let dev = ctx.server();
    for engine in EngineSet::labels() {
        let mut s = Series::new(engine);
        for threads in [1usize, 2, 4, 8, 16, 32] {
            let cfg = RunConfig {
                host_threads: threads,
                streams: threads.max(4),
                ..RunConfig::default()
            };
            s.push(threads as f64, set.mops(engine, &dev, &cfg, 9));
        }
        fig.series.push(s);
    }
    fig
}

/// Figure 10 — *"Lookup Throughput with increasing tree size (64k-144M
/// entries, 8 threads, 32byte keys, 16ki items per batch, workstation)"*.
/// Expected: CuART above GRT everywhere; CuART roughly flat or slightly
/// rising with density, GRT degrading as large nodes dominate.
pub fn fig10(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig10",
        "Lookup throughput vs tree size (8 threads, 32B keys, 16Ki batch, workstation)",
        "tree entries",
        "MOps/s",
    );
    let dev = ctx.workstation();
    let paper_sizes = [65_536usize, 1 << 20, 4 << 20, 26_000_000, 144_000_000];
    let cfg = RunConfig {
        batch_size: 16 * 1024,
        ..RunConfig::default()
    };
    let mut sizes: Vec<usize> = paper_sizes.iter().map(|&n| ctx.tree_size(n)).collect();
    sizes.dedup(); // scaling can collapse adjacent sizes
    fig.series = sweep_engines(&sizes, |&n| {
        let (art, keys) = ctx.build_art(n, 32, 1000 + n as u64);
        let set = EngineSet::build(ctx, &art, keys);
        drop(art);
        let mops = EngineSet::labels().map(|engine| set.mops(engine, &dev, &cfg, 10));
        (n as f64, mops)
    });
    fig
}

/// One series per engine over `points`, each point built, measured on all
/// three engines and dropped before the next is built — so a sweep holds
/// one data set's trees at a time, not all of them.
fn sweep_engines<P>(points: &[P], mut measure: impl FnMut(&P) -> (f64, [f64; 3])) -> Vec<Series> {
    let mut series = EngineSet::labels().map(Series::new);
    for point in points {
        let (x, mops) = measure(point);
        for (s, y) in series.iter_mut().zip(mops) {
            s.push(x, y);
        }
    }
    series.into()
}

/// Figure 11 — *"Lookup Throughput with increasing key length (26Mi
/// entries, 8 threads, 32ki items per batch, server)"*. Expected
/// crossover: GRT's byte-oriented compare wins at 4-byte keys, CuART's
/// word-oriented compare and fixed leaves win from ~8–16 bytes up.
pub fn fig11(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig11",
        "Lookup throughput vs key length (26Mi entries, 8 threads, 32Ki batch, server)",
        "key length (bytes)",
        "MOps/s",
    );
    let n = ctx.tree_size(26_000_000);
    let dev = ctx.server();
    let cfg = RunConfig::default();
    fig.series = sweep_engines(&[4usize, 8, 16, 24, 32], |&kl| {
        let (art, keys) = ctx.build_art(n, kl, 1100 + kl as u64);
        let set = EngineSet::build(ctx, &art, keys);
        drop(art);
        let mops = EngineSet::labels().map(|engine| set.mops(engine, &dev, &cfg, 11));
        (kl as f64, mops)
    });
    fig
}

/// Figure 12 — *"Throughput against the BTC dataset (15.4M keys, 32 byte
/// key length, 32ki items per batch, 8 threads, server)"*. Expected: both
/// engines slower than on uniform synthetic keys (deep shared prefixes),
/// CuART ~20 % above GRT.
pub fn fig12(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig12",
        "Throughput on the (synthetic) BTC dataset vs uniform keys (server)",
        "dataset (0=uniform, 1=BTC)",
        "MOps/s",
    );
    let n = ctx.tree_size(15_400_000);
    let dev = ctx.server();
    let cfg = RunConfig::default();
    eprintln!("[fig12] building uniform data set ({n} keys)");
    let (uniform_art, uniform_keys) = ctx.build_art(n, 32, 1201);
    let uniform = EngineSet::build(ctx, &uniform_art, uniform_keys);
    drop(uniform_art);
    eprintln!("[fig12] generating BTC keys");
    let btc = btc_keys(n, 1202);
    eprintln!("[fig12] building BTC tree");
    let btc_art = ctx.art_from_keys(&btc);
    eprintln!("[fig12] mapping BTC tree");
    let btc_set = EngineSet::build(ctx, &btc_art, btc);
    drop(btc_art);
    for engine in ["CuART", "GRT-CUDA"] {
        eprintln!("[fig12] running {engine}");
        let mut s = Series::new(engine);
        s.push(0.0, uniform.mops(engine, &dev, &cfg, 12));
        s.push(1.0, btc_set.mops(engine, &dev, &cfg, 12));
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> RunCtx {
        RunCtx::new(400, std::env::temp_dir())
    }

    #[test]
    #[ignore = "heavy sweep; covered by the figures binary (run with --ignored)"]
    fn fig8_plateau_shape() {
        let fig = fig8(&tiny_ctx());
        for engine in EngineSet::labels() {
            let s = fig.series(engine).unwrap();
            let first = s.points.first().unwrap().1;
            let best = s.max_y();
            assert!(
                best > 1.5 * first,
                "{engine}: large batches must beat tiny ones ({first} vs {best})"
            );
        }
        // CuART tops both GRT variants at the plateau.
        assert!(fig.series("CuART").unwrap().max_y() > fig.series("GRT-CUDA").unwrap().max_y());
    }

    #[test]
    fn fig9_threads_help_then_plateau() {
        let fig = fig9(&tiny_ctx());
        let cuart = fig.series("CuART").unwrap();
        assert!(cuart.y_at(8.0).unwrap() > cuart.y_at(1.0).unwrap());
    }

    #[test]
    #[ignore = "heavy sweep; covered by the figures binary (run with --ignored)"]
    fn fig12_btc_is_slower_than_uniform() {
        let fig = fig12(&tiny_ctx());
        for engine in ["CuART", "GRT-CUDA"] {
            let s = fig.series(engine).unwrap();
            assert!(
                s.y_at(1.0).unwrap() < s.y_at(0.0).unwrap(),
                "{engine}: BTC must be slower than uniform"
            );
        }
        // CuART stays ahead on BTC.
        assert!(
            fig.series("CuART").unwrap().y_at(1.0).unwrap()
                > fig.series("GRT-CUDA").unwrap().y_at(1.0).unwrap()
        );
    }
}
