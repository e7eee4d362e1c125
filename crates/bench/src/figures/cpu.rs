//! Figure 7 — CPU: classical ART vs the CuART memory layout.
//!
//! Paper caption: *"Lookup throughput on classical ART vs CuART memory
//! layout on CPUs (12 threads, 32ki items per batch, KL = Key Length,
//! workstation)"*. Both engines here are **really measured** (wall time,
//! multi-threaded); expected shape: the contiguous CuART layout wins
//! 2.5× on small (cache-resident) trees, growing toward 10–20× on large
//! ones.

use crate::context::RunCtx;
use crate::series::{Figure, Series};
use cuart_host::cpu_runner::{measure_art_lookups, measure_cuart_cpu_lookups};
use cuart_workloads::QueryStream;

const THREADS: usize = 12;
const BATCH: usize = 32 * 1024;
const QUERY_BATCHES: usize = 4;

/// Regenerate Figure 7.
pub fn fig7(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig7",
        "CPU lookup: classical ART vs CuART layout (12 threads, 32Ki batch)",
        "tree entries",
        "MOps/s",
    );
    let paper_sizes = [65_536usize, 1 << 20, 4 << 20, 26_000_000];
    let key_lens = [8usize, 32];
    for &kl in &key_lens {
        let mut art_series = Series::new(format!("ART KL={kl}"));
        let mut cuart_series = Series::new(format!("CuART KL={kl}"));
        for &paper_n in &paper_sizes {
            let n = ctx.tree_size(paper_n);
            let (art, keys) = ctx.build_art(n, kl, 7 + kl as u64);
            let index = ctx.cuart(&art);
            let mut qs = QueryStream::new(keys, 1.0, 13);
            let queries: Vec<Vec<u8>> = (0..QUERY_BATCHES)
                .flat_map(|_| qs.next_batch(BATCH))
                .collect();
            art_series.push(n as f64, measure_art_lookups(&art, &queries, THREADS));
            cuart_series.push(
                n as f64,
                measure_cuart_cpu_lookups(&index, &queries, THREADS),
            );
        }
        fig.series.push(art_series);
        fig.series.push(cuart_series);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fig7() -> Figure {
        // Heavy scaling for test speed.
        fig7(&RunCtx::new(512, std::env::temp_dir()))
    }

    #[test]
    fn fig7_series_are_well_formed() {
        let fig = small_fig7();
        assert_eq!(fig.series.len(), 4);
        for kl in [8usize, 32] {
            let art = fig.series(&format!("ART KL={kl}")).unwrap();
            let cuart = fig.series(&format!("CuART KL={kl}")).unwrap();
            assert_eq!(art.points.len(), cuart.points.len());
            for &(x, y) in art.points.iter().chain(&cuart.points) {
                assert!(y.is_finite() && y > 0.0, "KL={kl}: throughput {y} at n={x}");
            }
        }
    }

    /// Who wins a measured wall-clock race depends on what else the host is
    /// doing, so this is not a tier-1 test. Run it alone:
    /// `cargo test -p cuart-bench --release -- --ignored --test-threads 1`.
    #[test]
    #[ignore = "asserts the outcome of a wall-clock race"]
    fn fig7_cuart_layout_wins_the_wall_clock_race() {
        let fig = small_fig7();
        for kl in [8usize, 32] {
            let art = fig.series(&format!("ART KL={kl}")).unwrap();
            let cuart = fig.series(&format!("CuART KL={kl}")).unwrap();
            // On the largest tree the contiguous layout must win clearly.
            let (last_x, art_y) = *art.points.last().unwrap();
            let cuart_y = cuart.y_at(last_x).unwrap();
            assert!(
                cuart_y > art_y,
                "KL={kl}: CuART layout {cuart_y} !> ART {art_y} at n={last_x}"
            );
        }
    }
}
