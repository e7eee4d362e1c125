//! End-to-end GPU throughput: sampled kernel times × pipeline model.
//!
//! Simulating every batch of a multi-million-query sweep would be wasteful:
//! batches are statistically identical, so a few are simulated (warm L2,
//! steady state) and the per-batch time feeds the
//! [`pipeline`](cuart_gpu_sim::pipeline) event model together with the PCIe
//! legs and the host-side per-batch cost.

use cuart::{CuartIndex, DELETE};
use cuart_gpu_sim::exec::KernelReport;
use cuart_gpu_sim::pipeline::{simulate, PipelineParams, PipelineReport};
use cuart_gpu_sim::{pcie, DeviceConfig};
use cuart_grt::{ApiProfile, GrtIndex};
use cuart_workloads::{QueryStream, UpdateStream};

/// Host CPU cost per dispatched batch: assembly of the key block plus
/// post-processing of the result block (§4.1's "CPU overhead for
/// processing the lookups afterwards").
pub const HOST_NS_BASE: f64 = 20_000.0;
/// Host CPU cost per query within a batch.
pub const HOST_NS_PER_ITEM: f64 = 25.0;

/// Which engine processes the batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// CuART on the simulated GPU.
    Cuart,
    /// GRT with the CUDA host API.
    GrtCuda,
    /// GRT with the OpenCL host API (heavier dispatch, 2 usable streams).
    GrtOpenCl,
}

impl Engine {
    /// Display label (matches the paper's figure legends).
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Cuart => "CuART",
            Engine::GrtCuda => "GRT-CUDA",
            Engine::GrtOpenCl => "GRT-OpenCL",
        }
    }
}

/// Sweep-level run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Host threads feeding the GPU (paper default: 8).
    pub host_threads: usize,
    /// Command streams (the paper's host code uses "a variable amount").
    pub streams: usize,
    /// Queries per batch (paper default: 32 Ki).
    pub batch_size: usize,
    /// Total queries the modeled run processes.
    pub total_queries: usize,
    /// Batches actually pushed through the simulator (≥ 2: first warms the
    /// L2, the rest are averaged).
    pub sample_batches: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            host_threads: 8,
            streams: 8,
            batch_size: 32 * 1024,
            total_queries: 1 << 20,
            sample_batches: 3,
        }
    }
}

/// End-to-end throughput report.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// End-to-end throughput in MOps/s.
    pub mops: f64,
    /// Steady-state kernel time per batch (ns).
    pub kernel_ns_per_batch: f64,
    /// The last sampled kernel report (transaction statistics).
    pub kernel: KernelReport,
    /// The pipeline simulation result.
    pub pipeline: PipelineReport,
}

fn compose(
    dev: &DeviceConfig,
    cfg: &RunConfig,
    kernel_ns: f64,
    kernel: KernelReport,
    key_bytes: usize,
    launch_overhead_ns: f64,
    streams: usize,
) -> E2eReport {
    let batches = cfg.total_queries.div_ceil(cfg.batch_size);
    // The per-batch host cost covers assembly before submit and result
    // handling after copy-down in roughly equal measure (§4.1); both
    // halves occupy the owning host thread.
    let (host_prepare_ns, host_post_ns) =
        PipelineParams::split_host_ns(HOST_NS_BASE + HOST_NS_PER_ITEM * cfg.batch_size as f64);
    let params = PipelineParams {
        batches,
        items_per_batch: cfg.batch_size,
        host_threads: cfg.host_threads,
        streams,
        host_prepare_ns,
        host_post_ns,
        h2d_ns: pcie::upload(&dev.pcie, cfg.batch_size, key_bytes + 1).time_ns,
        kernel_ns,
        d2h_ns: pcie::download(&dev.pcie, cfg.batch_size, 8).time_ns,
        launch_overhead_ns,
    };
    let pipeline = simulate(&params);
    E2eReport {
        mops: pipeline.mops,
        kernel_ns_per_batch: kernel_ns,
        kernel,
        pipeline,
    }
}

/// Average the steady-state (post-warmup) sampled kernel times.
fn steady_state(samples: &[(f64, KernelReport)]) -> (f64, KernelReport) {
    let steady = if samples.len() > 1 {
        &samples[1..]
    } else {
        samples
    };
    match steady.last() {
        Some((_, last)) => {
            let mean = steady.iter().map(|(t, _)| *t).sum::<f64>() / steady.len() as f64;
            (mean, last.clone())
        }
        None => (0.0, KernelReport::default()),
    }
}

/// End-to-end CuART lookup throughput on `dev`.
pub fn run_cuart_lookups(
    index: &CuartIndex,
    dev: &DeviceConfig,
    cfg: &RunConfig,
    queries: &mut QueryStream,
) -> E2eReport {
    let mut session = index.device_session(dev);
    let samples: Vec<(f64, KernelReport)> = (0..cfg.sample_batches.max(2))
        .map(|_| {
            let batch = queries.next_batch(cfg.batch_size);
            #[expect(clippy::expect_used, reason = "figure-runner over an in-memory device; a lookup error is a bench-setup bug worth aborting the run for")]
            let (_, report) = session
                .lookup_batch(&batch)
                .expect("device lookup leg failed");
            (report.time_ns, report)
        })
        .collect();
    let (kernel_ns, kernel) = steady_state(&samples);
    compose(
        dev,
        cfg,
        kernel_ns,
        kernel,
        index.device_key_stride(),
        dev.launch_overhead_us * 1000.0,
        cfg.streams,
    )
}

/// End-to-end GRT lookup throughput on `dev` under an API profile.
pub fn run_grt_lookups(
    index: &GrtIndex,
    api: ApiProfile,
    dev: &DeviceConfig,
    cfg: &RunConfig,
    queries: &mut QueryStream,
) -> E2eReport {
    let stride = index.buffer().max_key_len.clamp(8, 64);
    let samples: Vec<(f64, KernelReport)> = (0..cfg.sample_batches.max(2))
        .map(|_| {
            let batch = queries.next_batch(cfg.batch_size);
            let (_, report) = index.lookup_batch_device(dev, &batch, stride);
            (report.time_ns, report)
        })
        .collect();
    let (kernel_ns, kernel) = steady_state(&samples);
    compose(
        dev,
        cfg,
        kernel_ns,
        kernel,
        stride,
        api.launch_overhead_ns(dev),
        cfg.streams.min(api.stream_cap()),
    )
}

/// End-to-end CuART update throughput (two-stage device kernel, §3.4) with
/// an explicit hash-table capacity (§4.5 default: 1 Mi slots).
pub fn run_cuart_updates(
    index: &CuartIndex,
    dev: &DeviceConfig,
    cfg: &RunConfig,
    updates: &mut UpdateStream,
    table_slots: usize,
) -> E2eReport {
    let mut session = index.device_session_with_table(dev, table_slots);
    let samples: Vec<(f64, KernelReport)> = (0..cfg.sample_batches.max(2))
        .map(|_| {
            let batch = updates.next_batch(cfg.batch_size, DELETE);
            #[expect(clippy::expect_used, reason = "figure-runner over an in-memory device; an update error is a bench-setup bug worth aborting the run for")]
            let (_, report) = session
                .update_batch(&batch)
                .expect("device update leg failed");
            (report.time_ns, report)
        })
        .collect();
    let (kernel_ns, kernel) = steady_state(&samples);
    // Updates upload values alongside keys.
    let report = compose(
        dev,
        cfg,
        kernel_ns,
        kernel,
        index.device_key_stride() + 8,
        dev.launch_overhead_us * 1000.0,
        cfg.streams,
    );
    // (The hash-table clear cost is already inside kernel_ns via the
    // session's update_batch.)
    report
}

/// End-to-end GRT update throughput: host-side writes + dirty-region sync
/// (see `cuart-grt::update`); near-constant across devices.
pub fn run_grt_updates(
    index: &mut GrtIndex,
    dev: &DeviceConfig,
    cfg: &RunConfig,
    updates: &mut UpdateStream,
) -> E2eReport {
    let mut total_ns = 0.0;
    let batches = cfg.sample_batches.max(1);
    for _ in 0..batches {
        let batch = updates.next_batch(cfg.batch_size, DELETE);
        // GRT has no device delete path; deletes become value tombstones.
        let batch: Vec<(Vec<u8>, u64)> = batch
            .into_iter()
            .map(|(k, v)| (k, if v == DELETE { 0 } else { v }))
            .collect();
        let out = index.update_batch(&batch, dev);
        total_ns += out.modeled_ns;
    }
    let per_batch = total_ns / batches as f64;
    // Host-side work cannot pipeline with itself: throughput is direct.
    let mops = cfg.batch_size as f64 / per_batch * 1000.0;
    E2eReport {
        mops,
        kernel_ns_per_batch: per_batch,
        kernel: KernelReport::default(),
        pipeline: simulate(&PipelineParams {
            batches: 1,
            items_per_batch: cfg.batch_size,
            host_threads: 1,
            streams: 1,
            // All-host work: the whole batch cost is "preparation".
            host_prepare_ns: per_batch,
            host_post_ns: 0.0,
            h2d_ns: 0.0,
            kernel_ns: 0.0,
            d2h_ns: 0.0,
            launch_overhead_ns: 0.0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart::CuartConfig;
    use cuart_art::Art;
    use cuart_gpu_sim::devices;
    use cuart_workloads::uniform_keys;

    fn setup(n: usize, key_len: usize) -> (Art<u64>, Vec<Vec<u8>>) {
        let keys = uniform_keys(n, key_len, 99);
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64).unwrap();
        }
        (art, keys)
    }

    fn small_cfg() -> RunConfig {
        RunConfig {
            batch_size: 2048,
            total_queries: 1 << 16,
            sample_batches: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn cuart_beats_grt_on_lookups() {
        // Paper configuration (3-byte LUT) on a tree whose mid levels
        // exceed the L2 — the L2 is scaled with the tree size exactly as
        // the figure harness does, so cache-residency regimes match the
        // paper's 26 Mi-entry runs.
        let n = 120_000;
        let (art, keys) = setup(n, 32);
        let cuart = CuartIndex::build(&art, &CuartConfig::default());
        let grt = GrtIndex::build(&art);
        let mut dev = devices::rtx3090();
        dev.l2.size_bytes = ((dev.l2.size_bytes as f64 * n as f64 / 26e6) as usize).max(64 << 10);
        let cfg = RunConfig {
            batch_size: 8192,
            total_queries: 1 << 17,
            sample_batches: 2,
            ..RunConfig::default()
        };
        let mut qs = QueryStream::new(keys.clone(), 1.0, 5);
        let cu = run_cuart_lookups(&cuart, &dev, &cfg, &mut qs);
        let mut qs = QueryStream::new(keys.clone(), 1.0, 5);
        let gc = run_grt_lookups(&grt, ApiProfile::Cuda, &dev, &cfg, &mut qs);
        assert!(
            cu.mops > 1.2 * gc.mops,
            "CuART {} MOps vs GRT {} MOps",
            cu.mops,
            gc.mops
        );
        assert!(
            cu.mops < 6.0 * gc.mops,
            "speedup should stay in the paper's range"
        );
    }

    #[test]
    fn opencl_profile_is_slower_than_cuda() {
        let (art, keys) = setup(30_000, 16);
        let grt = GrtIndex::build(&art);
        let dev = devices::a100();
        let cfg = small_cfg();
        let mut qs = QueryStream::new(keys.clone(), 1.0, 5);
        let cuda = run_grt_lookups(&grt, ApiProfile::Cuda, &dev, &cfg, &mut qs);
        let mut qs = QueryStream::new(keys, 1.0, 5);
        let ocl = run_grt_lookups(&grt, ApiProfile::OpenCl, &dev, &cfg, &mut qs);
        assert!(cuda.mops >= ocl.mops);
    }

    #[test]
    fn cuart_updates_are_order_of_magnitude_above_grt() {
        let (art, keys) = setup(60_000, 16);
        let cuart = CuartIndex::build(&art, &CuartConfig::for_tests());
        let mut grt = GrtIndex::build(&art);
        let dev = devices::rtx3090();
        let cfg = small_cfg();
        let mut us = UpdateStream::new(keys.clone(), 0.0, 0.0, 6);
        let cu = run_cuart_updates(&cuart, &dev, &cfg, &mut us, 1 << 16);
        let mut us = UpdateStream::new(keys, 0.0, 0.0, 6);
        let gr = run_grt_updates(&mut grt, &dev, &cfg, &mut us);
        assert!(
            cu.mops > 3.0 * gr.mops,
            "CuART update {} MOps vs GRT {} MOps",
            cu.mops,
            gr.mops
        );
    }

    #[test]
    fn throughput_scales_with_host_threads_until_gpu_bound() {
        let (art, keys) = setup(40_000, 16);
        let cuart = CuartIndex::build(&art, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut mops = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = RunConfig {
                host_threads: threads,
                ..small_cfg()
            };
            let mut qs = QueryStream::new(keys.clone(), 1.0, 5);
            mops.push(run_cuart_lookups(&cuart, &dev, &cfg, &mut qs).mops);
        }
        assert!(mops[1] > mops[0], "2 threads must beat 1: {mops:?}");
        assert!(
            mops[2] >= mops[1] * 0.95,
            "8 threads must not regress: {mops:?}"
        );
    }

    #[test]
    fn engine_labels() {
        assert_eq!(Engine::Cuart.label(), "CuART");
        assert_eq!(Engine::GrtOpenCl.label(), "GRT-OpenCL");
    }
}
