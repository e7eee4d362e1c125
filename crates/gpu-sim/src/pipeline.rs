//! Multi-stream software-pipelining model.
//!
//! The host code of both GRT and CuART (§4.1/§4.3) dispatches query batches
//! from several host threads over several command streams, so host
//! preparation, the host→device copy, kernel execution and the device→host
//! copy of different batches overlap. This module computes the resulting
//! makespan with a small deterministic event model:
//!
//! * each **host thread** prepares (and post-processes) its batches
//!   serially,
//! * one **copy-up engine** and one **copy-down engine** serve transfers
//!   FCFS (discrete GPUs have independent DMA engines per direction),
//! * the **compute engine** runs kernels FCFS, paying the launch overhead
//!   per dispatch,
//! * a batch occupies its **stream slot** from upload start to download
//!   end, so at most `streams` batches are in flight on the device.
//!
//! The figures 8 (batch-size sweep) and 9 (host-thread sweep) come directly
//! out of this model combined with per-batch kernel times from
//! [`exec`](crate::exec).

/// Input to the pipeline model; all per-batch times in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// Number of batches in the stream.
    pub batches: usize,
    /// Queries per batch.
    pub items_per_batch: usize,
    /// Host threads feeding the GPU. Saturates to 1 if zero.
    pub host_threads: usize,
    /// Command streams (in-flight batches on the device). Saturates to 1
    /// if zero.
    pub streams: usize,
    /// Host CPU time spent **preparing** a batch before submit (batch
    /// assembly, packing, sorting).
    pub host_prepare_ns: f64,
    /// Host CPU time spent **post-processing** a batch after its results
    /// copy down (unpacking, scatter to callers). Charged back to the
    /// owning host thread — a thread cannot prepare its next batch while
    /// it is still digesting the previous one.
    pub host_post_ns: f64,
    /// Host→device transfer time per batch.
    pub h2d_ns: f64,
    /// Kernel execution time per batch.
    pub kernel_ns: f64,
    /// Device→host transfer time per batch.
    pub d2h_ns: f64,
    /// Driver launch overhead per kernel dispatch.
    pub launch_overhead_ns: f64,
}

impl PipelineParams {
    /// Split a single per-batch host cost into equal prepare/post halves —
    /// the common case when the caller only knows the total host time.
    pub fn split_host_ns(total_host_ns: f64) -> (f64, f64) {
        (total_host_ns * 0.5, total_host_ns * 0.5)
    }

    /// Total host CPU time per batch (prepare + post).
    pub fn host_ns_per_batch(&self) -> f64 {
        self.host_prepare_ns + self.host_post_ns
    }
}

/// Pipeline stage names, for bottleneck reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Host-side batch preparation / result processing.
    Host,
    /// Host→device DMA.
    CopyUp,
    /// Kernel execution (incl. launch overhead).
    Compute,
    /// Device→host DMA.
    CopyDown,
}

/// Result of the pipeline simulation.
#[derive(Debug, Clone, Copy)]
pub struct PipelineReport {
    /// End-to-end time for all batches.
    pub makespan_ns: f64,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// The stage with the largest aggregate demand.
    pub bottleneck: Stage,
}

/// How many leading batches a traced simulation records span trees for —
/// enough to see the ramp-up and the steady state without flooding the
/// span ring on large sweeps.
pub const TRACED_BATCHES: usize = 32;

/// Run the event model.
///
/// `host_threads` / `streams` of zero saturate to 1 instead of panicking —
/// a degenerate configuration still produces a (serial) schedule, so
/// callers sweeping parameter grids need no special-casing.
pub fn simulate(p: &PipelineParams) -> PipelineReport {
    simulate_traced(p, None)
}

/// Per-batch absolute timestamps collected while tracing.
#[derive(Debug, Clone, Copy)]
struct BatchTimes {
    prepare_start: f64,
    submit: f64,
    h2d_start: f64,
    h2d_end: f64,
    k_start: f64,
    k_end: f64,
    d_start: f64,
    d_end: f64,
    post_start: f64,
    post_end: f64,
}

/// Run the event model and, when a registry is supplied, commit one
/// `pipeline` span tree covering the first [`TRACED_BATCHES`] batches.
///
/// Each `pipeline.batch` subtree pins its stages (`prepare`, `h2d`,
/// `launch`, `kernel`, `d2h`, `post`) at their absolute modeled offsets,
/// so the overlap across streams and engines is visible in the trace; the
/// root spans the whole makespan. The schedule itself is identical with
/// tracing on or off — tracing only observes.
pub fn simulate_traced(
    p: &PipelineParams,
    telemetry: Option<&cuart_telemetry::Telemetry>,
) -> PipelineReport {
    let host_threads = p.host_threads.max(1);
    let streams = p.streams.max(1);
    let mut host_avail = vec![0.0f64; host_threads];
    let mut stream_avail = vec![0.0f64; streams];
    let mut copy_up_avail = 0.0f64;
    let mut compute_avail = 0.0f64;
    let mut copy_down_avail = 0.0f64;
    let mut makespan = 0.0f64;
    let mut traced: Vec<BatchTimes> = Vec::new();

    for b in 0..p.batches {
        let t = b % host_threads;
        let s = b % streams;
        // Host prepares the batch (serial per thread).
        let prepare_start = host_avail[t];
        let submit = host_avail[t] + p.host_prepare_ns;
        host_avail[t] = submit;
        // Wait for the stream slot, then the copy-up engine.
        let ready = submit.max(stream_avail[s]);
        let h2d_start = ready.max(copy_up_avail);
        let h2d_end = h2d_start + p.h2d_ns;
        copy_up_avail = h2d_end;
        // Kernel on the compute engine.
        let k_start = h2d_end.max(compute_avail);
        let k_end = k_start + p.launch_overhead_ns + p.kernel_ns;
        compute_avail = k_end;
        // Results home on the copy-down engine.
        let d_start = k_end.max(copy_down_avail);
        let d_end = d_start + p.d2h_ns;
        copy_down_avail = d_end;
        stream_avail[s] = d_end;
        // The owning host thread post-processes the results serially: it
        // is busy from copy-down end for `host_post_ns`, and cannot start
        // preparing its next batch before that. (Leaving this out models
        // host threads as free after submit and overstates Fig. 9
        // host-thread scaling.)
        let post_start = host_avail[t].max(d_end);
        host_avail[t] = post_start + p.host_post_ns;
        makespan = makespan.max(host_avail[t]);
        if telemetry.is_some() && b < TRACED_BATCHES {
            traced.push(BatchTimes {
                prepare_start,
                submit,
                h2d_start,
                h2d_end,
                k_start,
                k_end,
                d_start,
                d_end,
                post_start,
                post_end: host_avail[t],
            });
        }
    }

    if let Some(t) = telemetry {
        use cuart_telemetry::names::spans;
        use cuart_telemetry::SpanNode;
        let ns = |x: f64| x.max(0.0).round() as u64;
        let batches = traced
            .iter()
            .enumerate()
            .map(|(i, bt)| {
                let rel = |x: f64| ns(x - bt.prepare_start);
                SpanNode::node(
                    spans::PIPELINE_BATCH,
                    vec![
                        SpanNode::leaf(spans::PREPARE, ns(bt.submit - bt.prepare_start)).at(0),
                        SpanNode::leaf(spans::H2D, ns(bt.h2d_end - bt.h2d_start))
                            .at(rel(bt.h2d_start)),
                        SpanNode::leaf(spans::LAUNCH, ns(p.launch_overhead_ns)).at(rel(bt.k_start)),
                        SpanNode::leaf(
                            spans::KERNEL,
                            ns(bt.k_end - bt.k_start - p.launch_overhead_ns),
                        )
                        .at(rel(bt.k_start + p.launch_overhead_ns)),
                        SpanNode::leaf(spans::D2H, ns(bt.d_end - bt.d_start)).at(rel(bt.d_start)),
                        SpanNode::leaf(spans::POST, ns(bt.post_end - bt.post_start))
                            .at(rel(bt.post_start)),
                    ],
                )
                .with_attr("batch", i)
                .at(ns(bt.prepare_start))
            })
            .collect();
        let mut root = SpanNode::node(spans::PIPELINE, batches)
            .with_attr("batches", p.batches)
            .with_attr("host_threads", host_threads)
            .with_attr("streams", streams);
        root.duration_ns = ns(makespan);
        t.record_span_tree(root);
    }

    let total_items = (p.batches * p.items_per_batch) as f64;
    let mops = if makespan > 0.0 {
        total_items / makespan * 1000.0
    } else {
        0.0
    };

    // Aggregate demand per stage determines the nominal bottleneck.
    let n = p.batches as f64;
    let demands = [
        (
            Stage::Host,
            n * (p.host_prepare_ns + p.host_post_ns) / host_threads as f64,
        ),
        (Stage::CopyUp, n * p.h2d_ns),
        (Stage::Compute, n * (p.kernel_ns + p.launch_overhead_ns)),
        (Stage::CopyDown, n * p.d2h_ns),
    ];
    let bottleneck = demands
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|d| d.0)
        .unwrap_or(Stage::Compute);

    PipelineReport {
        makespan_ns: makespan,
        mops,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PipelineParams {
        PipelineParams {
            batches: 64,
            items_per_batch: 32768,
            host_threads: 8,
            streams: 4,
            host_prepare_ns: 25_000.0,
            host_post_ns: 25_000.0,
            h2d_ns: 45_000.0,
            kernel_ns: 100_000.0,
            d2h_ns: 12_000.0,
            launch_overhead_ns: 5_000.0,
        }
    }

    #[test]
    fn steady_state_is_bounded_by_slowest_stage() {
        let p = base();
        let r = simulate(&p);
        // Compute dominates: makespan ≈ batches * (kernel + launch) + ramp.
        let compute_total = p.batches as f64 * (p.kernel_ns + p.launch_overhead_ns);
        assert!(r.makespan_ns >= compute_total);
        assert!(
            r.makespan_ns < compute_total * 1.3,
            "too much pipeline bubble"
        );
        assert_eq!(r.bottleneck, Stage::Compute);
    }

    #[test]
    fn more_host_threads_help_when_host_bound() {
        let mut p = base();
        // Host dominates.
        p.host_prepare_ns = 250_000.0;
        p.host_post_ns = 250_000.0;
        p.host_threads = 1;
        let one = simulate(&p);
        assert_eq!(one.bottleneck, Stage::Host);
        p.host_threads = 8;
        let eight = simulate(&p);
        assert!(
            eight.mops > 4.0 * one.mops,
            "1t {} vs 8t {}",
            one.mops,
            eight.mops
        );
    }

    #[test]
    fn extra_host_threads_plateau_when_gpu_bound() {
        let p8 = PipelineParams {
            host_threads: 8,
            ..base()
        };
        let p32 = PipelineParams {
            host_threads: 32,
            ..base()
        };
        let r8 = simulate(&p8);
        let r32 = simulate(&p32);
        assert!(
            (r32.mops - r8.mops) / r8.mops < 0.1,
            "GPU-bound pipeline should plateau"
        );
    }

    #[test]
    fn single_stream_serializes_copies_and_compute() {
        let mut p = base();
        p.streams = 1;
        p.host_threads = 16;
        let serial = simulate(&p);
        p.streams = 8;
        let parallel = simulate(&p);
        assert!(parallel.mops > serial.mops);
        // With one stream each batch is h2d + kernel + d2h end to end.
        let per_batch = p.h2d_ns + p.launch_overhead_ns + p.kernel_ns + p.d2h_ns;
        assert!(serial.makespan_ns >= p.batches as f64 * per_batch * 0.99);
    }

    #[test]
    fn launch_overhead_dominates_tiny_batches() {
        let mut p = base();
        p.items_per_batch = 128;
        p.host_prepare_ns = 500.0;
        p.host_post_ns = 500.0;
        p.h2d_ns = 10_100.0; // latency floor
        p.kernel_ns = 1_500.0;
        p.d2h_ns = 10_000.0;
        let tiny = simulate(&p);
        let big = simulate(&base());
        assert!(
            big.mops > 20.0 * tiny.mops,
            "big batches must amortize overhead"
        );
    }

    #[test]
    fn throughput_is_items_over_makespan() {
        let p = base();
        let r = simulate(&p);
        let expect = (p.batches * p.items_per_batch) as f64 / r.makespan_ns * 1000.0;
        assert!((r.mops - expect).abs() < 1e-9);
    }

    #[test]
    fn zero_threads_and_streams_saturate_to_one() {
        // Degenerate configurations produce a (serial) schedule rather
        // than panicking on caller-supplied sizes.
        let mut p = base();
        p.host_threads = 0;
        p.streams = 0;
        let degen = simulate(&p);
        p.host_threads = 1;
        p.streams = 1;
        let one = simulate(&p);
        assert!(degen.makespan_ns > 0.0);
        assert_eq!(degen.makespan_ns, one.makespan_ns);
        assert_eq!(degen.mops, one.mops);
    }

    #[test]
    fn host_post_processing_is_charged() {
        // Regression: post-processing must occupy the owning host thread.
        // With a single host thread, every batch costs at least
        // prepare + post of serial host work, so the makespan has a hard
        // host-side floor — before the fix, the model only charged
        // prepare and the post-heavy makespan collapsed to device time.
        let p = PipelineParams {
            batches: 32,
            items_per_batch: 1024,
            host_threads: 1,
            streams: 8,
            host_prepare_ns: 10_000.0,
            host_post_ns: 400_000.0,
            h2d_ns: 1_000.0,
            kernel_ns: 2_000.0,
            d2h_ns: 1_000.0,
            launch_overhead_ns: 500.0,
        };
        let r = simulate(&p);
        let host_floor = p.batches as f64 * (p.host_prepare_ns + p.host_post_ns);
        assert!(
            r.makespan_ns >= host_floor,
            "post-processing not charged: makespan {} < host floor {}",
            r.makespan_ns,
            host_floor
        );
        assert_eq!(r.bottleneck, Stage::Host);
    }

    #[test]
    fn traced_simulation_matches_untraced_and_records_spans() {
        let p = base();
        let plain = simulate(&p);
        let t = cuart_telemetry::Telemetry::new();
        let traced = simulate_traced(&p, Some(&t));
        // Tracing only observes; the schedule is bit-identical.
        assert_eq!(plain.makespan_ns, traced.makespan_ns);
        assert_eq!(plain.mops, traced.mops);
        let s = t.snapshot();
        // Root + TRACED_BATCHES subtrees × (1 node + 6 leaves).
        assert_eq!(s.spans.len(), 1 + TRACED_BATCHES * 7);
        let root = &s.spans[0];
        assert_eq!(root.name, "pipeline");
        assert_eq!(root.duration_ns(), plain.makespan_ns.round() as u64);
        // Every batch span nests inside the root envelope.
        for sp in &s.spans[1..] {
            assert!(sp.end_ns <= root.end_ns, "{sp:?}");
        }
    }

    #[test]
    fn host_post_processing_bottleneck_limits_thread_scaling() {
        // Fig. 9 regression: when host post-processing is the bottleneck,
        // doubling streams buys nothing — only more host threads do, and
        // throughput stays pinned to aggregate host demand.
        let p = PipelineParams {
            batches: 64,
            items_per_batch: 32768,
            host_threads: 4,
            streams: 4,
            host_prepare_ns: 50_000.0,
            host_post_ns: 450_000.0,
            h2d_ns: 5_000.0,
            kernel_ns: 10_000.0,
            d2h_ns: 2_000.0,
            launch_overhead_ns: 1_000.0,
        };
        let r = simulate(&p);
        assert_eq!(r.bottleneck, Stage::Host);
        let more_streams = simulate(&PipelineParams { streams: 16, ..p });
        assert!(
            (more_streams.mops - r.mops).abs() / r.mops < 0.05,
            "streams must not relieve a host-post bottleneck"
        );
        let more_threads = simulate(&PipelineParams {
            host_threads: 16,
            ..p
        });
        assert!(
            more_threads.mops > 2.0 * r.mops,
            "host threads must relieve a host-post bottleneck: {} vs {}",
            more_threads.mops,
            r.mops
        );
    }
}
