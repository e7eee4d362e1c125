//! The hybrid CPU/GPU query split (§3.2.3 option 1, Figures 13/14).
//!
//! Each batch is split: keys the device cannot serve (longer than the
//! 32-byte maximum — or, in the Figure 14 control experiment, an arbitrary
//! fraction of short keys) go to a pool of host threads walking the classic
//! ART; the rest go to the GPU. The batch completes when **both** legs
//! finish, so the slower leg sets the pace — which is how 3 % of CPU keys
//! can halve overall throughput (Figure 13).

use crate::gpu_runner::E2eReport;
use cuart_telemetry::{names, SpanNode, Telemetry};

/// Effective per-operation CPU cost for a long-key lookup in the host ART
/// (nanoseconds). This is deliberately large: the CPU leg chases pointers
/// through a cache-cold multi-million-entry tree *and* sits on the batch
/// critical path (scatter, straggler wait, merge). Figure 13's observed
/// collapse — ~50 % throughput at 3 % CPU keys with 56 host threads —
/// implies exactly this order of magnitude.
pub const CPU_LONG_KEY_NS: f64 = 20_000.0;
/// Per-batch synchronisation cost of the split/merge (scatter the batch,
/// gather and re-order both legs' results).
pub const SPLIT_SYNC_NS: f64 = 50_000.0;

/// Result of a hybrid run.
#[derive(Debug, Clone, Copy)]
pub struct HybridReport {
    /// Overall end-to-end throughput (MOps/s).
    pub mops: f64,
    /// Time of the GPU leg per batch (ns).
    pub gpu_leg_ns: f64,
    /// Time of the CPU leg per batch (ns).
    pub cpu_leg_ns: f64,
    /// `true` when the CPU leg is the bottleneck.
    pub cpu_bound: bool,
}

impl HybridReport {
    /// Record this routing decision into `telemetry`.
    ///
    /// Emits the `cuart.hybrid.*` counters/gauges and a `hybrid.route`
    /// span tree whose `gpu` and `cpu` legs carry each leg's time and the
    /// keys routed to it.
    pub fn record_into(&self, telemetry: &Telemetry, batch_size: usize, cpu_fraction: f64) {
        let cpu_keys = (batch_size as f64 * cpu_fraction).round() as u64;
        let gpu_keys = (batch_size as u64).saturating_sub(cpu_keys);
        telemetry.incr(names::HYBRID_GPU_BATCHES, 1);
        telemetry.incr(names::HYBRID_CPU_KEYS, cpu_keys);
        telemetry.incr(names::HYBRID_GPU_KEYS, gpu_keys);
        telemetry.gauge_set(names::HYBRID_CPU_FRACTION, cpu_fraction);
        // Both legs start at the split point and run concurrently, so the
        // children are pinned at offset 0 and the root spans the envelope
        // — the slower leg, which is the batch's modeled time.
        let mut children = vec![SpanNode::leaf(names::spans::GPU, self.gpu_leg_ns as u64)
            .with_attr("keys", gpu_keys)
            .at(0)];
        if self.cpu_leg_ns > 0.0 {
            children.push(
                SpanNode::leaf(names::spans::CPU, self.cpu_leg_ns as u64)
                    .with_attr("keys", cpu_keys)
                    .at(0),
            );
        }
        let root = SpanNode::node(names::spans::HYBRID_ROUTE, children)
            .with_attr("keys", batch_size)
            .with_attr("cpu_bound", self.cpu_bound);
        telemetry.record_span_tree(root);
    }
}

/// Compose a hybrid run:
/// * `gpu` — the end-to-end report of the GPU engine over the device-
///   servable keys,
/// * `batch_size` — total keys per batch before the split,
/// * `cpu_fraction` — fraction of each batch routed to the CPU,
/// * `cpu_threads` — host threads working the CPU leg,
/// * `cpu_ns_per_op` — per-op CPU cost (see [`CPU_LONG_KEY_NS`]).
///
/// Degenerate caller input saturates instead of panicking: `cpu_fraction`
/// is clamped into `[0, 1]` (NaN counts as 0) and `cpu_threads == 0` is
/// treated as a single thread — a parameter sweep never aborts mid-grid.
pub fn hybrid_throughput(
    gpu: &E2eReport,
    batch_size: usize,
    cpu_fraction: f64,
    cpu_threads: usize,
    cpu_ns_per_op: f64,
) -> HybridReport {
    let cpu_fraction = if cpu_fraction.is_nan() {
        0.0
    } else {
        cpu_fraction.clamp(0.0, 1.0)
    };
    let cpu_threads = cpu_threads.max(1);
    let cpu_keys = batch_size as f64 * cpu_fraction;
    // GPU leg: the engine's steady-state batch time. Removing a few keys
    // does not shrink it — transfer latency, dispatch and pipeline
    // occupancy are per-batch costs, so the leg is charged at full batch
    // size.
    let gpu_ns_per_key = 1000.0 / gpu.mops; // MOps -> ns per key
    let gpu_leg_ns = batch_size as f64 * gpu_ns_per_key;
    let cpu_leg_ns = if cpu_keys > 0.0 {
        SPLIT_SYNC_NS + cpu_keys * cpu_ns_per_op / cpu_threads as f64
    } else {
        0.0
    };
    let batch_ns = gpu_leg_ns.max(cpu_leg_ns);
    HybridReport {
        mops: batch_size as f64 / batch_ns * 1000.0,
        gpu_leg_ns,
        cpu_leg_ns,
        cpu_bound: cpu_leg_ns > gpu_leg_ns,
    }
}

/// [`hybrid_throughput`] with an optional telemetry sink: when `telemetry`
/// is attached, the routing decision is recorded via
/// [`HybridReport::record_into`]. The pure function stays untouched so the
/// figure harness can sweep parameters without a registry.
pub fn hybrid_throughput_traced(
    gpu: &E2eReport,
    batch_size: usize,
    cpu_fraction: f64,
    cpu_threads: usize,
    cpu_ns_per_op: f64,
    telemetry: Option<&Telemetry>,
) -> HybridReport {
    let report = hybrid_throughput(gpu, batch_size, cpu_fraction, cpu_threads, cpu_ns_per_op);
    if let Some(t) = telemetry {
        report.record_into(t, batch_size, cpu_fraction);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart_gpu_sim::exec::KernelReport;
    use cuart_gpu_sim::pipeline::{simulate, PipelineParams};

    fn gpu_report(mops: f64) -> E2eReport {
        E2eReport {
            mops,
            kernel_ns_per_batch: 0.0,
            kernel: KernelReport::default(),
            pipeline: simulate(&PipelineParams {
                batches: 1,
                items_per_batch: 1,
                host_threads: 1,
                streams: 1,
                host_prepare_ns: 1.0,
                host_post_ns: 0.0,
                h2d_ns: 0.0,
                kernel_ns: 0.0,
                d2h_ns: 0.0,
                launch_overhead_ns: 0.0,
            }),
        }
    }

    #[test]
    fn zero_cpu_fraction_matches_gpu_rate() {
        let gpu = gpu_report(170.0);
        let r = hybrid_throughput(&gpu, 32768, 0.0, 56, CPU_LONG_KEY_NS);
        assert!((r.mops - 170.0).abs() < 1.0);
        assert!(!r.cpu_bound);
    }

    #[test]
    fn three_percent_cpu_keys_roughly_halve_throughput() {
        // The headline observation of Figure 13: "around 50% performance
        // impact for only 3% of the keys processed on the CPU".
        let gpu = gpu_report(170.0);
        let r = hybrid_throughput(&gpu, 32768, 0.03, 56, CPU_LONG_KEY_NS);
        let impact = r.mops / 170.0;
        assert!(
            impact > 0.35 && impact < 0.75,
            "3% CPU keys should cost ~half: got factor {impact}"
        );
        assert!(r.cpu_bound);
    }

    #[test]
    fn throughput_monotonically_drops_with_cpu_fraction() {
        let gpu = gpu_report(170.0);
        let mut last = f64::INFINITY;
        for pct in [0.0, 0.01, 0.03, 0.05, 0.10, 0.25, 0.50] {
            let r = hybrid_throughput(&gpu, 32768, pct, 56, CPU_LONG_KEY_NS);
            assert!(r.mops <= last + 1e-9, "not monotone at {pct}");
            last = r.mops;
        }
    }

    #[test]
    fn cpu_bound_plateau_is_engine_independent() {
        // Figure 14: with 5% of keys on the CPU, all GPU engines plateau at
        // (almost) the same level — the CPU leg dominates.
        let fast = hybrid_throughput(&gpu_report(200.0), 32768, 0.05, 56, CPU_LONG_KEY_NS);
        let slow = hybrid_throughput(&gpu_report(90.0), 32768, 0.05, 56, CPU_LONG_KEY_NS);
        assert!(fast.cpu_bound && slow.cpu_bound);
        let gap = (fast.mops - slow.mops).abs() / fast.mops;
        assert!(gap < 0.05, "CPU-bound engines should converge: gap {gap}");
    }

    #[test]
    fn more_cpu_threads_relieve_the_bottleneck() {
        let gpu = gpu_report(170.0);
        let few = hybrid_throughput(&gpu, 32768, 0.10, 8, CPU_LONG_KEY_NS);
        let many = hybrid_throughput(&gpu, 32768, 0.10, 112, CPU_LONG_KEY_NS);
        assert!(many.mops > few.mops);
    }

    #[test]
    fn degenerate_parameters_saturate_instead_of_panicking() {
        // Zero threads behaves like one thread; fractions outside [0, 1]
        // (and NaN) clamp. A parameter sweep over caller-supplied grids
        // must never abort.
        let gpu = gpu_report(170.0);
        let h_zero = hybrid_throughput(&gpu, 32768, 0.10, 0, CPU_LONG_KEY_NS);
        let h_one = hybrid_throughput(&gpu, 32768, 0.10, 1, CPU_LONG_KEY_NS);
        assert_eq!(h_zero.mops, h_one.mops);
        let over = hybrid_throughput(&gpu, 32768, 1.5, 56, CPU_LONG_KEY_NS);
        let full = hybrid_throughput(&gpu, 32768, 1.0, 56, CPU_LONG_KEY_NS);
        assert_eq!(over.mops, full.mops);
        let nan = hybrid_throughput(&gpu, 32768, f64::NAN, 56, CPU_LONG_KEY_NS);
        let none = hybrid_throughput(&gpu, 32768, 0.0, 56, CPU_LONG_KEY_NS);
        assert_eq!(nan.mops, none.mops);
    }

    #[test]
    fn traced_run_records_routing_decision() {
        let telemetry = Telemetry::new();
        let gpu = gpu_report(170.0);
        let traced =
            hybrid_throughput_traced(&gpu, 1000, 0.03, 56, CPU_LONG_KEY_NS, Some(&telemetry));
        let plain = hybrid_throughput(&gpu, 1000, 0.03, 56, CPU_LONG_KEY_NS);
        assert_eq!(traced.mops, plain.mops);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters[names::HYBRID_GPU_BATCHES], 1);
        assert_eq!(snap.counters[names::HYBRID_CPU_KEYS], 30);
        assert_eq!(snap.counters[names::HYBRID_GPU_KEYS], 970);
        assert_eq!(snap.gauges[names::HYBRID_CPU_FRACTION], 0.03);
        // A routing decision is no state transition: no event.
        assert!(snap.events.is_empty(), "{:?}", snap.events);
        // The routing decision also commits a span tree: both legs pinned
        // at the split point, root spanning the slower (CPU) leg.
        assert_eq!(snap.spans.len(), 3);
        let root = &snap.spans[0];
        assert_eq!(root.name, "hybrid.route");
        assert_eq!(root.duration_ns(), traced.cpu_leg_ns as u64);
        let legs: Vec<_> = snap.spans[1..].iter().collect();
        assert!(legs.iter().all(|s| s.parent == root.id));
        assert!(legs.iter().all(|s| s.start_ns == root.start_ns));
        assert_eq!(
            snap.counters.get("cuart.trace.critical.cpu"),
            Some(&1),
            "CPU leg dominates this split"
        );
    }
}
