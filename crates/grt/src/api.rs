//! High-level GRT index façade and the CUDA/OpenCL host-API profiles.
//!
//! §4.1 of the paper: "To prove that our improvements are not only caused
//! by using a different API, we compare CuART against both a CUDA and an
//! OpenCL variant of GRT." The two variants run the *same* kernel; they
//! differ in host-side dispatch cost and in how well multiple command
//! streams overlap — which is exactly what [`ApiProfile`] captures.

use crate::kernels::GrtLookupKernel;
use crate::layout::GrtBuffer;
use crate::mapper::map_art;
use crate::update::{apply_batch, UpdateOutcome};
use cuart_art::Art;
use cuart_gpu_sim::batch::lookup_fitting;
use cuart_gpu_sim::{launch, BufferId, DeviceConfig, DeviceMemory, KernelReport, KernelSeries};
use cuart_telemetry::{names, Telemetry};
use std::sync::Arc;

/// Host-API flavour of the GRT baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiProfile {
    /// The CUDA variant: cheap dispatch, streams map efficiently onto the
    /// device ("the inherent asynchronousity of the CUDA API", §4.3).
    Cuda,
    /// The OpenCL variant: heavier dispatch, command queues overlap poorly.
    OpenCl,
}

impl ApiProfile {
    /// Kernel dispatch overhead on `dev`, in nanoseconds.
    pub fn launch_overhead_ns(&self, dev: &DeviceConfig) -> f64 {
        let base = dev.launch_overhead_us * 1000.0;
        match self {
            ApiProfile::Cuda => base,
            ApiProfile::OpenCl => base * 3.5,
        }
    }

    /// Maximum command streams that overlap effectively.
    pub fn stream_cap(&self) -> usize {
        match self {
            ApiProfile::Cuda => usize::MAX,
            ApiProfile::OpenCl => 2,
        }
    }

    /// Display label used by the figure harness.
    pub fn label(&self) -> &'static str {
        match self {
            ApiProfile::Cuda => "GRT-CUDA",
            ApiProfile::OpenCl => "GRT-OpenCL",
        }
    }
}

/// A GRT index: a packed buffer plus the bookkeeping to run lookups on the
/// simulated device or on the host.
#[derive(Debug, Clone)]
pub struct GrtIndex {
    buffer: GrtBuffer,
    telemetry: Option<Arc<Telemetry>>,
}

/// Handle to a GRT index uploaded to device memory.
#[derive(Debug, Clone, Copy)]
pub struct GrtDevice {
    /// Device buffer holding the packed tree.
    pub tree: BufferId,
    /// Root offset.
    pub root: u64,
}

impl GrtIndex {
    /// Map an ART into the packed GRT layout.
    pub fn build(art: &Art<u64>) -> Self {
        GrtIndex {
            buffer: map_art(art),
            telemetry: None,
        }
    }

    /// Attach a telemetry registry; every subsequent device batch records
    /// `grt.*` metrics into it (same counter schema as the CuART engine, so
    /// the baseline and the paper's engine can be compared side by side).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        telemetry.gauge_set(names::GRT_DEVICE_BYTES, self.device_bytes() as f64);
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// The underlying packed buffer.
    pub fn buffer(&self) -> &GrtBuffer {
        &self.buffer
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.buffer.entries
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.buffer.entries == 0
    }

    /// Device memory consumed by the packed tree.
    pub fn device_bytes(&self) -> usize {
        self.buffer.bytes.len()
    }

    /// Host-side lookup (reference path; also the hybrid pipeline's CPU leg).
    pub fn lookup_cpu(&self, key: &[u8]) -> Option<u64> {
        crate::cpu::lookup(&self.buffer, key)
    }

    /// Upload the packed tree into `mem`. GRT guarantees no alignment for
    /// the nodes inside the buffer; the buffer itself gets page alignment.
    pub fn upload(&self, mem: &mut DeviceMemory) -> GrtDevice {
        let tree = mem.alloc_from("grt-tree", &self.buffer.padded_bytes(), 16);
        GrtDevice {
            tree,
            root: self.buffer.root,
        }
    }

    /// Convenience: run one batch of lookups on a fresh simulated device.
    /// Returns the results (one per query, [`NOT_FOUND`] on miss) and the
    /// kernel report. `stride` is the per-record key capacity; queries
    /// longer than the stride answer [`NOT_FOUND`] under the rule CuART's
    /// one-shot lookup shares ([`lookup_fitting`]).
    ///
    /// [`NOT_FOUND`]: cuart_gpu_sim::batch::NOT_FOUND
    pub fn lookup_batch_device(
        &self,
        dev: &DeviceConfig,
        queries: &[Vec<u8>],
        stride: usize,
    ) -> (Vec<u64>, KernelReport) {
        let mut mem = DeviceMemory::new();
        let handle = self.upload(&mut mem);
        let (results, report) = lookup_fitting(
            &mut mem,
            queries,
            stride,
            |mem, queries, layout, results, count| {
                let kernel = GrtLookupKernel {
                    tree: handle.tree,
                    root: handle.root,
                    queries,
                    layout,
                    results,
                    count,
                };
                launch(dev, mem, &kernel, count)
            },
        );
        if let Some(t) = &self.telemetry {
            t.incr(names::GRT_LOOKUP_BATCHES, 1);
            t.incr(names::GRT_LOOKUP_KEYS, queries.len() as u64);
            t.observe(names::GRT_LOOKUP_KERNEL_NS, report.time_ns as u64);
            KernelSeries::new(t).record(&report);
        }
        (results, report)
    }

    /// Apply a host-side update batch (see [`update`](crate::update)).
    pub fn update_batch(
        &mut self,
        updates: &[(Vec<u8>, u64)],
        dev: &DeviceConfig,
    ) -> UpdateOutcome {
        let outcome = apply_batch(&mut self.buffer, updates, &dev.pcie);
        if let Some(t) = &self.telemetry {
            t.incr(names::GRT_UPDATE_BATCHES, 1);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart_gpu_sim::batch::NOT_FOUND;
    use cuart_gpu_sim::devices;

    fn index(n: u64) -> GrtIndex {
        let mut art = Art::new();
        for i in 0..n {
            art.insert(&(i * 7).to_be_bytes(), i).unwrap();
        }
        GrtIndex::build(&art)
    }

    #[test]
    fn facade_roundtrip() {
        let idx = index(200);
        assert_eq!(idx.len(), 200);
        assert!(!idx.is_empty());
        assert!(idx.device_bytes() > 200 * 19);
        assert_eq!(idx.lookup_cpu(&(7u64 * 7).to_be_bytes()), Some(7));
        assert_eq!(idx.lookup_cpu(&3u64.to_be_bytes()), None);
    }

    #[test]
    fn device_lookup_batch() {
        let idx = index(300);
        let queries: Vec<Vec<u8>> = (0..300u64)
            .map(|i| (i * 7).to_be_bytes().to_vec())
            .collect();
        let (results, report) = idx.lookup_batch_device(&devices::rtx3090(), &queries, 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i as u64);
        }
        assert!(report.time_ns > 0.0);
        assert!(report.dram_transactions > 0);
        // An over-stride key and an empty key miss in place; every hit
        // around them keeps its answer.
        let mut mixed = queries.clone();
        mixed.insert(3, vec![0; 9]);
        mixed.insert(7, Vec::new());
        let mut expected: Vec<u64> = (0..300).collect();
        expected.insert(3, NOT_FOUND);
        expected.insert(7, NOT_FOUND);
        assert_eq!(
            idx.lookup_batch_device(&devices::rtx3090(), &mixed, 8).0,
            expected
        );
        // No key fits: all misses and no launch.
        let (misses, report) =
            idx.lookup_batch_device(&devices::rtx3090(), &[vec![1; 9], vec![2; 12]], 8);
        assert_eq!(misses, [NOT_FOUND; 2]);
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", KernelReport::default())
        );
    }

    #[test]
    fn update_then_lookup_on_device() {
        let mut idx = index(100);
        let dev = devices::a100();
        let key = (7u64 * 7).to_be_bytes().to_vec();
        let out = idx.update_batch(&[(key.clone(), 424242)], &dev);
        assert_eq!(out.applied, 1);
        let (results, _) = idx.lookup_batch_device(&dev, &[key], 8);
        assert_eq!(results[0], 424242);
        let (miss, _) = idx.lookup_batch_device(&dev, &[vec![9u8; 8]], 8);
        assert_eq!(miss[0], NOT_FOUND);
    }

    #[test]
    fn opencl_profile_costs_more() {
        let dev = devices::a100();
        assert!(
            ApiProfile::OpenCl.launch_overhead_ns(&dev)
                > 2.0 * ApiProfile::Cuda.launch_overhead_ns(&dev)
        );
        assert!(ApiProfile::OpenCl.stream_cap() < ApiProfile::Cuda.stream_cap());
        assert_eq!(ApiProfile::Cuda.label(), "GRT-CUDA");
    }

    #[test]
    fn telemetry_records_device_batches() {
        use cuart_telemetry::names;
        let telemetry = Arc::new(Telemetry::new());
        let mut idx = index(100).with_telemetry(telemetry.clone());
        let dev = devices::a100();
        let queries: Vec<Vec<u8>> = (0..50u64).map(|i| (i * 7).to_be_bytes().to_vec()).collect();
        let _ = idx.lookup_batch_device(&dev, &queries, 8);
        let _ = idx.update_batch(&[((7u64).to_be_bytes().to_vec(), 1)], &dev);

        let snap = telemetry.snapshot();
        assert_eq!(snap.counters[names::GRT_LOOKUP_BATCHES], 1);
        assert_eq!(snap.counters[names::GRT_LOOKUP_KEYS], 50);
        assert_eq!(snap.counters[names::GRT_UPDATE_BATCHES], 1);
        assert_eq!(
            snap.gauges[names::GRT_DEVICE_BYTES],
            idx.device_bytes() as f64
        );
        assert_eq!(snap.histograms[names::GRT_LOOKUP_KERNEL_NS].count, 1);
        // The shared-schema guarantee: the GRT lookup feeds the same
        // cache/DRAM counters the CuART engine does.
        assert!(snap.counters[names::DRAM_TRANSACTIONS] > 0);
        assert!(snap.counters[names::RAW_ACCESSES] >= snap.counters[names::COALESCED_ACCESSES]);
        // Batches write no events; the ring is for state transitions.
        assert!(snap.events.is_empty(), "{:?}", snap.events);
    }

    #[test]
    fn empty_index() {
        let idx = GrtIndex::build(&Art::new());
        assert!(idx.is_empty());
        assert_eq!(idx.lookup_cpu(b"x"), None);
        let (results, _) = idx.lookup_batch_device(&devices::gtx1070(), &[b"x".to_vec()], 8);
        assert_eq!(results[0], NOT_FOUND);
    }
}
