//! Kernel launch: functional execution + timing aggregation.
//!
//! Execution proceeds in two passes per phase:
//!
//! 1. **Functional pass** — every thread runs to completion against real
//!    device memory, in thread-id order, appending its trace to the launch's
//!    [`TraceArena`]. The pass walks the grid in
//!    chunks of `WARM_CHUNK` threads and, before a chunk runs, hands its
//!    id range to the kernel's [`warm`](PhasedKernel::warm) hook — a
//!    *touch-ahead*. A thread's traversal is a chain of dependent loads,
//!    each a host cache (and TLB) miss on a large index, and threads run
//!    one after another, so without it the host pays those misses serially
//!    — the opposite of the device being modeled, which keeps thousands in
//!    flight. The hook lets a kernel issue the chunk's first loads
//!    back to back, so the host's own out-of-order window overlaps them.
//!    It sees `&DeviceMemory` only: it cannot write device memory and has
//!    no `ThreadCtx` to record through, so it cannot change a report.
//!
//!    A phase whose kernel declares its threads independent
//!    ([`PhasedKernel::independent`]: no thread reads what the phase
//!    writes, writes are `u64` result slots, no atomics) and that is long
//!    enough (`PART_MIN_THREADS` per part) runs as one part per host thread
//!    instead, cut at warp boundaries. Part 0 runs on the caller's thread,
//!    the others on helper threads the launcher spawned on its first such
//!    phase and keeps until it is dropped. Each part runs its threads, in
//!    order and warmed chunk by chunk, against the caller's memory shared
//!    read-only through an `Arc`, into its own arena, logging its writes;
//!    then it gathers its own warps (below). The launcher applies the logs
//!    in thread-id order — the order the serial pass writes in — and takes
//!    the memory back. A part that breaks the contract is caught by its
//!    context and the phase runs serially instead; nothing was written.
//! 2. **Timing pass** — threads are grouped into warps of 32; warp steps are
//!    processed round-robin (approximating the interleaved execution of
//!    resident warps), coalesced into sectors, filtered through the L2 and
//!    issued to the DRAM channels. Three bounds emerge:
//!
//!    * **latency bound** — dependent-step chains per warp, overlapped
//!      across at most [`DeviceConfig::resident_warps`] warps (this is what
//!      limits pointer chasing; §3.1: "the computational effort … is
//!      typically small, whereas a global memory access requires 50 clock
//!      cycles at best"),
//!    * **bandwidth bound** — busy time of the most-loaded DRAM channel,
//!    * **compute bound** — total compute cycles over the device's issue
//!      throughput.
//!
//!    Loaded memory latency is resolved by a short fixed-point iteration
//!    (latency inflates as channel utilisation rises, which lengthens the
//!    kernel, which lowers utilisation).
//!
//!    The pass has two halves. A warp-major *gather* reads the trace once,
//!    while each warp's threads are adjacent in it, and builds every warp
//!    step's sorted, deduplicated sector list and lane statistics; it
//!    touches neither the L2 nor the DRAM channels, so each part of a
//!    split phase gathers its own warps (the counts it folds are integers,
//!    summed per launch). A step-major *serve* loop then walks those lists,
//!    part after part, so in global warp order. The order of that walk —
//!    step-major, warps round-robin, sectors ascending within a warp step
//!    — is part of the model: it decides every L2 hit and the order in
//!    which floats accumulate. Work that makes the simulator itself faster
//!    keeps it, so reports stay bit-identical (`tests/simulator_golden.rs`).
//!
//! The reported `time_ns` excludes the kernel-launch overhead; the
//! [`pipeline`](crate::pipeline) model adds it per dispatch.

// The launch loops run per thread and per warp step: a bounds panic here
// would abort the whole simulated device, so they index with `get()` and
// iterators, never brackets. Tests may index what they built.
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use crate::cache::Cache;
use crate::coalesce::{push_sectors, SECTOR_BYTES};
use crate::config::DeviceConfig;
use crate::dram::DramModel;
use crate::kernel::{PhasedKernel, SharedKernel, Target, ThreadCtx, WriteLog};
use crate::memory::{BufferId, DeviceMemory};
use crate::trace::{AccessKind, TraceArena};
use cuart_telemetry::{names, CounterHandle, GaugeHandle, HistogramHandle, Telemetry};
use std::any::Any;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Cost, in nanoseconds, of one serialized same-address atomic at the L2.
const ATOMIC_SERIALIZE_NS: f64 = 8.0;

/// Overhead of a grid-wide synchronisation between kernel phases.
const GRID_SYNC_NS: f64 = 2_000.0;

/// Threads per touch-ahead chunk of the functional pass. Large enough that
/// a chunk's touches outnumber what the host keeps in flight (so the
/// misses overlap), small enough that the lines are still cached when the
/// chunk's last thread runs. A host-side constant, not a model parameter:
/// no modeled statistic can depend on it.
const WARM_CHUNK: usize = 64;

/// Fewest threads a part of a split phase runs. Handing a part to a helper
/// and taking it back costs a thread wake-up each way (microseconds); a
/// part of this many lookups is a few hundred microseconds of work. A
/// host-side constant like `WARM_CHUNK`: parts are cut at warp boundaries,
/// so no modeled statistic can depend on it.
const PART_MIN_THREADS: usize = 2048;

/// Result of a kernel launch: modeled time and transaction statistics.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Modeled kernel execution time (without launch overhead).
    pub time_ns: f64,
    /// Threads launched.
    pub threads: usize,
    /// Warps formed.
    pub warps: usize,
    /// Total dependent steps across all threads.
    pub steps_total: u64,
    /// Longest dependent chain of any warp, in steps.
    pub max_chain_steps: usize,
    /// Raw per-lane memory requests, before warp coalescing. The ratio
    /// `sectors / raw_accesses` is the coalescing win §3.1 argues for.
    pub raw_accesses: u64,
    /// Sectors requested after coalescing.
    pub sectors: u64,
    /// Sectors served by the L2.
    pub l2_hits: u64,
    /// Transactions that reached DRAM.
    pub dram_transactions: u64,
    /// Bytes moved from/to DRAM.
    pub dram_bytes: u64,
    /// DRAM channel-load imbalance (max/mean busy; 1.0 = balanced, 0.0
    /// when the kernel never touched DRAM).
    pub dram_imbalance: f64,
    /// Total compute cycles attributed by kernels.
    pub compute_cycles: u64,
    /// Same-address atomic conflicts encountered.
    pub atomic_conflicts: u64,
    /// Active lane-steps (lanes that executed something in a warp step).
    pub active_lane_steps: u64,
    /// Issued lane-step slots (warp steps × warp size): the denominator of
    /// [`warp_efficiency`](Self::warp_efficiency). Divergence — threads of
    /// one warp finishing at different depths — shows up as idle slots.
    pub issued_lane_steps: u64,
    /// The three bounds; `time_ns` is their maximum.
    pub latency_bound_ns: f64,
    /// Bandwidth bound (most-loaded DRAM channel busy time).
    pub bandwidth_bound_ns: f64,
    /// Compute bound.
    pub compute_bound_ns: f64,
}

impl KernelReport {
    /// Fraction of warp-step lane slots that did useful work (1.0 = no
    /// divergence; tree traversals over mixed-depth keys sit below it).
    pub fn warp_efficiency(&self) -> f64 {
        if self.issued_lane_steps == 0 {
            1.0
        } else {
            self.active_lane_steps as f64 / self.issued_lane_steps as f64
        }
    }

    /// Merge another report (e.g. a later phase) into this one, summing
    /// times and statistics.
    pub fn accumulate(&mut self, other: &KernelReport) {
        self.time_ns += other.time_ns;
        self.threads = self.threads.max(other.threads);
        self.warps = self.warps.max(other.warps);
        self.steps_total = self.steps_total.saturating_add(other.steps_total);
        self.max_chain_steps = self.max_chain_steps.max(other.max_chain_steps);
        self.raw_accesses = self.raw_accesses.saturating_add(other.raw_accesses);
        self.sectors = self.sectors.saturating_add(other.sectors);
        self.l2_hits = self.l2_hits.saturating_add(other.l2_hits);
        self.dram_transactions = self
            .dram_transactions
            .saturating_add(other.dram_transactions);
        self.dram_bytes = self.dram_bytes.saturating_add(other.dram_bytes);
        self.dram_imbalance = self.dram_imbalance.max(other.dram_imbalance);
        self.compute_cycles += other.compute_cycles;
        self.atomic_conflicts = self.atomic_conflicts.saturating_add(other.atomic_conflicts);
        self.active_lane_steps += other.active_lane_steps;
        self.issued_lane_steps += other.issued_lane_steps;
        self.latency_bound_ns += other.latency_bound_ns;
        self.bandwidth_bound_ns += other.bandwidth_bound_ns;
        self.compute_bound_ns += other.compute_bound_ns;
    }

    /// Sectors that missed the L2 (each miss issues one DRAM transaction).
    pub fn l2_misses(&self) -> u64 {
        self.sectors.saturating_sub(self.l2_hits)
    }

    /// L2 hit rate of this report (1.0 for a kernel with no sectors).
    pub fn l2_hit_rate(&self) -> f64 {
        if self.sectors == 0 {
            1.0
        } else {
            self.l2_hits as f64 / self.sectors as f64
        }
    }

    /// Decompose this kernel into a span subtree: a `kernel` node whose
    /// two leaves tile its modeled time exactly — `dram` is the share
    /// covered by the bandwidth bound (the most-loaded channel's busy
    /// time, capped at the kernel time) and `exec` is the rest (latency
    /// chains, compute issue, sync and atomic serialisation).
    pub fn to_span(&self) -> cuart_telemetry::SpanNode {
        use cuart_telemetry::names::spans;
        use cuart_telemetry::{AttrValue, SpanNode};
        let total = self.time_ns.max(0.0) as u64;
        let dram = (self.bandwidth_bound_ns.max(0.0) as u64).min(total);
        let exec = total - dram;
        SpanNode::node(
            spans::KERNEL,
            vec![
                SpanNode::leaf(spans::DRAM, dram)
                    .with_attr("transactions", self.dram_transactions)
                    .with_attr("bytes", self.dram_bytes),
                SpanNode::leaf(spans::EXEC, exec)
                    .with_attr("latency_bound_ns", self.latency_bound_ns as u64)
                    .with_attr("compute_bound_ns", self.compute_bound_ns as u64),
            ],
        )
        .with_attr("l2_hit_rate", AttrValue::Ratio(self.l2_hit_rate()))
        .with_attr("warps", self.warps)
    }
}

/// The kernel-statistics series of one telemetry registry, resolved once
/// by the owner that records every batch (a device session holds one).
#[derive(Debug)]
pub struct KernelSeries {
    l2_hits: CounterHandle,
    l2_misses: CounterHandle,
    dram_transactions: CounterHandle,
    dram_bytes: CounterHandle,
    coalesced_accesses: CounterHandle,
    raw_accesses: CounterHandle,
    l2_hit_rate: GaugeHandle,
    dram_imbalance: GaugeHandle,
    dram_tx_per_batch: HistogramHandle,
}

impl KernelSeries {
    /// Resolve the series in `t`.
    pub fn new(t: &Telemetry) -> KernelSeries {
        KernelSeries {
            l2_hits: t.counter(names::L2_HITS),
            l2_misses: t.counter(names::L2_MISSES),
            dram_transactions: t.counter(names::DRAM_TRANSACTIONS),
            dram_bytes: t.counter(names::DRAM_BYTES),
            coalesced_accesses: t.counter(names::COALESCED_ACCESSES),
            raw_accesses: t.counter(names::RAW_ACCESSES),
            l2_hit_rate: t.gauge(names::L2_HIT_RATE),
            dram_imbalance: t.gauge(names::DRAM_IMBALANCE),
            dram_tx_per_batch: t.histogram(names::DRAM_TX_PER_BATCH),
        }
    }

    /// Record one kernel's transaction statistics: running totals as
    /// counters, the latest hit rate and channel imbalance as gauges, DRAM
    /// transactions as a histogram.
    pub fn record(&self, report: &KernelReport) {
        self.l2_hits.incr(report.l2_hits);
        self.l2_misses.incr(report.l2_misses());
        self.dram_transactions.incr(report.dram_transactions);
        self.dram_bytes.incr(report.dram_bytes);
        self.coalesced_accesses.incr(report.sectors);
        self.raw_accesses.incr(report.raw_accesses);
        self.l2_hit_rate.set(report.l2_hit_rate());
        self.dram_imbalance.set(report.dram_imbalance);
        self.dram_tx_per_batch.observe(report.dram_transactions);
    }
}

impl std::fmt::Display for KernelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel {:.1} µs ({} threads / {} warps): {} steps (chain {}), \
             {} raw → {} sectors, L2 {:.1}% hit, {} DRAM tx / {} B (imb {:.2}), \
             {} conflicts, warp eff {:.2}, bounds lat {:.1}/bw {:.1}/cmp {:.1} µs",
            self.time_ns / 1e3,
            self.threads,
            self.warps,
            self.steps_total,
            self.max_chain_steps,
            self.raw_accesses,
            self.sectors,
            self.l2_hit_rate() * 100.0,
            self.dram_transactions,
            self.dram_bytes,
            self.dram_imbalance,
            self.atomic_conflicts,
            self.warp_efficiency(),
            self.latency_bound_ns / 1e3,
            self.bandwidth_bound_ns / 1e3,
            self.compute_bound_ns / 1e3,
        )
    }
}

/// Launch a kernel with a cold L2 and fresh launch state — the one-shot
/// form. Callers that launch repeatedly keep a [`Launcher`] and a
/// [`Cache`] instead.
pub fn launch<K: PhasedKernel>(
    dev: &DeviceConfig,
    mem: &mut DeviceMemory,
    kernel: &K,
    threads: usize,
) -> KernelReport {
    Launcher::default().launch(dev, mem, kernel, threads, &mut Cache::new(&dev.l2))
}

/// Per-warp timing summary extracted during the sector walk.
#[derive(Debug, Clone, Copy, Default)]
struct WarpChain {
    miss_steps: u32,
    hit_steps: u32,
    compute_cycles: u64,
    atomic_extra_ns: f64,
}

/// The host memory one part of a launch phase works in: the trace arena
/// its functional pass fills, the write log of a split part, and what its
/// gather builds for the serve loop. A serial phase is one part.
#[derive(Debug, Default)]
struct Part {
    trace: TraceArena,
    writes: WriteLog,
    chains: Vec<WarpChain>,
    /// Every warp step's sector indices, sorted and deduplicated per step,
    /// warp-major: warp 0's steps in order, then warp 1's, and so on.
    sectors: Vec<u64>,
    /// Warp step `i`'s sectors are `sectors[step_bounds[i]..step_bounds[i + 1]]`,
    /// steps numbered warp-major.
    step_bounds: Vec<usize>,
    /// The number of each warp's first step, plus the number of steps in
    /// all.
    warp_steps: Vec<usize>,
    /// Sector indices of the warp step being gathered.
    step_sectors: Vec<u64>,
    /// Addresses of the warp step's atomics.
    atomics: Vec<u64>,
    /// The lane statistics gather folds in: steps, accesses, compute,
    /// occupancy, atomic conflicts, sectors — integer counts only.
    stats: KernelReport,
    /// The part's longest chain in steps.
    max_steps: usize,
}

/// The host memory a launch works in: one `Part` per host thread a phase
/// may run on, the helper threads themselves once a phase has split, and
/// what they share. Holding one across launches (a session keeps it next to
/// its L2 [`Cache`]) makes a launch allocation-free once the lists have
/// grown to the largest batch: they are cleared, never reallocated, per
/// phase. It carries nothing from one launch to the next but capacity, so
/// reusing it cannot change a report.
#[derive(Default)]
pub struct Launcher {
    /// Part 0 runs on the caller's thread; parts 1.. go to the helpers.
    parts: Vec<Part>,
    /// The caller's device memory while a split phase runs, an empty one
    /// between phases: helpers hold clones, and the launcher takes it back
    /// with `Arc::get_mut` once every helper has dropped its clone.
    shared: Option<Arc<DeviceMemory>>,
    /// One copy of each kernel type that has run split
    /// (`kernel::Independent`), overwritten in place by the next launch.
    kernels: Vec<Arc<dyn SharedKernel>>,
    /// Spawned on the first split phase; joined on drop.
    helpers: Option<Helpers>,
}

impl std::fmt::Debug for Launcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Launcher")
            .field("parts", &self.parts.len())
            .field("kernels", &self.kernels.len())
            .field("helpers", &self.helpers.as_ref().map_or(0, Helpers::len))
            .finish()
    }
}

/// The host threads this process may run parts on: the machine's
/// available parallelism, read once.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The parts an independent phase of `threads` threads runs as on a host
/// with `host` threads: one per host thread, each at least
/// `PART_MIN_THREADS` long. One part is the serial pass.
fn split_parts(host: usize, threads: usize) -> usize {
    host.min(threads / PART_MIN_THREADS).max(1)
}

impl Launcher {
    /// Launch a (possibly multi-phase) kernel against a caller-owned L2, so
    /// cache state persists across batches (the host pipeline reuses one
    /// cache for a whole query stream).
    pub fn launch<K: PhasedKernel>(
        &mut self,
        dev: &DeviceConfig,
        mem: &mut DeviceMemory,
        kernel: &K,
        threads: usize,
        l2: &mut Cache,
    ) -> KernelReport {
        self.launch_in(dev, mem, kernel, threads, l2, |n| {
            split_parts(host_threads(), n)
        })
    }

    /// [`launch`](Self::launch), with an independent phase of `n` threads
    /// split into `parts(n)` parts.
    fn launch_in<K: PhasedKernel>(
        &mut self,
        dev: &DeviceConfig,
        mem: &mut DeviceMemory,
        kernel: &K,
        threads: usize,
        l2: &mut Cache,
        parts: impl Fn(usize) -> usize,
    ) -> KernelReport {
        let warp_size = dev.warp_size.max(1);
        let phases = kernel.phases();
        let mut total = KernelReport::default();
        for phase in 0..phases {
            let (n, warps) = (parts(threads), threads.div_ceil(warp_size));
            let cuts = |i: usize| (warps * i / n * warp_size).min(threads);
            let split = if n > 1 {
                self.split_phase(kernel, phase, n, cuts, warp_size, mem)
            } else {
                None
            };
            let parts = split.unwrap_or_else(|| {
                self.serial_phase(kernel, phase, threads, warp_size, mem);
                1
            });
            let report = self.time_phase(dev, l2, parts);
            total.accumulate(&report);
            if phase + 1 < phases {
                total.time_ns += GRID_SYNC_NS;
            }
        }
        total
    }

    /// The functional pass and gather of one phase, all on this thread.
    fn serial_phase<K: PhasedKernel>(
        &mut self,
        kernel: &K,
        phase: usize,
        threads: usize,
        warp_size: usize,
        mem: &mut DeviceMemory,
    ) {
        if self.parts.is_empty() {
            self.parts.push(Part::default());
        }
        if let Some(part) = self.parts.first_mut() {
            part.run(kernel, phase, 0..threads, Target::Direct(mem), warp_size);
        }
    }

    /// Run `phase` as `n` parts, part `i` being threads
    /// `cuts(i)..cuts(i + 1)` (warp-aligned): part 0 here, the others on
    /// the helper threads, all against the caller's memory shared
    /// read-only; then apply the parts' writes in thread-id order. Returns
    /// `Some(n)`, or `None` with `mem` untouched if the kernel does not
    /// declare the phase independent, a part broke the contract, or no
    /// helper could be spawned — the caller then runs the phase serially.
    fn split_phase<K: PhasedKernel>(
        &mut self,
        kernel: &K,
        phase: usize,
        n: usize,
        cuts: impl Fn(usize) -> usize,
        warp_size: usize,
        mem: &mut DeviceMemory,
    ) -> Option<usize> {
        let independent = kernel.independent(phase)?;
        let helpers = match &mut self.helpers {
            Some(helpers) => helpers,
            empty => empty.insert(Helpers::default()),
        };
        if !helpers.grow_to(n - 1) {
            return None;
        }
        let output = independent.output();
        let shared = self.shared.get_or_insert_with(Arc::default);
        std::mem::swap(Arc::get_mut(shared)?, mem);
        if self.parts.len() < n {
            self.parts.resize_with(n, Part::default);
        }
        let copy = independent.share(&mut self.kernels);
        let lines = helpers.lines.get(..n - 1).unwrap_or_default();
        for (i, (part, line)) in self.parts.iter_mut().skip(1).zip(lines).enumerate() {
            line.jobs.put(Some(Job {
                kernel: Arc::clone(&copy),
                mem: Arc::clone(shared),
                phase,
                tids: cuts(i + 1)..cuts(i + 2),
                output,
                warp_size,
                part: std::mem::take(part),
            }));
        }
        drop(copy);
        let mut panic = None;
        if let Some(part) = self.parts.first_mut() {
            let tids = cuts(0)..cuts(1);
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                part.run_logged(kernel, phase, tids, shared, output, warp_size)
            }));
            panic = run.err();
        }
        // Every helper replies, its kernel panicked or not.
        for (part, line) in self.parts.iter_mut().skip(1).zip(lines) {
            let reply = line.replies.take();
            *part = reply.part;
            panic = panic.or(reply.panic);
        }
        let back = Arc::get_mut(shared);
        assert!(
            back.is_some(),
            "a split part's helper kept the device memory"
        );
        if let Some(back) = back {
            std::mem::swap(back, mem);
        }
        if let Some(panic) = panic {
            std::panic::resume_unwind(panic);
        }
        let parts = self.parts.get(..n)?;
        if parts.iter().any(|part| part.writes.refused()) {
            return None;
        }
        for part in parts {
            part.writes.apply(mem);
        }
        Some(n)
    }

    fn time_phase(&mut self, dev: &DeviceConfig, l2: &mut Cache, parts: usize) -> KernelReport {
        let warp_size = dev.warp_size.max(1);
        let parts = self.parts.get_mut(..parts).unwrap_or_default();
        let threads = parts.iter().map(|p| p.trace.threads()).sum::<usize>();
        let mut report = KernelReport {
            threads,
            warps: threads.div_ceil(warp_size),
            ..KernelReport::default()
        };
        let mut max_steps = 0;
        for part in parts.iter() {
            let stats = &part.stats;
            report.steps_total = report.steps_total.saturating_add(stats.steps_total);
            report.raw_accesses = report.raw_accesses.saturating_add(stats.raw_accesses);
            report.atomic_conflicts = report
                .atomic_conflicts
                .saturating_add(stats.atomic_conflicts);
            report.compute_cycles += stats.compute_cycles;
            report.active_lane_steps += stats.active_lane_steps;
            report.issued_lane_steps += stats.issued_lane_steps;
            report.sectors += stats.sectors;
            max_steps = max_steps.max(part.max_steps);
        }
        let mut dram = DramModel::new(dev.mem);

        // Serve: round-robin over warps per step index, approximating the
        // temporal interleaving of resident warps for L2 purposes; a warp
        // step's sectors ascending. The parts hold consecutive warps, so
        // walking them in order is walking the grid's warps in order.
        for s in 0..max_steps {
            for part in parts.iter_mut() {
                let Part {
                    chains,
                    sectors,
                    step_bounds,
                    warp_steps,
                    ..
                } = part;
                for (chain, warp) in chains.iter_mut().zip(warp_steps.windows(2)) {
                    let &[first, end] = warp else {
                        continue;
                    };
                    let at = first + s;
                    if at >= end {
                        continue;
                    }
                    let Some(&[lo, hi]) = step_bounds.get(at..at + 2) else {
                        continue;
                    };
                    let Some(step) = sectors.get(lo..hi).filter(|step| !step.is_empty()) else {
                        continue;
                    };
                    let mut missed = false;
                    for &sec in step {
                        let addr = sec * SECTOR_BYTES;
                        if l2.access(addr) {
                            report.l2_hits = report.l2_hits.saturating_add(1);
                        } else {
                            dram.issue(addr, SECTOR_BYTES as usize);
                            missed = true;
                        }
                    }
                    if missed {
                        chain.miss_steps += 1;
                    } else {
                        chain.hit_steps += 1;
                    }
                }
            }
        }

        report.dram_transactions = dram.transactions();
        report.dram_bytes = dram.bytes();
        report.dram_imbalance = if dram.transactions() == 0 {
            0.0
        } else {
            dram.imbalance()
        };
        report.max_chain_steps = max_steps;

        // Bounds. Loaded latency is a fixed point: start unloaded, iterate.
        let resident = dev.resident_warps().max(1) as f64;
        let bw_bound = dram.max_channel_busy_ns();
        let compute_bound = dev.cycles_to_ns(report.compute_cycles as f64)
            / (dev.sm_count as f64 * dev.issue_per_cycle);

        let chain_ns = |miss_lat: f64| -> (f64, f64) {
            let mut max_chain = 0.0f64;
            let mut sum_chain = 0.0f64;
            for c in parts.iter().flat_map(|p| &p.chains) {
                let t = c.miss_steps as f64 * miss_lat
                    + c.hit_steps as f64 * dev.l2.hit_latency_ns
                    + dev.cycles_to_ns(c.compute_cycles as f64)
                    + c.atomic_extra_ns;
                max_chain = max_chain.max(t);
                sum_chain += t;
            }
            (max_chain, sum_chain)
        };

        let mut miss_lat = dev.mem.access_latency_ns;
        let mut time = 0.0f64;
        for _ in 0..3 {
            let (max_chain, sum_chain) = chain_ns(miss_lat);
            let latency_bound = max_chain.max(sum_chain / resident);
            time = latency_bound.max(bw_bound).max(compute_bound);
            miss_lat = dram.loaded_latency_ns(time.max(1.0));
            report.latency_bound_ns = latency_bound;
        }
        report.bandwidth_bound_ns = bw_bound;
        report.compute_bound_ns = compute_bound;
        report.time_ns = time;
        report
    }
}

impl Part {
    /// The functional pass over `tids` — chunk by chunk, each warmed, then
    /// executed in thread-id order — then, unless a thread broke the
    /// independence contract, the gather.
    fn run<K: PhasedKernel + ?Sized>(
        &mut self,
        kernel: &K,
        phase: usize,
        tids: Range<usize>,
        mut mem: Target<'_>,
        warp_size: usize,
    ) {
        self.trace.clear();
        for start in tids.clone().step_by(WARM_CHUNK) {
            let chunk = start..start.saturating_add(WARM_CHUNK).min(tids.end);
            kernel.warm(phase, chunk.clone(), mem.memory());
            for tid in chunk {
                let mut ctx = ThreadCtx::on(mem.reborrow(), &mut self.trace);
                kernel.execute_phase(phase, tid, &mut ctx);
            }
            if mem.refused() {
                return;
            }
        }
        assert!(
            self.trace.indices_fit(),
            "one launch phase traced more than 2^32 accesses"
        );
        self.gather(warp_size);
    }

    /// [`run`](Self::run) as a part of a split phase: `mem` shared, the
    /// writes to `output` logged.
    fn run_logged<K: PhasedKernel + ?Sized>(
        &mut self,
        kernel: &K,
        phase: usize,
        tids: Range<usize>,
        mem: &DeviceMemory,
        output: BufferId,
        warp_size: usize,
    ) {
        let Part { writes, .. } = self;
        writes.reset(output);
        let mut writes = std::mem::take(writes);
        self.run(
            kernel,
            phase,
            tids,
            Target::Logged(mem, &mut writes),
            warp_size,
        );
        self.writes = writes;
    }

    /// The warp-major half of the timing pass: one pass over the part's
    /// trace, while each warp's threads are adjacent in it, that builds
    /// every warp step's sorted, deduplicated sector list and folds the
    /// step's lane statistics (steps, compute, occupancy, atomic conflicts)
    /// into `stats` and the warp's chain. Nothing here touches the L2 or
    /// the DRAM channels, and every float it adds up belongs to one warp
    /// and is added in step order, so the step-major serve loop that
    /// follows sees exactly what a step-major walk would have built.
    fn gather(&mut self, warp_size: usize) {
        let Part {
            trace,
            chains,
            sectors,
            step_bounds,
            warp_steps,
            step_sectors,
            atomics,
            stats,
            max_steps,
            ..
        } = self;
        let threads = trace.threads();
        *stats = KernelReport::default();
        chains.clear();
        chains.resize(threads.div_ceil(warp_size), WarpChain::default());
        sectors.clear();
        step_bounds.clear();
        step_bounds.push(0);
        warp_steps.clear();
        *max_steps = 0;
        for (w, chain) in chains.iter_mut().enumerate() {
            warp_steps.push(step_bounds.len() - 1);
            let lanes = w * warp_size..((w + 1) * warp_size).min(threads);
            // Lead compute (before first access).
            let mut lead_max = 0;
            let mut depth = 0;
            for t in lanes.clone() {
                let lead = trace.lead_compute(t);
                lead_max = lead_max.max(lead);
                stats.compute_cycles += lead as u64;
                depth = depth.max(trace.depth(t));
            }
            chain.compute_cycles += lead_max as u64;
            *max_steps = (*max_steps).max(depth);
            for s in 0..depth {
                step_sectors.clear();
                atomics.clear();
                let mut any_access = false;
                let mut step_compute_max = 0u32;
                let mut active_lanes = 0u64;
                for lane in lanes.clone() {
                    let Some((accesses, compute_cycles)) = trace.step(lane, s) else {
                        continue;
                    };
                    stats.steps_total = stats.steps_total.saturating_add(1);
                    active_lanes += 1;
                    step_compute_max = step_compute_max.max(compute_cycles);
                    stats.compute_cycles += compute_cycles as u64;
                    any_access |= !accesses.is_empty();
                    stats.raw_accesses = stats.raw_accesses.saturating_add(accesses.len() as u64);
                    for acc in accesses {
                        push_sectors(step_sectors, acc.addr, acc.len);
                        if acc.kind == AccessKind::Atomic {
                            atomics.push(acc.addr);
                        }
                    }
                }
                if any_access || step_compute_max > 0 {
                    // Warp-level occupancy of this step: lanes past their
                    // last dependent step idle while the stragglers finish.
                    stats.active_lane_steps += active_lanes;
                    stats.issued_lane_steps += warp_size as u64;
                    // Atomic conflicts: lanes hitting the same address
                    // serialize. Equal addresses are adjacent once sorted;
                    // no lookup step has any atomics at all.
                    let mut conflict_extra = 0u64;
                    if !atomics.is_empty() {
                        atomics.sort_unstable();
                        let mut run = 0u64;
                        for (prev, next) in atomics.iter().zip(atomics.iter().skip(1)) {
                            run = if prev == next { run + 1 } else { 0 };
                            if run > 0 {
                                stats.atomic_conflicts = stats.atomic_conflicts.saturating_add(1);
                                conflict_extra = conflict_extra.max(run);
                            }
                        }
                    }
                    chain.atomic_extra_ns += conflict_extra as f64 * ATOMIC_SERIALIZE_NS;
                    // Coalesce: the sectors the serve loop will issue.
                    step_sectors.sort_unstable();
                    step_sectors.dedup();
                    sectors.extend_from_slice(step_sectors);
                    chain.compute_cycles += step_compute_max as u64;
                }
                step_bounds.push(sectors.len());
            }
        }
        warp_steps.push(step_bounds.len() - 1);
        stats.sectors = sectors.len() as u64;
    }
}

/// One part of a split phase, sent to a helper thread.
struct Job {
    kernel: Arc<dyn SharedKernel>,
    mem: Arc<DeviceMemory>,
    phase: usize,
    tids: Range<usize>,
    output: BufferId,
    warp_size: usize,
    part: Part,
}

/// A helper's part, run, and the panic its kernel raised, if any.
struct Reply {
    part: Part,
    panic: Option<Box<dyn Any + Send>>,
}

/// A one-message channel between the launcher and one helper: the sender
/// puts only into an empty slot (a job, then its reply, strictly in turn),
/// and the receiver blocks on a condition variable until the slot fills —
/// no spinning, and, unlike a `std::sync::mpsc` channel, which allocates the
/// first time one of its sides blocks, no allocation ever.
struct Mailbox<T> {
    slot: Mutex<Option<T>>,
    filled: Condvar,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox {
            slot: Mutex::new(None),
            filled: Condvar::new(),
        }
    }
}

impl<T> Mailbox<T> {
    fn put(&self, message: T) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(message);
        self.filled.notify_one();
    }

    fn take(&self) -> T {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(message) = slot.take() {
                return message;
            }
            slot = self
                .filled
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One helper thread's two mailboxes: jobs in (`None`: stop), replies out.
#[derive(Default)]
struct Line {
    jobs: Mailbox<Option<Job>>,
    replies: Mailbox<Reply>,
}

impl Line {
    /// The helper's loop: take a job, run its part, drop the clones of the
    /// kernel and the memory, reply — whether or not the kernel panicked.
    fn serve(&self) {
        while let Some(job) = self.jobs.take() {
            let Job {
                kernel,
                mem,
                phase,
                tids,
                output,
                warp_size,
                mut part,
            } = job;
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                part.run_logged(&*kernel, phase, tids, &mem, output, warp_size)
            }));
            drop((kernel, mem));
            self.replies.put(Reply {
                part,
                panic: run.err(),
            });
        }
    }
}

/// The launcher's helper threads, each on its own [`Line`]. Dropping the
/// pool stops and joins them.
#[derive(Default)]
struct Helpers {
    lines: Vec<Arc<Line>>,
    threads: Vec<JoinHandle<()>>,
}

impl Helpers {
    fn len(&self) -> usize {
        self.threads.len()
    }

    /// Spawn helpers until there are `n`; `false` if one could not be.
    fn grow_to(&mut self, n: usize) -> bool {
        while self.threads.len() < n {
            let line = Arc::new(Line::default());
            let theirs = Arc::clone(&line);
            let spawned = std::thread::Builder::new()
                .name("cuart-sim-part".into())
                .spawn(move || theirs.serve());
            match spawned {
                Ok(thread) => {
                    self.lines.push(line);
                    self.threads.push(thread);
                }
                Err(_) => return false,
            }
        }
        true
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        for line in &self.lines {
            line.jobs.put(None);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use crate::kernel::{Independent, Kernel};

    /// Streams through a buffer with perfectly coalesced reads.
    struct StreamKernel {
        src: BufferId,
        reads_per_thread: usize,
    }
    impl Kernel for StreamKernel {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            for i in 0..self.reads_per_thread {
                ctx.read_u64(self.src, (tid * self.reads_per_thread + i) * 8);
            }
        }
    }

    /// Chases a chain of pointers (serial, random) in a buffer of u64
    /// indices.
    struct ChaseKernel {
        src: BufferId,
        hops: usize,
        slots: usize,
    }
    impl Kernel for ChaseKernel {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            let mut idx = tid.wrapping_mul(2654435761) % self.slots;
            for _ in 0..self.hops {
                idx = ctx.read_u64(self.src, idx * 8) as usize % self.slots;
            }
        }
    }

    fn chase_memory(slots: usize) -> (DeviceMemory, BufferId) {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("chase", slots * 8, 32);
        for i in 0..slots {
            // A scrambled permutation so hops are random-ish.
            let next = (i.wrapping_mul(2654435761).wrapping_add(12345)) % slots;
            mem.write_u64(buf, i * 8, next as u64);
        }
        (mem, buf)
    }

    #[test]
    fn report_counts_are_consistent() {
        let dev = devices::a100();
        let (mut mem, buf) = chase_memory(1 << 16);
        let k = ChaseKernel {
            src: buf,
            hops: 4,
            slots: 1 << 16,
        };
        let r = launch(&dev, &mut mem, &k, 256);
        assert_eq!(r.threads, 256);
        assert_eq!(r.warps, 8);
        assert_eq!(r.steps_total, 256 * 4);
        assert_eq!(r.max_chain_steps, 4);
        assert_eq!(r.l2_hits + r.dram_transactions, r.sectors);
        assert!(r.time_ns > 0.0);
        assert!(
            (r.time_ns
                - r.latency_bound_ns
                    .max(r.bandwidth_bound_ns)
                    .max(r.compute_bound_ns))
            .abs()
                < 1e-6
        );
    }

    #[test]
    fn coalesced_streaming_beats_random_chasing() {
        let dev = devices::a100();
        // Same number of 8-byte reads per thread, wildly different pattern.
        let slots = 1 << 20; // 8 MiB buffer
        let threads = 4096;
        let (mut mem, buf) = chase_memory(slots);
        let chase = launch(
            &dev,
            &mut mem,
            &ChaseKernel {
                src: buf,
                hops: 8,
                slots,
            },
            threads,
        );
        let (mut mem2, buf2) = chase_memory(slots);
        let stream = launch(
            &dev,
            &mut mem2,
            &StreamKernel {
                src: buf2,
                reads_per_thread: 8,
            },
            threads,
        );
        assert!(
            chase.time_ns > 3.0 * stream.time_ns,
            "chase {} ns vs stream {} ns",
            chase.time_ns,
            stream.time_ns
        );
        // Streaming re-touches its sectors (4 u64s each): far fewer DRAM
        // transactions for the same number of reads.
        assert!(stream.dram_transactions < chase.dram_transactions / 2);
    }

    #[test]
    fn longer_chains_take_proportionally_longer() {
        let dev = devices::rtx3090();
        let slots = 1 << 20;
        let (mut mem, buf) = chase_memory(slots);
        let t4 = launch(
            &dev,
            &mut mem,
            &ChaseKernel {
                src: buf,
                hops: 4,
                slots,
            },
            1024,
        )
        .time_ns;
        let t8 = launch(
            &dev,
            &mut mem,
            &ChaseKernel {
                src: buf,
                hops: 8,
                slots,
            },
            1024,
        )
        .time_ns;
        let ratio = t8 / t4;
        assert!(ratio > 1.5 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    fn small_working_set_is_cache_resident_and_faster() {
        let dev = devices::rtx3090(); // 6 MiB L2
        let small_slots = 1 << 14; // 128 KiB << L2
        let large_slots = 1 << 22; // 32 MiB >> L2
        let (mut mem_s, buf_s) = chase_memory(small_slots);
        let (mut mem_l, buf_l) = chase_memory(large_slots);
        let ts = launch(
            &dev,
            &mut mem_s,
            &ChaseKernel {
                src: buf_s,
                hops: 8,
                slots: small_slots,
            },
            8192,
        );
        let tl = launch(
            &dev,
            &mut mem_l,
            &ChaseKernel {
                src: buf_l,
                hops: 8,
                slots: large_slots,
            },
            8192,
        );
        assert!(
            ts.l2_hits as f64 / ts.sectors as f64 > 0.5,
            "small tree should mostly hit L2"
        );
        assert!(ts.time_ns < tl.time_ns);
    }

    #[test]
    fn more_threads_hide_latency_until_bandwidth_binds() {
        let dev = devices::a100();
        let slots = 1 << 22;
        let (mut mem, buf) = chase_memory(slots);
        let k1 = launch(
            &dev,
            &mut mem,
            &ChaseKernel {
                src: buf,
                hops: 4,
                slots,
            },
            128,
        );
        let k2 = launch(
            &dev,
            &mut mem,
            &ChaseKernel {
                src: buf,
                hops: 4,
                slots,
            },
            2048,
        );
        // 16x the work must cost far less than 16x the time (latency
        // hiding), until the DRAM command rate binds.
        assert!(
            k2.time_ns < 8.0 * k1.time_ns,
            "k1 {} k2 {}",
            k1.time_ns,
            k2.time_ns
        );
        // At very large thread counts the kernel is bandwidth/command-rate
        // bound: time grows ~linearly with threads from here on.
        let k3 = launch(
            &dev,
            &mut mem,
            &ChaseKernel {
                src: buf,
                hops: 4,
                slots,
            },
            32768,
        );
        assert!(
            (k3.bandwidth_bound_ns - k3.time_ns).abs() / k3.time_ns < 0.35,
            "expected ~bandwidth-bound: bw {} vs time {}",
            k3.bandwidth_bound_ns,
            k3.time_ns
        );
    }

    /// All threads atomically add to one counter — worst-case conflicts.
    struct AtomicStormKernel {
        buf: BufferId,
    }
    impl Kernel for AtomicStormKernel {
        fn execute(&self, _tid: usize, ctx: &mut ThreadCtx<'_>) {
            ctx.atomic_add_u64(self.buf, 0, 1);
        }
    }

    #[test]
    fn atomic_conflicts_are_detected_and_costed() {
        let dev = devices::a100();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("ctr", 8, 16);
        let r = launch(&dev, &mut mem, &AtomicStormKernel { buf }, 1024);
        // Functional: the counter holds the exact thread count.
        assert_eq!(mem.read_u64(buf, 0), 1024);
        // 31 conflicts per full warp.
        assert_eq!(r.atomic_conflicts, (1024 / 32) * 31);
        // Conflict-free atomics for comparison.
        struct Spread(BufferId);
        impl Kernel for Spread {
            fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
                ctx.atomic_add_u64(self.0, tid * 8, 1);
            }
        }
        let mut mem2 = DeviceMemory::new();
        let buf2 = mem2.alloc("ctrs", 1024 * 8, 16);
        let r2 = launch(&dev, &mut mem2, &Spread(buf2), 1024);
        assert_eq!(r2.atomic_conflicts, 0);
        assert!(r.time_ns > r2.time_ns);
    }

    /// Phase 0 writes, phase 1 reads what phase 0 of *other* threads wrote.
    struct TwoPhase {
        buf: BufferId,
        n: usize,
    }
    impl PhasedKernel for TwoPhase {
        fn phases(&self) -> usize {
            2
        }
        fn execute_phase(&self, phase: usize, tid: usize, ctx: &mut ThreadCtx<'_>) {
            if phase == 0 {
                ctx.write_u64(self.buf, tid * 8, (tid * 10) as u64);
            } else {
                // Read the value written by the "opposite" thread.
                let other = self.n - 1 - tid;
                let v = ctx.read_u64(self.buf, other * 8);
                assert_eq!(v, (other * 10) as u64, "grid sync must order phases");
            }
        }
    }

    #[test]
    fn phased_kernel_sees_grid_sync_semantics() {
        let dev = devices::gtx1070();
        let mut mem = DeviceMemory::new();
        let n = 512;
        let buf = mem.alloc("b", n * 8, 16);
        let r = launch(&dev, &mut mem, &TwoPhase { buf, n }, n);
        assert!(r.time_ns > GRID_SYNC_NS);
        assert_eq!(r.threads, n);
    }

    #[test]
    fn warm_cache_speeds_up_second_launch() {
        let dev = devices::rtx3090();
        let slots = 1 << 15; // fits L2
        let (mut mem, buf) = chase_memory(slots);
        let k = ChaseKernel {
            src: buf,
            hops: 6,
            slots,
        };
        let mut l2 = Cache::new(&dev.l2);
        let mut launcher = Launcher::default();
        let cold = launcher.launch(&dev, &mut mem, &k, 4096, &mut l2);
        let warm = launcher.launch(&dev, &mut mem, &k, 4096, &mut l2);
        assert!(warm.time_ns <= cold.time_ns);
        assert!(warm.l2_hits > cold.l2_hits);
    }

    /// Mixed traffic: a read chain whose depth varies by lane, a write, and
    /// atomics that collide within a warp.
    struct MixedKernel {
        src: BufferId,
        ctr: BufferId,
        slots: usize,
    }
    impl Kernel for MixedKernel {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            ctx.compute(tid as u32 % 5);
            let mut idx = tid.wrapping_mul(2654435761) % self.slots;
            for _ in 0..1 + tid % 7 {
                idx = ctx.read_u64(self.src, idx * 8) as usize % self.slots;
                ctx.compute(3);
            }
            ctx.atomic_add_u64(self.ctr, (tid % 4) * 8, 1);
            ctx.write_u64(self.ctr, 64 + tid * 8, idx as u64);
        }
    }

    #[test]
    fn reused_launcher_reports_equal_a_fresh_launchers() {
        // The launcher carries capacity, never content: batches that grow,
        // then shrink, and a 2-phase kernel after a 1-phase one must read
        // exactly what a fresh launcher reads. The L2 persists on both
        // sides (its state is the caller's), so it is replayed in step.
        let dev = devices::rtx3090();
        let slots = 1 << 16;
        let n = 512;
        let run = |reuse: bool| -> Vec<String> {
            let (mut mem, src) = chase_memory(slots);
            let ctr = mem.alloc("ctr", 64 + 4096 * 8, 32);
            let buf = mem.alloc("two-phase", n * 8, 16);
            let mut l2 = Cache::new(&dev.l2);
            let mut shared = Launcher::default();
            let mut reports = Vec::new();
            let mixed = MixedKernel { src, ctr, slots };
            for threads in [100, 4096, 33, 0, 1000] {
                let mut fresh = Launcher::default();
                let launcher = if reuse { &mut shared } else { &mut fresh };
                reports.push(launcher.launch(&dev, &mut mem, &mixed, threads, &mut l2));
            }
            let mut fresh = Launcher::default();
            let launcher = if reuse { &mut shared } else { &mut fresh };
            reports.push(launcher.launch(&dev, &mut mem, &TwoPhase { buf, n }, n, &mut l2));
            reports.push(launcher.launch(&dev, &mut mem, &mixed, 64, &mut l2));
            reports.iter().map(|r| format!("{r:?}")).collect()
        };
        let (reused, fresh) = (run(true), run(false));
        assert_eq!(reused, fresh);
        assert!(!reused[1].contains("atomic_conflicts: 0,"), "{}", reused[1]);
    }

    /// Logs every `warm` and `execute_phase` call it receives.
    struct Recording {
        phases: usize,
        log: std::cell::RefCell<Vec<Call>>,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Warm(usize, std::ops::Range<usize>),
        Execute(usize, usize),
    }

    impl PhasedKernel for Recording {
        fn phases(&self) -> usize {
            self.phases
        }
        fn execute_phase(&self, phase: usize, tid: usize, _ctx: &mut ThreadCtx<'_>) {
            self.log.borrow_mut().push(Call::Execute(phase, tid));
        }
        fn warm(&self, phase: usize, tids: std::ops::Range<usize>, _mem: &DeviceMemory) {
            self.log.borrow_mut().push(Call::Warm(phase, tids));
        }
    }

    #[test]
    fn every_chunk_is_warmed_once_just_before_its_threads_run() {
        let dev = devices::a100();
        for phases in [1, 2] {
            for threads in [0, 1, 63, 64, 65, 200] {
                let kernel = Recording {
                    phases,
                    log: Default::default(),
                };
                launch(&dev, &mut DeviceMemory::new(), &kernel, threads);
                let log = kernel.log.into_inner();
                let mut calls = log.iter();
                for phase in 0..phases {
                    // Chunks tile 0..threads in order; each is announced,
                    // then executed tid by tid, before the next is.
                    let mut next = 0;
                    while next < threads {
                        let Some(Call::Warm(p, chunk)) = calls.next() else {
                            panic!("{threads} threads: no warm before tid {next}");
                        };
                        assert_eq!((*p, chunk.start), (phase, next));
                        assert!(!chunk.is_empty() && chunk.end <= threads, "{chunk:?}");
                        for tid in chunk.clone() {
                            assert_eq!(calls.next(), Some(&Call::Execute(phase, tid)));
                        }
                        next = chunk.end;
                    }
                }
                assert_eq!(calls.next(), None, "{phases} phases x {threads} threads");
                let warms = log.iter().filter(|c| matches!(c, Call::Warm(..))).count();
                assert_eq!(warms, phases * threads.div_ceil(64));
            }
        }
    }

    /// Chases pointers from a per-thread start and writes where it ended:
    /// independent, so its launches may split.
    #[derive(Clone)]
    struct ChaseInto {
        src: BufferId,
        out: BufferId,
        slots: usize,
    }
    impl Kernel for ChaseInto {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            ctx.compute(tid as u32 % 3);
            let mut idx = tid.wrapping_mul(2654435761) % self.slots;
            for _ in 0..1 + tid % 6 {
                idx = ctx.read_u64(self.src, idx * 8) as usize % self.slots;
                ctx.compute(2);
            }
            ctx.write_u64(self.out, tid * 8, idx as u64);
        }
        fn independent(&self) -> Option<Independent<'_>> {
            Some(Independent::new(self, self.out))
        }
    }

    /// What an update and an insert batch do to a session's memory: write
    /// records into an uploaded image (so some of its chunks are copied
    /// and the rest still shared), with atomics that collide.
    struct Scribble {
        src: BufferId,
        ctr: BufferId,
        slots: usize,
    }
    impl Kernel for Scribble {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            let at = tid.wrapping_mul(40503) % self.slots;
            if tid.is_multiple_of(3) {
                ctx.write_u64(self.src, at * 8, (tid * 7) as u64);
            } else {
                ctx.write_bytes(self.src, at * 8, &[tid as u8; 5]);
            }
            ctx.atomic_add_u64(self.ctr, (tid % 4) * 8, 1);
        }
    }

    const SLOTS: usize = 1 << 14;

    /// A pointer-chase image, uploaded copy-on-write, that a write launch
    /// then partly overwrote; and a result buffer.
    fn written_memory(dev: &DeviceConfig) -> (DeviceMemory, ChaseInto) {
        let image: Vec<u8> = (0..SLOTS)
            .flat_map(|i| ((i.wrapping_mul(2654435761) + 12345) % SLOTS).to_le_bytes())
            .collect();
        let mut mem = DeviceMemory::new();
        let src = mem.upload("chase", &Arc::new(image), 8, SLOTS * 8, 32);
        let ctr = mem.alloc("ctr", 32, 32);
        let out = mem.alloc("out", 8 * (8 << 10), 32);
        let scribble = Scribble {
            src,
            ctr,
            slots: SLOTS / 8, // the first eighth of the image only
        };
        launch(dev, &mut mem, &scribble, 700);
        assert!(mem.owned_bytes() > 0 && mem.shared_bytes() > 0);
        (
            mem,
            ChaseInto {
                src,
                out,
                slots: SLOTS,
            },
        )
    }

    /// Everything a launch leaves behind: its report, every byte of device
    /// memory, and the copy-on-write state.
    fn outcome(mem: &DeviceMemory, report: &KernelReport) -> (String, Vec<u8>, usize, usize) {
        let mut bytes = Vec::new();
        for id in mem.buffer_ids() {
            let mut buf = vec![0; mem.buffer(id).len()];
            mem.read_into(id, 0, &mut buf);
            bytes.extend(buf);
        }
        (
            format!("{report:?}"),
            bytes,
            mem.owned_bytes(),
            mem.shared_bytes(),
        )
    }

    #[test]
    fn split_launches_on_partly_written_memory_equal_the_serial_launch() {
        let dev = devices::rtx3090();
        // Ragged last warps, fewer warps than parts, and an L2 carried over
        // from a first launch into a second one.
        for threads in [8 << 10, 1000, 40, 33] {
            let run = |parts: usize| {
                let (mut mem, kernel) = written_memory(&dev);
                let mut l2 = Cache::new(&dev.l2);
                let mut launcher = Launcher::default();
                let mut outcomes = Vec::new();
                for n in [threads, threads / 2 + 1] {
                    let report = launcher.launch_in(&dev, &mut mem, &kernel, n, &mut l2, |_| parts);
                    outcomes.push(outcome(&mem, &report));
                }
                outcomes
            };
            let serial = run(1);
            for parts in [2, 3, 5] {
                assert!(serial == run(parts), "{threads} threads in {parts} parts");
            }
        }
    }

    /// Opts in, then reads back its own result slot.
    #[derive(Clone)]
    struct ReadsOwnSlot {
        out: BufferId,
    }
    impl Kernel for ReadsOwnSlot {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            ctx.write_u64(self.out, tid * 8, tid as u64 + 1);
            let back = ctx.read_u64(self.out, tid * 8);
            ctx.write_u64(self.out, tid * 8, back * 2);
        }
        fn independent(&self) -> Option<Independent<'_>> {
            Some(Independent::new(self, self.out))
        }
    }

    /// Opts in, then numbers its threads with an atomic.
    #[derive(Clone)]
    struct CountsAtomically {
        ctr: BufferId,
        out: BufferId,
    }
    impl Kernel for CountsAtomically {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            let n = ctx.atomic_add_u64(self.ctr, 0, 1);
            ctx.write_u64(self.out, tid * 8, n);
        }
        fn independent(&self) -> Option<Independent<'_>> {
            Some(Independent::new(self, self.out))
        }
    }

    /// A kernel that declares itself independent and is not must be
    /// refused the split — the phase then runs serially — never run split
    /// to a different answer.
    fn refused_and_serial<K: Kernel + Clone + Send + Sync + 'static>(
        kernel: impl Fn(&mut DeviceMemory) -> K,
    ) {
        let dev = devices::a100();
        let threads: usize = 3000;
        let warps = threads.div_ceil(dev.warp_size);
        let run = |parts: usize| {
            let mut mem = DeviceMemory::new();
            let k = kernel(&mut mem);
            let mut l2 = Cache::new(&dev.l2);
            let report =
                Launcher::default().launch_in(&dev, &mut mem, &k, threads, &mut l2, |_| parts);
            outcome(&mem, &report)
        };
        assert!(run(1) == run(2), "a split diverged from the serial launch");

        let mut mem = DeviceMemory::new();
        let k = kernel(&mut mem);
        let before = outcome(&mem, &KernelReport::default());
        let cuts = |i: usize| (warps * i / 2 * dev.warp_size).min(threads);
        let split = Launcher::default().split_phase(&k, 0, 2, cuts, 32, &mut mem);
        assert_eq!(split, None, "the split was not refused");
        assert!(
            outcome(&mem, &KernelReport::default()) == before,
            "a refused split wrote"
        );
    }

    #[test]
    fn a_kernel_that_reads_its_own_result_slot_is_refused_the_split() {
        refused_and_serial(|mem| ReadsOwnSlot {
            out: mem.alloc("out", 3000 * 8, 32),
        });
    }

    #[test]
    fn a_kernel_that_issues_an_atomic_is_refused_the_split() {
        refused_and_serial(|mem| CountsAtomically {
            ctr: mem.alloc("ctr", 8, 32),
            out: mem.alloc("out", 3000 * 8, 32),
        });
    }

    /// Panics in one thread of the second part.
    #[derive(Clone)]
    struct PanicsAt {
        tid: usize,
        out: BufferId,
    }
    impl Kernel for PanicsAt {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            assert_ne!(tid, self.tid, "planted failure");
            ctx.write_u64(self.out, tid * 8, 1);
        }
        fn independent(&self) -> Option<Independent<'_>> {
            Some(Independent::new(self, self.out))
        }
    }

    #[test]
    fn a_panic_in_a_helper_reaches_the_caller_with_its_memory_back() {
        let dev = devices::a100();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc("out", 4096 * 8, 32);
        let mut launcher = Launcher::default();
        let kernel = PanicsAt { tid: 3000, out };
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut l2 = Cache::new(&dev.l2);
            launcher.launch_in(&dev, &mut mem, &kernel, 4096, &mut l2, |_| 2)
        }));
        assert!(panicked.is_err());
        assert_eq!((mem.buffer_count(), mem.read_u64(out, 0)), (1, 0));
        // The launcher and its helper still work.
        let kernel = PanicsAt {
            tid: usize::MAX,
            out,
        };
        let mut l2 = Cache::new(&dev.l2);
        launcher.launch_in(&dev, &mut mem, &kernel, 4096, &mut l2, |_| 2);
        assert_eq!(mem.read_u64(out, 4095 * 8), 1);
    }

    #[test]
    fn a_phase_splits_only_when_every_part_is_long_enough() {
        assert_eq!(split_parts(1, 1 << 20), 1, "one host thread: always serial");
        assert_eq!(split_parts(2, 2 * PART_MIN_THREADS - 1), 1);
        assert_eq!(split_parts(2, 2 * PART_MIN_THREADS), 2);
        assert_eq!(split_parts(8, 3 * PART_MIN_THREADS), 3);
        assert_eq!(split_parts(4, 1 << 20), 4);
    }

    #[test]
    fn zero_threads_is_a_noop() {
        let dev = devices::a100();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("b", 8, 16);
        let r = launch(&dev, &mut mem, &AtomicStormKernel { buf }, 0);
        assert_eq!(r.threads, 0);
        assert_eq!(r.time_ns, 0.0);
    }
}

#[cfg(test)]
mod divergence_tests {
    use super::*;
    use crate::devices;
    use crate::kernel::Kernel;
    use crate::memory::BufferId;

    /// Every lane does the same number of steps: zero divergence.
    struct Uniform(BufferId);
    impl Kernel for Uniform {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            for i in 0..4 {
                ctx.read_u64(self.0, ((tid * 4 + i) * 8) % 4096);
            }
        }
    }

    /// Lane depth varies with lane id inside each warp: heavy divergence.
    struct Ragged(BufferId);
    impl Kernel for Ragged {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            let depth = 1 + (tid % 32) / 4; // 1..=8 steps per warp
            for i in 0..depth {
                ctx.read_u64(self.0, ((tid * 8 + i) * 8) % 4096);
            }
        }
    }

    #[test]
    fn warp_efficiency_separates_uniform_from_ragged() {
        let dev = devices::a100();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("b", 4096, 32);
        let uni = launch(&dev, &mut mem, &Uniform(buf), 256);
        let rag = launch(&dev, &mut mem, &Ragged(buf), 256);
        assert!(
            (uni.warp_efficiency() - 1.0).abs() < 1e-9,
            "{}",
            uni.warp_efficiency()
        );
        // Ragged: mean depth 4.5 of max 8 -> efficiency ≈ 0.56.
        assert!(
            rag.warp_efficiency() > 0.4 && rag.warp_efficiency() < 0.7,
            "{}",
            rag.warp_efficiency()
        );
        // Accounting is internally consistent.
        assert_eq!(rag.active_lane_steps, rag.steps_total);
        assert!(rag.issued_lane_steps >= rag.active_lane_steps);
    }

    #[test]
    fn empty_launch_reports_full_efficiency() {
        let r = KernelReport::default();
        assert_eq!(r.warp_efficiency(), 1.0);
    }
}

#[cfg(test)]
mod accumulate_tests {
    use super::*;

    fn sample(scale: u64) -> KernelReport {
        KernelReport {
            time_ns: 100.0 * scale as f64,
            threads: 128 * scale as usize,
            warps: 4 * scale as usize,
            steps_total: 10 * scale,
            max_chain_steps: 3 * scale as usize,
            raw_accesses: 40 * scale,
            sectors: 20 * scale,
            l2_hits: 15 * scale,
            dram_transactions: 5 * scale,
            dram_bytes: 160 * scale,
            dram_imbalance: scale as f64,
            compute_cycles: 50 * scale,
            atomic_conflicts: 2 * scale,
            active_lane_steps: 9 * scale,
            issued_lane_steps: 12 * scale,
            latency_bound_ns: 80.0 * scale as f64,
            bandwidth_bound_ns: 60.0 * scale as f64,
            compute_bound_ns: 10.0 * scale as f64,
        }
    }

    #[test]
    fn accumulating_default_is_identity() {
        let mut r = sample(2);
        let before = r.clone();
        r.accumulate(&KernelReport::default());
        assert_eq!(format!("{before:?}"), format!("{r:?}"));
    }

    #[test]
    fn summed_fields_are_additive() {
        let mut r = sample(1);
        r.accumulate(&sample(2));
        assert_eq!(r.time_ns, 300.0);
        assert_eq!(r.steps_total, 30);
        assert_eq!(r.raw_accesses, 120);
        assert_eq!(r.sectors, 60);
        assert_eq!(r.l2_hits, 45);
        assert_eq!(r.dram_transactions, 15);
        assert_eq!(r.dram_bytes, 480);
        assert_eq!(r.compute_cycles, 150);
        assert_eq!(r.atomic_conflicts, 6);
        assert_eq!(r.active_lane_steps, 27);
        assert_eq!(r.issued_lane_steps, 36);
        assert_eq!(r.latency_bound_ns, 240.0);
        assert_eq!(r.bandwidth_bound_ns, 180.0);
        assert_eq!(r.compute_bound_ns, 30.0);
    }

    #[test]
    fn max_fields_take_the_max_not_the_sum() {
        // threads/warps/max_chain_steps/dram_imbalance describe the widest
        // phase, not a total: accumulating a smaller report keeps the max.
        let mut r = sample(3);
        r.accumulate(&sample(1));
        assert_eq!(r.threads, 384);
        assert_eq!(r.warps, 12);
        assert_eq!(r.max_chain_steps, 9);
        assert_eq!(r.dram_imbalance, 3.0);
        // And the other direction widens.
        let mut r = sample(1);
        r.accumulate(&sample(3));
        assert_eq!(r.threads, 384);
        assert_eq!(r.max_chain_steps, 9);
    }

    #[test]
    fn derived_ratios_and_display() {
        let r = sample(1);
        assert_eq!(r.l2_misses(), 5);
        assert!((r.l2_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(KernelReport::default().l2_misses(), 0);
        assert_eq!(KernelReport::default().l2_hit_rate(), 1.0);
        let s = r.to_string();
        assert!(s.contains("128 threads"), "{s}");
        assert!(s.contains("75.0% hit"), "{s}");
        assert!(s.contains("5 DRAM tx"), "{s}");
    }
}
