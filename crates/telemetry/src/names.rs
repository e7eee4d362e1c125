//! Canonical metric and span names shared by producers and consumers,
//! so the CLI, the bench harness and the tests never drift on spelling.
//!
//! This module is the catalog: a new series or span is one line in a
//! `catalog!` block below, which declares its constant and lists it in
//! [`ALL_METRICS`] / [`spans::ALL_SPANS`] at once. DESIGN.md §6 maps each
//! name to the part of the paper it instruments; `tests/metric_registry.rs`
//! fails when §6 and this module disagree, or when library code spells a
//! name out instead of using the constant.

/// Declare each name once: its `pub const` (with its doc) and its entry
/// in the listing named first, so a name cannot be declared but unlisted.
macro_rules! catalog {
    ($(#[$list_doc:meta])* $list:ident; $($(#[$doc:meta])* $konst:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $konst: &str = $name;)*
        $(#[$list_doc])*
        pub const $list: &[&str] = &[$($konst),*];
    };
}

catalog! {
    /// Every exact registered series name (prefix families excluded).
    ALL_METRICS;
    /// Lookup batches served on the device path.
    LOOKUP_BATCHES = "cuart.lookup.batches";
    /// Keys submitted to device lookups.
    LOOKUP_KEYS = "cuart.lookup.keys";
    /// Histogram: modeled kernel ns per lookup batch.
    LOOKUP_KERNEL_NS = "cuart.lookup.kernel_ns";
    /// Lookup keys resolved on the host (HOST_SIGNAL / overflow).
    LOOKUP_HOST_SPILLS = "cuart.lookup.host_spills";
    /// Update batches served on the device path.
    UPDATE_BATCHES = "cuart.update.batches";
    /// Keys submitted to device updates.
    UPDATE_KEYS = "cuart.update.keys";
    /// Histogram: modeled kernel ns per update batch.
    UPDATE_KERNEL_NS = "cuart.update.kernel_ns";
    /// Update/insert slot-claim conflicts (atomic CAS retries).
    CLAIM_CONFLICTS = "cuart.update.claim_conflicts";
    /// Insert batches served on the device path.
    INSERT_BATCHES = "cuart.insert.batches";
    /// Keys submitted to device inserts.
    INSERT_KEYS = "cuart.insert.keys";
    /// Inserts spilled to the host overflow table.
    INSERT_HOST_SPILLS = "cuart.insert.host_spills";
    /// Free-list refills triggered by inserts.
    FREELIST_REFILLS = "cuart.insert.freelist_refills";
    /// Histogram: modeled kernel ns per insert batch.
    INSERT_KERNEL_NS = "cuart.insert.kernel_ns";
    /// Range-query batches served through the session.
    RANGE_BATCHES = "cuart.range.batches";
    /// Inclusive range queries submitted (one per [lo, hi] pair).
    RANGE_KEYS = "cuart.range.keys";
    /// Rows materialized across all range queries.
    RANGE_ROWS = "cuart.range.rows";
    /// Histogram: modeled span-kernel ns per range batch.
    RANGE_KERNEL_NS = "cuart.range.kernel_ns";
    /// L2 hits across all kernels.
    L2_HITS = "cuart.kernel.l2_hits";
    /// L2 misses across all kernels.
    L2_MISSES = "cuart.kernel.l2_misses";
    /// Gauge: L2 hit rate of the most recent kernel.
    L2_HIT_RATE = "cuart.kernel.l2_hit_rate";
    /// DRAM sector transactions across all kernels.
    DRAM_TRANSACTIONS = "cuart.kernel.dram_transactions";
    /// DRAM bytes moved across all kernels.
    DRAM_BYTES = "cuart.kernel.dram_bytes";
    /// Gauge: DRAM channel imbalance of the most recent kernel.
    DRAM_IMBALANCE = "cuart.kernel.dram_imbalance";
    /// Coalesced memory requests across all kernels.
    COALESCED_ACCESSES = "cuart.kernel.coalesced_accesses";
    /// Raw per-lane memory requests across all kernels.
    RAW_ACCESSES = "cuart.kernel.raw_accesses";
    /// Histogram: DRAM transactions per batch.
    DRAM_TX_PER_BATCH = "cuart.kernel.dram_tx_per_batch";
    /// Gauge: device-resident bytes of the built index.
    DEVICE_BYTES = "cuart.build.device_bytes";
    /// Gauge: number of inner nodes in the built index.
    BUILD_NODES = "cuart.build.nodes";
    /// Gauge: number of leaves in the built index.
    BUILD_LEAVES = "cuart.build.leaves";
    /// Gauge: keys kept in the host-side overflow store.
    BUILD_HOST_ENTRIES = "cuart.build.host_entries";
    /// Gauge: mapped Node4 records in the device arena.
    BUILD_RECORDS_N4 = "cuart.build.records.n4";
    /// Gauge: mapped Node16 records in the device arena.
    BUILD_RECORDS_N16 = "cuart.build.records.n16";
    /// Gauge: mapped Node48 records in the device arena.
    BUILD_RECORDS_N48 = "cuart.build.records.n48";
    /// Gauge: mapped Node256 records in the device arena.
    BUILD_RECORDS_N256 = "cuart.build.records.n256";
    /// Gauge: mapped node-to-leaf records in the device arena.
    BUILD_RECORDS_N2L = "cuart.build.records.n2l";
    /// Gauge: mapped leaf8 records in the device arena.
    BUILD_RECORDS_LEAF8 = "cuart.build.records.leaf8";
    /// Gauge: mapped leaf16 records in the device arena.
    BUILD_RECORDS_LEAF16 = "cuart.build.records.leaf16";
    /// Gauge: mapped leaf32 records in the device arena.
    BUILD_RECORDS_LEAF32 = "cuart.build.records.leaf32";
    /// Gauge: index-image bytes a session's device buffers still share with
    /// the image (read in place, never copied).
    DEVICE_SHARED_BYTES = "cuart.device.shared_bytes";
    /// Gauge: bytes of a session's uploaded device buffers it owns: the chunks
    /// its device has written (copied out of the image on first write).
    DEVICE_OWNED_BYTES = "cuart.device.owned_bytes";
    /// Hybrid batches routed to the GPU.
    HYBRID_GPU_BATCHES = "cuart.hybrid.gpu_batches";
    /// Hybrid keys routed to the CPU (long-key / HOST_SIGNAL path).
    HYBRID_CPU_KEYS = "cuart.hybrid.cpu_keys";
    /// Hybrid keys routed to the GPU.
    HYBRID_GPU_KEYS = "cuart.hybrid.gpu_keys";
    /// Gauge: fraction of keys routed to the CPU in the last hybrid run.
    HYBRID_CPU_FRACTION = "cuart.hybrid.cpu_fraction";
    /// Device faults injected (or observed) across the session.
    FAULTS_INJECTED = "cuart.faults.injected";
    /// Batch retries after a device fault.
    FAULT_RETRIES = "cuart.faults.retries";
    /// Histogram: modeled retry backoff ns per attempt.
    FAULT_BACKOFF_NS = "cuart.faults.backoff_ns";
    /// Times the session degraded to the CPU path.
    FAULT_DEGRADATIONS = "cuart.faults.degradations";
    /// Times a degraded session recovered its device image.
    FAULT_RECOVERIES = "cuart.faults.recoveries";
    /// Batches served entirely by the CPU fallback while degraded.
    FAULT_CPU_FALLBACK_BATCHES = "cuart.faults.cpu_fallback_batches";
    /// Keys served by the CPU fallback while degraded.
    FAULT_CPU_FALLBACK_KEYS = "cuart.faults.cpu_fallback_keys";
    /// Gauge: 1 while the session is degraded, 0 otherwise.
    FAULT_DEGRADED = "cuart.faults.degraded";
    /// GRT lookup batches.
    GRT_LOOKUP_BATCHES = "grt.lookup.batches";
    /// GRT keys submitted to lookups.
    GRT_LOOKUP_KEYS = "grt.lookup.keys";
    /// Histogram: modeled kernel ns per GRT lookup batch.
    GRT_LOOKUP_KERNEL_NS = "grt.lookup.kernel_ns";
    /// GRT update batches.
    GRT_UPDATE_BATCHES = "grt.update.batches";
    /// Gauge: device-resident bytes of the built GRT.
    GRT_DEVICE_BYTES = "grt.build.device_bytes";
    /// Operations accepted by the batch scheduler's submission queue.
    SCHED_ENQUEUED = "cuart.sched.enqueued";
    /// Batches the scheduler dispatched to the session.
    SCHED_BATCHES = "cuart.sched.batches";
    /// Batches packed in sorted key order (the locality path).
    SCHED_SORTED_BATCHES = "cuart.sched.sorted_batches";
    /// Batches flushed because the size target was reached.
    SCHED_SIZE_FLUSHES = "cuart.sched.size_flushes";
    /// Batches flushed because the oldest queued op hit its deadline.
    SCHED_DEADLINE_FLUSHES = "cuart.sched.deadline_flushes";
    /// Gauge: ops waiting in the scheduler queue at the last flush.
    SCHED_QUEUE_DEPTH = "cuart.sched.queue_depth";
    /// Histogram: keys per dispatched scheduler batch.
    SCHED_BATCH_FILL = "cuart.sched.batch_fill";
    /// Histogram: per-batch queueing latency (enqueue of the oldest op to
    /// dispatch), nanoseconds.
    SCHED_QUEUE_LATENCY_NS = "cuart.sched.queue_latency_ns";
    /// Ops shed at coalesce time because their deadline had already passed.
    SCHED_SHED = "cuart.sched.shed";
    /// Ops refused at admission (queue full under the `Reject` policy).
    SCHED_REJECTED = "cuart.sched.rejected";
    /// Gauge: breaker state (0 = Closed, 1 = HalfOpen, 2 = Open).
    SCHED_BREAKER_STATE = "cuart.sched.breaker_state";
    /// Circuit-breaker trips (`Closed`/`HalfOpen` → `Open`).
    SCHED_BREAKER_TRIPS = "cuart.sched.breaker_trips";
    /// Half-open probe batches dispatched to the device while recovering.
    SCHED_PROBE_BATCHES = "cuart.sched.probe_batches";
    /// Requests routed through a sharded scheduler's split/merge router.
    SCHED_ROUTED_REQUESTS = "cuart.sched.routed_requests";
    /// Keys routed through a sharded scheduler's split/merge router.
    SCHED_ROUTED_KEYS = "cuart.sched.routed_keys";
    /// Gauge: currently open client connections.
    NET_CONNECTIONS = "cuart.net.connections";
    /// Client connections accepted since the server started.
    NET_ACCEPTED = "cuart.net.accepted";
    /// Gauge: 1 once the server finished a drain-safe shutdown (stopped
    /// accepting, flushed in-flight requests, joined the scheduler).
    NET_DRAINED = "cuart.net.drained";
    /// Request frames decoded off client connections.
    NET_FRAMES_IN = "cuart.net.frames_in";
    /// Response frames written to client connections.
    NET_FRAMES_OUT = "cuart.net.frames_out";
    /// Payload bytes written to client connections.
    NET_BYTES_OUT = "cuart.net.bytes_out";
    /// Frames rejected at decode time (bad magic/version/CRC/truncation).
    NET_DECODE_ERRORS = "cuart.net.decode_errors";
    /// Times a connection's reader blocked on its full in-flight window
    /// (network backpressure composing with queue admission).
    NET_WINDOW_STALLS = "cuart.net.window_stalls";
    /// Typed error frames returned to clients (admission rejects, sheds,
    /// breaker-open refusals, decode errors).
    NET_ERROR_FRAMES = "cuart.net.error_frames";
    /// Histogram: server-side wall ns per request (decode to response
    /// write handoff).
    NET_REQUEST_NS = "cuart.net.request_ns";
    /// Events evicted from the bounded state-transition event ring (overflow is
    /// surfaced, not silent).
    EVENTS_DROPPED = "cuart.telemetry.events_dropped";
    /// Spans evicted from the bounded span ring.
    SPANS_DROPPED = "cuart.telemetry.spans_dropped";
    /// Gauge: dominant stage's share of leaf time in the last committed
    /// span tree.
    TRACE_CRITICAL_SHARE = "cuart.trace.critical_share";
}

/// Common prefix of every scheduler series above.
pub const SCHED_PREFIX: &str = "cuart.sched.";

/// Prefix of the per-shard scheduler twins: a scheduler running as
/// shard `i` of a `ShardedScheduler` mirrors each of its counters and
/// gauges to `cuart.sched.shard.<i>.<suffix>`, so per-shard counters
/// sum to the global `cuart.sched.*` totals by construction.
pub const SCHED_SHARD_PREFIX: &str = "cuart.sched.shard.";

/// Prefix of the critical-path counters: committing a span tree bumps
/// `cuart.trace.critical.<stage>` for its dominant leaf stage.
pub const TRACE_CRITICAL_PREFIX: &str = "cuart.trace.critical.";

/// Prefixes of dynamically-keyed series families.
pub const METRIC_PREFIXES: &[&str] = &[SCHED_SHARD_PREFIX, TRACE_CRITICAL_PREFIX];

/// Per-shard twin of a global `cuart.sched.*` series name.
///
/// ```
/// use cuart_telemetry::names::{sched_shard, SCHED_SHED};
/// assert_eq!(sched_shard(3, SCHED_SHED), "cuart.sched.shard.3.shed");
/// ```
pub fn sched_shard(shard: usize, global: &str) -> String {
    let suffix = global.strip_prefix(SCHED_PREFIX).unwrap_or(global);
    format!("{SCHED_SHARD_PREFIX}{shard}.{suffix}")
}

/// Is `name` a registered series — an exact name, or a member of a
/// registered dynamic family (non-empty remainder after the prefix)?
pub fn is_registered(name: &str) -> bool {
    ALL_METRICS.contains(&name)
        || METRIC_PREFIXES
            .iter()
            .any(|p| name.len() > p.len() && name.starts_with(p))
}

/// Canonical span names (see DESIGN.md §6.1 for the paper mapping).
pub mod spans {
    catalog! {
        /// Every registered span name.
        ALL_SPANS;
        /// Root: one CuART session lookup batch (§3.2).
        BATCH_LOOKUP = "batch.lookup";
        /// Root: one CuART session update/delete batch (§3.4).
        BATCH_UPDATE = "batch.update";
        /// Root: one CuART session insert batch (§5.1).
        BATCH_INSERT = "batch.insert";
        /// Root: one CuART session range batch (§3.2.1 span kernel).
        BATCH_RANGE = "batch.range";
        /// Root: one serving-layer lookup batch (coalesce→sort→dispatch→scatter).
        SCHED_BATCH_LOOKUP = "sched.batch.lookup";
        /// Root: one serving-layer update batch.
        SCHED_BATCH_UPDATE = "sched.batch.update";
        /// Root: one serving-layer insert batch.
        SCHED_BATCH_INSERT = "sched.batch.insert";
        /// Root: one serving-layer range batch (coalesce→dispatch, no sort
        /// or scatter — ranges keep arrival order).
        SCHED_BATCH_RANGE = "sched.batch.range";
        /// Standalone leaf: one network request served (decode→backend→
        /// response write), wall-clock, attrs opcode/bytes.
        NET_REQUEST = "net.request";
        /// Standalone leaf: coalesce-time shedding of deadline-expired ops.
        SCHED_SHED = "sched.shed";
        /// Standalone leaf: one routed fleet call (split→dispatch→merge).
        SCHED_ROUTE = "sched.route";
        /// Root: §3.2.3 hybrid split; spans the slower of the gpu/cpu legs.
        HYBRID_ROUTE = "hybrid.route";
        /// Node: a device kernel, decomposed into `dram` + `exec`.
        KERNEL = "kernel";
        /// Leaf: the kernel share covered by the DRAM bandwidth bound.
        DRAM = "dram";
        /// Leaf: the kernel share left after the DRAM bound (latency/compute).
        EXEC = "exec";
        /// Leaf: PCIe upload of the key batch (bytes attached).
        H2D = "h2d";
        /// Leaf: PCIe download of results (bytes attached).
        D2H = "d2h";
        /// Leaf: kernel-launch overhead (§4.1's batching motivation).
        LAUNCH = "launch";
        /// Leaf: request coalescing into a device batch (serving layer).
        COALESCE = "coalesce";
        /// Leaf: §3.2 sorted batches — ordering queries for §3.1 locality.
        SORT = "sort";
        /// Leaf: result scatter back to producers in arrival order.
        SCATTER = "scatter";
        /// Leaf: the GPU leg of a hybrid batch (starts at t=0).
        GPU = "gpu";
        /// Leaf: the CPU leg of a hybrid batch (starts at t=0, overlaps `gpu`).
        CPU = "cpu";
    }
}
