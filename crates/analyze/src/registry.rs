//! The canonical metric/span-name catalog.
//!
//! This module is the **single source of truth** for every `cuart.*` /
//! `grt.*` series name and every span name in the workspace. From it
//! `cuart-analyze` generates:
//!
//! * `crates/telemetry/src/names.rs` — the registry module all call
//!   sites must reference (`cuart-analyze --emit-registry`), and
//! * the DESIGN.md §6 metric table between the
//!   `<!-- analyze:metric-table -->` markers
//!   (`cuart-analyze --emit-design-table`).
//!
//! `tests/metric_registry.rs` checks both artifacts against this catalog,
//! and that library code takes its names from `names.rs`, so code,
//! registry and docs cannot drift independently.

/// What a series is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
    /// A name prefix for a dynamically-keyed family
    /// (`cuart.sched.shard.<i>.*`, `cuart.trace.critical.<stage>`).
    Prefix,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Prefix => "prefix family",
        }
    }
}

/// One registered series name.
pub struct MetricDef {
    /// Const identifier emitted into `names.rs`.
    pub konst: &'static str,
    /// The wire name (or prefix, for `Kind::Prefix`).
    pub name: &'static str,
    pub kind: Kind,
    /// Doc comment for the generated const.
    pub doc: &'static str,
    /// Which DESIGN.md table row this metric belongs to.
    pub group: &'static str,
}

/// One DESIGN.md table row: a group of related series and their
/// paper hook.
pub struct GroupDef {
    pub id: &'static str,
    /// Override for the "Metric" cell (used when enumerating members
    /// would be noise, e.g. `cuart.build.records.<class>`).
    pub table_name: Option<&'static str>,
    /// The "Paper hook" cell.
    pub hook: &'static str,
}

/// One registered span name.
pub struct SpanDef {
    pub konst: &'static str,
    pub name: &'static str,
    pub doc: &'static str,
}

macro_rules! metric {
    ($konst:ident, $name:literal, $kind:ident, $group:literal, $doc:literal) => {
        MetricDef {
            konst: stringify!($konst),
            name: $name,
            kind: Kind::$kind,
            doc: $doc,
            group: $group,
        }
    };
}

#[rustfmt::skip]
pub const METRICS: &[MetricDef] = &[
    metric!(LOOKUP_BATCHES, "cuart.lookup.batches", Counter, "lookup",
        "Lookup batches served on the device path."),
    metric!(LOOKUP_KEYS, "cuart.lookup.keys", Counter, "lookup",
        "Keys submitted to device lookups."),
    metric!(LOOKUP_KERNEL_NS, "cuart.lookup.kernel_ns", Histogram, "lookup",
        "Histogram: modeled kernel ns per lookup batch."),
    metric!(LOOKUP_HOST_SPILLS, "cuart.lookup.host_spills", Counter, "lookup-spills",
        "Lookup keys resolved on the host (HOST_SIGNAL / overflow)."),
    metric!(UPDATE_BATCHES, "cuart.update.batches", Counter, "update",
        "Update batches served on the device path."),
    metric!(UPDATE_KEYS, "cuart.update.keys", Counter, "update",
        "Keys submitted to device updates."),
    metric!(UPDATE_KERNEL_NS, "cuart.update.kernel_ns", Histogram, "update",
        "Histogram: modeled kernel ns per update batch."),
    metric!(CLAIM_CONFLICTS, "cuart.update.claim_conflicts", Counter, "update",
        "Update/insert slot-claim conflicts (atomic CAS retries)."),
    metric!(INSERT_BATCHES, "cuart.insert.batches", Counter, "insert",
        "Insert batches served on the device path."),
    metric!(INSERT_KEYS, "cuart.insert.keys", Counter, "insert",
        "Keys submitted to device inserts."),
    metric!(INSERT_HOST_SPILLS, "cuart.insert.host_spills", Counter, "insert",
        "Inserts spilled to the host overflow table."),
    metric!(FREELIST_REFILLS, "cuart.insert.freelist_refills", Counter, "insert",
        "Free-list refills triggered by inserts."),
    metric!(INSERT_KERNEL_NS, "cuart.insert.kernel_ns", Histogram, "insert",
        "Histogram: modeled kernel ns per insert batch."),
    metric!(RANGE_BATCHES, "cuart.range.batches", Counter, "range",
        "Range-query batches served through the session."),
    metric!(RANGE_KEYS, "cuart.range.keys", Counter, "range",
        "Inclusive range queries submitted (one per [lo, hi] pair)."),
    metric!(RANGE_ROWS, "cuart.range.rows", Counter, "range",
        "Rows materialized across all range queries."),
    metric!(RANGE_KERNEL_NS, "cuart.range.kernel_ns", Histogram, "range",
        "Histogram: modeled span-kernel ns per range batch."),
    metric!(L2_HITS, "cuart.kernel.l2_hits", Counter, "l2",
        "L2 hits across all kernels."),
    metric!(L2_MISSES, "cuart.kernel.l2_misses", Counter, "l2",
        "L2 misses across all kernels."),
    metric!(L2_HIT_RATE, "cuart.kernel.l2_hit_rate", Gauge, "l2",
        "Gauge: L2 hit rate of the most recent kernel."),
    metric!(DRAM_TRANSACTIONS, "cuart.kernel.dram_transactions", Counter, "dram",
        "DRAM sector transactions across all kernels."),
    metric!(DRAM_BYTES, "cuart.kernel.dram_bytes", Counter, "dram",
        "DRAM bytes moved across all kernels."),
    metric!(DRAM_IMBALANCE, "cuart.kernel.dram_imbalance", Gauge, "dram",
        "Gauge: DRAM channel imbalance of the most recent kernel."),
    metric!(COALESCED_ACCESSES, "cuart.kernel.coalesced_accesses", Counter, "coalescing",
        "Coalesced memory requests across all kernels."),
    metric!(RAW_ACCESSES, "cuart.kernel.raw_accesses", Counter, "coalescing",
        "Raw per-lane memory requests across all kernels."),
    metric!(DRAM_TX_PER_BATCH, "cuart.kernel.dram_tx_per_batch", Histogram, "dram-dist",
        "Histogram: DRAM transactions per batch."),
    metric!(DEVICE_BYTES, "cuart.build.device_bytes", Gauge, "build",
        "Gauge: device-resident bytes of the built index."),
    metric!(BUILD_NODES, "cuart.build.nodes", Gauge, "build",
        "Gauge: number of inner nodes in the built index."),
    metric!(BUILD_LEAVES, "cuart.build.leaves", Gauge, "build",
        "Gauge: number of leaves in the built index."),
    metric!(BUILD_HOST_ENTRIES, "cuart.build.host_entries", Gauge, "build",
        "Gauge: keys kept in the host-side overflow store."),
    metric!(BUILD_RECORDS_N4, "cuart.build.records.n4", Gauge, "build-records",
        "Gauge: mapped Node4 records in the device arena."),
    metric!(BUILD_RECORDS_N16, "cuart.build.records.n16", Gauge, "build-records",
        "Gauge: mapped Node16 records in the device arena."),
    metric!(BUILD_RECORDS_N48, "cuart.build.records.n48", Gauge, "build-records",
        "Gauge: mapped Node48 records in the device arena."),
    metric!(BUILD_RECORDS_N256, "cuart.build.records.n256", Gauge, "build-records",
        "Gauge: mapped Node256 records in the device arena."),
    metric!(BUILD_RECORDS_N2L, "cuart.build.records.n2l", Gauge, "build-records",
        "Gauge: mapped node-to-leaf records in the device arena."),
    metric!(BUILD_RECORDS_LEAF8, "cuart.build.records.leaf8", Gauge, "build-records",
        "Gauge: mapped leaf8 records in the device arena."),
    metric!(BUILD_RECORDS_LEAF16, "cuart.build.records.leaf16", Gauge, "build-records",
        "Gauge: mapped leaf16 records in the device arena."),
    metric!(BUILD_RECORDS_LEAF32, "cuart.build.records.leaf32", Gauge, "build-records",
        "Gauge: mapped leaf32 records in the device arena."),
    metric!(DEVICE_SHARED_BYTES, "cuart.device.shared_bytes", Gauge, "device",
        "Gauge: index-image bytes a session's device buffers still share with\nthe image (read in place, never copied)."),
    metric!(DEVICE_OWNED_BYTES, "cuart.device.owned_bytes", Gauge, "device",
        "Gauge: bytes of a session's uploaded device buffers it owns: the chunks\nits device has written (copied out of the image on first write)."),
    metric!(HYBRID_GPU_BATCHES, "cuart.hybrid.gpu_batches", Counter, "hybrid",
        "Hybrid batches routed to the GPU."),
    metric!(HYBRID_CPU_KEYS, "cuart.hybrid.cpu_keys", Counter, "hybrid",
        "Hybrid keys routed to the CPU (long-key / HOST_SIGNAL path)."),
    metric!(HYBRID_GPU_KEYS, "cuart.hybrid.gpu_keys", Counter, "hybrid",
        "Hybrid keys routed to the GPU."),
    metric!(HYBRID_CPU_FRACTION, "cuart.hybrid.cpu_fraction", Gauge, "hybrid",
        "Gauge: fraction of keys routed to the CPU in the last hybrid run."),
    metric!(FAULTS_INJECTED, "cuart.faults.injected", Counter, "faults",
        "Device faults injected (or observed) across the session."),
    metric!(FAULT_RETRIES, "cuart.faults.retries", Counter, "faults",
        "Batch retries after a device fault."),
    metric!(FAULT_BACKOFF_NS, "cuart.faults.backoff_ns", Histogram, "faults",
        "Histogram: modeled retry backoff ns per attempt."),
    metric!(FAULT_DEGRADATIONS, "cuart.faults.degradations", Counter, "faults",
        "Times the session degraded to the CPU path."),
    metric!(FAULT_RECOVERIES, "cuart.faults.recoveries", Counter, "faults",
        "Times a degraded session recovered its device image."),
    metric!(FAULT_CPU_FALLBACK_BATCHES, "cuart.faults.cpu_fallback_batches", Counter, "faults",
        "Batches served entirely by the CPU fallback while degraded."),
    metric!(FAULT_CPU_FALLBACK_KEYS, "cuart.faults.cpu_fallback_keys", Counter, "faults",
        "Keys served by the CPU fallback while degraded."),
    metric!(FAULT_DEGRADED, "cuart.faults.degraded", Gauge, "faults",
        "Gauge: 1 while the session is degraded, 0 otherwise."),
    metric!(GRT_LOOKUP_BATCHES, "grt.lookup.batches", Counter, "grt",
        "GRT lookup batches."),
    metric!(GRT_LOOKUP_KEYS, "grt.lookup.keys", Counter, "grt",
        "GRT keys submitted to lookups."),
    metric!(GRT_LOOKUP_KERNEL_NS, "grt.lookup.kernel_ns", Histogram, "grt",
        "Histogram: modeled kernel ns per GRT lookup batch."),
    metric!(GRT_UPDATE_BATCHES, "grt.update.batches", Counter, "grt",
        "GRT update batches."),
    metric!(GRT_DEVICE_BYTES, "grt.build.device_bytes", Gauge, "grt",
        "Gauge: device-resident bytes of the built GRT."),
    metric!(SCHED_ENQUEUED, "cuart.sched.enqueued", Counter, "sched",
        "Operations accepted by the batch scheduler's submission queue."),
    metric!(SCHED_BATCHES, "cuart.sched.batches", Counter, "sched",
        "Batches the scheduler dispatched to the session."),
    metric!(SCHED_SORTED_BATCHES, "cuart.sched.sorted_batches", Counter, "sched",
        "Batches packed in sorted key order (the locality path)."),
    metric!(SCHED_SIZE_FLUSHES, "cuart.sched.size_flushes", Counter, "sched-flush",
        "Batches flushed because the size target was reached."),
    metric!(SCHED_DEADLINE_FLUSHES, "cuart.sched.deadline_flushes", Counter, "sched-flush",
        "Batches flushed because the oldest queued op hit its deadline."),
    metric!(SCHED_QUEUE_DEPTH, "cuart.sched.queue_depth", Gauge, "sched-depth",
        "Gauge: ops waiting in the scheduler queue at the last flush."),
    metric!(SCHED_BATCH_FILL, "cuart.sched.batch_fill", Histogram, "sched-lat",
        "Histogram: keys per dispatched scheduler batch."),
    metric!(SCHED_QUEUE_LATENCY_NS, "cuart.sched.queue_latency_ns", Histogram, "sched-lat",
        "Histogram: per-batch queueing latency (enqueue of the oldest op to\ndispatch), nanoseconds."),
    metric!(SCHED_SHED, "cuart.sched.shed", Counter, "sched-overload",
        "Ops shed at coalesce time because their deadline had already passed."),
    metric!(SCHED_REJECTED, "cuart.sched.rejected", Counter, "sched-overload",
        "Ops refused at admission (queue full under the `Reject` policy)."),
    metric!(SCHED_BREAKER_STATE, "cuart.sched.breaker_state", Gauge, "sched-breaker-state",
        "Gauge: breaker state (0 = Closed, 1 = HalfOpen, 2 = Open)."),
    metric!(SCHED_BREAKER_TRIPS, "cuart.sched.breaker_trips", Counter, "sched-breaker",
        "Circuit-breaker trips (`Closed`/`HalfOpen` \u{2192} `Open`)."),
    metric!(SCHED_PROBE_BATCHES, "cuart.sched.probe_batches", Counter, "sched-breaker",
        "Half-open probe batches dispatched to the device while recovering."),
    metric!(SCHED_ROUTED_REQUESTS, "cuart.sched.routed_requests", Counter, "sched-route",
        "Requests routed through a sharded scheduler's split/merge router."),
    metric!(SCHED_ROUTED_KEYS, "cuart.sched.routed_keys", Counter, "sched-route",
        "Keys routed through a sharded scheduler's split/merge router."),
    metric!(SCHED_SHARD_PREFIX, "cuart.sched.shard.", Prefix, "sched-shard",
        "Prefix of the per-shard scheduler twins: a scheduler running as\nshard `i` of a `ShardedScheduler` mirrors each of its counters and\ngauges to `cuart.sched.shard.<i>.<suffix>`, so per-shard counters\nsum to the global `cuart.sched.*` totals by construction."),
    metric!(NET_CONNECTIONS, "cuart.net.connections", Gauge, "net",
        "Gauge: currently open client connections."),
    metric!(NET_ACCEPTED, "cuart.net.accepted", Counter, "net",
        "Client connections accepted since the server started."),
    metric!(NET_DRAINED, "cuart.net.drained", Gauge, "net",
        "Gauge: 1 once the server finished a drain-safe shutdown (stopped\naccepting, flushed in-flight requests, joined the scheduler)."),
    metric!(NET_FRAMES_IN, "cuart.net.frames_in", Counter, "net-frames",
        "Request frames decoded off client connections."),
    metric!(NET_FRAMES_OUT, "cuart.net.frames_out", Counter, "net-frames",
        "Response frames written to client connections."),
    metric!(NET_BYTES_IN, "cuart.net.bytes_in", Counter, "net-frames",
        "Payload bytes read off client connections."),
    metric!(NET_BYTES_OUT, "cuart.net.bytes_out", Counter, "net-frames",
        "Payload bytes written to client connections."),
    metric!(NET_DECODE_ERRORS, "cuart.net.decode_errors", Counter, "net-frames",
        "Frames rejected at decode time (bad magic/version/CRC/truncation)."),
    metric!(NET_WINDOW_STALLS, "cuart.net.window_stalls", Counter, "net-backpressure",
        "Times a connection's reader blocked on its full in-flight window\n(network backpressure composing with queue admission)."),
    metric!(NET_ERROR_FRAMES, "cuart.net.error_frames", Counter, "net-backpressure",
        "Typed error frames returned to clients (admission rejects, sheds,\nbreaker-open refusals, decode errors)."),
    metric!(NET_REQUEST_NS, "cuart.net.request_ns", Histogram, "net-lat",
        "Histogram: server-side wall ns per request (decode to response\nwrite handoff)."),
    metric!(EVENTS_DROPPED, "cuart.telemetry.events_dropped", Counter, "telemetry-drops",
        "Events evicted from the bounded batch-event ring (overflow is\nsurfaced, not silent)."),
    metric!(SPANS_DROPPED, "cuart.telemetry.spans_dropped", Counter, "telemetry-drops",
        "Spans evicted from the bounded span ring."),
    metric!(TRACE_CRITICAL_PREFIX, "cuart.trace.critical.", Prefix, "trace-critical",
        "Prefix of the critical-path counters: committing a span tree bumps\n`cuart.trace.critical.<stage>` for its dominant leaf stage."),
    metric!(TRACE_CRITICAL_SHARE, "cuart.trace.critical_share", Gauge, "trace-critical",
        "Gauge: dominant stage's share of leaf time in the last committed\nspan tree."),
];

/// DESIGN.md §6 table rows, in table order.
#[rustfmt::skip]
pub const GROUPS: &[GroupDef] = &[
    GroupDef { id: "lookup", table_name: None,
        hook: "§4.2 lookup figures (8–12): batch counts and per-batch kernel-time distribution behind every MOps/s point." },
    GroupDef { id: "l2", table_name: None,
        hook: "§3.1/§4.2 cache-residency argument: why throughput droops once the tree overflows L2 (Fig. 10's knee)." },
    GroupDef { id: "dram", table_name: None,
        hook: "DRAM channel model (§2): transaction counts behind GRT-vs-CuART gap; imbalance = max/mean channel busy." },
    GroupDef { id: "coalescing", table_name: None,
        hook: "§3.2 layout claim: aligned per-type records coalesce; ratio quantifies it (GRT's header-then-body pattern shows a worse ratio)." },
    GroupDef { id: "dram-dist", table_name: None,
        hook: "per-batch distribution of DRAM traffic — the droop in Fig. 15 is visible as a fattening tail." },
    GroupDef { id: "lookup-spills", table_name: None,
        hook: "§3.2.3 long-key routing: keys the device could not serve (HOST_SIGNAL / CPU route). Feeds Fig. 13." },
    GroupDef { id: "update", table_name: None,
        hook: "§3.4 two-stage update kernel; claim conflicts are the hash-table collisions that drive Fig. 15's droop." },
    GroupDef { id: "insert", table_name: None,
        hook: "§5.1 device-side inserts: on-device attach vs host-overflow spill ratio; free-list churn from delete/insert cycles (§3.3)." },
    GroupDef { id: "build", table_name: None,
        hook: "§3.2 mapping: built-image size, node/leaf totals and host-side overflow population." },
    GroupDef { id: "build-records", table_name: Some("`cuart.build.records.<class>`"),
        hook: "§3.2 mapping: arena population per node/leaf class (`n4`/`n16`/`n48`/`n256`/`n2l`/`leaf8`/`leaf16`/`leaf32` — density effects of §4.4)." },
    GroupDef { id: "device", table_name: Some("`cuart.device.shared_bytes`, `cuart.device.owned_bytes`"),
        hook: "§3.3 one coherent set of buffers: what a session's device reads in place from the shared index image, and the chunks its writes made its own — 0 owned after open and after a recovery re-upload; lookups never add to it." },
    GroupDef { id: "range", table_name: None,
        hook: "§3.2.1 range queries: span-kernel batches over the ordered leaf arenas, queries served and rows returned (result = per-class `[start, end)` index pairs, materialized host-side)." },
    GroupDef { id: "hybrid", table_name: None,
        hook: "§3.2.3 hybrid split, Figs. 13/14: the CPU-leg share that collapses overall throughput." },
    GroupDef { id: "faults", table_name: None,
        hook: "fault model (§7): injected faults, retry/backoff volume, degrade/recover transitions and the CPU-fallback share while degraded." },
    GroupDef { id: "sched", table_name: None,
        hook: "serving layer (extension): keys accepted from producers, device batches dispatched, and how many took the sorted §3.1-locality path. `enqueued == keys_dispatched` at shutdown is the no-loss invariant." },
    GroupDef { id: "sched-flush", table_name: None,
        hook: "why each batch flushed: it reached the size target, or the linger ran out on an underfilled one — with the default zero linger, an idle executor took what was queued (a positive `--deadline-us` linger trades latency for fill)." },
    GroupDef { id: "sched-depth", table_name: None,
        hook: "pending keys at flush time — backpressure signal from producers outrunning the executor." },
    GroupDef { id: "sched-lat", table_name: None,
        hook: "per-batch fill distribution (launch amortisation, §4.1 batching) and per-request queueing delay — the latency cost of waiting for coalescing." },
    GroupDef { id: "sched-overload", table_name: None,
        hook: "overload protection (extension): ops answered `DeadlineExceeded` at coalesce time, and ops refused at admission (`QueueFull` fail-fast and `AdmissionTimeout` both count into `.rejected`) — load the scheduler declined rather than served late." },
    GroupDef { id: "sched-breaker-state", table_name: None,
        hook: "circuit-breaker position: 0 = closed, 1 = half-open, 2 = open (see §7.1)." },
    GroupDef { id: "sched-breaker", table_name: None,
        hook: "trips into `Open` and half-open probe batches dispatched — the fault-episode timeline of a serving run, matching the `breaker_*` trace events." },
    GroupDef { id: "sched-route", table_name: None,
        hook: "scale-out router (extension): client calls and point ops that went through the split→dispatch→merge path (§5.1 table)." },
    GroupDef { id: "sched-shard", table_name: Some("`cuart.sched.shard.<i>.*`"),
        hook: "per-shard twins of every `cuart.sched.*` counter and gauge above; shard `i`'s scheduler dual-writes both, so the twins sum to the global series exactly (asserted in `tests/scheduler_sharded.rs`). Histograms and spans stay global-only to bound cardinality." },
    GroupDef { id: "net", table_name: None,
        hook: "network front-end (extension): connection lifecycle and the drain-safe shutdown marker CI asserts on — the request coalescing front §3.4's batching pays off through." },
    GroupDef { id: "net-frames", table_name: None,
        hook: "wire traffic: frames/bytes in and out of the length-prefixed binary protocol, and frames rejected at decode (bad magic/version/CRC) — the server answers an error frame and survives." },
    GroupDef { id: "net-backpressure", table_name: None,
        hook: "backpressure composition: reader stalls on the bounded per-connection in-flight window (TCP backpressure) and typed error frames surfacing admission rejects/sheds/breaker refusals to clients." },
    GroupDef { id: "net-lat", table_name: None,
        hook: "server-side request latency distribution — the network-path twin of `cuart.sched.queue_latency_ns`, separating wire/queueing cost from modeled kernel time." },
    GroupDef { id: "grt", table_name: None,
        hook: "GRT baseline (§4), same event schema — side-by-side comparison in one registry." },
    GroupDef { id: "telemetry-drops", table_name: None,
        hook: "ring-buffer overflow accounting for the event and span stores — nonzero means the trace is a suffix, not the whole run." },
    GroupDef { id: "trace-critical", table_name: Some("`cuart.trace.critical.<stage>`, `cuart.trace.critical_share`"),
        hook: "critical-path accounting (§6.1): dominant leaf stage per committed span tree, and its share of leaf time — \"what bounds this workload\" as a counter query." },
];

macro_rules! span {
    ($konst:ident, $name:literal, $doc:literal) => {
        SpanDef {
            konst: stringify!($konst),
            name: $name,
            doc: $doc,
        }
    };
}

#[rustfmt::skip]
pub const SPANS: &[SpanDef] = &[
    span!(BATCH_LOOKUP, "batch.lookup",
        "Root: one CuART session lookup batch (§3.2)."),
    span!(BATCH_UPDATE, "batch.update",
        "Root: one CuART session update/delete batch (§3.4)."),
    span!(BATCH_INSERT, "batch.insert",
        "Root: one CuART session insert batch (§5.1)."),
    span!(BATCH_RANGE, "batch.range",
        "Root: one CuART session range batch (§3.2.1 span kernel)."),
    span!(SCHED_BATCH_LOOKUP, "sched.batch.lookup",
        "Root: one serving-layer lookup batch (coalesce→sort→dispatch→scatter)."),
    span!(SCHED_BATCH_UPDATE, "sched.batch.update",
        "Root: one serving-layer update batch."),
    span!(SCHED_BATCH_INSERT, "sched.batch.insert",
        "Root: one serving-layer insert batch."),
    span!(SCHED_BATCH_RANGE, "sched.batch.range",
        "Root: one serving-layer range batch (coalesce\u{2192}dispatch, no sort\nor scatter \u{2014} ranges keep arrival order)."),
    span!(NET_REQUEST, "net.request",
        "Standalone leaf: one network request served (decode\u{2192}backend\u{2192}\nresponse write), wall-clock, attrs opcode/bytes."),
    span!(SCHED_SHED, "sched.shed",
        "Standalone leaf: coalesce-time shedding of deadline-expired ops."),
    span!(SCHED_ROUTE, "sched.route",
        "Standalone leaf: one routed fleet call (split\u{2192}dispatch\u{2192}merge)."),
    span!(HYBRID_ROUTE, "hybrid.route",
        "Root: §3.2.3 hybrid split; spans the slower of the gpu/cpu legs."),
    span!(PIPELINE, "pipeline",
        "Root: one S-stream software-pipelined run (Figs. 8/9)."),
    span!(PIPELINE_BATCH, "pipeline.batch",
        "Node: one batch inside a pipelined run, children at scheduled offsets."),
    span!(KERNEL, "kernel",
        "Node: a device kernel, decomposed into `dram` + `exec`."),
    span!(DRAM, "dram",
        "Leaf: the kernel share covered by the DRAM bandwidth bound."),
    span!(EXEC, "exec",
        "Leaf: the kernel share left after the DRAM bound (latency/compute)."),
    span!(H2D, "h2d",
        "Leaf: PCIe upload of the key batch (bytes attached)."),
    span!(D2H, "d2h",
        "Leaf: PCIe download of results (bytes attached)."),
    span!(LAUNCH, "launch",
        "Leaf: kernel-launch overhead (§4.1's batching motivation)."),
    span!(COALESCE, "coalesce",
        "Leaf: request coalescing into a device batch (serving layer)."),
    span!(SORT, "sort",
        "Leaf: §3.2 sorted batches — ordering queries for §3.1 locality."),
    span!(SCATTER, "scatter",
        "Leaf: result scatter back to producers in arrival order."),
    span!(PREPARE, "prepare",
        "Leaf: host-side batch preparation stage of the pipeline."),
    span!(POST, "post",
        "Leaf: host-side post-processing stage of the pipeline."),
    span!(GPU, "gpu",
        "Leaf: the GPU leg of a hybrid batch (starts at t=0)."),
    span!(CPU, "cpu",
        "Leaf: the CPU leg of a hybrid batch (starts at t=0, overlaps `gpu`)."),
];

/// Span-name *prefixes* consumers may match on (`starts_with`).
pub const SPAN_PREFIXES: &[(&str, &str, &str)] = &[
    (
        "BATCH_PREFIX",
        "batch.",
        "Prefix of the session batch roots (`batch.lookup/update/insert`).",
    ),
    (
        "SCHED_BATCH_PREFIX",
        "sched.batch.",
        "Prefix of the serving-layer batch roots.",
    ),
];

/// Generate the full contents of `crates/telemetry/src/names.rs`.
pub fn generate_names_rs() -> String {
    let mut out = String::new();
    out.push_str(
        "//! Canonical metric and span names shared by producers and consumers,\n\
         //! so the CLI, the bench harness and the tests never drift on spelling.\n\
         //!\n\
         //! @generated by `cuart-analyze --emit-registry` from\n\
         //! `crates/analyze/src/registry.rs` — do not edit by hand; edit the\n\
         //! catalog and regenerate (`tests/metric_registry.rs` fails on\n\
         //! drift).\n\n",
    );
    for m in METRICS {
        push_doc(&mut out, "", m.doc);
        out.push_str(&format!("pub const {}: &str = \"{}\";\n", m.konst, m.name));
    }
    out.push_str(
        "\n/// Common prefix of every scheduler series above.\n\
         pub const SCHED_PREFIX: &str = \"cuart.sched.\";\n\n\
         /// Per-shard twin of a global `cuart.sched.*` series name:\n\
         /// `sched_shard(3, SCHED_SHED)` \u{2192} `\"cuart.sched.shard.3.shed\"`.\n\
         pub fn sched_shard(shard: usize, global: &str) -> String {\n\
         \x20   let suffix = global.strip_prefix(SCHED_PREFIX).unwrap_or(global);\n\
         \x20   format!(\"{SCHED_SHARD_PREFIX}{shard}.{suffix}\")\n\
         }\n\n",
    );
    // Exact-name table and the dynamic-family prefixes, for registry checks.
    out.push_str("/// Every exact registered series name (prefix families excluded).\n");
    out.push_str("pub const ALL_METRICS: &[&str] = &[\n");
    for m in METRICS.iter().filter(|m| m.kind != Kind::Prefix) {
        out.push_str(&format!("    {},\n", m.konst));
    }
    out.push_str("];\n\n");
    out.push_str("/// Prefixes of dynamically-keyed series families.\n");
    let prefixes: Vec<&str> = METRICS
        .iter()
        .filter(|m| m.kind == Kind::Prefix)
        .map(|m| m.konst)
        .collect();
    out.push_str(&format!(
        "pub const METRIC_PREFIXES: &[&str] = &[{}];\n\n",
        prefixes.join(", ")
    ));
    out.push_str(
        "/// Is `name` a registered series — an exact name, or a member of a\n\
         /// registered dynamic family (non-empty remainder after the prefix)?\n\
         pub fn is_registered(name: &str) -> bool {\n\
         \x20   ALL_METRICS.contains(&name)\n\
         \x20       || METRIC_PREFIXES\n\
         \x20           .iter()\n\
         \x20           .any(|p| name.len() > p.len() && name.starts_with(p))\n\
         }\n\n",
    );
    // Span names.
    out.push_str(
        "/// Canonical span names (see DESIGN.md §6.1 for the paper mapping).\n\
         pub mod spans {\n",
    );
    for s in SPANS {
        push_doc(&mut out, "    ", s.doc);
        out.push_str(&format!(
            "    pub const {}: &str = \"{}\";\n",
            s.konst, s.name
        ));
    }
    for (konst, name, doc) in SPAN_PREFIXES {
        push_doc(&mut out, "    ", doc);
        out.push_str(&format!("    pub const {}: &str = \"{}\";\n", konst, name));
    }
    out.push_str("\n    /// Every registered span name.\n");
    out.push_str("    pub const ALL_SPANS: &[&str] = &[\n");
    for s in SPANS {
        out.push_str(&format!("        {},\n", s.konst));
    }
    out.push_str("    ];\n}\n");
    out
}

/// Emit a (possibly multi-line) doc comment at the given indent.
fn push_doc(out: &mut String, indent: &str, doc: &str) {
    for line in doc.lines() {
        out.push_str(&format!("{indent}/// {line}\n"));
    }
}

/// Abbreviate `name` against `first` the way the DESIGN table does:
/// `cuart.lookup.keys` after `cuart.lookup.batches` renders as `.keys`.
fn abbreviate(first: &str, name: &str) -> String {
    if let Some(dot) = first.rfind('.') {
        let prefix = &first[..dot + 1];
        if let Some(rest) = name.strip_prefix(prefix) {
            return format!(".{rest}");
        }
    }
    name.to_string()
}

/// Generate the DESIGN.md §6 metric table body (header row included,
/// markers excluded).
pub fn generate_metric_table() -> String {
    let mut out = String::from("| Metric | Kind | Paper hook |\n|---|---|---|\n");
    for g in GROUPS {
        let members: Vec<&MetricDef> = METRICS.iter().filter(|m| m.group == g.id).collect();
        assert!(
            !members.is_empty(),
            "registry group `{}` has no member metrics",
            g.id
        );
        let name_cell = match g.table_name {
            Some(n) => n.to_string(),
            None => {
                let first = members[0].name;
                members
                    .iter()
                    .enumerate()
                    .map(|(i, m)| {
                        if i == 0 {
                            format!("`{}`", m.name)
                        } else {
                            format!("`{}`", abbreviate(first, m.name))
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" / ")
            }
        };
        let mut kinds: Vec<&str> = Vec::new();
        for m in &members {
            let l = m.kind.label();
            if !kinds.contains(&l) {
                kinds.push(l);
            }
        }
        let plural = members.len() > 1;
        let kind_cell = kinds
            .iter()
            .map(|k| {
                if plural && (*k == "counter" || *k == "gauge" || *k == "histogram") {
                    format!("{k}s")
                } else {
                    k.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(" / ");
        out.push_str(&format!("| {} | {} | {} |\n", name_cell, kind_cell, g.hook));
    }
    out.push_str("| event ring (`BatchEvent`) | trace | one structured record per batch (build/lookup/update/insert/hybrid_route); bounded, oldest dropped, drop count exported. |\n");
    out
}

/// Markers bracketing the generated metric table in DESIGN.md.
pub const TABLE_BEGIN: &str = "<!-- analyze:metric-table:begin -->";
pub const TABLE_END: &str = "<!-- analyze:metric-table:end -->";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_consts_are_unique_and_well_formed() {
        let mut names = BTreeSet::new();
        let mut consts = BTreeSet::new();
        for m in METRICS {
            assert!(names.insert(m.name), "duplicate metric name {}", m.name);
            assert!(consts.insert(m.konst), "duplicate const {}", m.konst);
            assert!(
                m.name.starts_with("cuart.") || m.name.starts_with("grt."),
                "{} lacks a namespace",
                m.name
            );
            if m.kind == Kind::Prefix {
                assert!(m.name.ends_with('.'), "prefix {} must end with '.'", m.name);
            } else {
                assert!(!m.name.ends_with('.'), "{} ends with '.'", m.name);
            }
        }
        let mut spans = BTreeSet::new();
        for s in SPANS {
            assert!(spans.insert(s.name), "duplicate span name {}", s.name);
        }
    }

    #[test]
    fn every_group_has_members_and_every_metric_a_group() {
        let group_ids: BTreeSet<&str> = GROUPS.iter().map(|g| g.id).collect();
        for m in METRICS {
            assert!(
                group_ids.contains(m.group),
                "metric {} references unknown group {}",
                m.name,
                m.group
            );
        }
        // generate_metric_table asserts the converse (no empty groups).
        let table = generate_metric_table();
        assert!(table.contains("cuart.lookup.batches"));
    }

    #[test]
    fn generated_registry_parses_as_it_should() {
        let src = generate_names_rs();
        assert!(src.contains("pub const LOOKUP_BATCHES"));
        assert!(src.contains("pub mod spans"));
        assert!(src.contains("@generated"));
        // Quick structural sanity: balanced braces.
        let open = src.matches('{').count();
        let close = src.matches('}').count();
        assert_eq!(open, close);
    }
}
