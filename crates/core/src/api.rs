//! The public CuART index façade and the stateful device session.
//!
//! [`CuartIndex::build`] maps an ART into the structure of buffers;
//! [`CuartIndex::device_session`] uploads it to a simulated device and
//! keeps the L2 cache, hash table, free lists and staging buffers alive
//! across batches — the steady-state regime the paper measures, and the
//! one `gpu_runner` samples for the figures. The one device path outside a
//! session is the one-shot
//! [`lookup_batch_device`](CuartIndex::lookup_batch_device): fresh device
//! memory and a cold L2 per call, which the ablations report, the
//! simulator golden's one-shot lines, examples and tests read.
//!
//! A [`CuartSession`] runs every batch down one path: `point_batch` is the
//! skeleton lookups, updates and inserts share, `range_batch` goes through
//! the same device leg and telemetry epilogue, and a three-state [`Mode`]
//! says who serves the device-eligible keys.
//!
//! # One image, shared copy-on-write
//!
//! The index image is immutable, and a device never copies it:
//! [`upload`](CuartIndex::upload) shares each arena and the LUT with a
//! device buffer that owns only the chunks its device has written
//! (`cuart_gpu_sim::memory`). So a session open (`DeviceState::build`), every
//! shard of a fleet, a one-shot [`lookup_batch_device`](CuartIndex::lookup_batch_device)
//! and a recovery re-upload cost O(chunks), and a recovery is "drop the
//! written chunks, clear the bits": the rebuilt state reads the image again.
//! The `cuart.device.shared_bytes` / `cuart.device.owned_bytes` gauges say
//! where a session stands — recorded at open, after a recovery and with
//! every batch.

use crate::buffers::{CuartBuffers, CuartConfig, LongKeyPolicy};
use crate::claim::{ClaimTable, Staging, DEFAULT_TABLE_SLOTS};
use crate::cpu;
use crate::error::{CuartError, RetryPolicy};
use crate::insert::{insert_status, ArenaTails, CuartInsertKernel};
use crate::kernels::{CuartLookupKernel, DeviceTree, HOST_SIGNAL};
use crate::keys::KeySource;
use crate::link::LinkType;
use crate::mapper::{map_art, MAX_DEVICE_KEY};
use crate::overlay::{Home, HostOverlay};
use crate::range::{pack_range_records, RangeSpanKernel, RANGE_RECORD_BYTES, RANGE_RESULT_BYTES};
use crate::update::{status, CuartUpdateKernel, FreeLists, DELETE};
use cuart_art::Art;
use cuart_gpu_sim::batch::{lookup_fitting, pack_keys_into, KeyBatchLayout, NOT_FOUND};
use cuart_gpu_sim::cache::Cache;
use cuart_gpu_sim::exec::{KernelReport, KernelSeries, Launcher};
use cuart_gpu_sim::{BufferId, DeviceConfig, DeviceMemory, FaultInjector, FaultSite, PhasedKernel};
use cuart_telemetry::{
    names, BatchEvent, BatchKind, CounterHandle, GaugeHandle, HistogramHandle, SpanNode, Telemetry,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A built CuART index (host-side image of the device buffers).
#[derive(Debug, Clone)]
pub struct CuartIndex {
    buffers: CuartBuffers,
    /// Shared metrics registry; `None` (the default) records nothing and
    /// costs one branch per batch.
    telemetry: Option<Arc<Telemetry>>,
}

impl CuartIndex {
    /// Map `art` into CuART buffers under `config`.
    pub fn build(art: &Art<u64>, config: &CuartConfig) -> Self {
        CuartIndex {
            buffers: map_art(art, config),
            telemetry: None,
        }
    }

    /// Assemble an index from deserialised buffers (see
    /// [`persist`](crate::persist)).
    pub(crate) fn from_buffers(buffers: CuartBuffers) -> Self {
        CuartIndex {
            buffers,
            telemetry: None,
        }
    }

    /// Attach a telemetry registry. Build-shape gauges (device bytes,
    /// node/leaf-class occupancy) are recorded immediately; sessions
    /// opened afterwards inherit the registry and record every batch.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.record_build_metrics(&telemetry);
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    fn record_build_metrics(&self, t: &Telemetry) {
        let b = &self.buffers;
        t.gauge_set(names::DEVICE_BYTES, self.device_bytes() as f64);
        let node_types = [
            (names::BUILD_RECORDS_N4, LinkType::N4),
            (names::BUILD_RECORDS_N16, LinkType::N16),
            (names::BUILD_RECORDS_N48, LinkType::N48),
            (names::BUILD_RECORDS_N256, LinkType::N256),
            (names::BUILD_RECORDS_N2L, LinkType::N2L),
        ];
        let leaf_types = [
            (names::BUILD_RECORDS_LEAF8, LinkType::Leaf8),
            (names::BUILD_RECORDS_LEAF16, LinkType::Leaf16),
            (names::BUILD_RECORDS_LEAF32, LinkType::Leaf32),
        ];
        let mut nodes = 0usize;
        for (name, ty) in node_types {
            let n = b.record_count(ty);
            nodes += n;
            t.gauge_set(name, n as f64);
        }
        let mut leaves = 0usize;
        for (name, ty) in leaf_types {
            let n = b.record_count(ty);
            leaves += n;
            t.gauge_set(name, n as f64);
        }
        t.gauge_set(names::BUILD_NODES, nodes as f64);
        t.gauge_set(names::BUILD_LEAVES, leaves as f64);
        t.gauge_set(names::BUILD_HOST_ENTRIES, b.host_entries() as f64);
    }

    /// The underlying buffers.
    pub fn buffers(&self) -> &CuartBuffers {
        &self.buffers
    }

    /// Number of keys stored (device + host side).
    pub fn len(&self) -> usize {
        self.buffers.entries
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.buffers.entries == 0
    }

    /// Device memory footprint in bytes (arenas + LUT).
    pub fn device_bytes(&self) -> usize {
        self.buffers.device_bytes()
    }

    /// CPU-engine point lookup (the Figure 7 fast path).
    pub fn lookup_cpu(&self, key: &[u8]) -> Option<u64> {
        cpu::lookup(&self.buffers, key)
    }

    /// CPU-engine batch lookup.
    pub fn lookup_batch_cpu(&self, keys: &[Vec<u8>]) -> Vec<Option<u64>> {
        cpu::lookup_batch(&self.buffers, keys)
    }

    /// Key stride for device query batches. Under the CpuRoute policy long
    /// keys never reach the device, so the stride is capped at the device
    /// maximum; the other policies ship full-length keys to the kernel
    /// (host-leaf traversals and dynamic-leaf comparisons need them).
    pub fn device_key_stride(&self) -> usize {
        match self.buffers.config.long_key_policy {
            LongKeyPolicy::CpuRoute => self.buffers.max_key_len.clamp(8, MAX_DEVICE_KEY),
            LongKeyPolicy::HostLeafLink | LongKeyPolicy::DynamicLeaf => {
                self.buffers.max_key_len.max(8)
            }
        }
    }

    /// Upload all buffers into `mem` with `leaf_headroom` extra zeroed
    /// record slots per leaf class, so the device-side insert engine (§5.1
    /// extension) can bump-allocate new leaves; returns the device handles.
    /// A session uploads with headroom, a one-shot lookup with none.
    ///
    /// Every arena and the LUT are *shared* with the device, not copied
    /// ([`DeviceMemory::upload`]): the upload costs O(chunks) whatever the
    /// image's size, a device write copies only the chunk it lands in, and
    /// the image itself never changes. Base addresses, lengths and so every
    /// modeled number are those of a full copy.
    pub fn upload(&self, mem: &mut DeviceMemory, leaf_headroom: usize) -> DeviceTree {
        let b = &self.buffers;
        // Chunks follow each arena's record stride (a dynamic leaf's is 0:
        // the whole arena is one chunk); leaf classes get the headroom.
        let mut share = |name: &str, image: &Arc<Vec<u8>>, ty: LinkType| {
            let stride = crate::layout::stride(ty);
            let headroom = if ty.is_device_leaf() {
                leaf_headroom
            } else {
                0
            };
            mem.upload(name, image, stride, image.len() + headroom * stride, 32)
        };
        DeviceTree {
            n4: share("cuart-n4", &b.n4, LinkType::N4),
            n16: share("cuart-n16", &b.n16, LinkType::N16),
            n48: share("cuart-n48", &b.n48, LinkType::N48),
            n256: share("cuart-n256", &b.n256, LinkType::N256),
            n2l: share("cuart-n2l", &b.n2l, LinkType::N2L),
            leaf8: share("cuart-leaf8", &b.leaf8, LinkType::Leaf8),
            leaf16: share("cuart-leaf16", &b.leaf16, LinkType::Leaf16),
            leaf32: share("cuart-leaf32", &b.leaf32, LinkType::Leaf32),
            dyn_leaves: share("cuart-dyn", &b.dyn_leaves, LinkType::DynLeaf),
            lut: mem.upload("cuart-lut", &b.lut, 8, b.lut.len(), 32),
            meta: mem.alloc_from("cuart-meta", &b.root.0.to_le_bytes(), 16),
            lut_span: b.config.lut_span,
        }
    }

    /// One-shot device batch lookup with host-signal resolution (fresh
    /// device memory and cold L2 — use [`device_session`](Self::device_session)
    /// for steady-state measurements).
    pub fn lookup_batch_device(
        &self,
        dev: &DeviceConfig,
        queries: &[Vec<u8>],
        stride: usize,
    ) -> (Vec<u64>, KernelReport) {
        let (raw, report) = self.lookup_batch_device_raw(dev, queries, stride);
        let resolved = raw
            .iter()
            .zip(queries)
            .map(|(&r, q)| self.resolve_host_signal(r, q))
            .collect();
        (resolved, report)
    }

    /// As [`lookup_batch_device`](Self::lookup_batch_device) but returning
    /// raw kernel results (host signals unresolved). The batch is staged by
    /// [`lookup_fitting`], the rule GRT's one-shot lookup shares: queries
    /// longer than the stride answer [`NOT_FOUND`], and a batch in which no
    /// key fits launches nothing. A session uploads with leaf headroom and
    /// a claim table, so its buffer addresses, and its modeled numbers,
    /// differ from this path's.
    pub(crate) fn lookup_batch_device_raw(
        &self,
        dev: &DeviceConfig,
        queries: &[Vec<u8>],
        stride: usize,
    ) -> (Vec<u64>, KernelReport) {
        let mut mem = DeviceMemory::new();
        let tree = self.upload(&mut mem, 0);
        let mut l2 = Cache::new(&dev.l2);
        lookup_fitting(
            &mut mem,
            queries,
            stride,
            |mem, queries, layout, results, count| {
                let kernel = CuartLookupKernel {
                    tree,
                    queries,
                    layout,
                    results,
                    count,
                };
                Launcher::default().launch(dev, mem, &kernel, count, &mut l2)
            },
        )
    }

    /// Resolve a raw kernel result: follow host-leaf signals into the host
    /// table and finish the comparison on the CPU (§3.2.3 option 2).
    fn resolve_host_signal(&self, raw: u64, key: &[u8]) -> u64 {
        if raw != NOT_FOUND && raw & HOST_SIGNAL != 0 {
            let idx = (raw & !HOST_SIGNAL) as usize;
            let (stored, value) = &self.buffers.host_leaves[idx];
            if stored.as_slice() == key {
                *value
            } else {
                NOT_FOUND
            }
        } else {
            raw
        }
    }

    /// Open a stateful device session whose update hash table has the
    /// paper's capacity of 1 Mi slots (§4.5).
    pub fn device_session(&self, dev: &DeviceConfig) -> CuartSession<'_> {
        self.device_session_with_table(dev, DEFAULT_TABLE_SLOTS)
    }

    /// Open a session with an explicit update hash-table capacity (the
    /// batch size at which Figure 15 droops; smaller launches use a prefix).
    pub fn device_session_with_table(
        &self,
        dev: &DeviceConfig,
        table_slots: usize,
    ) -> CuartSession<'_> {
        CuartSession::new(self, dev, table_slots)
    }
}

/// Reusable device buffers for range-span batches
/// ([`CuartSession::range_batch`]), so a long-serving session does not
/// grow modeled device memory with every range call.
struct RangeStaging {
    queries: BufferId,
    results: BufferId,
    capacity: usize,
}

/// The device-resident half of a session: everything a re-upload
/// rebuilds from scratch. Session open and recovery each assign one
/// [`DeviceState::build`], so a recovered session's device is a fresh
/// session's — it shares the index image rather than copies it, so a
/// rebuild drops the chunks the old device wrote and costs O(chunks).
/// Staging starts empty and is allocated by the first batch that needs
/// it, in the same order on every build, so every device address repeats.
struct DeviceState {
    mem: DeviceMemory,
    tree: DeviceTree,
    l2: Cache,
    claims: ClaimTable,
    free_lists: FreeLists,
    tails: ArenaTails,
    staging: Option<Staging>,
    range_staging: Option<RangeStaging>,
}

impl DeviceState {
    fn build(index: &CuartIndex, dev: &DeviceConfig, table_slots: usize) -> Self {
        let mut mem = DeviceMemory::new();
        let headroom = (index.buffers.entries / 4).max(1024);
        let tree = index.upload(&mut mem, headroom);
        let claims = ClaimTable::alloc(&mut mem, table_slots);
        let fl_size = |ty: LinkType| 8 + (index.buffers.record_count(ty) + headroom) * 8 + 8;
        let free_lists = FreeLists {
            leaf8: mem.alloc("free-leaf8", fl_size(LinkType::Leaf8), 32),
            leaf16: mem.alloc("free-leaf16", fl_size(LinkType::Leaf16), 32),
            leaf32: mem.alloc("free-leaf32", fl_size(LinkType::Leaf32), 32),
        };
        let tails = ArenaTails(mem.alloc("arena-tails", 24, 32));
        for ty in [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32] {
            mem.write_u64(
                tails.0,
                ArenaTails::offset(ty),
                index.buffers.record_count(ty) as u64,
            );
        }
        DeviceState {
            mem,
            tree,
            l2: Cache::new(&dev.l2),
            claims,
            free_lists,
            tails,
            staging: None,
            range_staging: None,
        }
    }
}

/// Point-in-time fault-handling statistics for a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults the attached injector has fired so far.
    pub injected: u64,
    /// Retried device legs (each retry models one backoff wait).
    pub retries: u64,
    /// GPU→CPU degradations (retry budget exhausted).
    pub degradations: u64,
    /// Successful device re-uploads after a degradation.
    pub recoveries: u64,
    /// `true` while the session is serving device keys on the CPU path.
    pub degraded: bool,
}

/// Who serves a session's device-eligible keys.
///
/// ```text
///          retries exhausted            set_cpu_only(true)
///  Device ───────────────────▶ Degraded ──────────────────▶ Pinned
///     ▲                         │    ▲                         │
///     └── re-upload succeeds ───┘    └── set_cpu_only(false) ──┘
/// ```
///
/// Pinning a `Device` session passes through `Degraded` on the way. The
/// first step out of `Device` makes the host overlay authoritative for
/// every device mutation it shadows, for the rest of the session's life: a
/// recovery re-upload restores the build image, so device mutations made
/// before the fault survive only there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Device legs run on the device.
    Device,
    /// Device legs are served by the CPU engine; every batch first probes
    /// a recovery re-upload.
    Degraded,
    /// As `Degraded`, but held there by [`CuartSession::set_cpu_only`]:
    /// no recovery probe, so no device traffic at all.
    Pinned,
}

/// A stateful device session: uploaded tree + persistent L2, hash table,
/// free lists, arena tails, staging buffers, and one host overlay over the
/// index image.
///
/// # One image, one overlay
///
/// The index image is immutable for the session's whole life. Whatever
/// the host knows beyond it — writes to host-routed keys, inserts the
/// device could not attach, a shadow of device mutations — is one entry per
/// key in a single ordered overlay (`crate::overlay`), so the CPU side
/// reads, writes and ranges by one rule each and cannot disagree with
/// itself. The overlay only ever grows with the keys a session touches;
/// folding it back (`image ⊕ overlay → new image, clear overlay`) is the
/// remap DESIGN §7's overlay paragraph describes, and this pair is its
/// input.
///
/// # One batch, one path
///
/// All four `*_batch` calls run the same sequence — recover, route every
/// key, device leg under the retry policy (or the CPU engine when the
/// session is not in [`Mode::Device`] or the retries run out), read back,
/// parked-key answers, fallback accounting, telemetry — and differ only in
/// what is genuinely per kind (a `match` on `Kind` in the helper that
/// owns the decision; ranges bring their own staging and materialise
/// rows host-side).
///
/// # Fault tolerance
///
/// With a [`FaultInjector`] attached (see
/// [`CuartSession::attach_fault_injector`]) every device leg is
/// guarded: the injector is consulted **before** any device write
/// (transfer check before packing, kernel check before launch), so a
/// failed attempt leaves zero device state behind and is always safe to
/// retry. Transient failures are retried under the session's
/// [`RetryPolicy`] with modeled exponential backoff; when the budget is
/// exhausted the session *degrades* — the failed batch and all following
/// device legs are served by the CPU engine against the build image plus
/// the overlay's shadow of device mutations — until a re-upload succeeds
/// at the start of a later batch and the session *recovers*.
pub struct CuartSession<'a> {
    index: &'a CuartIndex,
    dev: DeviceConfig,
    /// Everything on the device; replaced whole by a recovery.
    device: DeviceState,
    /// Trace arena and timing scratch, reused by every launch. It holds
    /// only capacity and its helper threads, so a recovery keeps it.
    launcher: Launcher,
    /// Inherited from the index at session open, with every per-batch
    /// handle resolved; `None` records nothing.
    telemetry: Option<SessionTelemetry>,
    /// Everything the host knows beyond the image: host-routed writes,
    /// structural inserts the device spilled (§5.1 extension) and, while
    /// [`keeps_journal`](Self::keeps_journal), a shadow of every device
    /// mutation. The input of a remap, which would fold it into a new image.
    overlay: HostOverlay<'a>,
    /// Deterministic fault source for the device legs; `None` disables
    /// all fault paths (the checks compile to a single branch).
    injector: Option<FaultInjector>,
    retry: RetryPolicy,
    mode: Mode,
    /// Shadow device mutations in the overlay even without an injector, so
    /// a later [`CuartSession::set_cpu_only`] pin (e.g. a breaker trip on
    /// session errors with no fault injector) still finds every one of them.
    journal_shadowing: bool,
    retries_total: u64,
    degradations: u64,
    recoveries: u64,
    /// When `false`, batch ops skip committing their own span trees —
    /// used by callers (the scheduler) that record a richer tree around
    /// the same device leg, so stages are never double-counted.
    record_spans: bool,
}

/// The three point kinds [`CuartSession::point_batch`] runs. What differs
/// between them is spelled as a `match` on the kind inside the helper that
/// owns each decision, so the three answers to one question sit side by
/// side.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lookup,
    Update,
    Insert,
}

/// A [`Kind`] as a type parameter: the skeleton and its helpers are
/// monomorphised per kind, so every `match K::KIND` folds at compile time
/// and no per-key call goes through a pointer. Every kind reads its ops
/// through one [`KeySource`].
trait PointKind {
    const KIND: Kind;
}

struct Lookup;
struct Update;
struct Insert;

impl PointKind for Lookup {
    const KIND: Kind = Kind::Lookup;
}

impl PointKind for Update {
    const KIND: Kind = Kind::Update;
}

impl PointKind for Insert {
    const KIND: Kind = Kind::Insert;
}

/// Metric and span names of one batch kind.
struct KindNames {
    /// Position of the kind's handles in [`SessionTelemetry::kinds`].
    slot: usize,
    batches: &'static str,
    keys: &'static str,
    kernel_ns: &'static str,
    /// Counter fed with the batch's host-spill tally, where the kind
    /// keeps one.
    host_spills: Option<&'static str>,
    span: &'static str,
}

const RANGE_NAMES: KindNames = KindNames {
    slot: 3,
    batches: names::RANGE_BATCHES,
    keys: names::RANGE_KEYS,
    kernel_ns: names::RANGE_KERNEL_NS,
    host_spills: None,
    span: names::spans::BATCH_RANGE,
};

impl Kind {
    /// The answer of an op nothing claims.
    const fn default_answer(self) -> u64 {
        match self {
            Kind::Lookup => NOT_FOUND,
            Kind::Update => status::MISS,
            Kind::Insert => insert_status::REJECTED,
        }
    }

    /// Write kinds: the status of an op starved out of the claim table,
    /// which the session re-runs. `None` for lookups.
    const fn exhausted(self) -> Option<u64> {
        match self {
            Kind::Lookup => None,
            Kind::Update => Some(status::EXHAUSTED),
            Kind::Insert => Some(insert_status::EXHAUSTED),
        }
    }

    const fn names(self) -> KindNames {
        match self {
            Kind::Lookup => KindNames {
                slot: 0,
                batches: names::LOOKUP_BATCHES,
                keys: names::LOOKUP_KEYS,
                kernel_ns: names::LOOKUP_KERNEL_NS,
                host_spills: Some(names::LOOKUP_HOST_SPILLS),
                span: names::spans::BATCH_LOOKUP,
            },
            Kind::Update => KindNames {
                slot: 1,
                batches: names::UPDATE_BATCHES,
                keys: names::UPDATE_KEYS,
                kernel_ns: names::UPDATE_KERNEL_NS,
                host_spills: None,
                span: names::spans::BATCH_UPDATE,
            },
            Kind::Insert => KindNames {
                slot: 2,
                batches: names::INSERT_BATCHES,
                keys: names::INSERT_KEYS,
                kernel_ns: names::INSERT_KERNEL_NS,
                host_spills: Some(names::INSERT_HOST_SPILLS),
                span: names::spans::BATCH_INSERT,
            },
        }
    }
}

/// Held handles of one batch kind's series (see [`KindNames`]).
struct KindSeries {
    batches: CounterHandle,
    keys: CounterHandle,
    kernel_ns: HistogramHandle,
    host_spills: Option<CounterHandle>,
}

impl KindSeries {
    fn new(t: &Telemetry, kind: &KindNames) -> KindSeries {
        KindSeries {
            batches: t.counter(kind.batches),
            keys: t.counter(kind.keys),
            kernel_ns: t.histogram(kind.kernel_ns),
            host_spills: kind.host_spills.map(|name| t.counter(name)),
        }
    }
}

/// A session's telemetry: the registry plus every handle the per-batch
/// epilogue bumps, resolved once at session open. The fault and recovery
/// paths, which are rare, record by name through `registry`.
struct SessionTelemetry {
    registry: Arc<Telemetry>,
    /// Indexed by [`KindNames::slot`]: lookup, update, insert, range.
    kinds: [KindSeries; 4],
    kernel: KernelSeries,
    claim_conflicts: CounterHandle,
    freelist_refills: CounterHandle,
    range_rows: CounterHandle,
    shared_bytes: GaugeHandle,
    owned_bytes: GaugeHandle,
}

impl SessionTelemetry {
    fn new(t: &Arc<Telemetry>) -> SessionTelemetry {
        let kind = |k: &KindNames| KindSeries::new(t, k);
        SessionTelemetry {
            registry: Arc::clone(t),
            kinds: [
                kind(&Kind::Lookup.names()),
                kind(&Kind::Update.names()),
                kind(&Kind::Insert.names()),
                kind(&RANGE_NAMES),
            ],
            kernel: KernelSeries::new(t),
            claim_conflicts: t.counter(names::CLAIM_CONFLICTS),
            freelist_refills: t.counter(names::FREELIST_REFILLS),
            range_rows: t.counter(names::RANGE_ROWS),
            shared_bytes: t.gauge(names::DEVICE_SHARED_BYTES),
            owned_bytes: t.gauge(names::DEVICE_OWNED_BYTES),
        }
    }
}

impl<'a> CuartSession<'a> {
    fn new(index: &'a CuartIndex, dev: &DeviceConfig, table_slots: usize) -> Self {
        let session = CuartSession {
            index,
            dev: *dev,
            device: DeviceState::build(index, dev, table_slots),
            launcher: Launcher::default(),
            telemetry: index.telemetry.as_ref().map(SessionTelemetry::new),
            overlay: HostOverlay::new(&index.buffers),
            injector: None,
            retry: RetryPolicy::default(),
            mode: Mode::Device,
            journal_shadowing: false,
            retries_total: 0,
            degradations: 0,
            recoveries: 0,
            record_spans: true,
        };
        session.record_image_sharing();
        session
    }

    /// The device configuration this session runs on.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// The packed per-key byte stride of the device key layout (what one
    /// key costs on the PCIe upload).
    pub fn device_key_stride(&self) -> usize {
        self.index.device_key_stride()
    }

    /// Enable or disable per-batch span trees (`batch.lookup` /
    /// `batch.update` / `batch.insert`). On by default; the batch
    /// scheduler turns it off because it records the whole
    /// `sched.batch.*` tree (queueing, sort, scatter **and** the device
    /// leg) itself.
    pub fn set_span_recording(&mut self, on: bool) {
        self.record_spans = on;
    }

    /// Attach a fault injector. Attach **before** the first mutating
    /// batch: only shadowed mutations survive a recovery re-upload.
    pub fn attach_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The retry policy governing device-leg failures.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Who is serving device-eligible keys right now.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Pin (or release) the session to the authoritative CPU path.
    ///
    /// Pinning degrades the session (the overlay becomes authoritative, a
    /// `Degraded` event is emitted) and suppresses the per-batch recovery
    /// probe, so no device traffic happens until the pin is released —
    /// this is how the scheduler's circuit breaker serves an `Open`
    /// window without retry storms. Releasing only clears the pin; the
    /// next batch's normal `try_recover` performs the re-upload (and may
    /// itself fault, keeping the session degraded).
    pub fn set_cpu_only(&mut self, on: bool) {
        if on {
            self.degrade(0);
            self.mode = Mode::Pinned;
        } else if self.mode == Mode::Pinned {
            self.mode = Mode::Degraded;
        }
    }

    /// Shadow device mutations in the host overlay even without an
    /// injector. Callers that may pin the session later (the scheduler's
    /// circuit breaker) enable this **before** the first mutating batch,
    /// so the CPU path is authoritative whenever the pin lands.
    pub fn set_journal_shadowing(&mut self, on: bool) {
        self.journal_shadowing = on;
    }

    /// Fault-handling statistics so far.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            injected: self
                .injector
                .as_ref()
                .map(|i| i.faults_injected())
                .unwrap_or(0),
            retries: self.retries_total,
            degradations: self.degradations,
            recoveries: self.recoveries,
            degraded: self.mode != Mode::Device,
        }
    }

    /// Consult the injector at a fault site. Called only *before* device
    /// writes (transfer before packing, kernel before launch), so a
    /// failed attempt performs zero device mutations and retrying is
    /// always exact.
    fn fault_check(&mut self, site: FaultSite) -> Result<(), CuartError> {
        if let Some(inj) = &mut self.injector {
            if let Err(fault) = inj.check(site) {
                if let Some(t) = self.telemetry() {
                    t.incr(names::FAULTS_INJECTED, 1);
                }
                return Err(fault.into());
            }
        }
        Ok(())
    }

    /// Run a device leg under the retry policy. Transient failures are
    /// retried with exponential backoff + deterministic jitter; the
    /// accumulated backoff is *modeled* — added to the successful
    /// attempt's `time_ns` — rather than slept, keeping the simulator
    /// fast and reproducible.
    fn run_with_retry<S>(
        &mut self,
        mut attempt_fn: impl FnMut(&mut Self) -> Result<(S, KernelReport), CuartError>,
    ) -> Result<(S, KernelReport), CuartError> {
        let max = self.retry.max_attempts.max(1);
        let jitter_seed = self.injector.as_ref().map(|i| i.config().seed).unwrap_or(0);
        let mut backoff_total = 0u64;
        let mut last: Option<CuartError> = None;
        for attempt in 1..=max {
            match attempt_fn(self) {
                Ok((staged, mut report)) => {
                    report.time_ns += backoff_total as f64;
                    return Ok((staged, report));
                }
                Err(e) if e.is_transient() => {
                    if attempt < max {
                        let wait = self.retry.backoff_ns(attempt, jitter_seed);
                        backoff_total = backoff_total.saturating_add(wait);
                        self.retries_total += 1;
                        if let Some(t) = self.telemetry() {
                            t.incr(names::FAULT_RETRIES, 1);
                            t.observe(names::FAULT_BACKOFF_NS, wait);
                        }
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(match last {
            Some(e) => CuartError::RetriesExhausted {
                attempts: max,
                last: Box::new(e),
            },
            None => CuartError::Internal {
                detail: "retry loop finished without recording an attempt".into(),
            },
        })
    }

    /// The device leg of one batch of `batch_ops` ops, `device_ops` of
    /// them device-bound: `stage` the inputs, then `launch`, with the
    /// injector consulted before each; yields what was staged and the
    /// kernel's report. `None` means the CPU engine must serve the
    /// device-bound ops — the session is not in [`Mode::Device`], or this
    /// leg exhausted its retries and degraded it — and has been counted as
    /// fallback service.
    fn device_leg<S>(
        &mut self,
        batch_ops: usize,
        device_ops: usize,
        mut stage: impl FnMut(&mut Self) -> Result<S, CuartError>,
        mut launch: impl FnMut(&mut Self, &S) -> KernelReport,
    ) -> Result<Option<(S, KernelReport)>, CuartError> {
        if self.mode == Mode::Device {
            match self.run_with_retry(|s| {
                s.fault_check(FaultSite::Transfer)?;
                let staged = stage(s)?;
                s.fault_check(FaultSite::Kernel)?;
                let report = launch(s, &staged);
                Ok((staged, report))
            }) {
                Ok(launched) => return Ok(Some(launched)),
                Err(CuartError::RetriesExhausted { .. }) => self.degrade(batch_ops as u64),
                Err(e) => return Err(e),
            }
        }
        if let Some(t) = self.telemetry() {
            t.incr(names::FAULT_CPU_FALLBACK_BATCHES, 1);
            t.incr(names::FAULT_CPU_FALLBACK_KEYS, device_ops as u64);
        }
        Ok(None)
    }

    /// Leave [`Mode::Device`]: device legs are served by the CPU engine
    /// until a re-upload succeeds. The overlay becomes (and stays) the
    /// authority for every key it shadows.
    fn degrade(&mut self, batch_keys: u64) {
        if self.mode != Mode::Device {
            return;
        }
        self.mode = Mode::Degraded;
        self.degradations += 1;
        if let Some(t) = self.telemetry() {
            t.incr(names::FAULT_DEGRADATIONS, 1);
            t.gauge_set(names::FAULT_DEGRADED, 1.0);
            t.record(BatchEvent::new(BatchKind::Degraded, batch_keys));
        }
    }

    /// While degraded (and not pinned), attempt a device re-upload at the
    /// start of each batch. The re-upload is itself a transfer and can
    /// fault — in that case the session stays degraded and serves the
    /// batch on the CPU.
    fn try_recover(&mut self) {
        if self.mode != Mode::Degraded {
            return;
        }
        if self.fault_check(FaultSite::Transfer).is_err() {
            return;
        }
        self.device = DeviceState::build(self.index, &self.dev, self.device.claims.slots());
        self.mode = Mode::Device;
        self.recoveries += 1;
        if let Some(t) = self.telemetry() {
            t.incr(names::FAULT_RECOVERIES, 1);
            t.gauge_set(names::FAULT_DEGRADED, 0.0);
            t.record(BatchEvent::new(BatchKind::Recovered, 0));
        }
        self.record_image_sharing();
    }

    /// Gauge what the device shares with the index image and what it owns.
    fn record_image_sharing(&self) {
        if let Some(t) = &self.telemetry {
            t.shared_bytes.set(self.device.mem.shared_bytes() as f64);
            t.owned_bytes.set(self.device.mem.owned_bytes() as f64);
        }
    }

    /// `true` while device-leg mutations are shadowed in the overlay, so a
    /// recovery re-upload (which restores the build image) or a pin loses
    /// nothing.
    fn keeps_journal(&self) -> bool {
        self.injector.is_some() || self.journal_shadowing || self.degradations > 0
    }

    /// Where one op is served when the device leg may not take it: `Some`
    /// is the host, filing a key the overlay does not hold yet under that
    /// home; `None` sends it to the device. Decided against the pre-batch
    /// state, so every op on one key goes the same way; which ops that is
    /// never depends on what the overlay shadows until a degradation has
    /// happened, so the modeled device work of a healthy session is a
    /// function of its batches alone.
    fn off_device<K: PointKind>(&self, key: &[u8], stride_max: usize) -> Option<Home> {
        // Host-routed classes, and keys that cannot be packed at the device
        // stride: the stride covers every stored key, so the device holds
        // no such key and has no attach point for one.
        if self.index.buffers.is_host_routed(key) || key.len() > stride_max {
            return Some(Home::Host);
        }
        // A parked key has no attach point on the device either: a second
        // insert would only spill again.
        if K::KIND == Kind::Insert && self.overlay.parked() > 0 && self.overlay.is_parked(key) {
            return Some(Home::Host);
        }
        // A recovery re-upload restores the build image, so once a
        // degradation has happened the device may be stale for every key
        // the overlay shadows.
        if self.degradations > 0 && self.overlay.preempts(key) {
            return Some(Home::Shadow);
        }
        None
    }

    /// Serve `ops[i]` on the host for each `(i, home)` of `which`, under
    /// the batch rule of DESIGN §7: visited last-first, the first op seen
    /// per key is applied against the pre-batch state, and each earlier op
    /// on that key answers `SUPERSEDED` — `MISS` when that winner missed.
    fn on_host_batch<K: PointKind>(
        &mut self,
        ops: &(impl KeySource + ?Sized),
        which: impl DoubleEndedIterator<Item = (usize, Home)>,
        out: &mut [u64],
    ) {
        let mut won: HashMap<&[u8], u64> = HashMap::new();
        for (i, home) in which.rev() {
            let (key, value) = (ops.key(i), ops.value(i));
            out[i] = match (K::KIND, won.get(key)) {
                (Kind::Update, Some(&status::MISS)) => status::MISS,
                (Kind::Update, Some(_)) => status::SUPERSEDED,
                (_, Some(_)) => insert_status::SUPERSEDED,
                (_, None) => {
                    let answer = self.on_host::<K>(key, value, home);
                    if K::KIND != Kind::Lookup {
                        won.insert(key, answer);
                    }
                    answer
                }
            };
        }
    }

    /// Answer one op on the host: the overlay, then the image. `home` is
    /// where a key the overlay does not hold yet is filed.
    fn on_host<K: PointKind>(&mut self, key: &[u8], value: u64, home: Home) -> u64 {
        match K::KIND {
            Kind::Lookup => self.overlay.lookup(key),
            Kind::Update => self.overlay.update(key, value, home),
            Kind::Insert => self.overlay.insert(key, value, home),
        }
    }

    /// Write kinds, per device op after the launch: shadow an applied
    /// mutation when `journaling`, park a spilled insert.
    fn settle<K: PointKind>(&mut self, key: &[u8], value: u64, status: u64, journaling: bool) {
        let (value, home) = match (K::KIND, status) {
            (Kind::Update, status::APPLIED) if journaling => {
                ((value != DELETE).then_some(value), Home::Shadow)
            }
            (Kind::Insert, insert_status::UPDATED | insert_status::INSERTED) if journaling => {
                (Some(value), Home::Shadow)
            }
            (Kind::Insert, insert_status::SPILLED) => (Some(value), Home::Host),
            _ => return,
        };
        self.overlay.set(key, value, home);
    }

    fn ensure_staging(&mut self, batch: usize) -> Staging {
        let stride = self.index.device_key_stride();
        let reusable = self
            .device
            .staging
            .filter(|s| s.capacity >= batch && s.layout.stride == stride);
        let st = match reusable {
            Some(s) => s,
            None => {
                let cap = batch.next_power_of_two().max(64);
                let layout = KeyBatchLayout { stride };
                Staging {
                    queries: self.device.mem.alloc(
                        "stage-queries",
                        cap * layout.record_bytes(),
                        32,
                    ),
                    layout,
                    results: self.device.mem.alloc("stage-results", cap * 8, 32),
                    values: self.device.mem.alloc("stage-values", cap * 8, 32),
                    loc: self.device.mem.alloc("stage-loc", cap * 8, 32),
                    parent: self.device.mem.alloc("stage-parent", cap * 8, 32),
                    aux: self.device.mem.alloc("stage-leaf", cap * 8, 32),
                    capacity: cap,
                }
            }
        };
        *self.device.staging.insert(st)
    }

    /// Stage the keys (and, for write kinds, the values) of `ops[which]`
    /// for a launch, in `which` order.
    fn stage<K: PointKind>(
        &mut self,
        ops: &(impl KeySource + ?Sized),
        which: &[usize],
    ) -> Result<Staging, CuartError> {
        let st = self.ensure_staging(which.len());
        let keys = which.iter().map(|&i| ops.key(i));
        pack_keys_into(&mut self.device.mem, st.queries, &st.layout, keys)?;
        if K::KIND != Kind::Lookup {
            for (j, &i) in which.iter().enumerate() {
                self.device.mem.write_u64(st.values, j * 8, ops.value(i));
            }
        }
        Ok(st)
    }

    /// Launch the kind's kernel over the first `count` staged ops.
    fn launch<K: PointKind>(&mut self, st: &Staging, count: usize) -> KernelReport {
        let claims = self.device.claims.sized_for(count);
        match K::KIND {
            Kind::Lookup => {
                let kernel = CuartLookupKernel {
                    tree: self.device.tree,
                    queries: st.queries,
                    layout: st.layout,
                    results: st.results,
                    count,
                };
                self.run_kernel(&kernel, count)
            }
            Kind::Update => {
                let kernel = CuartUpdateKernel {
                    tree: self.device.tree,
                    staging: *st,
                    count,
                    claims,
                    free_lists: self.device.free_lists,
                };
                self.launch_claiming(&kernel, claims, count)
            }
            Kind::Insert => {
                let kernel = CuartInsertKernel {
                    tree: self.device.tree,
                    staging: *st,
                    count,
                    claims,
                    free_lists: self.device.free_lists,
                    tails: self.device.tails,
                };
                self.launch_claiming(&kernel, claims, count)
            }
        }
    }

    /// Launch `kernel` over `threads` threads on the session's device,
    /// against its warm L2.
    fn run_kernel(&mut self, kernel: &impl PhasedKernel, threads: usize) -> KernelReport {
        let device = &mut self.device;
        self.launcher
            .launch(&self.dev, &mut device.mem, kernel, threads, &mut device.l2)
    }

    /// Run a two-stage write kernel over `count` threads against `claims`
    /// — all-zero at launch — then zero it again. The report is charged
    /// the device memset that clear stands for.
    fn launch_claiming(
        &mut self,
        kernel: &impl PhasedKernel,
        claims: ClaimTable,
        count: usize,
    ) -> KernelReport {
        debug_assert!(
            claims.is_zero(&self.device.mem),
            "claim table dirty at launch"
        );
        let mut report = self.run_kernel(kernel, count);
        claims.clear(&mut self.device.mem);
        report.time_ns += claims.clear_ns(&self.dev);
        report
    }

    /// One point batch, start to finish: recover, route every key, run the
    /// device leg (or its CPU fallback), read back, answer parked keys,
    /// record. Answers come back in op order.
    fn point_batch<K: PointKind>(
        &mut self,
        ops: &(impl KeySource + ?Sized),
    ) -> Result<(Vec<u64>, KernelReport), CuartError> {
        self.try_recover();
        let stride_max = KeyBatchLayout {
            stride: self.index.device_key_stride(),
        }
        .max_key_len();
        let writes = K::KIND != Kind::Lookup;
        let free_before = (writes && self.telemetry.is_some()).then(|| self.free_total());
        let mut out = vec![K::KIND.default_answer(); ops.len()];
        // Device-bound ops stay where the caller put them: the batch keeps
        // their indices and the packer copies each key once, into staging.
        let mut device_idx = Vec::with_capacity(ops.len());
        let mut host = Vec::new();
        for i in 0..ops.len() {
            let key = ops.key(i);
            // An empty key is refused: it keeps the default answer.
            if !key.is_empty() {
                match self.off_device::<K>(key, stride_max) {
                    Some(home) => host.push((i, home)),
                    None => device_idx.push(i),
                }
            }
        }
        self.on_host_batch::<K>(ops, host.into_iter(), &mut out);
        let mut host_spills = (ops.len() - device_idx.len()) as u64;
        let mut report = KernelReport::default();
        if !device_idx.is_empty() {
            let launched = self.device_leg(
                ops.len(),
                device_idx.len(),
                |s| s.stage::<K>(ops, &device_idx),
                |s, st| s.launch::<K>(st, device_idx.len()),
            )?;
            match launched {
                Some((st, r)) => {
                    report = r;
                    for (j, &i) in device_idx.iter().enumerate() {
                        let raw = self.device.mem.read_u64(st.results, j * 8);
                        out[i] = match K::KIND {
                            // Host-leaf signals finish on the CPU (§3.2.3
                            // option 2); only they read the key again.
                            Kind::Lookup if raw != NOT_FOUND && raw & HOST_SIGNAL != 0 => {
                                host_spills += 1;
                                self.index.resolve_host_signal(raw, ops.key(i))
                            }
                            _ => raw,
                        };
                    }
                    if writes {
                        self.rerun_exhausted::<K>(&mut out, &device_idx, ops, &mut report)?;
                        // Only the max-tid winner of each key carries an
                        // applied status. Every op on a key with no attach
                        // point spills: the last one parks it on the host,
                        // and the earlier ones are superseded, as there.
                        let journaling = self.keeps_journal();
                        let mut spilled = HashSet::new();
                        for &i in device_idx.iter().rev() {
                            let (key, value) = (ops.key(i), ops.value(i));
                            if K::KIND == Kind::Insert
                                && out[i] == insert_status::SPILLED
                                && !spilled.insert(key)
                            {
                                out[i] = insert_status::SUPERSEDED;
                            } else {
                                self.settle::<K>(key, value, out[i], journaling);
                            }
                        }
                    }
                    // The device holds no parked key: lookups and updates
                    // of one came back unanswered.
                    if K::KIND != Kind::Insert && self.overlay.parked() > 0 {
                        let parked: Vec<(usize, Home)> = device_idx
                            .iter()
                            .filter(|&&i| {
                                out[i] == K::KIND.default_answer()
                                    && self.overlay.is_parked(ops.key(i))
                            })
                            .map(|&i| (i, Home::Host))
                            .collect();
                        self.on_host_batch::<K>(ops, parked.into_iter(), &mut out);
                    }
                }
                None => {
                    let shadowed = device_idx.iter().map(|&i| (i, Home::Shadow));
                    self.on_host_batch::<K>(ops, shadowed, &mut out);
                }
            }
        }
        if self.telemetry.is_some() {
            let spilled = out.iter().filter(|&&s| s == insert_status::SPILLED);
            let host_spills = match K::KIND {
                Kind::Lookup => host_spills,
                Kind::Update => 0,
                Kind::Insert => spilled.count() as u64,
            };
            // Inserts consume free slots; deletes push some back. Report
            // net growth as refills.
            let refills = free_before.map(|before| self.free_total().saturating_sub(before));
            let names = K::KIND.names();
            self.record_batch(&names, &report, ops.len(), host_spills, refills);
            let n = device_idx.len();
            let attrs = [
                ("keys", ops.len()),
                ("device_keys", n),
                ("claim_slots", self.claim_slots(n)),
            ];
            self.record_batch_span(
                names.span,
                &report,
                n,
                (self.index.device_key_stride(), 8),
                &attrs[..2 + usize::from(writes)], // `claim_slots`: write kinds only
            );
        }
        Ok((out, report))
    }

    /// Re-run ops starved out of the claim hash table (only a batch with
    /// more targets than its capacity has any) against a cleared table. The
    /// stage-1 linear probe covers every slot in use, so `EXHAUSTED` for a
    /// location means that location is nowhere in the table — exhaustion is
    /// all-or-nothing per location and a sub-batch re-run (original
    /// relative order) preserves max-tid-wins semantics.
    /// Each round resolves at least one location, so the loop terminates;
    /// a no-progress round means the table cannot hold a single entry.
    /// Re-runs ride the already-fault-validated launch and are not
    /// re-checked.
    fn rerun_exhausted<K: PointKind>(
        &mut self,
        statuses: &mut [u64],
        device_idx: &[usize],
        ops: &(impl KeySource + ?Sized),
        report: &mut KernelReport,
    ) -> Result<(), CuartError> {
        let Some(exhausted) = K::KIND.exhausted() else {
            return Ok(());
        };
        loop {
            let pending: Vec<usize> = device_idx
                .iter()
                .copied()
                .filter(|&i| statuses[i] == exhausted)
                .collect();
            if pending.is_empty() {
                return Ok(());
            }
            let st = self.stage::<K>(ops, &pending)?;
            let sub = self.launch::<K>(&st, pending.len());
            let mut progressed = false;
            for (m, &i) in pending.iter().enumerate() {
                statuses[i] = self.device.mem.read_u64(st.results, m * 8);
                progressed |= statuses[i] != exhausted;
            }
            report.accumulate(&sub);
            if !progressed {
                return Err(CuartError::HashTableFull {
                    table_slots: self.device.claims.slots(),
                });
            }
        }
    }

    /// Counters, histogram and kernel statistics of one finished batch.
    /// `refills` is `Some` for the write kinds, which also report their
    /// claim conflicts.
    fn record_batch(
        &self,
        kind: &KindNames,
        report: &KernelReport,
        ops: usize,
        host_spills: u64,
        refills: Option<u64>,
    ) {
        let Some(t) = &self.telemetry else {
            return;
        };
        let series = &t.kinds[kind.slot];
        series.batches.incr(1);
        series.keys.incr(ops as u64);
        if let Some(spills) = &series.host_spills {
            spills.incr(host_spills);
        }
        if let Some(refills) = refills {
            t.claim_conflicts.incr(report.atomic_conflicts);
            t.freelist_refills.incr(refills);
        }
        series.kernel_ns.observe(report.time_ns as u64);
        t.kernel.record(report);
        self.record_image_sharing();
    }

    /// Build and commit a `batch.<kind>` span tree for a device leg over
    /// `device_ops` ops costing `wire` bytes each up and down: `h2d`, the
    /// kernel's `dram`/`exec` decomposition, and `d2h`. The children run
    /// back to back, so the leaf durations sum to the root's modeled batch
    /// time.
    fn record_batch_span(
        &self,
        name: &'static str,
        report: &KernelReport,
        device_ops: usize,
        wire: (usize, usize),
        attrs: &[(&'static str, usize)],
    ) {
        let Some(t) = &self.telemetry else {
            return;
        };
        if !self.record_spans || device_ops == 0 || report.time_ns <= 0.0 {
            return;
        }
        let up = cuart_gpu_sim::pcie::upload(&self.dev.pcie, device_ops, wire.0);
        let down = cuart_gpu_sim::pcie::download(&self.dev.pcie, device_ops, wire.1);
        let mut root = SpanNode::node(
            name,
            vec![
                SpanNode::leaf(names::spans::H2D, up.time_ns as u64).with_attr("bytes", up.bytes),
                report.to_span(),
                SpanNode::leaf(names::spans::D2H, down.time_ns as u64)
                    .with_attr("bytes", down.bytes),
            ],
        );
        for &(key, value) in attrs {
            root = root.with_attr(key, value);
        }
        t.registry.record_span_tree(root);
    }

    fn ensure_range_staging(&mut self, batch: usize) -> &RangeStaging {
        let reusable = self
            .device
            .range_staging
            .take()
            .filter(|s| s.capacity >= batch);
        let st = match reusable {
            Some(s) => s,
            None => {
                let cap = batch.next_power_of_two().max(64);
                RangeStaging {
                    queries: self.device.mem.alloc(
                        "range-stage-queries",
                        cap * RANGE_RECORD_BYTES,
                        32,
                    ),
                    results: self.device.mem.alloc(
                        "range-stage-results",
                        cap * RANGE_RESULT_BYTES,
                        32,
                    ),
                    capacity: cap,
                }
            }
        };
        self.device.range_staging.insert(st)
    }

    /// Batch lookup: host-routed keys answered from the overlay and the
    /// image, device keys through the lookup kernel; results in query order.
    ///
    /// Infallible unless a non-transient error escapes the fault path: a
    /// device leg that exhausts its retries degrades to the CPU engine
    /// rather than failing the batch.
    pub fn lookup_batch(
        &mut self,
        keys: &(impl KeySource + ?Sized),
    ) -> Result<(Vec<u64>, KernelReport), CuartError> {
        self.point_batch::<Lookup>(keys)
    }

    /// Batch update/delete through the two-stage kernel. `DELETE` as the
    /// value deletes the key. Returns per-op statuses (see [`status`]) and
    /// the kernel report (which includes the hash-table clear cost).
    ///
    /// A device leg that exhausts its retries degrades to the CPU engine
    /// rather than failing the batch; hash-table starvation with a
    /// degenerate (zero-capacity) table surfaces as
    /// [`CuartError::HashTableFull`].
    pub fn update_batch(
        &mut self,
        ops: &(impl KeySource + ?Sized),
    ) -> Result<(Vec<u64>, KernelReport), CuartError> {
        self.point_batch::<Update>(ops)
    }

    /// Batch **insert** through the device-side insert engine (the §5.1
    /// future-work extension). Existing keys are updated (thread-id
    /// priority, like [`update_batch`](Self::update_batch)); new keys are
    /// attached on the device where a single-CAS attach point exists, and
    /// are parked in the session's host overlay otherwise. Returns one
    /// [`insert_status`] per op.
    ///
    /// A device leg that exhausts its retries degrades to the CPU engine
    /// rather than failing the batch.
    pub fn insert_batch(
        &mut self,
        ops: &(impl KeySource + ?Sized),
    ) -> Result<(Vec<u64>, KernelReport), CuartError> {
        self.point_batch::<Insert>(ops)
    }

    /// Batch of inclusive range queries: per range, every live `(key,
    /// value)` row in `[lo, hi]`, sorted by key; results in query order.
    ///
    /// The device leg runs the §3.2.1 span kernel over the session's
    /// arenas to model the lookup cost, but the rows themselves are
    /// materialized host-side (the image's rows with the host overlay laid
    /// over them) so device mutations the overlay shadows are visible.
    /// Mutations made *before* journal shadowing was enabled are not —
    /// the scheduler path enables shadowing up front, so serving-path
    /// ranges are exact. Inverted or empty ranges return empty rows. A
    /// device leg that exhausts its retries degrades to the CPU engine
    /// rather than failing the batch.
    #[allow(
        clippy::type_complexity,
        reason = "rows of (key, value) pairs per range plus the report; an alias would hide the shape"
    )]
    pub fn range_batch(
        &mut self,
        ranges: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(Vec<Vec<(Vec<u8>, u64)>>, KernelReport), CuartError> {
        self.try_recover();
        if ranges.is_empty() {
            return Ok((Vec::new(), KernelReport::default()));
        }
        let launched = self.device_leg(
            ranges.len(),
            ranges.len(),
            |s| {
                let st = s.ensure_range_staging(ranges.len());
                let staged = (st.queries, st.results);
                // Bounds longer than the packed 32-byte field are clamped:
                // the kernel leg only models span-search cost, the host
                // rows below are authoritative.
                let live = ranges.len() * RANGE_RECORD_BYTES;
                pack_range_records(s.device.mem.bytes_mut(staged.0, 0, live), ranges);
                Ok(staged)
            },
            |s, &(queries, results)| {
                let mapped = |ty| s.index.buffers.record_count(ty) as u64;
                let kernel = RangeSpanKernel {
                    tree: s.device.tree,
                    queries,
                    results,
                    count: ranges.len(),
                    mapped: [
                        mapped(LinkType::Leaf8),
                        mapped(LinkType::Leaf16),
                        mapped(LinkType::Leaf32),
                    ],
                };
                s.run_kernel(&kernel, ranges.len())
            },
        )?;
        let device_ops = if launched.is_some() { ranges.len() } else { 0 };
        let report = launched.map(|(_, report)| report).unwrap_or_default();
        let mut rows_total = 0usize;
        let out: Vec<Vec<(Vec<u8>, u64)>> = ranges
            .iter()
            .map(|(lo, hi)| {
                let rows = self.overlay.range(lo, hi);
                rows_total += rows.len();
                rows
            })
            .collect();
        if let Some(t) = &self.telemetry {
            t.range_rows.incr(rows_total as u64);
        }
        let on_cpu = (ranges.len() - device_ops) as u64;
        self.record_batch(&RANGE_NAMES, &report, ranges.len(), on_cpu, None);
        self.record_batch_span(
            RANGE_NAMES.span,
            &report,
            device_ops,
            (RANGE_RECORD_BYTES, RANGE_RESULT_BYTES),
            &[("ranges", ranges.len()), ("rows", rows_total)],
        );
        Ok((out, report))
    }

    /// Claim-table slots a write launch over `threads` threads hashes over.
    pub fn claim_slots(&self, threads: usize) -> usize {
        self.device.claims.sized_for(threads).slots()
    }

    /// The claim table and the device memory it lives in, for the
    /// [`claim`](crate::claim) tests that check it between launches.
    #[cfg(test)]
    pub(crate) fn claim_table(&mut self) -> (ClaimTable, &mut DeviceMemory) {
        (self.device.claims, &mut self.device.mem)
    }

    /// Number of device-eligible keys parked host-side: the inserts the
    /// device could not take.
    pub fn overflow_len(&self) -> usize {
        self.overlay.parked()
    }

    /// Number of freed slots currently on the free list of a leaf class.
    /// Non-leaf classes have no free list and report zero.
    pub fn free_count(&self, ty: LinkType) -> u64 {
        self.device
            .free_lists
            .of(ty)
            .map(|fl| self.device.mem.read_u64(fl, 0))
            .unwrap_or(0)
    }

    /// Total freed slots across all leaf classes.
    fn free_total(&self) -> u64 {
        [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32]
            .iter()
            .map(|&ty| self.free_count(ty))
            .sum()
    }

    /// The telemetry registry this session records into, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// The session's device memory, read-only: what its buffers share with
    /// the index image and which chunks its device has written.
    pub fn device_memory(&self) -> &DeviceMemory {
        &self.device.mem
    }

    /// The device handles of the uploaded tree.
    pub fn device_tree(&self) -> &DeviceTree {
        &self.device.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(n: u64, cfg: &CuartConfig) -> CuartIndex {
        let mut art = Art::new();
        for i in 0..n {
            art.insert(&(i * 2).to_be_bytes(), i).unwrap();
        }
        CuartIndex::build(&art, cfg)
    }

    #[test]
    fn facade_basics() {
        let idx = index(100, &CuartConfig::for_tests());
        assert_eq!(idx.len(), 100);
        assert!(!idx.is_empty());
        assert!(idx.device_bytes() > 0);
        assert_eq!(idx.lookup_cpu(&10u64.to_be_bytes()), Some(5));
        assert_eq!(idx.device_key_stride(), 8);
        assert_eq!(
            idx.lookup_batch_cpu(&[4u64.to_be_bytes().to_vec(), 5u64.to_be_bytes().to_vec()]),
            vec![Some(2), None]
        );
    }

    #[test]
    fn session_lookup_matches_cpu() {
        let idx = index(1000, &CuartConfig::for_tests());
        let dev = cuart_gpu_sim::devices::rtx3090();
        let mut session = idx.device_session(&dev);
        let keys: Vec<Vec<u8>> = (0..200u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (results, report) = session.lookup_batch(&keys).unwrap();
        for (k, r) in keys.iter().zip(&results) {
            assert_eq!(*r, idx.lookup_cpu(k).unwrap_or(NOT_FOUND));
        }
        assert!(report.time_ns > 0.0);
    }

    #[test]
    fn session_reuses_staging_buffers() {
        let idx = index(100, &CuartConfig::for_tests());
        let dev = cuart_gpu_sim::devices::a100();
        let mut session = idx.device_session(&dev);
        let keys: Vec<Vec<u8>> = (0..64u64).map(|i| i.to_be_bytes().to_vec()).collect();
        session.lookup_batch(&keys).unwrap();
        let buffers_before = session.device.mem.buffer_count();
        for _ in 0..5 {
            session.lookup_batch(&keys).unwrap();
        }
        assert_eq!(
            session.device.mem.buffer_count(),
            buffers_before,
            "staging must be reused"
        );
    }

    #[test]
    fn session_warm_l2_beats_cold() {
        let idx = index(5000, &CuartConfig::for_tests());
        let dev = cuart_gpu_sim::devices::rtx3090();
        let mut session = idx.device_session(&dev);
        let keys: Vec<Vec<u8>> = (0..2000u64)
            .map(|i| (i * 2).to_be_bytes().to_vec())
            .collect();
        let (_, cold) = session.lookup_batch(&keys).unwrap();
        let (_, warm) = session.lookup_batch(&keys).unwrap();
        assert!(warm.time_ns <= cold.time_ns);
    }

    #[test]
    fn host_routed_keys_in_session() {
        let mut art = Art::new();
        art.insert(b"ab", 1).unwrap(); // shorter than 3-byte LUT span
        art.insert(&[9u8; 40], 2).unwrap(); // longer than device max
        art.insert(b"device_resident", 3).unwrap();
        let idx = CuartIndex::build(
            &art,
            &CuartConfig {
                lut_span: 3,
                long_key_policy: LongKeyPolicy::CpuRoute,
                multi_layer_nodes: false,
                single_leaf_class: false,
            },
        );
        let dev = cuart_gpu_sim::devices::a100();
        let mut session = idx.device_session(&dev);
        let keys = vec![b"ab".to_vec(), vec![9u8; 40], b"device_resident".to_vec()];
        let (results, _) = session.lookup_batch(&keys).unwrap();
        assert_eq!(results, vec![1, 2, 3]);
        // Host-side update + delete stay coherent.
        let (st, _) = session
            .update_batch(&[(b"ab".to_vec(), 42), (vec![9u8; 40], DELETE)])
            .unwrap();
        assert_eq!(st, vec![status::APPLIED, status::APPLIED]);
        let (results, _) = session.lookup_batch(&keys).unwrap();
        assert_eq!(results, vec![42, NOT_FOUND, 3]);
    }

    #[test]
    fn one_shot_device_lookup() {
        let idx = index(50, &CuartConfig::for_tests());
        let dev = cuart_gpu_sim::devices::gtx1070();
        let keys: Vec<Vec<u8>> = (0..50u64).map(|i| (i * 2).to_be_bytes().to_vec()).collect();
        let (results, _) = idx.lookup_batch_device(&dev, &keys, 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i as u64);
        }
        // An over-stride key and an empty key miss in place; every hit
        // around them keeps its answer.
        let mut mixed = keys.clone();
        mixed.insert(3, vec![0; 9]);
        mixed.insert(7, Vec::new());
        let mut expected: Vec<u64> = (0..50).collect();
        expected.insert(3, NOT_FOUND);
        expected.insert(7, NOT_FOUND);
        assert_eq!(idx.lookup_batch_device(&dev, &mixed, 8).0, expected);
        // No key fits: all misses and no launch.
        let (misses, report) = idx.lookup_batch_device(&dev, &[vec![1; 9], vec![2; 12]], 8);
        assert_eq!(misses, [NOT_FOUND; 2]);
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", KernelReport::default())
        );
    }

    #[test]
    fn a_recovered_session_has_a_fresh_sessions_device() {
        let idx = index(1000, &CuartConfig::for_tests());
        let dev = cuart_gpu_sim::devices::rtx3090();
        let keys: Vec<Vec<u8>> = (0..300u64)
            .map(|i| (i * 2).to_be_bytes().to_vec())
            .collect();
        // Every buffer's address and length, in allocation order.
        let layout = |s: &CuartSession<'_>| -> Vec<(u64, usize)> {
            let mem = &s.device.mem;
            let buffer = |id| (mem.buffer(id).base, mem.buffer(id).len());
            mem.buffer_ids().map(buffer).collect()
        };
        let mut fresh = idx.device_session(&dev);
        fresh.lookup_batch(&keys).unwrap();
        // A range and a larger batch grow the device past a fresh one's.
        let mut session = idx.device_session(&dev);
        session
            .range_batch(&[(keys[0].clone(), keys[9].clone())])
            .unwrap();
        session
            .lookup_batch(&[&keys[..], &keys[..]].concat())
            .unwrap();
        session.set_cpu_only(true);
        session.set_cpu_only(false);
        // The next batch recovers first: one rebuild, staging allocated
        // lazily in the same order, so every address repeats.
        session.lookup_batch(&keys).unwrap();
        assert_eq!(session.mode(), Mode::Device);
        assert_eq!(layout(&session), layout(&fresh));
    }

    #[test]
    fn empty_index_session() {
        let idx = CuartIndex::build(&Art::new(), &CuartConfig::for_tests());
        let dev = cuart_gpu_sim::devices::a100();
        let mut session = idx.device_session(&dev);
        let (results, _) = session.lookup_batch(&[b"anything".to_vec()]).unwrap();
        assert_eq!(results[0], NOT_FOUND);
        let (st, _) = session.update_batch(&[(b"anything".to_vec(), 5)]).unwrap();
        assert_eq!(st[0], status::MISS);
    }
}
