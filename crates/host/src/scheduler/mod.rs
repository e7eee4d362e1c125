//! Concurrent batch scheduler with sorted-batch execution and overload
//! protection.
//!
//! The paper's end-to-end numbers assume an *upstream* component that turns
//! a stream of point operations into device-sized batches (§4.1 "batching
//! on the host"). This module is that component: N producer threads submit
//! point lookups / updates / inserts / range queries through a cloneable
//! [`SchedulerClient`]; a single executor thread owns the
//! [`CuartSession`](cuart::CuartSession) and coalesces submissions into
//! device batches.
//!
//! # Flush rule: dispatch when idle
//!
//! The executor is **work-conserving**: it blocks only on an *empty*
//! submission queue. Whenever it is free and anything is queued it drains
//! the queue under one lock acquisition — whole requests, FIFO, until the
//! batch holds [`SchedulerConfig::batch_target`] keys; the rest stays
//! queued for the next batch — and then flushes when
//!
//! * the batch reached the target (**size flush**), or
//! * its oldest operation has waited [`SchedulerConfig::deadline`]
//!   (**deadline flush**), or
//! * the scheduler shuts down with work still queued (**final flush**).
//!
//! `deadline` is a *linger*: the longest an idle executor holds an
//! underfilled batch open hoping for company. It defaults to zero, so an
//! idle device takes whatever is queued immediately (such a flush still
//! counts as a deadline flush). Batches grow by themselves under load:
//! requests queue while the previous batch runs, and the next drain takes
//! them all. A positive linger trades latency for fill, as the paper's
//! pipelined host threads never need to — nothing there sleeps on a timer
//! while work is queued.
//!
//! Before dispatch the batch keys are **sorted** (stable, via
//! [`RunOrder`](cuart::keys::RunOrder)) so that adjacent kernel lanes traverse neighboring
//! tree paths — the coalescing win §3.1 argues for — and each answer is
//! put back in its request's submission order on return. Stability
//! preserves last-write-wins semantics for duplicate update keys. The sort
//! is a permutation over the requests' [`KeyBatch`]es where they lie: it
//! reads each key's 8-byte prefix in one sequential pass over the stores,
//! compares prefixes and reads a full key only on a tie; its scratch lives
//! as long as the executor. No key is moved or copied before the session
//! stages it.
//!
//! Cross-kind ordering is preserved: the pending queue is FIFO over whole
//! requests, and a flush executes it as maximal same-kind *head runs* (all
//! leading lookups as one batch, then the following updates as one batch,
//! …), so an update submitted before a lookup by the same producer is
//! applied before that lookup executes.
//!
//! # Submit and wait
//!
//! [`SchedulerClient::submit`] is the one entry, for a lone scheduler and
//! a [`ShardedScheduler`](crate::sharded::ShardedScheduler) fleet alike:
//! it admits a [`SchedOp`] (admission control applies here) with an
//! optional latency budget and returns a [`Ticket`] without waiting for
//! the batch; [`Ticket::wait`] yields the [`SchedAnswer`]. A client over
//! one queue queues the op whole; over several it splits the op by shard
//! and merges the shares on wait (the `client` module). The blocking
//! `lookup` / `update` / `insert` / `range` calls are submit + wait with
//! no budget. A caller that holds several tickets — a connection's reader
//! thread — has several requests in flight from one thread.
//!
//! The op travels intact: the queued request holds the [`SchedOp`] it was
//! submitted with. The executor hands a point run to the session as a
//! [`SortedRun`](cuart::keys::SortedRun) over the requests' own key
//! batches, and a range run as the concatenation of its requests' lists
//! (moves) — one `execute_run` for all four kinds. A run's key batches are
//! freed once every request in it is answered, one buffer per request.
//!
//! The module's parts: `client` (the client and its tickets), `queue`
//! (the bounded submission queue, admission and the coalescing batch),
//! `executor` (the executor thread and its span trees) and `breaker`
//! (the circuit breaker's state machine).
//!
//! # Overload protection
//!
//! The scheduler is safe to overload — it rejects or sheds, never balloons
//! or hangs:
//!
//! * **Bounded admission** — [`SchedulerConfig::queue_cap`] bounds the
//!   *resident* operation count (queued **plus** coalesced-but-undispatched),
//!   so backlog memory is capped by construction. A full queue treats
//!   producers per [`AdmissionPolicy`]: `Block` (backpressure),
//!   `BlockWithTimeout` ([`SchedError::AdmissionTimeout`]) or `Reject`
//!   ([`SchedError::QueueFull`]).
//! * **Deadline shedding** — every request can carry a latency budget
//!   (the `budget` of [`SchedulerClient::submit`], or the
//!   [`SchedulerConfig::op_deadline`] default). Expired requests are shed
//!   at coalesce time — before sorting and dispatch — and answered with
//!   [`SchedError::DeadlineExceeded`], so one slow batch cannot cascade
//!   into queue-wide lateness.
//! * **Circuit breaker** — sustained device faults trip the executor from
//!   `Closed` to `Open`: the session is pinned to the authoritative CPU
//!   path (PR-2 degradation, but held at the scheduler level so there are
//!   no per-batch retry storms or recovery probes). After
//!   [`BreakerConfig::open_cooldown`] the breaker goes
//!   `HalfOpen` and lets probe batches touch the device again; clean probes
//!   close it, a faulty probe re-trips it. Transitions emit
//!   `breaker_open`/`breaker_half_open`/`breaker_closed` transition events, the
//!   `cuart.sched.breaker_state` gauge (0 = Closed, 1 = HalfOpen,
//!   2 = Open) and the `cuart.sched.{breaker_trips,probe_batches}`
//!   counters.
//!
//! # Time
//!
//! The host clock is read at three boundaries only: when a request is
//! submitted (its enqueue instant and deadline), when the executor wakes,
//! and when a run ends. Every timing rule — the linger, the shed pass, the
//! breaker's cooldown — is a function of the instant its caller passes,
//! and admission waits on the policy's duration itself, so each rule can
//! be tested at exact instants.
//!
//! Everything here is `std`-only: a `Mutex` + two `Condvar`s for the
//! bounded submission queue, one more pair per request for its reply,
//! `std::thread` for the executor.

mod breaker;
mod client;
mod executor;
mod queue;

pub use breaker::BreakerConfig;
pub(crate) use client::Route;
pub use client::{SchedulerClient, Ticket};

use cuart::{CuartError, CuartIndex, KeyBatch};
use cuart_gpu_sim::exec::KernelReport;
use cuart_gpu_sim::{DeviceConfig, FaultInjector};
use cuart_telemetry::{names, CounterHandle, GaugeHandle, HistogramHandle, Telemetry};
use queue::SubmissionQueue;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a producer experiences when the bounded submission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block until the executor drains enough resident ops (backpressure).
    #[default]
    Block,
    /// Block at most this long, then fail the call with
    /// [`SchedError::AdmissionTimeout`].
    BlockWithTimeout(Duration),
    /// Fail immediately with [`SchedError::QueueFull`].
    Reject,
}

/// How the executor should form device batches.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Flush as soon as this many keys are coalesced (size flush). One
    /// drain stops at the first request boundary at or past the target, so
    /// the batch handed to the session may exceed it by at most one
    /// request's worth of keys.
    pub batch_target: usize,
    /// The linger: the longest an *idle* executor holds an underfilled
    /// batch open before flushing it (deadline flush). Zero — the default
    /// — dispatches whatever is queued as soon as the executor is free.
    pub deadline: Duration,
    /// Optional fault injector attached to the executor's session at open
    /// time (so the journal covers the whole scheduler lifetime).
    pub fault_injector: Option<FaultInjector>,
    /// Maximum *resident* operations — queued plus coalesced but not yet
    /// dispatched or shed. `0` means unbounded (the pre-overload-protection
    /// behavior). A single request larger than the cap can never be
    /// admitted and fails with [`SchedError::QueueFull`] under every
    /// policy.
    pub queue_cap: usize,
    /// What producers experience when the queue is at `queue_cap`.
    pub admission: AdmissionPolicy,
    /// Default per-operation latency budget. Requests still waiting past
    /// their deadline are shed at coalesce time with
    /// [`SchedError::DeadlineExceeded`]. `None` means ops wait forever
    /// (per-request deadlines still apply).
    pub op_deadline: Option<Duration>,
    /// Circuit-breaker configuration (`fault_threshold: 0` never trips).
    /// The scheduler reads the host clock only at three boundaries — a
    /// request's submit, the executor waking and the end of a run — and
    /// the breaker reads none itself: its cooldown runs from the end of
    /// the run that tripped it, and it is checked at each run's dispatch
    /// (the executor's wake-up, or the end of the run before it).
    pub breaker: BreakerConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            batch_target: 32_768,
            deadline: Duration::ZERO,
            fault_injector: None,
            queue_cap: 0,
            admission: AdmissionPolicy::Block,
            op_deadline: None,
            breaker: BreakerConfig::default(),
        }
    }
}

/// A `cuart.sched.*` counter or gauge and, when a shard index is
/// configured, its `cuart.sched.shard.<i>.*` twin: every write lands on
/// both.
struct Twin<H> {
    global: H,
    shard: Option<H>,
}

impl<H> Twin<H> {
    fn new(global: &'static str, shard: Option<usize>, resolve: impl Fn(&str) -> H) -> Twin<H> {
        Twin {
            global: resolve(global),
            shard: shard.map(|i| resolve(&names::sched_shard(i, global))),
        }
    }
}

impl Twin<CounterHandle> {
    fn incr(&self, n: u64) {
        self.global.incr(n);
        if let Some(c) = &self.shard {
            c.incr(n);
        }
    }
}

impl Twin<GaugeHandle> {
    fn set(&self, v: f64) {
        self.global.set(v);
        if let Some(g) = &self.shard {
            g.set(v);
        }
    }
}

/// The scheduler's telemetry: the registry and every series its queue
/// and executor write, resolved once at [`Scheduler::spawn`] — a shard's
/// twin names included — so no bump resolves or formats a name.
/// Histograms, transition events and span trees stay global-only to bound
/// series cardinality.
struct SchedTelemetry {
    registry: Arc<Telemetry>,
    enqueued: Twin<CounterHandle>,
    batches: Twin<CounterHandle>,
    sorted_batches: Twin<CounterHandle>,
    probe_batches: Twin<CounterHandle>,
    size_flushes: Twin<CounterHandle>,
    deadline_flushes: Twin<CounterHandle>,
    shed: Twin<CounterHandle>,
    rejected: Twin<CounterHandle>,
    breaker_trips: Twin<CounterHandle>,
    queue_depth: Twin<GaugeHandle>,
    breaker_state: Twin<GaugeHandle>,
    batch_fill: HistogramHandle,
    queue_latency_ns: HistogramHandle,
}

impl SchedTelemetry {
    fn new(t: &Arc<Telemetry>, shard: Option<usize>) -> SchedTelemetry {
        let counter = |name| Twin::new(name, shard, |n| t.counter(n));
        let gauge = |name| Twin::new(name, shard, |n| t.gauge(n));
        SchedTelemetry {
            registry: Arc::clone(t),
            enqueued: counter(names::SCHED_ENQUEUED),
            batches: counter(names::SCHED_BATCHES),
            sorted_batches: counter(names::SCHED_SORTED_BATCHES),
            probe_batches: counter(names::SCHED_PROBE_BATCHES),
            size_flushes: counter(names::SCHED_SIZE_FLUSHES),
            deadline_flushes: counter(names::SCHED_DEADLINE_FLUSHES),
            shed: counter(names::SCHED_SHED),
            rejected: counter(names::SCHED_REJECTED),
            breaker_trips: counter(names::SCHED_BREAKER_TRIPS),
            queue_depth: gauge(names::SCHED_QUEUE_DEPTH),
            breaker_state: gauge(names::SCHED_BREAKER_STATE),
            batch_fill: t.histogram(names::SCHED_BATCH_FILL),
            queue_latency_ns: t.histogram(names::SCHED_QUEUE_LATENCY_NS),
        }
    }
}

/// Why a submission could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The executor thread is gone (it panicked, or died without a clean
    /// shutdown) and this request will never be answered.
    Disconnected,
    /// The scheduler was shut down (via [`Scheduler::join`] or `Drop`)
    /// before this request was admitted. Clean and expected during
    /// teardown races.
    Shutdown,
    /// The bounded queue was full and the admission policy was
    /// [`AdmissionPolicy::Reject`] (or the request alone exceeds the cap).
    QueueFull,
    /// The bounded queue stayed full past the
    /// [`AdmissionPolicy::BlockWithTimeout`] budget.
    AdmissionTimeout,
    /// The operation's latency budget expired while it waited for
    /// coalescing; it was shed before dispatch.
    DeadlineExceeded,
    /// The executor thread panicked; carries the panic payload.
    ExecutorPanicked(String),
    /// The session failed the batch with a non-transient error. Carries
    /// the rendered [`CuartError`].
    Session(String),
    /// A [`ShardedScheduler`](crate::sharded::ShardedScheduler) was asked
    /// to spawn over an empty device list.
    NoShards,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Disconnected => write!(f, "scheduler disconnected"),
            SchedError::Shutdown => write!(f, "scheduler shut down"),
            SchedError::QueueFull => write!(f, "submission queue full"),
            SchedError::AdmissionTimeout => write!(f, "admission timed out"),
            SchedError::DeadlineExceeded => write!(f, "operation deadline exceeded"),
            SchedError::ExecutorPanicked(m) => write!(f, "executor panicked: {m}"),
            SchedError::Session(e) => write!(f, "session error: {e}"),
            SchedError::NoShards => write!(f, "sharded scheduler needs at least one device"),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<&CuartError> for SchedError {
    fn from(e: &CuartError) -> Self {
        SchedError::Session(e.to_string())
    }
}

/// The rows of one inclusive range query: `(key, value)` pairs sorted by
/// key.
pub type RangeRows = Vec<(Vec<u8>, u64)>;

/// One request: a slice of same-kind operations from one caller.
///
/// Point keys travel as one [`KeyBatch`] — on the wire path, the decoded
/// frame's payload itself — with update and insert values beside it, one
/// per key. The batch moves through the router, the queue and the
/// executor unchanged; the executor sorts a permutation over it, and the
/// session stages each key straight from its store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedOp {
    /// Point lookups; answered with one value per key
    /// ([`NOT_FOUND`](cuart_gpu_sim::batch::NOT_FOUND) for absent keys).
    Lookup(KeyBatch),
    /// Point updates, one value per key (`DELETE` as the value deletes);
    /// answered with one status per op (see
    /// [`status`](cuart::update::status)).
    Update(KeyBatch, Vec<u64>),
    /// Point inserts, one value per key; answered with one status per op
    /// (see [`insert_status`](cuart::insert::insert_status)).
    Insert(KeyBatch, Vec<u64>),
    /// Inclusive `[lo, hi]` range queries; answered with one sorted row
    /// list per pair (see
    /// [`CuartSession::range_batch`](cuart::CuartSession::range_batch)).
    /// Inverted or empty ranges return empty row lists. Each range counts
    /// as one resident op for admission purposes.
    Range(Vec<(Vec<u8>, Vec<u8>)>),
}

/// The kind of a [`SchedOp`]: a run is one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Lookup,
    Update,
    Insert,
    Range,
}

impl SchedOp {
    /// Point lookups of `keys`, copied into one [`KeyBatch`].
    pub fn lookups(keys: &[Vec<u8>]) -> SchedOp {
        SchedOp::Lookup(KeyBatch::from_keys(keys.iter()))
    }

    /// Point updates of `ops`' keys to their values.
    pub fn updates(ops: &[(Vec<u8>, u64)]) -> SchedOp {
        let (keys, values) = split_ops(ops);
        SchedOp::Update(keys, values)
    }

    /// Point inserts of `ops`' keys with their values.
    pub fn inserts(ops: &[(Vec<u8>, u64)]) -> SchedOp {
        let (keys, values) = split_ops(ops);
        SchedOp::Insert(keys, values)
    }

    /// Number of ops in the request.
    pub fn len(&self) -> usize {
        match self {
            SchedOp::Lookup(keys) | SchedOp::Update(keys, _) | SchedOp::Insert(keys, _) => {
                keys.len()
            }
            SchedOp::Range(ranges) => ranges.len(),
        }
    }

    /// Whether the request holds no op.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn kind(&self) -> OpKind {
        match self {
            SchedOp::Lookup(_) => OpKind::Lookup,
            SchedOp::Update(..) => OpKind::Update,
            SchedOp::Insert(..) => OpKind::Insert,
            SchedOp::Range(_) => OpKind::Range,
        }
    }

    /// A write request whose values do not pair up with its keys, refused
    /// at submission.
    fn unpaired(&self) -> Option<SchedError> {
        match self {
            SchedOp::Update(keys, values) | SchedOp::Insert(keys, values)
                if keys.len() != values.len() =>
            {
                Some(SchedError::Session(format!(
                    "{} keys but {} values",
                    keys.len(),
                    values.len()
                )))
            }
            _ => None,
        }
    }

    /// The answer to a request with no ops.
    fn empty_answer(&self) -> SchedAnswer {
        match self {
            SchedOp::Range(_) => SchedAnswer::Rows(Vec::new()),
            _ => SchedAnswer::Values(Vec::new()),
        }
    }
}

/// The keys of `ops` in one [`KeyBatch`], and their values beside it.
fn split_ops(ops: &[(Vec<u8>, u64)]) -> (KeyBatch, Vec<u64>) {
    let keys = KeyBatch::from_keys(ops.iter().map(|(k, _)| k));
    (keys, ops.iter().map(|&(_, v)| v).collect())
}

/// What a served request comes back with, in the caller's submission
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedAnswer {
    /// One `u64` per point op.
    Values(Vec<u64>),
    /// One row list per range.
    Rows(Vec<RangeRows>),
}

impl SchedAnswer {
    /// The per-op values of a point request.
    pub fn into_values(self) -> Result<Vec<u64>, SchedError> {
        match self {
            SchedAnswer::Values(v) => Ok(v),
            SchedAnswer::Rows(_) => Err(SchedError::Session(
                "range rows answered a point request".into(),
            )),
        }
    }

    /// The per-range row lists of a range request.
    pub fn into_rows(self) -> Result<Vec<RangeRows>, SchedError> {
        match self {
            SchedAnswer::Rows(r) => Ok(r),
            SchedAnswer::Values(_) => Err(SchedError::Session(
                "point values answered a range request".into(),
            )),
        }
    }
}

type Outcome = Result<SchedAnswer, SchedError>;

/// Counters and model totals accumulated by the executor thread, returned
/// by [`Scheduler::join`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulerStats {
    /// Point operations accepted from clients.
    pub ops_enqueued: u64,
    /// Client calls (requests) answered — served, failed or shed.
    pub requests: u64,
    /// Device batches dispatched to the session.
    pub batches: u64,
    /// Batches dispatched sorted (the locality path).
    pub sorted_batches: u64,
    /// Flushes triggered by reaching the size target.
    pub size_flushes: u64,
    /// Flushes triggered by the oldest op hitting the batch deadline.
    pub deadline_flushes: u64,
    /// Flushes triggered by shutdown with work still queued.
    pub final_flushes: u64,
    /// Keys handed to the session across all batches.
    pub keys_dispatched: u64,
    /// Largest key backlog observed at any flush.
    pub max_queue_depth: u64,
    /// Modeled kernel time across all batches, nanoseconds.
    pub kernel_time_ns: f64,
    /// L2 hits across all batches.
    pub l2_hits: u64,
    /// L2 sector accesses across all batches.
    pub sectors: u64,
    /// DRAM transactions across all batches.
    pub dram_transactions: u64,
    /// Raw per-lane accesses across all batches (pre-coalescing).
    pub raw_accesses: u64,
    /// Batches that failed with a session error.
    pub failed_batches: u64,
    /// Ops shed at coalesce time with [`SchedError::DeadlineExceeded`].
    pub shed_ops: u64,
    /// Ops refused at admission with [`SchedError::QueueFull`].
    pub rejected_ops: u64,
    /// Ops refused with [`SchedError::AdmissionTimeout`].
    pub admission_timeout_ops: u64,
    /// Largest resident-op count ever observed (≤ `queue_cap` when set).
    pub max_resident_ops: u64,
    /// Circuit-breaker trips (`Closed`/`HalfOpen` → `Open`).
    pub breaker_trips: u64,
    /// Half-open probe batches dispatched to the device.
    pub probe_batches: u64,
    /// Batches served wholly from the CPU path while the breaker was open.
    pub breaker_open_batches: u64,
}

impl SchedulerStats {
    /// Mean keys per dispatched batch (0 when no batch ran).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.keys_dispatched as f64 / self.batches as f64
        }
    }

    /// Aggregate L2 hit rate across all batches (1.0 with no traffic).
    pub fn l2_hit_rate(&self) -> f64 {
        if self.sectors == 0 {
            1.0
        } else {
            self.l2_hits as f64 / self.sectors as f64
        }
    }

    /// Modeled served time on `dev`: kernel time plus one launch overhead
    /// per dispatched batch. The one rule every served-throughput figure
    /// divides by.
    pub fn modeled_time_ns(&self, dev: &DeviceConfig) -> f64 {
        self.kernel_time_ns + self.batches as f64 * dev.launch_overhead_us * 1_000.0
    }

    fn absorb_report(&mut self, keys: usize, report: &KernelReport) {
        self.batches = self.batches.saturating_add(1);
        self.keys_dispatched = self.keys_dispatched.saturating_add(keys as u64);
        self.kernel_time_ns += report.time_ns;
        self.l2_hits = self.l2_hits.saturating_add(report.l2_hits);
        self.sectors = self.sectors.saturating_add(report.sectors);
        self.dram_transactions = self
            .dram_transactions
            .saturating_add(report.dram_transactions);
        self.raw_accesses = self.raw_accesses.saturating_add(report.raw_accesses);
    }
}

/// Owning handle for the executor thread. Dropping it shuts the executor
/// down; [`join`](Scheduler::join) does the same and returns the stats.
pub struct Scheduler {
    queue: Arc<SubmissionQueue>,
    /// The device the executor's session runs on.
    pub(crate) device: DeviceConfig,
    cfg_admission: AdmissionPolicy,
    cfg_op_deadline: Option<Duration>,
    handle: Option<JoinHandle<SchedulerStats>>,
}

impl Scheduler {
    /// Spawn the executor thread. It opens a
    /// [`device_session`](CuartIndex::device_session) on `index` (attaching
    /// `cfg.fault_injector` if present, so the journal covers the session's
    /// whole life) and serves batches until [`join`](Scheduler::join) or
    /// `Drop` shuts it down.
    pub fn spawn(index: Arc<CuartIndex>, dev: DeviceConfig, cfg: SchedulerConfig) -> Scheduler {
        Scheduler::spawn_shard(index, dev, cfg, None)
    }

    /// [`spawn`](Self::spawn), as shard `shard` of a
    /// [`ShardedScheduler`](crate::sharded::ShardedScheduler) when `Some`:
    /// every counter and gauge is then mirrored to the
    /// `cuart.sched.shard.<i>.*` twin series (the global `cuart.sched.*`
    /// series are still written, so per-shard twins sum to the global
    /// totals). `None` writes global series only.
    pub(crate) fn spawn_shard(
        index: Arc<CuartIndex>,
        dev: DeviceConfig,
        cfg: SchedulerConfig,
        shard: Option<usize>,
    ) -> Scheduler {
        let telemetry = index.telemetry().map(|t| SchedTelemetry::new(t, shard));
        let queue = SubmissionQueue::new(cfg.queue_cap, telemetry);
        let cfg_admission = cfg.admission;
        let cfg_op_deadline = cfg.op_deadline;
        let exec_queue = Arc::clone(&queue);
        let handle = std::thread::spawn(move || executor::executor(index, dev, cfg, exec_queue));
        Scheduler {
            queue,
            device: dev,
            cfg_admission,
            cfg_op_deadline,
            handle: Some(handle),
        }
    }

    /// A new producer handle. Clients are cheap to clone and `Send`, so
    /// each producer thread can own one. Fails with
    /// [`SchedError::Shutdown`] once the scheduler has been shut down.
    pub fn client(&self) -> Result<SchedulerClient, SchedError> {
        SchedulerClient::over(std::slice::from_ref(self), None)
    }

    /// Shut down: close the queue, wait for the executor to drain it, and
    /// return the accumulated [`SchedulerStats`]. Requests admitted before
    /// the close are served (the queue is FIFO); clients that submit
    /// afterwards get [`SchedError::Shutdown`]. An executor panic surfaces
    /// as [`SchedError::ExecutorPanicked`] instead of zeroed stats.
    pub fn join(mut self) -> Result<SchedulerStats, SchedError> {
        self.queue.close();
        match self.handle.take() {
            Some(h) => match h.join() {
                Ok(mut stats) => {
                    self.fold_queue_stats(&mut stats);
                    Ok(stats)
                }
                Err(payload) => Err(SchedError::ExecutorPanicked(panic_message(&payload))),
            },
            None => Err(SchedError::Shutdown),
        }
    }

    /// Admission accounting lives producer-side in the queue; fold it
    /// into the executor's stats at join time, when no producer can still
    /// be mid-call.
    fn fold_queue_stats(&self, stats: &mut SchedulerStats) {
        stats.rejected_ops = self.queue.rejected_ops.load(Ordering::Relaxed);
        stats.admission_timeout_ops = self.queue.timeout_ops.load(Ordering::Relaxed);
        stats.max_resident_ops = self.queue.max_resident_ops.load(Ordering::Relaxed);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Render a `JoinHandle::join` panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "executor thread panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::breaker::{Breaker, BreakerState, DispatchMode};
    use super::client::{Reply, SlotState, TicketState};
    use super::queue::{AbortGuard, Drain, Pending, Request};
    use super::*;
    use cuart::{CuartConfig, CuartIndex};
    use cuart_art::Art;
    use cuart_gpu_sim::batch::NOT_FOUND;
    use cuart_gpu_sim::devices;
    use std::time::Instant;

    fn build_index(n: u64) -> Arc<CuartIndex> {
        let mut art = Art::new();
        for i in 0..n {
            art.insert(&i.to_be_bytes(), i * 10).unwrap();
        }
        // Small LUT: every test spawns at least one scheduler, and each
        // spawn opens a device session that uploads the LUT.
        Arc::new(CuartIndex::build(&art, &CuartConfig::for_tests()))
    }

    fn spawn(index: &Arc<CuartIndex>, cfg: SchedulerConfig) -> Scheduler {
        Scheduler::spawn(Arc::clone(index), devices::gtx1070(), cfg)
    }

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn single_client_lookup_roundtrip() {
        let index = build_index(256);
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        let keys: Vec<Vec<u8>> = (0..64u64).map(key).collect();
        let results = client.lookup(keys).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i as u64 * 10);
        }
        assert_eq!(client.lookup_one(key(9999)), Ok(NOT_FOUND));
        drop(client);
        let stats = sched.join().unwrap();
        assert_eq!(stats.ops_enqueued, 65);
        assert_eq!(stats.requests, 2);
        assert!(stats.batches >= 1);
        assert_eq!(stats.keys_dispatched, 65);
    }

    #[test]
    fn empty_request_answers_without_executor_roundtrip() {
        let index = build_index(8);
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        assert_eq!(client.lookup(Vec::new()), Ok(Vec::new()));
        assert_eq!(client.range(Vec::new()), Ok(Vec::new()));
        drop(client);
        assert_eq!(sched.join().unwrap().requests, 0);
    }

    #[test]
    fn range_roundtrip_matches_host_reference_and_sees_updates() {
        let index = build_index(512);
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        // A device-side mutation before the range: journal shadowing is
        // unconditional in the executor, so the range must see it.
        client.update(vec![(key(20), 777)]).unwrap();
        let rows = client
            .range(vec![
                (key(10), key(25)),
                (key(30), key(30)),
                (key(25), key(10)), // inverted → empty
            ])
            .unwrap();
        assert_eq!(rows.len(), 3);
        let want: Vec<(Vec<u8>, u64)> = (10..=25u64)
            .map(|i| (key(i), if i == 20 { 777 } else { i * 10 }))
            .collect();
        assert_eq!(rows[0], want);
        assert_eq!(rows[1], vec![(key(30), 300)]);
        assert!(rows[2].is_empty());
        drop(client);
        let stats = sched.join().unwrap();
        // 1 update op + 3 range ops went through the queue.
        assert_eq!(stats.ops_enqueued, 4);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn range_with_zero_budget_is_shed() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_millis(50),
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        let ranges = SchedOp::Range(vec![(key(0), key(9))]);
        let got = client.submit(ranges, Some(Duration::ZERO)).wait();
        assert_eq!(got, Err(SchedError::DeadlineExceeded));
        drop(client);
        let stats = sched.join().unwrap();
        assert_eq!(stats.shed_ops, 1);
    }

    /// A queued request of `n` lookup keys tagged `tag`, shed at
    /// `deadline`, and its ticket.
    fn request(tag: u8, n: usize, deadline: Option<Instant>) -> (Request, Ticket) {
        let (reply, slot) = Reply::new();
        let req = Request {
            op: SchedOp::lookups(&vec![vec![tag]; n]),
            reply,
            enqueued: Instant::now(),
            deadline,
        };
        (req, Ticket(TicketState::Queued(slot)))
    }

    /// Whether `ticket` has its answer, without waiting for it.
    fn answered(ticket: &Ticket) -> bool {
        match &ticket.0 {
            TicketState::Ready(_) => true,
            TicketState::Queued(slot) => !matches!(*slot.state.lock().unwrap(), SlotState::Waiting),
            TicketState::Routed(_) => panic!("one queue, no routing"),
        }
    }

    /// The tags of a batch's requests, in order.
    fn tags(batch: &Pending) -> Vec<u8> {
        let tag = |r: &Request| match &r.op {
            SchedOp::Lookup(keys) => keys.key(0)[0],
            other => panic!("lookups were queued, got {other:?}"),
        };
        batch.reqs.iter().map(tag).collect()
    }

    #[test]
    fn drain_is_fifo_and_stops_at_the_target_on_a_request_boundary() {
        let queue = SubmissionQueue::new(0, None);
        let mut tickets = Vec::new();
        for tag in 0..4u8 {
            let (req, answer) = request(tag, 4, None);
            queue.push(req, AdmissionPolicy::Block).unwrap();
            tickets.push(answer);
        }
        // Target 6: the second whole request crosses it (8 keys); the
        // other two stay queued, in order, for the next batch.
        let mut batch = Pending::default();
        assert_eq!(queue.drain_into(&mut batch, 6, None), Drain::Took);
        assert_eq!((tags(&batch), batch.keys), (vec![0, 1], 8));
        let mut next = Pending::default();
        assert_eq!(queue.drain_into(&mut next, 100, None), Drain::Took);
        assert_eq!((tags(&next), next.keys), (vec![2, 3], 8));
        // Empty: a zero timeout times out, a close ends it.
        assert_eq!(
            queue.drain_into(&mut next, 100, Some(Duration::ZERO)),
            Drain::TimedOut
        );
        queue.close();
        assert_eq!(queue.drain_into(&mut next, 100, None), Drain::Closed);
    }

    #[test]
    fn shed_takes_deadlines_up_to_now_and_keeps_later_ones() {
        let now = Instant::now();
        let ns = Duration::from_nanos(1);
        let mut pending = Pending::default();
        let mut answers = Vec::new();
        for (tag, deadline) in (0..).zip([Some(now), Some(now + ns), None, Some(now + 2 * ns)]) {
            let (req, answer) = request(tag, 2, deadline);
            pending.push(req);
            answers.push(answer);
        }
        assert_eq!(pending.earliest_deadline, Some(now));
        assert_eq!(pending.shed(now - ns), (0, 0));
        // A deadline equal to `now` is shed, one at `now + 1 ns` is kept,
        // and the earliest deadline is recomputed over the survivors.
        assert_eq!(pending.shed(now), (2, 1));
        assert!(!answers.iter().skip(1).any(answered));
        assert_eq!(
            answers.swap_remove(0).wait(),
            Err(SchedError::DeadlineExceeded)
        );
        assert_eq!((tags(&pending), pending.keys), (vec![1, 2, 3], 6));
        assert_eq!(pending.earliest_deadline, Some(now + ns));
    }

    #[test]
    fn admission_refuses_a_full_queue_at_once_and_a_closed_one_with_shutdown() {
        let queue = SubmissionQueue::new(4, None);
        let push = |tag, policy| queue.push(request(tag, 1, None).0, policy);
        let zero = AdmissionPolicy::BlockWithTimeout(Duration::ZERO);
        queue
            .push(request(0, 4, None).0, AdmissionPolicy::Block)
            .unwrap();
        assert_eq!(push(1, zero), Err(SchedError::AdmissionTimeout));
        assert_eq!(push(2, AdmissionPolicy::Reject), Err(SchedError::QueueFull));
        assert_eq!(queue.timeout_ops.load(Ordering::Relaxed), 1);
        assert_eq!(queue.rejected_ops.load(Ordering::Relaxed), 1);
        // Released slots admit again, with no wait.
        queue.release(4);
        assert_eq!(push(3, zero), Ok(()));
        queue.close();
        for policy in [AdmissionPolicy::Block, zero, AdmissionPolicy::Reject] {
            assert_eq!(push(4, policy), Err(SchedError::Shutdown));
        }
    }

    #[test]
    fn breaker_walks_its_table_at_exact_instants() {
        use BreakerState::{Closed, HalfOpen, Open};
        let ns = Duration::from_nanos(1);
        let cooldown = Duration::from_millis(10);
        let cfg = BreakerConfig {
            fault_threshold: 2,
            open_cooldown: cooldown,
            probe_batches: 2,
        };
        let mut b = Breaker::new(cfg.clone());
        let t0 = Instant::now();
        // Closed: a clean batch resets the fault count; two faults in a
        // row trip it, open until the cooldown from the second one's end.
        assert_eq!(b.before(t0), (DispatchMode::Normal, None));
        assert_eq!(b.after(t0, true), None);
        assert_eq!(b.after(t0, false), None);
        assert_eq!((b.after(t0, true), b.state), (None, Closed { faults: 1 }));
        let until = t0 + 5 * ns + cooldown;
        assert_eq!(b.after(t0 + 5 * ns, true), Some(Open { until }));
        // Open → HalfOpen: CPU-only until `until`, a probe from then on.
        let probe = (DispatchMode::Probe, Some(HalfOpen { clean: 0 }));
        assert_eq!(b.before(until - ns), (DispatchMode::CpuOnly, None));
        assert_eq!(b.before(until), probe);
        // HalfOpen → Open: a faulty probe re-trips with a new cooldown.
        let until = until + 3 * ns + cooldown;
        assert_eq!(b.after(until - cooldown, true), Some(Open { until }));
        assert_eq!(b.before(until - ns), (DispatchMode::CpuOnly, None));
        assert_eq!(b.before(until), probe);
        // HalfOpen → Closed after exactly `probe_batches` clean probes.
        assert_eq!(b.after(until, false), None);
        assert_eq!(b.before(until), (DispatchMode::Probe, None));
        assert_eq!(b.after(until, false), Some(Closed { faults: 0 }));
        assert_eq!(b.before(until), (DispatchMode::Normal, None));
        // `fault_threshold: 0` never trips: 100 faults in a row, then
        // faults and clean batches interleaved.
        let mut b = Breaker::new(BreakerConfig {
            fault_threshold: 0,
            ..cfg
        });
        for i in 0..300u64 {
            let at = t0 + Duration::from_millis(i);
            assert_eq!(b.before(at), (DispatchMode::Normal, None), "batch {i}");
            let faulty = i < 100 || (i * 7_919) % 3 != 0;
            assert_eq!(b.after(at, faulty), None, "batch {i}");
        }
    }

    #[test]
    fn default_config_dispatches_each_sequential_request_as_its_own_batch() {
        let index = build_index(64);
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        // Each call returns before the next is submitted, so the idle
        // executor never finds two requests queued: N requests, N batches,
        // none of them held open.
        for i in 0..10u64 {
            assert_eq!(client.lookup(vec![key(i), key(i + 1)]).unwrap().len(), 2);
        }
        drop(client);
        let stats = sched.join().unwrap();
        assert_eq!(stats.batches, 10);
        assert_eq!(stats.deadline_flushes, 10, "zero linger: {stats:?}");
        assert_eq!(stats.size_flushes + stats.final_flushes, 0);
    }

    #[test]
    fn a_lingering_executor_coalesces_two_tickets_into_one_batch() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 8,
            deadline: Duration::from_secs(3600), // holds the first ticket open
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        // Submit both before waiting on either: whenever the executor
        // picks up the first, it lingers until the second fills the batch.
        let first = client.submit(SchedOp::Lookup(KeyBatch::from_keys((0..4).map(key))), None);
        let second = client.submit(SchedOp::Lookup(KeyBatch::from_keys((4..8).map(key))), None);
        assert_eq!(
            first.wait().unwrap(),
            SchedAnswer::Values((0..4).map(|i| i * 10).collect())
        );
        assert_eq!(
            second.wait().unwrap(),
            SchedAnswer::Values((4..8).map(|i| i * 10).collect())
        );
        drop(client);
        let stats = sched.join().unwrap();
        assert_eq!((stats.batches, stats.size_flushes), (1, 1), "{stats:?}");
        assert_eq!(stats.keys_dispatched, 8);
    }

    #[test]
    fn a_ticket_on_a_dead_executor_is_disconnected_not_hung() {
        let queue = SubmissionQueue::new(0, None);
        let client = SchedulerClient {
            queues: vec![Arc::clone(&queue)],
            router: cuart::ShardRouter::new(1),
            admission: AdmissionPolicy::Block,
            default_deadline: None,
            route: None,
        };
        let ticket = client.submit(SchedOp::lookups(&[key(1)]), None);
        // The executor's frame unwinding — here by panic — runs the guard.
        let guard = AbortGuard(Arc::clone(&queue));
        let died = std::thread::spawn(move || {
            let _guard = guard;
            panic!("executor died (expected by this test)");
        });
        assert!(died.join().is_err());
        assert_eq!(ticket.wait(), Err(SchedError::Disconnected));
        assert_eq!(client.lookup(vec![key(1)]), Err(SchedError::Shutdown));
    }

    #[test]
    fn size_flush_triggers_at_target() {
        let index = build_index(512);
        let cfg = SchedulerConfig {
            batch_target: 32,
            deadline: Duration::from_secs(3600), // never
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        // Two producers, each submitting 32 keys: both requests can only
        // complete via size flushes (the deadline is an hour away).
        let mut handles = Vec::new();
        for p in 0..2u64 {
            let client = sched.client().unwrap();
            handles.push(std::thread::spawn(move || {
                let keys: Vec<Vec<u8>> = (p * 32..p * 32 + 32).map(key).collect();
                client.lookup(keys).unwrap()
            }));
        }
        for (p, h) in handles.into_iter().enumerate() {
            let results = h.join().unwrap();
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r, (p as u64 * 32 + i as u64) * 10);
            }
        }
        let stats = sched.join().unwrap();
        assert!(stats.size_flushes >= 1, "expected a size flush: {stats:?}");
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(stats.keys_dispatched, 64);
    }

    #[test]
    fn deadline_flush_serves_underfilled_batches() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000, // size target unreachable
            deadline: Duration::from_millis(2),
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        let r = client.lookup_one(key(7)).unwrap();
        assert_eq!(r, 70);
        drop(client);
        let stats = sched.join().unwrap();
        assert!(
            stats.deadline_flushes + stats.final_flushes >= 1,
            "an underfilled batch must flush on deadline or shutdown: {stats:?}"
        );
        assert_eq!(stats.size_flushes, 0);
    }

    #[test]
    fn queue_latency_is_the_wait_from_admission_to_dispatch() {
        let telemetry = Arc::new(Telemetry::new());
        let mut art = Art::new();
        art.insert(&key(7), 70).unwrap();
        let index = Arc::new(
            CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(telemetry.clone()),
        );
        let linger = Duration::from_millis(20);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: linger,
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        let submitted = Instant::now();
        assert_eq!(client.lookup_one(key(7)).unwrap(), 70);
        let answered = submitted.elapsed();
        drop(client);
        sched.join().unwrap();
        let snap = telemetry.snapshot();
        let h = &snap.histograms[names::SCHED_QUEUE_LATENCY_NS];
        // One run, one observation: the linger it sat out, and no more than
        // the caller waited in all.
        assert_eq!(h.count, 1, "{h:?}");
        assert!(h.min >= linger.as_nanos() as u64, "{h:?}");
        assert!(h.max <= answered.as_nanos() as u64, "{h:?} vs {answered:?}");
    }

    #[test]
    fn updates_then_lookups_preserve_order() {
        let index = build_index(128);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_millis(300),
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        // Update then read the same key. FIFO + head-run batching
        // guarantees the update batch executes before the lookup batch
        // even though both wait in the same deadline flush.
        let k = key(42);
        // `submit` admits before it returns: the update is queued ahead
        // of the lookup, and the 300 ms deadline keeps both in one flush.
        let upd = client.submit(SchedOp::updates(&[(k.clone(), 4242)]), None);
        let looked = client.lookup(vec![k]).unwrap();
        let statuses = upd.wait().unwrap().into_values().unwrap();
        assert_eq!(statuses.len(), 1);
        assert_eq!(looked, vec![4242]);
        drop(client);
        let stats = sched.join().unwrap();
        // Two kinds in one flush → at least two batches (head runs).
        assert!(stats.batches >= 2, "head runs split by kind: {stats:?}");
    }

    #[test]
    fn duplicate_update_keys_keep_last_write_wins_when_sorted() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_millis(5),
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        let k = key(5);
        // One request with the same key twice: sorted packing is stable,
        // so the second (later) op must win.
        client
            .update(vec![(k.clone(), 111), (k.clone(), 222)])
            .unwrap();
        assert_eq!(client.lookup_one(k).unwrap(), 222);
        drop(client);
        sched.join().unwrap();
    }

    #[test]
    fn inserts_flow_through_the_scheduler() {
        let index = build_index(64);
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        let k = key(1_000_000);
        assert_eq!(client.lookup_one(k.clone()).unwrap(), NOT_FOUND);
        let statuses = client.insert(vec![(k.clone(), 777)]).unwrap();
        assert_eq!(statuses.len(), 1);
        assert_eq!(client.lookup_one(k).unwrap(), 777);
        drop(client);
        sched.join().unwrap();
    }

    #[test]
    fn write_batch_spans_name_the_claim_table_prefix_they_used() {
        let mut art = Art::new();
        for i in 0..512u64 {
            art.insert(&i.to_be_bytes(), i).unwrap();
        }
        let telemetry = Arc::new(Telemetry::new());
        let index = Arc::new(
            CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(telemetry.clone()),
        );
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        client.lookup((0..100).map(key).collect()).unwrap();
        client
            .update((0..100).map(|i| (key(i), i + 1)).collect())
            .unwrap();
        client.insert(vec![(key(1_000_000), 7)]).unwrap();
        drop(client);
        sched.join().unwrap();
        let snap = telemetry.snapshot();
        let claim_slots = |name: &str| -> Option<String> {
            let root = snap.spans.iter().find(|s| s.parent == 0 && s.name == name);
            let attrs = &root.unwrap_or_else(|| panic!("no {name} tree")).attrs;
            let attr = attrs.iter().find(|(k, _)| k == "claim_slots");
            attr.map(|(_, v)| v.clone())
        };
        // 2 × 100 ops rounds up to 256 slots; one op gets the 64-slot floor;
        // a lookup touches no claim table.
        assert_eq!(claim_slots("sched.batch.update").as_deref(), Some("256"));
        assert_eq!(claim_slots("sched.batch.insert").as_deref(), Some("64"));
        assert_eq!(claim_slots("sched.batch.lookup"), None);
    }

    #[test]
    fn oversized_keys_do_not_poison_a_sorted_batch() {
        let index = build_index(64);
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        // A 300-byte key cannot be packed at any device stride; the
        // session answers NOT_FOUND without panicking, and the short key
        // in the same request still resolves.
        let results = client.lookup(vec![vec![0xAB; 300], key(3)]).unwrap();
        assert_eq!(results, vec![NOT_FOUND, 30]);
        drop(client);
        sched.join().unwrap();
    }

    #[test]
    fn submit_after_join_yields_clean_shutdown() {
        let index = build_index(8);
        let sched = spawn(&index, SchedulerConfig::default());
        let client = sched.client().unwrap();
        sched.join().unwrap();
        assert_eq!(client.lookup_one(vec![1, 2, 3]), Err(SchedError::Shutdown));
    }

    #[test]
    fn multi_producer_results_match_cpu_reference() {
        let index = build_index(1024);
        let cfg = SchedulerConfig {
            batch_target: 256,
            deadline: Duration::from_micros(500),
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let producers = 4;
        let per = 512u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let client = sched.client().unwrap();
            let index = Arc::clone(&index);
            handles.push(std::thread::spawn(move || {
                // Shuffled-ish stride pattern so producers interleave keys.
                let keys: Vec<Vec<u8>> = (0..per)
                    .map(|i| ((i * 37 + p * 13) % 2048).to_be_bytes().to_vec())
                    .collect();
                let expect: Vec<u64> = index
                    .lookup_batch_cpu(&keys)
                    .into_iter()
                    .map(|r| r.unwrap_or(NOT_FOUND))
                    .collect();
                let got = client.lookup(keys).unwrap();
                assert_eq!(got, expect);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = sched.join().unwrap();
        assert_eq!(stats.ops_enqueued, producers * per);
        assert_eq!(stats.keys_dispatched, producers * per);
        assert!(stats.sorted_batches >= 1);
    }

    #[test]
    fn reject_policy_fails_fast_when_queue_is_full() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_secs(3600), // only the final flush serves
            queue_cap: 4,
            admission: AdmissionPolicy::Reject,
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        // Fill the cap (admitted when `submit` returns; held until the
        // final flush)…
        let filler = sched.client().unwrap();
        let fill = filler.submit(
            SchedOp::Lookup(KeyBatch::from_keys((0..4u64).map(key))),
            None,
        );
        // …then a second producer must be refused immediately.
        let client = sched.client().unwrap();
        assert_eq!(client.lookup(vec![key(1)]), Err(SchedError::QueueFull));
        // A single request larger than the whole cap can never be
        // admitted, under any policy.
        assert_eq!(
            client.lookup((0..5u64).map(key).collect()),
            Err(SchedError::QueueFull)
        );
        drop((client, filler));
        let stats = sched.join().unwrap();
        let served = fill.wait().unwrap().into_values().unwrap();
        assert_eq!(served.len(), 4);
        assert_eq!(stats.rejected_ops, 6);
        assert!(stats.max_resident_ops <= 4, "{stats:?}");
    }

    #[test]
    fn block_with_timeout_surfaces_admission_timeout() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_secs(3600), // only the final flush serves
            queue_cap: 4,
            admission: AdmissionPolicy::BlockWithTimeout(Duration::from_millis(10)),
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let filler = sched.client().unwrap();
        let fill = filler.submit(
            SchedOp::Lookup(KeyBatch::from_keys((0..4u64).map(key))),
            None,
        );
        let client = sched.client().unwrap();
        let t0 = Instant::now();
        assert_eq!(
            client.lookup(vec![key(1)]),
            Err(SchedError::AdmissionTimeout)
        );
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "the timeout budget must elapse before failing"
        );
        drop((client, filler));
        let stats = sched.join().unwrap();
        fill.wait().unwrap();
        assert_eq!(stats.admission_timeout_ops, 1);
    }

    #[test]
    fn block_policy_bounds_resident_ops_and_loses_nothing() {
        let index = build_index(256);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_millis(20),
            queue_cap: 8,
            admission: AdmissionPolicy::Block,
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        // 16 ops against a cap of 8: half the producers must block at
        // admission and be admitted after a flush releases their slots.
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let client = sched.client().unwrap();
            handles.push(std::thread::spawn(move || {
                client
                    .lookup((p * 4..p * 4 + 4).map(key).collect())
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().len(), 4);
        }
        let stats = sched.join().unwrap();
        assert_eq!(stats.ops_enqueued, 16);
        assert_eq!(stats.keys_dispatched, 16);
        assert!(
            stats.max_resident_ops <= 8,
            "resident ops must never exceed the cap: {stats:?}"
        );
    }

    #[test]
    fn per_op_deadline_sheds_before_dispatch() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_secs(30), // batch deadline unreachable
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        // The call returns in milliseconds even though the batch deadline
        // is half a minute away: only the op-deadline shed can answer it.
        let budget = Some(Duration::from_millis(5));
        assert_eq!(
            client.submit(SchedOp::lookups(&[key(1)]), budget).wait(),
            Err(SchedError::DeadlineExceeded)
        );
        drop(client);
        let stats = sched.join().unwrap();
        assert_eq!(stats.shed_ops, 1);
        assert_eq!(stats.keys_dispatched, 0);
        assert_eq!(stats.deadline_flushes, 0, "shed, not flushed: {stats:?}");
    }

    #[test]
    fn config_default_deadline_applies_to_plain_calls() {
        let index = build_index(64);
        let cfg = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_millis(500),
            op_deadline: Some(Duration::from_millis(5)),
            ..SchedulerConfig::default()
        };
        let sched = spawn(&index, cfg);
        let client = sched.client().unwrap();
        assert_eq!(
            client.lookup(vec![key(1)]),
            Err(SchedError::DeadlineExceeded)
        );
        drop(client);
        let stats = sched.join().unwrap();
        assert_eq!(stats.shed_ops, 1);
    }

    #[test]
    fn join_close_race_always_resolves_cleanly() {
        // Loom-style repeated interleaving: a producer hammers the
        // scheduler while the main thread joins it. Every call must end
        // in a value or a clean `Shutdown` — never a hang, a panic, or a
        // send-on-closed error.
        let index = build_index(64);
        for round in 0..50 {
            let cfg = SchedulerConfig {
                batch_target: 8,
                deadline: Duration::from_micros(50),
                ..SchedulerConfig::default()
            };
            let sched = spawn(&index, cfg);
            let client = sched.client().unwrap();
            let producer = std::thread::spawn(move || loop {
                match client.lookup_one(key(3)) {
                    Ok(v) => assert_eq!(v, 30),
                    Err(e) => return e,
                }
            });
            // Vary the race window a little each round.
            std::thread::sleep(Duration::from_micros(50 * (round % 7)));
            sched.join().unwrap();
            let err = producer.join().unwrap();
            assert_eq!(err, SchedError::Shutdown, "round {round}");
        }
    }
}
