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
//! [`sort_permutation_by_key`]) so that adjacent kernel lanes traverse neighboring
//! tree paths — the coalescing win §3.1 argues for — and the **inverse
//! permutation** is applied on return so every caller sees results in its
//! own submission order. Stability preserves last-write-wins semantics for
//! duplicate update keys. The sort runs on the executor thread over keys
//! the producers allocated, so it compares cached 8-byte key prefixes and
//! reads a full key only on a tie; the prefix scratch lives as long as the
//! executor.
//!
//! Cross-kind ordering is preserved: the pending queue is FIFO over whole
//! requests, and a flush executes it as maximal same-kind *head runs* (all
//! leading lookups as one batch, then the following updates as one batch,
//! …), so an update submitted before a lookup by the same producer is
//! applied before that lookup executes.
//!
//! # Submit and wait
//!
//! [`SchedulerClient::submit`] is the one entry: it admits a [`SchedOp`]
//! (admission control applies here) with an optional latency budget and
//! returns a [`Ticket`] without waiting for the batch; [`Ticket::wait`]
//! yields the [`SchedAnswer`]. The blocking `lookup` / `update` / `insert`
//! / `range` calls are submit + wait with no budget. A caller that holds
//! several tickets — the sharded router, a connection's reader thread —
//! has several requests in flight from one thread.
//!
//! The op travels intact: the queued request holds the [`SchedOp`] it was
//! submitted with, the executor concatenates a same-kind run by appending
//! payloads (moves), and the session is handed a borrowed slice of the
//! payload the batch already owns — one `execute_run` for all four kinds.
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
//! bounded submission queue, `std::sync::mpsc` for per-request replies,
//! `std::thread` for the executor.

use cuart::{CuartError, CuartIndex};
use cuart_gpu_sim::batch::{scatter_inverse, sort_permutation_by_key, take_permuted, SortScratch};
use cuart_gpu_sim::exec::KernelReport;
use cuart_gpu_sim::{DeviceConfig, FaultInjector};
use cuart_telemetry::{
    names, BatchEvent, BatchKind, CounterHandle, GaugeHandle, HistogramHandle, SpanNode, Telemetry,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Circuit-breaker tuning. The default never trips on a healthy system:
/// it reacts only to injected or real device faults.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive faulty batches (a session error, or any injected fault
    /// during the batch) that trip `Closed` → `Open`. `0` never trips.
    pub fault_threshold: u32,
    /// How long the breaker holds `Open` (CPU-only service) before
    /// letting `HalfOpen` probe batches touch the device again.
    pub open_cooldown: Duration,
    /// Clean probe batches required to close from `HalfOpen`.
    pub probe_batches: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            fault_threshold: 3,
            open_cooldown: Duration::from_millis(10),
            probe_batches: 2,
        }
    }
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
    /// When this scheduler runs as one shard of a
    /// [`ShardedScheduler`](crate::sharded::ShardedScheduler), its shard
    /// index. Every counter and gauge is then mirrored to the
    /// `cuart.sched.shard.<i>.*` twin series (the global `cuart.sched.*`
    /// series are still written, so per-shard twins sum to the global
    /// totals). `None` — the default — writes global series only.
    pub shard: Option<usize>,
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
            shard: None,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedOp {
    /// Point lookups; answered with one value per key
    /// ([`NOT_FOUND`](cuart_gpu_sim::batch::NOT_FOUND) for absent keys).
    Lookup(Vec<Vec<u8>>),
    /// Point updates (`DELETE` as the value deletes); answered with one
    /// status per op (see [`status`](cuart::update::status)).
    Update(Vec<(Vec<u8>, u64)>),
    /// Point inserts; answered with one status per op (see
    /// [`insert_status`](cuart::insert::insert_status)).
    Insert(Vec<(Vec<u8>, u64)>),
    /// Inclusive `[lo, hi]` range queries; answered with one sorted row
    /// list per pair (see
    /// [`CuartSession::range_batch`](cuart::CuartSession::range_batch)).
    /// Inverted or empty ranges return empty row lists. Each range counts
    /// as one resident op for admission purposes.
    Range(Vec<(Vec<u8>, Vec<u8>)>),
}

impl SchedOp {
    /// Number of ops in the request.
    fn len(&self) -> usize {
        match self {
            SchedOp::Lookup(keys) => keys.len(),
            SchedOp::Update(ops) | SchedOp::Insert(ops) => ops.len(),
            SchedOp::Range(ranges) => ranges.len(),
        }
    }

    fn same_kind(&self, other: &SchedOp) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// Move `other`'s ops onto the end of this request. Head runs are
    /// same-kind by construction; a mismatched payload is dropped.
    fn append(&mut self, other: SchedOp) {
        match (self, other) {
            (SchedOp::Lookup(a), SchedOp::Lookup(mut b)) => a.append(&mut b),
            (SchedOp::Update(a), SchedOp::Update(mut b))
            | (SchedOp::Insert(a), SchedOp::Insert(mut b)) => a.append(&mut b),
            (SchedOp::Range(a), SchedOp::Range(mut b)) => a.append(&mut b),
            _ => debug_assert!(false, "a run mixes op kinds"),
        }
    }

    /// Sorted-batch composition for point ops: put them in key order and
    /// return the permutation that did it. The sort is stable, so
    /// duplicate keys keep their submission order and kernel-side "highest
    /// tid wins" still resolves to the latest submitted op. Ranges are
    /// never sorted — each request's `[lo, hi]` pairs keep arrival order,
    /// and rows come back sorted per range by construction.
    fn sort_by_key(&mut self, scratch: &mut SortScratch) -> Option<Vec<usize>> {
        fn sort<T: Default>(
            items: &mut Vec<T>,
            key: impl Fn(&T) -> &[u8],
            scratch: &mut SortScratch,
        ) -> Vec<usize> {
            let perm = sort_permutation_by_key(items, key, scratch);
            *items = take_permuted(items, &perm);
            perm
        }
        match self {
            SchedOp::Lookup(keys) => Some(sort(keys, |k| k, scratch)),
            SchedOp::Update(ops) | SchedOp::Insert(ops) => Some(sort(ops, |op| &op.0, scratch)),
            SchedOp::Range(_) => None,
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

/// A submitted request's claim on its answer. Dropping a ticket abandons
/// the answer, not the request: an admitted request still executes.
#[derive(Debug)]
pub struct Ticket(TicketState);

#[derive(Debug)]
enum TicketState {
    /// Decided at submission: an empty request, or an admission refusal.
    Ready(Outcome),
    /// Admitted; the executor answers on this channel.
    Queued(Receiver<Outcome>),
}

impl Ticket {
    fn ready(outcome: Outcome) -> Ticket {
        Ticket(TicketState::Ready(outcome))
    }

    /// Block until the request's batch has executed (or the request was
    /// shed). A dead executor surfaces as [`SchedError::Disconnected`],
    /// never as a hang.
    pub fn wait(self) -> Result<SchedAnswer, SchedError> {
        match self.0 {
            TicketState::Ready(outcome) => outcome,
            TicketState::Queued(rx) => rx.recv().map_err(|_| SchedError::Disconnected)?,
        }
    }
}

/// One queued submission: the op of one client call, as submitted, plus
/// the channel its answer goes back on.
struct Request {
    op: SchedOp,
    /// Rendezvous with the request's [`Ticket`]: buffer 1, so the
    /// executor's send never blocks, and a dropped sender fails the
    /// ticket's `recv`.
    reply: SyncSender<Outcome>,
    enqueued: Instant,
    /// Shed (with `DeadlineExceeded`) if still undispatched past this.
    deadline: Option<Instant>,
}

/// The batch the executor is coalescing: whole requests in FIFO order.
#[derive(Default)]
struct Pending {
    reqs: VecDeque<Request>,
    keys: usize,
    /// Earliest per-op deadline among `reqs`; `None` when nothing in the
    /// batch can expire, which is what lets the shed pass return at once.
    earliest_deadline: Option<Instant>,
}

impl Pending {
    fn push(&mut self, req: Request) {
        self.keys = self.keys.saturating_add(req.op.len());
        if let Some(d) = req.deadline {
            self.earliest_deadline = Some(self.earliest_deadline.map_or(d, |e| e.min(d)));
        }
        self.reqs.push_back(req);
    }

    /// Answer every request whose deadline is at or before `now` with
    /// `DeadlineExceeded` and drop it from the batch. Returns the shed
    /// `(ops, requests)`. Costs one comparison when nothing in the batch
    /// can have expired.
    fn shed(&mut self, now: Instant) -> (usize, u64) {
        if self.earliest_deadline.is_none_or(|d| d > now) {
            return (0, 0);
        }
        let mut ops = 0usize;
        let mut requests = 0u64;
        let mut earliest: Option<Instant> = None;
        self.reqs.retain(|req| match req.deadline {
            Some(d) if d <= now => {
                ops = ops.saturating_add(req.op.len());
                requests = requests.saturating_add(1);
                let _ = req.reply.send(Err(SchedError::DeadlineExceeded));
                false
            }
            Some(d) => {
                earliest = Some(earliest.map_or(d, |e| e.min(d)));
                true
            }
            None => true,
        });
        self.earliest_deadline = earliest;
        self.keys = self.keys.saturating_sub(ops);
        (ops, requests)
    }

    /// When the oldest request has lingered long enough to flush; `None`
    /// for an empty batch (or a linger too long to represent).
    fn due_at(&self, linger: Duration) -> Option<Instant> {
        self.reqs.front()?.enqueued.checked_add(linger)
    }

    /// When the executor must look at the batch again even if nothing
    /// new arrives: the linger expiry or the first per-op deadline.
    fn wake_at(&self, linger: Duration) -> Option<Instant> {
        self.due_at(linger)
            .into_iter()
            .chain(self.earliest_deadline)
            .min()
    }
}

/// Mutex-guarded state of the bounded submission queue.
struct QueueInner {
    queue: VecDeque<Request>,
    /// Ops admitted but not yet dispatched or shed. This counts the
    /// executor's coalescing buffer too, so the cap bounds the whole
    /// backlog, not just the channel.
    resident_ops: usize,
    /// No new admissions; the executor drains what is left and exits.
    closed: bool,
    /// The executor is gone; queued requests were dropped unanswered.
    aborted: bool,
}

/// Bounded MPSC submission queue with resident-op accounting.
///
/// `push` admits under the configured cap and policy; the executor takes
/// requests with `drain_into` and calls `release` only once ops reach a
/// terminal state (dispatched or shed), so `resident_ops ≤ cap` holds
/// across the whole scheduler, by construction.
struct SubmissionQueue {
    inner: Mutex<QueueInner>,
    /// Producers waiting for resident space.
    admit: Condvar,
    /// The executor waiting for work.
    work: Condvar,
    /// 0 = unbounded.
    cap: usize,
    /// Shared with the executor, which reaches it through the queue.
    telemetry: Option<SchedTelemetry>,
    rejected_ops: AtomicU64,
    timeout_ops: AtomicU64,
    max_resident_ops: AtomicU64,
}

/// Outcome of one executor [`SubmissionQueue::drain_into`].
#[derive(Debug, PartialEq, Eq)]
enum Drain {
    /// At least one request moved into the batch.
    Took,
    /// The timeout passed with the queue still empty.
    TimedOut,
    /// Closed and fully drained: the executor can exit.
    Closed,
}

impl SubmissionQueue {
    fn new(cap: usize, telemetry: Option<SchedTelemetry>) -> Arc<SubmissionQueue> {
        Arc::new(SubmissionQueue {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                resident_ops: 0,
                closed: false,
                aborted: false,
            }),
            admit: Condvar::new(),
            work: Condvar::new(),
            cap,
            telemetry,
            rejected_ops: AtomicU64::new(0),
            timeout_ops: AtomicU64::new(0),
            max_resident_ops: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Count `ops` refused at admission into `counter` (the rejected or
    /// the timed-out ops) and the `cuart.sched.rejected` series.
    fn note_refused(&self, counter: &AtomicU64, ops: usize) {
        counter.fetch_add(ops as u64, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.rejected.incr(ops as u64);
        }
    }

    /// Admit one request under the cap, or fail per `policy`:
    /// `BlockWithTimeout` waits at most its duration for room.
    fn push(&self, req: Request, policy: AdmissionPolicy) -> Result<(), SchedError> {
        let ops = req.op.len();
        if self.cap > 0 && ops > self.cap {
            // Larger than the whole queue: no amount of waiting helps.
            self.note_refused(&self.rejected_ops, ops);
            return Err(SchedError::QueueFull);
        }
        let full = |q: &mut QueueInner| {
            !q.closed && !q.aborted && self.cap > 0 && q.resident_ops + ops > self.cap
        };
        let mut inner = self.lock();
        inner = match policy {
            AdmissionPolicy::Reject => inner,
            AdmissionPolicy::Block => self
                .admit
                .wait_while(inner, full)
                .unwrap_or_else(PoisonError::into_inner),
            AdmissionPolicy::BlockWithTimeout(d) => {
                let waited = self.admit.wait_timeout_while(inner, d, full);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        if inner.closed || inner.aborted {
            return Err(SchedError::Shutdown);
        }
        if full(&mut inner) {
            drop(inner);
            return Err(if policy == AdmissionPolicy::Reject {
                self.note_refused(&self.rejected_ops, ops);
                SchedError::QueueFull
            } else {
                self.note_refused(&self.timeout_ops, ops);
                SchedError::AdmissionTimeout
            });
        }
        inner.resident_ops = inner.resident_ops.saturating_add(ops);
        self.max_resident_ops
            .fetch_max(inner.resident_ops as u64, Ordering::Relaxed);
        inner.queue.push_back(req);
        drop(inner);
        self.work.notify_one();
        Ok(())
    }

    /// Executor-side drain: under one lock acquisition, move whole
    /// requests FIFO into `batch` until it holds `target` keys; whatever
    /// does not fit stays queued for the next batch. Blocks only while the
    /// queue is *empty* — until a request arrives, the optional `timeout`
    /// passes, or the queue is closed.
    fn drain_into(&self, batch: &mut Pending, target: usize, timeout: Option<Duration>) -> Drain {
        let idle = |q: &mut QueueInner| q.queue.is_empty() && !q.closed;
        let inner = self.lock();
        let mut inner = match timeout {
            None => self
                .work
                .wait_while(inner, idle)
                .unwrap_or_else(PoisonError::into_inner),
            Some(t) => {
                let waited = self.work.wait_timeout_while(inner, t, idle);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        if inner.queue.is_empty() {
            return if inner.closed {
                Drain::Closed
            } else {
                Drain::TimedOut
            };
        }
        while batch.keys < target {
            match inner.queue.pop_front() {
                Some(req) => batch.push(req),
                None => break,
            }
        }
        Drain::Took
    }

    /// Ops reached a terminal state (dispatched or shed): free their
    /// resident slots and wake blocked producers.
    fn release(&self, ops: usize) {
        if ops == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.resident_ops = inner.resident_ops.saturating_sub(ops);
        drop(inner);
        self.admit.notify_all();
    }

    /// Stop admissions; the executor drains the remainder and exits.
    fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.work.notify_all();
        self.admit.notify_all();
    }

    /// The executor is gone (exit or panic). Drop whatever is still
    /// queued — each dropped `reply` sender fails its ticket's `recv`
    /// with [`SchedError::Disconnected`] — and wake every waiter.
    fn abort(&self) {
        let orphans: Vec<Request> = {
            let mut inner = self.lock();
            inner.closed = true;
            inner.aborted = true;
            inner.resident_ops = 0;
            inner.queue.drain(..).collect()
        };
        drop(orphans);
        self.work.notify_all();
        self.admit.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Calls [`SubmissionQueue::abort`] when the executor unwinds — panic or
/// normal exit — so producers can never hang on a dead scheduler.
struct AbortGuard(Arc<SubmissionQueue>);

impl Drop for AbortGuard {
    fn drop(&mut self) {
        self.0.abort();
    }
}

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

/// Cloneable producer-side handle. [`submit`](Self::submit) admits a
/// request and returns its [`Ticket`]; the blocking calls are submit +
/// wait and return results in the caller's submission order.
#[derive(Clone)]
pub struct SchedulerClient {
    queue: Arc<SubmissionQueue>,
    admission: AdmissionPolicy,
    default_deadline: Option<Duration>,
}

impl SchedulerClient {
    /// Admit `op` and return without waiting for its batch. Admission
    /// control applies here: under [`AdmissionPolicy::Block`] a full queue
    /// back-pressures this call, and a refusal (`QueueFull`,
    /// `AdmissionTimeout`, `Shutdown`) comes back as a ticket that is
    /// already decided. `budget` is the request's latency budget: still
    /// waiting for coalescing when it expires, the request is shed with
    /// [`SchedError::DeadlineExceeded`]; `None` falls back to
    /// [`SchedulerConfig::op_deadline`]. An empty request is answered
    /// without a trip through the executor.
    pub fn submit(&self, op: SchedOp, budget: Option<Duration>) -> Ticket {
        if op.len() == 0 {
            return Ticket::ready(Ok(op.empty_answer()));
        }
        let now = Instant::now();
        let (reply, answer) = mpsc::sync_channel(1);
        let req = Request {
            op,
            reply,
            enqueued: now,
            deadline: budget.or(self.default_deadline).map(|d| now + d),
        };
        match self.queue.push(req, self.admission) {
            Ok(()) => Ticket(TicketState::Queued(answer)),
            Err(e) => Ticket::ready(Err(e)),
        }
    }

    /// Submit a slice of point lookups; blocks until the batch containing
    /// them executes. Returns one result per key in submission order
    /// ([`NOT_FOUND`](cuart_gpu_sim::batch::NOT_FOUND) for absent keys).
    pub fn lookup(&self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, SchedError> {
        self.submit(SchedOp::Lookup(keys), None)
            .wait()?
            .into_values()
    }

    /// Submit one point lookup.
    pub fn lookup_one(&self, key: Vec<u8>) -> Result<u64, SchedError> {
        Ok(self.lookup(vec![key])?[0])
    }

    /// Submit point updates (`DELETE` as the value deletes). Returns one
    /// status per op (see [`status`](cuart::update::status)).
    pub fn update(&self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, SchedError> {
        self.submit(SchedOp::Update(ops), None)
            .wait()?
            .into_values()
    }

    /// Submit point inserts. Returns one status per op (see
    /// [`insert_status`](cuart::insert::insert_status)).
    pub fn insert(&self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, SchedError> {
        self.submit(SchedOp::Insert(ops), None)
            .wait()?
            .into_values()
    }

    /// Submit inclusive range queries. Returns, per `[lo, hi]` pair and in
    /// submission order, every live `(key, value)` row in the range sorted
    /// by key (see [`SchedOp::Range`]).
    pub fn range(&self, ranges: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Vec<RangeRows>, SchedError> {
        self.submit(SchedOp::Range(ranges), None)
            .wait()?
            .into_rows()
    }
}

/// Owning handle for the executor thread. Dropping it shuts the executor
/// down; [`join`](Scheduler::join) does the same and returns the stats.
pub struct Scheduler {
    queue: Arc<SubmissionQueue>,
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
        let telemetry = index.telemetry().map(|t| SchedTelemetry::new(t, cfg.shard));
        let queue = SubmissionQueue::new(cfg.queue_cap, telemetry);
        let cfg_admission = cfg.admission;
        let cfg_op_deadline = cfg.op_deadline;
        let exec_queue = Arc::clone(&queue);
        let handle = std::thread::spawn(move || executor(index, dev, cfg, exec_queue));
        Scheduler {
            queue,
            cfg_admission,
            cfg_op_deadline,
            handle: Some(handle),
        }
    }

    /// A new producer handle. Clients are cheap to clone and `Send`, so
    /// each producer thread can own one. Fails with
    /// [`SchedError::Shutdown`] once the scheduler has been shut down.
    pub fn client(&self) -> Result<SchedulerClient, SchedError> {
        if self.queue.is_closed() {
            return Err(SchedError::Shutdown);
        }
        Ok(SchedulerClient {
            queue: Arc::clone(&self.queue),
            admission: self.cfg_admission,
            default_deadline: self.cfg_op_deadline,
        })
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

/// Breaker state machine position. Gauge encoding: Closed = 0,
/// HalfOpen = 1, Open = 2 (`cuart.sched.breaker_state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal dispatch; `faults` consecutive faulty batches so far.
    Closed { faults: u32 },
    /// CPU-only service until `until`, when probing starts.
    Open { until: Instant },
    /// Probe batches reach the device; `clean` clean probes so far.
    HalfOpen { clean: u32 },
}

/// Circuit breaker over device dispatch: a pure state machine stepped at
/// the instants the executor passes it. A step that moves it to another
/// position returns the new state, for the executor to apply
/// ([`ExecCtx::apply`]).
struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
}

impl Breaker {
    fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: BreakerState::Closed { faults: 0 },
        }
    }

    /// How to dispatch a run at `now`. An `Open` breaker whose cooldown
    /// has ended goes `HalfOpen`, and the run is its first probe.
    fn before(&mut self, now: Instant) -> (DispatchMode, Option<BreakerState>) {
        match self.state {
            BreakerState::Closed { .. } => (DispatchMode::Normal, None),
            BreakerState::HalfOpen { .. } => (DispatchMode::Probe, None),
            BreakerState::Open { until } if now < until => (DispatchMode::CpuOnly, None),
            BreakerState::Open { .. } => (
                DispatchMode::Probe,
                self.enter(BreakerState::HalfOpen { clean: 0 }),
            ),
        }
    }

    /// Account a `Normal` or `Probe` run that ended at `now`. `faulty`
    /// means the batch errored or any fault was injected while serving it
    /// (covering retried-then-recovered legs and silent degradations).
    /// A trip opens the breaker for the cooldown from `now`.
    fn after(&mut self, now: Instant, faulty: bool) -> Option<BreakerState> {
        let next = match self.state {
            BreakerState::Open { .. } => return None,
            BreakerState::Closed { faults } if faulty => {
                let faults = faults.saturating_add(1);
                let threshold = self.cfg.fault_threshold;
                if threshold > 0 && faults >= threshold {
                    return self.trip(now);
                }
                BreakerState::Closed { faults }
            }
            BreakerState::Closed { .. } => BreakerState::Closed { faults: 0 },
            BreakerState::HalfOpen { .. } if faulty => return self.trip(now),
            BreakerState::HalfOpen { clean } if clean + 1 < self.cfg.probe_batches => {
                BreakerState::HalfOpen { clean: clean + 1 }
            }
            BreakerState::HalfOpen { .. } => return self.enter(BreakerState::Closed { faults: 0 }),
        };
        self.state = next;
        None
    }

    fn trip(&mut self, now: Instant) -> Option<BreakerState> {
        let until = now + self.cfg.open_cooldown;
        self.enter(BreakerState::Open { until })
    }

    fn enter(&mut self, state: BreakerState) -> Option<BreakerState> {
        self.state = state;
        Some(state)
    }
}

/// How one run is dispatched, per the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchMode {
    /// Breaker closed: normal device dispatch.
    Normal,
    /// Breaker half-open: this run is a recovery probe.
    Probe,
    /// Breaker open: the session is pinned to the CPU path.
    CpuOnly,
}

/// Everything the executor's flush path needs, grouped so the helpers
/// stay under control (and under clippy's argument limit).
struct ExecCtx<'a> {
    session: cuart::CuartSession<'a>,
    queue: &'a SubmissionQueue,
    /// The queue's telemetry, resolved at spawn.
    telemetry: Option<&'a SchedTelemetry>,
    stats: SchedulerStats,
    breaker: Breaker,
    /// The batch sort's prefix scratch, kept across batches.
    sort_scratch: SortScratch,
}

/// Why a batch was flushed; picks the stats counter and telemetry series.
#[derive(Clone, Copy)]
enum FlushCause {
    Size,
    Deadline,
    Final,
}

/// The executor loop: block on an empty queue, drain it, shed expired
/// ops, flush on size / linger / shutdown.
fn executor(
    index: Arc<CuartIndex>,
    dev: DeviceConfig,
    cfg: SchedulerConfig,
    queue: Arc<SubmissionQueue>,
) -> SchedulerStats {
    // Producers must never hang on a dead executor: on any exit from this
    // frame — including a panic — the queue is aborted, which drops the
    // orphaned reply channels and wakes blocked admissions.
    let _abort = AbortGuard(Arc::clone(&queue));
    let telemetry = queue.telemetry.as_ref();
    let mut session = index.device_session(&dev);
    // The scheduler records the full `sched.batch.*` tree around each
    // device leg (queueing, sort, scatter and the leg itself); the
    // session's own `batch.*` trees would double-count it.
    session.set_span_recording(false);
    if let Some(injector) = cfg.fault_injector.clone() {
        session.attach_fault_injector(injector);
    }
    // Shadowing is on whatever the breaker and injector: `range_batch`'s
    // host-side merge reads the overlay, and a breaker trip on session
    // errors pins the session to the CPU path even with no injector —
    // both need every device mutation journaled from the first batch.
    session.set_journal_shadowing(true);
    if let Some(t) = telemetry {
        t.breaker_state.set(0.0);
    }
    let batch_target = cfg.batch_target.max(1);
    let linger = cfg.deadline;
    let mut ctx = ExecCtx {
        session,
        queue: &queue,
        telemetry,
        stats: SchedulerStats::default(),
        breaker: Breaker::new(cfg.breaker.clone()),
        sort_scratch: SortScratch::default(),
    };

    let mut pending = Pending::default();
    // An empty batch has no timeout: the executor sleeps only on an empty
    // queue, and then without a timer.
    let mut timeout = None;
    loop {
        let before = pending.keys;
        let drained = queue.drain_into(&mut pending, batch_target, timeout);
        let now = Instant::now();
        let taken = pending.keys.saturating_sub(before) as u64;
        if taken > 0 {
            ctx.stats.ops_enqueued = ctx.stats.ops_enqueued.saturating_add(taken);
            if let Some(t) = ctx.telemetry {
                t.enqueued.incr(taken);
            }
        }
        if pending.keys >= batch_target {
            ctx.flush(&mut pending, FlushCause::Size, now);
        } else if drained == Drain::Closed {
            if !pending.reqs.is_empty() {
                ctx.flush(&mut pending, FlushCause::Final, now);
            }
            break;
        } else {
            // Shed what expired while waiting, then flush if the oldest
            // survivor has lingered long enough — with the default zero
            // linger, at once.
            ctx.shed_expired(&mut pending, now);
            if pending.due_at(linger).is_some_and(|due| due <= now) {
                ctx.flush(&mut pending, FlushCause::Deadline, now);
            }
        }
        // Only a flush takes long, and it empties the batch (no timeout),
        // so `now` still stands for the present when timing the wait.
        timeout = pending
            .wake_at(linger)
            .map(|at| at.saturating_duration_since(now));
    }
    ctx.stats
}

/// Modeled host cost of packing one key into the coalesced batch buffer.
const COALESCE_NS_PER_KEY: u64 = 4;
/// Modeled host cost per key·log2(n) of the stable batch sort (§3.2).
const SORT_NS_PER_KEY_LOG: u64 = 8;
/// Modeled host cost of scattering one result back to its caller's order.
const SCATTER_NS_PER_KEY: u64 = 4;
/// Modeled host cost of answering one shed op with `DeadlineExceeded`.
const SHED_NS_PER_OP: u64 = 2;

impl ExecCtx<'_> {
    /// Shed every pending request whose deadline is at or before `now`
    /// ([`Pending::shed`]), then free its resident slots, count and trace
    /// it. Runs at coalesce time — before sorting and dispatch — so late
    /// work never consumes device time.
    fn shed_expired(&mut self, pending: &mut Pending, now: Instant) {
        let (shed_ops, shed_requests) = pending.shed(now);
        if shed_requests == 0 {
            return;
        }
        self.stats.shed_ops = self.stats.shed_ops.saturating_add(shed_ops as u64);
        self.stats.requests += shed_requests;
        self.queue.release(shed_ops);
        if let Some(t) = self.telemetry {
            t.shed.incr(shed_ops as u64);
            // Not a `sched.batch.*` root: shed work has no device leg, so
            // the leaf-sum invariant the trace verifier enforces on batch
            // roots does not apply.
            let span = SpanNode::leaf(names::spans::SCHED_SHED, SHED_NS_PER_OP * shed_ops as u64)
                .with_attr("ops", shed_ops);
            t.registry.record_span_tree(span);
        }
    }

    /// Drain the whole pending batch at `now`: shed expired ops, then
    /// execute the remainder as maximal same-kind head runs, each run one
    /// device batch dispatched when the one before it ended.
    fn flush(&mut self, pending: &mut Pending, cause: FlushCause, now: Instant) {
        let depth = pending.keys as u64;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        self.shed_expired(pending, now);
        let mut now = now;
        while let Some(first) = pending.reqs.pop_front() {
            let mut run = vec![first];
            while let Some(next) = pending.reqs.front() {
                if !next.op.same_kind(&run[0].op) {
                    break;
                }
                run.extend(pending.reqs.pop_front());
            }
            now = self.execute_run(run, now);
        }
        pending.keys = 0;
        pending.earliest_deadline = None;
        match cause {
            FlushCause::Size => self.stats.size_flushes += 1,
            FlushCause::Deadline => self.stats.deadline_flushes += 1,
            FlushCause::Final => self.stats.final_flushes += 1,
        }
        if let Some(t) = self.telemetry {
            match cause {
                FlushCause::Size => t.size_flushes.incr(1),
                FlushCause::Deadline => t.deadline_flushes.incr(1),
                FlushCause::Final => {}
            }
            t.queue_depth.set(depth as f64);
        }
    }

    /// Execute one same-kind run, dispatched at `now`, as a single device
    /// batch — point ops sorted by key (§3.1) whenever there are two or
    /// more — and reply to every request in it. Returns the instant the run ended.
    fn execute_run(&mut self, run: Vec<Request>, now: Instant) -> Instant {
        // Concatenate the run into one batch, remembering per-request
        // extents. The run owns its requests, so their payloads move: the
        // first request's op becomes the batch, the rest are appended.
        let oldest = run.iter().map(|r| r.enqueued).min();
        let mut tickets: Vec<(usize, SyncSender<Outcome>)> = Vec::with_capacity(run.len());
        let mut batch: Option<SchedOp> = None;
        for req in run {
            tickets.push((req.op.len(), req.reply));
            match &mut batch {
                Some(batch) => batch.append(req.op),
                None => batch = Some(req.op),
            }
        }
        let Some(mut batch) = batch else {
            return now;
        };
        let total = batch.len();
        // The run is dispatched at `now`: its oldest request has waited
        // this long, and the sort and the device leg below are not queueing.
        let queue_wait = oldest.map(|start| now.saturating_duration_since(start));
        let perm = (total > 1)
            .then(|| batch.sort_by_key(&mut self.sort_scratch))
            .flatten();

        let (mode, entered) = self.breaker.before(now);
        self.apply(entered, total as u64);
        if mode == DispatchMode::Probe {
            self.stats.probe_batches = self.stats.probe_batches.saturating_add(1);
            if let Some(t) = self.telemetry {
                t.probe_batches.incr(1);
            }
        } else if mode == DispatchMode::CpuOnly {
            self.stats.breaker_open_batches = self.stats.breaker_open_batches.saturating_add(1);
        }
        let injected_before = self.session.fault_stats().injected;

        // The session borrows the payload the batch already owns.
        let values = |(v, report)| (SchedAnswer::Values(v), report);
        let outcome = match &batch {
            SchedOp::Lookup(keys) => self.session.lookup_batch(keys).map(values),
            SchedOp::Update(ops) => self.session.update_batch(ops).map(values),
            SchedOp::Insert(ops) => self.session.insert_batch(ops).map(values),
            SchedOp::Range(ranges) => self
                .session
                .range_batch(ranges)
                .map(|(rows, report)| (SchedAnswer::Rows(rows), report)),
        };
        let injected_delta = self
            .session
            .fault_stats()
            .injected
            .saturating_sub(injected_before);
        let end = Instant::now();

        match outcome {
            Ok((answer, report)) => {
                self.stats.absorb_report(total, &report);
                if perm.is_some() {
                    self.stats.sorted_batches = self.stats.sorted_batches.saturating_add(1);
                }
                if let Some(t) = self.telemetry {
                    t.batches.incr(1);
                    if perm.is_some() {
                        t.sorted_batches.incr(1);
                    }
                    t.batch_fill.observe(total as u64);
                    if let Some(wait) = queue_wait {
                        t.queue_latency_ns.observe(wait.as_nanos() as u64);
                    }
                    let probe = mode == DispatchMode::Probe;
                    let span = sched_span(&self.session, &batch, perm.is_some(), probe, &report);
                    if let Some(span) = span {
                        t.registry.record_span_tree(span);
                    }
                }
                self.stats.requests += tickets.len() as u64;
                match answer {
                    SchedAnswer::Values(v) => {
                        reply_slices(v, perm.as_deref(), tickets, SchedAnswer::Values)
                    }
                    SchedAnswer::Rows(r) => {
                        reply_slices(r, perm.as_deref(), tickets, SchedAnswer::Rows)
                    }
                }
                if mode != DispatchMode::CpuOnly {
                    let entered = self.breaker.after(end, injected_delta > 0);
                    self.apply(entered, total as u64);
                }
            }
            Err(e) => {
                self.stats.failed_batches = self.stats.failed_batches.saturating_add(1);
                let err = SchedError::from(&e);
                self.stats.requests += tickets.len() as u64;
                for (_, reply) in tickets {
                    let _ = reply.send(Err(err.clone()));
                }
                if mode != DispatchMode::CpuOnly {
                    let entered = self.breaker.after(end, true);
                    self.apply(entered, total as u64);
                }
            }
        }
        self.queue.release(total);
        end
    }

    /// Apply the state a breaker step entered: pin the session to the
    /// authoritative CPU path on `Open`, release it otherwise (so probe
    /// batches reach the device), count a trip, set the gauge and record
    /// the event.
    fn apply(&mut self, entered: Option<BreakerState>, run_keys: u64) {
        let Some(state) = entered else {
            return;
        };
        let (gauge, kind) = match state {
            BreakerState::Closed { .. } => (0.0, BatchKind::BreakerClosed),
            BreakerState::HalfOpen { .. } => (1.0, BatchKind::BreakerHalfOpen),
            BreakerState::Open { .. } => (2.0, BatchKind::BreakerOpen),
        };
        let trips = u64::from(kind == BatchKind::BreakerOpen);
        self.session.set_cpu_only(trips == 1);
        self.stats.breaker_trips = self.stats.breaker_trips.saturating_add(trips);
        if let Some(t) = self.telemetry {
            t.breaker_trips.incr(trips);
            t.breaker_state.set(gauge);
            t.registry.record(BatchEvent::new(kind, run_keys));
        }
    }
}

/// Put a batch's answers back in submission order (inverting the sort
/// permutation, if one was applied) and slice them out per request, in
/// FIFO order.
fn reply_slices<T: Clone + Default>(
    answers: Vec<T>,
    perm: Option<&[usize]>,
    tickets: Vec<(usize, SyncSender<Outcome>)>,
    wrap: fn(Vec<T>) -> SchedAnswer,
) {
    let answers = match perm {
        Some(p) => scatter_inverse(&answers, p),
        None => answers,
    };
    let mut answers = answers.into_iter();
    for (len, reply) in tickets {
        let _ = reply.send(Ok(wrap(answers.by_ref().take(len).collect())));
    }
}

/// The `sched.batch.<kind>` span tree of one dispatched run: host-side
/// coalesce / sort / scatter (modeled constants above), the PCIe legs,
/// the launch overhead and the kernel's `dram`/`exec` decomposition. All
/// children are sequential, so the leaf durations sum to the root — the
/// batch's modeled end-to-end time. `None` for a run with no modeled time.
fn sched_span(
    session: &cuart::CuartSession<'_>,
    batch: &SchedOp,
    sorted: bool,
    probe: bool,
    report: &KernelReport,
) -> Option<SpanNode> {
    let total = batch.len();
    if report.time_ns <= 0.0 || total == 0 {
        return None;
    }
    let dev = session.device();
    let n = total as u64;
    // Bit length of n: a cheap, deterministic ⌈log2⌉ stand-in.
    let log2n = (u64::BITS - n.leading_zeros()).max(1) as u64;
    // Ranges ship packed [lo, hi] records up and per-class span pairs
    // down; point ops ship stride-packed keys up and one u64 down.
    let (up_stride, down_stride) = match batch {
        SchedOp::Range(_) => (
            cuart::range::RANGE_RECORD_BYTES,
            cuart::range::RANGE_RESULT_BYTES,
        ),
        _ => (session.device_key_stride(), 8),
    };
    let up = cuart_gpu_sim::pcie::upload(&dev.pcie, total, up_stride);
    let down = cuart_gpu_sim::pcie::download(&dev.pcie, total, down_stride);
    use names::spans;
    let mut children = Vec::with_capacity(7);
    children.push(SpanNode::leaf(spans::COALESCE, COALESCE_NS_PER_KEY * n));
    if sorted {
        children.push(SpanNode::leaf(spans::SORT, SORT_NS_PER_KEY_LOG * n * log2n));
    }
    children.push(SpanNode::leaf(spans::H2D, up.time_ns as u64).with_attr("bytes", up.bytes));
    children.push(SpanNode::leaf(
        spans::LAUNCH,
        (dev.launch_overhead_us * 1_000.0) as u64,
    ));
    children.push(report.to_span());
    children.push(SpanNode::leaf(spans::D2H, down.time_ns as u64).with_attr("bytes", down.bytes));
    if sorted {
        children.push(SpanNode::leaf(spans::SCATTER, SCATTER_NS_PER_KEY * n));
    }
    let name = match batch {
        SchedOp::Lookup(_) => spans::SCHED_BATCH_LOOKUP,
        SchedOp::Update(_) => spans::SCHED_BATCH_UPDATE,
        SchedOp::Insert(_) => spans::SCHED_BATCH_INSERT,
        SchedOp::Range(_) => spans::SCHED_BATCH_RANGE,
    };
    let mut root = SpanNode::node(name, children)
        .with_attr("keys", total)
        .with_attr("sorted", sorted);
    if probe {
        root = root.with_attr("probe", true);
    }
    if matches!(batch, SchedOp::Update(_) | SchedOp::Insert(_)) {
        // The claim-table prefix of the batch's first, largest launch.
        root = root.with_attr("claim_slots", session.claim_slots(report.threads));
    }
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart::{CuartConfig, CuartIndex};
    use cuart_art::Art;
    use cuart_gpu_sim::batch::NOT_FOUND;
    use cuart_gpu_sim::devices;

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
    /// `deadline`, and the ticket side of its reply channel.
    fn request(tag: u8, n: usize, deadline: Option<Instant>) -> (Request, Receiver<Outcome>) {
        let (reply, answer) = mpsc::sync_channel(1);
        let req = Request {
            op: SchedOp::Lookup(vec![vec![tag]; n]),
            reply,
            enqueued: Instant::now(),
            deadline,
        };
        (req, answer)
    }

    /// The tags of a batch's requests, in order.
    fn tags(batch: &Pending) -> Vec<u8> {
        let tag = |r: &Request| match &r.op {
            SchedOp::Lookup(keys) => keys[0][0],
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
        assert_eq!(answers[0].try_recv(), Ok(Err(SchedError::DeadlineExceeded)));
        assert!(answers[1].try_recv().is_err());
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
        let first = client.submit(SchedOp::Lookup((0..4).map(key).collect()), None);
        let second = client.submit(SchedOp::Lookup((4..8).map(key).collect()), None);
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
            queue: Arc::clone(&queue),
            admission: AdmissionPolicy::Block,
            default_deadline: None,
        };
        let ticket = client.submit(SchedOp::Lookup(vec![key(1)]), None);
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
        let upd = client.submit(SchedOp::Update(vec![(k.clone(), 4242)]), None);
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
        let fill = filler.submit(SchedOp::Lookup((0..4u64).map(key).collect()), None);
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
        let fill = filler.submit(SchedOp::Lookup((0..4u64).map(key).collect()), None);
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
            client.submit(SchedOp::Lookup(vec![key(1)]), budget).wait(),
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
