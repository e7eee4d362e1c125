//! The executor thread: it drains the queue, sheds expired requests,
//! dispatches same-kind runs to its session and answers each request.

use super::breaker::{Breaker, BreakerState, DispatchMode};
use super::client::Reply;
use super::queue::{AbortGuard, Drain, Pending, Request, SubmissionQueue};
use super::{
    OpKind, RangeRows, SchedAnswer, SchedError, SchedOp, SchedTelemetry, SchedulerConfig,
    SchedulerStats,
};
use cuart::keys::{RunKey, RunOrder, SortedRun};
use cuart::{CuartIndex, KeyBatch};
use cuart_gpu_sim::exec::KernelReport;
use cuart_gpu_sim::DeviceConfig;
use cuart_telemetry::{names, BatchEvent, BatchKind, SpanNode};
use std::sync::Arc;
use std::time::Instant;

/// Everything the executor's flush path needs, grouped so the helpers
/// stay under control (and under clippy's argument limit).
struct ExecCtx<'a> {
    session: cuart::CuartSession<'a>,
    queue: &'a SubmissionQueue,
    /// The queue's telemetry, resolved at spawn.
    telemetry: Option<&'a SchedTelemetry>,
    stats: SchedulerStats,
    breaker: Breaker,
    /// A point run's key batches, as their requests brought them, and
    /// the values of its write requests: scratch kept across runs, emptied
    /// (which frees each request's keys as one buffer) once a run ends.
    run_keys: Vec<KeyBatch>,
    run_values: Vec<Vec<u64>>,
    /// The sort's order over `run_keys`, kept across runs.
    order: RunOrder,
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
pub(super) fn executor(
    index: Arc<CuartIndex>,
    dev: DeviceConfig,
    cfg: SchedulerConfig,
    queue: Arc<SubmissionQueue>,
) -> SchedulerStats {
    // Producers must never hang on a dead executor: on any exit from this
    // frame — including a panic — the queue is aborted, which drops the
    // orphaned replies and wakes blocked admissions.
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
        run_keys: Vec::new(),
        run_values: Vec::new(),
        order: RunOrder::default(),
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
                if next.op.kind() != run[0].op.kind() {
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
        let Some(kind) = run.first().map(|r| r.op.kind()) else {
            return now;
        };
        // Split the run into its replies and its payload. Point requests
        // hand over their key batches (and values) as they came; range
        // requests are concatenated, the first one's list moving.
        let oldest = run.iter().map(|r| r.enqueued).min();
        let mut tickets: Vec<(usize, Reply)> = Vec::with_capacity(run.len());
        let mut ranges = Vec::new();
        for req in run {
            tickets.push((req.op.len(), req.reply));
            match req.op {
                SchedOp::Lookup(keys) => self.run_keys.push(keys),
                SchedOp::Update(keys, values) | SchedOp::Insert(keys, values) => {
                    self.run_keys.push(keys);
                    self.run_values.push(values);
                }
                SchedOp::Range(mut more) if !ranges.is_empty() => ranges.append(&mut more),
                SchedOp::Range(first) => ranges = first,
            }
        }
        let total: usize = tickets.iter().map(|&(len, _)| len).sum();
        // The run is dispatched at `now`: its oldest request has waited
        // this long, and the sort and the device leg below are not queueing.
        let queue_wait = oldest.map(|start| now.saturating_duration_since(start));
        // Point ops reach the session in key order through a permutation
        // over the batches where they lie; nothing is moved or copied.
        let sorted = kind != OpKind::Range && total > 1;
        if kind != OpKind::Range {
            self.order.sort(&self.run_keys);
        }

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

        let points = SortedRun::new(&self.run_keys, &self.run_values, self.order.keys());
        let values = |(v, report)| (SchedAnswer::Values(v), report);
        let outcome = match kind {
            OpKind::Lookup => self.session.lookup_batch(&points).map(values),
            OpKind::Update => self.session.update_batch(&points).map(values),
            OpKind::Insert => self.session.insert_batch(&points).map(values),
            OpKind::Range => self
                .session
                .range_batch(&ranges)
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
                if sorted {
                    self.stats.sorted_batches = self.stats.sorted_batches.saturating_add(1);
                }
                if let Some(t) = self.telemetry {
                    t.batches.incr(1);
                    if sorted {
                        t.sorted_batches.incr(1);
                    }
                    t.batch_fill.observe(total as u64);
                    if let Some(wait) = queue_wait {
                        t.queue_latency_ns.observe(wait.as_nanos() as u64);
                    }
                    let probe = mode == DispatchMode::Probe;
                    let span = sched_span(&self.session, kind, total, sorted, probe, &report);
                    if let Some(span) = span {
                        t.registry.record_span_tree(span);
                    }
                }
                self.stats.requests += tickets.len() as u64;
                match answer {
                    SchedAnswer::Values(v) => reply_values(&v, self.order.keys(), tickets),
                    SchedAnswer::Rows(r) => reply_rows(r, tickets),
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
                    reply.send(Err(err.clone()));
                }
                if mode != DispatchMode::CpuOnly {
                    let entered = self.breaker.after(end, true);
                    self.apply(entered, total as u64);
                }
            }
        }
        self.queue.release(total);
        // Each request's keys go as one buffer, after every reply is sent.
        self.run_keys.clear();
        self.run_values.clear();
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

/// Put a point run's answers, which come back in the run's sorted
/// `order`, into each request's submission order, and reply.
fn reply_values(answers: &[u64], order: &[RunKey], tickets: Vec<(usize, Reply)>) {
    let mut per_request: Vec<Vec<u64>> = tickets.iter().map(|&(len, _)| vec![0; len]).collect();
    for (key, &answer) in order.iter().zip(answers) {
        let (batch, index) = key.place();
        if let Some(slot) = per_request.get_mut(batch).and_then(|v| v.get_mut(index)) {
            *slot = answer;
        }
    }
    for ((_, reply), values) in tickets.into_iter().zip(per_request) {
        reply.send(Ok(SchedAnswer::Values(values)));
    }
}

/// Slice a range run's row lists, in arrival order, out per request.
fn reply_rows(rows: Vec<RangeRows>, tickets: Vec<(usize, Reply)>) {
    let mut rows = rows.into_iter();
    for (len, reply) in tickets {
        reply.send(Ok(SchedAnswer::Rows(rows.by_ref().take(len).collect())));
    }
}

/// The `sched.batch.<kind>` span tree of one dispatched run: host-side
/// coalesce / sort / scatter (modeled constants above), the PCIe legs,
/// the launch overhead and the kernel's `dram`/`exec` decomposition. All
/// children are sequential, so the leaf durations sum to the root — the
/// batch's modeled end-to-end time. `None` for a run with no modeled time.
fn sched_span(
    session: &cuart::CuartSession<'_>,
    kind: OpKind,
    total: usize,
    sorted: bool,
    probe: bool,
    report: &KernelReport,
) -> Option<SpanNode> {
    if report.time_ns <= 0.0 || total == 0 {
        return None;
    }
    let dev = session.device();
    let n = total as u64;
    // Bit length of n: a cheap, deterministic ⌈log2⌉ stand-in.
    let log2n = (u64::BITS - n.leading_zeros()).max(1) as u64;
    // Ranges ship packed [lo, hi] records up and per-class span pairs
    // down; point ops ship stride-packed keys up and one u64 down.
    let (up_stride, down_stride) = match kind {
        OpKind::Range => (
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
    let name = match kind {
        OpKind::Lookup => spans::SCHED_BATCH_LOOKUP,
        OpKind::Update => spans::SCHED_BATCH_UPDATE,
        OpKind::Insert => spans::SCHED_BATCH_INSERT,
        OpKind::Range => spans::SCHED_BATCH_RANGE,
    };
    let mut root = SpanNode::node(name, children)
        .with_attr("keys", total)
        .with_attr("sorted", sorted);
    if probe {
        root = root.with_attr("probe", true);
    }
    if matches!(kind, OpKind::Update | OpKind::Insert) {
        // The claim-table prefix of the batch's first, largest launch.
        root = root.with_attr("claim_slots", session.claim_slots(report.threads));
    }
    Some(root)
}
