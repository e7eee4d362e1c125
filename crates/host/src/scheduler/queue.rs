//! The bounded submission queue, its admission control, and the batch the
//! executor coalesces from it.

use super::client::Reply;
use super::{AdmissionPolicy, SchedError, SchedOp, SchedTelemetry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One queued submission: the op of one client call, as submitted, plus
/// where its answer goes.
pub(super) struct Request {
    pub(super) op: SchedOp,
    /// The executor never blocks answering it, and dropping it unanswered
    /// fails the ticket.
    pub(super) reply: Reply,
    pub(super) enqueued: Instant,
    /// Shed (with `DeadlineExceeded`) if still undispatched past this.
    pub(super) deadline: Option<Instant>,
}

/// The batch the executor is coalescing: whole requests in FIFO order.
#[derive(Default)]
pub(super) struct Pending {
    pub(super) reqs: VecDeque<Request>,
    pub(super) keys: usize,
    /// Earliest per-op deadline among `reqs`; `None` when nothing in the
    /// batch can expire, which is what lets the shed pass return at once.
    pub(super) earliest_deadline: Option<Instant>,
}

impl Pending {
    pub(super) fn push(&mut self, req: Request) {
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
    pub(super) fn shed(&mut self, now: Instant) -> (usize, u64) {
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
                req.reply.send(Err(SchedError::DeadlineExceeded));
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
    pub(super) fn due_at(&self, linger: Duration) -> Option<Instant> {
        self.reqs.front()?.enqueued.checked_add(linger)
    }

    /// When the executor must look at the batch again even if nothing
    /// new arrives: the linger expiry or the first per-op deadline.
    pub(super) fn wake_at(&self, linger: Duration) -> Option<Instant> {
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
pub(super) struct SubmissionQueue {
    inner: Mutex<QueueInner>,
    /// Producers waiting for resident space.
    admit: Condvar,
    /// The executor waiting for work.
    work: Condvar,
    /// 0 = unbounded.
    cap: usize,
    /// Shared with the executor, which reaches it through the queue.
    pub(super) telemetry: Option<SchedTelemetry>,
    pub(super) rejected_ops: AtomicU64,
    pub(super) timeout_ops: AtomicU64,
    pub(super) max_resident_ops: AtomicU64,
}

/// Outcome of one executor [`SubmissionQueue::drain_into`].
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Drain {
    /// At least one request moved into the batch.
    Took,
    /// The timeout passed with the queue still empty.
    TimedOut,
    /// Closed and fully drained: the executor can exit.
    Closed,
}

impl SubmissionQueue {
    pub(super) fn new(cap: usize, telemetry: Option<SchedTelemetry>) -> Arc<SubmissionQueue> {
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
    pub(super) fn push(&self, req: Request, policy: AdmissionPolicy) -> Result<(), SchedError> {
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
    pub(super) fn drain_into(
        &self,
        batch: &mut Pending,
        target: usize,
        timeout: Option<Duration>,
    ) -> Drain {
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
    pub(super) fn release(&self, ops: usize) {
        if ops == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.resident_ops = inner.resident_ops.saturating_sub(ops);
        drop(inner);
        self.admit.notify_all();
    }

    /// Stop admissions; the executor drains the remainder and exits.
    pub(super) fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.work.notify_all();
        self.admit.notify_all();
    }

    /// The executor is gone (exit or panic). Drop whatever is still
    /// queued — each dropped [`Reply`] fails its ticket
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

    pub(super) fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Calls [`SubmissionQueue::abort`] when the executor unwinds — panic or
/// normal exit — so producers can never hang on a dead scheduler.
pub(super) struct AbortGuard(pub(super) Arc<SubmissionQueue>);

impl Drop for AbortGuard {
    fn drop(&mut self) {
        self.0.abort();
    }
}
