//! The one client every serving stack hands out, and its tickets.
//!
//! A [`SchedulerClient`] holds its stack's shard queues — one for a lone
//! [`Scheduler`](super::Scheduler), one per device for a fleet — and the
//! [`ShardRouter`] over them. A request one shard owns whole is queued
//! whole on that shard, which is every request on one queue. A request
//! that spans shards is split by owning shard (stable), every share is
//! submitted before any is waited on, and [`Ticket::wait`] merges the
//! answers back in arrival order through the recorded index lists. A
//! spawned fleet's clients also keep its route accounting.

use super::queue::{Request, SubmissionQueue};
use super::{AdmissionPolicy, Outcome, RangeRows, SchedAnswer, SchedError, SchedOp, Scheduler};
use cuart::{KeyBatch, ShardRouter};
use cuart_telemetry::{names, CounterHandle, SpanNode, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A submitted request's claim on its answer. Dropping a ticket abandons
/// the answer, not the request: an admitted request still executes.
#[derive(Debug)]
pub struct Ticket(pub(super) TicketState);

#[derive(Debug)]
pub(super) enum TicketState {
    /// Decided at submission: an empty request, or an admission refusal.
    Ready(Outcome),
    /// Admitted; the executor answers into this slot.
    Queued(Arc<Slot>),
    /// Split over several shards; merged on wait.
    Routed(Routed),
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
            TicketState::Queued(slot) => {
                let state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                let mut state = slot
                    .filled
                    .wait_while(state, |s| matches!(s, SlotState::Waiting))
                    .unwrap_or_else(PoisonError::into_inner);
                match std::mem::replace(&mut *state, SlotState::Abandoned) {
                    SlotState::Answered(outcome) => outcome,
                    SlotState::Waiting | SlotState::Abandoned => Err(SchedError::Disconnected),
                }
            }
            TicketState::Routed(routed) => routed.wait(),
        }
    }
}

/// A routed request's claim on its merged answer: one [`Ticket`] per
/// shard the request touched, plus the index lists that put the shards'
/// answers back in arrival order.
///
/// If any shard refuses or fails its share, the request answers that
/// shard's error (lowest shard index wins). Shares accepted by healthy
/// shards still execute — per-shard at-most-once, exactly as if the
/// shards had been called individually.
#[derive(Debug)]
pub(super) struct Routed {
    /// Ascending shard order — which is key order, the router being
    /// monotone in the key prefix.
    parts: Vec<Part>,
    /// The answer the shares are merged into, one entry per op.
    merged: SchedAnswer,
    router: ShardRouter,
}

/// One shard's share of a routed request.
#[derive(Debug)]
struct Part {
    shard: usize,
    /// Positions in the request this shard answers, ascending.
    list: Vec<usize>,
    ticket: Ticket,
}

impl Routed {
    /// Wait on every shard's ticket (all of them, so the request is
    /// answered only once each accepted share has executed) and merge:
    /// the index lists are, concatenated, a permutation of the request,
    /// and this applies its inverse shard by shard.
    fn wait(self) -> Result<SchedAnswer, SchedError> {
        let mut merged = self.merged;
        let mut first_err: Option<SchedError> = None;
        for Part {
            shard,
            list,
            ticket,
        } in self.parts
        {
            match (ticket.wait(), &mut merged) {
                (Ok(SchedAnswer::Values(got)), SchedAnswer::Values(values)) => {
                    for (&i, value) in list.iter().zip(got) {
                        values[i] = value;
                    }
                }
                // A shard's journal and overflow are authoritative only
                // for the keys it owns: keep those, in shard order.
                (Ok(SchedAnswer::Rows(per_query)), SchedAnswer::Rows(rows)) => {
                    for (&i, shard_rows) in list.iter().zip(per_query) {
                        let owned = shard_rows.into_iter();
                        rows[i].extend(owned.filter(|(k, _)| self.router.shard_of(k) == shard));
                    }
                }
                // An executor answers the kind it was asked.
                (Ok(_), _) => {}
                (Err(e), _) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(merged), Err)
    }
}

/// Where one request's answer passes from the executor to its [`Ticket`]:
/// filled once, by [`Reply::send`] or by the reply's drop. Waiting on it
/// never allocates, so a request costs the same allocations whether or
/// not its ticket has to block.
#[derive(Debug, Default)]
pub(super) struct Slot {
    pub(super) state: Mutex<SlotState>,
    filled: Condvar,
}

#[derive(Debug, Default)]
pub(super) enum SlotState {
    #[default]
    Waiting,
    Answered(Outcome),
    /// The executor dropped the request unanswered.
    Abandoned,
}

/// The executor's end of a [`Slot`]. Dropped unanswered — the executor
/// died, or the queue was aborted — it fails the ticket with
/// [`SchedError::Disconnected`].
#[derive(Debug)]
pub(super) struct Reply(Arc<Slot>);

impl Reply {
    /// A reply and the slot its ticket waits on.
    pub(super) fn new() -> (Reply, Arc<Slot>) {
        let slot = Arc::new(Slot::default());
        (Reply(Arc::clone(&slot)), slot)
    }

    /// Answer the request; a second answer is ignored.
    pub(super) fn send(&self, outcome: Outcome) {
        self.fill(SlotState::Answered(outcome));
    }

    fn fill(&self, filled: SlotState) {
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, SlotState::Waiting) {
            *state = filled;
            self.0.filled.notify_all();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.fill(SlotState::Abandoned);
    }
}

/// Modeled host cost of routing one key to its shard (a fixed-width
/// prefix load and one multiply — cheaper than the coalesce copy).
const ROUTE_NS_PER_KEY: u64 = 2;

/// A fleet's route accounting, shared by its clients: the requests and
/// point ops they queued, folded into
/// [`ShardedStats`](crate::sharded::ShardedStats) at join, and the
/// router's telemetry.
pub(crate) struct Route {
    requests: AtomicU64,
    keys: AtomicU64,
    telemetry: Option<RouteTelemetry>,
}

/// The router's telemetry, resolved once per fleet.
struct RouteTelemetry {
    registry: Arc<Telemetry>,
    requests: CounterHandle,
    keys: CounterHandle,
}

impl Route {
    pub(crate) fn new(telemetry: Option<&Arc<Telemetry>>) -> Route {
        Route {
            requests: AtomicU64::new(0),
            keys: AtomicU64::new(0),
            telemetry: telemetry.map(|t| RouteTelemetry {
                registry: Arc::clone(t),
                requests: t.counter(names::SCHED_ROUTED_REQUESTS),
                keys: t.counter(names::SCHED_ROUTED_KEYS),
            }),
        }
    }

    /// The routed requests and point ops so far.
    pub(crate) fn totals(&self) -> (u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.keys.load(Ordering::Relaxed),
        )
    }

    /// Account one routed request of `total` ops touching `shards` shards.
    fn note(&self, total: usize, shards: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.keys.fetch_add(total as u64, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.requests.incr(1);
            t.keys.incr(total as u64);
            // Standalone root (like `sched.shed`): routing has no device
            // leg, so the batch-root leaf-sum invariant does not apply.
            let span = SpanNode::leaf(names::spans::SCHED_ROUTE, ROUTE_NS_PER_KEY * total as u64)
                .with_attr("keys", total)
                .with_attr("shards", shards);
            t.registry.record_span_tree(span);
        }
    }
}

/// Cloneable producer-side handle. [`submit`](Self::submit) admits a
/// request and returns its [`Ticket`]; the blocking calls are submit +
/// wait and return results in the caller's submission order.
#[derive(Clone)]
pub struct SchedulerClient {
    /// One queue per shard, in shard order.
    pub(super) queues: Vec<Arc<SubmissionQueue>>,
    pub(super) router: ShardRouter,
    pub(super) admission: AdmissionPolicy,
    pub(super) default_deadline: Option<Duration>,
    pub(super) route: Option<Arc<Route>>,
}

impl SchedulerClient {
    /// A client over `shards`' queues, routed by key prefix, with the
    /// fleet's `route` accounting if it has one. Every shard runs under
    /// the same configuration, so the first one's admission policy and
    /// default budget are the fleet's. Fails with [`SchedError::Shutdown`]
    /// once any shard has been shut down.
    pub(crate) fn over(
        shards: &[Scheduler],
        route: Option<Arc<Route>>,
    ) -> Result<SchedulerClient, SchedError> {
        let first = shards.first().ok_or(SchedError::NoShards)?;
        if shards.iter().any(|s| s.queue.is_closed()) {
            return Err(SchedError::Shutdown);
        }
        Ok(SchedulerClient {
            queues: shards.iter().map(|s| Arc::clone(&s.queue)).collect(),
            router: ShardRouter::new(shards.len()),
            admission: first.cfg_admission,
            default_deadline: first.cfg_op_deadline,
            route,
        })
    }

    /// Admit `op` and return without waiting for its batch. Admission
    /// control applies here, per shard: under [`AdmissionPolicy::Block`] a
    /// full queue back-pressures this call, and a refusal (`QueueFull`,
    /// `AdmissionTimeout`, `Shutdown`) comes back as a ticket that is
    /// already decided. `budget` is the request's latency budget (every
    /// share's, when routed): still waiting for coalescing when it
    /// expires, the request is shed with [`SchedError::DeadlineExceeded`];
    /// `None` falls back to
    /// [`SchedulerConfig::op_deadline`](super::SchedulerConfig::op_deadline).
    /// A write whose values do not pair up with its keys is refused with
    /// [`SchedError::Session`], and an empty request is answered, both
    /// without a trip through any queue.
    ///
    /// A request one shard owns whole goes whole to that shard, on every
    /// stack. A range can span several shards' key intervals: the full
    /// `[lo, hi]` query goes to every shard from `shard_of(lo)` to
    /// `shard_of(hi)` (an inverted range to `shard_of(lo)` alone, which
    /// answers it empty), each shard's answer is filtered to the keys that
    /// shard *owns*, and the shares are concatenated in shard order.
    pub fn submit(&self, op: SchedOp, budget: Option<Duration>) -> Ticket {
        if let Some(e) = op.unpaired() {
            return Ticket::ready(Err(e));
        }
        if op.is_empty() {
            return Ticket::ready(Ok(op.empty_answer()));
        }
        let now = Instant::now();
        let deadline = budget.or(self.default_deadline).map(|d| now + d);
        let owner = match self.queues.as_slice() {
            [queue] => Some(queue),
            _ => self.owner(&op).and_then(|shard| self.queues.get(shard)),
        };
        let Some(queue) = owner else {
            return self.split(op, now, deadline);
        };
        if let Some(route) = &self.route {
            route.note(op.len(), 1);
        }
        self.enqueue(queue, op, now, deadline)
    }

    /// The one shard that owns all of `op` — every key, every range's
    /// shards — in one pass that allocates nothing and stops at the first
    /// op another shard owns; `None` when the op spans shards.
    fn owner(&self, op: &SchedOp) -> Option<usize> {
        fn one(mut spans: impl Iterator<Item = (usize, usize)>) -> Option<usize> {
            let (first, last) = spans.next()?;
            (first == last && spans.all(|span| span == (first, last))).then_some(first)
        }
        match op {
            SchedOp::Lookup(keys) | SchedOp::Update(keys, _) | SchedOp::Insert(keys, _) => {
                one(keys.iter().map(|key| {
                    let shard = self.router.shard_of(key);
                    (shard, shard)
                }))
            }
            SchedOp::Range(ranges) => one(ranges.iter().map(|(lo, hi)| self.shards_of(lo, hi))),
        }
    }

    /// The first and last shard a range `[lo, hi]` goes to: every shard
    /// its bounds touch, or `shard_of(lo)` alone when it is inverted.
    fn shards_of(&self, lo: &[u8], hi: &[u8]) -> (usize, usize) {
        let first = self.router.shard_of(lo);
        (first, self.router.shard_of(hi).max(first))
    }

    /// Queue `op` on one shard's `queue`.
    fn enqueue(
        &self,
        queue: &SubmissionQueue,
        op: SchedOp,
        enqueued: Instant,
        deadline: Option<Instant>,
    ) -> Ticket {
        let (reply, slot) = Reply::new();
        let req = Request {
            op,
            reply,
            enqueued,
            deadline,
        };
        match queue.push(req, self.admission) {
            Ok(()) => Ticket(TicketState::Queued(slot)),
            Err(e) => Ticket::ready(Err(e)),
        }
    }

    /// Split `op` by shard and queue every share, in shard order, without
    /// waiting on any.
    fn split(&self, op: SchedOp, now: Instant, deadline: Option<Instant>) -> Ticket {
        let total = op.len();
        let (merged, shares) = match op {
            SchedOp::Range(ranges) => (
                SchedAnswer::Rows(vec![RangeRows::new(); total]),
                self.split_ranges(ranges),
            ),
            points => (
                SchedAnswer::Values(vec![0; total]),
                self.split_points(points),
            ),
        };
        if let Some(route) = &self.route {
            route.note(total, shares.len());
        }
        let parts = shares
            .into_iter()
            .filter_map(|(shard, list, sub)| {
                let queue = self.queues.get(shard)?;
                Some(Part {
                    shard,
                    list,
                    ticket: self.enqueue(queue, sub, now, deadline),
                })
            })
            .collect();
        Ticket(TicketState::Routed(Routed {
            parts,
            merged,
            router: self.router,
        }))
    }

    /// Split point ops by owning shard. Each share is one sequential copy
    /// of its keys (and values) into a batch of its own, in arrival order.
    fn split_points(&self, op: SchedOp) -> Vec<(usize, Vec<usize>, SchedOp)> {
        let (keys, values) = match &op {
            SchedOp::Update(keys, values) | SchedOp::Insert(keys, values) => (keys, Some(values)),
            SchedOp::Lookup(keys) => (keys, None),
            SchedOp::Range(_) => return Vec::new(),
        };
        let lists = self.router.split_indices(keys);
        let share = |list: &[usize]| {
            let sub = KeyBatch::from_keys(list.iter().map(|&i| keys.key(i)));
            let sub_values = values.map(|v| list.iter().map(|&i| v[i]).collect());
            match (&op, sub_values) {
                (SchedOp::Update(..), Some(v)) => SchedOp::Update(sub, v),
                (SchedOp::Insert(..), Some(v)) => SchedOp::Insert(sub, v),
                _ => SchedOp::Lookup(sub),
            }
        };
        lists
            .into_iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(shard, list)| {
                let sub = share(&list);
                (shard, list, sub)
            })
            .collect()
    }

    /// Send each range to the shards [`shards_of`](Self::shards_of) names.
    fn split_ranges(&self, ranges: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(usize, Vec<usize>, SchedOp)> {
        type Share = (Vec<usize>, Vec<(Vec<u8>, Vec<u8>)>);
        let mut shares: Vec<Share> = self.queues.iter().map(|_| Default::default()).collect();
        for (i, range) in ranges.iter().enumerate() {
            let (first, last) = self.shards_of(&range.0, &range.1);
            for (list, sub) in shares.iter_mut().take(last + 1).skip(first) {
                list.push(i);
                sub.push(range.clone());
            }
        }
        shares
            .into_iter()
            .enumerate()
            .filter(|(_, (list, _))| !list.is_empty())
            .map(|(shard, (list, sub))| (shard, list, SchedOp::Range(sub)))
            .collect()
    }

    /// Submit the op `make` builds from the caller's `owned` ops (a copy
    /// of their keys into one batch), free `owned` — one allocation per
    /// key — while the request executes, and wait.
    fn call<T>(
        &self,
        owned: T,
        make: impl FnOnce(&T) -> SchedOp,
    ) -> Result<SchedAnswer, SchedError> {
        let ticket = self.submit(make(&owned), None);
        drop(owned);
        ticket.wait()
    }

    /// Submit a slice of point lookups; blocks until the batch containing
    /// them executes. Returns one result per key in submission order
    /// ([`NOT_FOUND`](cuart_gpu_sim::batch::NOT_FOUND) for absent keys).
    pub fn lookup(&self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, SchedError> {
        self.call(keys, |keys| SchedOp::lookups(keys))?
            .into_values()
    }

    /// Submit one point lookup.
    pub fn lookup_one(&self, key: Vec<u8>) -> Result<u64, SchedError> {
        Ok(self.lookup(vec![key])?[0])
    }

    /// Submit point updates (`DELETE` as the value deletes). Returns one
    /// status per op (see [`status`](cuart::update::status)).
    pub fn update(&self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, SchedError> {
        self.call(ops, |ops| SchedOp::updates(ops))?.into_values()
    }

    /// Submit point inserts. Returns one status per op (see
    /// [`insert_status`](cuart::insert::insert_status)).
    pub fn insert(&self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, SchedError> {
        self.call(ops, |ops| SchedOp::inserts(ops))?.into_values()
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
