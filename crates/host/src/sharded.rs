//! Sharded, multi-device serving: one [`Scheduler`] per simulated device,
//! key space partitioned by leading bytes.
//!
//! The single-device scheduler (§4.1 "batching on the host", the
//! [`scheduler`](crate::scheduler) module) saturates one GPU. The ROADMAP
//! north-star wants more: production-scale serving across several devices,
//! possibly of different generations. This module is that scale-out layer:
//!
//! * [`ShardedScheduler::spawn`] opens one executor per entry of a
//!   [`DeviceConfig`] slice — homogeneous (4× RTX 3090) or mixed (2× RTX
//!   3090 + 2× GTX 1070) — each with its own
//!   [`CuartSession`](cuart::CuartSession), submission queue, admission
//!   cap and circuit breaker, so one sick shard sheds or degrades alone
//!   while the rest keep serving from their devices.
//! * The key space is partitioned by the [`ShardRouter`]: the leading key
//!   bytes — the same big-endian prefix the §3.3 compacted root indexes
//!   its LUT with — select the shard, so every shard owns a contiguous
//!   range of the root table and of the ordered leaf arenas under it, and
//!   every key maps to exactly one shard (last-write-wins per key, §3.4,
//!   holds fleet-wide).
//! * [`ShardedClient`] calls look exactly like [`SchedulerClient`] calls:
//!   the router splits the batch by shard (stable, so intra-request order
//!   survives), **submits** every shard's sub-batch — the shards then run
//!   them concurrently through their sorted-batch machinery — and only
//!   then waits on each [`Ticket`], merging the answers back in arrival
//!   order via the recorded index lists (an inverse permutation over the
//!   split). No thread is spawned per request; [`ShardedClient::submit`]
//!   exposes the same split as a [`ShardedTicket`].
//!
//! Each shard's scheduler mirrors its counters and gauges to
//! `cuart.sched.shard.<i>.*` (summing to the global `cuart.sched.*`
//! totals), and every routed call commits a standalone `sched.route` span
//! with the fan-out, next to the per-shard `sched.batch.*` trees.

use crate::scheduler::{
    RangeRows, SchedAnswer, SchedError, SchedOp, Scheduler, SchedulerClient, SchedulerConfig,
    SchedulerStats, Ticket,
};
use cuart::{CuartIndex, KeyBatch, ShardRouter};
use cuart_gpu_sim::{DeviceConfig, FaultInjector};
use cuart_telemetry::{names, CounterHandle, SpanNode, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Modeled host cost of routing one key to its shard (a fixed-width
/// prefix load and one multiply — cheaper than the coalesce copy).
const ROUTE_NS_PER_KEY: u64 = 2;

/// Shared router-side accounting, folded into [`ShardedStats`] at join.
#[derive(Default)]
struct RouteCounters {
    requests: AtomicU64,
    keys: AtomicU64,
}

/// Owning handle for a fleet of per-shard executors. Dropping it shuts
/// every shard down; [`join`](ShardedScheduler::join) does the same and
/// returns the per-shard and aggregate stats.
pub struct ShardedScheduler {
    shards: Vec<Scheduler>,
    devices: Vec<DeviceConfig>,
    router: ShardRouter,
    telemetry: Option<Arc<RouteTelemetry>>,
    route: Arc<RouteCounters>,
}

/// The router's telemetry, resolved once per fleet and shared by its
/// clients.
struct RouteTelemetry {
    registry: Arc<Telemetry>,
    requests: CounterHandle,
    keys: CounterHandle,
}

impl RouteTelemetry {
    fn new(t: &Arc<Telemetry>) -> RouteTelemetry {
        RouteTelemetry {
            registry: Arc::clone(t),
            requests: t.counter(names::SCHED_ROUTED_REQUESTS),
            keys: t.counter(names::SCHED_ROUTED_KEYS),
        }
    }
}

impl ShardedScheduler {
    /// Spawn one executor per device in `devices`, all serving `index`.
    /// Shard `i` runs on `devices[i]` under a copy of `cfg` with
    /// [`SchedulerConfig::shard`] set to `i` (per-shard telemetry twins)
    /// and, when a fault injector is configured, a per-shard re-seeded
    /// copy so fault streams are independent across shards.
    pub fn spawn(
        index: Arc<CuartIndex>,
        devices: &[DeviceConfig],
        cfg: SchedulerConfig,
    ) -> Result<ShardedScheduler, SchedError> {
        if devices.is_empty() {
            return Err(SchedError::NoShards);
        }
        let telemetry = index.telemetry().map(|t| Arc::new(RouteTelemetry::new(t)));
        let router = ShardRouter::new(devices.len());
        let shards = devices
            .iter()
            .enumerate()
            .map(|(i, dev)| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.shard = Some(i);
                if let Some(inj) = &cfg.fault_injector {
                    let mut fc = inj.config().clone();
                    fc.seed = fc.seed.wrapping_add(i as u64);
                    shard_cfg.fault_injector = Some(FaultInjector::new(fc));
                }
                Scheduler::spawn(Arc::clone(&index), *dev, shard_cfg)
            })
            .collect();
        Ok(ShardedScheduler {
            shards,
            devices: devices.to_vec(),
            router,
            telemetry,
            route: Arc::new(RouteCounters::default()),
        })
    }

    /// Number of shards (== devices) in the fleet.
    pub fn shards(&self) -> usize {
        self.devices.len()
    }

    /// A new producer handle over the whole fleet. Fails with
    /// [`SchedError::Shutdown`] once any shard has been shut down.
    pub fn client(&self) -> Result<ShardedClient, SchedError> {
        let clients = self
            .shards
            .iter()
            .map(|s| s.client())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedClient {
            clients,
            router: self.router,
            telemetry: self.telemetry.clone(),
            route: Arc::clone(&self.route),
        })
    }

    /// Shut every shard down (FIFO drain, same contract as
    /// [`Scheduler::join`]) and return the per-shard stats. If a shard's
    /// executor panicked, the remaining shards are still joined before
    /// the first error is returned.
    pub fn join(self) -> Result<ShardedStats, SchedError> {
        let mut out = ShardedStats {
            shards: Vec::with_capacity(self.devices.len()),
            routed_requests: self.route.requests.load(Ordering::Relaxed),
            routed_keys: self.route.keys.load(Ordering::Relaxed),
        };
        let mut first_err = None;
        for (i, (sched, dev)) in self.shards.into_iter().zip(self.devices).enumerate() {
            match sched.join() {
                Ok(stats) => out.shards.push(ShardStats {
                    shard: i,
                    device: dev,
                    stats,
                }),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// One shard's share of a [`ShardedStats`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index (position in the spawn-time device slice).
    pub shard: usize,
    /// The device this shard served from.
    pub device: DeviceConfig,
    /// The shard scheduler's own counters.
    pub stats: SchedulerStats,
    // `stats.kernel_time_ns` is the modeled device time; see
    // `modeled_time_ns` for the launch-overhead-inclusive figure.
}

impl ShardStats {
    /// Modeled busy time of this shard on its device
    /// ([`SchedulerStats::modeled_time_ns`]).
    pub fn modeled_time_ns(&self) -> f64 {
        self.stats.modeled_time_ns(&self.device)
    }
}

/// Per-shard and router-level stats returned by
/// [`ShardedScheduler::join`].
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Client calls routed through the split/merge path.
    pub routed_requests: u64,
    /// Point ops routed through the split/merge path.
    pub routed_keys: u64,
}

impl ShardedStats {
    /// Field-wise sum of the per-shard counters (maxima for the `max_*`
    /// watermarks, which are per-queue quantities).
    pub fn aggregate(&self) -> SchedulerStats {
        let mut agg = SchedulerStats::default();
        for s in &self.shards {
            let st = &s.stats;
            agg.ops_enqueued = agg.ops_enqueued.saturating_add(st.ops_enqueued);
            agg.requests += st.requests;
            agg.batches = agg.batches.saturating_add(st.batches);
            agg.sorted_batches = agg.sorted_batches.saturating_add(st.sorted_batches);
            agg.size_flushes += st.size_flushes;
            agg.deadline_flushes += st.deadline_flushes;
            agg.final_flushes += st.final_flushes;
            agg.keys_dispatched = agg.keys_dispatched.saturating_add(st.keys_dispatched);
            agg.max_queue_depth = agg.max_queue_depth.max(st.max_queue_depth);
            agg.kernel_time_ns += st.kernel_time_ns;
            agg.l2_hits = agg.l2_hits.saturating_add(st.l2_hits);
            agg.sectors = agg.sectors.saturating_add(st.sectors);
            agg.dram_transactions = agg.dram_transactions.saturating_add(st.dram_transactions);
            agg.raw_accesses = agg.raw_accesses.saturating_add(st.raw_accesses);
            agg.failed_batches = agg.failed_batches.saturating_add(st.failed_batches);
            agg.shed_ops = agg.shed_ops.saturating_add(st.shed_ops);
            agg.rejected_ops = agg.rejected_ops.saturating_add(st.rejected_ops);
            agg.admission_timeout_ops = agg
                .admission_timeout_ops
                .saturating_add(st.admission_timeout_ops);
            agg.max_resident_ops = agg.max_resident_ops.max(st.max_resident_ops);
            agg.breaker_trips = agg.breaker_trips.saturating_add(st.breaker_trips);
            agg.probe_batches = agg.probe_batches.saturating_add(st.probe_batches);
            agg.breaker_open_batches = agg
                .breaker_open_batches
                .saturating_add(st.breaker_open_batches);
        }
        agg
    }

    /// Modeled wall time of the run: shards execute concurrently on
    /// separate devices, so the fleet finishes with its slowest shard.
    pub fn modeled_time_ns(&self) -> f64 {
        self.shards
            .iter()
            .map(ShardStats::modeled_time_ns)
            .fold(0.0, f64::max)
    }

    /// Modeled aggregate lookup/update throughput in MOps/s: total keys
    /// dispatched over the slowest shard's modeled busy time.
    pub fn modeled_aggregate_mops(&self) -> f64 {
        let keys: u64 = self.shards.iter().map(|s| s.stats.keys_dispatched).sum();
        let wall = self.modeled_time_ns();
        if wall <= 0.0 {
            0.0
        } else {
            keys as f64 * 1_000.0 / wall
        }
    }
}

/// Cloneable producer-side handle over the whole fleet. Each call splits
/// by shard, submits every sub-batch, waits and merges back in arrival
/// order — same blocking semantics and result order as
/// [`SchedulerClient`].
///
/// Error semantics: if any shard refuses or fails its sub-batch, the
/// whole call returns that shard's error (lowest shard index wins).
/// Sub-batches accepted by healthy shards still execute — per-shard
/// at-most-once, exactly as if the shards had been called individually.
#[derive(Clone)]
pub struct ShardedClient {
    clients: Vec<SchedulerClient>,
    router: ShardRouter,
    telemetry: Option<Arc<RouteTelemetry>>,
    route: Arc<RouteCounters>,
}

/// One shard's share of a routed request.
struct Part {
    shard: usize,
    /// Positions in the request this shard answers, ascending; empty when
    /// the shard answers a point request whole, in its own order.
    list: Vec<usize>,
    ticket: Ticket,
}

/// A routed request's claim on its merged answer: one [`Ticket`] per
/// shard the request touched, plus the index lists that put the shards'
/// answers back in arrival order.
pub struct ShardedTicket {
    /// Ascending shard order — which is key order, the router being
    /// monotone in the key prefix.
    parts: Vec<Part>,
    total: usize,
    ranges: bool,
    router: ShardRouter,
}

impl ShardedTicket {
    /// Wait on every shard's ticket (all of them, so the call returns
    /// only once each accepted sub-batch has executed) and merge.
    pub fn wait(self) -> Result<SchedAnswer, SchedError> {
        let (mut values, mut rows) = if self.ranges {
            (Vec::new(), vec![RangeRows::new(); self.total])
        } else {
            (vec![0u64; self.total], Vec::new())
        };
        let mut first_err: Option<SchedError> = None;
        for Part {
            shard,
            list,
            ticket,
        } in self.parts
        {
            match ticket.wait() {
                Ok(SchedAnswer::Values(results)) if list.is_empty() => values = results,
                Ok(SchedAnswer::Values(results)) => scatter(&mut values, &list, results),
                // A shard's journal and overflow are authoritative only
                // for the keys it owns: keep those, in shard order.
                Ok(SchedAnswer::Rows(per_query)) => {
                    for (&i, shard_rows) in list.iter().zip(per_query) {
                        if let Some(merged) = rows.get_mut(i) {
                            merged.extend(
                                shard_rows
                                    .into_iter()
                                    .filter(|(k, _)| self.router.shard_of(k) == shard),
                            );
                        }
                    }
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None if self.ranges => Ok(SchedAnswer::Rows(rows)),
            None => Ok(SchedAnswer::Values(values)),
        }
    }
}

impl ShardedClient {
    /// Split `op` by shard and submit every sub-batch without waiting
    /// (admission applies per shard, as in [`SchedulerClient::submit`]);
    /// `budget` applies to every sub-batch.
    ///
    /// A range can span several shards' key intervals: the full `[lo, hi]`
    /// query goes to every shard from `shard_of(lo)` to `shard_of(hi)`,
    /// each shard's answer is filtered to the keys that shard *owns*, and
    /// the shares are concatenated in shard order.
    pub fn submit(&self, op: SchedOp, budget: Option<Duration>) -> ShardedTicket {
        let ranges = matches!(op, SchedOp::Range(_));
        let total = op.len();
        let shares = match op {
            SchedOp::Range(ranges) => self.split_ranges(ranges),
            points => self.split_points(points),
        };
        let parts = self.submit_shares(total, shares, budget);
        ShardedTicket {
            parts,
            total,
            ranges,
            router: self.router,
        }
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

    /// Point lookups across the fleet; one result per key in submission
    /// order ([`NOT_FOUND`](cuart_gpu_sim::batch::NOT_FOUND) for absent
    /// keys).
    pub fn lookup(&self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, SchedError> {
        self.call(keys, |keys| SchedOp::lookups(keys))?
            .into_values()
    }

    /// Point updates across the fleet (`DELETE` as the value deletes);
    /// one status per op in submission order.
    pub fn update(&self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, SchedError> {
        self.call(ops, |ops| SchedOp::updates(ops))?.into_values()
    }

    /// Point inserts across the fleet; one status per op in submission
    /// order.
    pub fn insert(&self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, SchedError> {
        self.call(ops, |ops| SchedOp::inserts(ops))?.into_values()
    }

    /// Inclusive range queries across the fleet; one sorted row list per
    /// `[lo, hi]` pair in submission order (see
    /// [`submit`](Self::submit) for how a range spanning shards merges).
    pub fn range(&self, ranges: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Vec<RangeRows>, SchedError> {
        self.submit(SchedOp::Range(ranges), None)
            .wait()?
            .into_rows()
    }

    /// Router-side accounting for one routed request of `total` ops
    /// touching `active` shards.
    fn note_routed(&self, total: usize, active: usize) {
        self.route.requests.fetch_add(1, Ordering::Relaxed);
        self.route.keys.fetch_add(total as u64, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.requests.incr(1);
            t.keys.incr(total as u64);
            // Standalone root (like `sched.shed`): routing has no device
            // leg, so the batch-root leaf-sum invariant does not apply.
            let span = SpanNode::leaf(names::spans::SCHED_ROUTE, ROUTE_NS_PER_KEY * total as u64)
                .with_attr("keys", total)
                .with_attr("shards", active);
            t.registry.record_span_tree(span);
        }
    }

    /// Submit each `(shard, index list, sub-batch)` share of a `total`-op
    /// request to its shard, in shard order. An empty request touches no
    /// shard and is not counted as routed.
    fn submit_shares(
        &self,
        total: usize,
        shares: Vec<(usize, Vec<usize>, SchedOp)>,
        budget: Option<Duration>,
    ) -> Vec<Part> {
        if total == 0 {
            return Vec::new();
        }
        self.note_routed(total, shares.len());
        shares
            .into_iter()
            .filter_map(|(shard, list, sub)| {
                let client = self.clients.get(shard)?;
                Some(Part {
                    shard,
                    list,
                    ticket: client.submit(sub, budget),
                })
            })
            .collect()
    }

    /// Split point ops by owning shard. Each share is one sequential copy
    /// of its keys (and values) into a batch of its own, in arrival order;
    /// a request whose keys one shard owns goes to that shard as it came.
    /// A write whose values do not pair up with its keys goes to shard 0
    /// whole, which refuses it.
    fn split_points(&self, op: SchedOp) -> Vec<(usize, Vec<usize>, SchedOp)> {
        let (keys, values) = match &op {
            SchedOp::Update(keys, values) | SchedOp::Insert(keys, values) => (keys, Some(values)),
            SchedOp::Lookup(keys) => (keys, None),
            SchedOp::Range(_) => return Vec::new(),
        };
        let lists = self.router.split_indices(keys);
        let mut active = lists
            .iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty());
        match (active.next(), active.next()) {
            (Some((shard, _)), None) => return vec![(shard, Vec::new(), op)],
            _ if op.unpaired().is_some() => return vec![(0, Vec::new(), op)],
            _ => {}
        }
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

    /// Send each range to every shard its bounds touch (inverted bounds
    /// touch none and stay empty in the merge).
    fn split_ranges(&self, ranges: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(usize, Vec<usize>, SchedOp)> {
        type Share = (Vec<usize>, Vec<(Vec<u8>, Vec<u8>)>);
        let mut shares: Vec<Share> = self.clients.iter().map(|_| Default::default()).collect();
        for (i, range) in ranges.iter().enumerate() {
            let (lo, hi) = range;
            if lo > hi {
                continue;
            }
            for (list, sub) in shares
                .iter_mut()
                .take(self.router.shard_of(hi) + 1)
                .skip(self.router.shard_of(lo))
            {
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
}

/// Scatter one shard's results back to the caller's arrival order: the
/// split's index lists are, concatenated, a permutation of the request,
/// and this applies its inverse shard by shard.
fn scatter(merged: &mut [u64], list: &[usize], results: Vec<u64>) {
    debug_assert_eq!(list.len(), results.len());
    for (&i, r) in list.iter().zip(results) {
        merged[i] = r;
    }
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
        Arc::new(CuartIndex::build(&art, &CuartConfig::for_tests()))
    }

    fn cfg() -> SchedulerConfig {
        SchedulerConfig {
            batch_target: 4096,
            deadline: Duration::from_micros(200),
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn spawn_on_no_devices_is_refused() {
        let index = build_index(16);
        match ShardedScheduler::spawn(index, &[], cfg()) {
            Err(SchedError::NoShards) => {}
            Err(other) => panic!("expected NoShards, got {other:?}"),
            Ok(_) => panic!("expected NoShards, got a scheduler"),
        }
    }

    #[test]
    fn mixed_fleet_lookup_matches_cpu_and_splits_work() {
        let index = build_index(8192);
        let devs = [
            devices::rtx3090(),
            devices::rtx3090(),
            devices::gtx1070(),
            devices::gtx1070(),
        ];
        let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, cfg()).unwrap();
        let client = sharded.client().unwrap();
        // Keys spanning the whole u64 top byte so all shards see traffic.
        let keys: Vec<Vec<u8>> = (0..2048u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes().to_vec())
            .chain((0..2048u64).map(|i| i.to_be_bytes().to_vec()))
            .collect();
        let expect: Vec<u64> = index
            .lookup_batch_cpu(&keys)
            .into_iter()
            .map(|r| r.unwrap_or(NOT_FOUND))
            .collect();
        let got = client.lookup(keys).unwrap();
        assert_eq!(got, expect);
        let stats = sharded.join().unwrap();
        assert_eq!(stats.routed_requests, 1);
        assert_eq!(stats.routed_keys, 4096);
        assert_eq!(stats.aggregate().keys_dispatched, 4096);
        let busy = stats
            .shards
            .iter()
            .filter(|s| s.stats.keys_dispatched > 0)
            .count();
        assert!(busy >= 2, "uniform keys must reach several shards");
    }

    #[test]
    fn updates_route_to_owning_shard_and_win_last() {
        let index = build_index(1024);
        let devs = [devices::rtx3090(), devices::gtx1070()];
        let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, cfg()).unwrap();
        let client = sharded.client().unwrap();
        // Duplicate keys inside one request: last write must win.
        let k = 7u64.to_be_bytes().to_vec();
        let ops = vec![(k.clone(), 111), (k.clone(), 222), (k.clone(), 333)];
        client.update(ops).unwrap();
        assert_eq!(client.lookup(vec![k]).unwrap(), vec![333]);
        sharded.join().unwrap();
    }

    #[test]
    fn sharded_range_spans_shards_and_sees_routed_updates() {
        let index = build_index(1024);
        let devs = [devices::rtx3090(), devices::gtx1070()];
        let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, cfg()).unwrap();
        let client = sharded.client().unwrap();
        // Two keys from opposite ends of the key space, so their owning
        // shards differ; the full-space range must merge both mutations.
        let lo_key = 3u64.to_be_bytes().to_vec();
        let hi_key = [0xFFu8; 8].to_vec();
        client
            .insert(vec![(lo_key.clone(), 111), (hi_key.clone(), 222)])
            .unwrap();
        let full = (vec![0u8], vec![0xFFu8; 9]);
        let rows = client.range(vec![full]).unwrap().remove(0);
        assert_eq!(rows.len(), 1025, "1024 built keys + 1 new insert");
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "sorted, deduped");
        assert!(rows.contains(&(lo_key, 111)));
        assert_eq!(rows.last().unwrap(), &(hi_key, 222));
        let stats = sharded.join().unwrap();
        assert_eq!(stats.routed_requests, 2);
    }

    /// A key owned by shard 1 of 2 (top bit set); absent from the index.
    fn high_key(i: u64) -> Vec<u8> {
        (i | 1 << 63).to_be_bytes().to_vec()
    }

    #[test]
    fn every_shard_holds_its_sub_batch_before_any_is_waited_on() {
        let index = build_index(64);
        let devs = [devices::rtx3090(), devices::gtx1070()];
        // An hour's linger and an unreachable size target: a shard only
        // answers when the fleet shuts down. Routing that waited on shard
        // 0 before submitting to shard 1 would never get that far.
        let held = SchedulerConfig {
            batch_target: 1_000_000,
            deadline: Duration::from_secs(3600),
            ..SchedulerConfig::default()
        };
        let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, held).unwrap();
        let client = sharded.client().unwrap();
        let low = |i: u64| i.to_be_bytes().to_vec();
        let keys = vec![low(1), high_key(1), low(2), high_key(2)];
        let ticket = client.submit(SchedOp::lookups(&keys), None);
        let stats = sharded.join().unwrap();
        for s in &stats.shards {
            assert_eq!(s.stats.ops_enqueued, 2, "shard {}: {:?}", s.shard, s.stats);
            assert_eq!(s.stats.final_flushes, 1, "shard {}: {:?}", s.shard, s.stats);
        }
        assert_eq!(
            ticket.wait().unwrap(),
            SchedAnswer::Values(vec![10, NOT_FOUND, 20, NOT_FOUND])
        );
    }

    #[test]
    fn a_refusing_shard_returns_its_error_while_the_other_executes() {
        let index = build_index(64);
        let devs = [devices::rtx3090(), devices::gtx1070()];
        let tight = SchedulerConfig {
            queue_cap: 2,
            admission: crate::scheduler::AdmissionPolicy::Reject,
            ..SchedulerConfig::default()
        };
        let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, tight).unwrap();
        let client = sharded.client().unwrap();
        // Shard 0's share (3 ops) is larger than its whole queue; shard
        // 1's share (1 op) fits.
        let low = |i: u64| (1000 + i).to_be_bytes().to_vec();
        let ops = vec![(low(1), 1), (low(2), 2), (high_key(7), 777), (low(3), 3)];
        assert_eq!(client.insert(ops), Err(SchedError::QueueFull));
        assert_eq!(client.lookup(vec![high_key(7)]).unwrap(), vec![777]);
        assert_eq!(client.lookup(vec![low(1)]).unwrap(), vec![NOT_FOUND]);
        let stats = sharded.join().unwrap();
        assert_eq!(stats.shards[0].stats.rejected_ops, 3);
        assert_eq!(stats.shards[1].stats.rejected_ops, 0);
    }

    #[test]
    fn empty_call_answers_without_touching_any_shard() {
        let index = build_index(16);
        let sharded =
            ShardedScheduler::spawn(Arc::clone(&index), &[devices::gtx1070()], cfg()).unwrap();
        let client = sharded.client().unwrap();
        assert_eq!(client.lookup(Vec::new()).unwrap(), Vec::<u64>::new());
        let stats = sharded.join().unwrap();
        assert_eq!(stats.routed_requests, 0);
        assert_eq!(stats.aggregate().batches, 0);
    }
}
