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
//! * The key space is partitioned by the [`ShardRouter`](cuart::ShardRouter):
//!   the leading key bytes — the prefix the §3.3 compacted root indexes its
//!   LUT with — select the shard, so every shard owns a contiguous range of
//!   the root table and of the leaf arenas under it, and every key maps to
//!   exactly one shard (last-write-wins per key, §3.4, holds fleet-wide).
//! * The fleet's client is the one [`SchedulerClient`] over every shard's
//!   queue, which splits, submits and merges (the scheduler's `client`
//!   module); [`ShardedClient`] is that client under the fleet's name. A
//!   lone [`Scheduler`] converts into a fleet of one, whose client queues
//!   every request whole.
//!
//! Each shard of a spawned fleet — of one device too — mirrors its
//! counters and gauges to `cuart.sched.shard.<i>.*` (summing to the global
//! `cuart.sched.*` totals), and every request commits a `sched.route` span
//! with the fan-out. A lone scheduler, converted or not, writes neither.

use crate::scheduler::{
    Route, SchedError, Scheduler, SchedulerClient, SchedulerConfig, SchedulerStats,
};
use cuart::CuartIndex;
use cuart_gpu_sim::{DeviceConfig, FaultInjector};
use std::ops::Deref;
use std::sync::Arc;

/// Owning handle for a fleet of per-shard executors. Dropping it shuts
/// every shard down; [`join`](ShardedScheduler::join) does the same and
/// returns the per-shard and aggregate stats.
pub struct ShardedScheduler {
    shards: Vec<Scheduler>,
    /// The route accounting of a spawned fleet; `None` for a lone
    /// scheduler's fleet of one.
    route: Option<Arc<Route>>,
}

impl ShardedScheduler {
    /// Spawn one executor per device in `devices`, all serving `index`.
    /// Shard `i` runs on `devices[i]` under a copy of `cfg`, writing the
    /// `cuart.sched.shard.<i>.*` telemetry twins and, when a fault injector
    /// is configured, with a per-shard re-seeded copy so fault streams are
    /// independent across shards.
    pub fn spawn(
        index: Arc<CuartIndex>,
        devices: &[DeviceConfig],
        cfg: SchedulerConfig,
    ) -> Result<ShardedScheduler, SchedError> {
        if devices.is_empty() {
            return Err(SchedError::NoShards);
        }
        let route = Route::new(index.telemetry());
        let shards = devices
            .iter()
            .enumerate()
            .map(|(i, dev)| {
                let mut shard_cfg = cfg.clone();
                if let Some(inj) = &cfg.fault_injector {
                    let mut fc = inj.config().clone();
                    fc.seed = fc.seed.wrapping_add(i as u64);
                    shard_cfg.fault_injector = Some(FaultInjector::new(fc));
                }
                Scheduler::spawn_shard(Arc::clone(&index), *dev, shard_cfg, Some(i))
            })
            .collect();
        Ok(ShardedScheduler {
            shards,
            route: Some(Arc::new(route)),
        })
    }

    /// A new producer handle over the whole fleet. Fails with
    /// [`SchedError::Shutdown`] once any shard has been shut down.
    pub fn client(&self) -> Result<ShardedClient, SchedError> {
        SchedulerClient::over(&self.shards, self.route.clone()).map(ShardedClient)
    }

    /// Shut every shard down (FIFO drain, same contract as
    /// [`Scheduler::join`]) and return the per-shard stats. If a shard's
    /// executor panicked, the remaining shards are still joined before
    /// the first error is returned.
    pub fn join(self) -> Result<ShardedStats, SchedError> {
        let (routed_requests, routed_keys) = self.route.map_or((0, 0), |r| r.totals());
        let mut out = ShardedStats {
            shards: Vec::with_capacity(self.shards.len()),
            routed_requests,
            routed_keys,
        };
        let mut first_err = None;
        for (i, sched) in self.shards.into_iter().enumerate() {
            let device = sched.device;
            match sched.join() {
                Ok(stats) => out.shards.push(ShardStats {
                    shard: i,
                    device,
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

impl From<Scheduler> for ShardedScheduler {
    /// A lone scheduler as a fleet of one. Its client queues every request
    /// whole, and nothing routes: no route accounting, no shard twins.
    fn from(sched: Scheduler) -> ShardedScheduler {
        ShardedScheduler {
            shards: vec![sched],
            route: None,
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
    /// Requests a spawned fleet's clients queued (a refused or empty one
    /// is not); 0 for a lone scheduler's fleet of one.
    pub routed_requests: u64,
    /// Ops in those requests.
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

/// A fleet's producer handle: the one [`SchedulerClient`], over every
/// shard's queue, under the fleet's name. It has no behaviour of its own;
/// everything is the wrapped client's, through `Deref`. It stays a type
/// of its own because `benchmark/src/stack.rs` implements its caller
/// trait for both client types (ROADMAP item 4).
#[derive(Clone)]
pub struct ShardedClient(pub SchedulerClient);

impl Deref for ShardedClient {
    type Target = SchedulerClient;

    fn deref(&self) -> &SchedulerClient {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{SchedAnswer, SchedOp};
    use cuart::{CuartConfig, CuartIndex};
    use cuart_art::Art;
    use cuart_gpu_sim::batch::NOT_FOUND;
    use cuart_gpu_sim::devices;
    use std::time::Duration;

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
    fn a_request_one_shard_owns_goes_whole_to_that_shard() {
        let index = build_index(64);
        let devs = [devices::rtx3090(), devices::gtx1070()];
        let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, cfg()).unwrap();
        let client = sharded.client().unwrap();
        // Keys and ranges of shard 1's half of the key space only, an
        // inverted range among them.
        client
            .insert(vec![(high_key(1), 11), (high_key(2), 22)])
            .unwrap();
        let lookups = vec![high_key(2), high_key(3), high_key(1)];
        assert_eq!(client.lookup(lookups).unwrap(), vec![22, NOT_FOUND, 11]);
        let ranges = vec![(high_key(0), high_key(9)), (high_key(9), high_key(0))];
        let rows = client.range(ranges).unwrap();
        let inserted = vec![(high_key(1), 11), (high_key(2), 22)];
        assert_eq!(rows, vec![inserted, Vec::new()]);
        let stats = sharded.join().unwrap();
        assert_eq!(stats.routed_requests, 3);
        assert_eq!(stats.shards[0].stats.ops_enqueued, 0, "shard 0 sees none");
        assert_eq!(stats.shards[1].stats.ops_enqueued, 2 + 3 + 2);
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
