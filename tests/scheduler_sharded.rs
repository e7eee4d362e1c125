//! Integration suite for the sharded multi-device serving layer
//! (`cuart-host::sharded`).
//!
//! Six contracts are pinned here (the mixed workload a fleet serves is
//! checked against the one oracle by `tests/differential.rs` as well):
//!
//! 1. **Permutation identity** — the router's split is a stable
//!    permutation, and its split → dispatch → merge cycle answers every op
//!    exactly once, in arrival order, for random key sets (duplicates
//!    included) and any shard count, as the one oracle
//!    (`cuart_integration_tests::Model`) does.
//! 2. **Last write wins** — duplicate keys inside one routed update
//!    request resolve to the final write (§3.4), because every key maps
//!    to exactly one shard and shards serve their sub-batch in order.
//! 3. **Scale-out** — four homogeneous shards deliver at least 2.5× the
//!    modeled aggregate lookup throughput of one shard on the same
//!    workload (launch-overhead amortisation costs the rest of the 4×).
//! 4. **Telemetry** — per-shard `cuart.sched.shard.<i>.*` counters sum
//!    to the global `cuart.sched.*` totals, and every routed call leaves
//!    a `sched.route` span.
//! 5. **One submit contract** — a write whose values do not pair up with
//!    its keys is refused, before anything is queued or routed, by a lone
//!    scheduler, by spawned fleets of one and two, and by a lone scheduler
//!    served as a fleet of one.
//! 6. **Cross-kind order** — one producer's update ticket, then its
//!    lookup ticket, submitted without waiting in between: the lookup
//!    reads the update, and a range after an insert returns the new row,
//!    on a lone scheduler and on fleets of one to four devices.
//! 7. **One routing rule** — an inverted range belongs to the shard of its
//!    lower bound: it is queued once and answers empty on every stack.

use cuart::KeyBatch;
use cuart::{CuartConfig, CuartIndex, ShardRouter};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::{RangeRows, SchedAnswer, SchedError, SchedOp, SchedulerConfig, Ticket};
use cuart_host::sharded::{ShardedScheduler, ShardedStats};
use cuart_host::Scheduler;
use cuart_integration_tests::{mix, sized, Model};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Golden-ratio stride: `i * GOLDEN` walks the u64 space uniformly, so
/// keys built from it spread across every shard's prefix range.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Index over `n` keys spread across the whole u64 prefix space (so a
/// sharded fleet sees balanced traffic); value = i * 3 + 1.
fn build_spread_index(n: u64, cfg: &CuartConfig) -> (CuartIndex, Vec<Vec<u8>>) {
    let mut art = Art::new();
    let keys: Vec<Vec<u8>> = (0..n)
        .map(|i| i.wrapping_mul(GOLDEN).to_be_bytes().to_vec())
        .collect();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 * 3 + 1).unwrap();
    }
    (CuartIndex::build(&art, cfg), keys)
}

fn sharded_cfg(batch_target: usize) -> SchedulerConfig {
    SchedulerConfig {
        batch_target,
        deadline: Duration::from_micros(300),
        ..SchedulerConfig::default()
    }
}

/// The model of a spread index over `keys`.
fn spread_model(keys: &[Vec<u8>]) -> Model {
    (0..)
        .zip(keys)
        .map(|(i, k)| (k.clone(), i * 3 + 1))
        .collect()
}

#[test]
fn mixed_fleet_multi_producer_lookups_match_cpu_engine() {
    let total = sized(32 * 1024, 256 * 1024) as u64;
    let producers: u64 = 4;
    let per_producer = total / producers;
    let (index, stored) = build_spread_index(64 * 1024, &CuartConfig::default());
    let index = Arc::new(index);
    let devs = [
        devices::rtx3090(),
        devices::rtx3090(),
        devices::gtx1070(),
        devices::gtx1070(),
    ];
    let sharded =
        ShardedScheduler::spawn(Arc::clone(&index), &devs, sharded_cfg(8 * 1024)).unwrap();

    let mut handles = Vec::new();
    for p in 0..producers {
        let client = sharded.client().unwrap();
        let mut model = spread_model(&stored);
        handles.push(std::thread::spawn(move || {
            const CHUNK: usize = 1024;
            let mut done = 0u64;
            while done < per_producer {
                let count = CHUNK.min((per_producer - done) as usize);
                // Mix of hits (stored stride keys) and spread misses.
                let keys: Vec<Vec<u8>> = (0..count as u64)
                    .map(|i| {
                        let r = mix(p.wrapping_mul(GOLDEN) ^ (done + i));
                        let k = if r.is_multiple_of(2) {
                            (r % (64 * 1024)).wrapping_mul(GOLDEN)
                        } else {
                            r
                        };
                        k.to_be_bytes().to_vec()
                    })
                    .collect();
                let expect = model.lookup(&keys);
                let got = client.lookup(keys).expect("fleet alive");
                assert_eq!(got, expect, "producer {p} diverged at op {done}");
                done += count as u64;
            }
            done
        }));
    }
    let checked: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(checked, total);

    let stats = sharded.join().unwrap();
    assert_eq!(stats.routed_keys, total);
    let agg = stats.aggregate();
    assert_eq!(agg.ops_enqueued, total);
    assert_eq!(agg.keys_dispatched, total);
    let busy = stats
        .shards
        .iter()
        .filter(|s| s.stats.keys_dispatched > 0)
        .count();
    assert_eq!(busy, 4, "stride keys must reach every shard: {stats:?}");
}

#[test]
fn duplicate_key_updates_win_last_within_one_request() {
    let (index, keys) = build_spread_index(4096, &CuartConfig::for_tests());
    let mut model = spread_model(&keys);
    let index = Arc::new(index);
    let devs = [devices::rtx3090(), devices::gtx1070(), devices::gtx1070()];
    let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, sharded_cfg(4096)).unwrap();
    let client = sharded.client().unwrap();
    // Three duplicate groups, chosen to land on distinct shards, with the
    // writes of each group interleaved across the request.
    let router = ShardRouter::new(devs.len());
    let mut picks: Vec<Vec<u8>> = Vec::new();
    for shard in 0..devs.len() {
        let k = keys
            .iter()
            .find(|k| router.shard_of(k) == shard)
            .expect("stride keys cover every shard");
        picks.push(k.clone());
    }
    let mut ops: Vec<(Vec<u8>, u64)> = Vec::new();
    for round in 1..=3u64 {
        for (g, k) in picks.iter().enumerate() {
            ops.push((k.clone(), round * 100 + g as u64));
        }
    }
    let statuses = client.update(ops.clone()).unwrap();
    assert_eq!(statuses.len(), 9, "every op answered exactly once");
    assert_eq!(statuses, model.update(&ops), "rounds 1-2 lose to round 3");
    // Last write per key (round 3) must be the one that sticks.
    let got = client.lookup(picks.clone()).unwrap();
    assert_eq!(got, vec![300, 301, 302]);
    assert_eq!(got, model.lookup(&picks));
    sharded.join().unwrap();
}

#[test]
fn four_homogeneous_shards_scale_modeled_throughput() {
    let total: usize = if cfg!(debug_assertions) {
        32 * 1024
    } else {
        256 * 1024
    };
    let (index, stored) = build_spread_index(128 * 1024, &CuartConfig::default());
    let index = Arc::new(index);
    // A shuffled walk over stored keys: all hits, spread over all shards.
    let picks: Vec<u64> = (0..total as u64)
        .map(|i| mix(0xC0FFEE ^ i) % stored.len() as u64)
        .collect();
    let keys: Vec<Vec<u8>> = picks.iter().map(|&p| stored[p as usize].clone()).collect();
    let expect: Vec<u64> = picks.iter().map(|p| p * 3 + 1).collect();

    // One giant batch per shard: the request routes each shard its whole
    // sub-batch in one enqueue, so the size target (single-shard run)
    // or the short flush deadline (sub-target sharded runs) dispatches
    // it as exactly one batch — one launch per busy shard, and the
    // comparison isolates the split of modeled kernel time.
    let run = |shards: usize| {
        let devs = vec![devices::rtx3090(); shards];
        let cfg = SchedulerConfig {
            batch_target: total,
            deadline: Duration::from_micros(300),
            ..SchedulerConfig::default()
        };
        let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, cfg).unwrap();
        let client = sharded.client().unwrap();
        let got = client.lookup(keys.clone()).expect("fleet alive");
        assert_eq!(
            got, expect,
            "{shards}-shard results must be the stored values"
        );
        drop(client);
        sharded.join().unwrap()
    };
    let one = run(1);
    let four = run(4);

    assert_eq!(one.aggregate().keys_dispatched, total as u64);
    assert_eq!(four.aggregate().keys_dispatched, total as u64);
    assert_eq!(
        four.shards.iter().filter(|s| s.stats.batches > 0).count(),
        4
    );

    let mops_one = one.modeled_aggregate_mops();
    let mops_four = four.modeled_aggregate_mops();
    assert!(
        mops_four >= 2.5 * mops_one,
        "4 shards must deliver >= 2.5x modeled aggregate throughput: \
         1 shard {mops_one:.1} MOps/s, 4 shards {mops_four:.1} MOps/s"
    );
}

#[test]
fn per_shard_counters_sum_to_global_and_route_span_recorded() {
    use cuart_telemetry::{names, Telemetry};
    let telemetry = Arc::new(Telemetry::new());
    let (index, keys) = build_spread_index(8 * 1024, &CuartConfig::for_tests());
    let index = Arc::new(index.with_telemetry(Arc::clone(&telemetry)));
    let devs = [devices::rtx3090(), devices::gtx1070()];
    let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, sharded_cfg(1024)).unwrap();
    let client = sharded.client().unwrap();
    let requests = 8usize;
    let per_request = 512usize;
    for r in 0..requests {
        let batch: Vec<Vec<u8>> = keys[r * per_request..(r + 1) * per_request].to_vec();
        client.lookup(batch).unwrap();
    }
    drop(client);
    let stats = sharded.join().unwrap();

    let snap = telemetry.snapshot();
    let total = (requests * per_request) as u64;
    assert_eq!(
        snap.counters.get(names::SCHED_ROUTED_REQUESTS),
        Some(&(requests as u64))
    );
    assert_eq!(snap.counters.get(names::SCHED_ROUTED_KEYS), Some(&total));

    // Every mirrored counter: the per-shard twins must sum to the global
    // series exactly (the acceptance invariant for shard telemetry).
    for global in [
        names::SCHED_ENQUEUED,
        names::SCHED_BATCHES,
        names::SCHED_SORTED_BATCHES,
        names::SCHED_SIZE_FLUSHES,
        names::SCHED_DEADLINE_FLUSHES,
        names::SCHED_SHED,
        names::SCHED_REJECTED,
    ] {
        let global_total = snap.counters.get(global).copied().unwrap_or(0);
        let shard_sum: u64 = (0..devs.len())
            .map(|i| {
                snap.counters
                    .get(&names::sched_shard(i, global))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            shard_sum, global_total,
            "shard twins of {global} must sum to the global total"
        );
    }
    assert_eq!(
        snap.counters.get(names::SCHED_ENQUEUED).copied(),
        Some(total)
    );
    // Both shards saw traffic, so both twin series must exist.
    for i in 0..devs.len() {
        let twin = names::sched_shard(i, names::SCHED_ENQUEUED);
        assert!(
            snap.counters.get(&twin).copied().unwrap_or(0) > 0,
            "shard {i} saw traffic but {twin} is missing: {stats:?}"
        );
    }
    // Every routed call leaves a standalone `sched.route` span.
    let route_spans = snap
        .spans
        .iter()
        .filter(|s| s.name == "sched.route")
        .count();
    assert_eq!(route_spans, requests, "one sched.route span per call");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The router's split is a permutation: every index appears exactly
    /// once across the per-shard lists, each list is stably ordered, and
    /// each listed key really belongs to that shard.
    #[test]
    fn split_indices_is_a_stable_permutation(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..200),
        shards in 1usize..=5,
    ) {
        let router = ShardRouter::new(shards);
        let lists = router.split_indices(&keys);
        prop_assert_eq!(lists.len(), shards);
        let mut seen: Vec<usize> = Vec::new();
        for (shard, list) in lists.iter().enumerate() {
            for win in list.windows(2) {
                prop_assert!(win[0] < win[1], "stable split keeps arrival order");
            }
            for &i in list {
                prop_assert_eq!(router.shard_of(&keys[i]), shard);
                seen.push(i);
            }
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..keys.len()).collect::<Vec<_>>());
    }

    /// End to end: routed lookups over random key sets (duplicates and
    /// misses included) answer every op exactly once, in arrival order,
    /// as the one oracle does — for any fleet size.
    #[test]
    fn routed_lookups_match_cpu_for_any_fleet_size(
        picks in prop::collection::vec(0usize..512, 1..80),
        misses in prop::collection::vec(any::<u64>(), 0..40),
        shards in 1usize..=4,
    ) {
        let (index, stored) = build_spread_index(512, &CuartConfig::for_tests());
        let index = Arc::new(index);
        let keys: Vec<Vec<u8>> = picks
            .iter()
            .map(|&i| stored[i].clone())
            .chain(misses.iter().map(|m| m.to_be_bytes().to_vec()))
            .collect();
        let expect = spread_model(&stored).lookup(&keys);
        let devs = vec![devices::gtx1070(); shards];
        let sharded =
            ShardedScheduler::spawn(Arc::clone(&index), &devs, sharded_cfg(4096)).unwrap();
        let client = sharded.client().unwrap();
        let got = client.lookup(keys).expect("fleet alive");
        prop_assert_eq!(got, expect);
        drop(client);
        let stats = sharded.join().unwrap();
        prop_assert_eq!(stats.aggregate().keys_dispatched, (picks.len() + misses.len()) as u64);
    }
}

/// A lone scheduler, spawned fleets of one and two devices, and a lone
/// scheduler as a fleet of one, each behind one submit: the stacks
/// every serving path is built from.
enum Stack {
    Lone(Scheduler),
    Fleet(ShardedScheduler),
}

impl Stack {
    fn all(index: &Arc<CuartIndex>, cfg: &SchedulerConfig) -> Vec<(String, Stack)> {
        let lone = || Scheduler::spawn(Arc::clone(index), devices::gtx1070(), cfg.clone());
        let spawned = |n: usize| {
            let devs = vec![devices::rtx3090(); n];
            ShardedScheduler::spawn(Arc::clone(index), &devs, cfg.clone()).unwrap()
        };
        let mut stacks = vec![
            ("a lone scheduler".to_string(), Stack::Lone(lone())),
            (
                "a lone scheduler as a fleet".into(),
                Stack::Fleet(lone().into()),
            ),
        ];
        for n in 1..=4 {
            stacks.push((format!("a fleet of {n}"), Stack::Fleet(spawned(n))));
        }
        stacks
    }

    fn submit(&self, op: SchedOp) -> Ticket {
        match self {
            Stack::Lone(s) => s.client().unwrap().submit(op, None),
            Stack::Fleet(f) => f.client().unwrap().submit(op, None),
        }
    }

    /// Join, and the fleet's routing stats (none for a lone scheduler).
    fn join(self) -> (u64, Option<ShardedStats>) {
        match self {
            Stack::Lone(s) => (s.join().unwrap().ops_enqueued, None),
            Stack::Fleet(f) => {
                let stats = f.join().unwrap();
                (stats.aggregate().ops_enqueued, Some(stats))
            }
        }
    }
}

#[test]
fn an_unpaired_write_is_refused_by_every_stack_before_it_is_queued() {
    let (index, stored) = build_spread_index(256, &CuartConfig::for_tests());
    let index = Arc::new(index);
    let two_keys = KeyBatch::from_keys(stored.iter().take(2));
    let unpaired = [
        SchedOp::Update(KeyBatch::default(), vec![1, 2, 3]),
        SchedOp::Insert(KeyBatch::default(), vec![1, 2, 3]),
        SchedOp::Update(two_keys, vec![1, 2, 3]),
    ];
    for (name, stack) in Stack::all(&index, &SchedulerConfig::default()) {
        for op in &unpaired {
            match stack.submit(op.clone()).wait() {
                Err(SchedError::Session(_)) => {}
                other => panic!("{name}: {op:?} answered {other:?}"),
            }
        }
        let (enqueued, fleet) = stack.join();
        assert_eq!(enqueued, 0, "{name}: nothing is queued");
        if let Some(fleet) = fleet {
            assert_eq!(fleet.routed_requests, 0, "{name}: nothing is routed");
        }
    }
}

#[test]
fn a_producers_write_is_seen_by_its_next_read_on_every_stack() {
    let (index, stored) = build_spread_index(256, &CuartConfig::for_tests());
    let index = Arc::new(index);
    // A linger long enough that both of a producer's requests sit in one
    // flush: the executor cuts them into two same-kind runs, in order.
    let cfg = SchedulerConfig {
        deadline: Duration::from_millis(20),
        ..SchedulerConfig::default()
    };
    // Spread keys: each request reaches every shard of a fleet.
    let targets: Vec<Vec<u8>> = stored.iter().step_by(32).cloned().collect();
    let fresh: Vec<Vec<u8>> = (0..8u64)
        .map(|i| (i.wrapping_mul(GOLDEN) | 1).to_be_bytes().to_vec())
        .filter(|k| !stored.contains(k))
        .collect();
    let written = |base: u64, keys: &[Vec<u8>]| -> Vec<(Vec<u8>, u64)> {
        (base..).zip(keys).map(|(v, k)| (k.clone(), v)).collect()
    };
    let everything = (vec![0u8], vec![0xffu8; 9]);
    for (name, stack) in Stack::all(&index, &cfg) {
        let updates = written(1000, &targets);
        let update = stack.submit(SchedOp::updates(&updates));
        let lookup = stack.submit(SchedOp::lookups(&targets));
        assert!(update.wait().is_ok(), "{name}: update");
        let want: Vec<u64> = updates.iter().map(|&(_, v)| v).collect();
        assert_eq!(lookup.wait(), Ok(SchedAnswer::Values(want)), "{name}");

        let inserts = written(2000, &fresh);
        let insert = stack.submit(SchedOp::inserts(&inserts));
        let range = stack.submit(SchedOp::Range(vec![everything.clone()]));
        assert!(insert.wait().is_ok(), "{name}: insert");
        let rows = range.wait().unwrap().into_rows().unwrap().remove(0);
        assert_eq!(rows.len(), stored.len() + fresh.len(), "{name}");
        for row in &inserts {
            assert!(rows.contains(row), "{name}: the range misses {row:?}");
        }
        stack.join();
    }
}

#[test]
fn an_inverted_range_is_queued_once_and_answers_empty_on_every_stack() {
    let (index, _) = build_spread_index(256, &CuartConfig::for_tests());
    let index = Arc::new(index);
    // Lower bounds across the key space: on a fleet of two or more they
    // fall on different shards.
    let inverted: Vec<(Vec<u8>, Vec<u8>)> = (0..8u8)
        .map(|i| (vec![i * 32, 0xff], vec![i * 32, 0x00]))
        .collect();
    for (name, stack) in Stack::all(&index, &SchedulerConfig::default()) {
        let answer = stack.submit(SchedOp::Range(inverted.clone())).wait();
        let empty = vec![RangeRows::new(); inverted.len()];
        assert_eq!(answer, Ok(SchedAnswer::Rows(empty)), "{name}");
        let (enqueued, _) = stack.join();
        assert_eq!(
            enqueued,
            inverted.len() as u64,
            "{name}: every inverted range is queued once"
        );
    }
}
