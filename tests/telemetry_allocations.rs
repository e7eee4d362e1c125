//! Heap allocations of the telemetry hot path, counted by the one
//! `CountingAllocator` installed as this binary's global allocator.
//!
//! A bump through a held handle is an atomic op, and a span-tree commit
//! moves the tree into the span ring: neither may allocate. A warm
//! scheduler request may allocate only what it allocates with no registry
//! attached plus the `Vec`s of its `sched.batch.*` tree and its
//! `sched.route` span — a `format!` of a series name or a map on the
//! per-batch path fails here.
//! One test only: the counter is process-wide.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_host::{SchedulerConfig, ShardedScheduler};
use cuart_integration_tests::{allocations_of, CountingAllocator};
use cuart_telemetry::{names, AttrValue, SpanNode, Telemetry};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A `sched.batch.lookup`-shaped tree: static names, typed attributes.
fn batch_tree(keys: u64) -> SpanNode {
    SpanNode::node(
        names::spans::SCHED_BATCH_LOOKUP,
        vec![
            SpanNode::leaf(names::spans::H2D, 8 * keys).with_attr("bytes", 8 * keys),
            SpanNode::node(
                names::spans::KERNEL,
                vec![
                    SpanNode::leaf(names::spans::DRAM, 3 * keys),
                    SpanNode::leaf(names::spans::EXEC, 5 * keys),
                ],
            )
            .with_attr("l2_hit_rate", AttrValue::Ratio(0.75)),
            SpanNode::leaf(names::spans::D2H, 4 * keys),
        ],
    )
    .with_attr("keys", keys)
    .with_attr("sorted", true)
}

/// `Vec`s of one `sched.batch.*` tree: the root's children and
/// attributes, the attributes of `h2d` and `d2h`, and the `kernel`
/// subtree's children plus the attributes of `kernel`, `dram` and `exec`.
const SCHED_TREE_VECS: u64 = 8;

/// `Vec`s of one `sched.route` span: the leaf's attributes.
const ROUTE_SPAN_VECS: u64 = 1;

/// Allocations of each of `rounds` sequential 32-key lookups through a
/// warm fleet of one device on `index`: its shard 0 writes every counter
/// and gauge bump to its `cuart.sched.shard.0.*` twin too, and the fleet
/// routes every request.
fn scheduler_request_allocations(index: &Arc<CuartIndex>, rounds: usize) -> Vec<u64> {
    let sched = ShardedScheduler::spawn(
        Arc::clone(index),
        &[devices::gtx1070()],
        SchedulerConfig::default(),
    )
    .unwrap();
    let client = sched.client().unwrap();
    let request = |i: usize| -> Vec<Vec<u8>> {
        (0..32u64)
            .map(|k| (k * 64 + i as u64 % 64).to_be_bytes().to_vec())
            .collect()
    };
    // Warm-up: channel and queue capacity, session staging, the rings'
    // and the critical-stage cache's first entries.
    for i in 0..64 {
        client.lookup(request(i)).unwrap();
    }
    let counts = (0..rounds)
        .map(|i| {
            let keys = request(i);
            allocations_of(|| client.lookup(keys).unwrap()).0
        })
        .collect();
    drop(client);
    sched.join().unwrap();
    counts
}

#[test]
fn held_handles_and_span_commits_do_not_allocate() {
    let t = Telemetry::with_capacities(16, 32);
    let counter = t.counter(names::SCHED_BATCHES);
    let gauge = t.gauge(names::SCHED_QUEUE_DEPTH);
    let histogram = t.histogram(names::SCHED_BATCH_FILL);
    let (bumps, ()) = allocations_of(|| {
        for i in 0..1000u64 {
            counter.incr(1);
            gauge.set(i as f64);
            histogram.observe(i);
        }
    });
    assert_eq!(bumps, 0, "held-handle bumps allocated {bumps}×");

    // Fill the 32-span ring (5 spans a tree) and let `h2d`, the dominant
    // stage, resolve its critical counter.
    for k in 1..=8 {
        t.record_span_tree(batch_tree(k));
    }
    assert!(t.snapshot().spans_dropped > 0, "span ring full");
    for k in 9..=100 {
        let tree = batch_tree(k);
        let (commit, _) = allocations_of(|| t.record_span_tree(tree));
        assert_eq!(commit, 0, "span-tree commit {k} allocated {commit}×");
    }
    let snap = t.snapshot();
    assert_eq!(snap.counters["cuart.trace.critical.h2d"], 100);
    assert_eq!(snap.counters[names::SCHED_BATCHES], 1000);

    // The executor's serial path: a 32-key request with a registry
    // attached allocates what it does without one, plus its tree.
    let mut art = Art::new();
    for i in 0..4096u64 {
        art.insert(&i.to_be_bytes(), i).unwrap();
    }
    let plain = CuartIndex::build(&art, &CuartConfig::for_tests());
    // Rings the warm-up fills, as a long-running server's are.
    let registry = Arc::new(Telemetry::with_capacities(16, 64));
    let traced = plain.clone().with_telemetry(registry);
    let plain = scheduler_request_allocations(&Arc::new(plain), 16);
    let traced = scheduler_request_allocations(&Arc::new(traced), 16);
    let (plain_max, traced_max) = (plain.iter().max(), traced.iter().max());
    let (plain_min, traced_min) = (plain.iter().min(), traced.iter().min());
    assert_eq!(plain_min, plain_max, "plain requests: {plain:?}");
    assert_eq!(traced_min, traced_max, "traced requests: {traced:?}");
    assert!(
        traced[0] <= plain[0] + SCHED_TREE_VECS + ROUTE_SPAN_VECS,
        "traced request allocated {}× (plain: {}×)",
        traced[0],
        plain[0]
    );
}
