//! Heap allocations per `CuartSession` batch, counted by this binary's own
//! global allocator.
//!
//! The simulator's launch state (trace arena, timing scratch) and the
//! session's staging are reused across batches, keys are packed from where
//! the caller put them, and kernel reads are heap-free — so once a session
//! is warm, a batch call allocates a handful of times (its result vector,
//! its index list, the per-phase DRAM model) however many keys it carries.
//! A batch large enough to split across host threads allocates no more:
//! the launcher's helper threads persist, and each part's scratch is
//! reused like the serial pass's.
//! With a telemetry registry attached the same holds: the session bumps
//! handles it resolved at open and commits its span tree by move, so the
//! only extra allocations are the `Vec`s of that tree.
//! One test only: the counter is process-wide.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_telemetry::Telemetry;
use cuart_workloads::uniform_keys;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `Vec`s of one `batch.lookup` / `batch.update` span tree: the root's
/// children and attributes, the attributes of `h2d` and `d2h`, and the
/// `kernel` subtree's children plus the attributes of `kernel`, `dram`
/// and `exec`.
const SPAN_TREE_VECS: u64 = 8;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_session_batches_allocate_a_constant_number_of_times() {
    let keys = uniform_keys(40_000, 8, 5);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    let index = CuartIndex::build(&art, &CuartConfig::for_tests());
    let mut session = index.device_session(&devices::rtx3090());

    let small = &keys[..1 << 10];
    let large = &keys[8 << 10..16 << 10];
    // 32 Ki keys, `direct-batch`'s batch: a launch that splits across the
    // host's threads on any host with more than one.
    let split = &keys[..32 << 10];
    // Warm-up: the largest batch sizes staging, arena and scratch.
    session.lookup_batch(large).unwrap();
    // And the split batch spawns the launcher's helper threads and sizes
    // every part's arena and scratch.
    session.lookup_batch(split).unwrap();
    let lookup_small = allocations_of(|| drop(session.lookup_batch(small).unwrap()));
    let lookup_large = allocations_of(|| drop(session.lookup_batch(large).unwrap()));
    assert_eq!(
        lookup_small, lookup_large,
        "1 Ki-key vs 8 Ki-key lookup_batch"
    );
    assert!(lookup_large <= 4, "lookup_batch allocated {lookup_large}×");
    let lookup_split = allocations_of(|| drop(session.lookup_batch(split).unwrap()));
    assert_eq!(
        lookup_small, lookup_split,
        "1 Ki-key vs 32 Ki-key (split) lookup_batch"
    );

    let ops = |keys: &[Vec<u8>]| -> Vec<(Vec<u8>, u64)> {
        keys.iter().map(|k| (k.clone(), 42)).collect()
    };
    let (small_ops, large_ops) = (ops(small), ops(large));
    session.update_batch(&large_ops).unwrap();
    let update_small = allocations_of(|| drop(session.update_batch(&small_ops).unwrap()));
    let update_large = allocations_of(|| drop(session.update_batch(&large_ops).unwrap()));
    assert_eq!(
        update_small, update_large,
        "1 Ki-op vs 8 Ki-op update_batch"
    );
    assert!(update_large <= 6, "update_batch allocated {update_large}×");

    // The telemetry-attached twin, span recording on. Small rings; the
    // warm-up fills the span ring, as a long-running server does, and
    // leaves the event ring empty, which no batch writes. The
    // warm-up also runs both sizes once, because the first tree a stage
    // dominates resolves that stage's critical-path counter.
    let telemetry = Arc::new(Telemetry::with_capacities(16, 64));
    let traced = index.clone().with_telemetry(Arc::clone(&telemetry));
    let mut session = traced.device_session(&devices::rtx3090());
    for _ in 0..8 {
        session.lookup_batch(large).unwrap();
        session.lookup_batch(small).unwrap();
        session.update_batch(&large_ops).unwrap();
        session.update_batch(&small_ops).unwrap();
    }
    let snap = telemetry.snapshot();
    assert!(
        snap.spans_dropped > 0 && snap.events.is_empty(),
        "span ring full, event ring untouched"
    );
    let traced_small = allocations_of(|| drop(session.lookup_batch(small).unwrap()));
    let traced_large = allocations_of(|| drop(session.lookup_batch(large).unwrap()));
    assert_eq!(
        traced_small, traced_large,
        "1 Ki-key vs 8 Ki-key lookup_batch with telemetry"
    );
    assert!(
        traced_large <= lookup_large + SPAN_TREE_VECS,
        "traced lookup_batch allocated {traced_large}× (plain: {lookup_large}×)"
    );
    let traced_small = allocations_of(|| drop(session.update_batch(&small_ops).unwrap()));
    let traced_large = allocations_of(|| drop(session.update_batch(&large_ops).unwrap()));
    assert_eq!(
        traced_small, traced_large,
        "1 Ki-op vs 8 Ki-op update_batch with telemetry"
    );
    assert!(
        traced_large <= update_large + SPAN_TREE_VECS,
        "traced update_batch allocated {traced_large}× (plain: {update_large}×)"
    );
}
