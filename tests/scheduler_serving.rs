//! Integration suite for the concurrent batch scheduler (`cuart-host`).
//!
//! Two contracts are pinned here (what the scheduler answers is checked
//! against the one oracle by `tests/differential.rs`):
//!
//! 1. **Locality** — the scheduler packs every batch in sorted key order,
//!    which must beat the same keys in arrival order (one session call,
//!    no scheduler) on the simulator's memory model: strictly fewer DRAM
//!    transactions and strictly less modeled kernel time. This is the
//!    measurable §3.1 coalescing win the sorted-batch path exists for.
//! 2. **Telemetry** — a scheduler run records the `cuart.sched.*` series
//!    into the session's registry.

use cuart::{CuartConfig, CuartIndex};
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::{Scheduler, SchedulerConfig, SchedulerStats};
use cuart_integration_tests::{dense_index, mix};
use std::sync::Arc;
use std::time::Duration;

/// Run one scheduler over `keys` as a single giant batch and return stats.
fn one_batch_stats(index: &Arc<CuartIndex>, keys: &[Vec<u8>]) -> SchedulerStats {
    let cfg = SchedulerConfig {
        batch_target: keys.len(), // flush exactly when the request lands
        deadline: Duration::from_secs(3600),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    let expect_some_hits = client.lookup(keys.to_vec()).expect("scheduler alive");
    assert!(expect_some_hits.iter().any(|&r| r != NOT_FOUND));
    drop(client);
    let stats = sched.join().unwrap();
    assert_eq!(stats.batches, 1, "one request, one flush: {stats:?}");
    assert_eq!(stats.sorted_batches, 1, "{stats:?}");
    stats
}

#[test]
fn sorted_batches_beat_arrival_order_on_the_memory_model() {
    // Big enough that the tree does NOT fit the GTX 1070's 2 MiB L2: with
    // capacity pressure, arrival-order batches thrash (large reuse
    // distances) while sorted batches keep each subtree hot. An
    // L2-resident tree would hide the win — every order then pays only
    // compulsory misses.
    let n: u64 = 512 * 1024;
    let index = Arc::new(dense_index(n, &CuartConfig::default()));
    // A shuffled walk over the whole key range: arrival order carries no
    // locality, sorted order recovers all of it.
    let mut keys: Vec<Vec<u8>> = (0..n).map(|i| i.to_be_bytes().to_vec()).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, (mix(0xC0FFEE ^ i as u64) % (i as u64 + 1)) as usize);
    }
    let batch = &keys[..16 * 1024];

    let sorted = one_batch_stats(&index, batch);
    // The control: the same keys in arrival order through a fresh session
    // on the same device, which is the batch the scheduler would run
    // without its sort (its report matched the arrival-order scheduler's
    // stats field for field, kernel time bit for bit).
    let (_, unsorted) = index
        .device_session(&devices::gtx1070())
        .lookup_batch(batch)
        .unwrap();

    assert_eq!(sorted.keys_dispatched, batch.len() as u64);
    // Identical per-lane work…
    assert_eq!(sorted.raw_accesses, unsorted.raw_accesses);
    // …but sorted packing puts neighboring tree paths in the same warp, so
    // per-warp sector dedup (the §3.1 coalescing model) collapses far more
    // of it. This is the locality win, asserted strictly.
    assert!(
        sorted.sectors < unsorted.sectors,
        "sorted packing must coalesce into fewer memory sectors: \
         sorted {} vs unsorted {}",
        sorted.sectors,
        unsorted.sectors
    );
    assert!(
        sorted.kernel_time_ns < unsorted.time_ns,
        "sorted packing must be faster on the modeled kernel: \
         sorted {:.0} ns vs unsorted {:.0} ns",
        sorted.kernel_time_ns,
        unsorted.time_ns
    );
    // Under L2 capacity pressure the coalescing win reaches DRAM too:
    // sorted batches keep subtrees hot, arrival order thrashes.
    assert!(
        sorted.dram_transactions < unsorted.dram_transactions,
        "sorted packing must cut DRAM traffic under L2 pressure: \
         sorted {} vs unsorted {}",
        sorted.dram_transactions,
        unsorted.dram_transactions
    );
}

#[test]
fn scheduler_records_sched_telemetry_series() {
    use cuart_telemetry::{names, Telemetry};
    let telemetry = Arc::new(Telemetry::new());
    let index = dense_index(4096, &CuartConfig::default()).with_telemetry(telemetry.clone());
    let index = Arc::new(index);
    let cfg = SchedulerConfig {
        batch_target: 512,
        deadline: Duration::from_micros(200),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    let keys: Vec<Vec<u8>> = (0..512u64).map(|i| i.to_be_bytes().to_vec()).collect();
    client.lookup(keys).unwrap();
    drop(client);
    let stats = sched.join().unwrap();

    let snap = telemetry.snapshot();
    assert_eq!(snap.counters.get(names::SCHED_ENQUEUED), Some(&512));
    assert_eq!(
        snap.counters.get(names::SCHED_BATCHES).copied(),
        Some(stats.batches)
    );
    assert_eq!(
        snap.counters.get(names::SCHED_SORTED_BATCHES).copied(),
        Some(stats.sorted_batches)
    );
    assert!(
        snap.counters.contains_key(names::SCHED_SIZE_FLUSHES)
            || snap.counters.contains_key(names::SCHED_DEADLINE_FLUSHES),
        "at least one flush kind must be recorded: {:?}",
        snap.counters
    );
    assert!(
        snap.histograms.contains_key(names::SCHED_BATCH_FILL),
        "batch fill histogram missing: {:?}",
        snap.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        snap.histograms.contains_key(names::SCHED_QUEUE_LATENCY_NS),
        "queue latency histogram missing"
    );
}

#[test]
fn session_staging_survives_shrinking_batches_through_the_scheduler() {
    // Regression companion to the batch-level staging test in
    // `cuart-gpu-sim`: one executor session serves a large batch and then
    // a much smaller one, reusing its staging buffers. The small batch
    // must see only its own keys and results.
    let index = Arc::new(dense_index(8192, &CuartConfig::default()));
    let cfg = SchedulerConfig {
        batch_target: 1024 * 1024,
        deadline: Duration::from_micros(100),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    let big: Vec<Vec<u8>> = (0..4096u64).map(|i| i.to_be_bytes().to_vec()).collect();
    let big_results = client.lookup(big).unwrap();
    assert!(big_results.iter().all(|&r| r != NOT_FOUND));
    // Now a 3-key batch into the same (oversized) staging buffer.
    let small = vec![
        7u64.to_be_bytes().to_vec(),
        999_999u64.to_be_bytes().to_vec(), // miss
        8191u64.to_be_bytes().to_vec(),
    ];
    let small_results = client.lookup(small).unwrap();
    assert_eq!(small_results, vec![7 * 3 + 1, NOT_FOUND, 8191 * 3 + 1]);
    drop(client);
    sched.join().unwrap();
}
