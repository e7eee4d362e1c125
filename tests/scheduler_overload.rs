//! Integration suite for the scheduler's overload-protection subsystem
//! (`cuart-host`): bounded admission, per-op deadline shedding, and the
//! fault circuit breaker.
//!
//! Four contracts are pinned here:
//!
//! 1. **Admission** — with `AdmissionPolicy::Reject` a saturated queue
//!    fails fast with `SchedError::QueueFull` while every *admitted* op
//!    is still answered byte-identically to the CPU engine; with
//!    `AdmissionPolicy::Block` nothing is lost and the resident backlog
//!    never exceeds the cap.
//! 2. **Shedding** — an op whose deadline cannot be met is answered
//!    `SchedError::DeadlineExceeded` at coalesce time (never dispatched)
//!    and counted in the `cuart.sched.shed` telemetry series.
//! 3. **Breaker** — under a deterministic device-fault storm the breaker
//!    walks `Closed → Open → HalfOpen → Closed`, service stays
//!    byte-identical to `lookup_batch_cpu` throughout (CPU-only service
//!    while open), and the walk is visible in the telemetry event ring
//!    in that order.
//! 4. **Shutdown** — racing producers against `join()` always resolves
//!    in a value or a clean `SchedError::Shutdown`, never a hang or a
//!    panic (loom-style repeated interleaving).

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::{
    AdmissionPolicy, BreakerConfig, SchedAnswer, SchedError, SchedOp, Scheduler, SchedulerConfig,
};
use cuart_telemetry::{names, Telemetry};
use std::sync::Arc;
use std::time::Duration;

/// Dense 8-byte keyed index: value = key * 3 + 1. Uses the small test
/// LUT so per-test session setup stays cheap.
fn build_index(n: u64) -> Arc<CuartIndex> {
    let mut art = Art::new();
    for i in 0..n {
        art.insert(&i.to_be_bytes(), i * 3 + 1).unwrap();
    }
    Arc::new(CuartIndex::build(&art, &CuartConfig::for_tests()))
}

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

#[test]
fn reject_saturation_fails_fast_and_serves_admitted_ops_exactly() {
    let index = build_index(4096);
    let cfg = SchedulerConfig {
        batch_target: 1_000_000,
        deadline: Duration::from_millis(2),
        queue_cap: 64,
        admission: AdmissionPolicy::Reject,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let producers = 4u64;
    let mut handles = Vec::new();
    for p in 0..producers {
        let client = sched.client().unwrap();
        let index = Arc::clone(&index);
        handles.push(std::thread::spawn(move || {
            let (mut served, mut rejected) = (0u64, 0u64);
            for round in 0..64u64 {
                let keys: Vec<Vec<u8>> = (0..32)
                    .map(|i: u64| {
                        key(p
                            .wrapping_mul(64)
                            .wrapping_add(round)
                            .wrapping_add(i.wrapping_mul(7))
                            % 4096)
                    })
                    .collect();
                match client.lookup(keys.clone()) {
                    Ok(got) => {
                        let expect: Vec<u64> = index
                            .lookup_batch_cpu(&keys)
                            .into_iter()
                            .map(|r| r.unwrap_or(NOT_FOUND))
                            .collect();
                        assert_eq!(got, expect, "producer {p} diverged at round {round}");
                        served += 32;
                    }
                    Err(SchedError::QueueFull) => rejected += 32,
                    Err(e) => panic!("unexpected error under Reject saturation: {e:?}"),
                }
            }
            (served, rejected)
        }));
    }
    let (mut served, mut rejected) = (0u64, 0u64);
    for h in handles {
        let (s, r) = h.join().unwrap();
        served += s;
        rejected += r;
    }
    let stats = sched.join().unwrap();
    assert_eq!(stats.ops_enqueued, served);
    assert_eq!(stats.keys_dispatched, served);
    assert_eq!(stats.rejected_ops, rejected);
    assert_eq!(
        served + rejected,
        producers * 64 * 32,
        "every op accounted for"
    );
    assert!(
        stats.max_resident_ops <= 64,
        "resident ops must never exceed the cap: {stats:?}"
    );
}

#[test]
fn block_saturation_loses_nothing_and_bounds_the_backlog() {
    let index = build_index(4096);
    let cfg = SchedulerConfig {
        batch_target: 1_000_000,
        deadline: Duration::from_millis(1),
        queue_cap: 128,
        admission: AdmissionPolicy::Block,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let producers = 4u64;
    let per_producer_rounds = 32u64;
    let mut handles = Vec::new();
    for p in 0..producers {
        let client = sched.client().unwrap();
        let index = Arc::clone(&index);
        handles.push(std::thread::spawn(move || {
            for round in 0..per_producer_rounds {
                // 64-op requests against a 128-op cap: producers serialize
                // at admission (backpressure) instead of failing.
                let keys: Vec<Vec<u8>> = (0..64)
                    .map(|i: u64| {
                        key(p
                            .wrapping_mul(997)
                            .wrapping_add(round.wrapping_mul(131))
                            .wrapping_add(i)
                            % 8192)
                    })
                    .collect();
                let expect: Vec<u64> = index
                    .lookup_batch_cpu(&keys)
                    .into_iter()
                    .map(|r| r.unwrap_or(NOT_FOUND))
                    .collect();
                let got = client.lookup(keys).expect("Block admission never refuses");
                assert_eq!(got, expect, "producer {p} diverged at round {round}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = producers * per_producer_rounds * 64;
    let stats = sched.join().unwrap();
    assert_eq!(stats.ops_enqueued, total);
    assert_eq!(stats.keys_dispatched, total);
    assert_eq!(stats.rejected_ops, 0);
    assert_eq!(stats.shed_ops, 0);
    assert!(
        stats.max_resident_ops <= 128,
        "resident ops must never exceed the cap: {stats:?}"
    );
}

#[test]
fn expired_ops_are_shed_not_dispatched_and_counted() {
    let telemetry = Arc::new(Telemetry::new());
    let mut art = Art::new();
    for i in 0..256u64 {
        art.insert(&i.to_be_bytes(), i * 3 + 1).unwrap();
    }
    let index = Arc::new(
        CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(Arc::clone(&telemetry)),
    );
    let cfg = SchedulerConfig {
        batch_target: 1_000_000,
        deadline: Duration::from_millis(1),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    // An already-expired deadline: the coalesce-time shed must answer
    // this before the flush dispatches anything.
    let expired = SchedOp::Lookup(vec![key(1), key(2)]);
    assert_eq!(
        client.submit(expired, Some(Duration::ZERO)).wait(),
        Err(SchedError::DeadlineExceeded)
    );
    // A healthy op through the same scheduler still gets a real answer.
    let healthy = SchedOp::Lookup(vec![key(3)]);
    assert_eq!(
        client.submit(healthy, Some(Duration::from_secs(10))).wait(),
        Ok(SchedAnswer::Values(vec![10]))
    );
    drop(client);
    let stats = sched.join().unwrap();
    assert_eq!(stats.shed_ops, 2);
    assert_eq!(stats.keys_dispatched, 1, "shed keys never reach the device");
    let snap = telemetry.snapshot();
    assert_eq!(snap.counters.get(names::SCHED_SHED), Some(&2));
}

#[test]
fn fault_storm_walks_the_breaker_and_stays_byte_equal_to_cpu() {
    use cuart_gpu_sim::{FaultConfig, FaultInjector};
    use cuart_telemetry::BatchKind;
    let telemetry = Arc::new(Telemetry::new());
    let mut art = Art::new();
    for i in 0..2048u64 {
        art.insert(&i.to_be_bytes(), i * 3 + 1).unwrap();
    }
    let index = Arc::new(
        CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(Arc::clone(&telemetry)),
    );
    // Deterministic storm: the first 8 fault-injector checks fail
    // unconditionally, everything after succeeds. Batch 1 burns its whole
    // retry budget (4 checks) and degrades; the recovery attempts of the
    // following batches and the half-open probes burn the rest; once the
    // range drains, a probe re-uploads and the breaker closes. The 20 ms
    // cooldown spans several 6 ms rounds, so some batches are served
    // while the breaker is pinned open (CPU-only) before each probe.
    let injector = FaultInjector::new(FaultConfig::uniform(0xB0BA, 0.0).fail_range(0, 8));
    let cfg = SchedulerConfig {
        batch_target: 1_000_000,
        deadline: Duration::from_millis(1),
        fault_injector: Some(injector),
        breaker: BreakerConfig {
            fault_threshold: 2,
            open_cooldown: Duration::from_millis(20),
            probe_batches: 2,
        },
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    // 40 rounds of 32 lookups; every answer — device path, degraded CPU
    // path, breaker-open pin, half-open probes — must match the CPU
    // engine bit for bit. Sleeps let the open cooldown elapse so probes
    // actually happen.
    for round in 0..40u64 {
        let keys: Vec<Vec<u8>> = (0..32).map(|i| key((round * 67 + i * 3) % 4096)).collect();
        let expect: Vec<u64> = index
            .lookup_batch_cpu(&keys)
            .into_iter()
            .map(|r| r.unwrap_or(NOT_FOUND))
            .collect();
        let got = client
            .lookup(keys)
            .expect("storm must never fail a request");
        assert_eq!(got, expect, "diverged from the CPU engine at round {round}");
        std::thread::sleep(Duration::from_millis(6));
    }
    drop(client);
    let stats = sched.join().unwrap();
    assert!(stats.breaker_trips >= 1, "the storm must trip: {stats:?}");
    assert!(stats.probe_batches >= 2, "{stats:?}");
    assert!(stats.breaker_open_batches >= 1, "{stats:?}");
    assert_eq!(stats.failed_batches, 0, "degrade/shed absorb every fault");

    let snap = telemetry.snapshot();
    assert!(
        snap.counters
            .get(names::SCHED_BREAKER_TRIPS)
            .copied()
            .unwrap_or(0)
            >= 1
    );
    assert!(
        snap.counters
            .get(names::SCHED_PROBE_BATCHES)
            .copied()
            .unwrap_or(0)
            >= 2
    );
    assert_eq!(
        snap.gauges.get(names::SCHED_BREAKER_STATE),
        Some(&0.0),
        "the breaker must end the run closed"
    );
    // The walk is visible in the event ring, in causal (seq) order:
    // trip → probe window → close, with the session's own recovery
    // (device image re-upload) in between.
    let seq_of = |kind: BatchKind| {
        snap.events
            .iter()
            .find(|ev| ev.kind == kind)
            .map(|ev| ev.seq)
            .unwrap_or_else(|| panic!("missing {kind} event; got {:?}", snap.events))
    };
    let open = seq_of(BatchKind::BreakerOpen);
    let half_open = seq_of(BatchKind::BreakerHalfOpen);
    let closed = seq_of(BatchKind::BreakerClosed);
    let recovered = seq_of(BatchKind::Recovered);
    assert!(open < half_open, "open before half-open");
    assert!(half_open < closed, "half-open before close");
    assert!(
        recovered < closed,
        "the image recovers before the breaker closes"
    );
}

#[test]
fn shutdown_race_always_resolves_to_a_value_or_clean_shutdown() {
    // Loom-style repeated interleaving at the integration level: two
    // producers hammer the scheduler while the main thread joins it at a
    // varying offset. Every in-flight call must resolve — a served value
    // or `SchedError::Shutdown` — never a hang, panic, or internal
    // channel error.
    let index = build_index(64);
    for round in 0..100u64 {
        let cfg = SchedulerConfig {
            batch_target: 16,
            deadline: Duration::from_micros(50),
            ..SchedulerConfig::default()
        };
        let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
        let mut producers = Vec::new();
        for p in 0..2u64 {
            let client = sched.client().unwrap();
            producers.push(std::thread::spawn(move || loop {
                match client.lookup_one(key(p + 3)) {
                    Ok(v) => assert_eq!(v, (p + 3) * 3 + 1),
                    Err(e) => return e,
                }
            }));
        }
        std::thread::sleep(Duration::from_micros(40 * (round % 9)));
        sched.join().unwrap();
        for h in producers {
            assert_eq!(h.join().unwrap(), SchedError::Shutdown, "round {round}");
        }
    }
}
