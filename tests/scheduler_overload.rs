//! Integration suite for the scheduler's overload-protection subsystem
//! (`cuart-host`): bounded admission, per-op deadline shedding and the
//! shutdown race.
//!
//! Three contracts are pinned here (the breaker storm runs in
//! `tests/differential.rs`, where every answer meets the one oracle):
//!
//! 1. **Admission** — with `AdmissionPolicy::Reject` a saturated queue
//!    fails fast with `SchedError::QueueFull` while every *admitted* op
//!    is still answered with the stored value; with
//!    `AdmissionPolicy::Block` nothing is lost and the resident backlog
//!    never exceeds the cap.
//! 2. **Shedding** — an op whose deadline cannot be met is answered
//!    `SchedError::DeadlineExceeded` at coalesce time (never dispatched)
//!    and counted in the `cuart.sched.shed` telemetry series.
//! 3. **Shutdown** — racing producers against `join()` always resolves
//!    in a value or a clean `SchedError::Shutdown`, never a hang or a
//!    panic (loom-style repeated interleaving).

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::{
    AdmissionPolicy, SchedAnswer, SchedError, SchedOp, Scheduler, SchedulerConfig,
};
use cuart_integration_tests::dense_index;
use cuart_telemetry::{names, Telemetry};
use std::sync::Arc;
use std::time::Duration;

/// A dense index (`cuart_integration_tests::dense_index`) on the small
/// test LUT, so per-test session setup stays cheap.
fn build_index(n: u64) -> Arc<CuartIndex> {
    Arc::new(dense_index(n, &CuartConfig::for_tests()))
}

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

/// What `build_index(n)` stores under `key`.
fn stored(key: &[u8], n: u64) -> u64 {
    let i = u64::from_be_bytes(key.try_into().expect("an 8-byte key"));
    if i < n {
        i * 3 + 1
    } else {
        NOT_FOUND
    }
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
        handles.push(std::thread::spawn(move || {
            let (mut served, mut rejected) = (0u64, 0u64);
            for round in 0..64u64 {
                let keys: Vec<Vec<u8>> = (0..32)
                    .map(|i: u64| key((p * 64 + round + i * 7) % 4096))
                    .collect();
                match client.lookup(keys.clone()) {
                    Ok(got) => {
                        let expect: Vec<u64> = keys.iter().map(|k| stored(k, 4096)).collect();
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
        handles.push(std::thread::spawn(move || {
            for round in 0..per_producer_rounds {
                // 64-op requests against a 128-op cap: producers serialize
                // at admission (backpressure) instead of failing.
                let keys: Vec<Vec<u8>> = (0..64)
                    .map(|i: u64| key((p * 997 + round * 131 + i) % 8192))
                    .collect();
                let expect: Vec<u64> = keys.iter().map(|k| stored(k, 4096)).collect();
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
    let expired = SchedOp::lookups(&[key(1), key(2)]);
    assert_eq!(
        client.submit(expired, Some(Duration::ZERO)).wait(),
        Err(SchedError::DeadlineExceeded)
    );
    // A healthy op through the same scheduler still gets a real answer.
    let healthy = SchedOp::lookups(&[key(3)]);
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
