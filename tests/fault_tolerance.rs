//! Fault-tolerance integration suite: the retry → degrade → recover
//! session loop under a deterministic device-fault injector, every answer
//! checked by the one harness (`cuart_integration_tests`) in every `Mode`.

use cuart::{CuartConfig, Mode};
use cuart_gpu_sim::{devices, FaultConfig, FaultInjector};
use cuart_integration_tests::{dense_index, Cell, Harness};
use cuart_telemetry::{names, BatchKind, Telemetry, DEFAULT_EVENT_CAPACITY};
use proptest::prelude::*;
use std::slice;
use std::sync::Arc;

/// Universe ids of every session cell here.
const UNIVERSE: u64 = 2048;

/// A session cell of `lookups` keys in requests of 128 (writes carry 16
/// ops, ranges 8).
fn cell(seed: u64, lookups: usize) -> Cell {
    Cell::new(seed, lookups, 128)
}

/// The acceptance drill: a 5 % per-op fault rate plus one scheduled
/// burst long enough to exhaust the retry budget. The session answers every
/// op like the model, retries at least once, degrades at least once and
/// recovers at least once — and the telemetry trace shows the Degraded →
/// Recovered transition.
#[test]
fn five_percent_fault_rate_never_corrupts_and_recovers() {
    let telemetry = Arc::new(Telemetry::new());
    let mut h = Harness::new(UNIVERSE, 1, false, Some(&telemetry));
    let index = Arc::clone(&h.index);
    // The burst at ops [30, 46) covers 16 consecutive device ops — more
    // than the default 4-attempt budget can absorb.
    let injector = FaultInjector::new(FaultConfig::uniform(0x5EED, 0.05).fail_range(30, 46));
    let mut session = index.device_session_with_faults(&devices::rtx3090(), injector);
    h.run(slice::from_mut(&mut session), cell(1, 4096));

    let stats = session.fault_stats();
    assert!(stats.injected > 0, "5% rate should have fired");
    assert!(
        stats.retries > 0,
        "transient faults should have been retried"
    );
    assert!(stats.degradations >= 1, "the burst should have degraded");
    assert!(stats.recoveries >= 1, "a later batch should have recovered");

    let snap = telemetry.snapshot();
    assert!(snap.counters[names::FAULTS_INJECTED] > 0);
    assert!(snap.counters[names::FAULT_RETRIES] > 0);
    let first = |kind| snap.events.iter().position(|e| e.kind == kind);
    match (first(BatchKind::Degraded), first(BatchKind::Recovered)) {
        (Some(d), Some(r)) => assert!(d < r, "Degraded must precede Recovered"),
        other => panic!("expected a Degraded -> Recovered transition, got {other:?}"),
    }
}

/// The event ring holds state transitions only: a session that degrades,
/// recovers and then serves twice the ring's capacity in device batches
/// still shows exactly its Degraded → Recovered pair, nothing evicted.
#[test]
fn transitions_outlive_a_ring_full_of_batches() {
    let telemetry = Arc::new(Telemetry::new());
    let index = dense_index(32, &CuartConfig::for_tests()).with_telemetry(telemetry.clone());
    let injector = FaultInjector::new(FaultConfig::uniform(7, 0.0).fail_range(0, 8));
    let mut session = index.device_session_with_faults(&devices::rtx3090(), injector);
    let keys: Vec<Vec<u8>> = (0..32u64).map(|i| i.to_be_bytes().to_vec()).collect();
    for _ in 0..2 * DEFAULT_EVENT_CAPACITY {
        let (values, _) = session.lookup_batch(&keys).unwrap();
        assert_eq!(values, (0..32).map(|i| i * 3 + 1).collect::<Vec<u64>>());
    }
    assert_eq!(session.mode(), Mode::Device);

    let snap = telemetry.snapshot();
    let kinds: Vec<BatchKind> = snap.events.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, [BatchKind::Degraded, BatchKind::Recovered]);
    assert_eq!(snap.events_dropped, 0);
}

/// Even an injector that fails *every* device op must not take the
/// service down: the very first batch exhausts its retries, the session
/// degrades, and everything — lookups, updates, deletes, inserts, ranges —
/// is served like the model by the CPU path.
#[test]
fn total_device_loss_degrades_but_serves_correctly() {
    let mut h = Harness::new(UNIVERSE, 1, false, None);
    let index = Arc::clone(&h.index);
    let injector = FaultInjector::new(FaultConfig::uniform(1, 1.0));
    let mut session = index.device_session_with_faults(&devices::gtx1070(), injector);
    h.run(slice::from_mut(&mut session), cell(2, 2048));
    let stats = session.fault_stats();
    assert!(stats.degraded, "session must still be degraded");
    assert!(stats.recoveries == 0, "nothing can recover at rate 1.0");
    assert!(stats.degradations >= 1);
}

/// Identical seeds must replay identical fault schedules: the whole
/// drill — stats included — is deterministic.
#[test]
fn fault_schedules_replay_deterministically() {
    let run = || {
        let mut h = Harness::new(UNIVERSE, 1, false, None);
        let index = Arc::clone(&h.index);
        let injector = FaultInjector::new(FaultConfig::uniform(0xC0FFEE, 0.08));
        let mut session = index.device_session_with_faults(&devices::rtx3090(), injector);
        h.run(slice::from_mut(&mut session), cell(3, 2048));
        session.fault_stats()
    };
    assert_eq!(run(), run(), "same seed must replay the same schedule");
}

/// The mode walk: one session through every [`Mode`] it can be in —
/// device, total loss (degraded), pinned, released and recovered — answers
/// like the model in each, with the writes of the earlier steps still
/// visible, and `fault_stats()` reports each transition once.
#[test]
fn every_mode_answers_every_kind_like_the_model() {
    let mut h = Harness::new(UNIVERSE, 1, false, None);
    let index = Arc::clone(&h.index);
    // A silent injector from the start keeps the journal from the first
    // mutation on; shadowing is what a caller that pins must switch on.
    let mut session =
        index.device_session_with_faults(&devices::rtx3090(), FaultInjector::uniform(7, 0.0));
    session.set_journal_shadowing(true);

    h.run(slice::from_mut(&mut session), cell(4, 8192));
    assert_eq!(session.mode(), Mode::Device);
    assert!(session.overflow_len() > 0, "over-stride inserts park");
    assert_eq!(session.fault_stats(), cuart::FaultStats::default());
    assert!(
        session.device_memory().owned_bytes() > 0,
        "device writes own image chunks"
    );

    // Every device op fails: the first batch exhausts its retries and no
    // later recovery probe gets through.
    session.attach_fault_injector(FaultInjector::uniform(7, 1.0));
    h.run(slice::from_mut(&mut session), cell(5, 2048));
    assert_eq!(session.mode(), Mode::Degraded);
    let stats = session.fault_stats();
    assert_eq!((stats.degradations, stats.recoveries), (1, 0), "{stats:?}");
    assert_eq!(
        stats.retries + 1,
        u64::from(session.retry_policy().max_attempts)
    );

    session.set_cpu_only(true);
    assert_eq!(session.mode(), Mode::Pinned);
    h.run(slice::from_mut(&mut session), cell(6, 2048));
    assert_eq!(
        session.mode(),
        Mode::Pinned,
        "a pinned session never probes"
    );
    let stats = session.fault_stats();
    assert_eq!((stats.degradations, stats.recoveries), (1, 0), "{stats:?}");
    assert!(stats.degraded);

    // Release: the next batch's recovery probe re-uploads the pristine
    // image — sharing it again, the chunks the old device wrote dropped —
    // and the journal answers for everything written since open.
    session.attach_fault_injector(FaultInjector::uniform(7, 0.0));
    session.set_cpu_only(false);
    assert_eq!(session.mode(), Mode::Degraded);
    h.sweep(&mut session);
    assert_eq!(session.mode(), Mode::Device);
    assert_eq!(session.device_memory().owned_bytes(), 0);
    h.run(slice::from_mut(&mut session), cell(7, 2048));
    assert_eq!(session.mode(), Mode::Device);
    let stats = session.fault_stats();
    assert_eq!((stats.degradations, stats.recoveries), (1, 1), "{stats:?}");
    assert!(!stats.degraded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: *no* seeded fault schedule — any seed, rates up to a
    /// brutal 30 %, plus a random scheduled burst — may ever corrupt the
    /// index: every answer and the final sweep agree with the model,
    /// whether the session ended healthy, degraded, or in between.
    #[test]
    fn random_fault_schedules_never_corrupt_the_index(
        seed in any::<u64>(),
        rate_permille in 0u64..300,
        burst_start in 10u64..120,
        burst_len in 0u64..24,
    ) {
        let mut h = Harness::new(UNIVERSE / 2, 1, false, None);
        let index = Arc::clone(&h.index);
        let cfg = FaultConfig::uniform(seed, rate_permille as f64 / 1000.0)
            .fail_range(burst_start, burst_start + burst_len);
        let mut session =
            index.device_session_with_faults(&devices::rtx3090(), FaultInjector::new(cfg));
        h.run(slice::from_mut(&mut session), cell(seed, 1024));
    }
}
