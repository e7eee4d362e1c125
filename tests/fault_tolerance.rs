//! Fault-tolerance integration suite: the retry → degrade → recover
//! session loop under a deterministic device-fault injector, checked
//! against a `BTreeMap` oracle at every step.

use cuart::insert::insert_status;
use cuart::update::status;
use cuart::{CuartConfig, CuartIndex, Mode, DELETE};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::{devices, FaultConfig, FaultInjector};
use cuart_telemetry::{names, BatchKind, Telemetry, DEFAULT_EVENT_CAPACITY};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    format!("ft-{i:07}").into_bytes()
}

/// Build an index over `n` keys (value = key index) plus a matching oracle.
fn build(n: u64) -> (Art<u64>, BTreeMap<Vec<u8>, u64>) {
    let mut art = Art::new();
    let mut oracle = BTreeMap::new();
    for i in 0..n {
        art.insert(&key(i), i).unwrap();
        oracle.insert(key(i), i);
    }
    (art, oracle)
}

/// Drive `rounds` mixed batches (updates, deletes, inserts, lookups)
/// through `session`, mirroring every mutation into `oracle` and
/// checking every lookup against it. Returns the number of wrong
/// lookups (must be 0).
fn drive_rounds(
    session: &mut cuart::CuartSession<'_>,
    oracle: &mut BTreeMap<Vec<u8>, u64>,
    n: u64,
    rounds: u64,
) -> usize {
    let mut wrong = 0;
    for round in 0..rounds {
        // Updates over a rotating window, every 7th op a delete.
        let updates: Vec<(Vec<u8>, u64)> = (0..128u64)
            .map(|i| {
                let k = (round * 128 + i) % n;
                let v = if i % 7 == 3 { DELETE } else { round * 1000 + i };
                (key(k), v)
            })
            .collect();
        session.update_batch(&updates).unwrap();
        for (k, v) in &updates {
            if *v == DELETE {
                oracle.remove(k);
            } else {
                oracle.insert(k.clone(), *v);
            }
        }
        // Fresh inserts beyond the mapped key space.
        let fresh: Vec<(Vec<u8>, u64)> = (0..16u64)
            .map(|i| (key(n + round * 16 + i), 7_000_000 + round * 16 + i))
            .collect();
        session.insert_batch(&fresh).unwrap();
        for (k, v) in &fresh {
            oracle.insert(k.clone(), *v);
        }
        // Lookups across stored, deleted, inserted and absent keys.
        let probes: Vec<Vec<u8>> = (0..256u64)
            .map(|i| key((i * 31 + round * 17) % (n + rounds * 16 + 50)))
            .collect();
        let (values, _) = session.lookup_batch(&probes).unwrap();
        for (probe, got) in probes.iter().zip(&values) {
            let want = oracle.get(probe).copied().unwrap_or(NOT_FOUND);
            if *got != want {
                wrong += 1;
            }
        }
    }
    wrong
}

/// The acceptance drill: a 5 % per-op fault rate plus one scheduled
/// burst long enough to exhaust the retry budget. The session must
/// complete every batch with zero wrong lookups, retry at least once,
/// degrade at least once and recover at least once — and the telemetry
/// trace must show the Degraded → Recovered transition.
#[test]
fn five_percent_fault_rate_never_corrupts_and_recovers() {
    let n = 6_000;
    let (art, mut oracle) = build(n);
    let telemetry = Arc::new(Telemetry::new());
    let index =
        CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(telemetry.clone());
    let dev = devices::rtx3090();
    // The burst at ops [30, 46) covers 16 consecutive device ops — more
    // than the default 4-attempt budget can absorb.
    let injector = FaultInjector::new(FaultConfig::uniform(0x5EED, 0.05).fail_range(30, 46));
    let mut session = index.device_session_with_faults(&dev, injector);

    let wrong = drive_rounds(&mut session, &mut oracle, n, 20);
    assert_eq!(wrong, 0, "fault handling returned wrong lookup results");

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
    let kinds: Vec<BatchKind> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, BatchKind::Degraded | BatchKind::Recovered))
        .map(|e| e.kind)
        .collect();
    let first_degraded = kinds.iter().position(|k| *k == BatchKind::Degraded);
    let first_recovered = kinds.iter().position(|k| *k == BatchKind::Recovered);
    match (first_degraded, first_recovered) {
        (Some(d), Some(r)) => assert!(d < r, "Degraded must precede Recovered"),
        other => panic!("expected a Degraded -> Recovered transition, got {other:?}"),
    }
}

/// The event ring holds state transitions only: a session that degrades,
/// recovers and then serves twice the ring's capacity in device batches
/// still shows exactly its Degraded → Recovered pair, nothing evicted.
#[test]
fn transitions_outlive_a_ring_full_of_batches() {
    let (art, oracle) = build(512);
    let telemetry = Arc::new(Telemetry::new());
    let index =
        CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(telemetry.clone());
    let injector = FaultInjector::new(FaultConfig::uniform(7, 0.0).fail_range(0, 8));
    let mut session = index.device_session_with_faults(&devices::rtx3090(), injector);
    let probes: Vec<Vec<u8>> = (0..32).map(key).collect();
    for _ in 0..2 * DEFAULT_EVENT_CAPACITY {
        let (values, _) = session.lookup_batch(&probes).unwrap();
        assert_eq!(values, (0..32).map(|i| oracle[&key(i)]).collect::<Vec<_>>());
    }
    assert_eq!(session.mode(), Mode::Device);

    let snap = telemetry.snapshot();
    let kinds: Vec<BatchKind> = snap.events.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, [BatchKind::Degraded, BatchKind::Recovered]);
    assert_eq!(snap.events_dropped, 0);
}

/// Even an injector that fails *every* device op must not take the
/// service down: the very first batch exhausts its retries, the session
/// degrades, and everything — lookups, updates, deletes, inserts — is
/// served correctly by the CPU path.
#[test]
fn total_device_loss_degrades_but_serves_correctly() {
    let n = 2_000;
    let (art, mut oracle) = build(n);
    let index = CuartIndex::build(&art, &CuartConfig::for_tests());
    let dev = devices::gtx1070();
    let injector = FaultInjector::new(FaultConfig::uniform(1, 1.0));
    let mut session = index.device_session_with_faults(&dev, injector);

    let wrong = drive_rounds(&mut session, &mut oracle, n, 6);
    assert_eq!(wrong, 0);
    let stats = session.fault_stats();
    assert!(stats.degraded, "session must still be degraded");
    assert!(stats.recoveries == 0, "nothing can recover at rate 1.0");
    assert!(stats.degradations >= 1);
}

/// Identical seeds must replay identical fault schedules: the whole
/// drill — stats included — is deterministic.
#[test]
fn fault_schedules_replay_deterministically() {
    let n = 1_500;
    let run = || {
        let (art, mut oracle) = build(n);
        let index = CuartIndex::build(&art, &CuartConfig::for_tests());
        let dev = devices::rtx3090();
        let injector = FaultInjector::new(FaultConfig::uniform(0xC0FFEE, 0.08));
        let mut session = index.device_session_with_faults(&dev, injector);
        let wrong = drive_rounds(&mut session, &mut oracle, n, 8);
        (wrong, session.fault_stats())
    };
    let (wrong_a, stats_a) = run();
    let (wrong_b, stats_b) = run();
    assert_eq!(wrong_a, 0);
    assert_eq!(wrong_b, 0);
    assert_eq!(stats_a, stats_b, "same seed must replay the same schedule");
}

/// A key of each class the host alone serves, per matrix row: shorter than
/// the LUT span, longer than `MAX_DEVICE_KEY` under CpuRoute, and longer
/// than the device stride (10 here) while still a device class.
fn host_class_keys(row: u8) -> [Vec<u8>; 3] {
    let tagged = |tag: u8, len: usize| {
        let mut k = vec![b'0' + row; len];
        k[0] = tag;
        k
    };
    [vec![b'0' + row], tagged(b'L', 40), tagged(b'w', 20)]
}

/// One cell row of the mode × kind matrix: run a lookup, an update batch
/// (a delete, an in-batch duplicate, a miss), an insert batch (two new keys
/// that need the same branch point — the device attaches one and spills
/// the other —, an existing key), two device keys deleted and re-inserted
/// in one batch, and a key of every host class inserted, re-inserted,
/// updated, deleted and re-inserted through `session`, and after every step
/// require a lookup of every key touched *and* two ranges to be the
/// `BTreeMap` model's. Statuses are checked by class: which of "applied"
/// and "superseded" an in-batch duplicate gets, and whether a structural
/// insert is `SPILLED` or shadowed as `INSERTED`, is the one thing the
/// device and CPU paths may spell differently.
fn check_every_kind(
    session: &mut cuart::CuartSession<'_>,
    model: &mut BTreeMap<Vec<u8>, u64>,
    row: u64,
) {
    let fresh = |tag: u8| vec![b'z', b'0' + row as u8, b'-', tag];
    let answers_match = |session: &mut cuart::CuartSession<'_>, model: &BTreeMap<Vec<u8>, u64>| {
        let probes: Vec<Vec<u8>> = (0..60)
            .map(key)
            .chain((0..4).flat_map(|r| {
                [
                    vec![b'z', b'0' + r, b'-', b'a'],
                    vec![b'z', b'0' + r, b'-', b'b'],
                ]
            }))
            .chain((0..4).flat_map(host_class_keys))
            .collect();
        let (got, _) = session.lookup_batch(&probes).unwrap();
        for (probe, got) in probes.iter().zip(got) {
            let want = model.get(probe).copied().unwrap_or(NOT_FOUND);
            assert_eq!(got, want, "row {row}: lookup of {probe:?}");
        }
        let ranges = vec![(vec![0u8], vec![0xFFu8; 12]), (key(5), key(35))];
        let (rows, _) = session.range_batch(&ranges).unwrap();
        for ((lo, hi), got) in ranges.iter().zip(rows) {
            let want: Vec<(Vec<u8>, u64)> = model
                .range(lo.clone()..=hi.clone())
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, want, "row {row}: range {lo:?}..={hi:?}");
        }
    };
    answers_match(session, model);

    let (deleted, twice) = (key(row * 10 + 1), key(row * 10 + 2));
    let updates = vec![
        (deleted.clone(), DELETE),
        (twice.clone(), 100 + row),
        (twice.clone(), 200 + row),
        (key(9_999), 1),
    ];
    let (statuses, _) = session.update_batch(&updates).unwrap();
    let hit = |s: u64| s == status::APPLIED || s == status::SUPERSEDED;
    assert!(
        hit(statuses[0]) && hit(statuses[1]),
        "row {row}: {statuses:?}"
    );
    assert_eq!(statuses[2..], [status::APPLIED, status::MISS], "row {row}");
    model.remove(&deleted);
    model.insert(twice, 200 + row);
    answers_match(session, model);

    let existing = key(row * 10 + 3);
    let inserts = vec![
        (fresh(b'a'), 300 + row),
        (fresh(b'b'), 400 + row),
        (existing.clone(), 500 + row),
    ];
    let (statuses, _) = session.insert_batch(&inserts).unwrap();
    let stored = |s: u64| s == insert_status::INSERTED || s == insert_status::SPILLED;
    assert!(
        stored(statuses[0]) && stored(statuses[1]),
        "row {row}: {statuses:?}"
    );
    assert!(
        statuses[..2].contains(&insert_status::INSERTED),
        "row {row}"
    );
    assert_eq!(statuses[2], insert_status::UPDATED, "row {row}");
    model.extend(inserts);
    answers_match(session, model);

    // Two device keys deleted, then re-inserted in one batch: the device
    // removed their leaves without collapsing the nodes above, so on a
    // healthy device both re-inserts spill — over their own tombstones.
    let healthy = session.mode() == Mode::Device && session.fault_stats().degradations == 0;
    let pair = [key(row * 10 + 5), key(row * 10 + 6)];
    let deletes: Vec<_> = pair.iter().map(|k| (k.clone(), DELETE)).collect();
    let (statuses, _) = session.update_batch(&deletes).unwrap();
    assert_eq!(statuses, [status::APPLIED; 2], "row {row}");
    for k in &pair {
        model.remove(k);
    }
    answers_match(session, model);
    let reinserts: Vec<_> = pair.iter().map(|k| (k.clone(), 600 + row)).collect();
    let (statuses, _) = session.insert_batch(&reinserts).unwrap();
    assert!(
        statuses.iter().all(|&s| stored(s)),
        "row {row}: {statuses:?}"
    );
    if healthy {
        assert_eq!(statuses, [insert_status::SPILLED; 2], "row {row}");
    }
    model.extend(reinserts);
    answers_match(session, model);

    // The host classes: the first insert of a key too wide for the device
    // stride is a spill, every later one of a live key an update.
    let host = host_class_keys(row as u8);
    let first = [
        insert_status::INSERTED,
        insert_status::INSERTED,
        insert_status::SPILLED,
    ];
    let with =
        |value: u64| -> Vec<(Vec<u8>, u64)> { host.iter().map(|k| (k.clone(), value)).collect() };
    let insert_twice =
        |session: &mut cuart::CuartSession<'_>, model: &mut BTreeMap<_, _>, value| {
            let (statuses, _) = session.insert_batch(&with(value)).unwrap();
            assert_eq!(statuses, first, "row {row}: fresh insert");
            let (statuses, _) = session.insert_batch(&with(value + 10)).unwrap();
            assert_eq!(statuses, [insert_status::UPDATED; 3], "row {row}");
            model.extend(with(value + 10));
            answers_match(session, model);
        };
    insert_twice(session, model, 700 + row);
    let (statuses, _) = session.update_batch(&with(720 + row)).unwrap();
    assert_eq!(statuses, [status::APPLIED; 3], "row {row}");
    model.extend(with(720 + row));
    answers_match(session, model);
    let (statuses, _) = session.update_batch(&with(DELETE)).unwrap();
    assert_eq!(statuses, [status::APPLIED; 3], "row {row}");
    for k in &host {
        model.remove(k);
    }
    answers_match(session, model);
    insert_twice(session, model, 800 + row);
}

/// The mode × kind matrix: every batch kind, in every [`Mode`] a session
/// can be in, answers like the model — with the mutations of the earlier
/// rows still visible — and `fault_stats()` reports each transition once.
#[test]
fn every_mode_answers_every_kind_like_the_model() {
    let (art, mut model) = build(60);
    let index = CuartIndex::build(&art, &CuartConfig::for_tests());
    // A silent injector from the start keeps the journal from the first
    // mutation on; shadowing is what a caller that pins must switch on.
    let mut session =
        index.device_session_with_faults(&devices::rtx3090(), FaultInjector::uniform(7, 0.0));
    session.set_journal_shadowing(true);

    check_every_kind(&mut session, &mut model, 0);
    assert_eq!(session.mode(), Mode::Device);
    assert!(
        session.overflow_len() > 0,
        "the device row must spill an insert"
    );
    assert_eq!(session.fault_stats(), cuart::FaultStats::default());
    assert!(
        session.device_memory().owned_bytes() > 0,
        "the device row writes image chunks"
    );

    // Every device op fails: the first batch exhausts its retries and no
    // later recovery probe gets through.
    session.attach_fault_injector(FaultInjector::uniform(7, 1.0));
    check_every_kind(&mut session, &mut model, 1);
    assert_eq!(session.mode(), Mode::Degraded);
    let stats = session.fault_stats();
    assert_eq!((stats.degradations, stats.recoveries), (1, 0), "{stats:?}");
    assert_eq!(
        stats.retries + 1,
        u64::from(session.retry_policy().max_attempts)
    );

    session.set_cpu_only(true);
    assert_eq!(session.mode(), Mode::Pinned);
    check_every_kind(&mut session, &mut model, 2);
    assert_eq!(
        session.mode(),
        Mode::Pinned,
        "a pinned session never probes"
    );
    let stats = session.fault_stats();
    assert_eq!((stats.degradations, stats.recoveries), (1, 0), "{stats:?}");
    assert!(stats.degraded);

    // Release: the next batch's recovery probe re-uploads the pristine
    // image, and the journal answers for everything written since open.
    session.attach_fault_injector(FaultInjector::uniform(7, 0.0));
    session.set_cpu_only(false);
    assert_eq!(session.mode(), Mode::Degraded);
    // The re-upload shares the image again: the chunks the old device wrote
    // are dropped, and the journal answers for what they held.
    let (keys, expect): (Vec<Vec<u8>>, Vec<u64>) = model.clone().into_iter().unzip();
    assert_eq!(session.lookup_batch(&keys).unwrap().0, expect);
    assert_eq!(session.mode(), Mode::Device);
    assert_eq!(session.device_memory().owned_bytes(), 0);
    check_every_kind(&mut session, &mut model, 3);
    assert_eq!(session.mode(), Mode::Device);
    let stats = session.fault_stats();
    assert_eq!((stats.degradations, stats.recoveries), (1, 1), "{stats:?}");
    assert!(!stats.degraded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: *no* seeded fault schedule — any seed, rates up to a
    /// brutal 30 %, plus a random scheduled burst — may ever corrupt the
    /// index. Post-run, every key agrees with the oracle, whether the
    /// session ended healthy, degraded, or somewhere in between.
    #[test]
    fn random_fault_schedules_never_corrupt_the_index(
        seed in any::<u64>(),
        rate_permille in 0u64..300,
        burst_start in 10u64..120,
        burst_len in 0u64..24,
    ) {
        let n = 1_200;
        let (art, mut oracle) = build(n);
        let index = CuartIndex::build(&art, &CuartConfig::for_tests());
        let dev = devices::rtx3090();
        let cfg = FaultConfig::uniform(seed, rate_permille as f64 / 1000.0)
            .fail_range(burst_start, burst_start + burst_len);
        let mut session = index.device_session_with_faults(&dev, FaultInjector::new(cfg));

        let wrong = drive_rounds(&mut session, &mut oracle, n, 6);
        prop_assert_eq!(wrong, 0, "schedule seed={} corrupted results", seed);

        // Final sweep: every oracle key readable, every deleted key gone.
        let probes: Vec<Vec<u8>> = (0..n + 200).map(key).collect();
        let (values, _) = session.lookup_batch(&probes).unwrap();
        for (probe, got) in probes.iter().zip(&values) {
            let want = oracle.get(probe).copied().unwrap_or(NOT_FOUND);
            prop_assert_eq!(*got, want, "final sweep mismatch (seed {})", seed);
        }
    }
}
