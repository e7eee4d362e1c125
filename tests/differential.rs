//! Every serving path against the one oracle (`cuart_integration_tests`):
//! a `CuartSession`, a `Scheduler` fed by N producers, a `ShardedScheduler`
//! over one to four mixed devices and a `NetServer` over one and two shards
//! fed by N `NetClient`s, without faults and under a seeded fault rate plus
//! a burst, the scheduler and the wire also under the breaker storm. Each
//! cell ends with a quiescent sweep, then asserts what its path reports.
//! The session's fault cells run in `fault_tolerance.rs`. Full sizes need
//! `--release` (CI); a debug build runs smaller ones.

use cuart_gpu_sim::{devices, DeviceConfig, FaultConfig, FaultInjector};
use cuart_host::scheduler::{BreakerConfig, Scheduler, SchedulerConfig, SchedulerStats};
use cuart_host::sharded::{ShardedScheduler, ShardedStats};
use cuart_integration_tests::{sized, Cell, Harness};
use cuart_net::{NetClient, NetReport, NetServer, NetServerConfig};
use cuart_telemetry::{names, BatchKind, Telemetry};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Universe ids every cell draws its keys from.
const UNIVERSE: u64 = 8 * 1024;

fn cfg(batch_target: usize, faults: Option<FaultConfig>) -> SchedulerConfig {
    SchedulerConfig {
        batch_target,
        deadline: Duration::from_micros(300),
        fault_injector: faults.map(FaultInjector::new),
        ..SchedulerConfig::default()
    }
}

/// A 5 % fault rate plus a burst of 16 failing device ops, more than the
/// 4-attempt retry budget absorbs.
fn faulty(seed: u64) -> SchedulerConfig {
    cfg(
        4096,
        Some(FaultConfig::uniform(seed, 0.05).fail_range(30, 46)),
    )
}

/// The breaker storm (the first 8 fault checks fail, threshold 2, 20 ms
/// cooldown: the first batch degrades, recovery attempts and half-open
/// probes burn the rest, then a probe re-uploads and the breaker closes),
/// and small paced requests so its cooldowns elapse while they run.
fn storm() -> (SchedulerConfig, Cell) {
    let mut storm = cfg(
        1_000_000,
        Some(FaultConfig::uniform(0xB0BA, 0.0).fail_range(0, 8)),
    );
    storm.deadline = Duration::from_millis(1);
    storm.breaker = BreakerConfig {
        fault_threshold: 2,
        open_cooldown: Duration::from_millis(20),
        probe_batches: 2,
    };
    let pace = Duration::from_millis(5);
    (
        storm,
        Cell {
            pace,
            ..Cell::new(0x5707, 40 * 32, 32)
        },
    )
}

fn scheduler_cell(h: &mut Harness, cfg: SchedulerConfig, cell: Cell) -> SchedulerStats {
    let sched = Scheduler::spawn(Arc::clone(&h.index), devices::gtx1070(), cfg);
    let mut clients: Vec<_> = (0..h.producers())
        .map(|_| sched.client().unwrap())
        .collect();
    h.run(&mut clients, cell);
    drop(clients);
    sched.join().unwrap()
}

fn fleet_cell(
    h: &mut Harness,
    devs: &[DeviceConfig],
    cfg: SchedulerConfig,
    cell: Cell,
) -> ShardedStats {
    let fleet = ShardedScheduler::spawn(Arc::clone(&h.index), devs, cfg).unwrap();
    let mut clients: Vec<_> = (0..h.producers())
        .map(|_| fleet.client().unwrap())
        .collect();
    h.run(&mut clients, cell);
    drop(clients);
    fleet.join().unwrap()
}

/// A server over `shards` shards (a lone `Scheduler` for one), one
/// `NetClient` per producer.
fn wire_cell(h: &mut Harness, shards: usize, cfg: SchedulerConfig, cell: Cell) -> NetReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let (index, net) = (Arc::clone(&h.index), NetServerConfig::default());
    let server = if shards == 1 {
        let sched = Scheduler::spawn(index, devices::gtx1070(), cfg);
        NetServer::serve_single(listener, sched, None, net)
    } else {
        let fleet = ShardedScheduler::spawn(index, &vec![devices::rtx3090(); shards], cfg);
        NetServer::serve_sharded(listener, fleet.unwrap(), None, net)
    }
    .expect("serve");
    let connect = |_| NetClient::connect(server.local_addr()).expect("connect");
    let mut clients: Vec<_> = (0..h.producers()).map(connect).collect();
    h.run(&mut clients, cell);
    drop(clients);
    server.shutdown_handle().shutdown();
    server.join().expect("clean drain")
}

#[test]
fn a_session_answers_every_kind_like_the_model() {
    let mut h = Harness::new(UNIVERSE, 1, false, None);
    let index = Arc::clone(&h.index);
    let mut session = index.device_session(&devices::rtx3090());
    session.set_journal_shadowing(true);
    h.run(
        std::slice::from_mut(&mut session),
        Cell::new(1, sized(16, 128) << 10, 512),
    );
    assert!(session.overflow_len() > 0, "over-stride inserts park");
}

#[test]
fn four_producers_coalesce_through_one_scheduler() {
    let telemetry = Arc::new(Telemetry::new());
    let mut h = Harness::new(UNIVERSE, 4, true, Some(&telemetry));
    let cell = Cell::new(2, sized(16, 256) << 10, 1024);
    let stats = scheduler_cell(&mut h, cfg(16 * 1024, None), cell);
    assert_eq!(stats.ops_enqueued, h.checked);
    let ranges = telemetry.counter(names::RANGE_BATCHES).get();
    let unsorted = "every point batch takes the sorted path";
    assert_eq!(
        stats.sorted_batches + ranges,
        stats.batches,
        "{unsorted}: {stats:?}"
    );
    let fill = "four concurrent producers must coalesce beyond one request";
    assert!(stats.mean_batch_fill() > 1024.0, "{fill}: {stats:?}");
}

#[test]
fn a_scheduler_under_a_fault_rate_and_burst_answers_like_the_model() {
    let mut h = Harness::new(UNIVERSE, 2, true, None);
    let stats = scheduler_cell(&mut h, faulty(3), Cell::new(3, sized(4, 32) << 10, 256));
    assert_eq!(
        stats.failed_batches, 0,
        "degrade and retry absorb every fault"
    );
}

#[test]
fn the_breaker_storm_walks_open_half_open_closed() {
    let telemetry = Arc::new(Telemetry::new());
    let mut h = Harness::new(UNIVERSE, 1, false, Some(&telemetry));
    let (storm, cell) = storm();
    let stats = scheduler_cell(&mut h, storm, cell);
    assert!(stats.breaker_trips >= 1, "the storm must trip: {stats:?}");
    assert!(
        stats.probe_batches >= 2 && stats.breaker_open_batches >= 1,
        "{stats:?}"
    );
    assert_eq!(stats.failed_batches, 0, "degrade/shed absorb every fault");

    let snap = telemetry.snapshot();
    let counter = |name| snap.counters.get(name).copied().unwrap_or(0);
    assert!(counter(names::SCHED_BREAKER_TRIPS) >= 1);
    assert!(counter(names::SCHED_PROBE_BATCHES) >= 2);
    let closed = Some(&0.0);
    assert_eq!(
        snap.gauges.get(names::SCHED_BREAKER_STATE),
        closed,
        "ends closed"
    );
    // Trip → probe window → close, with the session's recovery (the device
    // image re-upload) before the close, in causal (seq) order.
    let seq_of = |kind: BatchKind| {
        let event = snap.events.iter().find(|ev| ev.kind == kind);
        event
            .unwrap_or_else(|| panic!("no {kind} event: {:?}", snap.events))
            .seq
    };
    let open = seq_of(BatchKind::BreakerOpen);
    let half_open = seq_of(BatchKind::BreakerHalfOpen);
    let closed = seq_of(BatchKind::BreakerClosed);
    assert!(
        open < half_open && half_open < closed,
        "open, half-open, closed"
    );
    assert!(
        seq_of(BatchKind::Recovered) < closed,
        "recovered before the close"
    );
}

#[test]
fn mixed_fleets_of_one_to_four_shards_answer_like_the_model() {
    let (fast, slow) = (devices::rtx3090(), devices::gtx1070());
    let devs = [fast, slow, fast, slow];
    for shards in 1..=4 {
        let mut h = Harness::new(UNIVERSE, 4, shards % 2 == 0, None);
        // The full size on the 4-shard fleet, a quarter of it below.
        let lookups = sized(8, 64) << 10 >> (2 * usize::from(shards < 4));
        let cell = Cell::new(4 + shards as u64, lookups, 1024);
        let stats = fleet_cell(&mut h, &devs[..shards], cfg(8 * 1024, None), cell);
        assert_eq!(stats.routed_keys, h.checked, "{shards} shards");
        let busy = stats.shards.iter().filter(|s| s.stats.keys_dispatched > 0);
        assert_eq!(busy.count(), shards, "keys reach every shard: {stats:?}");
    }
}

#[test]
fn a_fleet_under_a_fault_rate_and_burst_answers_like_the_model() {
    let devs = [devices::rtx3090(), devices::gtx1070(), devices::gtx1070()];
    let mut h = Harness::new(UNIVERSE, 2, false, None);
    let stats = fleet_cell(
        &mut h,
        &devs,
        faulty(9),
        Cell::new(9, sized(4, 32) << 10, 256),
    );
    assert_eq!(stats.aggregate().failed_batches, 0);
}

#[test]
fn clients_over_one_and_two_shards_answer_like_the_model() {
    for shards in [1, 2] {
        let mut h = Harness::new(UNIVERSE, 4, shards == 2, None);
        let cell = Cell::new(10 + shards as u64, sized(2, 40) << 10, 512);
        let report = wire_cell(&mut h, shards, cfg(4 * 1024, None), cell);
        assert_eq!((report.accepted, report.served_ops), (4, h.checked));
        assert_eq!((report.decode_errors, report.error_frames), (0, 0));
    }
}

#[test]
fn the_wire_under_a_fault_rate_and_burst_answers_like_the_model() {
    let mut h = Harness::new(UNIVERSE, 2, false, None);
    let report = wire_cell(
        &mut h,
        2,
        faulty(13),
        Cell::new(13, sized(2, 16) << 10, 256),
    );
    assert_eq!(report.error_frames, 0);
}

#[test]
fn the_breaker_storm_over_the_wire_reports_trips() {
    let mut h = Harness::new(UNIVERSE, 1, true, None);
    let (storm, cell) = storm();
    let agg = wire_cell(&mut h, 1, storm, cell).sched.aggregate();
    assert!(agg.breaker_trips >= 1, "the storm must trip: {agg:?}");
    assert!(agg.breaker_open_batches >= 1, "{agg:?}");
}
