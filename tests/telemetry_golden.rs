//! Golden telemetry snapshot: what a fixed session + scheduler script
//! records, item for item.
//!
//! The script runs a device session (lookup, update, insert, range), then
//! a one-client single-device [`Scheduler`] (lookups, an update and a
//! zero-budget request that is shed), then a one-device
//! [`ShardedScheduler`] (route spans and the `cuart.sched.shard.0.*`
//! twins). Every request is sequential, so every counter, gauge,
//! histogram, event and span — ids, parents, names, attributes and
//! modeled times — is deterministic, except the two wall-clock series
//! (`*queue_latency*`, `*request_ns*`), whose values are masked by name
//! (their observation counts stay). Concurrent shards are left out: their
//! last-writer gauges depend on thread timing.
//!
//! The expected file was captured before metric handles were held by
//! their owners and span trees were committed by move; that refactor
//! reproduced it exactly but for one intended change. Critical-path
//! attribution used to resolve a tie to the lexicographically *last* leaf
//! name, against its documented rule; seven of the script's trees tie
//! `h2d` with `d2h` (8-byte keys up, 8-byte answers down), so after the
//! fix `cuart.trace.critical.d2h` reads 7 and `cuart.trace.critical.h2d`
//! 1 where the capture had `h2d` 8. A mismatch writes the actual rendering
//! into the test binary's scratch directory and names it in the panic.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_host::{SchedOp, Scheduler, SchedulerConfig, ShardedScheduler};
use cuart_telemetry::{Snapshot, Telemetry};
use cuart_workloads::uniform_keys;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

const EXPECTED: &str = include_str!("golden/telemetry_snapshot.txt");

/// Series whose values are wall-clock readings.
fn wall_clock(name: &str) -> bool {
    name.contains("queue_latency") || name.contains("request_ns")
}

/// One line per item, in snapshot order; floats in their shortest
/// round-trip form, so a one-ulp change shows.
fn render(s: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &s.counters {
        writeln!(out, "counter {name} {v}").unwrap();
    }
    for (name, v) in &s.gauges {
        writeln!(out, "gauge {name} {v:?}").unwrap();
    }
    for (name, h) in &s.histograms {
        if wall_clock(name) {
            writeln!(out, "histogram {name} count={} (wall clock)", h.count).unwrap();
        } else {
            writeln!(
                out,
                "histogram {name} count={} sum={} min={} max={} buckets={:?}",
                h.count, h.sum, h.min, h.max, h.buckets
            )
            .unwrap();
        }
    }
    for e in &s.events {
        writeln!(out, "event {} {} keys={}", e.seq, e.kind.as_str(), e.keys).unwrap();
    }
    writeln!(out, "events_dropped {}", s.events_dropped).unwrap();
    for sp in &s.spans {
        write!(
            out,
            "span {} parent={} {} [{}, {})",
            sp.id, sp.parent, sp.name, sp.start_ns, sp.end_ns
        )
        .unwrap();
        for (k, v) in &sp.attrs {
            write!(out, " {k}={v}").unwrap();
        }
        out.push('\n');
    }
    writeln!(out, "spans_dropped {}", s.spans_dropped).unwrap();
    out
}

fn key(i: u64) -> Vec<u8> {
    (i * 7919).to_be_bytes().to_vec()
}

/// The script. Returns the registry it recorded into.
fn run_script() -> Arc<Telemetry> {
    let telemetry = Arc::new(Telemetry::new());
    let mut art = Art::new();
    for i in 0..4096u64 {
        art.insert(&key(i), i + 1).unwrap();
    }
    let index = Arc::new(
        CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(telemetry.clone()),
    );

    // Device session: one batch of each kind.
    {
        let mut session = index.device_session(&devices::a100());
        let keys: Vec<Vec<u8>> = (0..512).map(key).collect();
        session.lookup_batch(&keys).unwrap();
        let updates: Vec<(Vec<u8>, u64)> = (100..356).map(|i| (key(i), 7)).collect();
        session.update_batch(&updates).unwrap();
        let fresh: Vec<(Vec<u8>, u64)> = uniform_keys(64, 8, 4242)
            .into_iter()
            .map(|k| (k, 9))
            .collect();
        session.insert_batch(&fresh).unwrap();
        let ranges: Vec<(Vec<u8>, Vec<u8>)> =
            (0..8).map(|i| (key(i * 50), key(i * 50 + 20))).collect();
        session.range_batch(&ranges).unwrap();
    }

    // One client, one device: each request is its own batch.
    let sched = Scheduler::spawn(
        Arc::clone(&index),
        devices::gtx1070(),
        SchedulerConfig::default(),
    );
    let client = sched.client().unwrap();
    client.lookup((0..64).map(key).collect()).unwrap();
    client
        .lookup((4000..4032).map(key).chain((5000..5008).map(key)).collect())
        .unwrap();
    client
        .update((10..26).map(|i| (key(i), 11)).collect())
        .unwrap();
    let shed = client.submit(SchedOp::lookups(&[key(1)]), Some(Duration::ZERO));
    assert!(shed.wait().is_err(), "a zero budget is always shed");
    drop(client);
    sched.join().unwrap();

    // A one-device fleet: the router's spans and the shard-0 twins.
    let fleet = ShardedScheduler::spawn(
        Arc::clone(&index),
        &[devices::gtx1070()],
        SchedulerConfig::default(),
    )
    .unwrap();
    let client = fleet.client().unwrap();
    client.lookup((200..248).map(key).collect()).unwrap();
    client
        .update((30..38).map(|i| (key(i), 13)).collect())
        .unwrap();
    drop(client);
    fleet.join().unwrap();
    telemetry
}

#[test]
fn session_and_scheduler_script_reproduces_the_golden_snapshot() {
    let got = render(&run_script().snapshot());
    if got != EXPECTED {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_snapshot.txt");
        std::fs::write(&path, &got).unwrap();
        let first = got
            .lines()
            .zip(EXPECTED.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(EXPECTED.lines().count()));
        panic!(
            "snapshot differs from tests/golden/telemetry_snapshot.txt from line {}; \
             actual rendering written to {}",
            first + 1,
            path.display()
        );
    }
}
