//! Fault drill — exercise the session's retry → degrade → recover loop
//! end to end, with a correctness oracle riding along.
//!
//! A deterministic [`FaultInjector`] shadows every device leg: 5 % of
//! device ops fail at random (seeded), plus one scheduled burst long
//! enough to exhaust the retry budget and force a degradation. The
//! session keeps serving through all of it — retried batches on the
//! device, degraded batches on the CPU path — and every lookup is checked
//! against a plain `BTreeMap` oracle. At the end the index is snapshotted,
//! verified, and a deliberately corrupted copy is shown to be rejected.
//!
//! ```text
//! cargo run -p cuart-examples --bin fault_drill
//! ```

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::{devices, FaultConfig, FaultInjector};
use cuart_telemetry::{names, BatchKind, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    format!("drill-key-{i:08}").into_bytes()
}

fn main() {
    // 20k keys, values = key index.
    let mut art = Art::new();
    let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for i in 0..20_000u64 {
        art.insert(&key(i), i).unwrap();
        oracle.insert(key(i), i);
    }
    let telemetry = Arc::new(Telemetry::new());
    let index = CuartIndex::build(&art, &CuartConfig::default()).with_telemetry(telemetry.clone());
    let dev = devices::rtx3090();

    // 5 % per-op fault rate, plus a scheduled 16-op burst: 16 consecutive
    // failing device ops comfortably exhaust the default 4-attempt retry
    // budget, so the drill is guaranteed to visit the degraded state no
    // matter how the random rolls land.
    let injector = FaultInjector::new(FaultConfig::uniform(0xD1A7, 0.05).fail_range(24, 40));
    let mut session = index.device_session_with_faults(&dev, injector);
    println!(
        "fault drill: {} keys on {}, 5% fault rate + one 16-op burst, retry budget {}",
        index.len(),
        dev.name,
        session.retry_policy().max_attempts
    );

    let mut wrong = 0usize;
    for round in 0..24u64 {
        // Mutate a rotating slice of the key space...
        let updates: Vec<(Vec<u8>, u64)> = (0..512u64)
            .map(|i| {
                let k = (round * 512 + i) % 20_000;
                (key(k), 1_000_000 + round * 10 + k)
            })
            .collect();
        let (_, _) = session.update_batch(&updates).unwrap();
        for (k, v) in &updates {
            oracle.insert(k.clone(), *v);
        }
        // ...then read a mix of touched and untouched keys back.
        let probes: Vec<Vec<u8>> = (0..1024u64)
            .map(|i| key((i * 37 + round) % 20_000))
            .collect();
        let (values, _) = session.lookup_batch(&probes).unwrap();
        for (probe, got) in probes.iter().zip(&values) {
            let want = oracle.get(probe).copied().unwrap_or(NOT_FOUND);
            if *got != want {
                wrong += 1;
            }
        }
        let s = session.fault_stats();
        if round % 6 == 0 || s.degraded {
            println!(
                "round {round:>2}: {} faults, {} retries, {} degradations, {} recoveries{}",
                s.injected,
                s.retries,
                s.degradations,
                s.recoveries,
                if s.degraded {
                    "  [degraded: CPU path]"
                } else {
                    ""
                }
            );
        }
    }

    let stats = session.fault_stats();
    println!(
        "\ndrill done: {} faults injected, {} retried legs, {} degradations, {} recoveries",
        stats.injected, stats.retries, stats.degradations, stats.recoveries
    );
    println!(
        "correctness: {wrong} wrong lookups out of {} (oracle-checked)",
        24 * 1024
    );
    assert_eq!(wrong, 0, "fault handling must never corrupt results");
    assert!(stats.retries > 0, "the drill should have retried");
    assert!(stats.degradations > 0, "the burst should have degraded");
    assert!(stats.recoveries > 0, "a later batch should have recovered");

    // The same story, as telemetry.
    let snap = telemetry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "telemetry: {} cpu-fallback batches covering {} keys, {} ns modeled backoff",
        counter(names::FAULT_CPU_FALLBACK_BATCHES),
        counter(names::FAULT_CPU_FALLBACK_KEYS),
        snap.histograms
            .get(names::FAULT_BACKOFF_NS)
            .map(|h| h.sum)
            .unwrap_or(0),
    );
    let transitions: Vec<&str> = snap
        .events
        .iter()
        .filter_map(|e| match e.kind {
            BatchKind::Degraded => Some("degraded"),
            BatchKind::Recovered => Some("recovered"),
            _ => None,
        })
        .collect();
    println!("state transitions: {}", transitions.join(" -> "));

    // Crash-safe persistence: snapshot, verify, then prove a corrupted
    // copy cannot sneak back in.
    let dir = std::env::temp_dir().join(format!("cuart-fault-drill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drill.cuart");
    index.save(&path).unwrap();
    let info = cuart::persist::verify_snapshot(&path).unwrap();
    println!(
        "\nsnapshot: {} bytes, format v{}, {} sections CRC-verified, {} keys",
        info.file_bytes, info.version, info.sections, info.entries
    );
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // single bit flip
    let bad = dir.join("drill-corrupt.cuart");
    std::fs::write(&bad, &bytes).unwrap();
    match CuartIndex::load(&bad) {
        Err(e) => println!("corrupted copy rejected: {e}"),
        Ok(_) => panic!("bit-flipped snapshot must not load"),
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("\nservice never stopped; no batch returned a wrong answer.");
}
