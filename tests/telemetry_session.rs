//! End-to-end telemetry: a device session doing a lookup + update + insert
//! round-trip must leave the exact expected trail in an attached registry —
//! the right sequence of batch span trees, consistent counters, no
//! transition events, and exporters that agree with the snapshot they
//! serialise.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_telemetry::{names, Span, Telemetry};
use cuart_workloads::uniform_keys;
use std::sync::Arc;

fn instrumented_index(n: usize) -> (CuartIndex, Vec<Vec<u8>>, Arc<Telemetry>) {
    let keys = uniform_keys(n, 8, 42);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    let telemetry = Arc::new(Telemetry::new());
    let index =
        CuartIndex::build(&art, &CuartConfig::for_tests()).with_telemetry(telemetry.clone());
    (index, keys, telemetry)
}

#[test]
fn round_trip_emits_expected_event_sequence() {
    let (index, keys, telemetry) = instrumented_index(2000);
    let dev = devices::a100();
    let mut session = index.device_session(&dev);

    // lookup -> update -> lookup -> insert, in this order.
    session.lookup_batch(&keys[..512]).unwrap();
    let updates: Vec<(Vec<u8>, u64)> = keys[..256].iter().map(|k| (k.clone(), 7)).collect();
    session.update_batch(&updates).unwrap();
    session.lookup_batch(&keys[512..768]).unwrap();
    let fresh: Vec<(Vec<u8>, u64)> = uniform_keys(64, 8, 4242)
        .into_iter()
        .map(|k| (k, 9))
        .collect();
    session.insert_batch(&fresh).unwrap();

    let snap = telemetry.snapshot();

    // Span trace: one root per batch, in the order above, carrying the
    // batch's keys; the first lookup's kernel split out its DRAM traffic.
    let attr = |span: &Span, key: &str| -> u64 {
        let (_, v) = span.attrs.iter().find(|(k, _)| k == key).unwrap();
        v.parse().unwrap()
    };
    let spans = &snap.spans;
    let child = |id: u64, name: &str| spans.iter().find(|s| s.parent == id && s.name == name);
    let roots: Vec<&Span> = snap.spans.iter().filter(|s| s.parent == 0).collect();
    let batches: Vec<(&str, u64)> = roots.iter().map(|s| (&*s.name, attr(s, "keys"))).collect();
    assert_eq!(
        batches,
        [
            ("batch.lookup", 512),
            ("batch.update", 256),
            ("batch.lookup", 256),
            ("batch.insert", 64)
        ]
    );
    assert!(roots.windows(2).all(|p| p[1].id > p[0].id), "ids increase");
    assert_eq!(snap.spans_dropped, 0);
    let kernel = child(roots[0].id, "kernel").unwrap();
    assert!(kernel.duration_ns() > 0);
    assert!(attr(child(kernel.id, "dram").unwrap(), "transactions") > 0);
    assert!(snap.counters[names::RAW_ACCESSES] >= snap.counters[names::COALESCED_ACCESSES]);

    // Batches are no state transitions: the event ring stays empty.
    assert!(snap.events.is_empty(), "{:?}", snap.events);
    assert_eq!(snap.events_dropped, 0);

    // Counters agree with the span trace.
    assert_eq!(snap.counters[names::LOOKUP_BATCHES], 2);
    assert_eq!(snap.counters[names::LOOKUP_KEYS], 512 + 256);
    assert_eq!(snap.counters[names::UPDATE_BATCHES], 1);
    assert_eq!(snap.counters[names::UPDATE_KEYS], 256);
    assert_eq!(snap.counters[names::INSERT_BATCHES], 1);
    assert_eq!(snap.counters[names::INSERT_KEYS], 64);

    // Kernel-side aggregates accumulated over all four batches.
    assert!(snap.counters[names::L2_HITS] + snap.counters[names::L2_MISSES] > 0);
    assert!(snap.counters[names::DRAM_TRANSACTIONS] > 0);

    // Build gauges recorded at attach time.
    assert_eq!(
        snap.gauges[names::DEVICE_BYTES],
        index.device_bytes() as f64
    );
    assert!(snap.gauges[names::BUILD_NODES] > 0.0);
    assert!(snap.gauges[names::BUILD_LEAVES] > 0.0);

    // Histograms saw one observation per batch.
    assert_eq!(snap.histograms[names::LOOKUP_KERNEL_NS].count, 2);
    assert_eq!(snap.histograms[names::UPDATE_KERNEL_NS].count, 1);
    assert_eq!(snap.histograms[names::INSERT_KERNEL_NS].count, 1);
}

#[test]
fn session_without_telemetry_stays_silent() {
    let keys = uniform_keys(500, 8, 7);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    let index = CuartIndex::build(&art, &CuartConfig::for_tests());
    assert!(index.telemetry().is_none());
    let mut session = index.device_session(&devices::gtx1070());
    let (results, _) = session.lookup_batch(&keys[..32]).unwrap();
    assert_eq!(results.len(), 32);
}

#[test]
fn exporters_agree_with_snapshot() {
    let (index, keys, telemetry) = instrumented_index(1000);
    let mut session = index.device_session(&devices::rtx3090());
    session.lookup_batch(&keys[..128]).unwrap();

    let snap = telemetry.snapshot();
    let json = snap.to_json();
    let prom = snap.to_prometheus();

    // Every counter shows up in both exports, with its exact value.
    for (name, v) in &snap.counters {
        assert!(
            json.contains(&format!("\"{name}\":{v}")),
            "json missing {name}={v}"
        );
        let prom_line = format!("{} {v}", name.replace('.', "_"));
        assert!(prom.contains(&prom_line), "prom missing {prom_line}");
    }
    // The batch is a span tree in JSON; Prometheus gets the drop summary.
    assert!(json.contains("\"name\":\"batch.lookup\""));
    assert!(json.contains("\"events\":[]"));
    assert!(prom.contains("cuart_events_dropped 0"));
}

#[test]
fn two_sessions_share_the_index_registry() {
    let (index, keys, telemetry) = instrumented_index(1000);
    let mut a = index.device_session(&devices::a100());
    let mut b = index.device_session(&devices::gtx1070());
    a.lookup_batch(&keys[..64]).unwrap();
    b.lookup_batch(&keys[64..128]).unwrap();
    let snap = telemetry.snapshot();
    assert_eq!(snap.counters[names::LOOKUP_BATCHES], 2);
    assert_eq!(snap.counters[names::LOOKUP_KEYS], 128);
}
