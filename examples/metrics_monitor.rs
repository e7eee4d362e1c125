//! Metrics monitoring with string keys — the paper's conclusion names
//! "tracking and aggregating metrics with string-based keys, as done e.g.
//! by monitoring software" as a CuART use case: update/lookup-intense,
//! with *new* series appearing continuously (exercising the §5.1
//! device-side insert engine).
//!
//! This example is itself monitored: instead of hand-rolled counters it
//! attaches a [`Telemetry`] registry to the index and reads everything —
//! scrape time, inserts, host spills, claim conflicts — back out of the
//! snapshot, finishing with a Prometheus-style scrape of the store.
//!
//! ```text
//! cargo run -p cuart-examples --release --bin metrics_monitor
//! ```

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use cuart_telemetry::{names, Telemetry};
use std::sync::Arc;

/// A metric series key: "host.metric" padded into the 32-byte device max.
fn series_key(host: u32, metric: &str) -> Vec<u8> {
    let mut k = format!("h{host:04}.{metric}").into_bytes();
    k.truncate(32);
    k
}

const METRICS: &[&str] = &[
    "cpu.user", "cpu.sys", "mem.rss", "net.rx", "net.tx", "disk.io",
];

fn main() {
    // Bootstrap: 500 hosts × 6 metrics already known at map time.
    let mut art = Art::new();
    for host in 0..500 {
        for m in METRICS {
            art.insert(&series_key(host, m), 0).unwrap();
        }
    }
    let telemetry = Arc::new(Telemetry::new());
    let index = CuartIndex::build(&art, &CuartConfig::default()).with_telemetry(telemetry.clone());
    let dev = devices::rtx3090();
    let mut session = index.device_session(&dev);
    println!(
        "metrics store: {} series mapped, {:.1} MiB device memory",
        index.len(),
        index.device_bytes() as f64 / (1 << 20) as f64
    );
    for round in 0..10u64 {
        // Each scrape updates every known series' latest value...
        let updates: Vec<(Vec<u8>, u64)> = (0..500)
            .flat_map(|h| {
                METRICS
                    .iter()
                    .map(move |m| (series_key(h, m), (h as u64) * 100 + round))
            })
            .collect();
        session.update_batch(&updates).unwrap();
        // ...and 20 freshly deployed hosts appear per round (inserts).
        let fresh: Vec<(Vec<u8>, u64)> = (0..20)
            .flat_map(|i| {
                let host = 1000 + round as u32 * 20 + i;
                METRICS.iter().map(move |m| (series_key(host, m), round))
            })
            .collect();
        session.insert_batch(&fresh).unwrap();
    }

    // Everything the old hand-rolled counters tracked now comes out of the
    // telemetry snapshot — plus cache and conflict data nobody wired up.
    let snap = telemetry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let scrape_ns: u64 = [names::UPDATE_KERNEL_NS, names::INSERT_KERNEL_NS]
        .iter()
        .filter_map(|n| snap.histograms.get(*n))
        .map(|h| h.sum)
        .sum();
    println!(
        "10 scrape rounds: {:.2} ms modeled device time, {} series inserted on-device, \
         {} spilled to host overflow, {} claim conflicts",
        scrape_ns as f64 / 1e6,
        counter(names::INSERT_KEYS) - counter(names::INSERT_HOST_SPILLS),
        counter(names::INSERT_HOST_SPILLS),
        counter(names::CLAIM_CONFLICTS),
    );
    let update_batches = counter(names::UPDATE_BATCHES);
    let insert_batches = counter(names::INSERT_BATCHES);
    println!(
        "span trace: {} spans captured ({update_batches} update / {insert_batches} insert batches)",
        snap.spans.len()
    );
    if let Some(last_insert) = snap
        .spans
        .iter()
        .rev()
        .find(|s| s.name == names::spans::BATCH_INSERT)
    {
        println!(
            "last insert batch: {:.2} us modeled, {:?}",
            last_insert.duration_ns() as f64 / 1e3,
            last_insert.attrs
        );
    }

    // Dashboards read back mixed old/new series.
    let probes = vec![
        series_key(42, "cpu.user"),   // bootstrap series
        series_key(1005, "mem.rss"),  // inserted series
        series_key(9999, "cpu.user"), // never existed
    ];
    let (values, _) = session.lookup_batch(&probes).unwrap();
    println!("h0042.cpu.user = {}", values[0]);
    println!("h1005.mem.rss  = {}", values[1]);
    assert_ne!(values[0], NOT_FOUND);
    assert_ne!(values[1], NOT_FOUND);
    assert_eq!(values[2], NOT_FOUND);
    println!("h9999.cpu.user = (absent, as expected)");
    println!(
        "host overflow table holds {} series",
        session.overflow_len()
    );

    // And because this *is* monitoring software: expose ourselves.
    println!("\n--- prometheus scrape of the store itself (excerpt) ---");
    for line in telemetry
        .snapshot()
        .to_prometheus()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .take(12)
    {
        println!("{line}");
    }
}
