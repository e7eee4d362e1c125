//! `cuart bench`: the session replay.

use crate::{stored_keys, two_clock_line, CliError, Spill};
use cuart::{CuartIndex, CuartSession};
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::{DeviceConfig, FaultConfig, FaultInjector};
use cuart_telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// One-line fault summary appended to command output when injection is on.
fn fault_summary(session: &CuartSession<'_>) -> String {
    let s = session.fault_stats();
    let still = if s.degraded {
        " — session still degraded (CPU path)"
    } else {
        ""
    };
    format!(
        "\nfaults: {} injected, {} retries, {} degradations, {} recoveries{still}",
        s.injected, s.retries, s.degradations, s.recoveries
    )
}

/// Replay batches of lookups through one device session (`cuart bench`),
/// the paper's measurement: `batches` batches of `batch` probes, taken
/// round-robin from `probes` (a loaded key file) or, without them, from the
/// stored keys. Prints the lookups, hits, DRAM transactions and L2 hit
/// rate, then both clocks: modeled kernel-side MOps/s and the wall-clock
/// keys/s the simulator sustains on this host. With `faults`, a seeded
/// injector shadows every device leg and a fault summary follows. The
/// output files go through the spill `serve` and `bench-net` use.
pub fn cmd_bench(
    path: &Path,
    probes: Option<Vec<(Vec<u8>, u64)>>,
    dev: &DeviceConfig,
    batch: usize,
    batches: usize,
    faults: Option<FaultConfig>,
    spill: &Spill,
) -> Result<String, CliError> {
    let telemetry = Arc::new(Telemetry::new());
    let index = CuartIndex::load(path)?.with_telemetry(telemetry.clone());
    let probes = match probes {
        Some(probes) => probes,
        None => stored_keys(&index)?,
    };
    let faulty = faults.is_some();
    let mut session = match faults {
        Some(f) => index.device_session_with_faults(dev, FaultInjector::new(f)),
        None => index.device_session(dev),
    };
    let (mut hits, mut dram, mut l2_hits, mut sectors) = (0, 0, 0, 0);
    let mut total_ns = 0.0;
    let mut wall = Duration::ZERO;
    for b in 0..batches {
        let queries: Vec<Vec<u8>> = (0..batch)
            .map(|i| probes[(b * batch + i * 7) % probes.len()].0.clone())
            .collect();
        let started = std::time::Instant::now();
        let (results, report) = session.lookup_batch(&queries)?;
        wall += started.elapsed();
        hits += results.iter().filter(|&&r| r != NOT_FOUND).count();
        dram += report.dram_transactions;
        l2_hits += report.l2_hits;
        sectors += report.sectors;
        total_ns += report.time_ns;
    }
    let lookups = batch * batches;
    // With every batch on the CPU fallback (degraded session) there is no
    // modeled device time to rate; the clock line says so.
    let mut out = format!(
        "{lookups} lookups in {batches} batches of {batch} on {} (kernel-side): \
         {hits}/{lookups} hits, {dram} DRAM transactions, {:.0}% L2 hits\n{}",
        dev.name,
        100.0 * l2_hits as f64 / sectors.max(1) as f64,
        two_clock_line(lookups as u64, total_ns, wall),
    );
    if faulty {
        out.push_str(&fault_summary(&session));
    }
    spill.write(&mut out, &telemetry)?;
    Ok(out)
}
