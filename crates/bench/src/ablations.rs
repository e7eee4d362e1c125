//! Ablations of the design choices DESIGN.md calls out, each reported as
//! the **modeled** kernel time of one lookup batch (`figures ablations`):
//!
//! * compacted-root LUT span 0 / 2 / 3 (§3.2.2),
//! * size-classed leaves vs the initial single 32-byte leaf (§3.2.1),
//! * START multi-layer nodes on a dense key space (§5.1),
//! * structure-of-buffers (CuART) vs packed single buffer (GRT) on
//!   identical data.
//!
//! Everything printed is a modeled number, so the report is deterministic.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_grt::GrtIndex;
use cuart_workloads::uniform_keys;
use std::fmt::Write as _;

fn modeled_time(index: &CuartIndex, batch: &[Vec<u8>]) -> (f64, u64, usize) {
    let mut dev = devices::rtx3090();
    dev.l2.size_bytes = 256 << 10;
    let (_, r) = index.lookup_batch_device(&dev, batch, 16);
    (r.time_ns, r.dram_transactions, r.max_chain_steps)
}

/// Run the four ablations and render their report.
pub fn report() -> String {
    let mut out = String::new();
    let keys = uniform_keys(150_000, 12, 17);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64)
            .expect("generated keys are prefix-free");
    }
    let batch = keys[..4096].to_vec();
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;

    let _ = writeln!(out, "--- ablation: compacted-root LUT span (§3.2.2) ---");
    for span in [0usize, 2, 3] {
        let cfg = CuartConfig {
            lut_span: span,
            ..CuartConfig::default()
        };
        let index = CuartIndex::build(&art, &cfg);
        let (t, tx, chain) = modeled_time(&index, &batch);
        let _ = writeln!(
            out,
            "lut_span={span}: {:.1} µs / 4Ki batch, {tx} DRAM tx, chain {chain} steps, {:.1} MiB device",
            t / 1e3,
            mib(index.device_bytes())
        );
    }

    let _ = writeln!(
        out,
        "--- ablation: leaf size classes vs single 32B leaf (§3.2.1) ---"
    );
    for single in [false, true] {
        let cfg = CuartConfig {
            single_leaf_class: single,
            ..CuartConfig::for_tests()
        };
        let index = CuartIndex::build(&art, &cfg);
        let (t, tx, _) = modeled_time(&index, &batch);
        let b = index.buffers();
        let _ = writeln!(
            out,
            "single_leaf_class={single}: {:.1} µs / 4Ki batch, {tx} DRAM tx, {:.1} MiB leaves",
            t / 1e3,
            mib(b.leaf8.len() + b.leaf16.len() + b.leaf32.len())
        );
    }

    let _ = writeln!(
        out,
        "--- ablation: START multi-layer nodes (§5.1 integration) ---"
    );
    // A dense 2-level key space where merging applies.
    let mut dense = Art::new();
    for b1 in 0..=255u8 {
        for b2 in 0..=255u8 {
            dense
                .insert(&[b1, b2, 3, 3, 3, 3, 3, 3], 1)
                .expect("fixed-width keys are prefix-free");
        }
    }
    let dense_batch: Vec<Vec<u8>> = (0..4096u32)
        .map(|i| vec![(i % 256) as u8, (i / 16 % 256) as u8, 3, 3, 3, 3, 3, 3])
        .collect();
    for ml in [false, true] {
        let cfg = CuartConfig {
            lut_span: 0,
            multi_layer_nodes: ml,
            ..CuartConfig::default()
        };
        let index = CuartIndex::build(&dense, &cfg);
        let (t, tx, chain) = modeled_time(&index, &dense_batch);
        let _ = writeln!(
            out,
            "multi_layer_nodes={ml}: {:.1} µs / 4Ki batch, {tx} DRAM tx, chain {chain} steps, {:.1} MiB device",
            t / 1e3,
            mib(index.device_bytes())
        );
    }

    let _ = writeln!(
        out,
        "--- ablation: structure-of-buffers vs packed single buffer ---"
    );
    let cuart = CuartIndex::build(&art, &CuartConfig::default());
    let grt = GrtIndex::build(&art);
    let mut dev = devices::rtx3090();
    dev.l2.size_bytes = 256 << 10;
    let (_, cu) = cuart.lookup_batch_device(&dev, &batch, 16);
    let (_, gr) = grt.lookup_batch_device(&dev, &batch, 16);
    let _ = writeln!(
        out,
        "CuART {:.1} µs (chain {}), GRT {:.1} µs (chain {}) -> kernel speedup {:.2}x",
        cu.time_ns / 1e3,
        cu.max_chain_steps,
        gr.time_ns / 1e3,
        gr.max_chain_steps,
        gr.time_ns / cu.time_ns
    );
    out
}
