//! Shared run context: scaling rules, devices, tree/index builders.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::{devices, DeviceConfig};
use cuart_grt::GrtIndex;
use cuart_telemetry::Telemetry;
use cuart_workloads::uniform_keys;
use std::path::PathBuf;
use std::sync::Arc;

/// Context shared by all figure modules.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Every paper tree size is divided by this (1 = full scale).
    pub scale: usize,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Optional telemetry sink; when set, every index the context builds
    /// records its batches into it (`figures --telemetry`).
    telemetry: Option<Arc<Telemetry>>,
}

impl RunCtx {
    /// Default scaled context (1/16 of the paper's sizes).
    pub fn new(scale: usize, out_dir: impl Into<PathBuf>) -> Self {
        assert!(scale >= 1);
        RunCtx {
            scale,
            out_dir: out_dir.into(),
            telemetry: None,
        }
    }

    /// Attach a telemetry registry: indexes built through [`cuart`](Self::cuart)
    /// and [`grt`](Self::grt) will record every batch into it.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// A paper tree size scaled down, floored at 4 Ki entries.
    pub fn tree_size(&self, paper_entries: usize) -> usize {
        (paper_entries / self.scale).max(4096)
    }

    /// A device with its L2 shrunk by the scale factor (floor 32 KiB), so
    /// cache-residency regimes match the paper's (see crate docs).
    pub fn device(&self, base: DeviceConfig) -> DeviceConfig {
        let mut dev = base;
        dev.l2.size_bytes = (dev.l2.size_bytes / self.scale).max(32 << 10);
        dev
    }

    /// The scaled paper machines.
    pub fn server(&self) -> DeviceConfig {
        self.device(devices::a100())
    }

    /// Workstation (RTX 3090), scaled.
    pub fn workstation(&self) -> DeviceConfig {
        self.device(devices::rtx3090())
    }

    /// Notebook (GTX 1070), scaled.
    pub fn notebook(&self) -> DeviceConfig {
        self.device(devices::gtx1070())
    }

    /// Build an ART over `n` unique uniform keys of `key_len` bytes.
    pub fn build_art(&self, n: usize, key_len: usize, seed: u64) -> (Art<u64>, Vec<Vec<u8>>) {
        let keys = uniform_keys(n, key_len, seed);
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1)
                .expect("unique fixed-length keys");
        }
        (art, keys)
    }

    /// Build an ART from a prepared key set.
    pub fn art_from_keys(&self, keys: &[Vec<u8>]) -> Art<u64> {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).expect("prefix-free key set");
        }
        art
    }

    /// Map to CuART with the paper's configuration (3-byte LUT).
    pub fn cuart(&self, art: &Art<u64>) -> CuartIndex {
        let index = CuartIndex::build(art, &CuartConfig::default());
        match &self.telemetry {
            Some(t) => index.with_telemetry(t.clone()),
            None => index,
        }
    }

    /// Map to the GRT baseline.
    pub fn grt(&self, art: &Art<u64>) -> GrtIndex {
        let index = GrtIndex::build(art);
        match &self.telemetry {
            Some(t) => index.with_telemetry(t.clone()),
            None => index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rules() {
        let ctx = RunCtx::new(16, "/tmp/x");
        assert_eq!(ctx.tree_size(26_000_000), 1_625_000);
        assert_eq!(ctx.tree_size(1000), 4096, "floor applies");
        let dev = ctx.server();
        assert_eq!(dev.l2.size_bytes, (40 << 20) / 16);
        let full = RunCtx::new(1, "/tmp/x");
        assert_eq!(full.tree_size(26_000_000), 26_000_000);
        assert_eq!(full.server().l2.size_bytes, 40 << 20);
    }

    #[test]
    fn l2_floor() {
        let ctx = RunCtx::new(10_000, "/tmp/x");
        assert_eq!(ctx.notebook().l2.size_bytes, 32 << 10);
    }

    #[test]
    fn attached_telemetry_flows_into_built_indexes() {
        use cuart_telemetry::names;
        let telemetry = Arc::new(Telemetry::new());
        let ctx = RunCtx::new(16, "/tmp/x").with_telemetry(telemetry.clone());
        let (art, keys) = ctx.build_art(4096, 8, 7);
        let cuart = ctx.cuart(&art);
        let grt = ctx.grt(&art);
        let dev = ctx.server();
        let mut session = cuart.device_session(&dev);
        session.lookup_batch(&keys[..256]).unwrap();
        grt.lookup_batch_device(&dev, &keys[..256], 8);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters[names::LOOKUP_BATCHES], 1);
        assert_eq!(snap.counters[names::GRT_LOOKUP_BATCHES], 1);
        assert!(snap.gauges[names::DEVICE_BYTES] > 0.0);
        assert!(snap.gauges[names::GRT_DEVICE_BYTES] > 0.0);
    }

    #[test]
    fn builders_produce_consistent_indexes() {
        let ctx = RunCtx::new(16, "/tmp/x");
        let (art, keys) = ctx.build_art(5000, 16, 3);
        assert_eq!(art.len(), 5000);
        let cuart = ctx.cuart(&art);
        let grt = ctx.grt(&art);
        for k in keys.iter().take(50) {
            assert_eq!(cuart.lookup_cpu(k), art.get(k).copied());
            assert_eq!(grt.lookup_cpu(k), art.get(k).copied());
        }
    }
}
