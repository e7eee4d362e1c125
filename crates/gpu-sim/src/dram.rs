//! DRAM channel model.
//!
//! Device addresses are interleaved across channels at 256-byte granularity
//! (NVIDIA's partition stride). Every L2 miss becomes a transaction on one
//! channel; the channel is busy for a command-overhead term plus the data
//! burst. The command term — `random_overhead_cycles / command_clock` — is
//! what the paper's §4.6 analysis is about: HBM2's wide channel finishes the
//! burst in one clock, so the fixed command sequence at the *low* HBM clock
//! dominates, while GDDR6X pays the same command sequence at twice the
//! clock.

use crate::config::MemConfig;

/// Address-interleaving stride across channels, in bytes.
pub const CHANNEL_STRIDE: u64 = 256;

/// Accumulates busy time per channel.
#[derive(Debug)]
pub struct DramModel {
    cfg: MemConfig,
    busy_ns: Vec<f64>,
    transactions: u64,
    bytes: u64,
}

impl DramModel {
    /// New idle DRAM model.
    pub fn new(cfg: MemConfig) -> Self {
        DramModel {
            busy_ns: vec![0.0; cfg.channels],
            cfg,
            transactions: 0,
            bytes: 0,
        }
    }

    /// Channel serving byte address `addr`.
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / CHANNEL_STRIDE) % self.cfg.channels as u64) as usize
    }

    /// Issue one transaction of `bytes` at `addr`; returns the service time
    /// (the channel's busy-time contribution) in nanoseconds.
    pub fn issue(&mut self, addr: u64, bytes: usize) -> f64 {
        let t = self.cfg.transaction_ns(bytes);
        let ch = self.channel_of(addr);
        self.busy_ns[ch] += t;
        self.transactions = self.transactions.saturating_add(1);
        self.bytes = self.bytes.saturating_add(bytes as u64);
        t
    }

    /// Busy time of the most-loaded channel: the bandwidth-bound lower
    /// limit on kernel time.
    pub fn max_channel_busy_ns(&self) -> f64 {
        self.busy_ns.iter().copied().fold(0.0, f64::max)
    }

    /// Mean channel busy time.
    pub fn mean_channel_busy_ns(&self) -> f64 {
        self.busy_ns.iter().sum::<f64>() / self.busy_ns.len() as f64
    }

    /// Channel-load imbalance: max/mean busy (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_channel_busy_ns();
        if mean == 0.0 {
            1.0
        } else {
            self.max_channel_busy_ns() / mean
        }
    }

    /// Total transactions issued.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The *loaded* latency of one access: unloaded latency inflated by
    /// queueing once channels approach saturation. `elapsed_ns` is the
    /// wall-clock window over which the recorded traffic was generated.
    pub fn loaded_latency_ns(&self, elapsed_ns: f64) -> f64 {
        let util = if elapsed_ns > 0.0 {
            (self.mean_channel_busy_ns() / elapsed_ns).min(0.97)
        } else {
            0.0
        };
        // M/D/1-style inflation: latency grows as channels saturate.
        self.cfg.access_latency_ns * (1.0 + util / (1.0 - util))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    #[test]
    fn interleaving_spreads_uniform_traffic() {
        let mut dram = DramModel::new(devices::a100().mem);
        for i in 0..40 * 16u64 {
            dram.issue(i * CHANNEL_STRIDE, 32);
        }
        assert!(dram.imbalance() < 1.01, "imbalance {}", dram.imbalance());
        assert_eq!(dram.transactions(), 640);
    }

    #[test]
    fn hot_channel_shows_imbalance() {
        let mut dram = DramModel::new(devices::a100().mem);
        for _ in 0..100 {
            dram.issue(0, 32); // all on channel 0
        }
        assert!(dram.imbalance() > 10.0);
        assert!(dram.max_channel_busy_ns() > 0.0);
    }

    #[test]
    fn bytes_and_service_time_accumulate() {
        let mut dram = DramModel::new(devices::rtx3090().mem);
        let t1 = dram.issue(0, 32);
        let t2 = dram.issue(4096, 128);
        assert!(t2 > t1);
        assert_eq!(dram.bytes(), 160);
    }

    #[test]
    fn loaded_latency_grows_with_utilization() {
        let mut dram = DramModel::new(devices::a100().mem);
        let unloaded = dram.loaded_latency_ns(1e9);
        for i in 0..100_000u64 {
            dram.issue(i * 64, 32);
        }
        // Same traffic, shrinking window -> rising utilisation -> more latency.
        let light = dram.loaded_latency_ns(1e9);
        let heavy = dram.loaded_latency_ns(dram.mean_channel_busy_ns() * 1.1);
        assert!(light >= unloaded);
        assert!(heavy > light * 2.0, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn channel_of_is_stable_and_in_range() {
        let dram = DramModel::new(devices::gtx1070().mem);
        for addr in [0u64, 255, 256, 511, 1 << 30] {
            let ch = dram.channel_of(addr);
            assert!(ch < 8);
            assert_eq!(ch, dram.channel_of(addr));
        }
        assert_ne!(dram.channel_of(0), dram.channel_of(CHANNEL_STRIDE));
    }
}
