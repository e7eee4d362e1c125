//! Deterministic device fault injection.
//!
//! Real GPU services treat transfer failures and kernel aborts as
//! *recoverable batch outcomes*, not process aborts. This module gives the
//! simulator the same failure surface: a seedable [`FaultInjector`] that
//! engines consult at every operation boundary (before a transfer, before
//! a launch). "Faults
//! off" is an engine with no injector attached: one `Option` branch per
//! check site.
//!
//! Determinism: the injector is a pure function of its
//! [`FaultConfig`] (seed, per-site probabilities, explicit fail-Nth
//! schedule) and the sequence of `check` calls — replaying the same batch
//! sequence reproduces the same faults, which is what the recovery
//! proptests rely on.

use std::fmt;

/// Where in the device pipeline a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// A host↔device transfer (upload of keys/values, download of results).
    Transfer,
    /// A kernel launch (the launch aborts before any device write lands).
    Kernel,
}

impl FaultSite {
    /// Stable lowercase identifier for logs and telemetry labels.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::Transfer => "transfer",
            FaultSite::Kernel => "kernel",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single injected device fault, reported back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    /// The pipeline stage that failed.
    pub site: FaultSite,
    /// Global index of the failed operation (0-based, counts every
    /// `check` call on this injector).
    pub op_index: u64,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected {} fault at op #{}", self.site, self.op_index)
    }
}

impl std::error::Error for DeviceFault {}

/// Configuration of a [`FaultInjector`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; the same seed and call sequence reproduce the same faults.
    pub seed: u64,
    /// Probability in `[0, 1]` that a transfer op faults.
    pub transfer_rate: f64,
    /// Probability in `[0, 1]` that a kernel launch faults.
    pub kernel_rate: f64,
    /// Explicit schedule: global op indices that fault unconditionally,
    /// regardless of site and rate. Used to force deterministic failure
    /// bursts (e.g. "ops 10..20 all fail" to exhaust a retry budget).
    pub fail_ops: Vec<u64>,
}

impl FaultConfig {
    /// Uniform configuration: every site faults with probability `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            transfer_rate: rate,
            kernel_rate: rate,
            fail_ops: Vec::new(),
        }
    }

    /// Schedule the half-open global op range `[start, end)` to fault
    /// unconditionally. Chainable.
    pub fn fail_range(mut self, start: u64, end: u64) -> Self {
        self.fail_ops.extend(start..end);
        self
    }

    fn rate_for(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::Transfer => self.transfer_rate,
            FaultSite::Kernel => self.kernel_rate,
        }
    }
}

/// Deterministic, seedable fault source consulted at device op boundaries.
///
/// Engines call [`check`](FaultInjector::check) before each transfer or
/// launch; `Err(DeviceFault)` means the op failed *before*
/// performing any device write, so retrying it is always safe.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    state: u64,
    ops: u64,
    injected: u64,
}

impl FaultInjector {
    /// Build an injector from a full config.
    pub fn new(cfg: FaultConfig) -> Self {
        // SplitMix64 seeding: avalanche the seed so that seed=0 and
        // seed=1 produce unrelated streams.
        let state = splitmix64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        FaultInjector {
            cfg,
            state,
            ops: 0,
            injected: 0,
        }
    }

    /// Uniform-rate injector (every site faults with probability `rate`).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self::new(FaultConfig::uniform(seed, rate))
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// The configuration this injector was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Consult the injector at an op boundary of kind `site`.
    ///
    /// Returns `Err(DeviceFault)` when the op should fail. The op index
    /// advances on every call.
    pub fn check(&mut self, site: FaultSite) -> Result<(), DeviceFault> {
        let op_index = self.ops;
        self.ops = self.ops.saturating_add(1);
        let scheduled = self.cfg.fail_ops.contains(&op_index);
        let rate = self.cfg.rate_for(site);
        let rolled = if rate > 0.0 {
            // Advance the RNG only when a rate is configured so that
            // pure-schedule configs are insensitive to rate changes.
            let r = self.next_u64();
            (r >> 11) as f64 / (1u64 << 53) as f64 <= rate
        } else {
            false
        };
        if scheduled || rolled {
            self.injected += 1;
            return Err(DeviceFault { site, op_index });
        }
        Ok(())
    }

    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }
}

/// SplitMix64 step — the same mixer the in-tree `rand` shim uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_faults() {
        let mut inj = FaultInjector::uniform(42, 0.0);
        for _ in 0..10_000 {
            assert!(inj.check(FaultSite::Transfer).is_ok());
        }
        assert_eq!(inj.faults_injected(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut inj = FaultInjector::uniform(seed, 0.05);
            (0..1000)
                .map(|_| inj.check(FaultSite::Kernel).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn rate_is_roughly_respected() {
        let mut inj = FaultInjector::uniform(1, 0.05);
        let n = 20_000;
        let mut faults = 0;
        for _ in 0..n {
            if inj.check(FaultSite::Transfer).is_err() {
                faults += 1;
            }
        }
        let observed = faults as f64 / n as f64;
        assert!(
            (0.03..=0.07).contains(&observed),
            "5% rate produced {observed}"
        );
    }

    #[test]
    fn fail_nth_schedule_fires_exactly_there() {
        let mut inj = FaultInjector::new(FaultConfig::default().fail_range(3, 5));
        let results: Vec<bool> = (0..8)
            .map(|_| inj.check(FaultSite::Transfer).is_err())
            .collect();
        assert_eq!(
            results,
            [false, false, false, true, true, false, false, false]
        );
        assert_eq!(inj.faults_injected(), 2);
    }

    #[test]
    fn fault_carries_site_and_op_index() {
        let mut inj = FaultInjector::new(FaultConfig::default().fail_range(1, 2));
        assert!(inj.check(FaultSite::Transfer).is_ok());
        let err = inj.check(FaultSite::Kernel).unwrap_err();
        assert_eq!(err.site, FaultSite::Kernel);
        assert_eq!(err.op_index, 1);
        assert!(err.to_string().contains("kernel"));
    }
}
