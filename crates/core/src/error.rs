//! Typed errors and the batch retry policy.
//!
//! The paper's device pipeline assumes every transfer and launch
//! succeeds; a production engine cannot. Every fallible device operation in this crate surfaces a [`CuartError`] instead of panicking,
//! and [`CuartSession`](crate::CuartSession) drives a bounded
//! [`RetryPolicy`] (exponential backoff with deterministic jitter) before
//! degrading a batch to the CPU path.

use crate::link::LinkType;
use cuart_gpu_sim::faults::{DeviceFault, FaultSite};
use std::fmt;

/// Every failure a CuART device operation can report.
#[derive(Debug)]
pub enum CuartError {
    /// A host↔device transfer failed before completing.
    TransferFailed {
        /// Global injector op index of the failed transfer.
        op_index: u64,
    },
    /// A kernel launch aborted before any device write landed.
    KernelAborted {
        /// Global injector op index of the aborted launch.
        op_index: u64,
    },
    /// The requested node/leaf type has no device arena at all
    /// (host leaves live in host memory by definition).
    NoDeviceArena {
        /// The offending type.
        link_type: LinkType,
    },
    /// The update/insert claim hash table could not absorb the batch even
    /// after sub-batch splitting.
    HashTableFull {
        /// Configured slot count of the table.
        table_slots: usize,
    },
    /// A snapshot file failed validation (bad magic/version, truncated
    /// section, CRC mismatch, or inconsistent content).
    SnapshotCorrupt {
        /// Human-readable description of what failed to validate.
        detail: String,
    },
    /// A device operation kept failing after exhausting the retry budget.
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<CuartError>,
    },
    /// A key batch failed to pack into its device staging buffer.
    KeyPack {
        /// What the packer rejected.
        detail: String,
    },
    /// An engine invariant was violated — a bug surfaced as an error
    /// instead of a panic, so a serving process can shed the batch and
    /// keep running.
    Internal {
        /// Which invariant broke.
        detail: String,
    },
    /// An underlying I/O error (snapshot read/write).
    Io(std::io::Error),
}

impl fmt::Display for CuartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CuartError::TransferFailed { op_index } => {
                write!(f, "host-device transfer failed (op #{op_index})")
            }
            CuartError::KernelAborted { op_index } => {
                write!(f, "kernel launch aborted (op #{op_index})")
            }
            CuartError::NoDeviceArena { link_type } => {
                write!(f, "{link_type:?} has no device arena")
            }
            CuartError::HashTableFull { table_slots } => {
                write!(f, "claim hash table full ({table_slots} slots)")
            }
            CuartError::SnapshotCorrupt { detail } => {
                write!(f, "snapshot corrupt: {detail}")
            }
            CuartError::RetriesExhausted { attempts, last } => {
                write!(f, "device op failed after {attempts} attempts: {last}")
            }
            CuartError::KeyPack { detail } => write!(f, "key batch pack failed: {detail}"),
            CuartError::Internal { detail } => write!(f, "internal invariant violated: {detail}"),
            CuartError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CuartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CuartError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            CuartError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CuartError {
    fn from(e: std::io::Error) -> Self {
        CuartError::Io(e)
    }
}

impl From<cuart_gpu_sim::batch::PackError> for CuartError {
    fn from(e: cuart_gpu_sim::batch::PackError) -> Self {
        CuartError::KeyPack {
            detail: e.to_string(),
        }
    }
}

impl From<DeviceFault> for CuartError {
    fn from(fault: DeviceFault) -> Self {
        match fault.site {
            FaultSite::Transfer => CuartError::TransferFailed {
                op_index: fault.op_index,
            },
            FaultSite::Kernel => CuartError::KernelAborted {
                op_index: fault.op_index,
            },
        }
    }
}

impl CuartError {
    /// Shorthand for a [`CuartError::SnapshotCorrupt`].
    pub fn corrupt(detail: impl Into<String>) -> Self {
        CuartError::SnapshotCorrupt {
            detail: detail.into(),
        }
    }

    /// `true` when retrying the same operation might succeed — injected
    /// device faults are transient; structural errors are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CuartError::TransferFailed { .. } | CuartError::KernelAborted { .. }
        )
    }
}

/// Bounded retry with exponential backoff and deterministic jitter.
///
/// The backoff is *modeled*, not slept: each retry charges
/// `backoff_ns(attempt)` to the batch's kernel-time account, the same way
/// the simulator charges PCIe latency. This keeps tests fast and the
/// timing model honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per device operation (initial try included).
    /// Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry (ns).
    pub base_backoff_ns: u64,
    /// Backoff ceiling (ns).
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 50_000,   // 50 µs
            max_backoff_ns: 5_000_000, // 5 ms
        }
    }
}

impl RetryPolicy {
    /// Modeled backoff before retry number `retry` (1-based), with a
    /// deterministic jitter derived from `jitter_seed` so two sessions
    /// with different seeds do not retry in lockstep.
    pub fn backoff_ns(&self, retry: u32, jitter_seed: u64) -> u64 {
        let exp = retry.saturating_sub(1).min(20);
        let base = self
            .base_backoff_ns
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ns);
        // Up to +25% jitter, deterministic in (seed, retry).
        let mut z = jitter_seed ^ u64::from(retry).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
        base + (z % (base / 4 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = CuartError::NoDeviceArena {
            link_type: LinkType::HostLeaf,
        };
        assert!(e.to_string().contains("no device arena"));
    }

    #[test]
    fn device_fault_maps_by_site() {
        let f = DeviceFault {
            site: FaultSite::Transfer,
            op_index: 9,
        };
        assert!(matches!(
            CuartError::from(f),
            CuartError::TransferFailed { op_index: 9 }
        ));
        let f = DeviceFault {
            site: FaultSite::Kernel,
            op_index: 2,
        };
        assert!(matches!(
            CuartError::from(f),
            CuartError::KernelAborted { op_index: 2 }
        ));
    }

    #[test]
    fn transience_split() {
        assert!(CuartError::TransferFailed { op_index: 0 }.is_transient());
        assert!(!CuartError::corrupt("x").is_transient());
        assert!(!CuartError::HashTableFull { table_slots: 8 }.is_transient());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        let b1 = p.backoff_ns(1, 0);
        let b2 = p.backoff_ns(2, 0);
        let b3 = p.backoff_ns(3, 0);
        assert!(b1 >= p.base_backoff_ns);
        assert!(b2 > b1 / 2 && b2 >= p.base_backoff_ns * 2);
        assert!(b3 >= p.base_backoff_ns * 4);
        // Far past the cap, backoff stays bounded by cap + 25% jitter.
        let huge = p.backoff_ns(30, 7);
        assert!(huge <= p.max_backoff_ns + p.max_backoff_ns / 4);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(2, 11), p.backoff_ns(2, 11));
        assert_ne!(p.backoff_ns(2, 11), p.backoff_ns(2, 12));
    }

    #[test]
    fn retries_exhausted_chains_source() {
        let e = CuartError::RetriesExhausted {
            attempts: 4,
            last: Box::new(CuartError::KernelAborted { op_index: 3 }),
        };
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("4 attempts"));
    }
}
