//! Warp-level memory coalescing.
//!
//! When a warp executes a load, the 32 lane addresses are merged by the
//! memory subsystem into **32-byte sectors** (the granularity at which
//! NVIDIA L2/DRAM move data). 32 lanes reading consecutive u64s touch 8
//! sectors; 32 lanes chasing random tree pointers touch up to 32 (or more,
//! if an access straddles sector boundaries — GRT's unaligned packed nodes
//! regularly do, which is one of the two costs §3.1 identifies).

/// Size of one memory sector in bytes.
pub const SECTOR_BYTES: u64 = 32;

/// Append the indices (address / 32) of the sectors an access of `len`
/// bytes at `addr` touches to `out`; a zero-length access touches none.
pub fn push_sectors(out: &mut Vec<u64>, addr: u64, len: u32) {
    if len == 0 {
        return;
    }
    let (first, last) = (addr / SECTOR_BYTES, (addr + len as u64 - 1) / SECTOR_BYTES);
    if first == last {
        out.push(first);
    } else {
        out.extend(first..=last);
    }
}

/// The set of distinct sectors touched by a group of accesses, as sector
/// indices (address / 32), sorted and deduplicated.
pub fn sectors(accesses: impl IntoIterator<Item = (u64, u32)>) -> Vec<u64> {
    let mut out = Vec::new();
    for (addr, len) in accesses {
        push_sectors(&mut out, addr, len);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Number of sectors a single access of `len` bytes at `addr` touches.
pub fn sectors_of_access(addr: u64, len: u32) -> u64 {
    if len == 0 {
        return 0;
    }
    (addr + len as u64 - 1) / SECTOR_BYTES - addr / SECTOR_BYTES + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_u64s_coalesce() {
        // 32 lanes × 8 B contiguous = 256 B = 8 sectors.
        let accesses = (0..32u64).map(|i| (i * 8, 8u32));
        assert_eq!(sectors(accesses).len(), 8);
    }

    #[test]
    fn scattered_reads_do_not_coalesce() {
        // 32 lanes, each in its own 4 KiB page.
        let accesses = (0..32u64).map(|i| (i * 4096, 8u32));
        assert_eq!(sectors(accesses).len(), 32);
    }

    #[test]
    fn aligned_access_spans_minimal_sectors() {
        assert_eq!(sectors_of_access(0, 32), 1);
        assert_eq!(sectors_of_access(32, 32), 1);
        assert_eq!(sectors_of_access(0, 64), 2);
    }

    #[test]
    fn unaligned_access_spans_extra_sector() {
        // A 16-byte read at offset 24 crosses a sector boundary: 2 sectors
        // where an aligned read needs 1. This is the GRT penalty.
        assert_eq!(sectors_of_access(24, 16), 2);
        assert_eq!(sectors_of_access(16, 16), 1);
    }

    #[test]
    fn duplicate_addresses_dedupe() {
        // All 32 lanes read the same header (broadcast) = 1 sector.
        let accesses = (0..32).map(|_| (64u64, 8u32));
        assert_eq!(sectors(accesses).len(), 1);
    }

    #[test]
    fn zero_length_access_touches_nothing() {
        assert_eq!(sectors_of_access(10, 0), 0);
        assert!(sectors([(10u64, 0u32)]).is_empty());
    }
}
