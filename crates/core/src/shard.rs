//! Key-space shard routing for multi-device serving.
//!
//! The §3.3 compacted root already orders the key space by its leading
//! bytes: the first `lut_span` bytes of a key, read big-endian, index the
//! dense root LUT. A sharded serving layer wants the *same* order — if
//! shards own contiguous ranges of the LUT prefix, each shard's working
//! set is a contiguous slice of the root table and of the ordered leaf
//! arenas beneath it, so the §3.1 sorted-batch locality win survives the
//! split.
//!
//! [`ShardRouter`] is that partition: the leading key bytes (zero-padded,
//! big-endian) become a 64-bit fraction of the key space, and shard `i`
//! owns the `i`-th of `n` equal slices of it. The map is
//!
//! * **total** — every key (including keys shorter than the prefix, which
//!   the LUT routes host-side) lands on exactly one shard, so last-write-
//!   wins update semantics (§3.4) hold per key across the whole fleet;
//! * **monotone** — `a <= b` (lexicographic, zero-padded) implies
//!   `shard_of(a) <= shard_of(b)`, i.e. shards are contiguous key ranges
//!   aligned with the LUT prefix order;
//! * **stateless** — routing needs no tree access, only the key bytes, so
//!   a router can split batches before any device is touched.

use crate::keys::KeySource;

/// Number of leading key bytes folded into the routing fraction. Eight
/// bytes (one `u64`) always covers the root LUT span (≤ 3 in practice),
/// so routing never splits a LUT slot across shards.
pub const ROUTE_PREFIX_BYTES: usize = 8;

/// Stateless key-space partitioner: `n` shards over the lexicographic
/// order of the leading key bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> ShardRouter {
        ShardRouter {
            shards: shards.max(1),
        }
    }

    /// Number of shards this router partitions the key space into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The key's position in the key space as a 64-bit big-endian
    /// fraction: the first [`ROUTE_PREFIX_BYTES`] bytes, zero-padded on
    /// the right. Zero-padding (rather than truncation alone) keeps the
    /// fraction order identical to lexicographic key order for keys
    /// shorter than the prefix.
    fn prefix_fraction(key: &[u8]) -> u64 {
        let mut bytes = [0u8; ROUTE_PREFIX_BYTES];
        let n = key.len().min(ROUTE_PREFIX_BYTES);
        bytes[..n].copy_from_slice(&key[..n]);
        u64::from_be_bytes(bytes)
    }

    /// The shard owning `key`: the fraction's slice index out of
    /// `shards` equal slices. Multiplying in `u128` keeps the map exact
    /// (no rounding seam between shards) and monotone.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let frac = Self::prefix_fraction(key) as u128;
        ((frac * self.shards as u128) >> 64) as usize
    }

    /// Split a batch into per-shard index lists, preserving arrival order
    /// within each shard (the split is stable). `lists[s]` holds the
    /// positions in `keys` routed to shard `s`; concatenating the lists
    /// in shard order yields a permutation of `0..keys.len()`. Each list
    /// is sized in a first pass, so the split allocates once per shard.
    pub fn split_indices(&self, keys: &(impl KeySource + ?Sized)) -> Vec<Vec<usize>> {
        let mut sizes = vec![0usize; self.shards];
        for i in 0..keys.len() {
            sizes[self.shard_of(keys.key(i))] += 1;
        }
        let mut lists: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for i in 0..keys.len() {
            lists[self.shard_of(keys.key(i))].push(i);
        }
        lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn every_key_maps_to_exactly_one_shard() {
        let r = ShardRouter::new(4);
        for i in 0..4096u64 {
            let s = r.shard_of(&key(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            assert!(s < 4);
        }
        // Short and empty keys route too (they live host-side in the
        // index, but the router must still own them somewhere).
        assert_eq!(r.shard_of(&[]), 0);
        assert!(r.shard_of(&[0xff]) < 4);
    }

    #[test]
    fn routing_is_monotone_in_key_order() {
        let r = ShardRouter::new(5);
        let mut keys: Vec<Vec<u8>> = (0..512u64)
            .map(|i| key(i.wrapping_mul(0x5851_f42d_4c95_7f2d)))
            .collect();
        keys.push(vec![]);
        keys.push(vec![0x80]);
        keys.push(vec![0x80, 0x00, 0x01]);
        keys.sort();
        let shards: Vec<usize> = keys.iter().map(|k| r.shard_of(k)).collect();
        assert!(
            shards.windows(2).all(|w| w[0] <= w[1]),
            "shard ids must be non-decreasing over sorted keys"
        );
    }

    #[test]
    fn uniform_prefixes_reach_every_shard_roughly_evenly() {
        let n = 8usize;
        let r = ShardRouter::new(n);
        let mut counts = vec![0usize; n];
        let total = 64 * 1024u64;
        for i in 0..total {
            // Uniform top byte ⇒ uniform fraction ⇒ near-even split.
            counts[r.shard_of(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes())] += 1;
        }
        let ideal = total as usize / n;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > ideal / 2 && c < ideal * 2,
                "shard {s} holds {c} of {total} uniform keys (ideal {ideal})"
            );
        }
    }

    #[test]
    fn split_is_a_stable_permutation() {
        let r = ShardRouter::new(3);
        let keys: Vec<Vec<u8>> = (0..257u64)
            .map(|i| key(i.wrapping_mul(0xbf58_476d_1ce4_e5b9)))
            .collect();
        let lists = r.split_indices(&keys);
        let mut seen = vec![false; keys.len()];
        for (s, list) in lists.iter().enumerate() {
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "arrival order must be preserved within shard {s}"
            );
            for &i in list {
                assert!(!seen[i], "index {i} routed twice");
                seen[i] = true;
                assert_eq!(r.shard_of(&keys[i]), s);
            }
        }
        assert!(seen.iter().all(|&b| b), "every index routed once");
    }

    #[test]
    fn lut_slots_never_straddle_shards() {
        // Keys sharing the same ROUTE_PREFIX_BYTES-byte prefix (hence the
        // same LUT slot for any span ≤ 8) always land on the same shard.
        let r = ShardRouter::new(7);
        let prefix = [0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0];
        let base = r.shard_of(&prefix);
        for tail in 0..64u8 {
            let mut k = prefix.to_vec();
            k.push(tail);
            assert_eq!(r.shard_of(&k), base);
        }
    }
}
