//! Key-set generators.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Distinct keys in the order they were first offered, deduplicated
/// without a second copy of any key: an open-addressing table of indices
/// into the output, probed by a hash of the key's bytes. A key is copied
/// once, when it is accepted; a rejected draw costs no allocation.
pub(crate) struct DistinctKeys {
    keys: Vec<Vec<u8>>,
    /// Power-of-two table of indices into `keys`; `EMPTY` marks a free slot.
    slots: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

/// A 64-bit mix of `key`'s bytes, eight at a time.
fn hash(key: &[u8]) -> u64 {
    let mut h = key.len() as u64;
    for chunk in key.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
    }
    // splitmix64's finaliser: every output bit depends on every input bit.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl DistinctKeys {
    /// An empty set sized for `n` keys without rehashing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        assert!(n < EMPTY as usize, "at most 2^32 - 1 keys");
        DistinctKeys {
            keys: Vec::with_capacity(n),
            slots: vec![EMPTY; (2 * n).next_power_of_two().max(16)],
        }
    }

    /// Number of distinct keys held.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Keep a copy of `key` unless an equal key is already held; returns
    /// whether it was new.
    pub(crate) fn insert(&mut self, key: &[u8]) -> bool {
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash(key) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => {
                    self.slots[i] = self.keys.len() as u32;
                    self.keys.push(key.to_vec());
                    return true;
                }
                j if self.keys[j as usize] == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the table and re-place every held key.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; 2 * self.slots.len()];
        let mask = slots.len() - 1;
        for (j, key) in self.keys.iter().enumerate() {
            let mut i = hash(key) as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = j as u32;
        }
        self.slots = slots;
    }

    /// The distinct keys, in the order they were first inserted.
    pub(crate) fn into_keys(self) -> Vec<Vec<u8>> {
        self.keys
    }
}

/// `n` unique uniformly random keys of exactly `key_len` bytes.
///
/// Fixed-length keys are prefix-free by construction, matching the paper's
/// evaluation (4–32-byte keys, §4.4). Deterministic in `seed`.
pub fn uniform_keys(n: usize, key_len: usize, seed: u64) -> Vec<Vec<u8>> {
    assert!(key_len >= 1, "keys must be non-empty");
    if key_len < 8 {
        let space = 256f64.powi(key_len as i32);
        assert!(
            (n as f64) <= space * 0.8,
            "cannot draw {n} unique keys of {key_len} bytes"
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = DistinctKeys::with_capacity(n);
    let mut key = vec![0u8; key_len];
    while out.len() < n {
        rng.fill_bytes(&mut key);
        out.insert(&key);
    }
    out.into_keys()
}

/// `n` dense big-endian integer keys of `key_len` bytes (≥ 8): the
/// "primary key of a growing table" scenario of §4.4 / Figure 10.
pub fn dense_keys(n: usize, key_len: usize) -> Vec<Vec<u8>> {
    assert!(key_len >= 8, "dense keys need at least 8 bytes");
    (0..n as u64)
        .map(|i| {
            let mut k = vec![0u8; key_len];
            k[key_len - 8..].copy_from_slice(&i.to_be_bytes());
            k
        })
        .collect()
}

/// A key set in which a `long_fraction` of keys exceed the 32-byte device
/// maximum (length `long_len`), the rest being `short_len` bytes — the
/// workload of the hybrid experiments (Fig. 13: "a tree with a controlled
/// percentage of long keys").
pub fn long_key_mix(
    n: usize,
    short_len: usize,
    long_len: usize,
    long_fraction: f64,
    seed: u64,
) -> Vec<Vec<u8>> {
    assert!(
        long_len > short_len,
        "long keys must be longer than short ones"
    );
    assert!((0.0..=1.0).contains(&long_fraction));
    let n_long = (n as f64 * long_fraction).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    // Distinct leading byte spaces keep the mixture prefix-free: short keys
    // start 0x00-0x7F, long keys 0x80-0xFF.
    let mut out = DistinctKeys::with_capacity(n);
    let mut key = vec![0u8; short_len];
    while out.len() < n - n_long {
        rng.fill_bytes(&mut key);
        key[0] &= 0x7F;
        out.insert(&key);
    }
    let mut key = vec![0u8; long_len];
    while out.len() < n {
        rng.fill_bytes(&mut key);
        key[0] |= 0x80;
        out.insert(&key);
    }
    // Interleave deterministically so batches mix short and long keys.
    let mut mixed = out.into_keys();
    for i in (1..mixed.len()).rev() {
        let j = rng.gen_range(0..=i);
        mixed.swap(i, j);
    }
    mixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn uniform_keys_are_unique_and_sized() {
        let keys = uniform_keys(5000, 16, 1);
        assert_eq!(keys.len(), 5000);
        assert!(keys.iter().all(|k| k.len() == 16));
        let set: HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), 5000);
    }

    #[test]
    fn distinct_keys_keep_first_offers_in_order_past_their_capacity() {
        let mut set = DistinctKeys::with_capacity(1);
        let offers: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| (i % 1000).to_be_bytes()[..1 + (i % 1000) as usize % 4].to_vec())
            .collect();
        let mut model = Vec::new();
        let mut seen = HashSet::new();
        for key in &offers {
            assert_eq!(set.insert(key), seen.insert(key.clone()));
            if seen.len() > model.len() {
                model.push(key.clone());
            }
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(set.into_keys(), model);
    }

    #[test]
    fn uniform_keys_deterministic_in_seed() {
        assert_eq!(uniform_keys(100, 8, 7), uniform_keys(100, 8, 7));
        assert_ne!(uniform_keys(100, 8, 7), uniform_keys(100, 8, 8));
    }

    #[test]
    fn short_keyspace_guard() {
        // 4-byte keys: 2^32 space, drawing 1000 is fine.
        let keys = uniform_keys(1000, 4, 2);
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "unique keys")]
    fn oversubscribed_keyspace_rejected() {
        uniform_keys(300, 1, 3);
    }

    #[test]
    fn dense_keys_are_sorted_and_unique() {
        let keys = dense_keys(1000, 8);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let keys32 = dense_keys(10, 32);
        assert!(keys32.iter().all(|k| k.len() == 32));
        assert_eq!(&keys32[3][24..], &3u64.to_be_bytes());
    }

    #[test]
    fn long_key_mix_fraction() {
        let keys = long_key_mix(2000, 16, 48, 0.25, 42);
        assert_eq!(keys.len(), 2000);
        let long = keys.iter().filter(|k| k.len() == 48).count();
        assert_eq!(long, 500);
        // Prefix-free across the two families.
        assert!(keys
            .iter()
            .filter(|k| k.len() == 48)
            .all(|k| k[0] & 0x80 != 0));
        assert!(keys
            .iter()
            .filter(|k| k.len() == 16)
            .all(|k| k[0] & 0x80 == 0));
    }

    #[test]
    fn long_key_mix_zero_and_full() {
        assert!(long_key_mix(100, 8, 40, 0.0, 1)
            .iter()
            .all(|k| k.len() == 8));
        assert!(long_key_mix(100, 8, 40, 1.0, 1)
            .iter()
            .all(|k| k.len() == 40));
    }
}
