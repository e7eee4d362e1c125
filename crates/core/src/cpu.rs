//! The CPU lookup engine over CuART buffers.
//!
//! §4.2 of the paper shows the structure-of-buffers layout is not a
//! GPU-only trick: on the CPU it beats the classic pointer-based ART by
//! 2.5–20× (Figure 7) because the arenas are contiguous, cache lines are
//! fully used, and traversal reads are sequential within each record. This
//! module is that engine; it is also the functional reference the GPU
//! kernels are tested against.

use crate::buffers::CuartBuffers;
use crate::layout::{self, leaf, EMPTY48, HEADER_BYTES, PREFIX_CAP};
use crate::link::{LinkType, NodeLink};
use crate::mapper::{lut_slot, MAX_DEVICE_KEY};

/// Outcome of a device-structure traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The key was found with this value.
    Found(u64),
    /// The key is not in the device structure.
    NotFound,
    /// The traversal hit a host-leaf link (§3.2.3 option 2): the CPU must
    /// compare the key against host leaf `index`.
    HostCompare(u64),
}

/// Traverse the device-visible structure for `key`. Host-side side tables
/// (short keys, CPU-routed long keys) are *not* consulted — that is
/// [`lookup`]'s job, mirroring the split between GPU kernel and host code.
pub fn traverse(b: &CuartBuffers, key: &[u8]) -> Resolution {
    if key.is_empty() || b.entries == 0 {
        return Resolution::NotFound;
    }
    let span = b.config.lut_span;
    let (mut link, mut depth, mut skip) = if span > 0 {
        if key.len() < span {
            return Resolution::NotFound;
        }
        let entry = NodeLink(b.lut_entry(lut_slot(key, span)));
        if entry.is_null() {
            return Resolution::NotFound;
        }
        (entry.without_aux(), span, entry.aux() as usize)
    } else {
        (b.root, 0usize, 0usize)
    };

    loop {
        let Some(ty) = link.link_type() else {
            return Resolution::NotFound;
        };
        match ty {
            LinkType::Leaf8 | LinkType::Leaf16 | LinkType::Leaf32 => {
                let rec = b.record(ty, link.index());
                if rec[leaf::live_at(ty)] == 0 {
                    return Resolution::NotFound;
                }
                let len = rec[leaf::len_at(ty)] as usize;
                if len == key.len() && &rec[..len] == key {
                    let at = leaf::value_at(ty);
                    #[expect(
                        clippy::expect_used,
                        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                    )]
                    return Resolution::Found(u64::from_le_bytes(
                        rec[at..at + 8].try_into().expect("8 bytes"),
                    ));
                }
                return Resolution::NotFound;
            }
            LinkType::DynLeaf => {
                let off = link.index() as usize;
                #[expect(
                    clippy::expect_used,
                    reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                )]
                let len =
                    u16::from_le_bytes(b.dyn_leaves[off..off + 2].try_into().expect("2 bytes"))
                        as usize;
                let stored = &b.dyn_leaves[off + 2..off + 2 + len];
                if stored == key {
                    let at = off + 2 + len;
                    #[expect(
                        clippy::expect_used,
                        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                    )]
                    return Resolution::Found(u64::from_le_bytes(
                        b.dyn_leaves[at..at + 8].try_into().expect("8 bytes"),
                    ));
                }
                return Resolution::NotFound;
            }
            LinkType::HostLeaf => return Resolution::HostCompare(link.index()),
            LinkType::N2L => {
                let base = b.record_offset(ty, link.index());
                let rec = b.record(ty, link.index());
                let plen = rec[1] as usize;
                debug_assert!(skip <= plen, "LUT skip beyond prefix");
                let remaining = plen - skip;
                // Two branch bytes must exist after the prefix.
                if key.len() < depth + remaining + 2 {
                    return Resolution::NotFound;
                }
                let stored = plen.min(PREFIX_CAP);
                for j in skip..stored {
                    if rec[2 + j] != key[depth + j - skip] {
                        return Resolution::NotFound;
                    }
                }
                depth += remaining;
                skip = 0;
                let slot = ((key[depth] as usize) << 8) | key[depth + 1] as usize;
                let next = b.link_at(ty, base + layout::links_at(ty) + slot * 8);
                if next.is_null() {
                    return Resolution::NotFound;
                }
                link = next;
                depth += 2;
            }
            LinkType::N4 | LinkType::N16 | LinkType::N48 | LinkType::N256 => {
                let base = b.record_offset(ty, link.index());
                let rec = b.record(ty, link.index());
                let count = rec[0] as usize;
                let plen = rec[1] as usize;
                debug_assert!(skip <= plen, "LUT skip beyond prefix");
                let remaining = plen - skip;
                // The branch byte must exist after the prefix.
                if key.len() < depth + remaining + 1 {
                    return Resolution::NotFound;
                }
                // Compare the stored prefix bytes; the tail beyond
                // PREFIX_CAP is skipped optimistically (leaf verifies).
                let stored = plen.min(PREFIX_CAP);
                for j in skip..stored {
                    if rec[2 + j] != key[depth + j - skip] {
                        return Resolution::NotFound;
                    }
                }
                depth += remaining;
                skip = 0;
                let byte = key[depth];
                let next = match ty {
                    LinkType::N4 | LinkType::N16 => {
                        let keys = &rec[HEADER_BYTES..HEADER_BYTES + count];
                        match keys.iter().position(|&k| k == byte) {
                            Some(i) => b.link_at(ty, base + layout::links_at(ty) + i * 8),
                            None => NodeLink::NULL,
                        }
                    }
                    LinkType::N48 => {
                        let slot = rec[HEADER_BYTES + byte as usize];
                        if slot == EMPTY48 {
                            NodeLink::NULL
                        } else {
                            b.link_at(ty, base + layout::links_at(ty) + slot as usize * 8)
                        }
                    }
                    LinkType::N256 => {
                        b.link_at(ty, base + layout::links_at(ty) + byte as usize * 8)
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "arm excluded by the tag/class validation guarding this match"
                    )]
                    _ => unreachable!(),
                };
                if next.is_null() {
                    return Resolution::NotFound;
                }
                link = next;
                depth += 1;
            }
        }
    }
}

/// Full lookup: routes short and long keys to the host-side tables exactly
/// as the host pipeline would, and resolves host-compare signals.
pub fn lookup(b: &CuartBuffers, key: &[u8]) -> Option<u64> {
    if b.is_host_routed(key) {
        let long = key.len() > MAX_DEVICE_KEY;
        let table = if long { &b.host_leaves } else { &b.short_keys };
        return CuartBuffers::search_table(table, key);
    }
    match traverse(b, key) {
        Resolution::Found(v) => Some(v),
        Resolution::NotFound => None,
        Resolution::HostCompare(idx) => {
            let (stored, value) = &b.host_leaves[idx as usize];
            (stored.as_slice() == key).then_some(*value)
        }
    }
}

/// Batch lookup convenience (the CPU engine of Figure 7 runs batches of
/// 32 Ki keys through exactly this loop).
pub fn lookup_batch(b: &CuartBuffers, keys: &[Vec<u8>]) -> Vec<Option<u64>> {
    keys.iter().map(|k| lookup(b, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::CuartConfig;
    use crate::mapper::map_art;
    use cuart_art::Art;

    fn build(keys: &[Vec<u8>], span: usize) -> CuartBuffers {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        map_art(
            &art,
            &CuartConfig {
                lut_span: span,
                ..CuartConfig::for_tests()
            },
        )
    }

    #[test]
    fn agrees_with_art_random_8byte_keys() {
        let mut art = Art::new();
        let mut x = 7u64;
        let mut keys = Vec::new();
        for i in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x.to_be_bytes().to_vec();
            art.insert(&k, i).unwrap();
            keys.push(k);
        }
        for span in [0usize, 2] {
            let b = map_art(
                &art,
                &CuartConfig {
                    lut_span: span,
                    ..CuartConfig::for_tests()
                },
            );
            for k in &keys {
                assert_eq!(
                    lookup(&b, k).as_ref(),
                    art.get(k),
                    "span {span}, key {k:x?}"
                );
            }
            for i in 0..200u64 {
                let probe = (i | 0xABCD_0000_0000_0000).to_be_bytes();
                assert_eq!(lookup(&b, &probe).as_ref(), art.get(&probe), "span {span}");
            }
        }
    }

    #[test]
    fn sixteen_and_thirtytwo_byte_keys() {
        let keys: Vec<Vec<u8>> = (0..1000u64)
            .map(|i| {
                let mut k = vec![0u8; 32];
                k[..8].copy_from_slice(&i.wrapping_mul(0x2545F4914F6CDD1D).to_be_bytes());
                k[24..].copy_from_slice(&i.to_be_bytes());
                k
            })
            .collect();
        let b = build(&keys, 2);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(lookup(&b, k), Some(i as u64 + 1));
        }
    }

    #[test]
    fn traverse_does_not_see_host_tables() {
        let b = build(&[b"a".to_vec(), b"device_key".to_vec()], 3);
        // "a" is host-side (shorter than the LUT span).
        assert_eq!(traverse(&b, b"a"), Resolution::NotFound);
        assert_eq!(lookup(&b, b"a"), Some(1));
        assert!(matches!(traverse(&b, b"device_key"), Resolution::Found(2)));
    }

    #[test]
    fn empty_key_and_empty_index() {
        let b = build(&[b"k1".to_vec()], 0);
        assert_eq!(lookup(&b, b""), None);
        let empty = map_art(&Art::new(), &CuartConfig::for_tests());
        assert_eq!(lookup(&empty, b"k1"), None);
    }

    #[test]
    fn batch_lookup_order_preserved() {
        let b = build(&[b"kx1".to_vec(), b"kx2".to_vec()], 2);
        let out = lookup_batch(&b, &[b"kx2".to_vec(), b"missing".to_vec(), b"kx1".to_vec()]);
        assert_eq!(out, vec![Some(2), None, Some(1)]);
    }

    #[test]
    fn mixed_key_lengths_with_lut() {
        // Lengths straddling every leaf class, all through the 2-byte LUT.
        let keys: Vec<Vec<u8>> = (0..300u64)
            .map(|i| {
                let len = 4 + (i % 29) as usize;
                let mut k = vec![0u8; len];
                k[0] = (i % 256) as u8;
                k[1] = (i / 256) as u8;
                k[2] = len as u8;
                k[len - 1] = 0xEE;
                k
            })
            .collect();
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        let b = build(&unique, 2);
        for k in &unique {
            assert!(lookup(&b, k).is_some(), "lost key {k:?}");
        }
    }
}
