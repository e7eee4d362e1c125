//! Query-batch packing helpers.
//!
//! Both GRT and CuART kernels consume batches of query keys packed at a
//! fixed stride in a device buffer and produce one 64-bit result per query.
//! Keys shorter than the stride are zero-padded; their true length is
//! prepended so kernels can compare exactly.
//!
//! Packing is fallible from the caller's point of view: a key longer than
//! the batch stride (or than the 255-byte length field) cannot be
//! represented, and a reused staging buffer may be smaller than the batch.
//! Both conditions surface as [`PackError`] instead of a panic so service
//! layers (sessions, schedulers) can route the offending key elsewhere.
//! [`lookup_fitting`] is the one-shot form of that routing both engines'
//! `lookup_batch_device` share: an over-stride key answers [`NOT_FOUND`].
//!
//! The module also hosts the **sorted-batch** helpers ([`sort_permutation`],
//! [`gather`] / [`take_permuted`], [`scatter_inverse`]): packing a batch in key order makes
//! adjacent kernel threads traverse neighboring tree paths, which the
//! coalescing and cache models reward (§3.1 of the paper). The sort keys
//! each item by a cached 8-byte prefix and reads a full key only on a tie,
//! so it stays cheap over a batch of separately allocated keys. The
//! permutation is inverted on result return so callers still see results
//! in submission order.

use crate::exec::KernelReport;
use crate::memory::{BufferId, DeviceMemory};
use std::fmt;

/// Sentinel returned for queries whose key is not in the index.
pub const NOT_FOUND: u64 = u64::MAX;

/// Why a batch of keys could not be packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// A key does not fit the per-record stride (or the one-byte length
    /// field). The index identifies the offending key within the batch.
    KeyTooLong {
        /// Position of the key inside the batch.
        index: usize,
        /// Length of the offending key in bytes.
        len: usize,
        /// Largest representable key length for this layout.
        max: usize,
    },
    /// The destination buffer cannot hold the batch.
    BufferTooSmall {
        /// Bytes required by the batch.
        needed: usize,
        /// Bytes available in the buffer.
        available: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::KeyTooLong { index, len, max } => {
                write!(f, "key {index} of {len} bytes exceeds batch stride {max}")
            }
            PackError::BufferTooSmall { needed, available } => write!(
                f,
                "batch buffer too small: need {needed} bytes, have {available}"
            ),
        }
    }
}

impl std::error::Error for PackError {}

/// Per-key record layout inside a packed batch: one length byte followed by
/// `stride` key bytes (zero-padded).
#[derive(Debug, Clone, Copy)]
pub struct KeyBatchLayout {
    /// Maximum key bytes per record.
    pub stride: usize,
}

impl KeyBatchLayout {
    /// Bytes occupied by one record.
    pub fn record_bytes(&self) -> usize {
        // Length byte + key bytes, rounded to 8 for aligned kernel reads.
        (1 + self.stride).next_multiple_of(8)
    }

    /// Byte offset of record `i`.
    pub fn offset(&self, i: usize) -> usize {
        i * self.record_bytes()
    }

    /// Largest key length this layout can represent: bounded by the stride
    /// and by the one-byte length field.
    pub fn max_key_len(&self) -> usize {
        self.stride.min(u8::MAX as usize)
    }

    /// Check every key fits the layout; identifies the first that does not.
    pub fn check_keys<K: AsRef<[u8]>>(
        &self,
        keys: impl IntoIterator<Item = K>,
    ) -> Result<(), PackError> {
        let max = self.max_key_len();
        for (index, key) in keys.into_iter().enumerate() {
            let len = key.as_ref().len();
            if len > max {
                return Err(PackError::KeyTooLong { index, len, max });
            }
        }
        Ok(())
    }
}

/// The key bytes of one packed record, as a kernel reads it back: the
/// length byte says how many of the following bytes are the key.
pub fn record_key(record: &[u8]) -> &[u8] {
    &record[1..1 + record[0] as usize]
}

/// Pack `keys` into a new device buffer with the given per-record stride.
/// Fails with [`PackError::KeyTooLong`] if any key exceeds the stride (or
/// the 255-byte length field).
pub fn pack_keys<K: AsRef<[u8]>>(
    mem: &mut DeviceMemory,
    name: &str,
    keys: &[K],
    stride: usize,
) -> Result<(BufferId, KeyBatchLayout), PackError> {
    let layout = KeyBatchLayout { stride };
    layout.check_keys(keys)?;
    let id = mem.alloc(name, keys.len() * layout.record_bytes(), 32);
    pack_keys_into(mem, id, &layout, keys.iter())?;
    Ok((id, layout))
}

/// Re-pack `keys` into an existing batch buffer of at least as many
/// records. The host pipeline reuses one staging buffer per stream instead
/// of allocating per batch, and hands the keys over borrowed: each key is
/// copied exactly once, from the caller's storage into its record.
///
/// Every record in the live region `[0, keys.len())` is written in full —
/// length byte, key bytes **and** zero padding up to the record stride — so
/// a reused buffer cannot leak key bytes or length fields from a previous,
/// larger batch into the records a kernel will read. (Records past
/// `keys.len()` may still hold stale data; kernels are bounded by the batch
/// `count` and never read them.) Nothing is written unless every key fits.
pub fn pack_keys_into<K: AsRef<[u8]>>(
    mem: &mut DeviceMemory,
    buf: BufferId,
    layout: &KeyBatchLayout,
    keys: impl ExactSizeIterator<Item = K> + Clone,
) -> Result<(), PackError> {
    let rec = layout.record_bytes();
    let needed = keys.len() * rec;
    let available = mem.buffer(buf).len();
    if needed > available {
        return Err(PackError::BufferTooSmall { needed, available });
    }
    layout.check_keys(keys.clone())?;
    let records = mem.bytes_mut(buf, 0, needed).chunks_exact_mut(rec);
    for (record, key) in records.zip(keys) {
        let key = key.as_ref();
        let (head, padding) = record.split_at_mut(1 + key.len());
        head[0] = key.len() as u8;
        head[1..].copy_from_slice(key);
        padding.fill(0);
    }
    Ok(())
}

/// Allocate a result buffer of one u64 per query, initialised to
/// [`NOT_FOUND`].
pub fn alloc_results(mem: &mut DeviceMemory, name: &str, queries: usize) -> BufferId {
    let id = mem.alloc(name, queries * 8, 32);
    for i in 0..queries {
        mem.write_u64(id, i * 8, NOT_FOUND);
    }
    id
}

/// Read back all results.
pub fn read_results(mem: &DeviceMemory, results: BufferId, queries: usize) -> Vec<u64> {
    (0..queries).map(|i| mem.read_u64(results, i * 8)).collect()
}

/// The one-shot lookup rule both engines share. The keys of `queries` that
/// fit `stride` are packed into fresh `queries` / `results` buffers (in that
/// order), `launch` runs the kernel over them as
/// `launch(mem, queries, layout, results, count)`, and the answers are
/// scattered back into submission order. A key longer than the stride (or
/// the 255-byte length field) answers [`NOT_FOUND`]: a key that cannot be
/// packed under this stride cannot be stored under it either. When no key
/// fits, nothing is allocated or launched and the report is the default.
pub fn lookup_fitting(
    mem: &mut DeviceMemory,
    queries: &[Vec<u8>],
    stride: usize,
    launch: impl FnOnce(&mut DeviceMemory, BufferId, KeyBatchLayout, BufferId, usize) -> KernelReport,
) -> (Vec<u64>, KernelReport) {
    let max = KeyBatchLayout { stride }.max_key_len();
    let fits = |q: &Vec<u8>| q.len() <= max;
    let mut out = vec![NOT_FOUND; queries.len()];
    let fitting: Vec<&Vec<u8>> = queries.iter().filter(|q| fits(q)).collect();
    if fitting.is_empty() {
        return (out, KernelReport::default());
    }
    // Every packed key fits and the buffer is sized to the batch, so the
    // packer cannot refuse; if it did, misses are the answer, not a panic.
    let Ok((qbuf, layout)) = pack_keys(mem, "queries", &fitting, stride) else {
        return (out, KernelReport::default());
    };
    let results = alloc_results(mem, "results", fitting.len());
    let report = launch(mem, qbuf, layout, results, fitting.len());
    let answers = read_results(mem, results, fitting.len());
    let slots = out.iter_mut().zip(queries).filter(|(_, q)| fits(q));
    for ((slot, _), answer) in slots.zip(answers) {
        *slot = answer;
    }
    (out, report)
}

// ---------------------------------------------------------------------------
// Sorted-batch composition
// ---------------------------------------------------------------------------

/// Compute the permutation that **stably** sorts `keys` ascending:
/// `perm[i]` is the original index of the key placed at sorted position
/// `i`. Stability matters for update batches — duplicate keys keep their
/// submission order, so "last write wins" semantics survive sorting.
pub fn sort_permutation(keys: &[Vec<u8>]) -> Vec<usize> {
    sort_permutation_by_key(keys, |k| k, &mut SortScratch::default())
}

/// The reusable scratch of [`sort_permutation_by_key`]: one `(prefix,
/// index)` pair per item. A caller that sorts batch after batch keeps one,
/// so a sort allocates nothing but the permutation it returns.
#[derive(Debug, Default)]
pub struct SortScratch {
    tagged: Vec<(u64, usize)>,
}

/// The first 8 bytes of `key`, zero-padded, as a big-endian `u64`. Keys
/// whose prefixes differ compare as their prefixes do (a key that ends
/// inside the 8 bytes pads with zeros and sorts first, as a proper prefix
/// does); only equal prefixes need the full keys.
fn prefix(key: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    let n = key.len().min(8);
    bytes[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(bytes)
}

/// [`sort_permutation`] over items that carry their key (an update's
/// `(key, value)` pair sorts by its key), so a batch is sorted where it
/// lies instead of being split into keys and payload first.
///
/// Each key is read once, into a cached 8-byte prefix beside its index in
/// `scratch`; the sort compares prefixes and touches the full keys only on
/// a tie. The index breaks the remaining ties, so the order is total and
/// equals the stable sort's: duplicates keep their submission order.
pub fn sort_permutation_by_key<T>(
    items: &[T],
    key: impl Fn(&T) -> &[u8],
    scratch: &mut SortScratch,
) -> Vec<usize> {
    let tagged = &mut scratch.tagged;
    tagged.clear();
    tagged.extend(items.iter().map(|item| prefix(key(item))).zip(0..));
    tagged.sort_unstable_by(|&(pa, a), &(pb, b)| {
        pa.cmp(&pb)
            .then_with(|| key(&items[a]).cmp(key(&items[b])))
            .then(a.cmp(&b))
    });
    tagged.iter().map(|&(_, i)| i).collect()
}

/// Gather `items` into permutation order: `out[i] = items[perm[i]]`.
/// Used to build the sorted batch that is handed to the device.
pub fn gather<T: Clone>(items: &[T], perm: &[usize]) -> Vec<T> {
    perm.iter().map(|&i| items[i].clone()).collect()
}

/// [`gather`] for a caller that owns `items` and is done with them: every
/// item is moved out (a default is left behind), so a batch of heap keys
/// is permuted without copying one. `perm` names each index at most once.
pub fn take_permuted<T: Default>(items: &mut [T], perm: &[usize]) -> Vec<T> {
    perm.iter()
        .map(|&i| std::mem::take(&mut items[i]))
        .collect()
}

/// Scatter `results` (in sorted/batch order) back to submission order by
/// applying the **inverse** permutation: `out[perm[i]] = results[i]`.
pub fn scatter_inverse<T: Clone + Default>(results: &[T], perm: &[usize]) -> Vec<T> {
    debug_assert_eq!(results.len(), perm.len());
    let mut out = vec![T::default(); results.len()];
    for (i, &orig) in perm.iter().enumerate() {
        out[orig] = results[i].clone();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_layout_is_aligned() {
        let l = KeyBatchLayout { stride: 32 };
        assert_eq!(l.record_bytes(), 40);
        assert_eq!(l.offset(3), 120);
        let l8 = KeyBatchLayout { stride: 8 };
        assert_eq!(l8.record_bytes(), 16);
    }

    #[test]
    fn pack_and_inspect() {
        let mut mem = DeviceMemory::new();
        let keys = vec![b"abc".to_vec(), b"".to_vec(), vec![0xFF; 8]];
        let (buf, layout) = pack_keys(&mut mem, "q", &keys, 8).unwrap();
        for (i, key) in keys.iter().enumerate() {
            let off = layout.offset(i);
            assert_eq!(mem.read_u8(buf, off) as usize, key.len());
            assert_eq!(mem.get(buf, off + 1, key.len()).unwrap(), &key[..]);
            assert_eq!(
                record_key(mem.get(buf, off, layout.record_bytes()).unwrap()),
                &key[..]
            );
        }
        // Padding is zeroed.
        assert_eq!(mem.read_u8(buf, layout.offset(0) + 1 + 3), 0);
    }

    #[test]
    fn oversized_key_is_an_error_not_a_panic() {
        let mut mem = DeviceMemory::new();
        let err = pack_keys(&mut mem, "q", &[vec![0u8; 4], vec![0u8; 9]], 8).unwrap_err();
        assert_eq!(
            err,
            PackError::KeyTooLong {
                index: 1,
                len: 9,
                max: 8
            }
        );
        // The length byte caps representable keys at 255 even for huge
        // strides.
        let err = pack_keys(&mut mem, "q", &[vec![0u8; 300]], 512).unwrap_err();
        assert_eq!(
            err,
            PackError::KeyTooLong {
                index: 0,
                len: 300,
                max: 255
            }
        );
    }

    #[test]
    fn undersized_buffer_is_an_error() {
        let mut mem = DeviceMemory::new();
        let (buf, layout) = pack_keys(&mut mem, "q", &vec![vec![1u8; 8]; 2], 8).unwrap();
        let err = pack_keys_into(&mut mem, buf, &layout, [[1u8; 8]; 3].iter()).unwrap_err();
        assert_eq!(
            err,
            PackError::BufferTooSmall {
                needed: 48,
                available: 32
            }
        );
    }

    #[test]
    fn repack_overwrites_full_live_region() {
        // Regression for staging reuse: a smaller batch re-packed into a
        // buffer that previously held longer keys must not leave stale key
        // bytes or length fields inside its live records.
        let mut mem = DeviceMemory::new();
        let big = vec![vec![0xAAu8; 8], vec![0xBBu8; 8], vec![0xCCu8; 8]];
        let (buf, layout) = pack_keys(&mut mem, "q", &big, 8).unwrap();
        // Borrowed keys of any shape: here a slice out of a larger buffer.
        let backing = [0x11u8; 16];
        pack_keys_into(&mut mem, buf, &layout, [&backing[3..5]].into_iter()).unwrap();
        let off = layout.offset(0);
        assert_eq!(mem.read_u8(buf, off), 2);
        assert_eq!(mem.get(buf, off + 1, 2).unwrap(), vec![0x11, 0x11]);
        // Bytes 3..8 of record 0 must be zero, not stale 0xAA.
        assert_eq!(mem.get(buf, off + 3, 6).unwrap(), vec![0u8; 6]);
        // A key that does not fit leaves the buffer as it was.
        let err = pack_keys_into(
            &mut mem,
            buf,
            &layout,
            [&[7u8; 1][..], &[7u8; 9]].into_iter(),
        );
        assert!(matches!(err, Err(PackError::KeyTooLong { index: 1, .. })));
        assert_eq!(mem.get(buf, off, 3).unwrap(), vec![2, 0x11, 0x11]);
    }

    #[test]
    fn results_roundtrip() {
        let mut mem = DeviceMemory::new();
        let res = alloc_results(&mut mem, "r", 4);
        assert_eq!(read_results(&mem, res, 4), vec![NOT_FOUND; 4]);
        mem.write_u64(res, 8, 42);
        assert_eq!(read_results(&mem, res, 4)[1], 42);
    }

    #[test]
    fn sort_permutation_roundtrips() {
        let keys = vec![
            b"delta".to_vec(),
            b"alpha".to_vec(),
            b"charlie".to_vec(),
            b"bravo".to_vec(),
        ];
        let perm = sort_permutation(&keys);
        let sorted = gather(&keys, &perm);
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(sorted, expect);
        assert_eq!(take_permuted(&mut keys.clone(), &perm), expect);
        // Results computed in sorted order come back in submission order.
        let sorted_results: Vec<u64> = perm.iter().map(|&i| i as u64 * 10).collect();
        let restored = scatter_inverse(&sorted_results, &perm);
        assert_eq!(restored, vec![0, 10, 20, 30]);
    }

    #[test]
    fn sort_permutation_is_stable_for_duplicates() {
        let keys = vec![b"same".to_vec(), b"aaa".to_vec(), b"same".to_vec()];
        let perm = sort_permutation(&keys);
        // Duplicates keep submission order: index 0 before index 2.
        assert_eq!(perm, vec![1, 0, 2]);
    }

    #[test]
    fn zero_padded_lookalikes_sort_by_length_after_equal_prefixes() {
        // The four `ab` keys pad to one 8-byte prefix, so the full keys
        // decide among them; the duplicate `ab`s keep submission order.
        let keys = [&b"ab\0"[..], b"ab", b"ab\0\0\0\0\0\0\0", b"", b"ab"].map(<[u8]>::to_vec);
        assert_eq!(sort_permutation(&keys), vec![3, 1, 4, 0, 2]);
    }

    /// The permutation a plain stable sort of the keys gives.
    fn stable_reference<T>(items: &[T], key: impl Fn(&T) -> &[u8]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..items.len()).collect();
        perm.sort_by(|&a, &b| key(&items[a]).cmp(key(&items[b])));
        perm
    }

    /// A key over a four-symbol alphabet that includes 0, so a batch is
    /// full of duplicates, proper prefixes and zero-padded lookalikes;
    /// `shared` starts it with the same 8 bytes as every other shared key.
    fn key_of(len: usize, bits: u64, shared: bool) -> Vec<u8> {
        const ALPHABET: [u8; 4] = [0, 1, b'a', 0xFF];
        let mut key = if shared {
            b"shared\0!".to_vec()
        } else {
            Vec::new()
        };
        key.extend((0..len).map(|i| ALPHABET[(bits >> (2 * i)) as usize & 3]));
        key
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn prefix_keyed_sort_equals_the_stable_sort(
            specs in proptest::collection::vec(
                (0usize..13, proptest::any::<u64>(), proptest::any::<bool>()),
                0..300,
            ),
        ) {
            let keys: Vec<Vec<u8>> = specs
                .iter()
                .map(|&(len, bits, shared)| key_of(len, bits, shared))
                .collect();
            // One scratch across both sorts, as the scheduler keeps it.
            let mut scratch = SortScratch::default();
            let perm = sort_permutation_by_key(&keys, |k| k, &mut scratch);
            proptest::prop_assert_eq!(&perm, &stable_reference(&keys, |k| k));
            let pairs: Vec<(Vec<u8>, u64)> = keys.into_iter().zip(0..).collect();
            let perm = sort_permutation_by_key(&pairs, |op| &op.0, &mut scratch);
            proptest::prop_assert_eq!(perm, stable_reference(&pairs, |op| &op.0));
        }
    }
}
