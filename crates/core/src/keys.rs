//! Keys as one flat buffer, and the one way a session batch reads its ops.
//!
//! A [`KeyBatch`] is one byte store plus an `(offset, len)` extent per
//! key. The server builds it once, when it decodes a frame: the frame's
//! payload becomes the store, so keys are referenced where they arrived.
//! It then travels unchanged through the shard router, the submission
//! queue and the executor, and is freed as one buffer, not one per key.
//!
//! A session batch reads its ops through [`KeySource`]: the caller's
//! `&[Vec<u8>]` / `&[(Vec<u8>, u64)]`, or the executor's
//! [`SortedRun`] — the keys of several requests in key order, read from
//! their stores through a permutation ([`RunOrder`]) instead of being
//! moved into a sorted copy. Staging packs each device key straight from
//! where it lies, so from socket to staging a key is copied once.

use cuart_gpu_sim::batch::key_prefix;
use std::fmt;

/// Keys in one byte store, each an `(offset, len)` extent of it.
///
/// Equality and `Debug` are over the keys, not the store: a batch that
/// references a wire payload in place equals one built by
/// [`from_keys`](Self::from_keys).
#[derive(Clone, Default)]
pub struct KeyBatch {
    store: Vec<u8>,
    extents: Vec<(usize, usize)>,
}

impl KeyBatch {
    /// An empty batch with room for `keys` keys of `bytes` bytes in all.
    fn with_capacity(keys: usize, bytes: usize) -> KeyBatch {
        KeyBatch {
            store: Vec::with_capacity(bytes),
            extents: Vec::with_capacity(keys),
        }
    }

    /// The keys of `keys`, copied into one store sized in a first pass,
    /// so the batch allocates twice however many keys it holds.
    pub fn from_keys<K: AsRef<[u8]>>(keys: impl Iterator<Item = K> + Clone) -> KeyBatch {
        let (count, bytes) = keys
            .clone()
            .fold((0, 0), |(n, b), k| (n + 1, b + k.as_ref().len()));
        let mut batch = KeyBatch::with_capacity(count, bytes);
        for key in keys {
            batch.push(key.as_ref());
        }
        batch
    }

    /// Keys that already lie in `store` (a decoded frame's payload), one
    /// `(offset, len)` extent each; `None` if an extent reaches past the
    /// store.
    pub fn in_store(store: Vec<u8>, extents: Vec<(usize, usize)>) -> Option<KeyBatch> {
        let fits =
            |&(at, len): &(usize, usize)| at.checked_add(len).is_some_and(|end| end <= store.len());
        extents
            .iter()
            .all(fits)
            .then_some(KeyBatch { store, extents })
    }

    /// Append a copy of `key`.
    fn push(&mut self, key: &[u8]) {
        self.extents.push((self.store.len(), key.len()));
        self.store.extend_from_slice(key);
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// Whether the batch holds no key.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Key `i`. Panics if `i` is out of range, as slice indexing does.
    pub fn key(&self, i: usize) -> &[u8] {
        let (at, len) = self.extents[i];
        &self.store[at..at + len]
    }

    /// The keys in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + Clone + '_ {
        self.extents
            .iter()
            .map(|&(at, len)| &self.store[at..at + len])
    }
}

impl PartialEq for KeyBatch {
    fn eq(&self, other: &KeyBatch) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for KeyBatch {}

impl fmt::Debug for KeyBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The ops of one session batch, read by position: op `i`'s key, and the
/// value staged beside it. Update and insert batches read both; a lookup
/// batch reads keys only, and a source of bare keys answers 0 for a value.
pub trait KeySource {
    /// Number of ops.
    fn len(&self) -> usize;

    /// Whether there is no op.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Op `i`'s key.
    fn key(&self, i: usize) -> &[u8];

    /// Op `i`'s value.
    fn value(&self, i: usize) -> u64;
}

impl KeySource for [Vec<u8>] {
    fn len(&self) -> usize {
        <[Vec<u8>]>::len(self)
    }

    fn key(&self, i: usize) -> &[u8] {
        &self[i]
    }

    fn value(&self, _: usize) -> u64 {
        0
    }
}

impl KeySource for [(Vec<u8>, u64)] {
    fn len(&self) -> usize {
        <[(Vec<u8>, u64)]>::len(self)
    }

    fn key(&self, i: usize) -> &[u8] {
        &self[i].0
    }

    fn value(&self, i: usize) -> u64 {
        self[i].1
    }
}

/// `Vec`s and arrays of ops read as their slices do.
macro_rules! as_slice_source {
    ($($ty:ty => [$($generics:tt)*]),*) => {$(
        impl<T, $($generics)*> KeySource for $ty
        where
            [T]: KeySource,
        {
            fn len(&self) -> usize {
                self[..].len()
            }

            fn key(&self, i: usize) -> &[u8] {
                self[..].key(i)
            }

            fn value(&self, i: usize) -> u64 {
                self[..].value(i)
            }
        }
    )*};
}

as_slice_source!(Vec<T> => [], [T; N] => [const N: usize]);

impl KeySource for KeyBatch {
    fn len(&self) -> usize {
        KeyBatch::len(self)
    }

    fn key(&self, i: usize) -> &[u8] {
        KeyBatch::key(self, i)
    }

    fn value(&self, _: usize) -> u64 {
        0
    }
}

/// One key's place in a sorted run: its cached 8-byte prefix, the batch
/// it lies in and its index there.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunKey {
    prefix: u64,
    batch: u32,
    index: u32,
}

impl RunKey {
    /// The batch the key lies in, and its index there.
    pub fn place(&self) -> (usize, usize) {
        (self.batch as usize, self.index as usize)
    }

    /// Arrival order: batch after batch, index within a batch.
    fn arrival(&self) -> (u32, u32) {
        (self.batch, self.index)
    }
}

/// A run shorter than this sorts by comparison; a longer one by radix on
/// its prefixes, whose passes cost less than a comparison sort's
/// `n log n` steps once the 256-bucket counts are amortised.
const RADIX_MIN_KEYS: usize = 256;

/// The executor's sort of a run, and its scratch, kept from run to run so
/// a sort allocates nothing once warm.
#[derive(Debug, Default)]
pub struct RunOrder {
    keys: Vec<RunKey>,
    spare: Vec<RunKey>,
}

impl RunOrder {
    /// Sort the keys of `batches` — taken in arrival order, batch after
    /// batch. The order is that of
    /// [`sort_permutation`](cuart_gpu_sim::batch::sort_permutation) over
    /// the same keys concatenated: by prefix, then full key, then arrival,
    /// so duplicates keep their submission order. Prefixes are read in one
    /// sequential pass over each store; a full key is read only where
    /// prefixes tie.
    pub fn sort(&mut self, batches: &[KeyBatch]) {
        let keys = &mut self.keys;
        keys.clear();
        for (batch, batch_keys) in (0u32..).zip(batches) {
            keys.extend((0u32..).zip(batch_keys.iter()).map(|(index, key)| RunKey {
                prefix: key_prefix(key),
                batch,
                index,
            }));
        }
        let key = |k: &RunKey| batches[k.batch as usize].key(k.index as usize);
        let by_key = |a: &RunKey, b: &RunKey| {
            key(a)
                .cmp(key(b))
                .then_with(|| a.arrival().cmp(&b.arrival()))
        };
        if keys.len() < RADIX_MIN_KEYS {
            keys.sort_unstable_by(|a, b| a.prefix.cmp(&b.prefix).then_with(|| by_key(a, b)));
            return;
        }
        radix_by_prefix(keys, &mut self.spare);
        // The radix sort is stable: keys of one prefix are in arrival
        // order, and only the full keys can reorder them.
        for tie in keys.chunk_by_mut(|a, b| a.prefix == b.prefix) {
            if tie.len() > 1 {
                tie.sort_unstable_by(by_key);
            }
        }
    }

    /// The sorted run: position `i` names the key placed `i`-th.
    pub fn keys(&self) -> &[RunKey] {
        &self.keys
    }
}

/// Stable LSD radix sort of `keys` by prefix, a byte per pass, through
/// `spare`. The counts of all eight bytes come from one read of the keys,
/// and a pass whose byte is the same for every key is skipped.
fn radix_by_prefix(keys: &mut Vec<RunKey>, spare: &mut Vec<RunKey>) {
    let digit = |k: &RunKey, pass: usize| (k.prefix >> (8 * pass)) as usize & 0xFF;
    let mut counts = [[0usize; 256]; 8];
    for k in keys.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(k, pass)] += 1;
        }
    }
    spare.clear();
    spare.resize(keys.len(), RunKey::default());
    for (pass, count) in counts.iter().enumerate() {
        if count.contains(&keys.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut at = 0;
        for (next, &n) in next.iter_mut().zip(count) {
            *next = at;
            at += n;
        }
        for k in keys.iter() {
            let slot = &mut next[digit(k, pass)];
            spare[*slot] = *k;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// The point ops of a run of requests in the order [`RunOrder`] put them:
/// position `i` is the key `order[i]` names, with its value when the
/// run's requests carry values (one `Vec` per batch; empty for lookups).
pub struct SortedRun<'a> {
    batches: &'a [KeyBatch],
    values: &'a [Vec<u64>],
    order: &'a [RunKey],
}

impl<'a> SortedRun<'a> {
    /// The run of `batches` (with their `values`, or none) in `order`.
    pub fn new(batches: &'a [KeyBatch], values: &'a [Vec<u64>], order: &'a [RunKey]) -> Self {
        SortedRun {
            batches,
            values,
            order,
        }
    }
}

impl KeySource for SortedRun<'_> {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        let (batch, index) = self.order[i].place();
        self.batches[batch].key(index)
    }

    fn value(&self, i: usize) -> u64 {
        let (batch, index) = self.order[i].place();
        self.values
            .get(batch)
            .and_then(|v| v.get(index))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart_gpu_sim::batch::sort_permutation;
    use proptest::prelude::*;

    #[test]
    fn a_batch_in_a_store_reads_its_extents_and_refuses_overreach() {
        let store = b"..abc.de".to_vec();
        let batch = KeyBatch::in_store(store.clone(), vec![(2, 3), (6, 2), (0, 0)]).unwrap();
        assert!(batch.iter().eq([&b"abc"[..], b"de", b""]));
        assert_eq!(batch, KeyBatch::from_keys([&b"abc"[..], b"de", b""].iter()));
        assert!(KeyBatch::in_store(store.clone(), vec![(6, 3)]).is_none());
        assert!(KeyBatch::in_store(store, vec![(usize::MAX, 2)]).is_none());
    }

    /// A key over a four-symbol alphabet that includes 0, so runs are
    /// full of duplicates, proper prefixes and zero-padded lookalikes;
    /// `shared` starts it with the same 8 bytes as every other shared key.
    /// Lengths reach past 32 bytes, the widest device stride.
    fn key_of(len: usize, bits: u64, shared: bool) -> Vec<u8> {
        const ALPHABET: [u8; 4] = [0, 1, b'a', 0xFF];
        let mut key = if shared {
            b"shared\0!".to_vec()
        } else {
            Vec::new()
        };
        key.extend((0..len).map(|i| ALPHABET[(bits.rotate_right(2 * i as u32)) as usize & 3]));
        key
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The executor's order over a run of 1–4 requests is the
        /// permutation `sort_permutation` gives the same keys concatenated
        /// in arrival order; a request may repeat an earlier one's keys.
        /// Runs fall on both sides of the radix threshold.
        #[test]
        fn the_run_order_is_the_concatenated_sort(
            requests in proptest::collection::vec(
                proptest::collection::vec((0usize..40, any::<u64>(), any::<bool>()), 0..150),
                1..5,
            ),
            repeat in any::<bool>(),
        ) {
            let mut batches: Vec<KeyBatch> = requests
                .iter()
                .map(|specs| {
                    let keys = specs.iter().map(|&(len, bits, shared)| key_of(len, bits, shared));
                    KeyBatch::from_keys(keys)
                })
                .collect();
            if repeat {
                batches.push(batches[0].clone());
            }
            let mut run_order = RunOrder::default();
            run_order.sort(&batches);
            let order = run_order.keys();
            let starts: Vec<usize> = batches
                .iter()
                .scan(0, |at, keys| {
                    let start = *at;
                    *at += keys.len();
                    Some(start)
                })
                .collect();
            let perm: Vec<usize> = order
                .iter()
                .map(|k| {
                    let (b, i) = k.place();
                    starts[b] + i
                })
                .collect();
            let flat = batches.iter().flat_map(KeyBatch::iter).map(<[u8]>::to_vec).collect::<Vec<_>>();
            prop_assert_eq!(&perm, &sort_permutation(&flat));
            // The run reads, position by position, the sorted keys.
            let run = SortedRun::new(&batches, &[], order);
            for (i, &p) in perm.iter().enumerate() {
                prop_assert_eq!(run.key(i), &flat[p][..]);
                prop_assert_eq!(run.value(i), 0);
            }
        }
    }
}
