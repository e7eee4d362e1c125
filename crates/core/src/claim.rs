//! The claim table of the two-stage write engines (§3.4, Figure 6).
//!
//! Duplicate writes to one target in a batch are eliminated with an atomic
//! hash table (Farrell's simple GPU hash table, linear probing): stage 1
//! publishes `(target → max thread index)`, stage 2 lets only the winner
//! write. The update kernel, the insert kernel and the session's
//! post-launch clear must agree on which slots a launch uses and how a
//! probe chain is walked; [`ClaimTable`] is the only place that knows.
//!
//! A launch hashes over a *prefix* of the session's table, sized to the
//! batch ([`ClaimTable::sized_for`]), so its claims and the clear after it
//! cost what the batch cost. The configured size is the capacity that
//! prefix is capped at: §4.5 shows throughput dropping once batches fill
//! the 1 Mi-slot table (Figure 15), and from that batch size on the whole
//! table is in use — the `figures` harness reproduces the droop with it.

use cuart_gpu_sim::batch::KeyBatchLayout;
use cuart_gpu_sim::{BufferId, DeviceConfig, DeviceMemory, ThreadCtx};

/// Default capacity used in the paper's evaluation (§4.5: "we used a hash
/// table size of 1Mi entries").
pub const DEFAULT_TABLE_SLOTS: usize = 1 << 20;

/// Device staging of one batch, reused across a session's batches: the
/// packed keys, one value and one result word per op, and the per-thread
/// scratch a write kernel carries from stage 1 to stage 2.
#[derive(Debug, Clone, Copy)]
pub struct Staging {
    /// Packed keys.
    pub queries: BufferId,
    /// Key record layout.
    pub layout: KeyBatchLayout,
    /// One u64 result (value or status) per op.
    pub results: BufferId,
    /// One u64 value per op (write kinds).
    pub values: BufferId,
    /// Scratch: the claimed target per thread (`0` = claimed nothing).
    pub loc: BufferId,
    /// Scratch: secondary reference per thread (parent link slot / N48
    /// node base).
    pub parent: BufferId,
    /// Scratch: engine-specific word per thread (leaf link /
    /// classification code).
    pub aux: BufferId,
    /// Ops the buffers can hold.
    pub capacity: usize,
}

/// Linear-probing claim table in device memory: `slots` target words and
/// `slots` winner words (thread id + 1, so `0` = empty) at the front of two
/// buffers of `capacity` words each. All-zero between launches.
#[derive(Debug, Clone, Copy)]
pub struct ClaimTable {
    keys: BufferId,
    vals: BufferId,
    slots: usize,
    capacity: usize,
}

impl ClaimTable {
    /// Allocate a zeroed table of `slots` entries.
    pub fn alloc(mem: &mut DeviceMemory, slots: usize) -> Self {
        ClaimTable {
            keys: mem.alloc("hash-keys", slots * 8, 32),
            vals: mem.alloc("hash-vals", slots * 8, 32),
            slots,
            capacity: slots,
        }
    }

    /// The table a launch over `count` threads uses: the same two buffers,
    /// hashed over their first `2 × count` slots (a power of two ≥ 64, so the
    /// load factor is ≤ ½), or over all of them once that exceeds the capacity.
    pub fn sized_for(&self, count: usize) -> Self {
        let mut sized = *self;
        sized.slots = (2 * count).next_power_of_two().max(64).min(self.capacity);
        sized
    }

    /// Slots in use: the capacity, or what [`sized_for`](Self::sized_for) chose.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Home slot of `target`: where its probe chain starts.
    fn hash_of(&self, target: u64) -> usize {
        (target.wrapping_mul(0x9E3779B97F4A7C15) >> 16) as usize % self.slots
    }

    /// Stage 1: claim a slot for `target`, then raise the winning thread
    /// index. `false` when every slot holds a different target — the op
    /// made no device write and can be re-run against a cleared table.
    pub(crate) fn claim(&self, ctx: &mut ThreadCtx<'_>, target: u64, tid: usize) -> bool {
        let mut h = self.hash_of(target);
        for _ in 0..self.slots {
            let prev = ctx.atomic_cas_u64(self.keys, h * 8, 0, target);
            if prev == 0 || prev == target {
                ctx.atomic_max_u64(self.vals, h * 8, (tid + 1) as u64);
                return true;
            }
            h = (h + 1) % self.slots;
        }
        false
    }

    /// Stage 2: probe to `target`'s slot and read the winning thread
    /// index + 1. `target` must have been claimed in stage 1.
    pub(crate) fn winner(&self, ctx: &mut ThreadCtx<'_>, target: u64) -> u64 {
        let mut h = self.hash_of(target);
        loop {
            let k = ctx.read_u64(self.keys, h * 8);
            if k == target {
                return ctx.read_u64(self.vals, h * 8);
            }
            debug_assert_ne!(k, 0, "claim vanished from the table");
            h = (h + 1) % self.slots;
        }
    }

    /// Restore the all-zero invariant after a launch: zero-fill the slots
    /// in use (a launch writes nothing past them). The fill is host-side and
    /// unrecorded; [`clear_ns`](Self::clear_ns) prices the device memset.
    pub(crate) fn clear(&self, mem: &mut DeviceMemory) {
        let bytes = self.slots * 8;
        mem.bytes_mut(self.keys, 0, bytes).fill(0);
        mem.bytes_mut(self.vals, 0, bytes).fill(0);
    }

    /// `true` when the slots in use are all-zero: how every launch starts.
    pub(crate) fn is_zero(&self, mem: &DeviceMemory) -> bool {
        let mut page = [0u8; 4096];
        let bytes = self.slots * 8;
        [self.keys, self.vals].into_iter().all(|half| {
            (0..bytes).step_by(page.len()).all(|at| {
                let page = &mut page[..(bytes - at).min(4096)];
                mem.read_into(half, at, page);
                page.iter().all(|&b| b == 0)
            })
        })
    }

    /// Modeled time of `clear`: a device-side memset of the
    /// slots in use, both halves, running at peak bandwidth.
    pub fn clear_ns(&self, dev: &DeviceConfig) -> f64 {
        (self.slots * 16) as f64 / dev.mem.peak_bandwidth_gbps() + 2_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CuartIndex;
    use crate::buffers::CuartConfig;
    use crate::insert::insert_status;
    use crate::update::{status, DELETE};
    use cuart_art::Art;
    use cuart_gpu_sim::batch::NOT_FOUND;
    use cuart_gpu_sim::devices;
    use std::collections::BTreeMap;

    #[test]
    fn sized_for_is_a_capped_power_of_two_at_least_twice_the_batch() {
        let mut mem = DeviceMemory::new();
        for capacity in [8usize, 64, 100, 4096, DEFAULT_TABLE_SLOTS] {
            let table = ClaimTable::alloc(&mut mem, capacity);
            assert_eq!(table.slots(), capacity);
            for count in [0, 1, 31, 32, 33, capacity / 2, capacity, 2 * capacity] {
                let sized = table.sized_for(count);
                let slots = sized.slots();
                assert_eq!((sized.keys, sized.vals), (table.keys, table.vals));
                assert_eq!(sized.capacity, capacity);
                assert!(slots <= capacity);
                if slots < capacity {
                    assert!(slots.is_power_of_two() && slots >= 2 * count);
                    assert!(slots >= 64);
                    // The smallest such prefix.
                    assert!(slots == 64 || slots / 2 < 2 * count);
                } else {
                    // Capped: the unbounded rule would ask for at least this.
                    assert!((2 * count).next_power_of_two().max(64) >= capacity);
                }
                // Sizing starts from the capacity, not from the last prefix.
                assert_eq!(sized.sized_for(capacity).slots(), capacity);
            }
        }
        let table = ClaimTable::alloc(&mut mem, 4096);
        let slots = |count| table.sized_for(count).slots();
        assert_eq!(
            [0, 1, 31, 32, 33, 2047, 2048, 2049, 8192].map(slots),
            [64, 64, 64, 64, 128, 4096, 4096, 4096, 4096]
        );
    }

    fn index(n: u64) -> CuartIndex {
        let mut art = Art::new();
        for i in 0..n {
            art.insert(&(i * 2).to_be_bytes(), i).unwrap();
        }
        CuartIndex::build(&art, &CuartConfig::for_tests())
    }

    /// Key ids 0..64 are stored at build time, 64..96 are absent (update
    /// misses / fresh inserts).
    fn key_of(kid: u8) -> Vec<u8> {
        if kid < 64 {
            (u64::from(kid) * 2).to_be_bytes().to_vec()
        } else {
            (0xF000_0000_0000_0000u64 | u64::from(kid))
                .to_be_bytes()
                .to_vec()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Random update and insert batches — in-batch duplicates, deletes,
        /// misses, fresh inserts — give the same statuses and the same final
        /// answers whatever the table's capacity: 64 slots (every batch
        /// above 32 ops is capped, and one with more than 64 distinct
        /// targets takes the `EXHAUSTED` re-run path), 4096 and the default
        /// 1 Mi (prefix sized to the batch). The answers are those of a
        /// last-write-wins map, and the *whole* table — not just the prefix
        /// the launch used — is all-zero after every launch.
        #[test]
        fn answers_do_not_depend_on_the_table_capacity(
            batches in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::collection::vec(
                        (0u8..96, proptest::option::of(1u64..1_000)),
                        1..128,
                    ),
                ),
                1..8,
            ),
        ) {
            let idx = index(64);
            let dev = devices::a100();
            let mut sessions = [64, 4096, DEFAULT_TABLE_SLOTS]
                .map(|slots| idx.device_session_with_table(&dev, slots));
            let keys: Vec<Vec<u8>> = (0..96u8).map(key_of).collect();
            let mut oracle: BTreeMap<Vec<u8>, u64> =
                (0..64u8).map(|kid| (key_of(kid), u64::from(kid))).collect();
            for (is_insert, spec) in &batches {
                // `None` deletes (update) or writes a fixed value (insert).
                let ops: Vec<(Vec<u8>, u64)> = spec
                    .iter()
                    .map(|&(kid, v)| {
                        (key_of(kid), v.unwrap_or(if *is_insert { 7 } else { DELETE }))
                    })
                    .collect();
                let mut answers = Vec::new();
                for session in &mut sessions {
                    let (statuses, _) = if *is_insert {
                        session.insert_batch(&ops).unwrap()
                    } else {
                        session.update_batch(&ops).unwrap()
                    };
                    let exhausted = if *is_insert { insert_status::EXHAUSTED } else { status::EXHAUSTED };
                    proptest::prop_assert!(!statuses.contains(&exhausted));
                    let (table, mem) = session.claim_table();
                    proptest::prop_assert_eq!(table.slots(), table.capacity);
                    proptest::prop_assert!(table.is_zero(mem));
                    answers.push(statuses);
                }
                proptest::prop_assert_eq!(&answers[0], &answers[1]);
                proptest::prop_assert_eq!(&answers[0], &answers[2]);
                // The last op on a key wins; an update of a key absent
                // when the batch started is a miss.
                let last: BTreeMap<&Vec<u8>, u64> = ops.iter().map(|(k, v)| (k, *v)).collect();
                for (key, value) in last {
                    if value == DELETE {
                        oracle.remove(key);
                    } else if *is_insert || oracle.contains_key(key) {
                        oracle.insert(key.clone(), value);
                    }
                }
                let want: Vec<u64> = keys
                    .iter()
                    .map(|k| oracle.get(k).copied().unwrap_or(NOT_FOUND))
                    .collect();
                for session in &mut sessions {
                    proptest::prop_assert_eq!(&session.lookup_batch(&keys).unwrap().0, &want);
                }
            }
        }
    }

    #[test]
    fn write_batch_spans_name_the_prefix_they_claimed_in() {
        let telemetry = std::sync::Arc::new(cuart_telemetry::Telemetry::new());
        let idx = index(600).with_telemetry(telemetry.clone());
        let dev = devices::rtx3090();
        let mut session = idx.device_session_with_table(&dev, 512);
        let ops = |n: u64| -> Vec<(Vec<u8>, u64)> {
            (0..n)
                .map(|i| ((i * 2).to_be_bytes().to_vec(), 9))
                .collect()
        };
        let keys: Vec<Vec<u8>> = ops(100).into_iter().map(|(k, _)| k).collect();
        session.lookup_batch(&keys).unwrap();
        session.update_batch(&ops(100)).unwrap();
        session.insert_batch(&ops(3)).unwrap();
        session.update_batch(&ops(600)).unwrap();
        let snap = telemetry.snapshot();
        let got: Vec<(&str, Option<&str>)> = snap
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| {
                let attr = s.attrs.iter().find(|(k, _)| k == "claim_slots");
                (s.name.as_str(), attr.map(|(_, v)| v.as_str()))
            })
            .collect();
        // 2 × 100 → 256; the 64-slot floor; 2 × 600 capped at the 512-slot
        // capacity (and re-run, since 600 targets cannot fit).
        let want = [
            ("batch.lookup", None),
            ("batch.update", Some("256")),
            ("batch.insert", Some("64")),
            ("batch.update", Some("512")),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn a_batch_that_outgrows_the_capacity_reruns_exhausted_ops_and_converges() {
        // 96 distinct stored keys against 64 slots: the first launch can
        // claim at most 64 targets, so at least 32 ops come back `EXHAUSTED`
        // and only the re-run can apply them.
        let idx = index(96);
        let dev = devices::a100();
        let mut small = idx.device_session_with_table(&dev, 64);
        let mut roomy = idx.device_session_with_table(&dev, 4096);
        let ops: Vec<(Vec<u8>, u64)> = (0..96u64)
            .map(|i| ((i * 2).to_be_bytes().to_vec(), 500 + i))
            .collect();
        let (statuses, _) = small.update_batch(&ops).unwrap();
        assert_eq!(statuses, roomy.update_batch(&ops).unwrap().0);
        assert!(statuses.iter().all(|&s| s == status::APPLIED));
        let (table, mem) = small.claim_table();
        assert!(table.is_zero(mem));
    }
}
