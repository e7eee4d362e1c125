//! The claim table of the two-stage write engines (§3.4, Figure 6).
//!
//! Duplicate writes to one target in a batch are eliminated with an atomic
//! hash table (Farrell's simple GPU hash table, linear probing): stage 1
//! publishes `(target → max thread index)`, stage 2 lets only the winner
//! write. The update kernel, the insert kernel and the session's
//! post-launch sweep must agree on where a target's probe chain starts and
//! how it is walked; [`ClaimTable`] is the only place that knows.
//!
//! The table size is a parameter: §4.5 shows throughput dropping once
//! batches are large enough to fill the 1 Mi-slot table (Figure 15); the
//! `figures` harness reproduces that droop with this table.

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
/// `slots` winner words (thread id + 1, so `0` = empty). All-zero between
/// launches.
#[derive(Debug, Clone, Copy)]
pub struct ClaimTable {
    keys: BufferId,
    vals: BufferId,
    slots: usize,
}

impl ClaimTable {
    /// Allocate a zeroed table of `slots` entries.
    pub fn alloc(mem: &mut DeviceMemory, slots: usize) -> Self {
        ClaimTable {
            keys: mem.alloc("hash-keys", slots * 8, 32),
            vals: mem.alloc("hash-vals", slots * 8, 32),
            slots,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Home slot of `target`: where its probe chain starts.
    fn hash_of(&self, target: u64) -> usize {
        (target.wrapping_mul(0x9E3779B97F4A7C15) >> 16) as usize % self.slots
    }

    /// Stage 1: claim a slot for `target`, then raise the winning thread
    /// index. `false` when every slot holds a different target — the op
    /// made no device write and can be re-run against a swept table.
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

    /// Restore the all-zero invariant after a launch over `count` threads,
    /// at a host cost that follows the batch rather than the table's
    /// capacity.
    ///
    /// Linear probing without deletion puts every claim in the contiguous
    /// non-zero run that starts at its home slot, so zeroing each thread's
    /// run from `hash_of(loc[tid])` to the next empty slot clears every
    /// claim. `0` marks a thread that claimed nothing (miss or spill). A
    /// walk only ever zeroes non-zero slots, all of which must go, so an
    /// exhausted thread's sentinel or stale location is a harmless
    /// starting point. Host-side accesses are not recorded: no modeled
    /// statistic depends on how the table is cleared.
    pub(crate) fn sweep(&self, mem: &mut DeviceMemory, loc: BufferId, count: usize) {
        for tid in 0..count {
            let target = mem.read_u64(loc, tid * 8);
            if target == 0 {
                continue;
            }
            let mut h = self.hash_of(target);
            for _ in 0..self.slots {
                if mem.read_u64(self.keys, h * 8) == 0 {
                    break;
                }
                mem.write_u64(self.keys, h * 8, 0);
                mem.write_u64(self.vals, h * 8, 0);
                h = (h + 1) % self.slots;
            }
        }
        debug_assert!(
            self.is_zero(mem),
            "claim table must be all-zero between launches"
        );
    }

    /// `true` when both halves are all-zero — the state every launch
    /// starts from.
    fn is_zero(&self, mem: &DeviceMemory) -> bool {
        let bytes = self.slots * 8;
        [self.keys, self.vals]
            .iter()
            .all(|&half| mem.read_bytes(half, 0, bytes).iter().all(|&b| b == 0))
    }

    /// Modeled time to clear the table between batches (a device-side
    /// memset of both halves running at peak bandwidth).
    pub fn clear_ns(&self, dev: &DeviceConfig) -> f64 {
        let bytes = (self.slots * 16) as f64;
        bytes / dev.mem.peak_bandwidth_gbps() + 2_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CuartIndex;
    use crate::buffers::CuartConfig;
    use crate::update::DELETE;
    use cuart_art::Art;
    use cuart_gpu_sim::cache::Cache;
    use cuart_gpu_sim::exec::Launcher;
    use cuart_gpu_sim::{devices, PhasedKernel};

    /// What both write kernels do around their own work: every thread
    /// claims `targets[tid]` in stage 1 and reads the winner in stage 2
    /// (`0` for a thread that could not claim).
    struct ClaimKernel {
        table: ClaimTable,
        targets: BufferId,
        winners: BufferId,
    }

    impl PhasedKernel for ClaimKernel {
        fn phases(&self) -> usize {
            2
        }

        fn execute_phase(&self, phase: usize, tid: usize, ctx: &mut ThreadCtx<'_>) {
            let target = ctx.read_u64(self.targets, tid * 8);
            if phase == 0 {
                let claimed = self.table.claim(ctx, target, tid);
                ctx.write_u64(self.winners, tid * 8, claimed as u64);
            } else if ctx.read_u64(self.winners, tid * 8) != 0 {
                let winner = self.table.winner(ctx, target);
                ctx.write_u64(self.winners, tid * 8, winner);
            }
        }
    }

    #[test]
    fn sweep_clears_a_probe_chain_that_wraps_past_the_last_slot() {
        const SLOTS: usize = 8;
        let dev = devices::a100();
        let mut mem = DeviceMemory::new();
        let table = ClaimTable::alloc(&mut mem, SLOTS);
        // Three distinct targets homed on the last slot, the first of them
        // claimed twice: the chain occupies slots 7, 0 and 1.
        let homed: Vec<u64> = (1u64..)
            .filter(|&t| table.hash_of(t) == SLOTS - 1)
            .take(3)
            .collect();
        let claims = [homed[0], homed[1], homed[2], homed[0]];
        let targets = mem.alloc("targets", claims.len() * 8, 32);
        let winners = mem.alloc("winners", claims.len() * 8, 32);
        for (tid, &t) in claims.iter().enumerate() {
            mem.write_u64(targets, tid * 8, t);
        }
        let kernel = ClaimKernel {
            table,
            targets,
            winners,
        };
        let mut l2 = Cache::new(&dev.l2);
        Launcher::default().launch(&dev, &mut mem, &kernel, claims.len(), &mut l2);
        let slot = |mem: &DeviceMemory, h: usize| {
            (
                mem.read_u64(table.keys, h * 8),
                mem.read_u64(table.vals, h * 8),
            )
        };
        // Max thread id + 1 wins each target; the duplicate raised slot 7.
        assert_eq!(slot(&mem, SLOTS - 1), (homed[0], 4));
        assert_eq!(slot(&mem, 0), (homed[1], 2));
        assert_eq!(slot(&mem, 1), (homed[2], 3));
        assert_eq!(slot(&mem, 2), (0, 0));
        let seen: Vec<u64> = (0..claims.len())
            .map(|tid| mem.read_u64(winners, tid * 8))
            .collect();
        assert_eq!(seen, vec![4, 2, 3, 4]);
        table.sweep(&mut mem, targets, claims.len());
        assert!(table.is_zero(&mem));
    }

    fn index(n: u64) -> CuartIndex {
        let mut art = Art::new();
        for i in 0..n {
            art.insert(&(i * 2).to_be_bytes(), i).unwrap();
        }
        CuartIndex::build(&art, &CuartConfig::for_tests())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Random update and insert batches — in-batch duplicates, deletes,
        /// misses, and tables small enough to force `EXHAUSTED` re-runs and
        /// wrapped probe chains — leave both table halves all-zero after
        /// every launch, and give the statuses and `KernelReport`s of a twin
        /// session whose table is densely cleared before every batch.
        #[test]
        fn sparse_sweep_matches_the_dense_clear(
            slots in 8usize..=64,
            batches in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::collection::vec(
                        (0u8..96, proptest::option::of(1u64..1_000)),
                        1..48,
                    ),
                ),
                1..8,
            ),
        ) {
            let idx = index(64);
            let dev = devices::a100();
            let mut sparse = idx.device_session_with_table(&dev, slots);
            let mut dense = idx.device_session_with_table(&dev, slots);
            for (is_insert, spec) in &batches {
                // Key ids 0..64 are stored, 64..96 are absent (update
                // misses / fresh inserts); `None` deletes.
                let ops: Vec<(Vec<u8>, u64)> = spec
                    .iter()
                    .map(|&(kid, v)| {
                        let key = if kid < 64 {
                            (u64::from(kid) * 2).to_be_bytes().to_vec()
                        } else {
                            (0xF000_0000_0000_0000u64 | u64::from(kid)).to_be_bytes().to_vec()
                        };
                        (key, v.unwrap_or(if *is_insert { 7 } else { DELETE }))
                    })
                    .collect();
                // What the sweep replaced: zero both halves wholesale.
                let (table, mem) = dense.claim_table();
                mem.bytes_mut(table.keys, 0, table.slots * 8).fill(0);
                mem.bytes_mut(table.vals, 0, table.slots * 8).fill(0);
                let (got, want) = if *is_insert {
                    (sparse.insert_batch(&ops).unwrap(), dense.insert_batch(&ops).unwrap())
                } else {
                    (sparse.update_batch(&ops).unwrap(), dense.update_batch(&ops).unwrap())
                };
                let (table, mem) = sparse.claim_table();
                proptest::prop_assert!(table.is_zero(mem));
                proptest::prop_assert_eq!(&got.0, &want.0);
                proptest::prop_assert_eq!(format!("{:?}", got.1), format!("{:?}", want.1));
            }
        }
    }
}
