//! The two-stage device-side batch update/delete engine (§3.4, Figure 6).
//!
//! Updates arrive in batches over a one-dimensional grid, so **update
//! priority increases with thread id**. Duplicate writes to the same key
//! are eliminated with an atomic hash table (Farrell's simple GPU hash
//! table, linear probing):
//!
//! * **Stage 1** — every thread traverses the tree to its key's leaf slot
//!   ("returning the memory location instead of the actual value"), then
//!   publishes `(location → max thread index)` into the hash table with
//!   `atomicCAS` + `atomicMax`.
//! * **grid-wide sync** —
//! * **Stage 2** — every thread re-reads the winning index for its
//!   location; only the winner performs the global-memory write.
//!
//! Deletions are the same kernel with the [`DELETE`] sentinel value
//! (§3.3/§3.4: "signaling a deletion through setting a nil pointer"): the
//! winner clears the leaf, removes the parent's reference to it, and pushes
//! the leaf index onto a free list for future inserts. The tree structure
//! is deliberately **not** collapsed — that is what makes device-side
//! deletion fast.
//!
//! The claim table both stages go through is [`ClaimTable`], shared with
//! the insert engine; the session sizes it to each launch.

use crate::claim::{ClaimTable, Staging};
use crate::error::CuartError;
use crate::kernels::{device_traverse, slot_ref, warm_traverse, DevHit, DeviceTree};
use crate::layout::{leaf::ZERO_RECORD, stride};
use crate::link::LinkType;
use cuart_gpu_sim::batch::record_key;
use cuart_gpu_sim::{BufferId, DeviceMemory, PhasedKernel, ThreadCtx};
use std::ops::Range;

/// Sentinel value meaning "delete this key" (the nil pointer of §3.4).
pub const DELETE: u64 = u64::MAX;

/// Per-operation status written to the results buffer.
pub mod status {
    /// Key not found; nothing written.
    pub const MISS: u64 = 0;
    /// This thread won and performed the write/delete.
    pub const APPLIED: u64 = 1;
    /// A higher-priority thread updated the same key.
    pub const SUPERSEDED: u64 = 2;
    /// The claim hash table had no slot left for this op's location: the
    /// op performed **no** device write and must be re-submitted (the
    /// session re-runs exhausted ops as a smaller sub-batch). Never
    /// surfaces through `CuartSession::update_batch`.
    pub const EXHAUSTED: u64 = 3;
}

/// Scratch-location sentinel marking a thread whose hash-table claim was
/// rejected because every slot was taken (stage 2 reports
/// [`status::EXHAUSTED`] for it). Distinct from `0`, which means "miss".
pub(crate) const LOC_EXHAUSTED: u64 = u64::MAX;

/// Free-list device buffer layout: `[count u64][leaf indices ...]`.
#[derive(Debug, Clone, Copy)]
pub struct FreeLists {
    /// Free list for leaf8 records.
    pub leaf8: BufferId,
    /// Free list for leaf16 records.
    pub leaf16: BufferId,
    /// Free list for leaf32 records.
    pub leaf32: BufferId,
}

impl FreeLists {
    /// The free list for a leaf class; non-leaf types have none and get a
    /// typed [`CuartError::NoDeviceArena`].
    pub fn of(&self, ty: LinkType) -> Result<BufferId, CuartError> {
        match ty {
            LinkType::Leaf8 => Ok(self.leaf8),
            LinkType::Leaf16 => Ok(self.leaf16),
            LinkType::Leaf32 => Ok(self.leaf32),
            _ => Err(CuartError::NoDeviceArena { link_type: ty }),
        }
    }

    /// Infallible accessor for kernel-internal sites where `ty` is already
    /// known to be a device leaf class.
    #[expect(
        clippy::expect_used,
        reason = "device leaf classes are created with free lists at build time"
    )]
    pub(crate) fn dev_of(&self, ty: LinkType) -> BufferId {
        self.of(ty).expect("device leaf classes have free lists")
    }
}

/// The two-phase update kernel.
pub struct CuartUpdateKernel {
    /// Device tree handles.
    pub tree: DeviceTree,
    /// The staged batch: keys, one new value per op ([`DELETE`] = delete),
    /// one status per op (see [`status`]), and the stage-1 scratch —
    /// resolved value-slot location (`loc`), parent link slot (`parent`)
    /// and leaf link (`aux`) per thread.
    pub staging: Staging,
    /// Number of operations.
    pub count: usize,
    /// Claim table sized for `count`, all-zero at launch.
    pub claims: ClaimTable,
    /// Free lists for deleted leaves.
    pub free_lists: FreeLists,
}

impl PhasedKernel for CuartUpdateKernel {
    fn phases(&self) -> usize {
        2
    }

    fn execute_phase(&self, phase: usize, tid: usize, ctx: &mut ThreadCtx<'_>) {
        if tid >= self.count {
            return;
        }
        if phase == 0 {
            self.stage1(tid, ctx);
        } else {
            self.stage2(tid, ctx);
        }
    }

    fn warm(&self, phase: usize, tids: Range<usize>, mem: &DeviceMemory) {
        // Stage 1 is the traversal; stage 2 reads the scratch it left, in
        // thread order.
        if phase == 0 {
            let live = tids.start..tids.end.min(self.count);
            let st = &self.staging;
            warm_traverse(&self.tree, st.queries, &st.layout, live, mem);
        }
    }
}

impl CuartUpdateKernel {
    /// Stage 1: resolve the leaf location and publish the claim.
    fn stage1(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        let rec_off = self.staging.layout.offset(tid);
        let rec = ctx.read_bytes(
            self.staging.queries,
            rec_off,
            self.staging.layout.record_bytes(),
        );

        let (location, parent, leaf_link) = match device_traverse(&self.tree, record_key(&rec), ctx)
        {
            DevHit::Found {
                value_slot,
                parent_slot,
                leaf_link,
                ..
            } => (value_slot, parent_slot, leaf_link.0),
            // Host-leaf links cannot be updated on-device; treated as a
            // miss here (the host pipeline routes such ops to the CPU).
            DevHit::Miss { .. } | DevHit::Host(_) => (0, 0, 0),
        };
        ctx.write_u64(self.staging.loc, tid * 8, location);
        ctx.write_u64(self.staging.parent, tid * 8, parent);
        ctx.write_u64(self.staging.aux, tid * 8, leaf_link);
        if location != 0 && !self.claims.claim(ctx, location, tid) {
            // Every slot holds a different location: this op cannot claim.
            // Mark it exhausted — no device write happened for it, so the
            // session can safely re-run it in a smaller sub-batch.
            ctx.write_u64(self.staging.loc, tid * 8, LOC_EXHAUSTED);
        }
    }

    /// Stage 2: the winning thread applies the write (or delete).
    fn stage2(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        let location = ctx.read_u64(self.staging.loc, tid * 8);
        if location == 0 {
            ctx.write_u64(self.staging.results, tid * 8, status::MISS);
            return;
        }
        if location == LOC_EXHAUSTED {
            ctx.write_u64(self.staging.results, tid * 8, status::EXHAUSTED);
            return;
        }
        if self.claims.winner(ctx, location) != (tid + 1) as u64 {
            ctx.write_u64(self.staging.results, tid * 8, status::SUPERSEDED);
            return;
        }
        let value = ctx.read_u64(self.staging.values, tid * 8);
        let (tag, value_off) = slot_ref::decode(location);
        let buf = slot_ref::buffer(&self.tree, tag);
        if value == DELETE {
            self.delete_leaf(tid, value_off, ctx);
        } else {
            ctx.write_u64(buf, value_off, value);
        }
        ctx.write_u64(self.staging.results, tid * 8, status::APPLIED);
    }

    /// Delete: clear the leaf record, null the parent's link, free the slot.
    fn delete_leaf(&self, tid: usize, _value_off: usize, ctx: &mut ThreadCtx<'_>) {
        let leaf_link = crate::link::NodeLink(ctx.read_u64(self.staging.aux, tid * 8));
        let parent = ctx.read_u64(self.staging.parent, tid * 8);
        #[expect(
            clippy::expect_used,
            reason = "link checked leaf-tagged before entering this path"
        )]
        let ty = leaf_link.link_type().expect("leaf link");
        // Clear the leaf contents (§3.3: "its contents are cleared").
        if ty.is_device_leaf() {
            let base = leaf_link.index() as usize * stride(ty);
            ctx.write_bytes(self.tree.dev_arena(ty), base, &ZERO_RECORD[..stride(ty)]);
            // Push the slot onto the free list for future inserts.
            let fl = self.free_lists.dev_of(ty);
            let pos = ctx.atomic_add_u64(fl, 0, 1);
            ctx.write_u64(fl, 8 + pos as usize * 8, leaf_link.index());
        } else if ty == LinkType::DynLeaf {
            // Dynamic leaves are just unlinked (no slot reuse).
        }
        // Remove the reference from the last visited node / LUT / root.
        let (ptag, poff) = slot_ref::decode(parent);
        ctx.write_u64(slot_ref::buffer(&self.tree, ptag), poff, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CuartIndex;
    use crate::buffers::CuartConfig;
    use crate::insert::insert_status;
    use cuart_art::Art;
    use cuart_gpu_sim::devices;

    fn index(n: u64) -> CuartIndex {
        let mut art = Art::new();
        for i in 0..n {
            art.insert(&(i * 3).to_be_bytes(), i).unwrap();
        }
        CuartIndex::build(&art, &CuartConfig::for_tests())
    }

    #[test]
    fn updates_apply_and_are_visible_to_lookups() {
        let idx = index(500);
        let dev = devices::rtx3090();
        let mut session = idx.device_session(&dev);
        let ops: Vec<(Vec<u8>, u64)> = (0..100u64)
            .map(|i| ((i * 3).to_be_bytes().to_vec(), 7_000 + i))
            .collect();
        let (statuses, _) = session.update_batch(&ops).unwrap();
        assert!(statuses.iter().all(|&s| s == status::APPLIED));
        let keys: Vec<Vec<u8>> = ops.iter().map(|(k, _)| k.clone()).collect();
        let (results, _) = session.lookup_batch(&keys).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, 7_000 + i as u64);
        }
    }

    #[test]
    fn duplicate_keys_highest_thread_wins() {
        let idx = index(100);
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let key = (30u64).to_be_bytes().to_vec();
        // Three conflicting updates to the same key in one batch.
        let ops = vec![(key.clone(), 111), (key.clone(), 222), (key.clone(), 333)];
        let (statuses, report) = session.update_batch(&ops).unwrap();
        assert_eq!(statuses[0], status::SUPERSEDED);
        assert_eq!(statuses[1], status::SUPERSEDED);
        assert_eq!(statuses[2], status::APPLIED);
        let (results, _) = session.lookup_batch(&[key]).unwrap();
        assert_eq!(results[0], 333, "highest thread id must win (§3.4)");
        assert!(
            report.atomic_conflicts > 0,
            "conflicting claims must serialize"
        );
    }

    #[test]
    fn missing_keys_report_miss() {
        let idx = index(10);
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let ops = vec![(vec![0xEEu8; 8], 1u64)];
        let (statuses, _) = session.update_batch(&ops).unwrap();
        assert_eq!(statuses[0], status::MISS);
    }

    #[test]
    fn delete_clears_leaf_and_frees_slot() {
        let idx = index(100);
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let key = (60u64).to_be_bytes().to_vec();
        let (statuses, _) = session.update_batch(&[(key.clone(), DELETE)]).unwrap();
        assert_eq!(statuses[0], status::APPLIED);
        // Deleted key now misses.
        let (results, _) = session.lookup_batch(std::slice::from_ref(&key)).unwrap();
        assert_eq!(results[0], cuart_gpu_sim::batch::NOT_FOUND);
        // Other keys survive.
        let (alive, _) = session
            .lookup_batch(&[(63u64).to_be_bytes().to_vec()])
            .unwrap();
        assert_eq!(alive[0], 21);
        // The slot landed on the free list.
        assert_eq!(session.free_count(LinkType::Leaf8), 1);
    }

    #[test]
    fn delete_then_update_same_key_in_one_batch() {
        // The delete (lower tid) is superseded by the update (higher tid).
        let idx = index(50);
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let key = (30u64).to_be_bytes().to_vec();
        let (statuses, _) = session
            .update_batch(&[(key.clone(), DELETE), (key.clone(), 42)])
            .unwrap();
        assert_eq!(statuses, vec![status::SUPERSEDED, status::APPLIED]);
        let (results, _) = session.lookup_batch(&[key]).unwrap();
        assert_eq!(results[0], 42);
    }

    #[test]
    fn host_routed_keys_take_the_same_batch_rule() {
        // A 1-byte key is shorter than the 2-byte LUT span: the host alone
        // serves it, and answers as the device does for a device key.
        let idx = index(50);
        let mut session = idx.device_session(&devices::a100());
        let (key, fresh) = (b"h".to_vec(), b"i".to_vec());
        session.insert_batch(&[(key.clone(), 1)]).unwrap();
        let ops = [(key.clone(), DELETE), (key.clone(), 42)];
        let superseded = [status::SUPERSEDED, status::APPLIED];
        assert_eq!(session.update_batch(&ops).unwrap().0, superseded);
        let ops = [(fresh.clone(), 5), (fresh.clone(), 6)];
        let superseded = [insert_status::SUPERSEDED, insert_status::INSERTED];
        assert_eq!(session.insert_batch(&ops).unwrap().0, superseded);
        assert_eq!(session.lookup_batch(&[key, fresh]).unwrap().0, [42, 6]);
    }

    #[test]
    fn a_pinned_session_takes_the_same_batch_rule() {
        let idx = index(50);
        let mut session = idx.device_session(&devices::a100());
        session.set_cpu_only(true);
        let key = (30u64).to_be_bytes().to_vec();
        let ops = [(key.clone(), DELETE), (key.clone(), 42)];
        let superseded = [status::SUPERSEDED, status::APPLIED];
        assert_eq!(session.update_batch(&ops).unwrap().0, superseded);
        assert_eq!(session.lookup_batch(&[key]).unwrap().0, [42]);
    }

    #[test]
    fn small_table_survives_collisions() {
        // Table barely larger than the batch: long probe chains but correct.
        let idx = index(300);
        let dev = devices::a100();
        let mut session = idx.device_session_with_table(&dev, 512);
        let ops: Vec<(Vec<u8>, u64)> = (0..300u64)
            .map(|i| ((i * 3).to_be_bytes().to_vec(), i + 1))
            .collect();
        let (statuses, _) = session.update_batch(&ops).unwrap();
        assert!(statuses.iter().all(|&s| s == status::APPLIED));
        let keys: Vec<Vec<u8>> = ops.iter().map(|(k, _)| k.clone()).collect();
        let (results, _) = session.lookup_batch(&keys).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i as u64 + 1);
        }
    }

    #[test]
    fn hash_clear_cost_scales_with_table() {
        let dev = devices::a100();
        let mut mem = cuart_gpu_sim::DeviceMemory::new();
        let (big, small) = (
            ClaimTable::alloc(&mut mem, 1 << 20),
            ClaimTable::alloc(&mut mem, 1 << 10),
        );
        let clear = |table: &ClaimTable, count| table.sized_for(count).clear_ns(&dev);
        // Below both capacities the clear follows the batch alone …
        assert!(clear(&big, 256) > clear(&big, 32));
        assert_eq!(clear(&big, 256), clear(&small, 256));
        // … and once the cap binds it is the whole-table memset it was
        // when every launch used the whole table.
        assert!(clear(&big, 4096) > clear(&small, 4096));
        assert_eq!(clear(&small, 4096), small.clear_ns(&dev));
        assert_eq!(clear(&big, 1 << 20), big.clear_ns(&dev));
        let whole = ((1u64 << 20) * 16) as f64 / dev.mem.peak_bandwidth_gbps() + 2_000.0;
        assert_eq!(big.clear_ns(&dev), whole);
    }
}
