//! Device-side batch **inserts** — the §5.1 future-work extension.
//!
//! The paper: *"Possible future improvements include a full device-based
//! management of the whole ART, implementing structural modifying
//! insertions and deletions. To achieve this, a more sophisticated buffer
//! management needs to be implemented, as the need to allocate new nodes or
//! free old nodes arises."*
//!
//! This module implements the tractable half of that program on the device
//! and spills the rest to the host, conservatively and correctly:
//!
//! * **Buffer management** — each leaf arena is uploaded with headroom and
//!   carries an atomic *tail* counter (bump allocation); leaf slots freed
//!   by the §3.3 delete path are reused first (free-list pop).
//! * **Attachable inserts run on the device** — a key whose traversal ends
//!   at a *null link slot* (an empty compacted-root entry, the null root,
//!   or a missing N256 child) is published with one CAS; a missing N48
//!   child claims a free link slot and sets the index byte. These are the
//!   cases that need no restructuring.
//! * **Everything else spills** — N4/N16 array inserts (sorted-array
//!   shifts are not atomic), prefix splits, leaf splits, grown nodes and
//!   capacity exhaustion are parked in the session's host overlay
//!   (`crate::overlay`), which answers for them after device misses. A
//!   remap — image ⊕ overlay → new image — is what would fold them back
//!   into the tree.
//!
//! Like the update engine (§3.4), inserts are batched with thread-id
//! priority: stage 1 classifies against the pre-batch state and claims the
//! target slot in the atomic hash table; after the grid-wide sync, stage 2
//! lets only the winning thread allocate and publish.

use crate::claim::{ClaimTable, Staging};
use crate::kernels::{device_traverse, slot_ref, warm_traverse, Attach, DevHit, DeviceTree};
use crate::layout::{self, leaf, leaf::ZERO_RECORD, stride, EMPTY48};
use crate::link::{LinkType, NodeLink};
use crate::update::FreeLists;
use cuart_gpu_sim::batch::record_key;
use cuart_gpu_sim::{BufferId, DeviceBytes, DeviceMemory, PhasedKernel, ThreadCtx};
use std::ops::Range;

/// Per-operation status written to the results buffer.
pub mod insert_status {
    /// The key existed; this thread won and replaced its value.
    pub const UPDATED: u64 = 1;
    /// A higher-priority thread wrote the same key.
    pub const SUPERSEDED: u64 = 2;
    /// New key attached on the device.
    pub const INSERTED: u64 = 3;
    /// Structural insert required: op parked in the session's host overlay.
    pub const SPILLED: u64 = 4;
    /// Invalid operation (empty key): not stored anywhere.
    pub const REJECTED: u64 = 5;
    /// The claim hash table had no slot for this op: nothing was written;
    /// the session re-runs the op in a smaller sub-batch. Never surfaces
    /// through `CuartSession::insert_batch`.
    pub const EXHAUSTED: u64 = 6;
}

/// Stage-1 classification codes stored in the scratch-leaf buffer.
mod class {
    pub const SPILL: u64 = 0;
    pub const UPDATE: u64 = 1;
    pub const ATTACH_SLOT: u64 = 2;
    pub const ATTACH_N48: u64 = 3;
    /// Claim failed: every hash-table slot held a different target.
    pub const EXHAUSTED: u64 = 4;
}

/// Device buffer holding the bump-allocation tails of the three leaf
/// arenas: `[leaf8_tail][leaf16_tail][leaf32_tail]` (record counts).
#[derive(Debug, Clone, Copy)]
pub struct ArenaTails(pub BufferId);

impl ArenaTails {
    /// Byte offset of a leaf class's tail counter.
    pub fn offset(ty: LinkType) -> usize {
        match ty {
            LinkType::Leaf8 => 0,
            LinkType::Leaf16 => 8,
            LinkType::Leaf32 => 16,
            #[expect(
                clippy::panic,
                reason = "caller contract documented on the function: only validated classes reach here"
            )]
            _ => panic!("no tail for {ty:?}"),
        }
    }
}

/// The two-phase insert kernel.
pub struct CuartInsertKernel {
    /// Device tree handles.
    pub tree: DeviceTree,
    /// The staged batch: keys, one value per op, one status per op (see
    /// [`insert_status`]), and the stage-1 scratch — primary target ref
    /// (`loc`: value slot / attach slot / index ref), secondary (`parent`:
    /// N48 node base) and classification code (`aux`) per thread.
    pub staging: Staging,
    /// Number of ops.
    pub count: usize,
    /// Claim table sized for `count`, all-zero at launch.
    pub claims: ClaimTable,
    /// Leaf free lists (deleted slots reused first).
    pub free_lists: FreeLists,
    /// Leaf arena bump tails.
    pub tails: ArenaTails,
}

impl PhasedKernel for CuartInsertKernel {
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

impl CuartInsertKernel {
    /// Thread `tid`'s packed query record; [`record_key`] slices the key.
    fn read_query(&self, tid: usize, ctx: &mut ThreadCtx<'_>) -> DeviceBytes {
        let rec_off = self.staging.layout.offset(tid);
        ctx.read_bytes(
            self.staging.queries,
            rec_off,
            self.staging.layout.record_bytes(),
        )
    }

    /// Stage 1: classify against the pre-batch tree and claim the target.
    fn stage1(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        let query = self.read_query(tid, ctx);
        let (cls, primary, secondary) = match device_traverse(&self.tree, record_key(&query), ctx) {
            DevHit::Found { value_slot, .. } => (class::UPDATE, value_slot, 0),
            DevHit::Miss { attach } => match attach {
                Attach::Slot(slot) => (class::ATTACH_SLOT, slot, 0),
                Attach::N48 {
                    index_ref,
                    node_base,
                } => (class::ATTACH_N48, index_ref, node_base),
                Attach::None => (class::SPILL, 0, 0),
            },
            DevHit::Host(_) => (class::SPILL, 0, 0),
        };
        ctx.write_u64(self.staging.aux, tid * 8, cls);
        ctx.write_u64(self.staging.loc, tid * 8, primary);
        ctx.write_u64(self.staging.parent, tid * 8, secondary);
        // Claim the target (value slot or attach point) with max-tid wins.
        if cls != class::SPILL && !self.claims.claim(ctx, primary, tid) {
            // Claim impossible: mark exhausted (no device write happened) so
            // the session re-runs this op after the table is cleared.
            ctx.write_u64(self.staging.aux, tid * 8, class::EXHAUSTED);
        }
    }

    /// Stage 2: the winning claimant allocates and publishes.
    fn stage2(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        let cls = ctx.read_u64(self.staging.aux, tid * 8);
        if cls == class::SPILL {
            ctx.write_u64(self.staging.results, tid * 8, insert_status::SPILLED);
            return;
        }
        if cls == class::EXHAUSTED {
            ctx.write_u64(self.staging.results, tid * 8, insert_status::EXHAUSTED);
            return;
        }
        let primary = ctx.read_u64(self.staging.loc, tid * 8);
        let winner = self.claims.winner(ctx, primary);
        if winner != (tid + 1) as u64 {
            // For updates, a shared value slot means the same key: a
            // higher-priority duplicate wins. For attaches, a shared slot
            // may come from a *different* key needing the same branch
            // point — compare against the winner's query record: equal key
            // → superseded duplicate; different key → structural spill.
            let verdict = if cls == class::UPDATE {
                insert_status::SUPERSEDED
            } else {
                let winner_query = self.read_query(winner as usize - 1, ctx);
                let query = self.read_query(tid, ctx);
                if record_key(&winner_query) == record_key(&query) {
                    insert_status::SUPERSEDED
                } else {
                    insert_status::SPILLED
                }
            };
            ctx.write_u64(self.staging.results, tid * 8, verdict);
            return;
        }
        let value = ctx.read_u64(self.staging.values, tid * 8);
        if cls == class::UPDATE {
            let (tag, off) = slot_ref::decode(primary);
            ctx.write_u64(slot_ref::buffer(&self.tree, tag), off, value);
            ctx.write_u64(self.staging.results, tid * 8, insert_status::UPDATED);
            return;
        }
        // Attach a brand-new leaf.
        let query = self.read_query(tid, ctx);
        let key = record_key(&query);
        let Some(leaf_ty) = layout::leaf_class_for(key.len()) else {
            ctx.write_u64(self.staging.results, tid * 8, insert_status::SPILLED);
            return;
        };
        let Some(slot_idx) = self.alloc_leaf(leaf_ty, ctx) else {
            // Arena exhausted: the host must grow the buffers.
            ctx.write_u64(self.staging.results, tid * 8, insert_status::SPILLED);
            return;
        };
        // Write the leaf record before publishing any link to it.
        let base = slot_idx as usize * stride(leaf_ty);
        let mut rec = ZERO_RECORD;
        let rec = &mut rec[..stride(leaf_ty)];
        rec[..key.len()].copy_from_slice(key);
        rec[leaf::value_at(leaf_ty)..leaf::value_at(leaf_ty) + 8]
            .copy_from_slice(&value.to_le_bytes());
        rec[leaf::len_at(leaf_ty)] = key.len() as u8;
        rec[leaf::live_at(leaf_ty)] = 1;
        ctx.write_bytes(self.tree.dev_arena(leaf_ty), base, rec);
        let link = NodeLink::new(leaf_ty, slot_idx);

        let published = match cls {
            class::ATTACH_SLOT => {
                let (tag, off) = slot_ref::decode(primary);
                let buf = slot_ref::buffer(&self.tree, tag);
                ctx.atomic_cas_u64(buf, off, 0, link.0) == 0
            }
            class::ATTACH_N48 => {
                let node_base = ctx.read_u64(self.staging.parent, tid * 8) as usize;
                self.attach_n48(primary, node_base, ctx, link)
            }
            #[expect(
                clippy::unreachable,
                reason = "arm excluded by the tag/class validation guarding this match"
            )]
            _ => unreachable!("unknown class {cls}"),
        };
        if published {
            ctx.write_u64(self.staging.results, tid * 8, insert_status::INSERTED);
        } else {
            // Lost a publish race (possible when an update/delete batch ran
            // concurrently in a richer system): clear the unpublished
            // record (so arena scans never see a live-but-unlinked leaf)
            // and return the slot.
            ctx.write_bytes(
                self.tree.dev_arena(leaf_ty),
                base,
                &ZERO_RECORD[..stride(leaf_ty)],
            );
            self.free_leaf(leaf_ty, slot_idx, ctx);
            ctx.write_u64(self.staging.results, tid * 8, insert_status::SPILLED);
        }
    }

    /// Claim a free link slot in an N48 node, then set its index byte.
    /// The stage-1 claim on `index_ref` makes this thread the only writer
    /// for this (node, byte) pair.
    fn attach_n48(
        &self,
        index_ref: u64,
        node_base: usize,
        ctx: &mut ThreadCtx<'_>,
        link: NodeLink,
    ) -> bool {
        let (_, index_off) = slot_ref::decode(index_ref);
        let arena = self.tree.dev_arena(LinkType::N48);
        // Other bytes of the same node may be attaching concurrently:
        // claim a link slot with CAS.
        for i in 0..48usize {
            let at = node_base + layout::links_at(LinkType::N48) + i * 8;
            if ctx.atomic_cas_u64(arena, at, 0, link.0) == 0 {
                ctx.write_bytes(arena, index_off, &[i as u8]);
                return true;
            }
        }
        false // node full: spill
    }

    /// Pop a freed slot, else bump the arena tail. `None` when exhausted.
    fn alloc_leaf(&self, ty: LinkType, ctx: &mut ThreadCtx<'_>) -> Option<u64> {
        // Free-list pop (CAS loop on the count).
        let fl = self.free_lists.dev_of(ty);
        loop {
            let count = ctx.read_u64(fl, 0);
            if count == 0 {
                break;
            }
            if ctx.atomic_cas_u64(fl, 0, count, count - 1) == count {
                let idx = ctx.read_u64(fl, 8 + (count as usize - 1) * 8);
                // A recycled record may hold stale bytes; stage 2 rewrites
                // it completely before publishing.
                return Some(idx);
            }
        }
        // Bump allocation against the arena capacity.
        let cap = (ctx.memory().buffer(self.tree.dev_arena(ty)).len() / stride(ty)) as u64;
        let idx = ctx.atomic_add_u64(self.tails.0, ArenaTails::offset(ty), 1);
        if idx < cap {
            Some(idx)
        } else {
            // Undo the overshoot so capacity reads stay meaningful.
            ctx.atomic_add_u64(self.tails.0, ArenaTails::offset(ty), u64::MAX);
            None
        }
    }

    /// Return a slot to the free list (publish-race path).
    fn free_leaf(&self, ty: LinkType, idx: u64, ctx: &mut ThreadCtx<'_>) {
        let fl = self.free_lists.dev_of(ty);
        let pos = ctx.atomic_add_u64(fl, 0, 1);
        ctx.write_u64(fl, 8 + pos as usize * 8, idx);
    }
}

/// Cleared-record check used by tests: a freshly attached or recycled leaf
/// must be fully initialised.
pub fn leaf_is_live(rec: &[u8], ty: LinkType) -> bool {
    rec[leaf::live_at(ty)] == 1
}

/// Validate an N48 node's index/link consistency (test helper): every
/// non-EMPTY index byte points at a non-null link slot.
pub fn n48_consistent(rec: &[u8]) -> bool {
    let links_at = layout::links_at(LinkType::N48);
    for b in 0..256 {
        let slot = rec[layout::HEADER_BYTES + b];
        if slot != EMPTY48 {
            let at = links_at + slot as usize * 8;
            #[expect(
                clippy::expect_used,
                reason = "the slice is cut to the exact field width, so the conversion cannot fail"
            )]
            let link = u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
            if link == 0 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CuartIndex;
    use crate::buffers::CuartConfig;
    use cuart_art::Art;
    use cuart_gpu_sim::batch::NOT_FOUND;
    use cuart_gpu_sim::devices;

    fn index(n: u64, cfg: &CuartConfig) -> CuartIndex {
        let mut art = Art::new();
        for i in 0..n {
            art.insert(&(i * 4).to_be_bytes(), i + 1).unwrap();
        }
        CuartIndex::build(art_ref(&art), cfg)
    }

    fn art_ref(art: &Art<u64>) -> &Art<u64> {
        art
    }

    #[test]
    fn insert_new_keys_into_empty_lut_slots() {
        // Keys 0..n*4 occupy low LUT slots; new keys with distinct high
        // prefixes land in null LUT entries -> pure device attach.
        let idx = index(1000, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let ops: Vec<(Vec<u8>, u64)> = (0..200u64)
            .map(|i| {
                (
                    (0xAA00_0000_0000_0000u64 | i).to_be_bytes().to_vec(),
                    5000 + i,
                )
            })
            .collect();
        let (statuses, _) = session.insert_batch(&ops).unwrap();
        // Distinct 2-byte prefixes? All share 0xAA00 -> only the FIRST
        // claims the LUT slot; the rest spill (structural). Verify split.
        let inserted = statuses
            .iter()
            .filter(|&&s| s == insert_status::INSERTED)
            .count();
        let spilled = statuses
            .iter()
            .filter(|&&s| s == insert_status::SPILLED)
            .count();
        assert_eq!(inserted, 1);
        assert_eq!(spilled, 199);
        // Every key is findable afterwards (device or overflow).
        let keys: Vec<Vec<u8>> = ops.iter().map(|(k, _)| k.clone()).collect();
        let (results, _) = session.lookup_batch(&keys).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, 5000 + i as u64, "key {i}");
        }
        assert_eq!(session.overflow_len(), 199);
    }

    #[test]
    fn insert_spread_prefixes_all_attach_on_device() {
        let idx = index(100, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        // Distinct first-2-bytes per key -> every one gets its own LUT slot.
        let ops: Vec<(Vec<u8>, u64)> = (0..300u64)
            .map(|i| {
                let mut k = vec![0u8; 8];
                k[0] = 0x80 | (i / 200) as u8;
                k[1] = (i % 200) as u8;
                k[7] = 1;
                (k, 9000 + i)
            })
            .collect();
        let (statuses, _) = session.insert_batch(&ops).unwrap();
        assert!(
            statuses.iter().all(|&s| s == insert_status::INSERTED),
            "{statuses:?}"
        );
        assert_eq!(session.overflow_len(), 0);
        let keys: Vec<Vec<u8>> = ops.iter().map(|(k, _)| k.clone()).collect();
        let (results, _) = session.lookup_batch(&keys).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, 9000 + i as u64);
        }
    }

    #[test]
    fn insert_existing_key_is_an_update() {
        let idx = index(500, &CuartConfig::for_tests());
        let dev = devices::rtx3090();
        let mut session = idx.device_session(&dev);
        let key = (40u64).to_be_bytes().to_vec();
        let (statuses, _) = session
            .insert_batch(&[(key.clone(), 777), (key.clone(), 888)])
            .unwrap();
        assert_eq!(
            statuses,
            vec![insert_status::SUPERSEDED, insert_status::UPDATED]
        );
        let (results, _) = session.lookup_batch(&[key]).unwrap();
        assert_eq!(results[0], 888);
    }

    #[test]
    fn deleted_slot_is_recycled_by_insert() {
        let idx = index(500, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        // Delete a key, then insert a brand-new key of the same class.
        let victim = (80u64).to_be_bytes().to_vec();
        session
            .update_batch(&[(victim.clone(), crate::update::DELETE)])
            .unwrap();
        assert_eq!(session.free_count(LinkType::Leaf8), 1);
        let fresh = (0xBB00_0000_0000_0001u64).to_be_bytes().to_vec();
        let (statuses, _) = session.insert_batch(&[(fresh.clone(), 42)]).unwrap();
        assert_eq!(statuses[0], insert_status::INSERTED);
        // The freed slot was consumed.
        assert_eq!(session.free_count(LinkType::Leaf8), 0);
        let (results, _) = session.lookup_batch(&[fresh, victim]).unwrap();
        assert_eq!(results[0], 42);
        assert_eq!(results[1], NOT_FOUND);
    }

    #[test]
    fn duplicate_new_key_highest_thread_wins() {
        let idx = index(100, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let key = (0xCC00_0000_0000_0007u64).to_be_bytes().to_vec();
        let ops = vec![(key.clone(), 1), (key.clone(), 2), (key.clone(), 3)];
        let (statuses, _) = session.insert_batch(&ops).unwrap();
        assert_eq!(
            statuses,
            vec![
                insert_status::SUPERSEDED,
                insert_status::SUPERSEDED,
                insert_status::INSERTED
            ]
        );
        let (results, _) = session.lookup_batch(&[key]).unwrap();
        assert_eq!(results[0], 3, "max thread id must win");
        assert_eq!(
            session.overflow_len(),
            0,
            "duplicates must not pollute the overflow"
        );
    }

    #[test]
    fn empty_key_rejected() {
        let idx = index(10, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let (statuses, _) = session.insert_batch(&[(Vec::new(), 1)]).unwrap();
        assert_eq!(statuses[0], insert_status::REJECTED);
        assert_eq!(session.overflow_len(), 0);
    }

    #[test]
    fn short_and_long_keys_insert_host_side() {
        let mut art = Art::new();
        art.insert(b"seed_key", 1).unwrap();
        let idx = CuartIndex::build(
            &art,
            &CuartConfig {
                lut_span: 3,
                ..CuartConfig::for_tests()
            },
        );
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let short = b"ab".to_vec();
        let long = vec![7u8; 40];
        let (statuses, _) = session
            .insert_batch(&[(short.clone(), 10), (long.clone(), 20)])
            .unwrap();
        assert_eq!(
            statuses,
            vec![insert_status::INSERTED, insert_status::INSERTED]
        );
        let (results, _) = session
            .lookup_batch(&[short.clone(), long.clone()])
            .unwrap();
        assert_eq!(results, vec![10, 20]);
        // Re-insert updates in place.
        let (statuses, _) = session.insert_batch(&[(short, 11), (long, 21)]).unwrap();
        assert!(statuses.iter().all(|&s| s == insert_status::UPDATED));
    }

    #[test]
    fn overflow_keys_are_updatable_and_deletable() {
        let idx = index(1000, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        // Force spills: many keys sharing one new prefix.
        let ops: Vec<(Vec<u8>, u64)> = (0..50u64)
            .map(|i| ((0xDD00_0000_0000_0000u64 | i).to_be_bytes().to_vec(), i))
            .collect();
        session.insert_batch(&ops).unwrap();
        assert!(session.overflow_len() > 0);
        let parked = ops[10].0.clone();
        // Update through the normal update path.
        let (st, _) = session.update_batch(&[(parked.clone(), 999)]).unwrap();
        assert_eq!(st[0], crate::update::status::APPLIED);
        let (results, _) = session.lookup_batch(std::slice::from_ref(&parked)).unwrap();
        assert_eq!(results[0], 999);
        // Delete.
        let (st, _) = session
            .update_batch(&[(parked.clone(), crate::update::DELETE)])
            .unwrap();
        assert_eq!(st[0], crate::update::status::APPLIED);
        let (results, _) = session.lookup_batch(&[parked]).unwrap();
        assert_eq!(results[0], NOT_FOUND);
    }

    #[test]
    fn reinsert_of_overflow_key_updates_overflow() {
        let idx = index(1000, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let ops: Vec<(Vec<u8>, u64)> = (0..10u64)
            .map(|i| ((0xEE00_0000_0000_0000u64 | i).to_be_bytes().to_vec(), i))
            .collect();
        session.insert_batch(&ops).unwrap();
        let before = session.overflow_len();
        let (st, _) = session.insert_batch(&[(ops[3].0.clone(), 12345)]).unwrap();
        assert_eq!(st[0], insert_status::UPDATED);
        assert_eq!(
            session.overflow_len(),
            before,
            "no duplicate overflow entries"
        );
        let (results, _) = session.lookup_batch(&[ops[3].0.clone()]).unwrap();
        assert_eq!(results[0], 12345);
    }

    #[test]
    fn n48_attach_keeps_node_consistent() {
        // Build a tree whose second level is N48 (branch fanout ~40), with
        // the LUT disabled so inserts traverse the nodes themselves.
        let mut art = Art::new();
        for i in 0..40u64 {
            art.insert(&[1, i as u8, 1, 1], i + 1).unwrap();
        }
        let cfg = CuartConfig {
            lut_span: 0,
            ..CuartConfig::for_tests()
        };
        let idx = CuartIndex::build(&art, &cfg);
        assert_eq!(idx.buffers().record_count(LinkType::N48), 1);
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        // Attach new children at unused bytes of the N48 root.
        let ops: Vec<(Vec<u8>, u64)> = (200..206u64).map(|b| (vec![1, b as u8, 1, 1], b)).collect();
        let (statuses, _) = session.insert_batch(&ops).unwrap();
        assert!(
            statuses.iter().all(|&s| s == insert_status::INSERTED),
            "{statuses:?}"
        );
        for (k, v) in &ops {
            let (results, _) = session.lookup_batch(std::slice::from_ref(k)).unwrap();
            assert_eq!(results[0], *v);
        }
        // Old keys unharmed.
        let (results, _) = session.lookup_batch(&[vec![1, 5, 1, 1]]).unwrap();
        assert_eq!(results[0], 6);
    }

    #[test]
    fn arena_exhaustion_spills_gracefully() {
        // A tiny tree gives tiny headroom? Headroom floor is 1024, so force
        // exhaustion by inserting more than count/4+1024 fresh leaf8 keys.
        let idx = index(16, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session(&dev);
        let ops: Vec<(Vec<u8>, u64)> = (0..1200u64)
            .map(|i| {
                let mut k = vec![0u8; 8];
                k[0] = 0x90 | ((i / 256) as u8 & 0x0F);
                k[1] = (i % 256) as u8;
                k[7] = 3;
                (k, i)
            })
            .collect();
        let (statuses, _) = session.insert_batch(&ops).unwrap();
        let inserted = statuses
            .iter()
            .filter(|&&s| s == insert_status::INSERTED)
            .count();
        let spilled = statuses
            .iter()
            .filter(|&&s| s == insert_status::SPILLED)
            .count();
        assert_eq!(inserted + spilled, 1200);
        // Headroom is max(entries/4, 1024) = 1024 fresh slots.
        assert_eq!(inserted, 1024, "headroom bound");
        // All keys remain findable regardless of where they landed.
        let keys: Vec<Vec<u8>> = ops.iter().map(|(k, _)| k.clone()).collect();
        let (results, _) = session.lookup_batch(&keys).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i as u64, "key {i}");
        }
    }
}
