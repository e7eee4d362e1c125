//! The structure-of-buffers representation: one typed arena per node kind.
//!
//! This is the host-side image of the index, and it is the device image
//! too: every arena and the compacted-root table are bytes exactly as the
//! device holds them (the LUT little-endian), each behind an `Arc`. The
//! paper's §3.3 uses CUDA unified memory so that host and device see one
//! coherent set of buffers; here [`upload`](crate::CuartIndex::upload)
//! shares each `Arc` with a device buffer that copies a chunk only when the
//! device first writes it (see `cuart_gpu_sim::memory`). The mapper fills
//! the arenas while it alone holds them; once built they are immutable.

use crate::error::CuartError;
use crate::layout::stride;
use crate::link::{LinkType, NodeLink};
use crate::mapper::MAX_DEVICE_KEY;
use std::sync::Arc;

/// How keys longer than the 32-byte device maximum are handled (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LongKeyPolicy {
    /// Option 1 (the paper's recommendation): long keys never reach the
    /// GPU; the host answers them from a side table while the GPU serves
    /// the short keys (Figures 13/14).
    CpuRoute,
    /// Option 2: long keys live in host memory; the device tree stores
    /// [`LinkType::HostLeaf`] links and the kernel returns a "compare on
    /// CPU" signal.
    HostLeafLink,
    /// Option 3 (what GRT does): dynamically sized on-device leaves,
    /// compared byte-wise by the kernel.
    DynamicLeaf,
}

/// Build-time configuration of a CuART index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuartConfig {
    /// Key bytes consumed by the compacted-root lookup table (§3.2.2).
    /// 3 gives the paper's 2^24-entry / 128 MB table; 2 gives a 512 KiB
    /// table suitable for tests; 0 disables the LUT.
    pub lut_span: usize,
    /// Long-key strategy.
    pub long_key_policy: LongKeyPolicy,
    /// Enable START multi-layer nodes (§5.1): dense two-level N256
    /// subtrees are merged into single 2^16-fanout nodes at map time,
    /// halving the traversal depth through dense regions at the cost of
    /// 512 KiB per merged node.
    pub multi_layer_nodes: bool,
    /// Ablation switch: store every device key in the 32-byte leaf class,
    /// as CuART's *initial* implementation did before §3.2.1's switch to
    /// size-classed leaves ("during the evaluation, we switched from a
    /// single sized leaves to several leaf objects of different sizes").
    pub single_leaf_class: bool,
}

impl Default for CuartConfig {
    fn default() -> Self {
        CuartConfig {
            lut_span: 3,
            long_key_policy: LongKeyPolicy::CpuRoute,
            multi_layer_nodes: false,
            single_leaf_class: false,
        }
    }
}

impl CuartConfig {
    /// A small-LUT configuration for unit tests (2-byte span → 512 KiB).
    pub fn for_tests() -> Self {
        CuartConfig {
            lut_span: 2,
            long_key_policy: LongKeyPolicy::CpuRoute,
            multi_layer_nodes: false,
            single_leaf_class: false,
        }
    }

    /// Number of LUT entries (0 when the LUT is disabled).
    fn lut_entries(&self) -> usize {
        if self.lut_span == 0 {
            0
        } else {
            1usize << (8 * self.lut_span)
        }
    }
}

/// The typed arenas plus the compacted-root table and host-side side
/// tables. Indices in [`NodeLink`]s address records within these arenas.
#[derive(Debug, Clone)]
pub struct CuartBuffers {
    /// Build configuration.
    pub config: CuartConfig,
    /// N4 records.
    pub n4: Arc<Vec<u8>>,
    /// N16 records.
    pub n16: Arc<Vec<u8>>,
    /// N48 records.
    pub n48: Arc<Vec<u8>>,
    /// N256 records.
    pub n256: Arc<Vec<u8>>,
    /// Multi-layer (N2L) records, when `multi_layer_nodes` is enabled.
    pub n2l: Arc<Vec<u8>>,
    /// Leaf records for keys ≤ 8 bytes.
    pub leaf8: Arc<Vec<u8>>,
    /// Leaf records for keys ≤ 16 bytes.
    pub leaf16: Arc<Vec<u8>>,
    /// Leaf records for keys ≤ 32 bytes.
    pub leaf32: Arc<Vec<u8>>,
    /// Dynamically sized leaves (LongKeyPolicy::DynamicLeaf).
    pub dyn_leaves: Arc<Vec<u8>>,
    /// Compacted-root lookup table: `lut_entries()` packed links,
    /// little-endian, as the device reads them ([`lut_entry`](Self::lut_entry)).
    pub lut: Arc<Vec<u8>>,
    /// Root link, used when the LUT is disabled and as the traversal
    /// fallback for keys shorter than the LUT span.
    pub root: NodeLink,
    /// Keys shorter than `lut_span`, sorted (binary-searched side table).
    pub short_keys: Vec<(Vec<u8>, u64)>,
    /// Long keys resident in host memory (CpuRoute / HostLeafLink),
    /// sorted by key.
    pub host_leaves: Vec<(Vec<u8>, u64)>,
    /// Number of keys stored (device + host side).
    pub entries: usize,
    /// Longest key in the index.
    pub max_key_len: usize,
}

impl CuartBuffers {
    /// Empty buffers with the given configuration.
    pub fn new(config: CuartConfig) -> Self {
        CuartBuffers {
            config,
            n4: Arc::default(),
            n16: Arc::default(),
            n48: Arc::default(),
            n256: Arc::default(),
            n2l: Arc::default(),
            leaf8: Arc::default(),
            leaf16: Arc::default(),
            leaf32: Arc::default(),
            dyn_leaves: Arc::default(),
            // Zeroed, and untouched until a slot is set: a 2^24-entry
            // table costs resident memory only where it holds links.
            lut: Arc::new(vec![0; config.lut_entries() * 8]),
            root: NodeLink::NULL,
            short_keys: Vec::new(),
            host_leaves: Vec::new(),
            entries: 0,
            max_key_len: 0,
        }
    }

    /// Borrow the arena of a fixed-stride link type.
    ///
    /// Host leaves live in host memory by definition, so asking for their
    /// device arena is a typed [`CuartError::NoDeviceArena`] — not a panic.
    pub fn arena(&self, ty: LinkType) -> Result<&Arc<Vec<u8>>, CuartError> {
        Ok(match ty {
            LinkType::N4 => &self.n4,
            LinkType::N16 => &self.n16,
            LinkType::N48 => &self.n48,
            LinkType::N256 => &self.n256,
            LinkType::N2L => &self.n2l,
            LinkType::Leaf8 => &self.leaf8,
            LinkType::Leaf16 => &self.leaf16,
            LinkType::Leaf32 => &self.leaf32,
            LinkType::DynLeaf => &self.dyn_leaves,
            LinkType::HostLeaf => return Err(CuartError::NoDeviceArena { link_type: ty }),
        })
    }

    /// Mutable `ty` arena, for the mapper while it alone holds the image
    /// (`Arc::make_mut` would copy a shared one).
    pub(crate) fn arena_mut(&mut self, ty: LinkType) -> Result<&mut Vec<u8>, CuartError> {
        Ok(Arc::make_mut(match ty {
            LinkType::N4 => &mut self.n4,
            LinkType::N16 => &mut self.n16,
            LinkType::N48 => &mut self.n48,
            LinkType::N256 => &mut self.n256,
            LinkType::N2L => &mut self.n2l,
            LinkType::Leaf8 => &mut self.leaf8,
            LinkType::Leaf16 => &mut self.leaf16,
            LinkType::Leaf32 => &mut self.leaf32,
            LinkType::DynLeaf => &mut self.dyn_leaves,
            LinkType::HostLeaf => return Err(CuartError::NoDeviceArena { link_type: ty }),
        }))
    }

    /// The LUT entry at `slot`: a packed link, 0 when empty (or past the
    /// table's end).
    pub fn lut_entry(&self, slot: usize) -> u64 {
        let at = slot.saturating_mul(8);
        self.lut
            .get(at..at.saturating_add(8))
            .and_then(|word| word.try_into().ok())
            .map_or(0, u64::from_le_bytes)
    }

    /// Install `entry` at LUT `slot` (the mapper and snapshot loader).
    pub(crate) fn set_lut(&mut self, slot: usize, entry: u64) {
        Arc::make_mut(&mut self.lut)[slot * 8..slot * 8 + 8].copy_from_slice(&entry.to_le_bytes());
    }

    /// Number of LUT slots (0 when the LUT is disabled).
    pub fn lut_slots(&self) -> usize {
        self.lut.len() / 8
    }

    /// Append a zeroed record to `ty`'s arena; returns its index.
    pub fn alloc_record(&mut self, ty: LinkType) -> u64 {
        let s = stride(ty);
        assert!(s > 0, "{ty:?} has no fixed-stride arena");
        #[expect(
            clippy::expect_used,
            reason = "fixed-stride traversal types always carry a device arena (mapper invariant)"
        )]
        let arena = self
            .arena_mut(ty)
            .expect("fixed-stride types have a device arena");
        let index = (arena.len() / s) as u64;
        arena.resize(arena.len() + s, 0);
        index
    }

    /// Number of records in `ty`'s arena (0 for host-resident types).
    pub fn record_count(&self, ty: LinkType) -> usize {
        self.arena(ty)
            .map(|a| a.len().checked_div(stride(ty)).unwrap_or(0))
            .unwrap_or(0)
    }

    /// Byte offset of record `index` in `ty`'s arena.
    pub fn record_offset(&self, ty: LinkType, index: u64) -> usize {
        index as usize * stride(ty)
    }

    /// Read a field of a record. Callers guarantee `ty` is device-resident
    /// (like slice indexing guarantees `index` is in bounds).
    pub fn record(&self, ty: LinkType, index: u64) -> &[u8] {
        let off = self.record_offset(ty, index);
        #[expect(
            clippy::expect_used,
            reason = "fixed-stride traversal types always carry a device arena (mapper invariant)"
        )]
        let arena = self.arena(ty).expect("record() needs a device arena");
        &arena[off..off + stride(ty)]
    }

    /// Mutable view of a record.
    pub fn record_mut(&mut self, ty: LinkType, index: u64) -> &mut [u8] {
        let off = self.record_offset(ty, index);
        let s = stride(ty);
        #[expect(
            clippy::expect_used,
            reason = "fixed-stride traversal types always carry a device arena (mapper invariant)"
        )]
        let arena = self
            .arena_mut(ty)
            .expect("record_mut() needs a device arena");
        &mut arena[off..off + s]
    }

    /// Read a packed link stored at byte `off` within `ty`'s arena.
    #[expect(
        clippy::expect_used,
        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
    )]
    pub fn link_at(&self, ty: LinkType, off: usize) -> NodeLink {
        #[expect(
            clippy::expect_used,
            reason = "fixed-stride traversal types always carry a device arena (mapper invariant)"
        )]
        let arena = self.arena(ty).expect("link_at() needs a device arena");
        NodeLink(u64::from_le_bytes(
            arena[off..off + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Write a packed link at byte `off` within `ty`'s arena.
    pub fn set_link_at(&mut self, ty: LinkType, off: usize, link: NodeLink) {
        #[expect(
            clippy::expect_used,
            reason = "fixed-stride traversal types always carry a device arena (mapper invariant)"
        )]
        let arena = self
            .arena_mut(ty)
            .expect("set_link_at() needs a device arena");
        arena[off..off + 8].copy_from_slice(&link.0.to_le_bytes());
    }

    /// Total bytes the device-side structures occupy (arenas + LUT).
    pub fn device_bytes(&self) -> usize {
        self.n4.len()
            + self.n16.len()
            + self.n48.len()
            + self.n256.len()
            + self.n2l.len()
            + self.leaf8.len()
            + self.leaf16.len()
            + self.leaf32.len()
            + self.dyn_leaves.len()
            + self.lut.len()
    }

    /// Keys held on the host side (short + long tables).
    pub fn host_entries(&self) -> usize {
        self.short_keys.len() + self.host_leaves.len()
    }

    /// `true` if `key` is served by the host rather than the device: too
    /// short for the LUT, or long under the CpuRoute policy.
    pub fn is_host_routed(&self, key: &[u8]) -> bool {
        let span = self.config.lut_span;
        (span > 0 && key.len() < span)
            || (key.len() > MAX_DEVICE_KEY
                && self.config.long_key_policy == LongKeyPolicy::CpuRoute)
    }

    /// Binary search a host-side sorted table.
    pub(crate) fn search_table(table: &[(Vec<u8>, u64)], key: &[u8]) -> Option<u64> {
        table
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| table[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    #[test]
    fn config_lut_sizes() {
        assert_eq!(CuartConfig::default().lut_entries(), 1 << 24);
        assert_eq!(CuartConfig::for_tests().lut_entries(), 1 << 16);
        let off = CuartConfig {
            lut_span: 0,
            ..CuartConfig::for_tests()
        };
        assert_eq!(off.lut_entries(), 0);
    }

    #[test]
    fn default_lut_is_128_mib() {
        // §3.2.2: "resulting in 128MB of memory consumption on the device".
        let cfg = CuartConfig::default();
        assert_eq!(cfg.lut_entries() * 8, 128 << 20);
    }

    #[test]
    fn alloc_records_and_strides() {
        let mut b = CuartBuffers::new(CuartConfig::for_tests());
        let i0 = b.alloc_record(LinkType::N4);
        let i1 = b.alloc_record(LinkType::N4);
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(b.record_count(LinkType::N4), 2);
        assert_eq!(b.n4.len(), 128);
        assert_eq!(b.record_count(LinkType::N256), 0);
        assert_eq!(b.record(LinkType::N4, 1).len(), 64);
    }

    #[test]
    fn link_read_write() {
        let mut b = CuartBuffers::new(CuartConfig::for_tests());
        b.alloc_record(LinkType::N256);
        let link = NodeLink::new(LinkType::Leaf16, 42);
        b.set_link_at(LinkType::N256, layout::links_at(LinkType::N256) + 8, link);
        assert_eq!(
            b.link_at(LinkType::N256, layout::links_at(LinkType::N256) + 8),
            link
        );
    }

    #[test]
    fn device_bytes_accounts_everything() {
        let mut b = CuartBuffers::new(CuartConfig::for_tests());
        let lut = (1usize << 16) * 8;
        assert_eq!(b.device_bytes(), lut);
        b.alloc_record(LinkType::Leaf32);
        assert_eq!(b.device_bytes(), lut + 48);
    }

    #[test]
    fn table_search() {
        let table = vec![
            (b"aa".to_vec(), 1u64),
            (b"bb".to_vec(), 2),
            (b"cc".to_vec(), 3),
        ];
        assert_eq!(CuartBuffers::search_table(&table, b"bb"), Some(2));
        assert_eq!(CuartBuffers::search_table(&table, b"zz"), None);
    }

    #[test]
    fn host_leaf_has_no_arena() {
        let b = CuartBuffers::new(CuartConfig::for_tests());
        assert!(matches!(
            b.arena(LinkType::HostLeaf),
            Err(CuartError::NoDeviceArena {
                link_type: LinkType::HostLeaf
            })
        ));
        // And the derived accessors degrade gracefully instead of panicking.
        assert_eq!(b.record_count(LinkType::HostLeaf), 0);
    }
}
