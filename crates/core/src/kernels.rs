//! The CuART GPU lookup kernel and the shared device traversal.
//!
//! The traversal embodies §3.2.1: because the node type travels in the
//! link, each step knows the read size and alignment up front —
//!
//! * **N4** (64 B) and **N16** (160 B) are fetched whole in a single
//!   transaction ("trading memory bandwidth for access latency"),
//! * **N256** needs only the header and one link, both at *computable*
//!   addresses — two reads issued in the same step (one latency),
//! * **N48** is the only two-step node (the child index byte selects which
//!   link to read),
//! * the compacted root replaces the top `lut_span` levels with a single
//!   8-byte LUT read,
//! * leaves are one aligned read; key comparison is **word-oriented**
//!   (§4.4 — the reason GRT wins on very short keys and CuART on long).
//!
//! `warm_traverse` is the traversal's host-side companion: the simulator
//! runs threads one after another, so on a large index every thread's LUT
//! entry and first record is a serialized host cache miss. Before a chunk
//! of threads runs, `warm_traverse` walks the same first two levels for the
//! whole chunk with plain loads, which the host overlaps. It reads through
//! `&DeviceMemory`, records nothing and decides nothing — every modeled
//! number is what `device_traverse` traces, with or without it.
//!
//! The traversal indexes packed arenas with plain brackets. Every offset is
//! derived from a validated `NodeLink` and bounds-checked at build time
//! (the `layout::stride` invariants), and a panic here is preferable to
//! silently reading a wrong record.

use crate::error::CuartError;
use crate::layout::{self, leaf, stride, EMPTY48, HEADER_BYTES, PREFIX_CAP};
use crate::link::{LinkType, NodeLink};
use crate::mapper::lut_slot;
use cuart_gpu_sim::batch::{record_key, KeyBatchLayout, NOT_FOUND};
use cuart_gpu_sim::{BufferId, Dep, DeviceBuffer, DeviceMemory, Independent, Kernel, ThreadCtx};
use std::ops::Range;

/// Result bit signalling "finish this comparison on the CPU" (host-leaf
/// links, §3.2.3 option 2). The low bits carry the host-leaf index.
/// Stored values must therefore stay below 2^63.
pub const HOST_SIGNAL: u64 = 1 << 63;

/// Fixed per-node bookkeeping cycles (branching, address arithmetic).
const NODE_OVERHEAD_CYCLES: u32 = 12;
/// Word-oriented comparison: fixed setup + cycles per 8-byte word. For a
/// 4-byte key this costs more than GRT's byte loop; for 32-byte keys far
/// less — the Figure 11 crossover.
const WORD_CMP_SETUP_CYCLES: u32 = 10;
const WORD_CMP_CYCLES_PER_WORD: u32 = 4;

/// Cycles to compare `n` bytes word-wise.
pub(crate) fn word_cmp_cycles(n: usize) -> u32 {
    WORD_CMP_SETUP_CYCLES + WORD_CMP_CYCLES_PER_WORD * (n.div_ceil(8) as u32)
}

/// Device-side handles to the CuART buffers.
#[derive(Debug, Clone, Copy)]
pub struct DeviceTree {
    /// N4 arena.
    pub n4: BufferId,
    /// N16 arena.
    pub n16: BufferId,
    /// N48 arena.
    pub n48: BufferId,
    /// N256 arena.
    pub n256: BufferId,
    /// Multi-layer (N2L) arena.
    pub n2l: BufferId,
    /// Leaf8 arena.
    pub leaf8: BufferId,
    /// Leaf16 arena.
    pub leaf16: BufferId,
    /// Leaf32 arena.
    pub leaf32: BufferId,
    /// Dynamic-leaf arena.
    pub dyn_leaves: BufferId,
    /// Compacted-root lookup table (packed links).
    pub lut: BufferId,
    /// 8-byte meta buffer holding the root link (used when the LUT is
    /// disabled).
    pub meta: BufferId,
    /// LUT span in key bytes (0 = disabled).
    pub lut_span: usize,
}

impl DeviceTree {
    /// The device buffer backing `ty`'s arena.
    ///
    /// Host leaves never have one; asking for it is a typed
    /// [`CuartError::NoDeviceArena`], not a panic.
    pub fn arena(&self, ty: LinkType) -> Result<BufferId, CuartError> {
        Ok(match ty {
            LinkType::N4 => self.n4,
            LinkType::N16 => self.n16,
            LinkType::N48 => self.n48,
            LinkType::N256 => self.n256,
            LinkType::N2L => self.n2l,
            LinkType::Leaf8 => self.leaf8,
            LinkType::Leaf16 => self.leaf16,
            LinkType::Leaf32 => self.leaf32,
            LinkType::DynLeaf => self.dyn_leaves,
            LinkType::HostLeaf => return Err(CuartError::NoDeviceArena { link_type: ty }),
        })
    }

    /// Infallible arena accessor for traversal-internal types: every
    /// `ty` that reaches here is guaranteed device-resident by the caller
    /// (host leaves short-circuit before any arena access).
    #[expect(
        clippy::expect_used,
        reason = "fixed-stride traversal types always carry a device arena (mapper invariant)"
    )]
    pub(crate) fn dev_arena(&self, ty: LinkType) -> BufferId {
        self.arena(ty)
            .expect("traversal link types have device arenas")
    }
}

/// Encoded reference to an 8-byte slot inside one of the device buffers:
/// arena tag in the top byte, byte offset below. Used for the update
/// engine's "location" (value slot) and "parent link slot".
pub mod slot_ref {
    use super::*;

    /// Tag for the LUT buffer.
    pub const TAG_LUT: u8 = 0xF;
    /// Tag for the meta (root link) buffer.
    pub const TAG_META: u8 = 0xE;

    /// Encode (tag, byte offset).
    pub fn encode(tag: u8, offset: usize) -> u64 {
        ((tag as u64) << 56) | offset as u64
    }

    /// Decode to (tag, byte offset).
    pub fn decode(v: u64) -> (u8, usize) {
        ((v >> 56) as u8, (v & ((1 << 56) - 1)) as usize)
    }

    /// The device buffer a tag refers to.
    pub fn buffer(tree: &DeviceTree, tag: u8) -> BufferId {
        match tag {
            TAG_LUT => tree.lut,
            TAG_META => tree.meta,
            #[expect(
                clippy::expect_used,
                reason = "fixed-stride traversal types always carry a device arena (mapper invariant)"
            )]
            t => tree.dev_arena(LinkType::from_tag(t).expect("valid arena tag")),
        }
    }
}

/// Where a missing key could be attached by the device-side insert engine
/// (the §5.1 "structural modifying insertions" extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attach {
    /// No atomically-attachable point: the insert needs a structural change
    /// (prefix split, leaf split, N4/N16 array insert, …) and spills to the
    /// host.
    None,
    /// A null 8-byte link slot (LUT entry, root, or N256 child): publish
    /// the new leaf with a single CAS on this slot.
    Slot(u64),
    /// A missing N48 child: claim a free link slot in the node at
    /// `node_base`, then point the index byte at `index_ref` to it.
    N48 {
        /// Encoded ref of the child-index byte (node base + header + byte).
        index_ref: u64,
        /// Byte offset of the node record within the N48 arena.
        node_base: u64,
    },
}

/// Outcome of a device traversal (shared by lookup/update/insert kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DevHit {
    /// Key found: its value, the slot holding the value, and the slot
    /// holding the link that leads to the leaf (for deletions).
    Found {
        /// Stored value.
        value: u64,
        /// Encoded reference to the 8-byte value field.
        value_slot: u64,
        /// Encoded reference to the link slot in the parent (or LUT/meta).
        parent_slot: u64,
        /// The leaf link itself.
        leaf_link: NodeLink,
    },
    /// Key not present on the device; `attach` says whether the insert
    /// engine could place it without restructuring.
    Miss {
        /// The attachable point, if any.
        attach: Attach,
    },
    /// Host-leaf link encountered: CPU must compare against this index.
    Host(u64),
}

impl DevHit {
    /// A miss with no attach point.
    pub(crate) const MISS: DevHit = DevHit::Miss {
        attach: Attach::None,
    };
}

/// Walk the device structure for `key`, issuing the CuART access pattern
/// through `ctx`.
pub(crate) fn device_traverse(tree: &DeviceTree, key: &[u8], ctx: &mut ThreadCtx<'_>) -> DevHit {
    if key.is_empty() {
        return DevHit::MISS;
    }
    let span = tree.lut_span;
    let (mut link, mut depth, mut skip, mut parent_slot) = if span > 0 {
        if key.len() < span {
            return DevHit::MISS; // short keys are host-routed
        }
        let slot = lut_slot(key, span);
        ctx.compute(4);
        let entry = NodeLink(ctx.read_u64(tree.lut, slot * 8));
        if entry.is_null() {
            // An empty LUT slot is a perfect attach point: no existing key
            // shares these first `span` bytes.
            return DevHit::Miss {
                attach: Attach::Slot(slot_ref::encode(slot_ref::TAG_LUT, slot * 8)),
            };
        }
        let parent = slot_ref::encode(slot_ref::TAG_LUT, slot * 8);
        (entry.without_aux(), span, entry.aux() as usize, parent)
    } else {
        let root = NodeLink(ctx.read_u64(tree.meta, 0));
        if root.is_null() {
            return DevHit::Miss {
                attach: Attach::Slot(slot_ref::encode(slot_ref::TAG_META, 0)),
            };
        }
        (root, 0, 0, slot_ref::encode(slot_ref::TAG_META, 0))
    };

    loop {
        let Some(ty) = link.link_type() else {
            return DevHit::MISS;
        };
        ctx.compute(NODE_OVERHEAD_CYCLES);
        match ty {
            LinkType::Leaf8 | LinkType::Leaf16 | LinkType::Leaf32 => {
                let base = link.index() as usize * stride(ty);
                // One aligned read covering key + value + metadata.
                let rec = ctx.read_bytes(tree.dev_arena(ty), base, leaf::read_bytes(ty));
                if rec[leaf::live_at(ty)] == 0 {
                    return DevHit::MISS;
                }
                let len = rec[leaf::len_at(ty)] as usize;
                ctx.compute(word_cmp_cycles(len.max(key.len())));
                if len == key.len() && &rec[..len] == key {
                    let at = leaf::value_at(ty);
                    #[expect(
                        clippy::expect_used,
                        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                    )]
                    return DevHit::Found {
                        value: u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes")),
                        value_slot: slot_ref::encode(ty as u8, base + at),
                        parent_slot,
                        leaf_link: link,
                    };
                }
                return DevHit::MISS;
            }
            LinkType::DynLeaf => {
                let off = link.index() as usize;
                // Dynamically sized: length first, then the data —
                // two dependent reads (the GRT behaviour this option keeps).
                let len_field = ctx.read_bytes(tree.dyn_leaves, off, 2);
                let len = u16::from_le_bytes([len_field[0], len_field[1]]) as usize;
                let body = ctx.read_bytes(tree.dyn_leaves, off + 2, len + 8);
                // Byte-oriented comparison of the arbitrary-length key.
                ctx.compute(3 * len as u32);
                if &body[..len] == key {
                    #[expect(
                        clippy::expect_used,
                        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                    )]
                    return DevHit::Found {
                        value: u64::from_le_bytes(body[len..len + 8].try_into().expect("8 bytes")),
                        value_slot: slot_ref::encode(ty as u8, off + 2 + len),
                        parent_slot,
                        leaf_link: link,
                    };
                }
                return DevHit::MISS;
            }
            LinkType::HostLeaf => return DevHit::Host(link.index()),
            LinkType::N2L => {
                // Multi-layer node (START, §5.1): two key bytes resolved by
                // one header + one link read, both at computable addresses
                // — one latency for two levels.
                let base = link.index() as usize * stride(ty);
                let rec = ctx.read_bytes(tree.dev_arena(ty), base, HEADER_BYTES);
                let plen = rec[1] as usize;
                debug_assert!(skip <= plen, "LUT skip beyond prefix");
                let remaining = plen - skip;
                if key.len() < depth + remaining + 2 {
                    return DevHit::MISS;
                }
                let slot =
                    ((key[depth + remaining] as usize) << 8) | key[depth + remaining + 1] as usize;
                let next = NodeLink(ctx.read_u64_dep(
                    tree.dev_arena(ty),
                    base + layout::links_at(ty) + slot * 8,
                    Dep::Independent,
                ));
                let stored = plen.min(PREFIX_CAP);
                ctx.compute(word_cmp_cycles(stored) / 2 + NODE_OVERHEAD_CYCLES / 2);
                for j in skip..stored {
                    if rec[2 + j] != key[depth + j - skip] {
                        return DevHit::MISS;
                    }
                }
                depth += remaining + 2;
                skip = 0;
                if next.is_null() {
                    return DevHit::Miss {
                        attach: Attach::Slot(slot_ref::encode(
                            ty as u8,
                            base + layout::links_at(ty) + slot * 8,
                        )),
                    };
                }
                parent_slot = slot_ref::encode(ty as u8, base + layout::links_at(ty) + slot * 8);
                link = next;
            }
            LinkType::N4 | LinkType::N16 | LinkType::N48 | LinkType::N256 => {
                let base = link.index() as usize * stride(ty);
                // Set when a null child is an atomically-attachable point.
                let mut attach_if_null = Attach::None;
                let next = match ty {
                    LinkType::N4 | LinkType::N16 => {
                        // Whole node in one transaction: size known a priori.
                        let rec = ctx.read_bytes(tree.dev_arena(ty), base, stride(ty));
                        match self::match_inner(&rec, key, &mut depth, &mut skip) {
                            Some(byte) => {
                                let count = rec[0] as usize;
                                let keys = &rec[HEADER_BYTES..HEADER_BYTES + count];
                                ctx.compute(4);
                                match keys.iter().position(|&k| k == byte) {
                                    #[expect(
                                        clippy::expect_used,
                                        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                                    )]
                                    Some(i) => {
                                        let at = layout::links_at(ty) + i * 8;
                                        NodeLink(u64::from_le_bytes(
                                            rec[at..at + 8].try_into().expect("8 bytes"),
                                        ))
                                    }
                                    None => NodeLink::NULL,
                                }
                            }
                            None => return DevHit::MISS,
                        }
                    }
                    LinkType::N48 => {
                        // Header read; prefix checked first, then the child
                        // index byte (computable address, same step), then
                        // the selected link (dependent).
                        let rec = ctx.read_bytes(tree.dev_arena(ty), base, HEADER_BYTES);
                        match self::match_inner(&rec, key, &mut depth, &mut skip) {
                            Some(byte) => {
                                let slot = ctx.read_u8_dep(
                                    tree.dev_arena(ty),
                                    base + HEADER_BYTES + byte as usize,
                                    Dep::Independent,
                                );
                                if slot == EMPTY48 {
                                    attach_if_null = Attach::N48 {
                                        index_ref: slot_ref::encode(
                                            ty as u8,
                                            base + HEADER_BYTES + byte as usize,
                                        ),
                                        node_base: base as u64,
                                    };
                                    NodeLink::NULL
                                } else {
                                    NodeLink(ctx.read_u64(
                                        tree.dev_arena(ty),
                                        base + layout::links_at(ty) + slot as usize * 8,
                                    ))
                                }
                            }
                            None => return DevHit::MISS,
                        }
                    }
                    LinkType::N256 => {
                        // Header and link addresses are both computable from
                        // the link alone: one step, two parallel reads.
                        let rec = ctx.read_bytes(tree.dev_arena(ty), base, HEADER_BYTES);
                        // Peek the branch byte optimistically using the
                        // *declared* prefix length, so the link read can be
                        // issued in the same step when the prefix fits.
                        let plen = rec[1] as usize;
                        let opt_byte = key.get(depth + plen.saturating_sub(skip)).copied();
                        let speculative = opt_byte.map(|byte| {
                            NodeLink(ctx.read_u64_dep(
                                tree.dev_arena(ty),
                                base + layout::links_at(ty) + byte as usize * 8,
                                Dep::Independent,
                            ))
                        });
                        match self::match_inner(&rec, key, &mut depth, &mut skip) {
                            Some(byte) => {
                                attach_if_null = Attach::Slot(slot_ref::encode(
                                    ty as u8,
                                    base + layout::links_at(ty) + byte as usize * 8,
                                ));
                                speculative.unwrap_or(NodeLink::NULL)
                            }
                            None => return DevHit::MISS,
                        }
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "arm excluded by the tag/class validation guarding this match"
                    )]
                    _ => unreachable!(),
                };
                if next.is_null() {
                    return DevHit::Miss {
                        attach: attach_if_null,
                    };
                }
                // The slot we read `next` from becomes the parent ref.
                parent_slot = match ty {
                    LinkType::N256 => {
                        let byte = key[depth - 1];
                        slot_ref::encode(ty as u8, base + layout::links_at(ty) + byte as usize * 8)
                    }
                    _ => parent_of_inner(tree, ty, base, next, ctx),
                };
                link = next;
            }
        }
    }
}

/// Check the prefix of an inner record against `key`; on success advances
/// `depth` past the prefix and the branch byte, resets `skip`, and returns
/// the branch byte.
fn match_inner(rec: &[u8], key: &[u8], depth: &mut usize, skip: &mut usize) -> Option<u8> {
    let plen = rec[1] as usize;
    let remaining = plen - *skip;
    if key.len() < *depth + remaining + 1 {
        return None;
    }
    let stored = plen.min(PREFIX_CAP);
    for j in *skip..stored {
        if rec[2 + j] != key[*depth + j - *skip] {
            return None;
        }
    }
    *depth += remaining;
    *skip = 0;
    let byte = key[*depth];
    *depth += 1;
    Some(byte)
}

/// Locate the link slot within an N4/N16/N48 record that holds `target`.
/// (Cheap host-side scan over data already fetched — no extra device
/// traffic is logged.)
#[expect(
    clippy::unreachable,
    reason = "arm excluded by the tag/class validation guarding this match"
)]
fn parent_of_inner(
    tree: &DeviceTree,
    ty: LinkType,
    base: usize,
    target: NodeLink,
    ctx: &mut ThreadCtx<'_>,
) -> u64 {
    let links_at = layout::links_at(ty);
    let cap = match ty {
        LinkType::N4 => 4,
        LinkType::N16 => 16,
        LinkType::N48 => 48,
        #[expect(
            clippy::unreachable,
            reason = "arm excluded by the tag/class validation guarding this match"
        )]
        _ => unreachable!(),
    };
    let mem = ctx.memory();
    for i in 0..cap {
        let at = base + links_at + i * 8;
        if mem.read_u64(tree.dev_arena(ty), at) == target.0 {
            return slot_ref::encode(ty as u8, at);
        }
    }
    unreachable!("child link not found in parent record");
}

/// Threads [`warm_traverse`] walks in lockstep: the size of its on-stack
/// link array. Longer ranges are walked in groups of this many.
const WARM_LANES: usize = 64;

/// Bytes of the record behind a `ty` link that [`device_traverse`] reads
/// first: a whole leaf or N4/N16, the header of the wider nodes, a dynamic
/// leaf's length field. Zero for host leaves, which have no record.
fn first_read_bytes(ty: LinkType) -> usize {
    match ty {
        LinkType::Leaf8 | LinkType::Leaf16 | LinkType::Leaf32 => leaf::read_bytes(ty),
        LinkType::N4 | LinkType::N16 => stride(ty),
        LinkType::N48 | LinkType::N256 | LinkType::N2L => HEADER_BYTES,
        LinkType::DynLeaf => 2,
        LinkType::HostLeaf => 0,
    }
}

/// Touch-ahead for the callers of [`device_traverse`] (the lookup kernel
/// and stage 1 of the two write kernels): load, for every thread of `tids`,
/// the host cache lines the first two levels of its traversal will read —
/// its compacted-root entry and the record that entry links to.
///
/// Two tight loops rather than one walk per thread: no load in either loop
/// depends on another iteration's, and a body is a few dozen instructions,
/// so the host's reorder window keeps several iterations' misses in flight
/// — with plain loads, no prefetch intrinsic, no `unsafe`. Deeper levels
/// are left to the traversal: they branch on record contents, and two
/// levels already reach the leaf for most keys under a 3-byte LUT.
///
/// Without a LUT every thread starts at the one `meta` root, which is all
/// that is touched. `RangeSpanKernel` has no such hook — the top probes of
/// a range's binary search are the same lines for every thread — and
/// neither has GRT, whose wall time no benchmark row measures.
///
/// This runs ahead of the kernel's own checks on whatever the staging
/// buffers hold, so it must tolerate anything: every load is a `get`, an
/// unknown tag, a host-leaf link or an index past its arena is skipped. It
/// allocates nothing and its only output is a `black_box`ed byte.
pub(crate) fn warm_traverse(
    tree: &DeviceTree,
    queries: BufferId,
    layout: &KeyBatchLayout,
    tids: Range<usize>,
    mem: &DeviceMemory,
) {
    let u64_at =
        |buf: &DeviceBuffer, at: usize| Some(u64::from_le_bytes(buf.get(at, 8)?.try_into().ok()?));
    let byte_at = |buf: &DeviceBuffer, at: usize| buf.get(at, 1).map_or(0, |b| b[0]);
    let span = tree.lut_span;
    if span == 0 {
        std::hint::black_box(u64_at(mem.buffer(tree.meta), 0));
        return;
    }
    let (staged, lut) = (mem.buffer(queries), mem.buffer(tree.lut));
    let record_bytes = layout.record_bytes();
    let mut links = [NodeLink::NULL; WARM_LANES];
    let mut sink = 0u8;
    for start in tids.clone().step_by(WARM_LANES) {
        let group = start..start.saturating_add(WARM_LANES).min(tids.end);
        // Level 0: each thread's staged key selects its LUT entry.
        for (link, tid) in links.iter_mut().zip(group.clone()) {
            let entry = staged
                .get(tid.saturating_mul(record_bytes), record_bytes)
                .and_then(|rec| rec.get(1..1 + usize::from(*rec.first()?)))
                .filter(|key| key.len() >= span)
                .and_then(|key| u64_at(lut, lut_slot(key, span).saturating_mul(8)));
            *link = NodeLink(entry.unwrap_or(0)).without_aux();
        }
        // Level 1: the first and last byte of the record each entry links
        // to (one line, unless the record straddles two).
        for link in links.iter().take(group.len()) {
            let Some(ty) = link.link_type() else {
                continue; // null entry (the traversal ends there) or unknown tag
            };
            let Ok(arena) = tree.arena(ty) else {
                continue; // host leaf: the CPU finishes it
            };
            let index = usize::try_from(link.index()).unwrap_or(usize::MAX);
            // A dynamic leaf's index is already a byte offset (stride 0).
            let at = index.saturating_mul(stride(ty).max(1));
            let last = at.saturating_add(first_read_bytes(ty).saturating_sub(1));
            let record = mem.buffer(arena);
            sink ^= byte_at(record, at) ^ byte_at(record, last);
        }
    }
    std::hint::black_box(sink);
}

/// One lookup per thread over the CuART structure of buffers.
#[derive(Clone)]
pub struct CuartLookupKernel {
    /// Device tree handles.
    pub tree: DeviceTree,
    /// Packed query keys.
    pub queries: BufferId,
    /// Query record layout.
    pub layout: KeyBatchLayout,
    /// One u64 result per query.
    pub results: BufferId,
    /// Number of queries.
    pub count: usize,
}

impl Kernel for CuartLookupKernel {
    fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        if tid >= self.count {
            return;
        }
        let rec_off = self.layout.offset(tid);
        let rec = ctx.read_bytes(self.queries, rec_off, self.layout.record_bytes());
        let result = match device_traverse(&self.tree, record_key(&rec), ctx) {
            DevHit::Found { value, .. } => value,
            DevHit::Miss { .. } => NOT_FOUND,
            DevHit::Host(idx) => HOST_SIGNAL | idx,
        };
        ctx.write_u64(self.results, tid * 8, result);
    }

    fn warm(&self, tids: Range<usize>, mem: &DeviceMemory) {
        let live = tids.start..tids.end.min(self.count);
        warm_traverse(&self.tree, self.queries, &self.layout, live, mem);
    }

    /// A thread reads its staged key and the tree, and writes its own
    /// result slot: independent.
    fn independent(&self) -> Option<Independent<'_>> {
        Some(Independent::new(self, self.results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CuartIndex;
    use crate::buffers::{CuartConfig, LongKeyPolicy};
    use cuart_art::Art;
    use cuart_gpu_sim::devices;

    fn index(keys: &[Vec<u8>], cfg: &CuartConfig) -> CuartIndex {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        CuartIndex::build(&art, cfg)
    }

    #[test]
    fn kernel_matches_cpu_engine() {
        let keys: Vec<Vec<u8>> = (0..3000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec())
            .collect();
        let idx = index(&keys, &CuartConfig::for_tests());
        let mut probes = keys[..512].to_vec();
        probes.push(vec![0xAB; 8]);
        let (results, _) = idx.lookup_batch_device(&devices::a100(), &probes, 8);
        for (p, got) in probes.iter().zip(&results) {
            let want = idx.lookup_cpu(p).unwrap_or(NOT_FOUND);
            assert_eq!(*got, want, "probe {p:x?}");
        }
    }

    #[test]
    fn chain_is_shorter_than_grt() {
        // Dense 4-level tree: CuART should finish in fewer dependent steps
        // than GRT on identical data — the core claim of §3.2.1.
        let keys: Vec<Vec<u8>> = (0..4096u64)
            .map(|i| {
                let mut k = vec![0u8; 8];
                k[..2].copy_from_slice(&((i % 64) as u16).to_be_bytes());
                k[2] = (i / 64) as u8;
                k[7] = 1;
                k
            })
            .collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        let cfg = CuartConfig {
            lut_span: 2,
            ..CuartConfig::for_tests()
        };
        let idx = index(&dedup, &cfg);
        let mut art = Art::new();
        for (i, k) in dedup.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        let grt = cuart_grt_like_chain(&art, &dedup[..256]);
        let dev = devices::a100();
        let (_, report) = idx.lookup_batch_device(&dev, &dedup[..256], 8);
        assert!(
            report.max_chain_steps < grt,
            "cuart chain {} !< grt chain {}",
            report.max_chain_steps,
            grt
        );
    }

    /// Helper: the GRT chain depth on the same tree, via the real GRT crate.
    fn cuart_grt_like_chain(art: &Art<u64>, probes: &[Vec<u8>]) -> usize {
        let grt = cuart_grt::GrtIndex::build(art);
        let (_, report) = grt.lookup_batch_device(&devices::a100(), probes, 8);
        report.max_chain_steps
    }

    #[test]
    fn host_signal_for_host_leaf_links() {
        let long = vec![3u8; 48];
        let cfg = CuartConfig {
            lut_span: 2,
            long_key_policy: LongKeyPolicy::HostLeafLink,
            multi_layer_nodes: false,
            single_leaf_class: false,
        };
        let idx = index(&[long.clone(), b"normal_key".to_vec()], &cfg);
        let (results, _) =
            idx.lookup_batch_device_raw(&devices::a100(), std::slice::from_ref(&long), 64);
        assert_eq!(results[0] & HOST_SIGNAL, HOST_SIGNAL);
        let host_idx = (results[0] & !HOST_SIGNAL) as usize;
        assert_eq!(idx.buffers().host_leaves[host_idx].0, long);
    }

    #[test]
    fn slot_ref_encoding_roundtrip() {
        for (tag, off) in [(1u8, 0usize), (7, 123456), (0xF, 8), (0xE, 0)] {
            let enc = slot_ref::encode(tag, off);
            assert_eq!(slot_ref::decode(enc), (tag, off));
        }
    }

    #[test]
    fn word_cmp_cost_grows_with_length() {
        assert!(word_cmp_cycles(32) > word_cmp_cycles(8));
        // 1..8 bytes cost the same (one word) — the short-key handicap.
        assert_eq!(word_cmp_cycles(1), word_cmp_cycles(8));
    }
}
