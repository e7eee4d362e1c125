//! Mapping the pointer-based ART into the CuART structure of buffers.
//!
//! A depth-first in-order walk emits every node into its typed arena, so
//! leaves land in **lexicographic key order** within each leaf class — the
//! property that makes range-query results plain index pairs (§3.2.1).
//!
//! While walking, the compacted-root lookup table (§3.2.2) is populated:
//! the *first* node whose compressed span crosses the `lut_span`-byte
//! boundary is installed at the LUT slot named by the first `lut_span` key
//! bytes, together with the number of its prefix bytes the LUT already
//! consumed (the link's `aux` field). Keys shorter than the span cannot be
//! LUT-addressed and live in a host-side side table; keys longer than the
//! 32-byte device maximum follow the configured [`LongKeyPolicy`].

use crate::buffers::{CuartBuffers, CuartConfig, LongKeyPolicy};
use crate::layout::{self, EMPTY48, HEADER_BYTES, PREFIX_CAP};
use crate::link::{LinkType, NodeLink};
use cuart_art::view::NodeView;
use cuart_art::{Art, NodeType};

/// Maximum key length servable by the fixed-size device leaves.
pub const MAX_DEVICE_KEY: usize = 32;

/// Flatten `art` into CuART buffers under `config`.
pub fn map_art(art: &Art<u64>, config: &CuartConfig) -> CuartBuffers {
    let mut b = CuartBuffers::new(*config);
    b.entries = art.len();
    if let Some(root) = art.root_view() {
        let mut path = Vec::new();
        b.root = emit(&mut b, &root, 0, &mut path);
    }
    debug_assert!(b.short_keys.windows(2).all(|w| w[0].0 < w[1].0));
    debug_assert!(b.host_leaves.windows(2).all(|w| w[0].0 < w[1].0));
    b
}

fn link_type_of(t: NodeType) -> LinkType {
    match t {
        NodeType::N4 => LinkType::N4,
        NodeType::N16 => LinkType::N16,
        NodeType::N48 => LinkType::N48,
        NodeType::N256 => LinkType::N256,
    }
}

/// LUT slot for the first `span` bytes of `key` (big-endian interpretation).
pub fn lut_slot(key: &[u8], span: usize) -> usize {
    let mut idx = 0usize;
    for &b in &key[..span] {
        idx = (idx << 8) | b as usize;
    }
    idx
}

/// Emit the subtree at `view`, reached after consuming `path` (== `depth`
/// bytes); returns the link to it ([`NodeLink::NULL`] for keys the device
/// does not hold under the CpuRoute policy).
fn emit(
    b: &mut CuartBuffers,
    view: &NodeView<'_, u64>,
    depth: usize,
    path: &mut Vec<u8>,
) -> NodeLink {
    debug_assert_eq!(path.len(), depth);
    let span = b.config.lut_span;
    match view {
        NodeView::Leaf(leaf) => {
            let key = leaf.key();
            let value = *leaf.value();
            b.max_key_len = b.max_key_len.max(key.len());
            // Keys too short for the LUT live host-side (they are always
            // standalone: a prefix-free key set cannot extend them).
            if span > 0 && key.len() < span {
                b.short_keys.push((key.to_vec(), value));
                return NodeLink::NULL;
            }
            let class_for = if b.config.single_leaf_class {
                // Ablation: the paper's initial single 32-byte leaf.
                layout::leaf_class_for(key.len()).map(|_| LinkType::Leaf32)
            } else {
                layout::leaf_class_for(key.len())
            };
            let link = match class_for {
                Some(class) => {
                    let idx = b.alloc_record(class);
                    let rec = b.record_mut(class, idx);
                    rec[..key.len()].copy_from_slice(key);
                    rec[layout::leaf::value_at(class)..layout::leaf::value_at(class) + 8]
                        .copy_from_slice(&value.to_le_bytes());
                    rec[layout::leaf::len_at(class)] = key.len() as u8;
                    rec[layout::leaf::live_at(class)] = 1;
                    NodeLink::new(class, idx)
                }
                None => match b.config.long_key_policy {
                    LongKeyPolicy::CpuRoute => {
                        b.host_leaves.push((key.to_vec(), value));
                        return NodeLink::NULL;
                    }
                    LongKeyPolicy::HostLeafLink => {
                        let idx = b.host_leaves.len() as u64;
                        b.host_leaves.push((key.to_vec(), value));
                        NodeLink::new(LinkType::HostLeaf, idx)
                    }
                    LongKeyPolicy::DynamicLeaf => {
                        let arena = std::sync::Arc::make_mut(&mut b.dyn_leaves);
                        let off = arena.len() as u64;
                        assert!(
                            key.len() <= u16::MAX as usize,
                            "key too long for dynamic leaf"
                        );
                        arena.extend_from_slice(&(key.len() as u16).to_le_bytes());
                        arena.extend_from_slice(key);
                        arena.extend_from_slice(&value.to_le_bytes());
                        // Pad to 8 bytes so following records stay aligned.
                        arena.resize(arena.len().next_multiple_of(8), 0);
                        NodeLink::new(LinkType::DynLeaf, off)
                    }
                },
            };
            // A leaf reached at or before the LUT boundary owns its slot.
            if span > 0 && depth <= span && key.len() >= span {
                let slot = lut_slot(key, span);
                b.set_lut(slot, link.0);
            }
            link
        }
        NodeView::Inner(inner) => {
            if b.config.multi_layer_nodes {
                if let Some(link) = try_emit_multilayer(b, inner, depth, path) {
                    return link;
                }
            }
            let class = link_type_of(inner.node_type());
            let prefix = inner.prefix();
            assert!(
                prefix.len() <= u8::MAX as usize,
                "compressed prefix > 255 bytes"
            );
            let idx = b.alloc_record(class);
            {
                let rec = b.record_mut(class, idx);
                rec[0] = inner.child_count().min(255) as u8;
                rec[1] = prefix.len() as u8;
                let stored = prefix.len().min(PREFIX_CAP);
                rec[2..2 + stored].copy_from_slice(&prefix[..stored]);
                if class == LinkType::N48 {
                    rec[HEADER_BYTES..HEADER_BYTES + 256].fill(EMPTY48);
                }
            }
            let link = NodeLink::new(class, idx);
            // Install in the LUT if this node's span crosses the boundary.
            if span > 0 && depth <= span && depth + prefix.len() >= span {
                let mut full = path.clone();
                full.extend_from_slice(&prefix[..span - depth]);
                let slot = lut_slot(&full, span);
                b.set_lut(slot, NodeLink::with_aux(class, idx, (span - depth) as u8).0);
            }
            // Children, in ascending key order. Host-routed keys (CpuRoute)
            // yield null links and are excluded from the device arrays, so
            // the stored child count reflects device-visible children only.
            let child_depth = depth + prefix.len() + 1;
            let mut dev_children: Vec<(u8, NodeLink)> = Vec::with_capacity(inner.child_count());
            for (byte, child) in inner.children().iter() {
                path.extend_from_slice(prefix);
                path.push(*byte);
                let child_link = emit(b, child, child_depth, path);
                path.truncate(depth);
                if !child_link.is_null() {
                    dev_children.push((*byte, child_link));
                }
            }
            let base = b.record_offset(class, idx);
            b.arena_key_write(class, base, dev_children.len().min(255) as u8);
            for (slot_i, (byte, child_link)) in dev_children.iter().enumerate() {
                match class {
                    LinkType::N4 | LinkType::N16 => {
                        b.arena_key_write(class, base + layout::keys_at(class) + slot_i, *byte);
                        b.set_link_at(
                            class,
                            base + layout::links_at(class) + slot_i * 8,
                            *child_link,
                        );
                    }
                    LinkType::N48 => {
                        b.arena_key_write(
                            class,
                            base + HEADER_BYTES + *byte as usize,
                            slot_i as u8,
                        );
                        b.set_link_at(
                            class,
                            base + layout::links_at(class) + slot_i * 8,
                            *child_link,
                        );
                    }
                    LinkType::N256 => {
                        b.set_link_at(
                            class,
                            base + layout::links_at(class) + *byte as usize * 8,
                            *child_link,
                        );
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "arm excluded by the tag/class validation guarding this match"
                    )]
                    _ => unreachable!(),
                }
            }
            link
        }
    }
}

/// Fan-out threshold for merging an N256 with its children into one
/// multi-layer node (START): merging sparse levels would waste the 512 KiB
/// record.
const N2L_MIN_CHILDREN: usize = 192;

/// Attempt to emit `inner` and its children as one multi-layer N2L node
/// (START, §5.1). Succeeds only for a dense N256 whose children are all
/// inner nodes with empty prefixes — the only shape where two levels can
/// merge without losing path information.
fn try_emit_multilayer(
    b: &mut CuartBuffers,
    inner: &cuart_art::view::InnerView<'_, u64>,
    depth: usize,
    path: &mut Vec<u8>,
) -> Option<NodeLink> {
    if inner.node_type() != NodeType::N256 || inner.child_count() < N2L_MIN_CHILDREN {
        return None;
    }
    let children = inner.children();
    let all_mergeable = children.iter().all(|(_, c)| match c {
        NodeView::Inner(ci) => ci.prefix().is_empty(),
        NodeView::Leaf(_) => false,
    });
    if !all_mergeable {
        return None;
    }
    let prefix = inner.prefix();
    let span = b.config.lut_span;
    let idx = b.alloc_record(LinkType::N2L);
    {
        let rec = b.record_mut(LinkType::N2L, idx);
        rec[0] = inner.child_count().min(255) as u8;
        rec[1] = prefix.len() as u8;
        let stored = prefix.len().min(PREFIX_CAP);
        rec[2..2 + stored].copy_from_slice(&prefix[..stored]);
    }
    let link = NodeLink::new(LinkType::N2L, idx);
    if span > 0 && depth <= span && depth + prefix.len() >= span {
        let mut full = path.clone();
        full.extend_from_slice(&prefix[..span - depth]);
        let slot = lut_slot(&full, span);
        b.set_lut(
            slot,
            NodeLink::with_aux(LinkType::N2L, idx, (span - depth) as u8).0,
        );
    }
    // Grandchildren sit two bytes below this node's prefix.
    let grandchild_depth = depth + prefix.len() + 2;
    for (b1, child) in children.iter() {
        #[expect(
            clippy::unreachable,
            reason = "arm excluded by the tag/class validation guarding this match"
        )]
        let NodeView::Inner(ci) = child
        else {
            unreachable!("checked above")
        };
        for (b2, grandchild) in ci.children().iter() {
            path.extend_from_slice(prefix);
            path.push(*b1);
            path.push(*b2);
            let gc_link = emit(b, grandchild, grandchild_depth, path);
            path.truncate(depth);
            if gc_link.is_null() {
                continue; // host-routed key
            }
            let slot = ((*b1 as usize) << 8) | *b2 as usize;
            let base = b.record_offset(LinkType::N2L, idx);
            b.set_link_at(
                LinkType::N2L,
                base + layout::links_at(LinkType::N2L) + slot * 8,
                gc_link,
            );
        }
    }
    Some(link)
}

impl CuartBuffers {
    /// Write a raw byte into an arena (keys array / child index). Routed
    /// through the fallible arena accessor: a type without an arena is a
    /// typed error surfaced in debug builds, not a bespoke panic arm.
    pub(crate) fn arena_key_write(&mut self, ty: LinkType, off: usize, byte: u8) {
        match self.arena_mut(ty) {
            Ok(arena) => arena[off] = byte,
            Err(e) => debug_assert!(false, "arena_key_write: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::lookup;

    fn art_of(keys: &[&[u8]]) -> Art<u64> {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        art
    }

    fn cfg(span: usize) -> CuartConfig {
        CuartConfig {
            lut_span: span,
            ..CuartConfig::for_tests()
        }
    }

    #[test]
    fn empty_tree() {
        let b = map_art(&Art::new(), &CuartConfig::for_tests());
        assert!(b.root.is_null());
        assert_eq!(b.entries, 0);
        assert_eq!(lookup(&b, b"x"), None);
    }

    #[test]
    fn single_leaf_no_lut() {
        let b = map_art(&art_of(&[b"hello"]), &cfg(0));
        assert_eq!(b.record_count(LinkType::Leaf8), 1);
        assert_eq!(b.root.link_type(), Some(LinkType::Leaf8));
        assert_eq!(lookup(&b, b"hello"), Some(1));
        assert_eq!(lookup(&b, b"hellp"), None);
    }

    #[test]
    fn leaf_classes_assigned_by_length() {
        let b = map_art(&art_of(&[&[1u8; 4], &[2u8; 12], &[3u8; 24]]), &cfg(0));
        assert_eq!(b.record_count(LinkType::Leaf8), 1);
        assert_eq!(b.record_count(LinkType::Leaf16), 1);
        assert_eq!(b.record_count(LinkType::Leaf32), 1);
        assert_eq!(lookup(&b, &[1u8; 4]), Some(1));
        assert_eq!(lookup(&b, &[2u8; 12]), Some(2));
        assert_eq!(lookup(&b, &[3u8; 24]), Some(3));
    }

    #[test]
    fn lut_entries_installed_for_leaves() {
        let b = map_art(&art_of(&[b"abcd", b"wxyz"]), &cfg(2));
        let slot_ab = lut_slot(b"abcd", 2);
        let slot_wx = lut_slot(b"wxyz", 2);
        assert_ne!(b.lut_entry(slot_ab), 0);
        assert_ne!(b.lut_entry(slot_wx), 0);
        assert_eq!(
            NodeLink(b.lut_entry(slot_ab)).link_type(),
            Some(LinkType::Leaf8)
        );
        // Unrelated slots are null.
        assert_eq!(b.lut_entry(lut_slot(b"zz", 2)), 0);
        assert_eq!(lookup(&b, b"abcd"), Some(1));
        assert_eq!(lookup(&b, b"abcx"), None);
    }

    #[test]
    fn lut_entry_mid_prefix_records_skip() {
        // Root compresses "comm" (4 bytes) — the 2-byte LUT boundary falls
        // inside the prefix, so the entry's aux must be 2.
        let b = map_art(&art_of(&[b"commA", b"commB"]), &cfg(2));
        let entry = NodeLink(b.lut_entry(lut_slot(b"co", 2)));
        assert!(!entry.is_null());
        assert_eq!(entry.aux(), 2);
        assert_eq!(entry.link_type(), Some(LinkType::N4));
        assert_eq!(lookup(&b, b"commA"), Some(1));
        assert_eq!(lookup(&b, b"commB"), Some(2));
        assert_eq!(lookup(&b, b"comXA"), None);
    }

    #[test]
    fn lut_entry_for_deep_branching() {
        // Keys diverge at byte 3 (> span 2): the node branching there is
        // below the boundary; its ancestor crossing the boundary (the root,
        // prefix "ab" + branch at byte 2) is installed per first-crossing.
        let b = map_art(&art_of(&[b"abXcd", b"abXce", b"abYcd"]), &cfg(2));
        let entry = NodeLink(b.lut_entry(lut_slot(b"ab", 2)));
        assert!(!entry.is_null());
        assert_eq!(entry.aux(), 2, "boundary at end of prefix");
        for (i, k) in [&b"abXcd"[..], b"abXce", b"abYcd"].iter().enumerate() {
            assert_eq!(lookup(&b, k), Some(i as u64 + 1));
        }
    }

    #[test]
    fn short_keys_go_to_host_table() {
        let b = map_art(&art_of(&[b"a", b"zz", b"longenough"]), &cfg(3));
        assert_eq!(b.short_keys.len(), 2);
        assert_eq!(b.host_entries(), 2);
        assert_eq!(lookup(&b, b"a"), Some(1));
        assert_eq!(lookup(&b, b"zz"), Some(2));
        assert_eq!(lookup(&b, b"longenough"), Some(3));
        assert_eq!(lookup(&b, b"b"), None);
    }

    #[test]
    fn long_keys_cpu_route() {
        let long = vec![7u8; 40];
        let b = map_art(
            &art_of(&[b"short_key", &long]),
            &CuartConfig {
                lut_span: 2,
                long_key_policy: LongKeyPolicy::CpuRoute,
                multi_layer_nodes: false,
                single_leaf_class: false,
            },
        );
        assert_eq!(b.host_leaves.len(), 1);
        assert_eq!(lookup(&b, &long), Some(2));
        assert_eq!(lookup(&b, b"short_key"), Some(1));
        assert_eq!(b.max_key_len, 40);
    }

    #[test]
    fn long_keys_host_leaf_link() {
        let long_a = vec![9u8; 64];
        let mut long_b = long_a.clone();
        long_b[63] = 1;
        let b = map_art(
            &art_of(&[&long_a, &long_b, b"tiny_key"]),
            &CuartConfig {
                lut_span: 2,
                long_key_policy: LongKeyPolicy::HostLeafLink,
                multi_layer_nodes: false,
                single_leaf_class: false,
            },
        );
        assert_eq!(b.host_leaves.len(), 2);
        assert_eq!(lookup(&b, &long_a), Some(1));
        assert_eq!(lookup(&b, &long_b), Some(2));
        let mut probe = long_a.clone();
        probe[40] ^= 0xFF;
        assert_eq!(lookup(&b, &probe), None);
    }

    #[test]
    fn long_keys_dynamic_leaf() {
        let long = vec![5u8; 50];
        let b = map_art(
            &art_of(&[&long, b"plain_key"]),
            &CuartConfig {
                lut_span: 2,
                long_key_policy: LongKeyPolicy::DynamicLeaf,
                multi_layer_nodes: false,
                single_leaf_class: false,
            },
        );
        assert!(b.host_leaves.is_empty());
        assert!(!b.dyn_leaves.is_empty());
        assert_eq!(lookup(&b, &long), Some(1));
        let mut probe = long.clone();
        probe[49] = 0;
        assert_eq!(lookup(&b, &probe), None);
    }

    #[test]
    fn all_inner_node_types_roundtrip() {
        for n in [3usize, 10, 40, 200] {
            let keys: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8, 9, 9, 9]).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let b = map_art(&art_of(&refs), &cfg(2));
            for (i, k) in refs.iter().enumerate() {
                assert_eq!(lookup(&b, k), Some(i as u64 + 1), "fanout {n}, key {i}");
            }
        }
    }

    #[test]
    fn leaves_emitted_in_lexicographic_order() {
        let keys: &[&[u8]] = &[b"dddd", b"aaaa", b"cccc", b"bbbb"];
        let b = map_art(&art_of(keys), &cfg(2));
        let mut seen = Vec::new();
        for i in 0..b.record_count(LinkType::Leaf8) {
            let rec = b.record(LinkType::Leaf8, i as u64);
            seen.push(rec[..4].to_vec());
        }
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn optimistic_long_prefix_verified_at_leaf() {
        // Prefix longer than the 14 stored bytes: lookup skips the tail and
        // the leaf comparison must catch impostors.
        let a = b"0123456789abcdefghij_X".to_vec();
        let d = b"0123456789abcdefghij_Y".to_vec();
        let b_ = map_art(&art_of(&[&a, &d]), &cfg(2));
        assert_eq!(lookup(&b_, &a), Some(1));
        assert_eq!(lookup(&b_, &d), Some(2));
        // Same first 14 prefix bytes, diverging inside the skipped span.
        let probe = b"0123456789abcdefghiQ_X".to_vec();
        assert_eq!(lookup(&b_, &probe), None);
    }
}

#[cfg(test)]
mod multilayer_tests {
    use super::*;
    use crate::cpu::lookup;

    /// Dense 2-level key set: every (b1, b2) pair exists, keys 4 bytes.
    fn dense_keys() -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        for b1 in 0..=255u8 {
            for b2 in (0..=255u8).step_by(2) {
                keys.push(vec![b1, b2, 7, 9]);
            }
        }
        keys
    }

    fn art_of(keys: &[Vec<u8>]) -> Art<u64> {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        art
    }

    fn ml_cfg(span: usize) -> CuartConfig {
        CuartConfig {
            lut_span: span,
            multi_layer_nodes: true,
            ..CuartConfig::for_tests()
        }
    }

    #[test]
    fn dense_root_merges_into_n2l() {
        let keys = dense_keys();
        let art = art_of(&keys);
        let b = map_art(&art, &ml_cfg(0));
        assert_eq!(b.record_count(LinkType::N2L), 1, "root should merge");
        assert_eq!(b.record_count(LinkType::N256), 0, "no residual N256 levels");
        assert_eq!(b.root.link_type(), Some(LinkType::N2L));
        // Every key resolves; misses miss.
        for k in keys.iter().step_by(97) {
            assert_eq!(lookup(&b, k), art.get(k).copied());
        }
        assert_eq!(lookup(&b, &[1, 1, 7, 9]), None); // odd b2 never inserted
        assert_eq!(lookup(&b, &[1, 2, 7, 8]), None);
        assert_eq!(lookup(&b, &[1, 2]), None); // key ends inside the N2L span
    }

    #[test]
    fn sparse_trees_do_not_merge() {
        // Only 10 first bytes: below the N2L_MIN_CHILDREN threshold.
        let keys: Vec<Vec<u8>> = (0..10u8)
            .flat_map(|b1| (0..10u8).map(move |b2| vec![b1, b2, 1, 1]))
            .collect();
        let b = map_art(&art_of(&keys), &ml_cfg(0));
        assert_eq!(b.record_count(LinkType::N2L), 0);
        for k in &keys {
            assert_eq!(lookup(&b, k), lookup(&b, k)); // and still correct:
            assert!(lookup(&b, k).is_some());
        }
    }

    #[test]
    fn n2l_flag_off_changes_nothing() {
        let keys = dense_keys();
        let art = art_of(&keys);
        let with = map_art(&art, &ml_cfg(0));
        let without = map_art(
            &art,
            &CuartConfig {
                lut_span: 0,
                ..CuartConfig::for_tests()
            },
        );
        assert_eq!(without.record_count(LinkType::N2L), 0);
        for k in keys.iter().step_by(211) {
            assert_eq!(lookup(&with, k), lookup(&without, k));
        }
    }

    #[test]
    fn n2l_with_lut_spans() {
        // The LUT consumes the first 2 bytes; N2L merging then applies to
        // deeper dense levels (here: bytes 2-3 of 6-byte keys).
        let mut keys = Vec::new();
        for b2 in 0..=255u8 {
            for b3 in (0..=255u8).step_by(4) {
                keys.push(vec![9, 9, b2, b3, 5, 5]);
            }
        }
        let art = art_of(&keys);
        let b = map_art(&art, &ml_cfg(2));
        assert_eq!(b.record_count(LinkType::N2L), 1);
        // The LUT entry for [9,9] must point at the N2L node.
        let entry = NodeLink(b.lut_entry(lut_slot(&[9, 9], 2)));
        assert_eq!(entry.link_type(), Some(LinkType::N2L));
        for k in keys.iter().step_by(173) {
            assert_eq!(lookup(&b, k), art.get(k).copied());
        }
    }

    #[test]
    fn n2l_shortens_device_chain() {
        use cuart_gpu_sim::devices;
        let keys = dense_keys();
        let art = art_of(&keys);
        let flat = crate::CuartIndex::build(
            &art,
            &CuartConfig {
                lut_span: 0,
                ..CuartConfig::for_tests()
            },
        );
        let merged = crate::CuartIndex::build(&art, &ml_cfg(0));
        let dev = devices::a100();
        let probes: Vec<Vec<u8>> = keys.iter().step_by(37).cloned().collect();
        let (r1, flat_rep) = flat.lookup_batch_device(&dev, &probes, 8);
        let (r2, merged_rep) = merged.lookup_batch_device(&dev, &probes, 8);
        assert_eq!(r1, r2, "merging must not change results");
        assert!(
            merged_rep.max_chain_steps < flat_rep.max_chain_steps,
            "N2L {} !< flat {}",
            merged_rep.max_chain_steps,
            flat_rep.max_chain_steps
        );
    }
}
