//! Mapping the pointer-based CPU ART into the packed GRT buffer.
//!
//! The original GRT maps the host tree into a single buffer with an
//! in-order traversal (§3.2.1: "a mapping step from the pointer-based ART
//! in main memory towards … a single, tightly packed buffer of nodes
//! utilizing an in-order traversal"). We emit each node before its children
//! (depth-first in ascending key order), which packs every subtree — and
//! all leaves — in lexicographic order.

use crate::layout::{self, tag, GrtBuffer, EMPTY48, HEADER_BYTES, PREFIX_CAP};
use cuart_art::view::NodeView;
use cuart_art::{Art, NodeType};

/// Flatten `art` into a packed GRT buffer.
pub fn map_art(art: &Art<u64>) -> GrtBuffer {
    let Some(root) = art.root_view() else {
        return GrtBuffer::empty();
    };
    let mut bytes = Vec::new();
    let mut max_key_len = 0usize;
    emit(&mut bytes, &root, &mut max_key_len);
    GrtBuffer {
        bytes,
        root: 0,
        entries: art.len(),
        max_key_len,
    }
}

fn type_tag(t: NodeType) -> u8 {
    match t {
        NodeType::N4 => tag::N4,
        NodeType::N16 => tag::N16,
        NodeType::N48 => tag::N48,
        NodeType::N256 => tag::N256,
    }
}

/// Append the subtree rooted at `view`; returns its byte offset.
fn emit(bytes: &mut Vec<u8>, view: &NodeView<'_, u64>, max_key_len: &mut usize) -> u64 {
    match view {
        NodeView::Leaf(leaf) => {
            let off = bytes.len() as u64;
            let key = leaf.key();
            *max_key_len = (*max_key_len).max(key.len());
            assert!(key.len() <= u16::MAX as usize, "key too long for GRT leaf");
            bytes.push(tag::LEAF);
            bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
            bytes.extend_from_slice(key);
            bytes.extend_from_slice(&leaf.value().to_le_bytes());
            off
        }
        NodeView::Inner(inner) => {
            let t = type_tag(inner.node_type());
            let node_off = bytes.len();
            let size = layout::inner_node_bytes(t);
            bytes.resize(node_off + size, 0);
            // Header.
            let prefix = inner.prefix();
            bytes[node_off] = t;
            bytes[node_off + 1] = inner.child_count() as u8; // 256 wraps to 0; count is advisory
            bytes[node_off + 2] = prefix.len().min(u8::MAX as usize) as u8;
            let stored = prefix.len().min(PREFIX_CAP);
            bytes[node_off + 3..node_off + 3 + stored].copy_from_slice(&prefix[..stored]);
            // Body: children emitted depth-first, then their offsets patched.
            let children = inner.children();
            match t {
                tag::N4 | tag::N16 => {
                    let cap = if t == tag::N4 { 4 } else { 16 };
                    assert!(children.len() <= cap);
                    for (i, (byte, child)) in children.iter().enumerate() {
                        bytes[node_off + HEADER_BYTES + i] = *byte;
                        let child_off = emit(bytes, child, max_key_len);
                        let slot = node_off + layout::offsets_at(t) + i * 8;
                        bytes[slot..slot + 8].copy_from_slice(&child_off.to_le_bytes());
                    }
                }
                tag::N48 => {
                    let index_at = node_off + HEADER_BYTES;
                    bytes[index_at..index_at + 256].fill(EMPTY48);
                    for (i, (byte, child)) in children.iter().enumerate() {
                        bytes[index_at + *byte as usize] = i as u8;
                        let child_off = emit(bytes, child, max_key_len);
                        let slot = node_off + layout::offsets_at(t) + i * 8;
                        bytes[slot..slot + 8].copy_from_slice(&child_off.to_le_bytes());
                    }
                }
                tag::N256 => {
                    for (byte, child) in children.iter() {
                        let child_off = emit(bytes, child, max_key_len);
                        let slot = node_off + layout::offsets_at(t) + *byte as usize * 8;
                        bytes[slot..slot + 8].copy_from_slice(&child_off.to_le_bytes());
                    }
                }
                #[expect(
                    clippy::unreachable,
                    reason = "arm excluded by the tag/class validation guarding this match"
                )]
                _ => unreachable!(),
            }
            node_off as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::lookup;

    fn tree(keys: &[&[u8]]) -> Art<u64> {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        art
    }

    #[test]
    fn empty_tree_maps_to_empty_buffer() {
        let buf = map_art(&Art::new());
        assert!(buf.is_empty());
        assert!(buf.bytes.is_empty());
    }

    #[test]
    fn single_leaf_layout() {
        let buf = map_art(&tree(&[b"abcd"]));
        assert_eq!(buf.entries, 1);
        assert_eq!(buf.u8_at(0), tag::LEAF);
        assert_eq!(buf.u16_at(1), 4);
        assert_eq!(buf.slice(3, 4), b"abcd");
        assert_eq!(buf.u64_at(7), 1);
        assert_eq!(buf.bytes.len(), layout::leaf_bytes(4));
        assert_eq!(buf.max_key_len, 4);
    }

    #[test]
    fn inner_node_header_and_children() {
        let buf = map_art(&tree(&[b"romane", b"romanus", b"romulus"]));
        // Root is an N4 compressing "rom".
        assert_eq!(buf.u8_at(0), tag::N4);
        assert_eq!(buf.u8_at(1), 2);
        assert_eq!(buf.u8_at(2), 3);
        assert_eq!(buf.slice(3, 3), b"rom");
        // Every key must resolve through the CPU reference lookup.
        for (i, k) in [&b"romane"[..], b"romanus", b"romulus"].iter().enumerate() {
            assert_eq!(lookup(&buf, k), Some(i as u64 + 1), "key {k:?}");
        }
        assert_eq!(lookup(&buf, b"romanes"), None);
    }

    #[test]
    fn all_node_types_roundtrip() {
        // Craft fan-outs of 4, 16, 48 and 256 at the root.
        for n in [3usize, 10, 40, 200] {
            let keys: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8, 1, 2, 3]).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let buf = map_art(&tree(&refs));
            for (i, k) in refs.iter().enumerate() {
                assert_eq!(lookup(&buf, k), Some(i as u64 + 1), "fanout {n} key {i}");
            }
            assert_eq!(lookup(&buf, &[255, 255, 255, 255]), None);
        }
    }

    #[test]
    fn buffer_is_tightly_packed() {
        // A 2-leaf tree: N4 (52 B) + 2 leaves, no padding between.
        let buf = map_art(&tree(&[b"aa", b"ab"]));
        let expected = layout::inner_node_bytes(tag::N4) + 2 * layout::leaf_bytes(2);
        assert_eq!(buf.bytes.len(), expected);
    }

    #[test]
    fn long_prefixes_are_truncated_optimistically() {
        let long_a = [b"prefix_longer_than_thirteen_bytes_A".as_slice()];
        let mut keys: Vec<&[u8]> = long_a.to_vec();
        let b = b"prefix_longer_than_thirteen_bytes_B";
        keys.push(b);
        let buf = map_art(&tree(&keys));
        // Stored prefix caps at 13, full length recorded.
        assert_eq!(
            buf.u8_at(2) as usize,
            "prefix_longer_than_thirteen_bytes_".len()
        );
        assert_eq!(lookup(&buf, keys[0]), Some(1));
        assert_eq!(lookup(&buf, b), Some(2));
        // A key agreeing on the stored 13 bytes but diverging later must
        // still miss (the leaf verifies).
        assert_eq!(lookup(&buf, b"prefix_longerXthan_thirteen_bytes_A"), None);
    }

    #[test]
    fn leaves_are_in_lexicographic_order() {
        let buf = map_art(&tree(&[b"cc", b"aa", b"bb"]));
        // Scan the buffer for leaf tags and collect keys in buffer order.
        let mut keys = Vec::new();
        let mut off = layout::inner_node_bytes(tag::N4); // skip root
        while off < buf.bytes.len() {
            assert_eq!(buf.u8_at(off), tag::LEAF);
            let len = buf.u16_at(off + 1) as usize;
            keys.push(buf.slice(off + 3, len).to_vec());
            off += layout::leaf_bytes(len);
        }
        assert_eq!(keys, vec![b"aa".to_vec(), b"bb".to_vec(), b"cc".to_vec()]);
    }
}
