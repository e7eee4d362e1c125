//! The packed single-buffer layout of GRT.
//!
//! Every node starts with a 16-byte header whose **first byte is the node
//! type** — the property §3.1 of the CuART paper identifies as the
//! bottleneck, because the size (and meaning) of the rest of the node is
//! unknown until the header has been read. Nodes are tightly packed with no
//! alignment, so headers and bodies routinely straddle 32-byte sectors.
//!
//! ```text
//! header (16 B):  [type u8][child_count u8][prefix_len u8][prefix 13 B]
//! N4   body:      keys[4]          offsets[4]  x u64      (36 B)
//! N16  body:      keys[16]         offsets[16] x u64      (144 B)
//! N48  body:      child_index[256] offsets[48] x u64      (640 B)
//! N256 body:      offsets[256] x u64                      (2048 B)
//! leaf:           [type u8][key_len u16][key ...][value u64]
//! ```
//!
//! Child pointers are absolute byte offsets into the buffer; 0 means null
//! (the root sits at offset 0 but nothing ever points at it).

/// Node-type tags stored in the header's first byte.
pub mod tag {
    /// Inner node with up to 4 children.
    pub const N4: u8 = 1;
    /// Inner node with up to 16 children.
    pub const N16: u8 = 2;
    /// Inner node with up to 48 children.
    pub const N48: u8 = 3;
    /// Inner node with up to 256 children.
    pub const N256: u8 = 4;
    /// Dynamically sized leaf.
    pub const LEAF: u8 = 5;
}

/// Size of the inner-node header.
pub const HEADER_BYTES: usize = 16;
/// Prefix bytes stored inline in the header; longer prefixes are skipped
/// optimistically and verified at the leaf.
pub const PREFIX_CAP: usize = 13;
/// "Empty" marker in an N48 child index.
pub const EMPTY48: u8 = 0xFF;
/// Leaf header: tag byte + u16 key length.
pub const LEAF_HEADER_BYTES: usize = 3;

/// Body size (bytes after the header) for an inner node of type `t`.
pub fn inner_body_bytes(t: u8) -> usize {
    match t {
        tag::N4 => 4 + 4 * 8,
        tag::N16 => 16 + 16 * 8,
        tag::N48 => 256 + 48 * 8,
        tag::N256 => 256 * 8,
        #[expect(
            clippy::panic,
            reason = "caller contract documented on the function: only validated classes reach here"
        )]
        _ => panic!("not an inner node tag: {t}"),
    }
}

/// Total size of an inner node of type `t`.
pub fn inner_node_bytes(t: u8) -> usize {
    HEADER_BYTES + inner_body_bytes(t)
}

/// Total size of a leaf holding `key_len` key bytes.
pub fn leaf_bytes(key_len: usize) -> usize {
    LEAF_HEADER_BYTES + key_len + 8
}

/// Byte offset (within the node) of the child-offset array.
pub fn offsets_at(t: u8) -> usize {
    match t {
        tag::N4 => HEADER_BYTES + 4,
        tag::N16 => HEADER_BYTES + 16,
        tag::N48 => HEADER_BYTES + 256,
        tag::N256 => HEADER_BYTES,
        #[expect(
            clippy::panic,
            reason = "caller contract documented on the function: only validated classes reach here"
        )]
        _ => panic!("not an inner node tag: {t}"),
    }
}

/// The mapped tree: one tightly packed host-side byte buffer, uploaded
/// verbatim to the device.
#[derive(Debug, Clone)]
pub struct GrtBuffer {
    /// The packed node bytes.
    pub bytes: Vec<u8>,
    /// Offset of the root node (always 0 for non-empty trees).
    pub root: u64,
    /// Number of keys in the tree.
    pub entries: usize,
    /// Length in bytes of the longest stored key.
    pub max_key_len: usize,
}

impl GrtBuffer {
    /// An empty buffer (no keys).
    pub fn empty() -> Self {
        GrtBuffer {
            bytes: Vec::new(),
            root: 0,
            entries: 0,
            max_key_len: 0,
        }
    }

    /// `true` if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Read helpers used by both the CPU reference lookup and tests.
    pub fn u8_at(&self, off: usize) -> u8 {
        self.bytes[off]
    }

    /// Little-endian u16 at `off`.
    #[expect(
        clippy::expect_used,
        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
    )]
    pub fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.bytes[off..off + 2].try_into().expect("2 bytes"))
    }

    /// Little-endian u64 at `off`.
    #[expect(
        clippy::expect_used,
        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
    )]
    pub fn u64_at(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Slice of `len` bytes at `off`.
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    /// The buffer contents padded with one header's worth of zero slack, so
    /// the GPU kernel's fixed 16-byte header reads never run off the end of
    /// the allocation even when the last node is a tiny leaf.
    pub fn padded_bytes(&self) -> Vec<u8> {
        let mut out = self.bytes.clone();
        out.extend_from_slice(&[0u8; HEADER_BYTES]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_sizes_match_the_paper() {
        // §3.1 quotes ~650 B for N48 and 2 KB for N256 (header included).
        assert_eq!(inner_node_bytes(tag::N48), 656);
        assert_eq!(inner_node_bytes(tag::N256), 2064);
        assert_eq!(inner_node_bytes(tag::N4), 52);
        assert_eq!(inner_node_bytes(tag::N16), 160);
    }

    #[test]
    fn leaf_size_is_dynamic() {
        assert_eq!(leaf_bytes(4), 15);
        assert_eq!(leaf_bytes(32), 43);
    }

    #[test]
    fn offsets_arrays_positions() {
        assert_eq!(offsets_at(tag::N4), 20);
        assert_eq!(offsets_at(tag::N16), 32);
        assert_eq!(offsets_at(tag::N48), 272);
        assert_eq!(offsets_at(tag::N256), 16);
    }

    #[test]
    #[should_panic]
    fn leaf_tag_has_no_inner_body() {
        inner_body_bytes(tag::LEAF);
    }
}
