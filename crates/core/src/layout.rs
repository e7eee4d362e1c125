//! Byte layouts of the typed node and leaf records (§3.2.1, Figure 2).
//!
//! Because the node type lives in the link, the header needs **no type
//! byte**; the freed byte extends the in-node prefix to 14 bytes (GRT
//! stores 13). All inner records are multiples of 16 bytes, so the
//! compile-time alignment guarantee of §3.2.1 holds: a traversal step knows
//! both the size *and* the alignment of its read before issuing it.
//!
//! ```text
//! header (16 B):  [child_count u8][prefix_len u8][prefix 14 B]
//! N4    (64 B):   header  keys[4]  pad[4]  links[4]  x u64
//! N16   (160 B):  header  keys[16]         links[16] x u64
//! N48   (656 B):  header  child_index[256] links[48] x u64
//! N256  (2064 B): header  links[256] x u64
//! leaf8  (24 B):  key[8]   value u64  [len u8][live u8][pad 6]
//! leaf16 (32 B):  key[16]  value u64  [len u8][live u8][pad 6]
//! leaf32 (48 B):  key[32]  value u64  [len u8][live u8][pad 6]
//! dyn leaf:       [key_len u16][key ...][value u64]   (§3.2.3 option 3)
//! ```

use crate::link::LinkType;

/// Inner-node header size.
pub const HEADER_BYTES: usize = 16;
/// Prefix bytes stored inline (one more than GRT thanks to the dropped
/// type byte).
pub const PREFIX_CAP: usize = 14;
/// "Empty" marker in an N48 child index.
pub const EMPTY48: u8 = 0xFF;
/// Trailing metadata in a fixed-size leaf: value u64 + len u8 + live u8 +
/// padding to 8.
pub const LEAF_META_BYTES: usize = 16;

/// Record stride for each link type's arena.
pub fn stride(ty: LinkType) -> usize {
    match ty {
        LinkType::N4 => 64,
        LinkType::N16 => 160,
        LinkType::N48 => 656,
        LinkType::N256 => 2064,
        LinkType::Leaf8 => 8 + LEAF_META_BYTES,
        LinkType::Leaf16 => 16 + LEAF_META_BYTES,
        LinkType::Leaf32 => 32 + LEAF_META_BYTES,
        LinkType::HostLeaf => 0, // host-resident, no device record
        LinkType::DynLeaf => 0,  // dynamically sized
        LinkType::N2L => HEADER_BYTES + (1 << 16) * 8, // START multi-layer node
    }
}

/// Key capacity of a fixed-size leaf class.
fn leaf_key_cap(ty: LinkType) -> usize {
    match ty {
        LinkType::Leaf8 => 8,
        LinkType::Leaf16 => 16,
        LinkType::Leaf32 => 32,
        #[expect(
            clippy::panic,
            reason = "caller contract documented on the function: only validated classes reach here"
        )]
        _ => panic!("not a fixed-size leaf class: {ty:?}"),
    }
}

/// The smallest leaf class holding a `len`-byte key on the device, or
/// `None` if the key is too long for any (→ long-key policy applies).
pub fn leaf_class_for(len: usize) -> Option<LinkType> {
    match len {
        0 => None,
        1..=8 => Some(LinkType::Leaf8),
        9..=16 => Some(LinkType::Leaf16),
        17..=32 => Some(LinkType::Leaf32),
        _ => None,
    }
}

/// Byte offset of the keys array within an N4/N16 record.
pub fn keys_at(ty: LinkType) -> usize {
    match ty {
        LinkType::N4 | LinkType::N16 => HEADER_BYTES,
        #[expect(
            clippy::panic,
            reason = "caller contract documented on the function: only validated classes reach here"
        )]
        _ => panic!("{ty:?} has no keys array"),
    }
}

/// Byte offset of the child-links array within an inner record.
pub fn links_at(ty: LinkType) -> usize {
    match ty {
        LinkType::N4 => HEADER_BYTES + 8, // 4 key bytes + 4 pad
        LinkType::N16 => HEADER_BYTES + 16,
        LinkType::N48 => HEADER_BYTES + 256,
        LinkType::N256 => HEADER_BYTES,
        LinkType::N2L => HEADER_BYTES,
        #[expect(
            clippy::panic,
            reason = "caller contract documented on the function: only validated classes reach here"
        )]
        _ => panic!("{ty:?} has no links array"),
    }
}

/// Offsets inside a fixed-size leaf record.
pub mod leaf {
    use super::*;

    /// A cleared record of the widest fixed leaf class; slice it to
    /// `stride(ty)` to clear or start a record of any class.
    pub const ZERO_RECORD: [u8; 32 + LEAF_META_BYTES] = [0; 32 + LEAF_META_BYTES];

    /// Byte offset of the value field.
    pub fn value_at(ty: LinkType) -> usize {
        leaf_key_cap(ty)
    }

    /// Byte offset of the key-length byte.
    pub fn len_at(ty: LinkType) -> usize {
        leaf_key_cap(ty) + 8
    }

    /// Byte offset of the live flag.
    pub fn live_at(ty: LinkType) -> usize {
        leaf_key_cap(ty) + 9
    }

    /// Bytes a lookup kernel must read to compare a key and fetch the
    /// value: key + value + len/live metadata.
    pub fn read_bytes(ty: LinkType) -> usize {
        leaf_key_cap(ty) + 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_strides_are_16_aligned() {
        for ty in [LinkType::N4, LinkType::N16, LinkType::N48, LinkType::N256] {
            assert_eq!(stride(ty) % 16, 0, "{ty:?}");
        }
    }

    #[test]
    fn leaf_strides_are_8_aligned() {
        for ty in [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32] {
            assert_eq!(stride(ty) % 8, 0, "{ty:?}");
        }
        assert_eq!(stride(LinkType::Leaf8), 24);
        assert_eq!(stride(LinkType::Leaf16), 32);
        assert_eq!(stride(LinkType::Leaf32), 48);
    }

    #[test]
    fn n48_and_n256_match_art_footprints() {
        // Same ballpark as the ART/GRT nodes (~650 B / ~2 KB, §3.1).
        assert_eq!(stride(LinkType::N48), 656);
        assert_eq!(stride(LinkType::N256), 2064);
    }

    #[test]
    fn leaf_class_selection() {
        assert_eq!(leaf_class_for(0), None);
        assert_eq!(leaf_class_for(1), Some(LinkType::Leaf8));
        assert_eq!(leaf_class_for(8), Some(LinkType::Leaf8));
        assert_eq!(leaf_class_for(9), Some(LinkType::Leaf16));
        assert_eq!(leaf_class_for(16), Some(LinkType::Leaf16));
        assert_eq!(leaf_class_for(17), Some(LinkType::Leaf32));
        assert_eq!(leaf_class_for(32), Some(LinkType::Leaf32));
        assert_eq!(leaf_class_for(33), None);
    }

    #[test]
    fn field_offsets_fit_in_stride() {
        for ty in [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32] {
            assert!(leaf::live_at(ty) < stride(ty));
            assert!(leaf::read_bytes(ty) <= stride(ty));
        }
        assert_eq!(links_at(LinkType::N4) + 4 * 8, 56);
        assert!(links_at(LinkType::N16) + 16 * 8 <= stride(LinkType::N16));
        assert!(links_at(LinkType::N48) + 48 * 8 <= stride(LinkType::N48));
        assert!(links_at(LinkType::N256) + 256 * 8 <= stride(LinkType::N256));
    }

    #[test]
    fn no_record_straddles_a_device_chunk() {
        // An uploaded arena is copied to its device a chunk at a time, and a
        // read of one record must be one slice, written or not.
        use cuart_gpu_sim::DeviceMemory;
        let image = std::sync::Arc::new(Vec::new());
        for ty in (0..=u8::MAX).filter_map(LinkType::from_tag) {
            let s = stride(ty);
            if s == 0 {
                continue; // varying-size records: the arena is one chunk
            }
            let mut mem = DeviceMemory::new();
            let id = mem.upload("arena", &image, s, 1 << 30, 32);
            let buf = mem.buffer(id);
            let records = (1usize << 30) / s;
            for r in (0..4096)
                .chain((0..records).step_by(997))
                .chain(records - 64..records)
            {
                assert_eq!(
                    buf.chunk_of(r * s),
                    buf.chunk_of(r * s + s - 1),
                    "{ty:?} record {r}"
                );
            }
        }
    }

    #[test]
    fn prefix_cap_is_one_more_than_grt() {
        assert_eq!(PREFIX_CAP, 14);
    }
}
