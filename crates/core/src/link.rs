//! Packed 64-bit node links (§3.2.1, Figure 2 of the paper).
//!
//! GRT addresses children with plain 64-bit byte offsets into its single
//! buffer. CuART replaces them with a packed value: **node type in the most
//! significant bits, index into the corresponding typed buffer in the least
//! significant bits**. The paper uses tags 1–4 for the inner node types and
//! 5–7 for the three leaf classes; we extend the tag space by one bit to
//! also encode the long-key targets of §3.2.3 (host leaves and dynamic
//! leaves).
//!
//! Bit layout (MSB → LSB):
//!
//! ```text
//! [63..60] type tag (4 bits)   [59..55] aux (5 bits)   [54..0] index
//! ```
//!
//! The `aux` field carries the number of already-consumed prefix bytes for
//! links installed in the compacted-root lookup table (a LUT entry can point
//! *into the middle* of a node's compressed prefix); it is 0 for ordinary
//! child links. The all-zero word is the null link.

/// Node/leaf type tags carried in the top bits of a [`NodeLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LinkType {
    /// Inner node, ≤ 4 children.
    N4 = 1,
    /// Inner node, ≤ 16 children.
    N16 = 2,
    /// Inner node, ≤ 48 children.
    N48 = 3,
    /// Inner node, ≤ 256 children.
    N256 = 4,
    /// Fixed-size leaf, keys ≤ 8 bytes.
    Leaf8 = 5,
    /// Fixed-size leaf, keys ≤ 16 bytes.
    Leaf16 = 6,
    /// Fixed-size leaf, keys ≤ 32 bytes.
    Leaf32 = 7,
    /// Long key stored in host memory; the GPU signals the CPU to finish
    /// the comparison (§3.2.3, option 2).
    HostLeaf = 8,
    /// Dynamically sized on-device leaf, GRT-style (§3.2.3, option 3).
    DynLeaf = 9,
    /// Multi-layer node (START, Fent et al. 2020 — the §5.1 integration):
    /// consumes **two** key bytes through a dense 2^16-entry link table,
    /// merging two dense N256 levels into a single memory access.
    N2L = 10,
}

impl LinkType {
    /// Decode a tag; `None` for invalid values.
    pub fn from_tag(tag: u8) -> Option<LinkType> {
        Some(match tag {
            1 => LinkType::N4,
            2 => LinkType::N16,
            3 => LinkType::N48,
            4 => LinkType::N256,
            5 => LinkType::Leaf8,
            6 => LinkType::Leaf16,
            7 => LinkType::Leaf32,
            8 => LinkType::HostLeaf,
            9 => LinkType::DynLeaf,
            10 => LinkType::N2L,
            _ => return None,
        })
    }

    /// `true` for the three fixed-size device leaf classes.
    pub fn is_device_leaf(self) -> bool {
        matches!(self, LinkType::Leaf8 | LinkType::Leaf16 | LinkType::Leaf32)
    }
}

const TYPE_SHIFT: u32 = 60;
const AUX_SHIFT: u32 = 55;
const AUX_MASK: u64 = 0x1F;
const INDEX_MASK: u64 = (1 << AUX_SHIFT) - 1;

/// A packed node link. The all-zero link is null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeLink(pub u64);

impl NodeLink {
    /// The null link.
    pub const NULL: NodeLink = NodeLink(0);

    /// Pack `ty` and `index` (aux = 0).
    pub fn new(ty: LinkType, index: u64) -> NodeLink {
        assert!(index <= INDEX_MASK, "node index {index} overflows link");
        NodeLink(((ty as u64) << TYPE_SHIFT) | index)
    }

    /// Pack with an explicit aux value (consumed-prefix count for LUT
    /// entries).
    pub fn with_aux(ty: LinkType, index: u64, aux: u8) -> NodeLink {
        assert!(u64::from(aux) <= AUX_MASK, "aux {aux} overflows link");
        NodeLink(NodeLink::new(ty, index).0 | (u64::from(aux) << AUX_SHIFT))
    }

    /// `true` if this is the null link.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The type tag, if valid and non-null.
    pub fn link_type(self) -> Option<LinkType> {
        LinkType::from_tag((self.0 >> TYPE_SHIFT) as u8)
    }

    /// The index into the per-type buffer.
    pub fn index(self) -> u64 {
        self.0 & INDEX_MASK
    }

    /// The aux field (consumed prefix bytes for LUT entries).
    pub fn aux(self) -> u8 {
        ((self.0 >> AUX_SHIFT) & AUX_MASK) as u8
    }

    /// The same link with aux cleared (an ordinary child link).
    pub fn without_aux(self) -> NodeLink {
        NodeLink(self.0 & !(AUX_MASK << AUX_SHIFT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for ty in [
            LinkType::N4,
            LinkType::N16,
            LinkType::N48,
            LinkType::N256,
            LinkType::Leaf8,
            LinkType::Leaf16,
            LinkType::Leaf32,
            LinkType::HostLeaf,
            LinkType::DynLeaf,
        ] {
            for idx in [0u64, 1, 12345, INDEX_MASK] {
                let link = NodeLink::new(ty, idx);
                assert_eq!(link.link_type(), Some(ty));
                assert_eq!(link.index(), idx);
                assert_eq!(link.aux(), 0);
                assert!(!link.is_null());
            }
        }
    }

    #[test]
    fn aux_field_roundtrip() {
        let link = NodeLink::with_aux(LinkType::N48, 999, 17);
        assert_eq!(link.link_type(), Some(LinkType::N48));
        assert_eq!(link.index(), 999);
        assert_eq!(link.aux(), 17);
        assert_eq!(link.without_aux(), NodeLink::new(LinkType::N48, 999));
    }

    #[test]
    fn null_link() {
        assert!(NodeLink::NULL.is_null());
        assert!(NodeLink::default().is_null());
        assert_eq!(NodeLink::NULL.link_type(), None);
        assert!(!NodeLink::new(LinkType::N4, 0).is_null());
    }

    #[test]
    #[should_panic(expected = "overflows link")]
    fn index_overflow_rejected() {
        NodeLink::new(LinkType::N4, INDEX_MASK + 1);
    }

    #[test]
    #[should_panic(expected = "overflows link")]
    fn aux_overflow_rejected() {
        NodeLink::with_aux(LinkType::N4, 0, 32);
    }

    #[test]
    fn tag_paper_values() {
        // §3.2.1: "we use the numbers 1 to 4 to represent the different node
        // types (1=N4, 2=N16, 3=N48, 4=N256) and 5 to 7 for the leaf types".
        assert_eq!(LinkType::N4 as u8, 1);
        assert_eq!(LinkType::N256 as u8, 4);
        assert_eq!(LinkType::Leaf8 as u8, 5);
        assert_eq!(LinkType::Leaf32 as u8, 7);
    }

    #[test]
    fn classification_helpers() {
        assert!(!LinkType::N4.is_device_leaf());
        assert!(LinkType::Leaf16.is_device_leaf());
        assert!(!LinkType::HostLeaf.is_device_leaf());
        assert!(!LinkType::DynLeaf.is_device_leaf());
        assert_eq!(LinkType::from_tag(10), Some(LinkType::N2L));
        assert_eq!(LinkType::from_tag(0), None);
        assert_eq!(LinkType::from_tag(11), None);
    }
}
