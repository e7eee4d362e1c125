//! Internal node representation of the classic ART.
//!
//! The four adaptive inner-node kinds from the ART paper are represented as
//! one enum, [`Children`], wrapped together with the compressed path prefix
//! in [`Inner`]. Leaves store the complete key (lazy expansion), so inner
//! traversal never needs to consult more than the compressed prefixes.

/// The four adaptive inner-node sizes of the ART paper (§III.A of Leis et
/// al. 2013). The numeric discriminants match the node-type tags CuART packs
/// into its 64-bit node links (1..=4), see the `cuart` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeType {
    /// Up to 4 children; sorted key array + child array.
    N4 = 1,
    /// Up to 16 children; sorted key array + child array (SIMD-searchable).
    N16 = 2,
    /// Up to 48 children; 256-entry child index + dense child array.
    N48 = 3,
    /// Up to 256 children; direct array indexed by key byte.
    N256 = 4,
}

impl NodeType {
    /// Maximum number of children a node of this type can hold.
    pub fn capacity(self) -> usize {
        match self {
            NodeType::N4 => 4,
            NodeType::N16 => 16,
            NodeType::N48 => 48,
            NodeType::N256 => 256,
        }
    }

    /// Minimum number of children before the node shrinks to the next
    /// smaller type (classic ART underflow thresholds).
    pub fn min_children(self) -> usize {
        match self {
            NodeType::N4 => 2,
            NodeType::N16 => 5,
            NodeType::N48 => 17,
            NodeType::N256 => 49,
        }
    }

    /// All node types in growing order.
    pub const ALL: [NodeType; 4] = [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256];
}

/// A tree node: either a single-value leaf (lazy expansion) or an inner node.
#[derive(Debug, Clone)]
#[allow(
    clippy::large_enum_variant,
    reason = "`Node` is always behind a `Box`, and splitting `Inner` further would add an indirection per traversal step"
)]
pub(crate) enum Node<V> {
    Leaf(Leaf<V>),
    Inner(Inner<V>),
}

/// Leaf storing the complete key and its value.
#[derive(Debug, Clone)]
pub(crate) struct Leaf<V> {
    pub key: Box<[u8]>,
    pub value: V,
}

/// Inner node: compressed path prefix + adaptive child collection.
#[derive(Debug, Clone)]
pub(crate) struct Inner<V> {
    /// Pessimistic path compression: the *full* run of key bytes this node
    /// compresses is stored (no optimistic skipping on the CPU baseline).
    pub prefix: Box<[u8]>,
    pub children: Children<V>,
}

type Child<V> = Box<Node<V>>;

/// The adaptive child collection, one variant per ART node size.
#[derive(Debug, Clone)]
pub(crate) enum Children<V> {
    Node4 {
        len: u8,
        keys: [u8; 4],
        ptrs: [Option<Child<V>>; 4],
    },
    Node16 {
        len: u8,
        keys: [u8; 16],
        ptrs: [Option<Child<V>>; 16],
    },
    Node48 {
        len: u8,
        /// Maps key byte -> slot in `ptrs`; `EMPTY48` marks absence.
        index: [u8; 256],
        ptrs: Box<[Option<Child<V>>; 48]>,
    },
    Node256 {
        len: u16,
        ptrs: Box<[Option<Child<V>>; 256]>,
    },
}

pub(crate) const EMPTY48: u8 = 0xFF;

impl<V> Children<V> {
    pub fn new4() -> Self {
        Children::Node4 {
            len: 0,
            keys: [0; 4],
            ptrs: [const { None }; 4],
        }
    }

    pub fn node_type(&self) -> NodeType {
        match self {
            Children::Node4 { .. } => NodeType::N4,
            Children::Node16 { .. } => NodeType::N16,
            Children::Node48 { .. } => NodeType::N48,
            Children::Node256 { .. } => NodeType::N256,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Children::Node4 { len, .. }
            | Children::Node16 { len, .. }
            | Children::Node48 { len, .. } => *len as usize,
            Children::Node256 { len, .. } => *len as usize,
        }
    }

    pub fn is_full(&self) -> bool {
        self.len() == self.node_type().capacity()
    }

    /// Borrow the child for `byte`, if present.
    pub fn get(&self, byte: u8) -> Option<&Node<V>> {
        match self {
            Children::Node4 { len, keys, ptrs } => keys[..*len as usize]
                .iter()
                .position(|&k| k == byte)
                .and_then(|i| ptrs[i].as_deref()),
            Children::Node16 { len, keys, ptrs } => keys[..*len as usize]
                .binary_search(&byte)
                .ok()
                .and_then(|i| ptrs[i].as_deref()),
            Children::Node48 { index, ptrs, .. } => {
                let slot = index[byte as usize];
                if slot == EMPTY48 {
                    None
                } else {
                    ptrs[slot as usize].as_deref()
                }
            }
            Children::Node256 { ptrs, .. } => ptrs[byte as usize].as_deref(),
        }
    }

    /// Mutably borrow the child for `byte`, if present.
    pub fn get_mut(&mut self, byte: u8) -> Option<&mut Child<V>> {
        match self {
            Children::Node4 { len, keys, ptrs } => keys[..*len as usize]
                .iter()
                .position(|&k| k == byte)
                .and_then(|i| ptrs[i].as_mut()),
            Children::Node16 { len, keys, ptrs } => keys[..*len as usize]
                .binary_search(&byte)
                .ok()
                .and_then(|i| ptrs[i].as_mut()),
            Children::Node48 { index, ptrs, .. } => {
                let slot = index[byte as usize];
                if slot == EMPTY48 {
                    None
                } else {
                    ptrs[slot as usize].as_mut()
                }
            }
            Children::Node256 { ptrs, .. } => ptrs[byte as usize].as_mut(),
        }
    }

    /// Insert a child for `byte`. The caller must have grown the node if it
    /// was full; panics on overflow or duplicate key byte (both indicate a
    /// logic error in the tree code, not bad user input).
    pub fn insert(&mut self, byte: u8, child: Child<V>) {
        debug_assert!(self.get(byte).is_none(), "duplicate child byte {byte}");
        match self {
            Children::Node4 { len, keys, ptrs } => {
                let n = *len as usize;
                assert!(n < 4, "Node4 overflow");
                let pos = keys[..n].iter().position(|&k| k > byte).unwrap_or(n);
                keys[pos..n + 1].rotate_right(1);
                ptrs[pos..n + 1].rotate_right(1);
                keys[pos] = byte;
                ptrs[pos] = Some(child);
                *len += 1;
            }
            Children::Node16 { len, keys, ptrs } => {
                let n = *len as usize;
                assert!(n < 16, "Node16 overflow");
                let pos = keys[..n].iter().position(|&k| k > byte).unwrap_or(n);
                keys[pos..n + 1].rotate_right(1);
                ptrs[pos..n + 1].rotate_right(1);
                keys[pos] = byte;
                ptrs[pos] = Some(child);
                *len += 1;
            }
            Children::Node48 { len, index, ptrs } => {
                let n = *len as usize;
                assert!(n < 48, "Node48 overflow");
                #[expect(
                    clippy::expect_used,
                    reason = "`n < 48` is asserted above so a free slot exists; a miss is a broken len/ptrs invariant, covered by this method's documented panic-on-logic-error contract"
                )]
                let slot = ptrs.iter().position(|p| p.is_none()).expect("free slot");
                ptrs[slot] = Some(child);
                index[byte as usize] = slot as u8;
                *len += 1;
            }
            Children::Node256 { len, ptrs } => {
                assert!((*len as usize) < 256, "Node256 overflow");
                ptrs[byte as usize] = Some(child);
                *len += 1;
            }
        }
    }

    /// Remove and return the child for `byte`, if present.
    pub fn remove(&mut self, byte: u8) -> Option<Child<V>> {
        match self {
            Children::Node4 { len, keys, ptrs } => {
                let n = *len as usize;
                let pos = keys[..n].iter().position(|&k| k == byte)?;
                let child = ptrs[pos].take();
                keys[pos..n].rotate_left(1);
                ptrs[pos..n].rotate_left(1);
                *len -= 1;
                child
            }
            Children::Node16 { len, keys, ptrs } => {
                let n = *len as usize;
                let pos = keys[..n].binary_search(&byte).ok()?;
                let child = ptrs[pos].take();
                keys[pos..n].rotate_left(1);
                ptrs[pos..n].rotate_left(1);
                *len -= 1;
                child
            }
            Children::Node48 { len, index, ptrs } => {
                let slot = index[byte as usize];
                if slot == EMPTY48 {
                    return None;
                }
                index[byte as usize] = EMPTY48;
                let child = ptrs[slot as usize].take();
                *len -= 1;
                child
            }
            Children::Node256 { len, ptrs } => {
                let child = ptrs[byte as usize].take()?;
                *len -= 1;
                Some(child)
            }
        }
    }

    /// Grow to the next larger node type, moving all children over.
    pub fn grow(&mut self) {
        let old = std::mem::replace(self, Children::new4());
        *self = match old {
            Children::Node4 {
                len,
                keys,
                mut ptrs,
            } => {
                let mut nkeys = [0u8; 16];
                let mut nptrs = [const { None }; 16];
                for i in 0..len as usize {
                    nkeys[i] = keys[i];
                    nptrs[i] = ptrs[i].take();
                }
                Children::Node16 {
                    len,
                    keys: nkeys,
                    ptrs: nptrs,
                }
            }
            Children::Node16 {
                len,
                keys,
                mut ptrs,
            } => {
                let mut index = [EMPTY48; 256];
                let mut nptrs = Box::new([const { None }; 48]);
                for i in 0..len as usize {
                    index[keys[i] as usize] = i as u8;
                    nptrs[i] = ptrs[i].take();
                }
                Children::Node48 {
                    len,
                    index,
                    ptrs: nptrs,
                }
            }
            Children::Node48 {
                len,
                index,
                mut ptrs,
            } => {
                let mut nptrs = Box::new([const { None }; 256]);
                for (byte, &slot) in index.iter().enumerate() {
                    if slot != EMPTY48 {
                        nptrs[byte] = ptrs[slot as usize].take();
                    }
                }
                Children::Node256 {
                    len: len as u16,
                    ptrs: nptrs,
                }
            }
            full @ Children::Node256 { .. } => full,
        };
    }

    /// Shrink to the next smaller node type if below the underflow
    /// threshold. Returns `true` if a shrink happened.
    pub fn shrink(&mut self) -> bool {
        let ty = self.node_type();
        if ty == NodeType::N4 || self.len() >= ty.min_children() {
            return false;
        }
        let old = std::mem::replace(self, Children::new4());
        *self = match old {
            Children::Node16 {
                len,
                keys,
                mut ptrs,
            } => {
                let mut nkeys = [0u8; 4];
                let mut nptrs = [const { None }; 4];
                for i in 0..len as usize {
                    nkeys[i] = keys[i];
                    nptrs[i] = ptrs[i].take();
                }
                Children::Node4 {
                    len,
                    keys: nkeys,
                    ptrs: nptrs,
                }
            }
            Children::Node48 {
                len,
                index,
                mut ptrs,
            } => {
                let mut nkeys = [0u8; 16];
                let mut nptrs = [const { None }; 16];
                let mut n = 0;
                for (byte, &slot) in index.iter().enumerate() {
                    if slot != EMPTY48 {
                        nkeys[n] = byte as u8;
                        nptrs[n] = ptrs[slot as usize].take();
                        n += 1;
                    }
                }
                debug_assert_eq!(n, len as usize);
                Children::Node16 {
                    len,
                    keys: nkeys,
                    ptrs: nptrs,
                }
            }
            Children::Node256 { len, mut ptrs } => {
                let mut index = [EMPTY48; 256];
                let mut nptrs = Box::new([const { None }; 48]);
                let mut n = 0;
                for (byte, slot) in ptrs.iter_mut().enumerate() {
                    if slot.is_some() {
                        index[byte] = n as u8;
                        nptrs[n] = slot.take();
                        n += 1;
                    }
                }
                debug_assert_eq!(n, len as usize);
                Children::Node48 {
                    len: len as u8,
                    index,
                    ptrs: nptrs,
                }
            }
            small @ Children::Node4 { .. } => small,
        };
        true
    }

    /// Visit children in ascending key-byte order.
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(u8, &'a Node<V>)) {
        match self {
            Children::Node4 { len, keys, ptrs } => {
                for i in 0..*len as usize {
                    if let Some(c) = ptrs[i].as_deref() {
                        f(keys[i], c);
                    }
                }
            }
            Children::Node16 { len, keys, ptrs } => {
                for i in 0..*len as usize {
                    if let Some(c) = ptrs[i].as_deref() {
                        f(keys[i], c);
                    }
                }
            }
            Children::Node48 { index, ptrs, .. } => {
                for (byte, &slot) in index.iter().enumerate() {
                    if slot == EMPTY48 {
                        continue;
                    }
                    if let Some(c) = ptrs[slot as usize].as_deref() {
                        f(byte as u8, c);
                    }
                }
            }
            Children::Node256 { ptrs, .. } => {
                for byte in 0..256usize {
                    if let Some(c) = ptrs[byte].as_deref() {
                        f(byte as u8, c);
                    }
                }
            }
        }
    }

    /// Children in ascending key-byte order, collected (used by mappers and
    /// the shrink/collapse paths where borrows get tangled otherwise).
    pub fn entries(&self) -> Vec<(u8, &Node<V>)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|b, c| out.push((b, c)));
        out
    }

    /// Remove the single remaining child (used when collapsing a path).
    /// Panics unless exactly one child remains.
    pub fn take_only_child(&mut self) -> (u8, Child<V>) {
        assert_eq!(
            self.len(),
            1,
            "take_only_child on node with {} children",
            self.len()
        );
        let byte = match self {
            Children::Node4 { keys, .. } => keys[0],
            Children::Node16 { keys, .. } => keys[0],
            #[expect(
                clippy::expect_used,
                reason = "`len() == 1` is asserted above so one index slot is occupied; a miss is a corrupt index, covered by this method's documented panic contract"
            )]
            Children::Node48 { index, .. } => {
                let slot = index.iter().position(|&s| s != EMPTY48);
                slot.expect("one child") as u8
            }
            #[expect(
                clippy::expect_used,
                reason = "`len() == 1` is asserted above so one pointer is occupied; a miss is a corrupt ptrs array, covered by this method's documented panic contract"
            )]
            Children::Node256 { ptrs, .. } => {
                ptrs.iter().position(|p| p.is_some()).expect("one child") as u8
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "`byte` was just located in this node under the asserted single-child invariant; a failed remove is a tree-code bug, covered by this method's documented panic contract"
        )]
        let child = self.remove(byte).expect("child present");
        (byte, child)
    }
}

impl<V> Node<V> {
    pub fn leaf(key: &[u8], value: V) -> Box<Self> {
        Box::new(Node::Leaf(Leaf {
            key: key.into(),
            value,
        }))
    }

    /// The smallest (leftmost) leaf of the subtree. `None` only when an
    /// inner node has no children — a broken invariant (inner nodes always
    /// hold at least two children), reported as absent rather than a panic.
    pub fn minimum(&self) -> Option<&Leaf<V>> {
        match self {
            Node::Leaf(l) => Some(l),
            Node::Inner(inner) => {
                let mut first = None;
                inner.children.for_each(|_, c| {
                    if first.is_none() {
                        first = Some(c);
                    }
                });
                first?.minimum()
            }
        }
    }

    /// The largest (rightmost) leaf of the subtree. `None` only when an
    /// inner node has no children — a broken invariant (inner nodes always
    /// hold at least two children), reported as absent rather than a panic.
    pub fn maximum(&self) -> Option<&Leaf<V>> {
        match self {
            Node::Leaf(l) => Some(l),
            Node::Inner(inner) => {
                let mut last = None;
                inner.children.for_each(|_, c| last = Some(c));
                last?.maximum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(b: u8) -> Box<Node<u64>> {
        Node::leaf(&[b], b as u64)
    }

    fn assert_sorted(c: &Children<u64>) {
        let e = c.entries();
        for w in e.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "children not sorted: {} !< {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn node4_insert_sorted_and_get() {
        let mut c = Children::new4();
        for b in [9u8, 3, 200, 77] {
            c.insert(b, leaf(b));
        }
        assert_eq!(c.len(), 4);
        assert!(c.is_full());
        assert_sorted(&c);
        for b in [9u8, 3, 200, 77] {
            assert!(matches!(c.get(b), Some(Node::Leaf(l)) if l.value == b as u64));
        }
        assert!(c.get(4).is_none());
    }

    #[test]
    fn grow_chain_preserves_children() {
        let mut c = Children::new4();
        let mut inserted = Vec::new();
        // Fill through every growth step up to a full Node256.
        for b in 0..=255u8 {
            if c.is_full() {
                let before = c.entries().iter().map(|(b, _)| *b).collect::<Vec<_>>();
                c.grow();
                let after = c.entries().iter().map(|(b, _)| *b).collect::<Vec<_>>();
                assert_eq!(before, after, "grow changed the child set");
            }
            c.insert(b, leaf(b));
            inserted.push(b);
            assert_sorted(&c);
        }
        assert_eq!(c.node_type(), NodeType::N256);
        assert_eq!(c.len(), 256);
        for b in inserted {
            assert!(c.get(b).is_some());
        }
    }

    #[test]
    fn remove_and_shrink_chain() {
        let mut c = Children::new4();
        for b in 0..=255u8 {
            if c.is_full() {
                c.grow();
            }
            c.insert(b, leaf(b));
        }
        // Remove from the top down; shrink whenever the threshold allows.
        for b in (0..=255u8).rev().take(255) {
            assert!(c.remove(b).is_some());
            let before = c.entries().iter().map(|(b, _)| *b).collect::<Vec<_>>();
            c.shrink();
            let after = c.entries().iter().map(|(b, _)| *b).collect::<Vec<_>>();
            assert_eq!(before, after, "shrink changed the child set");
            assert_sorted(&c);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.node_type(), NodeType::N4);
        assert!(c.get(0).is_some());
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut c = Children::new4();
        c.insert(10, leaf(10));
        assert!(c.remove(11).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn node48_slot_reuse_after_remove() {
        let mut c = Children::new4();
        for b in 0..48u8 {
            if c.is_full() {
                c.grow();
            }
            c.insert(b, leaf(b));
        }
        assert_eq!(c.node_type(), NodeType::N48);
        assert!(c.is_full());
        assert!(c.remove(13).is_some());
        // The freed slot must be reusable for a different byte.
        c.insert(200, leaf(200));
        assert!(c.is_full());
        assert!(c.get(200).is_some());
        assert!(c.get(13).is_none());
    }

    #[test]
    fn take_only_child() {
        let mut c = Children::new4();
        c.insert(42, leaf(42));
        let (byte, child) = c.take_only_child();
        assert_eq!(byte, 42);
        assert!(matches!(*child, Node::Leaf(ref l) if l.value == 42));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn min_max_leaf() {
        let mut c = Children::new4();
        for b in [7u8, 1, 200] {
            c.insert(b, leaf(b));
        }
        let node = Node::Inner(Inner {
            prefix: Box::from(&b""[..]),
            children: c,
        });
        assert_eq!(node.minimum().unwrap().value, 1);
        assert_eq!(node.maximum().unwrap().value, 200);
    }

    #[test]
    fn capacities_and_thresholds() {
        assert_eq!(NodeType::N4.capacity(), 4);
        assert_eq!(NodeType::N256.capacity(), 256);
        for ty in NodeType::ALL {
            assert!(ty.min_children() <= ty.capacity());
        }
    }
}
