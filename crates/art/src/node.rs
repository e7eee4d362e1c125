//! Internal node representation of the classic ART.
//!
//! A child link is a [`Node`], the Rust form of Leis et al.'s tagged child
//! pointer: either a boxed [`Leaf`] or an [`Inner`] node, which is itself a
//! box tagged with its kind. Every node is allocated at the size of what it
//! holds — a leaf is its key and value, a Node4 its prefix, four key bytes
//! and four links, a Node256 its prefix and 256 links — and the slots of
//! every kind live inline in the node's own allocation, so following a link
//! is one pointer hop whatever the kind. A link is two words (the tag and
//! the pointer), and an empty slot costs no more than a full one.
//!
//! The four kinds share one trait, [`Kind`], behind the tagged handle; the
//! tree code matches on leaf versus inner and lets [`Inner`] dispatch.
//! Leaves store the complete key (lazy expansion), so inner traversal never
//! needs to consult more than the compressed prefixes.

use std::mem;

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
    fn min_children(self) -> usize {
        match self {
            NodeType::N4 => 2,
            NodeType::N16 => 5,
            NodeType::N48 => 17,
            NodeType::N256 => 49,
        }
    }

    /// All node types in growing order.
    pub const ALL: [NodeType; 4] = [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256];

    /// The smallest type that holds `n` children (`N256` past 256).
    pub(crate) fn fitting(n: usize) -> NodeType {
        Self::ALL
            .into_iter()
            .find(|ty| ty.capacity() >= n)
            .unwrap_or(NodeType::N256)
    }
}

/// A child link: a boxed leaf or a boxed inner node.
#[derive(Debug, Clone)]
pub(crate) enum Node<V> {
    Leaf(Box<Leaf<V>>),
    Inner(Inner<V>),
}

/// Leaf storing the complete key and its value — in one allocation when
/// the key is at most [`INLINE_KEY`] bytes long.
#[derive(Debug, Clone)]
pub(crate) struct Leaf<V> {
    key: LeafKey,
    pub value: V,
}

/// The longest key a leaf holds inline: what fits in the two words a boxed
/// key takes, beside its length byte and the variant tag.
const INLINE_KEY: usize = 22;

#[derive(Debug, Clone)]
enum LeafKey {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Boxed(Box<[u8]>),
}

impl<V> Leaf<V> {
    pub fn new(key: &[u8], value: V) -> Self {
        let key = if key.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            LeafKey::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            LeafKey::Boxed(key.into())
        };
        Leaf { key, value }
    }

    /// The complete stored key.
    pub fn key(&self) -> &[u8] {
        match &self.key {
            LeafKey::Inline { len, bytes } => &bytes[..*len as usize],
            LeafKey::Boxed(key) => key,
        }
    }

    /// Heap bytes of this leaf: the leaf itself, plus its key when that
    /// does not fit inline.
    pub fn heap_bytes(&self) -> usize {
        let boxed = match &self.key {
            LeafKey::Inline { .. } => 0,
            LeafKey::Boxed(key) => key.len(),
        };
        mem::size_of::<Self>() + boxed
    }
}

/// An inner node, boxed at the size of its kind.
#[derive(Debug, Clone)]
pub(crate) enum Inner<V> {
    N4(Box<Sorted<V, 4>>),
    N16(Box<Sorted<V, 16>>),
    N48(Box<Indexed<V>>),
    N256(Box<Direct<V>>),
}

/// Node4 and Node16: `len` sorted key bytes beside their links.
#[derive(Debug, Clone)]
pub(crate) struct Sorted<V, const N: usize> {
    /// Pessimistic path compression: the *full* run of key bytes this node
    /// compresses is stored (no optimistic skipping on the CPU baseline).
    prefix: Box<[u8]>,
    len: u8,
    keys: [u8; N],
    ptrs: [Option<Node<V>>; N],
}

/// Node48: a 256-entry index from key byte to one of 48 links.
#[derive(Debug, Clone)]
pub(crate) struct Indexed<V> {
    prefix: Box<[u8]>,
    len: u8,
    /// Maps key byte -> slot in `ptrs`; `EMPTY48` marks absence.
    index: [u8; 256],
    ptrs: [Option<Node<V>>; 48],
}

/// Node256: one link per key byte.
#[derive(Debug, Clone)]
pub(crate) struct Direct<V> {
    prefix: Box<[u8]>,
    len: u16,
    ptrs: [Option<Node<V>>; 256],
}

const EMPTY48: u8 = 0xFF;

/// What every inner-node kind does; [`Inner`] dispatches to it.
///
/// `insert` panics on overflow or a duplicate key byte (both logic errors
/// in the tree code, not bad user input): the caller grows a full node
/// first. `for_each` and `take_each` visit children in ascending key-byte
/// order; `take_each` moves every child out and leaves the node empty.
trait Kind<V> {
    fn get(&self, byte: u8) -> Option<&Node<V>>;
    fn get_mut(&mut self, byte: u8) -> Option<&mut Node<V>>;
    fn insert(&mut self, byte: u8, child: Node<V>);
    fn remove(&mut self, byte: u8) -> Option<Node<V>>;
    fn for_each<'a>(&'a self, f: impl FnMut(u8, &'a Node<V>))
    where
        V: 'a;
    fn take_each(&mut self, f: impl FnMut(u8, Node<V>));
}

impl<V, const N: usize> Sorted<V, N> {
    fn new(prefix: Box<[u8]>) -> Self {
        Sorted {
            prefix,
            len: 0,
            keys: [0; N],
            ptrs: [const { None }; N],
        }
    }

    fn position(&self, byte: u8) -> Option<usize> {
        let keys = &self.keys[..self.len as usize];
        if N <= 4 {
            keys.iter().position(|&k| k == byte)
        } else {
            keys.binary_search(&byte).ok()
        }
    }
}

impl<V, const N: usize> Kind<V> for Sorted<V, N> {
    fn get(&self, byte: u8) -> Option<&Node<V>> {
        self.ptrs[self.position(byte)?].as_ref()
    }

    fn get_mut(&mut self, byte: u8) -> Option<&mut Node<V>> {
        let i = self.position(byte)?;
        self.ptrs[i].as_mut()
    }

    fn insert(&mut self, byte: u8, child: Node<V>) {
        let n = self.len as usize;
        assert!(n < N, "Node{N} overflow");
        let pos = self.keys[..n].iter().position(|&k| k > byte).unwrap_or(n);
        self.keys[pos..n + 1].rotate_right(1);
        self.ptrs[pos..n + 1].rotate_right(1);
        self.keys[pos] = byte;
        self.ptrs[pos] = Some(child);
        self.len += 1;
    }

    fn remove(&mut self, byte: u8) -> Option<Node<V>> {
        let n = self.len as usize;
        let pos = self.position(byte)?;
        let child = self.ptrs[pos].take();
        self.keys[pos..n].rotate_left(1);
        self.ptrs[pos..n].rotate_left(1);
        self.len -= 1;
        child
    }

    fn for_each<'a>(&'a self, mut f: impl FnMut(u8, &'a Node<V>))
    where
        V: 'a,
    {
        let n = self.len as usize;
        for (&byte, child) in self.keys[..n].iter().zip(&self.ptrs[..n]) {
            if let Some(c) = child {
                f(byte, c);
            }
        }
    }

    fn take_each(&mut self, mut f: impl FnMut(u8, Node<V>)) {
        let n = mem::take(&mut self.len) as usize;
        for (&byte, child) in self.keys[..n].iter().zip(&mut self.ptrs[..n]) {
            if let Some(c) = child.take() {
                f(byte, c);
            }
        }
    }
}

impl<V> Indexed<V> {
    fn new(prefix: Box<[u8]>) -> Self {
        Indexed {
            prefix,
            len: 0,
            index: [EMPTY48; 256],
            ptrs: [const { None }; 48],
        }
    }
}

impl<V> Kind<V> for Indexed<V> {
    fn get(&self, byte: u8) -> Option<&Node<V>> {
        let slot = self.index[byte as usize];
        if slot == EMPTY48 {
            None
        } else {
            self.ptrs[slot as usize].as_ref()
        }
    }

    fn get_mut(&mut self, byte: u8) -> Option<&mut Node<V>> {
        let slot = self.index[byte as usize];
        if slot == EMPTY48 {
            None
        } else {
            self.ptrs[slot as usize].as_mut()
        }
    }

    fn insert(&mut self, byte: u8, child: Node<V>) {
        assert!((self.len as usize) < 48, "Node48 overflow");
        #[expect(
            clippy::expect_used,
            reason = "`len < 48` is asserted above so a free slot exists; a miss is a broken len/ptrs invariant, covered by the trait's documented panic-on-logic-error contract"
        )]
        let slot = self
            .ptrs
            .iter()
            .position(|p| p.is_none())
            .expect("free slot");
        self.ptrs[slot] = Some(child);
        self.index[byte as usize] = slot as u8;
        self.len += 1;
    }

    fn remove(&mut self, byte: u8) -> Option<Node<V>> {
        let slot = mem::replace(&mut self.index[byte as usize], EMPTY48);
        if slot == EMPTY48 {
            return None;
        }
        self.len -= 1;
        self.ptrs[slot as usize].take()
    }

    fn for_each<'a>(&'a self, mut f: impl FnMut(u8, &'a Node<V>))
    where
        V: 'a,
    {
        for (byte, &slot) in self.index.iter().enumerate() {
            if slot == EMPTY48 {
                continue;
            }
            if let Some(c) = &self.ptrs[slot as usize] {
                f(byte as u8, c);
            }
        }
    }

    fn take_each(&mut self, mut f: impl FnMut(u8, Node<V>)) {
        self.len = 0;
        for (byte, slot) in self.index.iter_mut().enumerate() {
            let slot = mem::replace(slot, EMPTY48);
            if slot == EMPTY48 {
                continue;
            }
            if let Some(c) = self.ptrs[slot as usize].take() {
                f(byte as u8, c);
            }
        }
    }
}

impl<V> Direct<V> {
    fn new(prefix: Box<[u8]>) -> Self {
        Direct {
            prefix,
            len: 0,
            ptrs: [const { None }; 256],
        }
    }
}

impl<V> Kind<V> for Direct<V> {
    fn get(&self, byte: u8) -> Option<&Node<V>> {
        self.ptrs[byte as usize].as_ref()
    }

    fn get_mut(&mut self, byte: u8) -> Option<&mut Node<V>> {
        self.ptrs[byte as usize].as_mut()
    }

    fn insert(&mut self, byte: u8, child: Node<V>) {
        assert!((self.len as usize) < 256, "Node256 overflow");
        self.ptrs[byte as usize] = Some(child);
        self.len += 1;
    }

    fn remove(&mut self, byte: u8) -> Option<Node<V>> {
        let child = self.ptrs[byte as usize].take()?;
        self.len -= 1;
        Some(child)
    }

    fn for_each<'a>(&'a self, mut f: impl FnMut(u8, &'a Node<V>))
    where
        V: 'a,
    {
        for (byte, child) in self.ptrs.iter().enumerate() {
            if let Some(c) = child {
                f(byte as u8, c);
            }
        }
    }

    fn take_each(&mut self, mut f: impl FnMut(u8, Node<V>)) {
        self.len = 0;
        for (byte, child) in self.ptrs.iter_mut().enumerate() {
            if let Some(c) = child.take() {
                f(byte as u8, c);
            }
        }
    }
}

/// Run `$body` with `$n` bound to the kind inside an [`Inner`].
macro_rules! each_kind {
    ($inner:expr, $n:ident => $body:expr) => {
        match $inner {
            Inner::N4($n) => $body,
            Inner::N16($n) => $body,
            Inner::N48($n) => $body,
            Inner::N256($n) => $body,
        }
    };
}

impl<V> Inner<V> {
    /// An empty node of type `ty` compressing `prefix`.
    pub fn empty(ty: NodeType, prefix: Box<[u8]>) -> Self {
        match ty {
            NodeType::N4 => Inner::N4(Box::new(Sorted::new(prefix))),
            NodeType::N16 => Inner::N16(Box::new(Sorted::new(prefix))),
            NodeType::N48 => Inner::N48(Box::new(Indexed::new(prefix))),
            NodeType::N256 => Inner::N256(Box::new(Direct::new(prefix))),
        }
    }

    pub fn node_type(&self) -> NodeType {
        match self {
            Inner::N4(_) => NodeType::N4,
            Inner::N16(_) => NodeType::N16,
            Inner::N48(_) => NodeType::N48,
            Inner::N256(_) => NodeType::N256,
        }
    }

    /// The compressed path prefix.
    pub fn prefix(&self) -> &[u8] {
        each_kind!(self, n => &n.prefix)
    }

    /// Replace the compressed path prefix, returning the old one.
    pub fn replace_prefix(&mut self, prefix: Box<[u8]>) -> Box<[u8]> {
        each_kind!(self, n => mem::replace(&mut n.prefix, prefix))
    }

    /// Heap bytes of this node's own allocations: the node at its kind's
    /// size plus its prefix (children not included).
    pub fn heap_bytes(&self) -> usize {
        each_kind!(self, n => mem::size_of_val(&**n) + n.prefix.len())
    }

    pub fn len(&self) -> usize {
        each_kind!(self, n => usize::from(n.len))
    }

    pub fn is_full(&self) -> bool {
        self.len() == self.node_type().capacity()
    }

    /// Borrow the child for `byte`, if present.
    pub fn get(&self, byte: u8) -> Option<&Node<V>> {
        each_kind!(self, n => n.get(byte))
    }

    /// Mutably borrow the child for `byte`, if present.
    pub fn get_mut(&mut self, byte: u8) -> Option<&mut Node<V>> {
        each_kind!(self, n => n.get_mut(byte))
    }

    /// Insert a child for `byte`. The caller must have grown the node if it
    /// was full; panics on overflow or duplicate key byte (both indicate a
    /// logic error in the tree code, not bad user input).
    pub fn insert(&mut self, byte: u8, child: Node<V>) {
        debug_assert!(self.get(byte).is_none(), "duplicate child byte {byte}");
        each_kind!(self, n => n.insert(byte, child))
    }

    /// Remove and return the child for `byte`, if present.
    pub fn remove(&mut self, byte: u8) -> Option<Node<V>> {
        each_kind!(self, n => n.remove(byte))
    }

    /// Visit children in ascending key-byte order.
    pub fn for_each<'a>(&'a self, f: impl FnMut(u8, &'a Node<V>)) {
        each_kind!(self, n => n.for_each(f))
    }

    /// Children in ascending key-byte order, collected (used by mappers and
    /// the shrink/collapse paths where borrows get tangled otherwise).
    pub fn entries(&self) -> Vec<(u8, &Node<V>)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|b, c| out.push((b, c)));
        out
    }

    /// Move prefix and children into a fresh node of type `ty`, which must
    /// hold them all; the old allocation is freed.
    fn convert(&mut self, ty: NodeType) {
        let prefix = self.replace_prefix(Box::default());
        let mut to = Inner::empty(ty, prefix);
        each_kind!(self, n => n.take_each(|b, c| to.insert(b, c)));
        *self = to;
    }

    /// Grow to the next larger node type, moving all children over.
    pub fn grow(&mut self) {
        let next = match self.node_type() {
            NodeType::N4 => NodeType::N16,
            NodeType::N16 => NodeType::N48,
            NodeType::N48 => NodeType::N256,
            NodeType::N256 => return,
        };
        self.convert(next);
    }

    /// Shrink to the next smaller node type if below the underflow
    /// threshold. Returns `true` if a shrink happened.
    pub fn shrink(&mut self) -> bool {
        let ty = self.node_type();
        let smaller = match ty {
            NodeType::N4 => return false,
            NodeType::N16 => NodeType::N4,
            NodeType::N48 => NodeType::N16,
            NodeType::N256 => NodeType::N48,
        };
        if self.len() >= ty.min_children() {
            return false;
        }
        self.convert(smaller);
        true
    }

    /// Remove the single remaining child (used when collapsing a path).
    /// Panics unless exactly one child remains.
    pub fn take_only_child(&mut self) -> (u8, Node<V>) {
        assert_eq!(
            self.len(),
            1,
            "take_only_child on node with {} children",
            self.len()
        );
        let mut only = None;
        each_kind!(self, n => n.take_each(|b, c| only = Some((b, c))));
        #[expect(
            clippy::expect_used,
            reason = "`len() == 1` is asserted above so one child is taken; a miss is a corrupt node, covered by this method's documented panic contract"
        )]
        only.expect("one child")
    }
}

impl<V> Node<V> {
    pub fn leaf(key: &[u8], value: V) -> Self {
        Node::Leaf(Box::new(Leaf::new(key, value)))
    }

    /// The smallest (leftmost) leaf of the subtree. `None` only when an
    /// inner node has no children — a broken invariant (inner nodes always
    /// hold at least two children), reported as absent rather than a panic.
    pub fn minimum(&self) -> Option<&Leaf<V>> {
        match self {
            Node::Leaf(l) => Some(l),
            Node::Inner(inner) => {
                let mut first = None;
                inner.for_each(|_, c| {
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
                inner.for_each(|_, c| last = Some(c));
                last?.maximum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(b: u8) -> Node<u64> {
        Node::leaf(&[b], b as u64)
    }

    fn new4() -> Inner<u64> {
        Inner::empty(NodeType::N4, Box::default())
    }

    fn assert_sorted(c: &Inner<u64>) {
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
    fn a_link_is_two_words_and_a_leaf_is_its_key_and_value() {
        // The tag and the pointer; the empty slot takes the tag's niche.
        assert_eq!(mem::size_of::<Node<u64>>(), 16);
        assert_eq!(mem::size_of::<Option<Node<u64>>>(), 16);
        assert_eq!(mem::size_of::<Leaf<u64>>(), 32);
        // Each kind is its slots plus a 16-byte prefix and a small header.
        assert_eq!(mem::size_of::<Sorted<u64, 4>>(), 88);
        assert_eq!(mem::size_of::<Sorted<u64, 16>>(), 296);
        assert_eq!(mem::size_of::<Indexed<u64>>(), 1048);
        assert_eq!(mem::size_of::<Direct<u64>>(), 4120);
    }

    #[test]
    fn leaf_keys_inline_up_to_their_limit_then_boxed() {
        for len in [1, 8, 16, INLINE_KEY, INLINE_KEY + 1, 32, 48] {
            let key: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let leaf = Leaf::new(&key, 7u64);
            assert_eq!(leaf.key(), &key[..]);
            let boxed = if len > INLINE_KEY { len } else { 0 };
            assert_eq!(leaf.heap_bytes(), mem::size_of::<Leaf<u64>>() + boxed);
        }
    }

    #[test]
    fn node4_insert_sorted_and_get() {
        let mut c = new4();
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
        let mut c = Inner::empty(NodeType::N4, Box::from(&b"pre"[..]));
        let mut inserted = Vec::new();
        // Fill through every growth step up to a full Node256.
        for b in 0..=255u8 {
            if c.is_full() {
                let before = c.entries().iter().map(|(b, _)| *b).collect::<Vec<_>>();
                c.grow();
                let after = c.entries().iter().map(|(b, _)| *b).collect::<Vec<_>>();
                assert_eq!(before, after, "grow changed the child set");
                assert_eq!(c.prefix(), b"pre");
            }
            c.insert(b, leaf(b));
            inserted.push(b);
            assert_sorted(&c);
        }
        assert_eq!(c.node_type(), NodeType::N256);
        assert_eq!(c.len(), 256);
        for b in inserted {
            assert!(matches!(c.get(b), Some(Node::Leaf(l)) if l.value == b as u64));
        }
    }

    #[test]
    fn remove_and_shrink_chain() {
        let mut c = new4();
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
        let mut c = new4();
        c.insert(10, leaf(10));
        assert!(c.remove(11).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn node48_slot_reuse_after_remove() {
        let mut c = new4();
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
        for ty in NodeType::ALL {
            let mut c = Inner::empty(ty, Box::default());
            c.insert(42, leaf(42));
            let (byte, child) = c.take_only_child();
            assert_eq!(byte, 42);
            assert!(matches!(child, Node::Leaf(ref l) if l.value == 42));
            assert_eq!(c.len(), 0);
        }
    }

    #[test]
    fn min_max_leaf() {
        let mut c = new4();
        for b in [7u8, 1, 200] {
            c.insert(b, leaf(b));
        }
        let node = Node::Inner(c);
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
        assert_eq!(NodeType::fitting(0), NodeType::N4);
        assert_eq!(NodeType::fitting(5), NodeType::N16);
        assert_eq!(NodeType::fitting(48), NodeType::N48);
        assert_eq!(NodeType::fitting(49), NodeType::N256);
    }
}
