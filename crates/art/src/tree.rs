//! The [`Art`] tree: insert, lookup, remove, iteration and scans.

use crate::node::{Inner, Node, NodeType};
use std::mem;

/// Errors reported by tree mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtError {
    /// The inserted key is a proper prefix of an existing key (or vice
    /// versa). Radix trees over binary-comparable keys require the key set
    /// to be prefix-free; fixed-length keys satisfy this automatically.
    PrefixViolation,
    /// The empty key cannot be stored.
    EmptyKey,
}

impl std::fmt::Display for ArtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtError::PrefixViolation => {
                write!(
                    f,
                    "key set must be prefix-free (one key is a prefix of another)"
                )
            }
            ArtError::EmptyKey => write!(f, "the empty key cannot be stored"),
        }
    }
}

impl std::error::Error for ArtError {}

/// A classic Adaptive Radix Tree mapping byte-string keys to values.
///
/// See the [crate docs](crate) for the key model and examples.
#[derive(Debug, Clone, Default)]
pub struct Art<V> {
    root: Option<Node<V>>,
    len: usize,
}

/// Length of the longest common prefix of two byte slices.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl<V> Art<V> {
    /// Create an empty tree.
    pub fn new() -> Self {
        Art { root: None, len: 0 }
    }

    /// Assemble a tree from a prebuilt root (bulk loader).
    pub(crate) fn from_parts(root: Option<Node<V>>, len: usize) -> Self {
        Art { root, len }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn root(&self) -> Option<&Node<V>> {
        self.root.as_ref()
    }

    /// Look up `key`, returning a reference to its value.
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        let mut node = self.root.as_ref()?;
        let mut depth = 0usize;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return (leaf.key() == key).then_some(&leaf.value);
                }
                Node::Inner(inner) => {
                    let prefix = inner.prefix();
                    let rest = &key[depth.min(key.len())..];
                    if !rest.starts_with(prefix) {
                        return None;
                    }
                    depth += prefix.len();
                    let byte = *key.get(depth)?;
                    node = inner.get(byte)?;
                    depth += 1;
                }
            }
        }
    }

    /// Look up `key`, returning a mutable reference to its value.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        let mut node = self.root.as_mut()?;
        let mut depth = 0usize;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return (leaf.key() == key).then_some(&mut leaf.value);
                }
                Node::Inner(inner) => {
                    let prefix = inner.prefix();
                    let rest = &key[depth.min(key.len())..];
                    if !rest.starts_with(prefix) {
                        return None;
                    }
                    depth += prefix.len();
                    let byte = *key.get(depth)?;
                    node = inner.get_mut(byte)?;
                    depth += 1;
                }
            }
        }
    }

    /// `true` if `key` is stored.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key` -> `value`. Returns the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: &[u8], value: V) -> Result<Option<V>, ArtError> {
        if key.is_empty() {
            return Err(ArtError::EmptyKey);
        }
        match &mut self.root {
            None => {
                self.root = Some(Node::leaf(key, value));
                self.len += 1;
                Ok(None)
            }
            Some(root) => {
                let old = Self::insert_rec(root, key, 0, value)?;
                if old.is_none() {
                    self.len += 1;
                }
                Ok(old)
            }
        }
    }

    fn insert_rec(
        node: &mut Node<V>,
        key: &[u8],
        depth: usize,
        value: V,
    ) -> Result<Option<V>, ArtError> {
        match node {
            Node::Leaf(leaf) => {
                if leaf.key() == key {
                    return Ok(Some(mem::replace(&mut leaf.value, value)));
                }
                // Split: common prefix from `depth`, then two diverging leaves.
                let lcp = common_prefix_len(&leaf.key()[depth..], &key[depth..]);
                let split = depth + lcp;
                if split == key.len() || split == leaf.key().len() {
                    return Err(ArtError::PrefixViolation);
                }
                let old_byte = leaf.key()[split];
                let mut parent = Inner::empty(NodeType::N4, key[depth..split].into());
                parent.insert(key[split], Node::leaf(key, value));
                Self::push_down(node, parent, old_byte);
                Ok(None)
            }
            Node::Inner(inner) => {
                let prefix = inner.prefix();
                let lcp = common_prefix_len(prefix, &key[depth..]);
                if lcp < prefix.len() {
                    // Prefix mismatch: split the compressed path at `lcp`.
                    if depth + lcp == key.len() {
                        return Err(ArtError::PrefixViolation);
                    }
                    let old_byte = prefix[lcp];
                    let mut parent = Inner::empty(NodeType::N4, prefix[..lcp].into());
                    let tail = prefix[lcp + 1..].into();
                    inner.replace_prefix(tail);
                    parent.insert(key[depth + lcp], Node::leaf(key, value));
                    Self::push_down(node, parent, old_byte);
                    return Ok(None);
                }
                // Full prefix match; descend.
                let depth = depth + prefix.len();
                if depth >= key.len() {
                    return Err(ArtError::PrefixViolation);
                }
                let byte = key[depth];
                if let Some(child) = inner.get_mut(byte) {
                    return Self::insert_rec(child, key, depth + 1, value);
                }
                if inner.is_full() {
                    inner.grow();
                }
                inner.insert(byte, Node::leaf(key, value));
                Ok(None)
            }
        }
    }

    /// Put `parent` where `node` was and hang the old node under it at
    /// `byte`.
    fn push_down(node: &mut Node<V>, parent: Inner<V>, byte: u8) {
        let old = mem::replace(node, Node::Inner(parent));
        if let Node::Inner(parent) = node {
            parent.insert(byte, old);
        }
    }

    /// Remove `key`, returning its value if present. Collapses and shrinks
    /// nodes on the way back up (classic ART behaviour — in contrast to the
    /// non-structural device-side deletes of CuART §3.3).
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let root = self.root.as_mut()?;
        let value = match root {
            Node::Leaf(leaf) => {
                if leaf.key() != key {
                    return None;
                }
                // The root was matched as a leaf above; take-and-match
                // treats the impossible shapes as absent, not a panic.
                match self.root.take() {
                    Some(Node::Leaf(leaf)) => leaf.value,
                    _ => return None,
                }
            }
            Node::Inner(_) => Self::remove_rec(root, key, 0)?,
        };
        self.len -= 1;
        Some(value)
    }

    /// Removes from an *inner* `node`; collapses it if one child remains.
    fn remove_rec(node: &mut Node<V>, key: &[u8], depth: usize) -> Option<V> {
        // Both call sites descend only into inner nodes; a leaf here would
        // be a broken invariant — report "not found", don't panic.
        let Node::Inner(inner) = node else {
            return None;
        };
        let prefix = inner.prefix();
        if !key[depth.min(key.len())..].starts_with(prefix) {
            return None;
        }
        let depth = depth + prefix.len();
        let byte = *key.get(depth)?;
        let child = inner.get_mut(byte)?;
        let value = match child {
            Node::Leaf(leaf) => {
                if leaf.key() != key {
                    return None;
                }
                // `get_mut` just found this child, so `remove` returns it;
                // any other shape is a broken invariant, reported as absent.
                match inner.remove(byte) {
                    Some(Node::Leaf(leaf)) => leaf.value,
                    _ => return None,
                }
            }
            Node::Inner(_) => Self::remove_rec(child, key, depth + 1)?,
        };
        // Structural cleanup: collapse single-child paths, shrink node type.
        if inner.len() == 1 {
            let (only_byte, only_child) = inner.take_only_child();
            match only_child {
                // A leaf keeps its full key; just replace the node.
                leaf @ Node::Leaf(_) => *node = leaf,
                Node::Inner(mut child) => {
                    let mut prefix = inner.replace_prefix(Box::default()).into_vec();
                    prefix.push(only_byte);
                    prefix.extend_from_slice(child.prefix());
                    child.replace_prefix(prefix.into_boxed_slice());
                    *node = Node::Inner(child);
                }
            }
        } else {
            inner.shrink();
        }
        Some(value)
    }

    /// In-order (lexicographic) iterator over `(key, &value)`.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            stack: match &self.root {
                Some(root) => vec![Frame::new(root)],
                None => Vec::new(),
            },
        }
    }

    /// Inclusive range scan: all entries with `lo <= key <= hi`, in order.
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> RangeIter<'_, V> {
        RangeIter {
            inner: self.iter(),
            lo: lo.to_vec(),
            hi: hi.to_vec(),
            done: false,
        }
    }

    /// All entries whose key starts with `prefix`, in order.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (Vec<u8>, &'a V)> + 'a {
        self.iter()
            .skip_while(move |(k, _)| k.as_slice() < prefix)
            .take_while(move |(k, _)| k.starts_with(prefix))
    }

    /// The smallest key (with value), if any.
    pub fn min(&self) -> Option<(Vec<u8>, &V)> {
        let leaf = self.root.as_ref()?.minimum()?;
        Some((leaf.key().to_vec(), &leaf.value))
    }

    /// The largest key (with value), if any.
    pub fn max(&self) -> Option<(Vec<u8>, &V)> {
        let leaf = self.root.as_ref()?.maximum()?;
        Some((leaf.key().to_vec(), &leaf.value))
    }
}

impl<V> FromIterator<(Vec<u8>, V)> for Art<V> {
    /// Builds a tree from an iterator; panics on prefix violations, so only
    /// use with prefix-free key sets (e.g. fixed-length keys).
    fn from_iter<T: IntoIterator<Item = (Vec<u8>, V)>>(iter: T) -> Self {
        let mut art = Art::new();
        for (k, v) in iter {
            #[expect(
                clippy::expect_used,
                reason = "`FromIterator` cannot surface a `Result`; the panic-on-prefix-violation contract is documented on this impl"
            )]
            art.insert(&k, v).expect("prefix-free key set");
        }
        art
    }
}

struct Frame<'a, V> {
    node: &'a Node<V>,
    /// Children in order, populated lazily for inner nodes; `pos` indexes it.
    children: Vec<(u8, &'a Node<V>)>,
    pos: usize,
    visited: bool,
}

impl<'a, V> Frame<'a, V> {
    fn new(node: &'a Node<V>) -> Self {
        Frame {
            node,
            children: Vec::new(),
            pos: 0,
            visited: false,
        }
    }
}

/// In-order iterator over the tree. Yields owned keys (assembled from the
/// compressed paths) and value references.
pub struct Iter<'a, V> {
    stack: Vec<Frame<'a, V>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (Vec<u8>, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let frame = self.stack.last_mut()?;
            match frame.node {
                Node::Leaf(leaf) => {
                    let item = (leaf.key().to_vec(), &leaf.value);
                    self.stack.pop();
                    return Some(item);
                }
                Node::Inner(inner) => {
                    if !frame.visited {
                        frame.children = inner.entries();
                        frame.visited = true;
                    }
                    if frame.pos < frame.children.len() {
                        let (_, child) = frame.children[frame.pos];
                        frame.pos += 1;
                        self.stack.push(Frame::new(child));
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

/// Inclusive range iterator; see [`Art::range`].
pub struct RangeIter<'a, V> {
    inner: Iter<'a, V>,
    lo: Vec<u8>,
    hi: Vec<u8>,
    done: bool,
}

impl<'a, V> Iterator for RangeIter<'a, V> {
    type Item = (Vec<u8>, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let (k, v) = self.inner.next()?;
            if k.as_slice() < self.lo.as_slice() {
                continue;
            }
            if k.as_slice() > self.hi.as_slice() {
                self.done = true;
                return None;
            }
            return Some((k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_tree() {
        let art: Art<u64> = Art::new();
        assert!(art.is_empty());
        assert_eq!(art.get(b"a"), None);
        assert_eq!(art.iter().count(), 0);
        assert_eq!(art.min(), None);
        assert_eq!(art.max(), None);
    }

    #[test]
    fn empty_key_rejected() {
        let mut art = Art::new();
        assert_eq!(art.insert(b"", 1u64), Err(ArtError::EmptyKey));
    }

    #[test]
    fn single_key_roundtrip() {
        let mut art = Art::new();
        assert_eq!(art.insert(b"hello", 42u64).unwrap(), None);
        assert_eq!(art.get(b"hello"), Some(&42));
        assert_eq!(art.get(b"hell"), None);
        assert_eq!(art.get(b"hello!"), None);
        assert_eq!(art.len(), 1);
    }

    #[test]
    fn overwrite_returns_old_value() {
        let mut art = Art::new();
        art.insert(b"k", 1u64).unwrap();
        assert_eq!(art.insert(b"k", 2).unwrap(), Some(1));
        assert_eq!(art.get(b"k"), Some(&2));
        assert_eq!(art.len(), 1);
    }

    #[test]
    fn prefix_violation_detected() {
        let mut art = Art::new();
        art.insert(b"abcd", 1u64).unwrap();
        assert_eq!(art.insert(b"ab", 2), Err(ArtError::PrefixViolation));
        assert_eq!(art.insert(b"abcdef", 3), Err(ArtError::PrefixViolation));
        // Tree is untouched.
        assert_eq!(art.len(), 1);
        assert_eq!(art.get(b"abcd"), Some(&1));
    }

    #[test]
    fn prefix_violation_at_inner_split() {
        let mut art = Art::new();
        art.insert(b"aaaa", 1u64).unwrap();
        art.insert(b"aabb", 2).unwrap();
        // "aa" ends exactly at the inner node's split point.
        assert_eq!(art.insert(b"aa", 3), Err(ArtError::PrefixViolation));
    }

    #[test]
    fn leaf_split_creates_node4() {
        let mut art = Art::new();
        art.insert(b"apple", 1u64).unwrap();
        art.insert(b"apply", 2).unwrap();
        assert_eq!(art.get(b"apple"), Some(&1));
        assert_eq!(art.get(b"apply"), Some(&2));
        assert_eq!(art.get(b"appl"), None);
    }

    #[test]
    fn path_compression_split() {
        let mut art = Art::new();
        art.insert(b"aaaa_1", 1u64).unwrap();
        art.insert(b"aaaa_2", 2).unwrap();
        // Now insert a key diverging inside the compressed prefix "aaa...".
        art.insert(b"ab_xyz", 3).unwrap();
        assert_eq!(art.get(b"aaaa_1"), Some(&1));
        assert_eq!(art.get(b"aaaa_2"), Some(&2));
        assert_eq!(art.get(b"ab_xyz"), Some(&3));
    }

    #[test]
    fn get_mut_updates_value() {
        let mut art = Art::new();
        art.insert(b"key1", 10u64).unwrap();
        *art.get_mut(b"key1").unwrap() = 99;
        assert_eq!(art.get(b"key1"), Some(&99));
        assert!(art.get_mut(b"nope").is_none());
    }

    #[test]
    fn dense_one_byte_keys_grow_to_node256() {
        let mut art = Art::new();
        for b in 0..=255u8 {
            art.insert(&[b], b as u64).unwrap();
        }
        assert_eq!(art.len(), 256);
        for b in 0..=255u8 {
            assert_eq!(art.get(&[b]), Some(&(b as u64)));
        }
        let stats = art.stats();
        assert_eq!(stats.nodes[3], 1, "root should be a Node256");
    }

    #[test]
    fn matches_btreemap_on_fixed_len_keys() {
        let mut art = Art::new();
        let mut model = BTreeMap::new();
        // Deterministic pseudo-random 8-byte keys.
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x.to_be_bytes();
            art.insert(&key, i).unwrap();
            model.insert(key.to_vec(), i);
        }
        assert_eq!(art.len(), model.len());
        for (k, v) in &model {
            assert_eq!(art.get(k), Some(v));
        }
        // Iteration order matches the sorted model.
        let art_keys: Vec<_> = art.iter().map(|(k, _)| k).collect();
        let model_keys: Vec<_> = model.keys().cloned().collect();
        assert_eq!(art_keys, model_keys);
    }

    #[test]
    fn remove_simple() {
        let mut art = Art::new();
        art.insert(b"aa", 1u64).unwrap();
        art.insert(b"ab", 2).unwrap();
        assert_eq!(art.remove(b"aa"), Some(1));
        assert_eq!(art.remove(b"aa"), None);
        assert_eq!(art.get(b"ab"), Some(&2));
        assert_eq!(art.len(), 1);
        assert_eq!(art.remove(b"ab"), Some(2));
        assert!(art.is_empty());
    }

    #[test]
    fn remove_collapses_paths() {
        let mut art = Art::new();
        art.insert(b"romane", 1u64).unwrap();
        art.insert(b"romanus", 2).unwrap();
        art.insert(b"romulus", 3).unwrap();
        assert_eq!(art.remove(b"romanus"), Some(2));
        // After collapse the remaining keys must still resolve.
        assert_eq!(art.get(b"romane"), Some(&1));
        assert_eq!(art.get(b"romulus"), Some(&3));
        assert_eq!(art.remove(b"romane"), Some(1));
        assert_eq!(art.get(b"romulus"), Some(&3));
        assert_eq!(art.len(), 1);
    }

    #[test]
    fn remove_root_leaf() {
        let mut art = Art::new();
        art.insert(b"only", 7u64).unwrap();
        assert_eq!(art.remove(b"only"), Some(7));
        assert!(art.is_empty());
        assert_eq!(art.get(b"only"), None);
    }

    #[test]
    fn remove_missing_from_deep_tree() {
        let mut art = Art::new();
        for i in 0..100u64 {
            art.insert(&i.to_be_bytes(), i).unwrap();
        }
        assert_eq!(art.remove(&1000u64.to_be_bytes()), None);
        assert_eq!(art.len(), 100);
    }

    #[test]
    fn insert_remove_insert_cycles() {
        let mut art = Art::new();
        for round in 0..3u64 {
            for i in 0..500u64 {
                art.insert(&(i * 7).to_be_bytes(), i + round).unwrap();
            }
            assert_eq!(art.len(), 500);
            for i in 0..500u64 {
                assert_eq!(art.remove(&(i * 7).to_be_bytes()), Some(i + round));
            }
            assert!(art.is_empty());
        }
    }

    #[test]
    fn range_scan_inclusive() {
        let mut art = Art::new();
        for i in 0..100u64 {
            art.insert(&i.to_be_bytes(), i).unwrap();
        }
        let lo = 10u64.to_be_bytes();
        let hi = 20u64.to_be_bytes();
        let hits: Vec<u64> = art.range(&lo, &hi).map(|(_, &v)| v).collect();
        assert_eq!(hits, (10..=20).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_empty_and_full() {
        let mut art = Art::new();
        for i in 0..10u64 {
            art.insert(&i.to_be_bytes(), i).unwrap();
        }
        let lo = 100u64.to_be_bytes();
        let hi = 200u64.to_be_bytes();
        assert_eq!(art.range(&lo, &hi).count(), 0);
        let lo = 0u64.to_be_bytes();
        let hi = 9u64.to_be_bytes();
        assert_eq!(art.range(&lo, &hi).count(), 10);
    }

    #[test]
    fn prefix_scan() {
        let mut art = Art::new();
        art.insert(b"app/one", 1u64).unwrap();
        art.insert(b"app/two", 2).unwrap();
        art.insert(b"apq/one", 3).unwrap();
        art.insert(b"banana!", 4).unwrap();
        let hits: Vec<_> = art.scan_prefix(b"app/").map(|(k, _)| k).collect();
        assert_eq!(hits, vec![b"app/one".to_vec(), b"app/two".to_vec()]);
        assert_eq!(art.scan_prefix(b"zzz").count(), 0);
    }

    #[test]
    fn min_max() {
        let mut art = Art::new();
        for i in [5u64, 1, 9, 3] {
            art.insert(&i.to_be_bytes(), i).unwrap();
        }
        assert_eq!(art.min().map(|(_, &v)| v), Some(1));
        assert_eq!(art.max().map(|(_, &v)| v), Some(9));
    }

    #[test]
    fn from_iterator() {
        let art: Art<u64> = (0..50u64).map(|i| (i.to_be_bytes().to_vec(), i)).collect();
        assert_eq!(art.len(), 50);
        assert_eq!(art.get(&25u64.to_be_bytes()), Some(&25));
    }

    #[test]
    fn variable_length_prefix_free_keys() {
        let mut art = Art::new();
        // Different lengths, but prefix-free (distinct first byte runs).
        art.insert(b"a1", 1u64).unwrap();
        art.insert(b"b22", 2).unwrap();
        art.insert(b"c333", 3).unwrap();
        art.insert(b"d4444_very_long_key_with_a_tail", 4).unwrap();
        for (k, v) in [
            (&b"a1"[..], 1u64),
            (b"b22", 2),
            (b"c333", 3),
            (b"d4444_very_long_key_with_a_tail", 4),
        ] {
            assert_eq!(art.get(k), Some(&v));
        }
    }
}
