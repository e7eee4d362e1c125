//! Read-only structural views of an [`Art`] tree.
//!
//! The GPU layout crates (`cuart-grt`, `cuart`) flatten the pointer-based
//! tree into device buffers. They need to see the structure — node types,
//! compressed prefixes, child bytes, leaf keys — without this crate leaking
//! its private node representation. [`NodeView`] is that stable façade.
//!
//! Views borrow from the tree; mapping is a read-only in-order traversal,
//! exactly the procedure §3.2.1 of the CuART paper describes.

use crate::node::{Inner, Leaf, Node};
use crate::tree::Art;
use crate::NodeType;

/// A borrowed view of one tree node.
pub enum NodeView<'a, V> {
    /// An inner node (one of the four adaptive sizes).
    Inner(InnerView<'a, V>),
    /// A leaf holding a complete key and its value.
    Leaf(LeafView<'a, V>),
}

/// Borrowed view of an inner node.
pub struct InnerView<'a, V> {
    inner: &'a Inner<V>,
}

/// Borrowed view of a leaf.
pub struct LeafView<'a, V> {
    leaf: &'a Leaf<V>,
}

impl<'a, V> NodeView<'a, V> {
    pub(crate) fn new(node: &'a Node<V>) -> Self {
        match node {
            Node::Inner(inner) => NodeView::Inner(InnerView { inner }),
            Node::Leaf(leaf) => NodeView::Leaf(LeafView { leaf }),
        }
    }
}

impl<'a, V> InnerView<'a, V> {
    /// The adaptive node type.
    pub fn node_type(&self) -> NodeType {
        self.inner.node_type()
    }

    /// The full compressed path prefix of this node.
    pub fn prefix(&self) -> &'a [u8] {
        self.inner.prefix()
    }

    /// Number of children.
    pub fn child_count(&self) -> usize {
        self.inner.len()
    }

    /// Children in ascending key-byte order.
    pub fn children(&self) -> Vec<(u8, NodeView<'a, V>)> {
        self.inner
            .entries()
            .into_iter()
            .map(|(b, n)| (b, NodeView::new(n)))
            .collect()
    }
}

impl<'a, V> LeafView<'a, V> {
    /// The complete stored key.
    pub fn key(&self) -> &'a [u8] {
        self.leaf.key()
    }

    /// The stored value.
    pub fn value(&self) -> &'a V {
        &self.leaf.value
    }
}

impl<V> Art<V> {
    /// A view of the root node, if the tree is non-empty.
    pub fn root_view(&self) -> Option<NodeView<'_, V>> {
        self.root().map(NodeView::new)
    }

    /// Depth-first, in-order walk over all nodes, invoking `f` with each
    /// node view, the depth in consumed key bytes at which the node begins,
    /// and the byte path leading to it. Children are visited in ascending
    /// key-byte order, so leaves appear in lexicographic key order — the
    /// property CuART's leaf buffers rely on for range queries.
    pub fn walk<'a>(&'a self, mut f: impl FnMut(&NodeView<'a, V>, usize)) {
        fn rec<'a, V>(
            node: &'a Node<V>,
            depth: usize,
            f: &mut impl FnMut(&NodeView<'a, V>, usize),
        ) {
            let view = NodeView::new(node);
            f(&view, depth);
            if let Node::Inner(inner) = node {
                let child_depth = depth + inner.prefix().len() + 1;
                inner.for_each(|_, c| rec(c, child_depth, f));
            }
        }
        if let Some(root) = self.root() {
            rec(root, 0, &mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Art<u64> {
        let mut art = Art::new();
        art.insert(b"romane", 1).unwrap();
        art.insert(b"romanus", 2).unwrap();
        art.insert(b"romulus", 3).unwrap();
        art
    }

    #[test]
    fn empty_tree_has_no_root_view() {
        let art: Art<u64> = Art::new();
        assert!(art.root_view().is_none());
    }

    #[test]
    fn root_view_exposes_structure() {
        let art = sample();
        let root = art.root_view().unwrap();
        match root {
            NodeView::Inner(inner) => {
                // All three keys share "rom".
                assert_eq!(inner.prefix(), b"rom");
                assert_eq!(inner.node_type(), NodeType::N4);
                assert_eq!(inner.child_count(), 2);
                let bytes: Vec<u8> = inner.children().iter().map(|(b, _)| *b).collect();
                assert_eq!(bytes, vec![b'a', b'u']);
            }
            NodeView::Leaf(_) => panic!("expected inner root"),
        }
    }

    #[test]
    fn walk_visits_leaves_in_key_order() {
        let art = sample();
        let mut leaves = Vec::new();
        art.walk(|view, _| {
            if let NodeView::Leaf(l) = view {
                leaves.push(l.key().to_vec());
            }
        });
        assert_eq!(
            leaves,
            vec![b"romane".to_vec(), b"romanus".to_vec(), b"romulus".to_vec()]
        );
    }

    #[test]
    fn walk_reports_consumed_depth() {
        let mut art = Art::new();
        art.insert(b"abcX1", 1u64).unwrap();
        art.insert(b"abcY2", 2).unwrap();
        let mut depths = Vec::new();
        art.walk(|view, depth| {
            if matches!(view, NodeView::Inner(_)) {
                depths.push(depth);
            }
        });
        // Root inner node begins at depth 0 and compresses "abc".
        assert_eq!(depths, vec![0]);
        let mut leaf_depths = Vec::new();
        art.walk(|view, depth| {
            if matches!(view, NodeView::Leaf(_)) {
                leaf_depths.push(depth);
            }
        });
        // Leaves begin after "abc" + 1 divergence byte = 4 consumed bytes.
        assert_eq!(leaf_depths, vec![4, 4]);
    }

    #[test]
    fn single_leaf_tree_walk() {
        let mut art = Art::new();
        art.insert(b"solo", 9u64).unwrap();
        let mut count = 0;
        art.walk(|view, depth| {
            assert!(matches!(view, NodeView::Leaf(_)));
            assert_eq!(depth, 0);
            count += 1;
        });
        assert_eq!(count, 1);
    }
}
