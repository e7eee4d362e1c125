//! Structural statistics of an [`Art`] tree.
//!
//! Used by the benchmark harness to report node populations (the density
//! effects discussed in §4.4 of the CuART paper) and by the GPU mappers to
//! pre-size their buffers.

use crate::node::Node;
use crate::tree::Art;
use crate::NodeType;

/// Aggregate structural statistics; see [`Art::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArtStats {
    /// Number of inner nodes per type, indexed `[N4, N16, N48, N256]`.
    pub nodes: [usize; 4],
    /// Number of leaves.
    pub leaves: usize,
    /// Maximum depth in *nodes* from the root to a leaf (a root-only leaf
    /// has depth 1; the empty tree has depth 0).
    pub max_depth: usize,
    /// Sum over all leaves of their node depth (for `avg_depth`).
    pub total_leaf_depth: usize,
    /// Total bytes held in compressed path prefixes.
    pub prefix_bytes: usize,
    /// Longest single compressed prefix.
    pub max_prefix_len: usize,
    /// Heap bytes the tree has allocated: every inner node at the size of
    /// its kind plus its compressed prefix, every leaf plus its key when
    /// that is too long to sit inline. This is what the allocator was asked
    /// for, not counting its own overhead.
    pub memory_bytes: usize,
}

impl ArtStats {
    /// Total number of inner nodes.
    pub fn inner_nodes(&self) -> usize {
        self.nodes.iter().sum()
    }

    /// Number of inner nodes of the given type.
    pub fn nodes_of(&self, ty: NodeType) -> usize {
        self.nodes[ty as usize - 1]
    }

    /// Average leaf depth in nodes (0.0 for the empty tree).
    pub fn avg_depth(&self) -> f64 {
        if self.leaves == 0 {
            0.0
        } else {
            self.total_leaf_depth as f64 / self.leaves as f64
        }
    }

    /// Average compressed-prefix length per inner node (0.0 when the tree
    /// has no inner nodes — a root-only leaf or the empty tree).
    pub fn avg_prefix_len(&self) -> f64 {
        let inner = self.inner_nodes();
        if inner == 0 {
            0.0
        } else {
            self.prefix_bytes as f64 / inner as f64
        }
    }

    /// Heap bytes per stored key (0.0 for the empty tree).
    pub fn bytes_per_key(&self) -> f64 {
        if self.leaves == 0 {
            0.0
        } else {
            self.memory_bytes as f64 / self.leaves as f64
        }
    }

    /// Fraction of inner nodes of the given type (0.0 when there are no
    /// inner nodes, rather than NaN).
    pub fn node_fraction(&self, ty: NodeType) -> f64 {
        let inner = self.inner_nodes();
        if inner == 0 {
            0.0
        } else {
            self.nodes_of(ty) as f64 / inner as f64
        }
    }
}

fn walk<V>(node: &Node<V>, depth: usize, stats: &mut ArtStats) {
    match node {
        Node::Leaf(leaf) => {
            stats.leaves += 1;
            stats.max_depth = stats.max_depth.max(depth);
            stats.total_leaf_depth += depth;
            stats.memory_bytes += leaf.heap_bytes();
        }
        Node::Inner(inner) => {
            let prefix = inner.prefix().len();
            stats.nodes[inner.node_type() as usize - 1] += 1;
            stats.prefix_bytes += prefix;
            stats.max_prefix_len = stats.max_prefix_len.max(prefix);
            stats.memory_bytes += inner.heap_bytes();
            inner.for_each(|_, c| walk(c, depth + 1, stats));
        }
    }
}

impl<V> Art<V> {
    /// Compute structural statistics by walking the whole tree.
    pub fn stats(&self) -> ArtStats {
        let mut stats = ArtStats::default();
        if let Some(root) = self.root() {
            walk(root, 1, &mut stats);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_stats() {
        let art: Art<u64> = Art::new();
        let s = art.stats();
        assert_eq!(s, ArtStats::default());
        // Every derived ratio must be a well-defined 0.0 — never NaN — so
        // the figure harness can divide by nothing without poisoning CSVs.
        assert_eq!(s.avg_depth(), 0.0);
        assert_eq!(s.avg_prefix_len(), 0.0);
        assert_eq!(s.bytes_per_key(), 0.0);
        for ty in [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256] {
            assert_eq!(s.node_fraction(ty), 0.0);
        }
    }

    #[test]
    fn derived_ratios_on_leaf_only_tree() {
        // A single root leaf has no inner nodes: prefix and node-fraction
        // ratios hit the zero denominator while leaves != 0.
        let mut art = Art::new();
        art.insert(b"solo", 9u64).unwrap();
        let s = art.stats();
        assert_eq!(s.avg_prefix_len(), 0.0);
        assert_eq!(s.node_fraction(NodeType::N4), 0.0);
        assert!(s.bytes_per_key() > 0.0);
        assert!(s.bytes_per_key().is_finite());
    }

    #[test]
    fn derived_ratios_populated_tree() {
        let mut art = Art::new();
        art.insert(b"prefix_a", 1u64).unwrap();
        art.insert(b"prefix_b", 2).unwrap();
        let s = art.stats();
        assert_eq!(s.avg_prefix_len(), s.prefix_bytes as f64);
        assert_eq!(s.node_fraction(NodeType::N4), 1.0);
        let total: f64 = [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256]
            .iter()
            .map(|&t| s.node_fraction(t))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_leaf_stats() {
        let mut art = Art::new();
        art.insert(b"hello", 1u64).unwrap();
        let s = art.stats();
        assert_eq!(s.leaves, 1);
        assert_eq!(s.inner_nodes(), 0);
        assert_eq!(s.max_depth, 1);
        assert_eq!(s.avg_depth(), 1.0);
    }

    #[test]
    fn two_leaves_one_node4() {
        let mut art = Art::new();
        art.insert(b"aa", 1u64).unwrap();
        art.insert(b"ab", 2).unwrap();
        let s = art.stats();
        assert_eq!(s.leaves, 2);
        assert_eq!(s.nodes_of(NodeType::N4), 1);
        assert_eq!(s.max_depth, 2);
        // The shared 'a' is path-compressed into the root node.
        assert_eq!(s.prefix_bytes, 1);
        assert_eq!(s.max_prefix_len, 1);
    }

    #[test]
    fn node_populations_match_key_structure() {
        // 300 keys sharing byte 0, diverging at byte 1 -> one N256 root
        // (256 distinct second bytes won't fit; use 2-byte spread).
        let mut art = Art::new();
        for i in 0..300u64 {
            let k = [0u8, (i / 256) as u8, (i % 256) as u8, 7];
            art.insert(&k, i).unwrap();
        }
        let s = art.stats();
        assert_eq!(s.leaves, 300);
        assert!(s.inner_nodes() >= 2);
        assert!(s.memory_bytes > 300 * 4);
    }

    #[test]
    fn depth_accounts_for_levels() {
        let mut art = Art::new();
        // Keys diverging at the last byte -> depth 2 thanks to compression.
        art.insert(b"long_common_prefix_a", 1u64).unwrap();
        art.insert(b"long_common_prefix_b", 2).unwrap();
        let s = art.stats();
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.max_prefix_len, "long_common_prefix_".len());
    }
}
