//! Structural statistics of an [`Art`] tree: node populations (the
//! density effects discussed in §4.4 of the CuART paper), depth, prefix
//! bytes and the heap bytes the tree holds, which the footprint test
//! checks against a counting allocator.

use crate::node::Node;
use crate::tree::Art;

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

    /// Average leaf depth in nodes (0.0 for the empty tree).
    pub fn avg_depth(&self) -> f64 {
        if self.leaves == 0 {
            0.0
        } else {
            self.total_leaf_depth as f64 / self.leaves as f64
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
        // The average depth must be a well-defined 0.0 — never NaN — so
        // the figure harness can divide by nothing without poisoning CSVs.
        assert_eq!(s.avg_depth(), 0.0);
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
        assert_eq!(s.nodes, [1, 0, 0, 0], "one N4");
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
