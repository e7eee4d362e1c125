//! Bulk-loading a tree from sorted input.
//!
//! The paper's benchmark pipeline (§4.1) populates the ART by repeated
//! insertion before every experiment — the dominant setup cost at large
//! tree sizes. For sorted, prefix-free input the tree can instead be built
//! bottom-up in one pass per level: split the key run at the first
//! diverging byte position, emit the node for the split, recurse into each
//! group. No node ever grows or splits, so construction touches each key
//! once.

use crate::node::{Inner, Node, NodeType};
use crate::tree::{Art, ArtError};

impl<V> Art<V> {
    /// Build a tree from **strictly sorted, prefix-free** `(key, value)`
    /// pairs in a single pass. Equivalent to inserting in order but
    /// without any node growth or path splitting.
    ///
    /// Errors with [`ArtError::PrefixViolation`] if a key is a prefix of
    /// its successor, [`ArtError::EmptyKey`] on an empty key, and panics
    /// if the input is not strictly sorted (a programming error, since
    /// sortedness is this API's contract).
    pub fn from_sorted(pairs: Vec<(Vec<u8>, V)>) -> Result<Self, ArtError> {
        if pairs.is_empty() {
            return Ok(Art::new());
        }
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "from_sorted requires strictly sorted keys");
        }
        for (k, _) in &pairs {
            if k.is_empty() {
                return Err(ArtError::EmptyKey);
            }
        }
        for w in pairs.windows(2) {
            if w[1].0.starts_with(&w[0].0) {
                return Err(ArtError::PrefixViolation);
            }
        }
        let len = pairs.len();
        let root = build_group(pairs, 0)?;
        Ok(Art::from_parts(Some(root), len))
    }
}

/// Child groups during bottom-up construction: branch byte -> sorted run.
type ChildGroups<V> = Vec<(u8, Vec<(Vec<u8>, V)>)>;

/// Build the subtree for a sorted run of keys agreeing on the first
/// `depth` bytes.
fn build_group<V>(mut pairs: Vec<(Vec<u8>, V)>, depth: usize) -> Result<Node<V>, ArtError> {
    if pairs.len() <= 1 {
        // A run of one key becomes a leaf. `pop` doubles as the emptiness
        // check: callers only form non-empty groups, but an empty run maps
        // to a typed error rather than a panicking unwrap.
        let (key, value) = pairs.pop().ok_or(ArtError::EmptyKey)?;
        return Ok(Node::leaf(&key, value));
    }
    // Longest common prefix from `depth` across the (sorted) run: it is
    // the LCP of the first and last keys, both present since len >= 2.
    let (Some(first), Some(last)) = (pairs.first(), pairs.last()) else {
        return Err(ArtError::EmptyKey);
    };
    let lcp = first.0[depth..]
        .iter()
        .zip(&last.0[depth..])
        .take_while(|(a, b)| a == b)
        .count();
    let split = depth + lcp;
    // Prefix-free sorted input guarantees every key extends past `split`
    // (a key ending exactly at split would prefix its successors).
    if pairs.iter().any(|(k, _)| k.len() <= split) {
        return Err(ArtError::PrefixViolation);
    }
    let prefix: Box<[u8]> = pairs[0].0[depth..split].into();
    // Partition by the byte at `split` (contiguous in sorted order).
    let mut children: ChildGroups<V> = Vec::new();
    for pair in pairs {
        let byte = pair.0[split];
        match children.last_mut() {
            Some((b, group)) if *b == byte => group.push(pair),
            _ => children.push((byte, vec![pair])),
        }
    }
    // Pick the adaptive node size for the fan-out and fill it directly.
    let mut node = Inner::empty(NodeType::fitting(children.len()), prefix);
    for (byte, group) in children {
        node.insert(byte, build_group(group, split + 1)?);
    }
    Ok(Node::Inner(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let art = Art::<u64>::from_sorted(Vec::new()).unwrap();
        assert!(art.is_empty());
    }

    #[test]
    fn matches_incremental_build() {
        let mut keys: Vec<Vec<u8>> = (0..5000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec())
            .collect();
        keys.sort();
        keys.dedup();
        let pairs: Vec<(Vec<u8>, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u64))
            .collect();
        let bulk = Art::from_sorted(pairs.clone()).unwrap();
        let mut incremental = Art::new();
        for (k, v) in &pairs {
            incremental.insert(k, *v).unwrap();
        }
        assert_eq!(bulk.len(), incremental.len());
        for (k, v) in &pairs {
            assert_eq!(bulk.get(k), Some(v));
        }
        // Same structure: identical node populations and iteration order.
        assert_eq!(bulk.stats(), incremental.stats());
        let a: Vec<_> = bulk.iter().map(|(k, _)| k).collect();
        let b: Vec<_> = incremental.iter().map(|(k, _)| k).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn variable_length_prefix_free() {
        let pairs = vec![
            (b"alpha!".to_vec(), 1u64),
            (b"beta".to_vec(), 2),
            (b"gamma_long_key".to_vec(), 3),
        ];
        let art = Art::from_sorted(pairs).unwrap();
        assert_eq!(art.get(b"beta"), Some(&2));
        assert_eq!(art.len(), 3);
    }

    #[test]
    fn prefix_violation_rejected() {
        let pairs = vec![(b"ab".to_vec(), 1u64), (b"abc".to_vec(), 2)];
        assert_eq!(
            Art::from_sorted(pairs).unwrap_err(),
            ArtError::PrefixViolation
        );
    }

    #[test]
    fn empty_key_rejected() {
        let pairs = vec![(Vec::new(), 1u64)];
        assert_eq!(Art::from_sorted(pairs).unwrap_err(), ArtError::EmptyKey);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_input_panics() {
        let pairs = vec![(b"b".to_vec(), 1u64), (b"a".to_vec(), 2)];
        let _ = Art::from_sorted(pairs);
    }

    #[test]
    fn dense_fanout_picks_large_nodes() {
        let pairs: Vec<(Vec<u8>, u64)> = (0..=255u8).map(|b| (vec![b, 1], b as u64)).collect();
        let art = Art::from_sorted(pairs).unwrap();
        let stats = art.stats();
        assert_eq!(stats.nodes[3], 1, "single N256 root expected");
        assert_eq!(stats.leaves, 256);
    }
}
