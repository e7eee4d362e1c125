//! # cuart-art — the classic Adaptive Radix Tree
//!
//! A faithful, pointer-based CPU implementation of the Adaptive Radix Tree
//! (ART) as described by Leis, Kemper and Neumann, *"The adaptive radix tree:
//! ARTful indexing for main-memory databases"*, ICDE 2013.
//!
//! This crate is the **baseline** of the CuART reproduction (ICPP 2021):
//! it is the structure the paper's Figure 7 and Figure 17 compare against,
//! and it is the *source* structure from which both GPU layouts (the packed
//! single-buffer GRT and the structure-of-buffers CuART) are mapped.
//!
//! ## Features
//!
//! * the four adaptive node sizes — [`NodeType::N4`], [`NodeType::N16`],
//!   [`NodeType::N48`], [`NodeType::N256`] — with growth and shrinkage,
//! * node-sized allocation: a child link is a two-word tagged handle (Leis
//!   et al.'s tagged child pointer), either a boxed leaf or an inner node
//!   boxed at the size of its kind with its slots inline, so a lookup
//!   takes one pointer hop per level; a leaf holds a key of up to 22 bytes
//!   inline beside its value, in one allocation,
//! * pessimistic path compression (the full compressed prefix is stored in
//!   each inner node, so traversal never needs to re-check the key against
//!   leaf contents),
//! * lazy expansion (single-value leaves storing the full key),
//! * point lookups, inserts, removals, in-order iteration, inclusive range
//!   scans and prefix scans,
//! * a read-only [`view`] module exposing the structure of the tree so other
//!   crates can map it into GPU buffer layouts,
//! * [`stats`] describing node populations, depth and the exact heap
//!   footprint (about 72 bytes per key for random 8-byte keys).
//!
//! ## Key model
//!
//! Keys are arbitrary byte strings with one classic radix-tree restriction:
//! **no stored key may be a proper prefix of another stored key**. (This is
//! the standard ART requirement for binary-comparable keys; fixed-length
//! keys — the only kind used in the paper's evaluation — satisfy it
//! trivially.) Violations are reported as [`ArtError::PrefixViolation`]
//! instead of silently corrupting the tree.
//!
//! ## Quick example
//!
//! ```
//! use cuart_art::Art;
//!
//! let mut art = Art::new();
//! art.insert(b"romane", 1u64).unwrap();
//! art.insert(b"romanus", 2).unwrap();
//! art.insert(b"romulus", 3).unwrap();
//!
//! assert_eq!(art.get(b"romanus"), Some(&2));
//! assert_eq!(art.len(), 3);
//!
//! // Range scans are inclusive and yield keys in lexicographic order.
//! let hits: Vec<_> = art.range(b"romane", b"romanus").map(|(k, _)| k).collect();
//! assert_eq!(hits, vec![b"romane".to_vec(), b"romanus".to_vec()]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bulk;
mod node;
mod tree;

pub mod stats;
pub mod view;

pub use node::NodeType;
pub use stats::ArtStats;
pub use tree::{Art, ArtError, Iter, RangeIter};
