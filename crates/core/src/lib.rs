//! # cuart — the CuART index (ICPP 2021)
//!
//! A structure-of-buffers GPU Adaptive Radix Tree with a device-side batch
//! update engine — the primary contribution of Koppehel, Pionteck, Groth and
//! Groppe, *"CuART — a CUDA-based, scalable Radix-Tree lookup and update
//! engine"*, ICPP 2021. This crate implements the index itself; the GPU it
//! runs on is the `cuart-gpu-sim` simulator and the pointer-based source
//! tree comes from `cuart-art`.
//!
//! ## The optimizations (§3.2 of the paper)
//!
//! 1. **One buffer per node type** ([`buffers`]): N4/N16/N48/N256 and three
//!    fixed-size leaf classes (8/16/32-byte keys) each live in their own
//!    aligned arena, so a traversal step knows the read size and alignment
//!    *before* issuing the memory transaction — one transaction per node
//!    instead of GRT's header-then-body pair.
//! 2. **Packed 64-bit node links** ([`link`]): node type in the most
//!    significant bits, index into the per-type buffer in the least
//!    significant bits. The type byte this removes from the node header is
//!    reused for a longer in-node prefix.
//! 3. **Compacted root** ([`mapper`]): the first `lut_span` (default 3) key
//!    bytes index a dense lookup table of node links, merging the top tree
//!    layers as proposed by START (Fent et al. 2020). 2^24 entries × 8 B =
//!    the 128 MB figure of §3.2.2.
//! 4. **Ordered fixed-size leaves** ([`range`]): leaves are emitted in
//!    lexicographic key order, so a range query result is just a pair of
//!    indices per leaf buffer.
//! 5. **Long-key handling** ([`LongKeyPolicy`]): route to CPU, host-leaf
//!    links, or GRT-style dynamic leaves (§3.2.3).
//! 6. **Two-stage batch updates** ([`update`]): stage 1 resolves each key to
//!    its leaf slot and publishes (slot → max thread index) claims into an
//!    atomic hash table with linear probing; after a grid-wide sync, stage 2
//!    lets only the winning thread write. Deletes are updates with a nil
//!    sentinel: the leaf is cleared, its slot freed, and the parent's child
//!    link removed — without restructuring the tree (§3.3/§3.4).
//!
//! ## Quick example
//!
//! ```
//! use cuart::{CuartConfig, CuartIndex};
//! use cuart_art::Art;
//! use cuart_gpu_sim::devices;
//!
//! let mut art = Art::new();
//! for i in 0..1000u64 {
//!     art.insert(&i.to_be_bytes(), i).unwrap();
//! }
//! let index = CuartIndex::build(&art, &CuartConfig::for_tests());
//!
//! // CPU engine (the Figure 7 fast path):
//! assert_eq!(index.lookup_cpu(&42u64.to_be_bytes()), Some(42));
//!
//! // Simulated-GPU batch lookup:
//! let queries: Vec<Vec<u8>> = (0..64u64).map(|i| i.to_be_bytes().to_vec()).collect();
//! let (results, report) = index.lookup_batch_device(&devices::rtx3090(), &queries, 8);
//! assert_eq!(results[5], 5);
//! assert!(report.time_ns > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod buffers;
pub mod claim;
pub mod cpu;
pub mod error;
pub mod insert;
pub mod kernels;
pub mod layout;
pub mod link;
pub mod mapper;
mod overlay;
pub mod persist;
pub mod range;
pub mod shard;
pub mod update;

pub use api::{CuartIndex, CuartSession, FaultStats, Mode};
pub use buffers::{CuartBuffers, CuartConfig, LongKeyPolicy};
pub use error::{CuartError, RetryPolicy};
pub use kernels::DeviceTree;
pub use link::NodeLink;
pub use shard::ShardRouter;
pub use update::DELETE;
