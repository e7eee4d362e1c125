//! # cuart-bench — the figure-regeneration harness
//!
//! One module per figure of the paper's evaluation (§4). The `figures`
//! binary runs them and writes a CSV per figure plus a markdown summary:
//!
//! ```text
//! cargo run -p cuart-bench --release --bin figures -- all
//! cargo run -p cuart-bench --release --bin figures -- fig10 fig17
//! cargo run -p cuart-bench --release --bin figures -- all --scale 64
//! cargo run -p cuart-bench --release --bin figures -- all --full
//! cargo run -p cuart-bench --release --bin figures -- ablations
//! ```
//!
//! ## Scaling
//!
//! The paper's evaluation runs trees of up to 144 M entries on a 2 TB
//! server. Scaled runs divide every tree size by `--scale` (default 16)
//! **and shrink the simulated L2 caches by the same factor**, so the
//! cache-residency regime of every sweep point matches the paper's: a tree
//! that overflowed the A100's 40 MB L2 at full scale also overflows the
//! scaled L2. Relative results (who wins, crossovers, droops) are
//! preserved; absolute MOps/s are *not* expected to match the paper
//! (different substrate), only the shapes.

#![warn(missing_docs)]

pub mod ablations;
pub mod context;
pub mod figures;
pub mod regress;
pub mod series;

pub use context::RunCtx;
pub use series::{Figure, Series};
