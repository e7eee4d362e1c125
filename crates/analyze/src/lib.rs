//! `cuart-analyze`: the workspace's metric and span-name catalog, the two
//! files generated from it, and the one source check clippy cannot do.
//!
//! [`registry`] is the single source of truth for every `cuart.*` /
//! `grt.*` series name and every span name. The binary writes
//! `crates/telemetry/src/names.rs` (`--emit-registry`) and the DESIGN.md §6
//! metric table (`--emit-design-table`) from it. [`lints::metrics`] scans
//! library source, tokenized by [`lexer`], for names spelled out instead of
//! taken from `names`. `tests/metric_registry.rs` fails when either
//! generated file drifts from the catalog or the scan finds a name.

#![forbid(unsafe_code)]

pub mod lexer;
/// Source checks that have no clippy lint.
pub mod lints {
    pub mod metrics;
}
pub mod registry;
