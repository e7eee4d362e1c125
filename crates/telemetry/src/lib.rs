//! Session-wide telemetry for the CuART engines.
//!
//! One [`Telemetry`] registry per device session (shared as
//! `Option<Arc<Telemetry>>`) collects:
//!
//! * **counters** — monotonic totals (batches served, keys looked up,
//!   host spills, claim conflicts, free-list refills, …),
//! * **gauges** — last-write-wins readings (node/leaf occupancy, L2 hit
//!   rate, DRAM channel imbalance, device bytes, …),
//! * **histograms** — log2-bucketed distributions (kernel ns per batch,
//!   DRAM transactions per batch, bytes moved, …),
//! * **span trees** — one per device batch (`h2d`, `kernel{dram, exec}`,
//!   `d2h`), a batch's only per-batch record, in a bounded span ring,
//! * **a bounded event ring** — one [`BatchEvent`] per state transition
//!   (degrade, recover, breaker open/half-open/closed), with
//!   session-monotonic `seq`; batches never write it.
//!
//! Snapshots ([`Telemetry::snapshot`]) are fully owned and export to JSON
//! ([`Snapshot::to_json`]) or the Prometheus text format
//! ([`Snapshot::to_prometheus`]).
//!
//! # Cost model
//!
//! Recording through a handle is one relaxed atomic op; the registry
//! locks are touched only on name resolution, which the per-batch owners
//! do once (see the hot-path rule in the registry docs). A batch takes
//! one short ring mutex: its span-tree commit, which moves the tree into
//! the span ring without copying a string. The event ring's mutex is
//! taken only on a state transition.
//! "Telemetry off" is an index with no registry attached: the only
//! residual cost in the engines is the `Option` branch at each recording
//! site.

#![forbid(unsafe_code)]

mod event;
pub mod json;
mod snapshot;
pub mod tracing;

pub use event::{BatchEvent, BatchKind};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use tracing::{AttrValue, Span, SpanNode, DEFAULT_SPAN_CAPACITY};

mod real;
pub use real::{
    Counter, CounterHandle, Gauge, GaugeHandle, Histogram, HistogramHandle, Telemetry,
    DEFAULT_EVENT_CAPACITY,
};

pub mod names;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_surface_compiles_and_snapshots() {
        let t = Telemetry::new();
        t.incr(names::LOOKUP_BATCHES, 1);
        t.gauge_set(names::L2_HIT_RATE, 0.5);
        t.observe(names::LOOKUP_KERNEL_NS, 1234);
        t.record(BatchEvent::new(BatchKind::Degraded, 16));
        let s = t.snapshot();
        let json = s.to_json();
        let prom = s.to_prometheus();
        assert_eq!(s.counters.get(names::LOOKUP_BATCHES), Some(&1));
        assert!(json.contains("cuart.lookup.batches"));
        assert!(prom.contains("cuart_lookup_batches 1"));
    }
}
