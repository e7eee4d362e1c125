//! State-transition records.
//!
//! A device session's degrade/recover path and the scheduler's circuit
//! breaker each emit one [`BatchEvent`] per transition into the
//! registry's bounded ring. Batches never write it: their record is the
//! span tree and the counters it feeds, so a ring full of batch traffic
//! cannot evict the transitions it is read for.

/// Which state transition produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BatchKind {
    /// The session lost its device image and fell back to the CPU path.
    Degraded,
    /// A degraded session re-uploaded the tree and resumed device service.
    Recovered,
    /// The scheduler's circuit breaker tripped open (CPU-only service).
    BreakerOpen,
    /// The breaker entered its half-open probing window.
    BreakerHalfOpen,
    /// The breaker closed again after clean probe batches.
    BreakerClosed,
}

impl BatchKind {
    /// Stable lowercase identifier used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            BatchKind::Degraded => "degraded",
            BatchKind::Recovered => "recovered",
            BatchKind::BreakerOpen => "breaker_open",
            BatchKind::BreakerHalfOpen => "breaker_half_open",
            BatchKind::BreakerClosed => "breaker_closed",
        }
    }
}

impl std::fmt::Display for BatchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One state-transition record.
///
/// `seq` is assigned by the ring at record time and is monotonically
/// increasing across the session, so gaps reveal dropped events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvent {
    /// Session-monotonic sequence number (assigned on record).
    pub seq: u64,
    /// The transition.
    pub kind: BatchKind,
    /// Keys in the batch that triggered the transition.
    pub keys: u64,
}

impl BatchEvent {
    /// New `kind` transition triggered by a batch of `keys` keys.
    pub fn new(kind: BatchKind, keys: u64) -> Self {
        BatchEvent { seq: 0, kind, keys }
    }
}
