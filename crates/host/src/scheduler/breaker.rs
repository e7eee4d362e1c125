//! The circuit breaker over device dispatch.

use std::time::{Duration, Instant};

/// Circuit-breaker tuning. The default never trips on a healthy system:
/// it reacts only to injected or real device faults.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive faulty batches (a session error, or any injected fault
    /// during the batch) that trip `Closed` → `Open`. `0` never trips.
    pub fault_threshold: u32,
    /// How long the breaker holds `Open` (CPU-only service) before
    /// letting `HalfOpen` probe batches touch the device again.
    pub open_cooldown: Duration,
    /// Clean probe batches required to close from `HalfOpen`.
    pub probe_batches: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            fault_threshold: 3,
            open_cooldown: Duration::from_millis(10),
            probe_batches: 2,
        }
    }
}

/// Breaker state machine position. Gauge encoding: Closed = 0,
/// HalfOpen = 1, Open = 2 (`cuart.sched.breaker_state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum BreakerState {
    /// Normal dispatch; `faults` consecutive faulty batches so far.
    Closed { faults: u32 },
    /// CPU-only service until `until`, when probing starts.
    Open { until: Instant },
    /// Probe batches reach the device; `clean` clean probes so far.
    HalfOpen { clean: u32 },
}

/// Circuit breaker over device dispatch: a pure state machine stepped at
/// the instants the executor passes it. A step that moves it to another
/// position returns the new state, for the executor to apply
/// ([`ExecCtx::apply`]).
pub(super) struct Breaker {
    cfg: BreakerConfig,
    pub(super) state: BreakerState,
}

impl Breaker {
    pub(super) fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: BreakerState::Closed { faults: 0 },
        }
    }

    /// How to dispatch a run at `now`. An `Open` breaker whose cooldown
    /// has ended goes `HalfOpen`, and the run is its first probe.
    pub(super) fn before(&mut self, now: Instant) -> (DispatchMode, Option<BreakerState>) {
        match self.state {
            BreakerState::Closed { .. } => (DispatchMode::Normal, None),
            BreakerState::HalfOpen { .. } => (DispatchMode::Probe, None),
            BreakerState::Open { until } if now < until => (DispatchMode::CpuOnly, None),
            BreakerState::Open { .. } => (
                DispatchMode::Probe,
                self.enter(BreakerState::HalfOpen { clean: 0 }),
            ),
        }
    }

    /// Account a `Normal` or `Probe` run that ended at `now`. `faulty`
    /// means the batch errored or any fault was injected while serving it
    /// (covering retried-then-recovered legs and silent degradations).
    /// A trip opens the breaker for the cooldown from `now`.
    pub(super) fn after(&mut self, now: Instant, faulty: bool) -> Option<BreakerState> {
        let next = match self.state {
            BreakerState::Open { .. } => return None,
            BreakerState::Closed { faults } if faulty => {
                let faults = faults.saturating_add(1);
                let threshold = self.cfg.fault_threshold;
                if threshold > 0 && faults >= threshold {
                    return self.trip(now);
                }
                BreakerState::Closed { faults }
            }
            BreakerState::Closed { .. } => BreakerState::Closed { faults: 0 },
            BreakerState::HalfOpen { .. } if faulty => return self.trip(now),
            BreakerState::HalfOpen { clean } if clean + 1 < self.cfg.probe_batches => {
                BreakerState::HalfOpen { clean: clean + 1 }
            }
            BreakerState::HalfOpen { .. } => return self.enter(BreakerState::Closed { faults: 0 }),
        };
        self.state = next;
        None
    }

    fn trip(&mut self, now: Instant) -> Option<BreakerState> {
        let until = now + self.cfg.open_cooldown;
        self.enter(BreakerState::Open { until })
    }

    fn enter(&mut self, state: BreakerState) -> Option<BreakerState> {
        self.state = state;
        Some(state)
    }
}

/// How one run is dispatched, per the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DispatchMode {
    /// Breaker closed: normal device dispatch.
    Normal,
    /// Breaker half-open: this run is a recovery probe.
    Probe,
    /// Breaker open: the session is pinned to the CPU path.
    CpuOnly,
}
