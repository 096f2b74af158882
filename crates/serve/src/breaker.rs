//! Refresh circuit breaker (DESIGN §13).
//!
//! Consecutive `QueryEngine::refresh` failures trip the breaker;
//! while it is open the daemon skips refresh attempts for a
//! deterministic number of refresh *ticks* (not wall time, so tests
//! and chaos runs behave identically at any tick rate), then
//! half-opens and lets one probe attempt through. A successful probe
//! closes the breaker; a failed probe re-opens it with doubled
//! backoff, capped. Throughout, the daemon keeps serving the last
//! good generation and reports `degraded` via `/healthz` and `/slo`.

/// Consecutive failures that trip the breaker.
const THRESHOLD: u32 = 3;

/// Ticks skipped after the first trip; each failed probe doubles it.
const BASE_BACKOFF_TICKS: u32 = 2;

/// Breaker tuning. The breaker trips after 3 consecutive failures and
/// backs off 2 ticks, doubling per failed probe up to the cap: by
/// default 64 ticks.
#[derive(Debug, Clone)]
pub struct BreakerOptions {
    /// Backoff cap for repeated failed probes (at least 2).
    pub max_backoff_ticks: u32,
}

impl Default for BreakerOptions {
    fn default() -> BreakerOptions {
        BreakerOptions {
            max_backoff_ticks: 64,
        }
    }
}

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Refreshes run normally.
    Closed,
    /// Refreshes are skipped while the backoff counts down.
    Open,
    /// One probe refresh is in flight.
    HalfOpen,
}

impl BreakerState {
    /// Short lowercase tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A copyable snapshot of breaker health for `/healthz` and `/slo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshHealth {
    pub state: BreakerState,
    pub consecutive_failures: u32,
    pub trips: u64,
}

impl RefreshHealth {
    /// Whether refresh is degraded (the served data may be stale).
    pub fn degraded(&self) -> bool {
        self.state != BreakerState::Closed
    }
}

/// The refresh circuit breaker. Driven by the serve loop: one
/// `allow_tick` per refresh interval, then `on_success`/`on_failure`
/// for attempts that ran.
pub struct RefreshBreaker {
    max_backoff_ticks: u32,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
    /// Ticks left to skip while open.
    skip_ticks: u32,
    /// Current backoff; doubles on each failed half-open probe.
    backoff_ticks: u32,
}

impl RefreshBreaker {
    pub fn new(opts: BreakerOptions) -> RefreshBreaker {
        RefreshBreaker {
            backoff_ticks: BASE_BACKOFF_TICKS,
            max_backoff_ticks: opts.max_backoff_ticks.max(BASE_BACKOFF_TICKS),
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            skip_ticks: 0,
        }
    }

    /// Called once per refresh tick: whether this tick's refresh
    /// should run. While open, counts the backoff down and half-opens
    /// (one probe) when it reaches zero.
    pub fn allow_tick(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.skip_ticks > 0 {
                    self.skip_ticks -= 1;
                    false
                } else {
                    self.state = BreakerState::HalfOpen;
                    telemetry::counter("serve.breaker.probes").inc();
                    true
                }
            }
        }
    }

    /// A refresh attempt succeeded.
    pub fn on_success(&mut self) {
        if self.state != BreakerState::Closed {
            telemetry::counter("serve.breaker.recoveries").inc();
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.backoff_ticks = BASE_BACKOFF_TICKS;
    }

    /// A refresh attempt failed. Returns true when this failure
    /// tripped (or re-opened) the breaker.
    pub fn on_failure(&mut self) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: re-open with doubled, capped backoff.
                self.backoff_ticks = self
                    .backoff_ticks
                    .saturating_mul(2)
                    .min(self.max_backoff_ticks);
                self.skip_ticks = self.backoff_ticks;
                self.state = BreakerState::Open;
                true
            }
            BreakerState::Closed if self.consecutive_failures >= THRESHOLD => {
                self.trips += 1;
                telemetry::counter("serve.breaker.trips").inc();
                self.skip_ticks = self.backoff_ticks;
                self.state = BreakerState::Open;
                true
            }
            BreakerState::Closed | BreakerState::Open => false,
        }
    }

    /// Whether refresh is degraded (breaker not closed).
    pub fn degraded(&self) -> bool {
        self.state != BreakerState::Closed
    }

    /// Health snapshot for `/healthz` and `/slo`.
    pub fn health(&self) -> RefreshHealth {
        RefreshHealth {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            trips: self.trips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(max_backoff_ticks: u32) -> RefreshBreaker {
        RefreshBreaker::new(BreakerOptions { max_backoff_ticks })
    }

    #[test]
    fn trips_after_threshold_and_backs_off_in_ticks() {
        let mut b = breaker(8);
        assert!(!b.degraded());
        assert!(b.allow_tick());
        assert!(!b.on_failure());
        assert!(b.allow_tick());
        assert!(!b.on_failure());
        assert!(b.allow_tick());
        assert!(b.on_failure(), "third consecutive failure must trip");
        assert!(b.degraded());
        assert_eq!(b.health().state, BreakerState::Open);
        assert_eq!(b.health().trips, 1);

        // Two skip ticks, then a half-open probe.
        assert!(!b.allow_tick());
        assert!(!b.allow_tick());
        assert!(b.allow_tick());
        assert_eq!(b.health().state, BreakerState::HalfOpen);

        // Failed probe doubles the backoff: now 4 skipped ticks.
        assert!(b.on_failure());
        for _ in 0..4 {
            assert!(!b.allow_tick());
        }
        assert!(b.allow_tick());

        // Successful probe closes and resets everything.
        b.on_success();
        assert!(!b.degraded());
        assert_eq!(b.health().consecutive_failures, 0);
        assert_eq!(b.health().trips, 1, "trip count is cumulative");
    }

    #[test]
    fn backoff_caps_and_success_resets_it() {
        let mut b = breaker(8);
        assert!(!b.on_failure() && !b.on_failure());
        assert!(b.on_failure(), "the third failure trips");
        // Drain to half-open and fail repeatedly: 4, 8, 8 (capped).
        for expected_skip in [2u32, 4, 8, 8] {
            for _ in 0..expected_skip {
                assert!(!b.allow_tick(), "skip {expected_skip}");
            }
            assert!(b.allow_tick());
            assert!(b.on_failure());
        }
        b.on_success();
        // After recovery the backoff is back at base.
        assert!(!b.on_failure() && !b.on_failure());
        assert!(b.on_failure());
        assert!(!b.allow_tick());
        assert!(!b.allow_tick());
        assert!(b.allow_tick());
    }

    #[test]
    fn intermittent_failures_below_threshold_never_trip() {
        let mut b = breaker(8);
        for _ in 0..10 {
            assert!(b.allow_tick());
            assert!(!b.on_failure());
            assert!(b.allow_tick());
            b.on_success();
        }
        assert!(!b.degraded());
        assert_eq!(b.health().trips, 0);
    }
}
