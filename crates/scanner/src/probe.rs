//! The policy side of the unified probe engine: the retry schedule and
//! per-campaign coverage accounting. The engine itself is
//! `campaign::sweep`, the one loop behind every UDP campaign;
//! [`tcp_query_with_retry`] is its TCP counterpart.
//!
//! The paper's client-side scans retransmit queries and tolerate
//! partial coverage (Sec. 2.2, Sec. 3.1); only the ZMap-style
//! enumeration sweep is deliberately single-probe. One [`ProbePolicy`]
//! describes the retransmission regime every retrying campaign uses:
//! a bounded number of attempts, waiting on one fixed schedule of
//! exponentially backed-off steps (1.5 s doubling, capped at 6 s) with
//! deterministic ±50% jitter. [`Coverage`] is the common
//! accounting of how a campaign fared — so the bundle collector can
//! declare a campaign *degraded* instead of returning silently thin
//! results.
//!
//! The default policy is a single attempt, under which no
//! retransmission round runs — `crates/scanner/tests/sweep_golden.rs`
//! pins every campaign's single-attempt traffic.

use netsim::{TcpError, TcpRequest, TcpResponse};
use serde::Serialize;
use std::net::Ipv4Addr;

/// Retransmission policy for one campaign: how many attempts each
/// target gets. Every retrying campaign, UDP and TCP alike, waits on the
/// one jittered backoff [`schedule`](ProbePolicy::schedule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePolicy {
    /// Total attempts per target (1 = no retransmission).
    pub attempts: u32,
}

/// Response wait after the first retransmission round, in ms.
const BASE_TIMEOUT_MS: u64 = 1_500;
/// Multiplicative backoff applied to successive waits.
const BACKOFF: f64 = 2.0;
/// Upper clamp on any single wait, in ms.
const MAX_TIMEOUT_MS: u64 = 6_000;

impl ProbePolicy {
    /// One attempt, no retransmission — the byte-identity default.
    pub fn single() -> ProbePolicy {
        ProbePolicy { attempts: 1 }
    }

    /// `n` bounded attempts with exponential backoff.
    pub fn retrying(n: u32) -> ProbePolicy {
        ProbePolicy { attempts: n.max(1) }
    }

    /// The full wait schedule, one entry per attempt: exponentially
    /// backed-off steps, jittered by up to ±50% of the step (keyed on
    /// `key` and the attempt index, so reruns jitter identically), then
    /// clamped to be monotone non-decreasing. The monotone clamp keeps
    /// every delay within `[0.5, 1.5]×` its raw step while never
    /// letting jitter shrink a later wait below an earlier one.
    pub fn schedule(&self, key: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.attempts as usize);
        let mut prev = 0u64;
        for k in 0..self.attempts {
            let raw = raw_step(k);
            // j ∈ [-500, 500] per-mille of the step.
            let j = (mix64(key, 0x9177e4, k as u64) % 1_001) as i64 - 500;
            let delta = (raw as i64).saturating_mul(j) / 1_000;
            prev = prev.max((raw as i64 + delta).max(1) as u64);
            out.push(prev);
        }
        out
    }
}

/// Raw (unjittered) backoff step for attempt `k`, clamped. In f64 so
/// that a large `k` saturates into the clamp instead of overflowing.
fn raw_step(k: u32) -> u64 {
    let factor = BACKOFF.powi(k as i32);
    ((BASE_TIMEOUT_MS as f64 * factor) as u64).min(MAX_TIMEOUT_MS)
}

impl Default for ProbePolicy {
    fn default() -> Self {
        ProbePolicy::single()
    }
}

/// How a campaign fared against its target set.
///
/// `space` coverage (the enumeration campaigns) counts probes against
/// the planned address space — single-probe sweeps answer "did we scan
/// everything we meant to". Response coverage (the retrying campaigns)
/// counts answers against targets that *could* have answered: targets
/// with no live responder behind them (`unreachable`) are excluded from
/// the denominator, so coverage measures the scanner, not the churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Coverage {
    /// Targets (or probes, for space coverage) the campaign attempted.
    pub attempted: u64,
    /// Targets that answered (probes sent, for space coverage).
    pub answered: u64,
    /// Reachable targets that never answered despite every attempt.
    pub gave_up: u64,
    /// Targets with no live responder (dead, renumbered, filtered).
    pub unreachable: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// True when this row measures scanned space, not responses.
    pub space: bool,
}

impl Coverage {
    /// Space coverage for a single-probe sweep: `sent` of `planned`
    /// probes dispatched (the remainder was skipped, e.g. blacklisted).
    pub fn space(planned: u64, sent: u64) -> Coverage {
        Coverage {
            attempted: planned,
            answered: sent,
            unreachable: planned - sent,
            space: true,
            ..Coverage::default()
        }
    }

    /// Fraction of reachable targets covered, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        let reachable = self.attempted.saturating_sub(self.unreachable);
        if reachable == 0 {
            1.0
        } else {
            self.answered as f64 / reachable as f64
        }
    }

    /// Merge another coverage row into this one (multi-round
    /// campaigns accumulate per-round rows).
    pub fn absorb(&mut self, other: &Coverage) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.gave_up += other.gave_up;
        self.unreachable += other.unreachable;
        self.retries += other.retries;
        self.space |= other.space;
    }
}

/// Issue a TCP request with the policy's bounded retransmission:
/// timeouts are retried after the backoff delay (advancing simulated
/// time — retrying at the same instant would deterministically re-roll
/// the same outcome), other errors return immediately. Returns the
/// final outcome and the number of retries spent.
pub fn tcp_query_with_retry(
    net: &mut netsim::Network,
    policy: &ProbePolicy,
    campaign: &'static str,
    dst: Ipv4Addr,
    port: u16,
    req: &TcpRequest,
) -> (Result<TcpResponse, TcpError>, u64) {
    let record = telemetry::recorder::enabled();
    if record {
        telemetry::recorder::set_context(campaign, 1);
        telemetry::recorder::attempt(u32::from(dst), 0, net.now().millis());
    }
    let mut last = net.tcp_query(dst, port, req);
    if policy.attempts <= 1 {
        record_tcp_outcome(record, dst, &last, 1, net.now().millis());
        return (last, 0);
    }
    let schedule = policy.schedule(mix64(u32::from(dst) as u64, port as u64, 0x7c9e77));
    let mut retries = 0u64;
    for k in 1..policy.attempts {
        if !matches!(last, Err(TcpError::Timeout)) {
            break;
        }
        let delay = schedule[(k - 1) as usize];
        if record {
            telemetry::recorder::set_context(campaign, k + 1);
            telemetry::recorder::backoff(k - 1, delay, net.now().millis());
        }
        let target = net.now() + delay;
        net.run_until(target);
        retries += 1;
        if record {
            telemetry::recorder::attempt(u32::from(dst), 0, net.now().millis());
        }
        last = net.tcp_query(dst, port, req);
    }
    record_tcp_outcome(record, dst, &last, policy.attempts, net.now().millis());
    if retries > 0 {
        telemetry::counter_with("scanner.retries", &[("campaign", campaign)]).add(retries);
    }
    (last, retries)
}

/// Flight-recorder epilogue for a TCP exchange: a success records a
/// response (rcode 0 — TCP banners have no DNS rcode), an exhausted
/// timeout records the give-up.
fn record_tcp_outcome(
    record: bool,
    dst: Ipv4Addr,
    outcome: &Result<TcpResponse, TcpError>,
    attempts: u32,
    now_ms: u64,
) {
    if !record {
        return;
    }
    match outcome {
        Ok(_) => telemetry::recorder::response(u32::from(dst), 0, now_ms),
        Err(TcpError::Timeout) => telemetry::recorder::gave_up(u32::from(dst), 0, attempts, now_ms),
        Err(_) => {}
    }
    telemetry::recorder::clear_context();
}

/// SplitMix64-style mixing — same construction as netsim's internal
/// hash, reimplemented here because probe jitter is scanner-side
/// randomness, deliberately decoupled from the network's channels.
pub(crate) fn mix64(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.wrapping_mul(0xbf58476d1ce4e5b9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_policy_is_default_and_has_one_attempt() {
        assert_eq!(ProbePolicy::default(), ProbePolicy::single());
        assert_eq!(ProbePolicy::single().attempts, 1);
        assert_eq!(ProbePolicy::retrying(0).attempts, 1);
    }

    #[test]
    fn coverage_fraction_excludes_unreachable() {
        let cov = Coverage {
            attempted: 100,
            answered: 90,
            gave_up: 0,
            unreachable: 10,
            retries: 0,
            space: false,
        };
        assert!((cov.fraction() - 1.0).abs() < 1e-9);
        let empty = Coverage::default();
        assert!((empty.fraction() - 1.0).abs() < 1e-9);
    }

    proptest! {
        /// Backoff schedule properties: delays are monotone
        /// non-decreasing, each within ±50% of its raw exponential
        /// step, and the total wait is bounded by 1.5× the raw total.
        /// Attempts reach past the point where the raw step's f64
        /// saturates, so the clamp is exercised there too.
        #[test]
        fn backoff_schedule_properties(key in any::<u64>(), attempts in 1u32..64) {
            let policy = ProbePolicy { attempts };
            let sched = policy.schedule(key);
            prop_assert_eq!(sched.len(), attempts as usize);
            let mut raw_total = 0u64;
            for (k, &d) in sched.iter().enumerate() {
                let raw = raw_step(k as u32);
                raw_total += raw;
                if k > 0 {
                    prop_assert!(d >= sched[k - 1], "monotone: {:?}", sched);
                }
                // Raw steps never shrink, so the monotone clamp never
                // pushes a delay above 1.5× its own step, and jitter
                // never cuts below half the step.
                prop_assert!(d <= raw + raw / 2, "delay {} step {}", d, raw);
                prop_assert!(d >= raw / 2, "delay {} step {}", d, raw);
            }
            let total: u64 = sched.iter().sum();
            prop_assert!(total <= raw_total + raw_total / 2, "total wait bounded");
            // Determinism: the same key yields the same schedule.
            prop_assert_eq!(sched, policy.schedule(key));
        }
    }
}
