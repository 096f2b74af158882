//! The flight recorder: a bounded, deterministic-sampling ring buffer
//! of causality-linked probe records.
//!
//! Retrying campaigns record the full life of every sampled probe —
//! attempt sent → backoff decision → fault/loss drop (tagged by the
//! network layer with the responsible fault kind) → response rcode or
//! final give-up — so "why did this resolver need three retries?" is
//! answerable after the run from the persisted stream alone.
//!
//! The recorder belongs to a [`crate::Telemetry`] handle; the free
//! functions here act on the handle the calling thread has installed.
//!
//! # Causality without plumbing
//!
//! The scanner knows the campaign and attempt number; the network
//! layer knows why a datagram died. Neither API mentions the other:
//! the scanner publishes a per-thread *probe context*
//! ([`set_context`]) around its send/pump phases, and the network's
//! drop paths read it back when recording. This is sound because each
//! world's simulation is single-threaded — the event loop runs on the
//! thread that issued the sends.
//!
//! # Determinism contract
//!
//! * Records carry only simulated time and deterministic fields, and
//!   sequence numbers are assigned in simulation order — two runs of
//!   the same seeded workload produce byte-identical streams.
//! * Sampling is keyed on `hash(sample_seed, target_ip)` compared
//!   against the rate, so a probe's records are all-or-none: a target
//!   is either fully recorded across every campaign or not at all,
//!   and rate `1.0` records everything.
//! * The ring is bounded: when full, the oldest records are
//!   overwritten (deterministically, since arrival order is
//!   deterministic) and the overwrite count is reported.
//!
//! # Cost when disabled
//!
//! Every entry point is gated on one relaxed atomic load of the
//! handle's flag; with the recorder disabled the scan pipeline's
//! behaviour and output are byte-identical to a build without it.

use crate::handle::{with_current, SCOPE};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

/// What one [`ProbeRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// A probe (or re-probe) was sent. `attempt` is 1-based.
    Attempt = 0,
    /// The retry engine chose a backoff wait for a retransmission
    /// round. `value` is the wait in sim-ms; `ip` is 0 when the
    /// decision is campaign-wide.
    Backoff = 1,
    /// The network dropped a datagram of this probe; `reason` names
    /// the responsible fault (burst/outage/flap/rate_limit/loss).
    Drop = 2,
    /// A response arrived; `value` is the DNS rcode.
    Response = 3,
    /// Every attempt was exhausted without an answer; `value` is the
    /// number of attempts spent.
    GaveUp = 4,
}

impl RecordKind {
    /// Stable wire tag.
    pub fn to_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`RecordKind::to_u8`].
    pub fn from_u8(v: u8) -> Option<RecordKind> {
        Some(match v {
            0 => RecordKind::Attempt,
            1 => RecordKind::Backoff,
            2 => RecordKind::Drop,
            3 => RecordKind::Response,
            4 => RecordKind::GaveUp,
            _ => return None,
        })
    }

    /// Human-readable name, used by `repro trace`.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Attempt => "attempt",
            RecordKind::Backoff => "backoff",
            RecordKind::Drop => "drop",
            RecordKind::Response => "response",
            RecordKind::GaveUp => "gave_up",
        }
    }
}

/// One causality-linked record of a probe's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Global sequence number in simulation order.
    pub seq: u64,
    /// Simulated time in milliseconds.
    pub t_ms: u64,
    /// What happened.
    pub kind: RecordKind,
    /// Owning campaign (`"churn"`, `"chaos"`, …).
    pub campaign: &'static str,
    /// Target resolver address (`u32::from(Ipv4Addr)`), 0 when the
    /// record is campaign-wide (shared backoff schedules).
    pub ip: u32,
    /// Target's autonomous system, when the scanner knows it (attempt
    /// and give-up records); 0 otherwise.
    pub asn: u32,
    /// 1-based attempt number this record belongs to.
    pub attempt: u32,
    /// Kind-specific value (wait ms / rcode / attempts spent).
    pub value: u64,
    /// Drop reason, `""` for non-drop records.
    pub reason: &'static str,
}

/// Default ring capacity: ~4M records, far above what the retrying
/// campaigns emit at reproduction scales.
pub const DEFAULT_CAPACITY: usize = 1 << 22;

/// A handle's ring and its sampling rule.
pub(crate) struct Recorder {
    /// The newest `cap` records, oldest first.
    ring: VecDeque<ProbeRecord>,
    cap: usize,
    next_seq: u64,
    /// Sampling threshold: record when `hash <= threshold`.
    threshold: u64,
    seed: u64,
    overwritten: u64,
}

/// Recorder occupancy counters, for the end-of-run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Records currently buffered.
    pub buffered: u64,
    /// Records assigned so far (monotone).
    pub recorded: u64,
    /// Oldest records lost to ring overwrite.
    pub overwritten: u64,
}

/// Hash channel decorrelating sampling from every other seeded hash.
const SAMPLE_CHANNEL: u64 = 0x5A301E;

impl Recorder {
    fn new(threshold: u64, seed: u64, cap: usize) -> Recorder {
        Recorder {
            ring: VecDeque::new(),
            cap,
            next_seq: 0,
            threshold,
            seed,
            overwritten: 0,
        }
    }

    /// The same sampling rule over an empty ring that never overwrites:
    /// a child handle's, whose records take their place in the parent's
    /// ring at replay.
    pub(crate) fn unbounded_like(&self) -> Recorder {
        Recorder::new(self.threshold, self.seed, usize::MAX)
    }

    /// Deterministic sampling decision for a target: all-or-none per IP.
    fn samples(&self, ip: u32) -> bool {
        mix64(self.seed, SAMPLE_CHANNEL, ip as u64) <= self.threshold
    }

    /// Appends `rec` with the next sequence number.
    pub(crate) fn push(&mut self, mut rec: ProbeRecord) {
        rec.seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.overwritten += 1;
        }
        self.ring.push_back(rec);
    }

    /// Takes every buffered record, oldest first.
    pub(crate) fn drain(&mut self) -> Vec<ProbeRecord> {
        std::mem::take(&mut self.ring).into()
    }
}

/// Turns the recorder on with sampling `rate` in `[0, 1]`, a sampling
/// seed, and a ring `capacity`. Resets sequence numbers and drops any
/// buffered records, so seeded reruns produce identical streams.
pub fn enable(rate: f64, seed: u64, capacity: usize) {
    let rate = rate.clamp(0.0, 1.0);
    let threshold = if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    };
    with_current(|t| {
        t.out().recorder = Some(Recorder::new(threshold, seed, capacity.max(1)));
        t.0.recording.store(true, Ordering::SeqCst);
    });
}

/// Turns the recorder off and discards any buffered records.
pub fn disable() {
    with_current(|t| {
        t.0.recording.store(false, Ordering::SeqCst);
        t.out().recorder = None;
    });
}

/// True while the recorder is on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    with_current(|t| t.0.recording.load(Ordering::Relaxed))
}

/// Publishes the issuing campaign and attempt number for subsequent
/// sends on this thread. A no-op when the recorder is off.
pub fn set_context(campaign: &'static str, attempt: u32) {
    if enabled() {
        SCOPE.with(|s| s.borrow_mut().context = Some((campaign, attempt)));
    }
}

/// Clears the probe context.
pub fn clear_context() {
    SCOPE.with(|s| s.borrow_mut().context = None);
}

fn record(kind: RecordKind, ip: u32, asn: u32, value: u64, reason: &'static str, t_ms: u64) {
    let Some((campaign, attempt)) = SCOPE.with(|s| s.borrow().context) else {
        return;
    };
    with_current(|t| {
        let mut out = t.out();
        let Some(r) = out.recorder.as_mut() else {
            return;
        };
        if ip != 0 && !r.samples(ip) {
            return;
        }
        r.push(ProbeRecord {
            seq: 0,
            t_ms,
            kind,
            campaign,
            ip,
            asn,
            attempt,
            value,
            reason: if kind == RecordKind::Drop { reason } else { "" },
        });
    });
}

/// Records a probe send to `ip` (context supplies campaign/attempt).
#[inline]
pub fn attempt(ip: u32, asn: u32, t_ms: u64) {
    if enabled() {
        record(RecordKind::Attempt, ip, asn, 0, "", t_ms);
    }
}

/// Records a retry engine backoff decision: retransmission `round`
/// (0-based) will wait `wait_ms`. Campaign-wide (`ip = 0`).
#[inline]
pub fn backoff(round: u32, wait_ms: u64, t_ms: u64) {
    if enabled() {
        let _ = round; // the context's attempt number already names the round
        record(RecordKind::Backoff, 0, 0, wait_ms, "", t_ms);
    }
}

/// Records a dropped datagram. Called by the network layer; the probe
/// target is inferred from the DNS direction (queries travel towards
/// port 53, so replies carry the resolver as their source).
#[inline]
pub fn drop_fault(src_ip: u32, dst_ip: u32, dst_port: u16, reason: &'static str, t_ms: u64) {
    if enabled() {
        let target = if dst_port == 53 { dst_ip } else { src_ip };
        record(RecordKind::Drop, target, 0, 0, reason, t_ms);
    }
}

/// Records a response from `ip` with DNS `rcode`.
#[inline]
pub fn response(ip: u32, rcode: u8, t_ms: u64) {
    if enabled() {
        record(RecordKind::Response, ip, 0, rcode as u64, "", t_ms);
    }
}

/// Records that every attempt against `ip` was exhausted unanswered.
#[inline]
pub fn gave_up(ip: u32, asn: u32, attempts: u32, t_ms: u64) {
    if enabled() {
        record(RecordKind::GaveUp, ip, asn, attempts as u64, "", t_ms);
    }
}

/// Takes every buffered record, oldest first (sequence order). The
/// recorder stays enabled and sequence numbers keep counting, so
/// periodic drains concatenate into one gap-free stream.
pub fn drain() -> Vec<ProbeRecord> {
    with_current(|t| {
        t.out()
            .recorder
            .as_mut()
            .map(Recorder::drain)
            .unwrap_or_default()
    })
}

/// Occupancy counters.
pub fn stats() -> RecorderStats {
    with_current(|t| match t.out().recorder.as_ref() {
        Some(s) => RecorderStats {
            buffered: s.ring.len() as u64,
            recorded: s.next_seq,
            overwritten: s.overwritten,
        },
        None => RecorderStats::default(),
    })
}

/// SplitMix64-style mixing (same construction the simulator uses),
/// local so the recorder stays std-only and dependency-free.
fn mix64(a: u64, b: u64, c: u64) -> u64 {
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
    use crate::Telemetry;

    #[test]
    fn disabled_recorder_costs_nothing_and_records_nothing() {
        let _in = Telemetry::new().enter();
        disable();
        assert!(!enabled());
        set_context("churn", 1);
        attempt(1, 2, 3);
        drop_fault(1, 2, 53, "burst", 4);
        assert!(drain().is_empty());
        assert_eq!(stats(), RecorderStats::default());
    }

    #[test]
    fn records_link_context_and_preserve_order() {
        let _in = Telemetry::new().enter();
        enable(1.0, 7, 1024);
        set_context("churn", 1);
        attempt(0x01020304, 42, 1000);
        drop_fault(0x0a000001, 0x01020304, 53, "burst", 1010);
        set_context("churn", 2);
        backoff(0, 1500, 1500);
        attempt(0x01020304, 42, 2500);
        drop_fault(0x01020304, 0x0a000001, 40_000, "flap", 2600);
        gave_up(0x01020304, 42, 2, 3000);
        clear_context();
        attempt(0x01020304, 42, 9999); // no context → not recorded
        let recs = drain();
        disable();
        assert_eq!(recs.len(), 6);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(recs[0].kind, RecordKind::Attempt);
        assert_eq!(recs[0].attempt, 1);
        assert_eq!(recs[1].reason, "burst");
        assert_eq!(recs[1].ip, 0x01020304, "query drop targets the dst");
        assert_eq!(recs[2].kind, RecordKind::Backoff);
        assert_eq!(recs[2].value, 1500);
        assert_eq!(recs[4].ip, 0x01020304, "reply drop targets the src");
        assert_eq!(recs[4].attempt, 2);
        assert_eq!(recs[5].kind, RecordKind::GaveUp);
    }

    #[test]
    fn sampling_is_all_or_none_per_ip_and_deterministic() {
        let _in = Telemetry::new().enter();
        enable(0.5, 99, 1 << 16);
        set_context("chaos", 1);
        for ip in 1..=2000u32 {
            attempt(ip, 0, 10);
            response(ip, 0, 20);
        }
        let recs = drain();
        let kept = recs.len() as u32;
        // Each sampled ip contributed exactly its attempt+response pair.
        assert!(kept > 0 && kept.is_multiple_of(2), "kept={kept}");
        let frac = (kept / 2) as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.1, "sample fraction {frac}");
        // Same seed and rate → same decisions.
        let first: Vec<u32> = recs.iter().map(|r| r.ip).collect();
        for ip in 1..=2000u32 {
            attempt(ip, 0, 10);
            response(ip, 0, 20);
        }
        let again: Vec<u32> = drain().iter().map(|r| r.ip).collect();
        clear_context();
        disable();
        assert_eq!(first, again);
    }

    #[test]
    fn captured_records_take_their_sequence_numbers_at_replay() {
        let tel = Telemetry::new();
        let _in = tel.enter();
        enable(1.0, 7, 1024);
        // A unit on a thread of its own, under a child handle.
        let unit = |k: u32| {
            let child = tel.child();
            let run = || {
                let _in = child.enter();
                set_context("churn", 1);
                attempt(k, 0, u64::from(k));
                response(k, 0, u64::from(k) + 1);
                clear_context();
            };
            std::thread::scope(|s| s.spawn(run).join().unwrap());
            child
        };
        // Kept 2, 1 on other threads, replayed 1, 2.
        let second = unit(2);
        let first = unit(1);
        assert_eq!(
            stats().recorded,
            0,
            "nothing reaches the ring before replay"
        );
        first.replay(0);
        second.replay(0);
        let recs = drain();
        disable();
        assert_eq!(
            recs.iter().map(|r| (r.seq, r.ip)).collect::<Vec<_>>(),
            vec![(0, 1), (1, 1), (2, 2), (3, 2)]
        );
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let _in = Telemetry::new().enter();
        enable(1.0, 1, 4);
        set_context("churn", 1);
        for i in 0..10u32 {
            attempt(1000 + i, 0, i as u64);
        }
        let s = stats();
        assert_eq!(s.buffered, 4);
        assert_eq!(s.recorded, 10);
        assert_eq!(s.overwritten, 6);
        let recs = drain();
        clear_context();
        disable();
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }
}
