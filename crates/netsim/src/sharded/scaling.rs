//! The critical-path scaling model: predict multi-worker speedup from
//! a single-core run (ROADMAP item 1, `repro shardstat`).
//!
//! # Model
//!
//! The sharded engine alternates a parallel phase (workers run hosts
//! and evaluate sends) with two serialized coordinator phases (routing
//! events out of the global heap; committing emissions in sequential
//! order). While scaling capture is enabled, the engine charges every
//! batch — one lookahead window or one `send_many` fan-out — in
//! abstract *work units*, one unit per delivery routed to a worker or
//! per emission it returned:
//!
//! - `route_units` / `commit_units`: serial coordinator work (events
//!   popped and routed; emissions committed — including inline sends,
//!   which stay serial at any worker count).
//! - per-shard work `w_i` per batch: deliveries assigned to shard `i`
//!   plus emissions it returned.
//!
//! For a hypothetical worker count `k`, the measured shards are folded
//! onto workers by `shard → shard mod k` — the same deterministic
//! partition the engine itself would use — and the batch's parallel
//! span is the heaviest folded group ([`fold_critical_path`]). Because
//! every batch is a barrier (the coordinator joins all workers before
//! committing), the predicted critical path is the sum over batches:
//!
//! ```text
//! T(k)       = route_units + commit_units + Σ_batches max_group(Σ w_i)
//! speedup(k) = T(1) / T(k)
//! ```
//!
//! This is Amdahl's law with the commit phase as the measured serial
//! term and a per-batch (not global) load-balance penalty. By
//! construction `T(1) = route + commit + Σ w_i`, so the 1-worker
//! "speedup" is exactly 1.0× — the sanity anchor the acceptance
//! criterion checks. Predictions for `k` greater than the measured
//! shard count cannot split the measured partitions further, so they
//! saturate: honest lower bounds, not extrapolations.
//!
//! # Capture protocol
//!
//! [`enable`] arms capture; each sharded engine then accumulates a
//! [`ScaleAcc`] and republishes its cumulative [`Measurement`] at
//! every telemetry flush; [`take`] disarms and returns the final
//! snapshot. The slot holds one measurement — the last engine to
//! flush wins — which fits the one-world `repro shardstat` workload
//! it exists for. All figures are deterministic in the seeded
//! workload, so shardstat reports are byte-identical across runs.

use super::ShardStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Hypothetical worker counts the model folds onto. Index-aligned
/// with [`Measurement::cp_units`].
pub const FOLD_WORKERS: [usize; 5] = [1, 2, 4, 8, 16];

/// The parallel span of one batch on `workers` workers: measured
/// shards fold onto workers by `shard mod workers`, and the span is
/// the heaviest group's total work. With `workers >= work.len()` no
/// further splitting is possible, so the span saturates at the
/// heaviest single shard.
pub fn fold_critical_path(work: &[u64], workers: usize) -> u64 {
    let groups = workers.min(work.len());
    if groups == 0 {
        return 0;
    }
    let mut heaviest = 0u64;
    for first in 0..groups {
        let sum: u64 = work.iter().skip(first).step_by(groups).sum();
        heaviest = heaviest.max(sum);
    }
    heaviest
}

/// Per-engine scaling accumulator (cumulative over the engine's life).
pub(crate) struct ScaleAcc {
    batches: u64,
    route_units: u64,
    /// `udp_sent` when capture began: every send since — batched or
    /// inline — was one serial commit.
    sent_base: u64,
    total_work_units: u64,
    work: Vec<u64>,
    cp_units: [u64; FOLD_WORKERS.len()],
}

impl ScaleAcc {
    pub(crate) fn new(shards: usize, udp_sent: u64) -> ScaleAcc {
        ScaleAcc {
            batches: 0,
            route_units: 0,
            sent_base: udp_sent,
            total_work_units: 0,
            work: vec![0; shards],
            cp_units: [0; FOLD_WORKERS.len()],
        }
    }

    /// Charges one barrier-delimited batch: `work[i]` units ran on
    /// shard `i` and `routed` events were popped serially before it.
    pub(crate) fn record_batch(&mut self, work: &[u64], routed: u64) {
        self.batches += 1;
        self.route_units += routed;
        for (i, &w) in work.iter().enumerate() {
            self.work[i] += w;
            self.total_work_units += w;
        }
        for (ki, &k) in FOLD_WORKERS.iter().enumerate() {
            self.cp_units[ki] += fold_critical_path(work, k);
        }
    }

    /// The publishable cumulative snapshot, paired with the engine's
    /// deterministic shard accounting and its current `udp_sent`.
    pub(crate) fn measurement(&self, stats: &ShardStats, udp_sent: u64) -> Measurement {
        Measurement {
            stats: stats.clone(),
            batches: self.batches,
            route_units: self.route_units,
            commit_units: udp_sent - self.sent_base,
            total_work_units: self.total_work_units,
            work: self.work.clone(),
            cp_units: self.cp_units.to_vec(),
        }
    }
}

/// Everything the scaling report needs, captured from one engine:
/// deterministic shard accounting plus the work/critical-path totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Measurement {
    /// The engine's [`ShardStats`] at the last flush.
    pub stats: ShardStats,
    /// Barrier-delimited batches charged (windows + `send_many` fans).
    pub batches: u64,
    /// Serial routing work: events popped from the global heap.
    pub route_units: u64,
    /// Serial commit work: emissions committed (incl. inline sends).
    pub commit_units: u64,
    /// Total parallel work across all shards.
    pub total_work_units: u64,
    /// Cumulative work per measured shard.
    pub work: Vec<u64>,
    /// Critical-path units per [`FOLD_WORKERS`] entry (index-aligned).
    pub cp_units: Vec<u64>,
}

/// One row of the speedup table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Hypothetical worker count.
    pub workers: usize,
    /// Modeled runtime in work units: serial + critical path.
    pub t_units: u64,
    /// `T(1) / T(workers)`; exactly 1.0 at one worker.
    pub speedup_x: f64,
}

/// The modeled serial fraction: serial units over `T(1)`.
pub fn serial_fraction(m: &Measurement) -> f64 {
    let serial = m.route_units + m.commit_units;
    let t1 = serial + m.total_work_units;
    if t1 == 0 {
        return 0.0;
    }
    serial as f64 / t1 as f64
}

/// Speedup predictions at every [`FOLD_WORKERS`] count.
pub fn predictions(m: &Measurement) -> Vec<Prediction> {
    let serial = m.route_units + m.commit_units;
    let t1 = serial + m.total_work_units;
    FOLD_WORKERS
        .iter()
        .zip(m.cp_units.iter().chain(std::iter::repeat(&0)))
        .map(|(&workers, &cp)| {
            let t_units = serial + cp;
            Prediction {
                workers,
                t_units,
                speedup_x: if t_units == 0 {
                    1.0
                } else {
                    t1 as f64 / t_units as f64
                },
            }
        })
        .collect()
}

// ------------------------------------------------------- capture slot

static CAPTURING: AtomicBool = AtomicBool::new(false);
static SLOT: Mutex<Option<Measurement>> = Mutex::new(None);

/// Arms scaling capture, clearing any prior measurement. Engines
/// created or run after this start charging work units.
pub fn enable() {
    let mut g = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    *g = Some(Measurement::default());
    CAPTURING.store(true, Ordering::SeqCst);
}

/// True while capture is armed (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    CAPTURING.load(Ordering::Relaxed)
}

/// Replaces the captured measurement with an engine's cumulative
/// snapshot. A no-op while capture is off.
pub(crate) fn publish(m: Measurement) {
    if !enabled() {
        return;
    }
    let mut g = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    *g = Some(m);
}

/// Disarms capture and returns the last published measurement, or
/// `None` if capture was never armed (or nothing flushed).
pub fn take() -> Option<Measurement> {
    CAPTURING.store(false, Ordering::SeqCst);
    let mut g = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    g.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_critical_path_matches_hand_folds() {
        // Balanced: 4 shards of 10 → halves at 2 workers, flat at 4+.
        assert_eq!(fold_critical_path(&[10, 10, 10, 10], 1), 40);
        assert_eq!(fold_critical_path(&[10, 10, 10, 10], 2), 20);
        assert_eq!(fold_critical_path(&[10, 10, 10, 10], 4), 10);
        assert_eq!(fold_critical_path(&[10, 10, 10, 10], 8), 10);
        // Imbalanced: the heaviest group dominates. shard mod 2 groups
        // {0,2} and {1,3}: 30+5=35 vs 10+5=15.
        assert_eq!(fold_critical_path(&[30, 10, 5, 5], 2), 35);
        assert_eq!(fold_critical_path(&[30, 10, 5, 5], 4), 30);
        // Edges.
        assert_eq!(fold_critical_path(&[], 4), 0);
        assert_eq!(fold_critical_path(&[7], 0), 0);
    }

    fn measure(batches: &[&[u64]], route: u64, commit: u64) -> Measurement {
        let shards = batches.first().map(|b| b.len()).unwrap_or(0);
        let mut acc = ScaleAcc::new(shards, 0);
        for (i, b) in batches.iter().enumerate() {
            // Attribute the routing term to the first batch only; the
            // model sums it, so the split does not matter.
            acc.record_batch(b, if i == 0 { route } else { 0 });
        }
        acc.measurement(&ShardStats::new(shards, 1, Default::default()), commit)
    }

    #[test]
    fn perfectly_parallel_work_scales_linearly_to_the_shard_count() {
        // No serial term, balanced work: speedup(k) = min(k, shards),
        // saturating once the measured partition cannot split further.
        let m = measure(&[&[100, 100, 100, 100]], 0, 0);
        let p = predictions(&m);
        let speedups: Vec<f64> = p.iter().map(|p| p.speedup_x).collect();
        assert_eq!(speedups, vec![1.0, 2.0, 4.0, 4.0, 4.0]);
        assert_eq!(p[0].t_units, 400);
        assert_eq!(serial_fraction(&m), 0.0);
    }

    #[test]
    fn amdahl_serial_term_caps_speedup() {
        // serial = 100, parallel = 400 balanced over 4 shards:
        // T(k) = 100 + 400/k for k <= 4 — the closed Amdahl form.
        let m = measure(&[&[100, 100, 100, 100]], 60, 40);
        let p = predictions(&m);
        assert_eq!(p[0].t_units, 500);
        assert!((p[0].speedup_x - 1.0).abs() < 1e-12, "anchor is exact");
        assert!((p[1].speedup_x - 500.0 / 300.0).abs() < 1e-12);
        assert!((p[2].speedup_x - 500.0 / 200.0).abs() < 1e-12);
        assert!((p[3].speedup_x - 2.5).abs() < 1e-12, "saturates past 4");
        assert!((serial_fraction(&m) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn per_batch_barriers_penalize_imbalance() {
        // Two batches, each lopsided toward a different shard. A
        // global fold would see balanced totals [30, 30]; the per-
        // batch barrier model correctly pays the heavy shard twice.
        let m = measure(&[&[25, 5], &[5, 25]], 0, 0);
        let p = predictions(&m);
        assert_eq!(p[1].t_units, 50, "25 + 25, not 30");
        assert!((p[1].speedup_x - 60.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn capture_slot_round_trips_and_gates() {
        // Single test for all global-slot behaviour (shared state).
        assert!(take().is_none(), "virgin slot is empty");
        publish(measure(&[&[1, 1]], 0, 0));
        assert!(take().is_none(), "publish while disarmed is dropped");
        enable();
        assert!(enabled());
        let m = measure(&[&[3, 4]], 2, 1);
        publish(m.clone());
        let got = take().expect("armed capture returns the snapshot");
        assert_eq!(got, m);
        assert!(!enabled(), "take disarms");
        assert!(take().is_none(), "slot drained");
    }
}
