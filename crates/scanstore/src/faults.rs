//! Deterministic storage-fault injection for the serve-chaos harness.
//!
//! The shim sits on three choke points of the store's I/O: the
//! manifest read and the segment check of `disk.rs`, and atomic writes
//! ([`store`]). The two read points are the only way any reader reaches
//! the disk, so they fire on writer opens and scrubs inside an armed
//! scope as well as on view opens and refreshes. Arming a
//! [`FaultSpec`] makes the next N operations at each point fail as if
//! the disk had; the serve-chaos harness uses this to trip the refresh
//! circuit breaker, force reader rollbacks, and fail writer commits
//! without touching real hardware.
//!
//! The shim is process-global but **scope-filtered**: a fault only
//! fires for paths containing the armed scope substring (typically
//! the chaos run's scratch directory), so concurrent tests in the
//! same process never trip each other's faults. While disarmed the
//! cost on the store's I/O paths is a single relaxed atomic load.
//!
//! [`store`]: crate::store

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

/// What to inject, armed via [`arm`]. Budgets are per-choke-point
/// operation counts; a zero budget leaves that point untouched.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Substring a path must contain for any fault to fire. An empty
    /// scope matches nothing (arming is then a no-op).
    pub scope: String,
    /// Manifest reads to fail with an injected I/O error — the
    /// refresh path surfaces these as `StoreView::refresh` errors.
    pub manifest_read_errors: u32,
    /// Segment checks to fail as if the file were corrupt — a reader
    /// rolls back to the longest valid prefix, a scrub reports
    /// `corrupt`.
    pub segment_corruptions: u32,
    /// Atomic writes to fail with an injected disk-full error.
    pub write_enospc: u32,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static MANIFEST_READS: AtomicU32 = AtomicU32::new(0);
static SEGMENT_READS: AtomicU32 = AtomicU32::new(0);
static WRITES: AtomicU32 = AtomicU32::new(0);
static SCOPE: Mutex<String> = Mutex::new(String::new());

/// Arms the shim, replacing any previously armed spec.
pub fn arm(spec: &FaultSpec) {
    *SCOPE.lock().unwrap() = spec.scope.clone();
    MANIFEST_READS.store(spec.manifest_read_errors, Ordering::SeqCst);
    SEGMENT_READS.store(spec.segment_corruptions, Ordering::SeqCst);
    WRITES.store(spec.write_enospc, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the shim; unspent budgets are dropped.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    MANIFEST_READS.store(0, Ordering::SeqCst);
    SEGMENT_READS.store(0, Ordering::SeqCst);
    WRITES.store(0, Ordering::SeqCst);
    SCOPE.lock().unwrap().clear();
}

/// True when `path` is inside the armed scope and `budget` still has
/// shots left; a hit decrements the budget.
fn take(path: &Path, budget: &AtomicU32) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    {
        let scope = SCOPE.lock().unwrap();
        if scope.is_empty() || !path.to_string_lossy().contains(scope.as_str()) {
            return false;
        }
    }
    budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// Injected failure for a manifest read, if armed for `path`.
pub(crate) fn manifest_read_error(path: &Path) -> Option<io::Error> {
    take(path, &MANIFEST_READS).then(|| {
        telemetry::counter_with("scanstore.faults.injected", &[("kind", "manifest_read")]).inc();
        io::Error::other("injected fault: manifest read failed")
    })
}

/// Whether a segment decode should be treated as torn, if armed for
/// `path`.
pub(crate) fn segment_corrupt(path: &Path) -> bool {
    let hit = take(path, &SEGMENT_READS);
    if hit {
        telemetry::counter_with("scanstore.faults.injected", &[("kind", "segment_read")]).inc();
    }
    hit
}

/// Injected disk-full failure for an atomic write, if armed for
/// `path`.
pub(crate) fn write_error(path: &Path) -> Option<io::Error> {
    take(path, &WRITES).then(|| {
        telemetry::counter_with("scanstore.faults.injected", &[("kind", "write")]).inc();
        io::Error::other("injected fault: disk full")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    // Arm/disarm state is process-global single-slot, so everything
    // that arms lives in this one test; concurrent-arming coverage is
    // in `tests/refresh_corruption.rs`, which exercises the real I/O
    // choke points.
    #[test]
    fn scope_and_budget_gate_injection() {
        let inside = PathBuf::from("/tmp/gw-faults-scope-a/manifest.json");
        let outside = PathBuf::from("/tmp/other/manifest.json");

        disarm();
        assert!(
            manifest_read_error(&inside).is_none(),
            "disarmed shim fired"
        );

        arm(&FaultSpec {
            scope: "gw-faults-scope-a".to_string(),
            manifest_read_errors: 2,
            segment_corruptions: 1,
            write_enospc: 0,
        });
        assert!(
            manifest_read_error(&outside).is_none(),
            "scope filter leaked"
        );
        assert!(manifest_read_error(&inside).is_some());
        assert!(manifest_read_error(&inside).is_some());
        assert!(
            manifest_read_error(&inside).is_none(),
            "budget not exhausted after two hits"
        );
        assert!(segment_corrupt(&inside));
        assert!(!segment_corrupt(&inside));
        assert!(write_error(&inside).is_none(), "zero budget fired");

        disarm();
        assert!(manifest_read_error(&inside).is_none());
    }
}
