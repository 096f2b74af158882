//! Deterministic storage-fault injection for the serve-chaos harness.
//!
//! [`Faulty`] is the real disk with budgets: arming a [`FaultSpec`]
//! makes the next N manifest reads, segment reads or writes through
//! that handle fail as if the disk had. Manifest and segment reads are
//! the only way any reader reaches a store, so a fault fires on writer
//! opens and scrubs as well as on view opens and refreshes. The
//! serve-chaos harness hands one handle to its writer and its daemon to
//! trip the refresh circuit breaker, force reader rollbacks, and fail
//! writer commits without touching real hardware. Budgets belong to
//! the handle: a store opened on another handle never sees them.

use crate::disk::MANIFEST;
use crate::vfs::{Disk, StdDisk};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};

/// What to inject, armed via [`Faulty::arm`]. Budgets are operation
/// counts; a zero budget leaves that operation untouched.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Manifest reads to fail with an injected I/O error — the
    /// refresh path surfaces these as `StoreView::refresh` errors.
    pub manifest_read_errors: u32,
    /// Segment reads to fail — the segment check calls the file
    /// corrupt, so a reader rolls back to the longest valid prefix and
    /// a scrub reports `corrupt`.
    pub segment_corruptions: u32,
    /// Writes to fail with an injected disk-full error.
    pub write_enospc: u32,
}

/// [`StdDisk`] with per-handle fault budgets.
#[derive(Debug, Default)]
pub struct Faulty {
    manifest_reads: AtomicU32,
    segment_reads: AtomicU32,
    writes: AtomicU32,
}

impl Faulty {
    /// Replaces the budgets; `FaultSpec::default()` disarms.
    pub fn arm(&self, spec: &FaultSpec) {
        self.manifest_reads
            .store(spec.manifest_read_errors, Ordering::SeqCst);
        self.segment_reads
            .store(spec.segment_corruptions, Ordering::SeqCst);
        self.writes.store(spec.write_enospc, Ordering::SeqCst);
    }
}

/// Spends one shot of `budget` if it has one, counting the injection
/// under `kind`; the error is `message`.
fn take(budget: &AtomicU32, kind: &str, message: &str) -> io::Result<()> {
    let spent = budget.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
    if spent.is_err() {
        return Ok(());
    }
    telemetry::counter_with("scanstore.faults.injected", &[("kind", kind)]).inc();
    Err(io::Error::other(message))
}

impl Disk for Faulty {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let name = path.file_name().map(|n| n.to_string_lossy());
        let name = name.as_deref().unwrap_or("");
        if name == MANIFEST {
            let message = "injected fault: manifest read failed";
            take(&self.manifest_reads, "manifest_read", message)?;
        } else if name.starts_with("seg-") {
            let message = "injected fault: segment read failed";
            take(&self.segment_reads, "segment_read", message)?;
        }
        StdDisk.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        take(&self.writes, "write", "injected fault: disk full")?;
        StdDisk.write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        StdDisk.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdDisk.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        StdDisk.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        StdDisk.list(dir)
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        StdDisk.create_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    // Store-level coverage (opens, rollbacks, failed commits) is in
    // `tests/refresh_corruption.rs`; this test pins the gate itself.
    #[test]
    fn scope_and_budget_gate_injection() {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("gw-faults-scope-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join(MANIFEST);
        let segment = dir.join("seg-00001.gws");
        let notes = dir.join("notes.json");
        for path in [&manifest, &segment, &notes] {
            fs::write(path, b"{}").unwrap();
        }

        let faulty = Faulty::default();
        assert!(faulty.read(&manifest).is_ok(), "unarmed handle fired");

        faulty.arm(&FaultSpec {
            manifest_read_errors: 2,
            segment_corruptions: 1,
            write_enospc: 0,
        });
        let other = Faulty::default();
        assert!(
            other.read(&manifest).is_ok(),
            "budget leaked to another handle"
        );
        assert!(faulty.read(&notes).is_ok(), "non-store file was gated");
        assert!(faulty.read(&manifest).is_err());
        assert!(faulty.read(&manifest).is_err());
        assert!(
            faulty.read(&manifest).is_ok(),
            "budget not exhausted after two hits"
        );
        assert!(faulty.read(&segment).is_err());
        assert!(faulty.read(&segment).is_ok());
        assert!(faulty.write(&notes, b"[]").is_ok(), "zero budget fired");

        faulty.arm(&FaultSpec {
            manifest_read_errors: 5,
            ..FaultSpec::default()
        });
        faulty.arm(&FaultSpec::default());
        assert!(faulty.read(&manifest).is_ok(), "disarm left a budget");

        let _ = fs::remove_dir_all(&dir);
    }
}
