//! Helpers shared by the workloads: output digests, telemetry deltas, and
//! the scratch directory every file the benchmark writes lives under.

use std::path::{Path, PathBuf};
use telemetry::Snapshot;

/// Order-sensitive FNV-1a digest over everything fed to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit, so ("ab","c") and ("a","bc") differ.
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What the program's counters and gauges did between two snapshots of
/// the process-wide registry. The registry is never cleared: clearing
/// hides metrics whose handles the program caches in statics.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn between(before: Snapshot, after: Snapshot) -> Delta {
        Delta { before, after }
    }

    /// Increase of the counter registered under exactly `key`.
    pub fn counter(&self, key: &str) -> u64 {
        self.after
            .counter(key)
            .unwrap_or(0)
            .saturating_sub(self.before.counter(key).unwrap_or(0))
    }

    /// Summed increase of every counter whose key starts with `prefix`
    /// (a labeled family).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.after
            .counter_sum(prefix)
            .saturating_sub(self.before.counter_sum(prefix))
    }

    /// Wall-clock the program's own span `name` accumulated, in ns.
    pub fn span_wall_ns(&self, name: &str) -> u64 {
        self.counter(&format!("span.{name}.wall_us")) * 1_000
    }

    /// A gauge's value at the later snapshot (gauges are last-write-wins).
    pub fn gauge(&self, key: &str) -> f64 {
        self.after.gauge(key).unwrap_or(0.0)
    }
}

/// Root of everything the benchmark writes: `gwbench/` under Cargo's
/// target directory (`CARGO_TARGET_DIR`, else `target`), relative to the
/// working directory — which is the checkout root when run as
/// `BENCHMARK.json` says. Span files stay here; scratch stores go in
/// [`Scratch`] directories below it.
pub fn work_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("gwbench")
}

/// A scratch directory removed when dropped.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<work_root>/tmp/<label>-<pid>`, emptying any leftover.
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = work_root()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let of = |parts: &[&str]| {
            let mut d = Digest::new();
            parts.iter().for_each(|p| d.update(p.as_bytes()));
            d
        };
        assert_eq!(of(&["ab", "c"]), of(&["ab", "c"]));
        assert_ne!(of(&["ab", "c"]), of(&["a", "bc"]));
        assert_ne!(of(&["ab", "c"]), of(&["c", "ab"]));
        assert_eq!(of(&[]).hex(), "cbf29ce484222325");
    }
}
