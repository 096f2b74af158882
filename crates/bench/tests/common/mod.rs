//! Helpers shared by the `repro serve` integration tests of this crate.
#![allow(dead_code)]

use scanstore::{CampaignStore, Observation, ObservationSink, SnapshotSink};
use std::path::{Path, PathBuf};

/// A scratch directory under the system temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("gw-bench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `weekly` campaign under `root` with one committed week per entry
/// of `weeks`: week `i` (label `week-i`, at `(i + 1) * 1000` ms)
/// observes `0.0.0.1` through `0.0.0.{weeks[i]}`.
pub fn seed_weekly(root: &Path, weeks: &[u32]) {
    let mut store = CampaignStore::open(root.join("weekly")).unwrap();
    for (i, &ips) in weeks.iter().enumerate() {
        let t_ms = (i as u64 + 1) * 1_000;
        for ip in 1..=ips {
            store.observe(Observation::at(ip, 0, t_ms));
        }
        store.commit(&format!("week-{i}"), t_ms, &[]).unwrap();
    }
}
