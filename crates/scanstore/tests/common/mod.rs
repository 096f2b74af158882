//! Helpers shared by the integration tests of this crate.

use std::path::PathBuf;

/// A scratch directory path under the system temp dir, emptied on
/// creation and removed on drop. The directory itself is left for the
/// store under test to create.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("scanstore-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
