//! Helpers shared by the integration tests of this crate.
#![allow(dead_code)] // each test binary uses a subset

use scanstore::Disk;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::panic::RefUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// One operation that changed a [`MemDisk`]'s tree, as logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Write(PathBuf, Vec<u8>),
    Sync(PathBuf),
    Rename(PathBuf, PathBuf),
    Remove(PathBuf),
    CreateDir(PathBuf),
}

/// Files by path, and the directories that exist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tree {
    pub files: BTreeMap<PathBuf, Vec<u8>>,
    pub dirs: BTreeSet<PathBuf>,
}

impl Tree {
    /// The files directly in `dir`, by name.
    pub fn files_in(&self, dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let inside = self.files.iter().filter(|(p, _)| p.parent() == Some(dir));
        let named = inside.map(|(p, b)| (p.file_name().unwrap().to_string_lossy(), b));
        named.map(|(n, b)| (n.into_owned(), b.clone())).collect()
    }
}

type Fails = Box<dyn Fn(&Op) -> bool + Send + Sync + RefUnwindSafe>;

/// An in-memory [`Disk`]. It logs every operation that changes its
/// tree, and fails, with nothing changed, each operation `fails` picks.
pub struct MemDisk {
    state: Mutex<(Tree, Vec<Op>)>,
    fails: Fails,
}

impl fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MemDisk")
    }
}

fn not_found(path: &Path) -> io::Error {
    let message = format!("{} not found", path.display());
    io::Error::new(io::ErrorKind::NotFound, message)
}

impl MemDisk {
    pub fn new(tree: Tree) -> MemDisk {
        MemDisk::failing(tree, |_| false)
    }

    pub fn failing(
        tree: Tree,
        fails: impl Fn(&Op) -> bool + Send + Sync + RefUnwindSafe + 'static,
    ) -> MemDisk {
        MemDisk {
            state: Mutex::new((tree, Vec::new())),
            fails: Box::new(fails),
        }
    }

    pub fn tree(&self) -> Tree {
        self.state.lock().unwrap().0.clone()
    }

    /// Every operation that changed the tree, in order.
    pub fn log(&self) -> Vec<Op> {
        self.state.lock().unwrap().1.clone()
    }

    /// Applies `op` if it may happen: its source exists, its target's
    /// directory exists and `fails` lets it through.
    fn apply(&self, op: Op) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        let (tree, log) = &mut *state;
        let exists = |p: &Path| tree.files.contains_key(p) || tree.dirs.contains(p);
        let dir_of = |p: &Path| p.parent().is_some_and(|d| tree.dirs.contains(d));
        match &op {
            Op::Write(p, _) if !dir_of(p) => return Err(not_found(p)),
            Op::Sync(p) | Op::Remove(p) if !exists(p) => return Err(not_found(p)),
            Op::Rename(from, to) if !tree.files.contains_key(from) || !dir_of(to) => {
                return Err(not_found(from))
            }
            _ if (self.fails)(&op) => return Err(io::Error::other("injected fault")),
            _ => {}
        }
        match &op {
            Op::Write(p, bytes) => drop(tree.files.insert(p.clone(), bytes.clone())),
            Op::Sync(_) => {}
            Op::Rename(from, to) => {
                let bytes = tree.files.remove(from).expect("checked above");
                tree.files.insert(to.clone(), bytes);
            }
            Op::Remove(p) => drop(tree.files.remove(p)),
            Op::CreateDir(p) => tree.dirs.extend(p.ancestors().map(Path::to_path_buf)),
        }
        log.push(op);
        Ok(())
    }
}

impl Disk for MemDisk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.state.lock().unwrap();
        state
            .0
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.apply(Op::Write(path.to_path_buf(), bytes.to_vec()))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.apply(Op::Sync(path.to_path_buf()))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.apply(Op::Rename(from.to_path_buf(), to.to_path_buf()))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.apply(Op::Remove(path.to_path_buf()))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let state = self.state.lock().unwrap();
        let tree = &state.0;
        if !tree.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let paths = tree.files.keys().chain(&tree.dirs);
        let inside = paths.filter(|p| p.parent() == Some(dir));
        let mut names: Vec<String> = inside
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        names.sort();
        Ok(names)
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        self.apply(Op::CreateDir(dir.to_path_buf()))
    }
}
