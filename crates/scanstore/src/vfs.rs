//! The store's file-system interface. Every byte a store reads or
//! writes goes through a [`Disk`] handle: the writer, the view and the
//! scrubber take one at open and make no file-system call of their own,
//! so a test or a chaos run can stand a fake in for the disk. The real
//! disk is [`StdDisk`]; this module is the only one in the store that
//! names `std::fs`, besides the recorder's append-only stream.

use std::fmt;
use std::fs;
use std::io;
use std::panic::RefUnwindSafe;
use std::path::Path;

/// The file operations a store makes. Paths are the store's own:
/// `<dir>/<name>`, never longer. A handle is shared between threads
/// and into `catch_unwind`, hence the bounds.
pub trait Disk: fmt::Debug + Send + Sync + RefUnwindSafe {
    /// The whole contents of the file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates the file at `path`, then writes `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Makes durable the contents of the file at `path` or, for a
    /// directory, the creates, renames and removes made in it.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Renames `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// The names of directory `dir`'s entries, sorted; an error when
    /// `dir` is not a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates `dir` and any missing parent.
    fn create_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The real disk, through `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdDisk;

impl Disk for StdDisk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for dirent in fs::read_dir(dir)? {
            names.push(dirent?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
}
