//! The persistent campaign store.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/manifest.json   — committed-segment index, atomic-renamed
//! <dir>/seg-00000.gws   — snapshot 0 (full encoding)
//! <dir>/seg-00001.gws   — snapshot 1 (delta vs 0)
//! …
//! ```
//!
//! Commit protocol: the segment file is written to `*.tmp` and renamed
//! into place (*staged*); then the checkpoint is *sealed* — every
//! staged segment fsynced, the directory fsynced, and only then the
//! manifest rewritten (tmp, fsync, rename, directory fsync). The one
//! ordering invariant: **no manifest ever names a segment that is not
//! durable.** A commit on its own seals at once; inside
//! [`begin_group`]…[`end_group`] commits only stage, and the group's
//! end seals them all under one manifest — the fsyncs are issued after
//! the last write instead of between writes, which is what an
//! all-or-nothing campaign of hundreds of small snapshots wants.
//!
//! A crash (or an error) before the seal leaves orphan segments that
//! the next [`CampaignStore::open`] deletes — the checkpoint is whatever
//! the manifest says. A segment inside the committed prefix that fails
//! the one segment check (`disk.rs`, which the view and the
//! scrubber read by too) rolls the checkpoint back to the longest valid
//! prefix and counts a recovery event.
//!
//! [`begin_group`]: SnapshotSink::begin_group
//! [`end_group`]: SnapshotSink::end_group

use crate::disk::{read_manifest, Committed, Manifest, OnDisk, SegmentEntry, MANIFEST};
use crate::record::{Observation, SnapshotDiff};
use crate::segment::{self, Kind, Segment};
use crate::sink::{ObservationSink, SnapshotSink};
use serde::Serialize;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store-level statistics surfaced in the `repro` report.
#[derive(Debug, Clone, Serialize)]
pub struct StoreStats {
    /// Committed segments.
    pub segments: u32,
    /// Records in the latest snapshot.
    pub live_records: u64,
    /// Total upserted records across all segments.
    pub upserts_total: u64,
    /// Total removed IPs across all segments.
    pub removed_total: u64,
    /// Bytes on disk across committed segments.
    pub bytes_written: u64,
    /// Bytes the same upserts would occupy as naive JSON lines.
    pub json_bytes_equiv: u64,
    /// `json_bytes_equiv / bytes_written` (0 when empty).
    pub compression_ratio: f64,
    /// Checkpoint rollbacks observed across the store's lifetime.
    pub recovery_events: u32,
    /// Set when `open` found committed segments to resume from.
    pub resumed_at: Option<u32>,
}

/// Append-only, delta-encoded, crash-safe snapshot store rooted at a
/// directory.
#[derive(Debug)]
pub struct CampaignStore {
    dir: PathBuf,
    manifest: Manifest,
    /// Every commit, staged or sealed, and every interned string,
    /// committed or not.
    disk: Committed,
    ids: HashMap<String, u32>,
    new_strings: Vec<String>,
    current: Vec<Observation>,
    pending: Vec<Observation>,
    resumed_at: Option<u32>,
    /// Segment files staged since the last seal — renamed into place,
    /// named by `manifest` in memory, not yet fsynced or on disk in a
    /// manifest.
    staged: Vec<String>,
    /// Inside `begin_group`…`end_group`: commits stage, the end seals.
    grouping: bool,
}

fn seg_file_name(seq: u32) -> String {
    format!("seg-{seq:05}.gws")
}

/// Makes a rename inside `dir` durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `bytes` to `dir/name` via tmp + rename, so the name holds the
/// old contents (or nothing) or the new, whole. With `durable` the
/// contents are fsynced before the rename and the rename after it —
/// the manifest, which is replaced in place and must survive a crash
/// at any point. Without, nothing is synced: a staged segment, which
/// nothing names until [`CampaignStore::seal`] has fsynced it, so a
/// crash before that leaves at worst an orphan.
fn write_renamed(dir: &Path, name: &str, bytes: &[u8], durable: bool) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let dst = dir.join(name);
    if let Some(e) = crate::faults::write_error(&dst) {
        return Err(e);
    }
    fs::write(&tmp, bytes)?;
    if durable {
        fs::File::open(&tmp)?.sync_all()?;
    }
    fs::rename(&tmp, &dst)?;
    if durable {
        sync_dir(dir);
    }
    Ok(())
}

fn json_line_bytes(records: &[Observation]) -> u64 {
    records
        .iter()
        .map(|o| {
            serde_json::to_string(o)
                .map(|s| s.len() as u64 + 1)
                .unwrap_or(0)
        })
        .sum()
}

/// Replaces the manifest durably.
fn write_manifest(dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let bytes = serde_json::to_vec(manifest)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_renamed(dir, MANIFEST, &bytes, true)
}

impl CampaignStore {
    /// Opens (or creates) the store at `dir`, loading the committed
    /// prefix that passes the segment check. A failure anywhere in it
    /// rolls the checkpoint back to the longest valid prefix and counts
    /// a recovery; orphan segments and temp files beyond the checkpoint
    /// are deleted.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<CampaignStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let read = read_manifest(&dir)?;
        let manifest_readable = read.is_some();
        let mut manifest = read.unwrap_or_else(Manifest::empty);
        let mut disk = Committed::default();
        let recovered = !disk.load(&dir, &manifest) || !manifest_readable;
        let valid = disk.segments.len() as u32;
        telemetry::counter("scanstore.crc_validations").add(u64::from(valid));

        manifest.committed = valid;
        manifest.segments.truncate(valid as usize);
        if recovered {
            manifest.recovery_events += 1;
            telemetry::counter("scanstore.recovery_rollbacks").inc();
            telemetry::warn(
                "scanstore.recover",
                "rolled checkpoint back to longest valid prefix",
                &[("committed", valid.into())],
                None,
            );
        }

        // Delete anything past the checkpoint: orphan segments from a
        // crash mid-commit, stray temp files, segments beyond a rollback.
        for dirent in fs::read_dir(&dir)? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            let keep = name == MANIFEST || manifest.segments.iter().any(|e| e.file == name);
            if !keep && (name.starts_with("seg-") || name.ends_with(".tmp")) {
                let _ = fs::remove_file(dirent.path());
            }
        }
        if recovered {
            write_manifest(&dir, &manifest)?;
        }

        let ids = disk.strings.iter().enumerate().skip(1);
        let ids = ids.map(|(id, s)| (s.clone(), id as u32)).collect();
        let current = disk
            .segments
            .iter()
            .fold(Vec::new(), |records, seg| seg.diff.apply(&records));
        Ok(CampaignStore {
            dir,
            manifest,
            disk,
            ids,
            new_strings: Vec::new(),
            current,
            pending: Vec::new(),
            resumed_at: (valid > 0).then_some(valid),
            staged: Vec::new(),
            grouping: false,
        })
    }

    /// Seals the checkpoint: makes every staged segment durable, and
    /// only then writes the manifest that names them.
    fn seal(&mut self) -> io::Result<()> {
        for file in &self.staged {
            fs::File::open(self.dir.join(file))?.sync_all()?;
        }
        sync_dir(&self.dir);
        write_manifest(&self.dir, &self.manifest)?;
        self.staged.clear();
        Ok(())
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of snapshots the campaign may skip on resume (equals the
    /// committed-segment count; `None` when the store was empty).
    pub fn resumed_at(&self) -> Option<u32> {
        self.resumed_at
    }

    /// Resident bytes, from lengths: every segment's delta is held
    /// decoded, beside the current snapshot, uncommitted observations
    /// and the string table (each string twice, by id and as key).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let diffs = self.disk.segments.iter().map(|s| &s.diff);
        let (upserts, removed) = diffs.fold((0, 0), |sum, d| {
            (sum.0 + d.upserts.len(), sum.1 + d.removed.len())
        });
        let strings = self.disk.strings.iter().map(|s| 2 * s.len());
        (upserts + self.current.len() + self.pending.len()) * size_of::<Observation>()
            + removed * size_of::<u32>()
            + strings.sum::<usize>()
    }

    /// Current store statistics.
    pub fn stats(&self) -> StoreStats {
        let bytes_written: u64 = self.manifest.segments.iter().map(|e| e.bytes).sum();
        let json_bytes: u64 = self.manifest.segments.iter().map(|e| e.json_bytes).sum();
        StoreStats {
            segments: self.manifest.committed,
            live_records: self.current.len() as u64,
            upserts_total: self.manifest.segments.iter().map(|e| e.records).sum(),
            removed_total: self.manifest.segments.iter().map(|e| e.removed).sum(),
            bytes_written,
            json_bytes_equiv: json_bytes,
            compression_ratio: if bytes_written > 0 {
                json_bytes as f64 / bytes_written as f64
            } else {
                0.0
            },
            recovery_events: self.manifest.recovery_events,
            resumed_at: self.resumed_at,
        }
    }
}

impl ObservationSink for CampaignStore {
    fn observe(&mut self, obs: Observation) {
        self.pending.push(obs);
    }

    fn intern(&mut self, s: &str) -> u32 {
        if s.is_empty() {
            return 0;
        }
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.disk.strings.len() as u32;
        Arc::make_mut(&mut self.disk.strings).push(s.to_string());
        self.ids.insert(s.to_string(), id);
        self.new_strings.push(s.to_string());
        id
    }
}

impl SnapshotSink for CampaignStore {
    fn commit(&mut self, label: &str, t_ms: u64, meta: &[(String, String)]) -> io::Result<u32> {
        let seq = self.manifest.committed;
        let records = crate::memory::seal_pending(&mut self.pending);
        let diff = SnapshotDiff::between(&self.current, &records);
        let json_bytes = json_line_bytes(&diff.upserts);
        let mut seg = Segment {
            seq,
            t_ms,
            kind: if seq == 0 { Kind::Full } else { Kind::Delta },
            label: label.to_string(),
            meta: meta.to_vec(),
            new_strings: std::mem::take(&mut self.new_strings),
            diff,
        };
        let bytes = segment::encode(&seg);
        let file = seg_file_name(seq);
        write_renamed(&self.dir, &file, &bytes, false)?;
        self.staged.push(file.clone());

        let upserts = seg.diff.upserts.len();
        self.manifest.segments.push(SegmentEntry {
            seq,
            file,
            bytes: bytes.len() as u64,
            records: upserts as u64,
            removed: seg.diff.removed.len() as u64,
            json_bytes,
            label: label.to_string(),
            t_ms,
        });
        self.manifest.committed = seq + 1;
        // `intern` already put this segment's strings in the table.
        seg.new_strings = Vec::new();
        self.disk.segments.push(Arc::new(seg));
        self.current = records;
        if !self.grouping {
            self.seal()?;
        }

        telemetry::counter_with("scanstore.segments_written", &[("backend", "disk")]).inc();
        telemetry::counter("scanstore.bytes_written").add(bytes.len() as u64);
        telemetry::counter("scanstore.json_bytes_equiv").add(json_bytes);
        telemetry::counter_with("scanstore.records_committed", &[("backend", "disk")])
            .add(upserts as u64);
        telemetry::debug(
            "scanstore.commit",
            "segment committed",
            &[
                ("label", label.into()),
                ("seq", seq.into()),
                ("bytes", bytes.len().into()),
                ("records", upserts.into()),
            ],
            Some(t_ms),
        );
        Ok(seq)
    }

    fn begin_group(&mut self) {
        self.grouping = true;
    }

    fn end_group(&mut self) -> io::Result<()> {
        self.grouping = false;
        if self.staged.is_empty() {
            return Ok(());
        }
        self.seal()
    }
}

impl OnDisk for CampaignStore {
    fn committed(&self) -> &Committed {
        &self.disk
    }
}
