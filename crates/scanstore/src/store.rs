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
//! the manifest says. A torn or corrupted segment inside the committed
//! prefix rolls the checkpoint back to the longest valid prefix and
//! counts a recovery event.
//!
//! [`begin_group`]: SnapshotSink::begin_group
//! [`end_group`]: SnapshotSink::end_group

use crate::record::{Observation, SnapshotDiff};
use crate::segment::{self, Kind, Segment};
use crate::sink::{ObservationSink, SnapshotSink};
use crate::source::{Snapshot, SnapshotSource};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const MANIFEST: &str = "manifest.json";
const MANIFEST_VERSION: u32 = 1;

/// Per-segment bookkeeping persisted in the manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// Sequence number (matches the segment header).
    pub seq: u32,
    /// File name within the store directory.
    pub file: String,
    /// Encoded size on disk, CRC included.
    pub bytes: u64,
    /// Upserted records in this segment.
    pub records: u64,
    /// Removed IPs in this segment.
    pub removed: u64,
    /// Size the same upserts would occupy as naive JSON lines.
    pub json_bytes: u64,
    /// Snapshot label.
    pub label: String,
    /// Snapshot timestamp.
    pub t_ms: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    committed: u32,
    recovery_events: u32,
    segments: Vec<SegmentEntry>,
}

impl Manifest {
    fn empty() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            committed: 0,
            recovery_events: 0,
            segments: Vec::new(),
        }
    }
}

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

/// A validated, replayable segment held in memory after `open`.
#[derive(Debug)]
struct StoredSegment {
    label: String,
    t_ms: u64,
    meta: Vec<(String, String)>,
    diff: SnapshotDiff,
}

/// Append-only, delta-encoded, crash-safe snapshot store rooted at a
/// directory.
#[derive(Debug)]
pub struct CampaignStore {
    dir: PathBuf,
    manifest: Manifest,
    segments: Vec<StoredSegment>,
    strings: Vec<String>,
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

impl CampaignStore {
    /// Opens (or creates) the store at `dir`, validating every
    /// committed segment. Corruption anywhere in the committed prefix
    /// rolls the checkpoint back to the longest valid prefix; orphan
    /// segments and temp files beyond the checkpoint are deleted.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<CampaignStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let (mut manifest, manifest_readable) = match fs::read(dir.join(MANIFEST)) {
            Ok(bytes) => match serde_json::from_slice::<Manifest>(&bytes) {
                Ok(m) if m.version == MANIFEST_VERSION => (m, true),
                _ => (Manifest::empty(), false),
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Manifest::empty(), true),
            Err(e) => return Err(e),
        };

        let mut store = CampaignStore {
            dir,
            manifest: Manifest::empty(),
            segments: Vec::new(),
            strings: vec![String::new()],
            ids: HashMap::new(),
            new_strings: Vec::new(),
            current: Vec::new(),
            pending: Vec::new(),
            resumed_at: None,
            staged: Vec::new(),
            grouping: false,
        };

        // Validate the committed prefix in order, rebuilding the string
        // table and the latest snapshot as we go.
        let crc_validations = telemetry::counter("scanstore.crc_validations");
        let mut valid = 0u32;
        for entry in manifest.segments.iter().take(manifest.committed as usize) {
            let ok = fs::read(store.dir.join(&entry.file))
                .ok()
                .and_then(|bytes| segment::decode(&bytes).ok())
                .filter(|seg| seg.seq == valid)
                .map(|seg| store.absorb(seg));
            match ok {
                Some(()) => {
                    valid += 1;
                    crc_validations.inc();
                }
                None => break,
            }
        }

        let mut recovered = !manifest_readable;
        if valid < manifest.committed {
            recovered = true;
        }
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
        for dirent in fs::read_dir(&store.dir)? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            let keep = name == MANIFEST || manifest.segments.iter().any(|e| e.file == name);
            if !keep && (name.starts_with("seg-") || name.ends_with(".tmp")) {
                let _ = fs::remove_file(dirent.path());
            }
        }

        if recovered || !manifest_readable {
            let bytes = serde_json::to_vec(&manifest)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            write_renamed(&store.dir, MANIFEST, &bytes, true)?;
        }

        store.resumed_at = if valid > 0 { Some(valid) } else { None };
        store.manifest = manifest;
        Ok(store)
    }

    /// Folds a validated segment into the in-memory replay state.
    fn absorb(&mut self, seg: Segment) {
        for s in &seg.new_strings {
            let id = self.strings.len() as u32;
            self.strings.push(s.clone());
            self.ids.insert(s.clone(), id);
        }
        self.current = seg.diff.apply(&self.current);
        self.segments.push(StoredSegment {
            label: seg.label,
            t_ms: seg.t_ms,
            meta: seg.meta,
            diff: seg.diff,
        });
    }

    /// Seals the checkpoint: makes every staged segment durable, and
    /// only then writes the manifest that names them.
    fn seal(&mut self) -> io::Result<()> {
        for file in &self.staged {
            fs::File::open(self.dir.join(file))?.sync_all()?;
        }
        sync_dir(&self.dir);
        let manifest_bytes = serde_json::to_vec(&self.manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_renamed(&self.dir, MANIFEST, &manifest_bytes, true)?;
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
        let diffs = self.segments.iter().map(|s| &s.diff);
        let (upserts, removed) = diffs.fold((0, 0), |sum, d| {
            (sum.0 + d.upserts.len(), sum.1 + d.removed.len())
        });
        let strings = self.strings.iter().map(|s| 2 * s.len());
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
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
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
        let seg = Segment {
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

        self.manifest.segments.push(SegmentEntry {
            seq,
            file,
            bytes: bytes.len() as u64,
            records: seg.diff.upserts.len() as u64,
            removed: seg.diff.removed.len() as u64,
            json_bytes,
            label: label.to_string(),
            t_ms,
        });
        self.manifest.committed = seq + 1;
        if !self.grouping {
            self.seal()?;
        }

        let reg = telemetry::global();
        reg.counter_with("scanstore.segments_written", &[("backend", "disk")])
            .inc();
        reg.counter("scanstore.bytes_written")
            .add(bytes.len() as u64);
        reg.counter("scanstore.json_bytes_equiv").add(json_bytes);
        reg.counter_with("scanstore.records_committed", &[("backend", "disk")])
            .add(seg.diff.upserts.len() as u64);
        telemetry::debug(
            "scanstore.commit",
            "segment committed",
            &[
                ("label", label.into()),
                ("seq", seq.into()),
                ("bytes", bytes.len().into()),
                ("records", seg.diff.upserts.len().into()),
            ],
            Some(t_ms),
        );

        self.current = records;
        self.segments.push(StoredSegment {
            label: seg.label,
            t_ms: seg.t_ms,
            meta: seg.meta,
            diff: seg.diff,
        });
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

impl SnapshotSource for CampaignStore {
    fn snapshot_count(&self) -> u32 {
        self.manifest.committed
    }

    fn string(&self, id: u32) -> &str {
        self.strings
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    fn snapshot(&self, seq: u32) -> io::Result<Snapshot> {
        if seq >= self.snapshot_count() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no snapshot {seq}"),
            ));
        }
        let mut records = Vec::new();
        for stored in &self.segments[..=seq as usize] {
            records = stored.diff.apply(&records);
        }
        let stored = &self.segments[seq as usize];
        Ok(Snapshot {
            seq,
            label: stored.label.clone(),
            t_ms: stored.t_ms,
            meta: stored.meta.clone(),
            records,
        })
    }

    /// Single incremental replay over the stored deltas — each
    /// snapshot costs one `apply`, not a replay from scratch.
    fn for_each_snapshot(&self, f: &mut dyn FnMut(&Snapshot) -> io::Result<()>) -> io::Result<()> {
        let mut records: Vec<Observation> = Vec::new();
        for (seq, stored) in self.segments.iter().enumerate() {
            records = stored.diff.apply(&records);
            let snap = Snapshot {
                seq: seq as u32,
                label: stored.label.clone(),
                t_ms: stored.t_ms,
                meta: stored.meta.clone(),
                records,
            };
            f(&snap)?;
            records = snap.records;
        }
        Ok(())
    }

    /// Labels are indexed in memory after `open`; no replay needed.
    fn find_label(&self, label: &str) -> Option<u32> {
        self.segments
            .iter()
            .position(|s| s.label == label)
            .map(|i| i as u32)
    }

    /// Adjacent diffs are served straight from the stored delta ops —
    /// no snapshot materialization.
    fn diff(&self, seq: u32) -> io::Result<SnapshotDiff> {
        let next = seq
            .checked_add(1)
            .filter(|&n| n < self.snapshot_count())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no diff from {seq}"))
            })?;
        Ok(self.segments[next as usize].diff.clone())
    }
}
