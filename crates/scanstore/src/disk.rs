//! How a store directory is read, in one place: the manifest, the
//! check every committed segment must pass, the loader that reads the
//! longest prefix passing it, and the one [`SnapshotSource`] over what
//! the loader read. The writer ([`CampaignStore`](crate::CampaignStore)),
//! the view ([`StoreView`](crate::StoreView)) and the scrubber read a
//! store only through these, so they agree on what it holds.

use crate::record::{Observation, SnapshotDiff};
use crate::segment::{self, Segment};
use crate::source::{Snapshot, SnapshotSource};
use crate::vfs::Disk;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The manifest's file name within a store directory.
pub(crate) const MANIFEST: &str = "manifest.json";
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

/// The committed-segment index, rewritten atomically by the writer.
/// Readers ignore fields they do not know.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Manifest {
    pub(crate) version: u32,
    pub(crate) committed: u32,
    /// Rollbacks the writer has made, so a reader can tell that the
    /// segments it holds may no longer be the store's.
    pub(crate) recovery_events: u32,
    pub(crate) segments: Vec<SegmentEntry>,
}

impl Manifest {
    pub(crate) fn empty() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            committed: 0,
            recovery_events: 0,
            segments: Vec::new(),
        }
    }

    /// The entries the manifest commits, in commit order.
    pub(crate) fn committed_entries(&self) -> impl Iterator<Item = &SegmentEntry> {
        self.segments.iter().take(self.committed as usize)
    }
}

/// Reads `dir`'s manifest. A missing file is an empty store; `None`
/// means the bytes are not a manifest of this version — a foreign
/// file, not a torn write, since the writer replaces it atomically.
pub(crate) fn read_manifest(disk: &dyn Disk, dir: &Path) -> io::Result<Option<Manifest>> {
    match disk.read(&dir.join(MANIFEST)) {
        Ok(bytes) => Ok(serde_json::from_slice::<Manifest>(&bytes)
            .ok()
            .filter(|m| m.version == MANIFEST_VERSION)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Some(Manifest::empty())),
        Err(e) => Err(e),
    }
}

/// Why a committed segment failed the segment check, or `Ok`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentVerdict {
    /// Decoded cleanly and matches the manifest entry.
    Ok,
    /// The manifest lists the file but it is not on disk.
    Missing,
    /// On-disk size differs from the manifest's byte count (truncated
    /// or rewritten out-of-band).
    SizeMismatch { manifest: u64, disk: u64 },
    /// The bytes failed to decode: bad magic, CRC mismatch, torn tail.
    Corrupt { error: String },
    /// Decoded, but the segment header's sequence number disagrees
    /// with the manifest entry or the entry's position (files swapped
    /// or copied over each other, an entry listed twice).
    SeqMismatch { header: u32 },
}

impl SegmentVerdict {
    /// Short lowercase tag, used in reports and counter labels.
    pub fn tag(&self) -> &'static str {
        match self {
            SegmentVerdict::Ok => "ok",
            SegmentVerdict::Missing => "missing",
            SegmentVerdict::SizeMismatch { .. } => "size_mismatch",
            SegmentVerdict::Corrupt { .. } => "corrupt",
            SegmentVerdict::SeqMismatch { .. } => "seq_mismatch",
        }
    }
}

/// The one validity rule for the committed entry at `position`: its
/// file holds exactly the manifest's byte count, the bytes decode (CRC
/// included), and header seq == entry seq == position. Returns the
/// decoded segment, or the verdict that says why not.
pub(crate) fn check_segment(
    disk: &dyn Disk,
    dir: &Path,
    entry: &SegmentEntry,
    position: u32,
) -> Result<Segment, SegmentVerdict> {
    let corrupt = |error: String| SegmentVerdict::Corrupt { error };
    let bytes = disk
        .read(&dir.join(&entry.file))
        .map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => SegmentVerdict::Missing,
            _ => corrupt(e.to_string()),
        })?;
    if bytes.len() as u64 != entry.bytes {
        return Err(SegmentVerdict::SizeMismatch {
            manifest: entry.bytes,
            disk: bytes.len() as u64,
        });
    }
    let seg = segment::decode(&bytes).map_err(|e| corrupt(e.to_string()))?;
    if seg.seq != entry.seq || entry.seq != position {
        return Err(SegmentVerdict::SeqMismatch { header: seg.seq });
    }
    Ok(seg)
}

/// The committed segments of an on-disk store, in commit order, and
/// the string table they intern. Segments sit behind [`Arc`], so view
/// generations share the prefix they have in common.
#[derive(Debug, Clone)]
pub(crate) struct Committed {
    pub(crate) segments: Vec<Arc<Segment>>,
    pub(crate) strings: Arc<Vec<String>>,
}

impl Default for Committed {
    /// No segments; string id 0 is reserved for "absent".
    fn default() -> Committed {
        Committed {
            segments: Vec::new(),
            strings: Arc::new(vec![String::new()]),
        }
    }
}

impl Committed {
    /// Loads `manifest`'s committed entries from `dir`, starting after
    /// the ones already held and stopping at the first that fails
    /// [`check_segment`]. Returns whether every committed entry is now
    /// held.
    pub(crate) fn load(&mut self, disk: &dyn Disk, dir: &Path, manifest: &Manifest) -> bool {
        for entry in manifest.committed_entries().skip(self.segments.len()) {
            let Ok(mut seg) = check_segment(disk, dir, entry, self.segments.len() as u32) else {
                return false;
            };
            Arc::make_mut(&mut self.strings).append(&mut seg.new_strings);
            self.segments.push(Arc::new(seg));
        }
        self.segments.len() == manifest.committed as usize
    }
}

/// A store read through its [`Committed`] segments: the writer and the
/// view. Every such store is a [`SnapshotSource`] by the one impl
/// below.
pub(crate) trait OnDisk {
    /// The segments and string table the store reads from.
    fn committed(&self) -> &Committed;
}

impl<T: OnDisk> SnapshotSource for T {
    fn snapshot_count(&self) -> u32 {
        self.committed().segments.len() as u32
    }

    fn string(&self, id: u32) -> &str {
        let strings = &self.committed().strings;
        strings.get(id as usize).map_or("", String::as_str)
    }

    fn snapshot(&self, seq: u32) -> io::Result<Snapshot> {
        let segments = &self.committed().segments;
        let Some(seg) = segments.get(seq as usize) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no snapshot {seq}"),
            ));
        };
        let mut records = Vec::new();
        for stored in &segments[..=seq as usize] {
            records = stored.diff.apply(&records);
        }
        Ok(Snapshot {
            seq,
            label: seg.label.clone(),
            t_ms: seg.t_ms,
            meta: seg.meta.clone(),
            records,
        })
    }

    /// Single incremental replay over the stored deltas — each
    /// snapshot costs one `apply`, not a replay from scratch.
    fn for_each_snapshot(&self, f: &mut dyn FnMut(&Snapshot) -> io::Result<()>) -> io::Result<()> {
        let mut records: Vec<Observation> = Vec::new();
        for (seq, stored) in self.committed().segments.iter().enumerate() {
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

    /// Adjacent diffs are served straight from the stored delta ops —
    /// no snapshot materialization.
    fn diff(&self, seq: u32) -> io::Result<SnapshotDiff> {
        let next = seq.checked_add(1).filter(|&n| n < self.snapshot_count());
        let next = next.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no diff from {seq}"))
        })?;
        Ok(self.committed().segments[next as usize].diff.clone())
    }

    /// Labels are held in memory; no replay needed.
    fn find_label(&self, label: &str) -> Option<u32> {
        let segments = &self.committed().segments;
        segments
            .iter()
            .position(|s| s.label == label)
            .map(|i| i as u32)
    }
}
