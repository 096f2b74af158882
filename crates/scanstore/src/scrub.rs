//! Store integrity scrub: put every committed segment through the one
//! segment check (`disk.rs`: size, CRC, sequence) and report a
//! per-segment verdict. Read-only — scrubbing
//! never repairs, deletes, or rewrites anything; the writer's own
//! open-time recovery stays the only mutating path.
//!
//! Backs the daemon's `/admin/scrub` endpoint and the `repro scrub`
//! CLI (DESIGN §13).

use crate::disk::{check_segment, read_manifest, SegmentVerdict};
use crate::vfs::Disk;
use std::io;
use std::path::Path;

/// One scrubbed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    pub seq: u32,
    pub file: String,
    pub verdict: SegmentVerdict,
}

/// The scrub result for one store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Committed segment count per the manifest.
    pub committed: u32,
    /// Whether the manifest was absent-or-parsable. A missing
    /// manifest is an empty-but-valid store; an unparsable or
    /// wrong-version one is not.
    pub manifest_ok: bool,
    /// Per-segment verdicts over the committed prefix, in manifest
    /// order.
    pub segments: Vec<SegmentReport>,
    /// Segment or temp files on disk outside the committed set.
    /// Orphans are normal after a crash mid-commit (the next writer
    /// open deletes them) and do not make a store unhealthy.
    pub orphans: Vec<String>,
}

impl ScrubReport {
    /// The manifest parsed, lists every segment it commits, and each
    /// passed the check — exactly when a view opens without rolling
    /// back.
    pub fn healthy(&self) -> bool {
        self.manifest_ok
            && self.segments.len() == self.committed as usize
            && self.bad_segments() == 0
    }

    /// Committed segments that failed the scrub.
    pub fn bad_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.verdict != SegmentVerdict::Ok)
            .count()
    }

    /// Writes the report's members into `o` in a fixed key order.
    pub fn write_json(&self, o: &mut telemetry::json::Object<'_>) {
        o.field("healthy", self.healthy());
        o.field("manifest_ok", self.manifest_ok);
        o.field("committed", self.committed);
        o.array("segments", |a| {
            for s in &self.segments {
                a.object(|o| {
                    o.field("seq", s.seq);
                    o.field("file", &s.file);
                    o.field("verdict", s.verdict.tag());
                    match &s.verdict {
                        SegmentVerdict::SizeMismatch { manifest, disk } => {
                            o.field("manifest_bytes", manifest);
                            o.field("disk_bytes", disk);
                        }
                        SegmentVerdict::Corrupt { error } => o.field("error", error),
                        SegmentVerdict::SeqMismatch { header } => o.field("header_seq", header),
                        SegmentVerdict::Ok | SegmentVerdict::Missing => {}
                    }
                });
            }
        });
        o.field("orphans", self.orphans.as_slice());
    }
}

/// Scrubs one store directory: reads the manifest and puts every
/// committed segment through the check the writer and the view load
/// by, reporting each verdict rather than stopping at the first.
pub fn scrub_store(disk: &dyn Disk, dir: &Path) -> io::Result<ScrubReport> {
    let Some(manifest) = read_manifest(disk, dir)? else {
        telemetry::counter("scanstore.scrub.bad_manifests").inc();
        return Ok(ScrubReport {
            committed: 0,
            manifest_ok: false,
            segments: Vec::new(),
            orphans: Vec::new(),
        });
    };

    let mut segments = Vec::new();
    for (position, entry) in manifest.committed_entries().enumerate() {
        let checked = check_segment(disk, dir, entry, position as u32).err();
        let verdict = checked.unwrap_or(SegmentVerdict::Ok);
        telemetry::counter_with("scanstore.scrub.segments", &[("verdict", verdict.tag())]).inc();
        segments.push(SegmentReport {
            seq: entry.seq,
            file: entry.file.clone(),
            verdict,
        });
    }

    let mut orphans = Vec::new();
    for name in disk.list(dir)? {
        let looks_like_segment = name.starts_with("seg-") || name.ends_with(".tmp");
        if looks_like_segment && !segments.iter().any(|s| s.file == name) {
            orphans.push(name);
        }
    }

    telemetry::counter("scanstore.scrub.runs").inc();
    Ok(ScrubReport {
        committed: manifest.committed,
        manifest_ok: true,
        segments,
        orphans,
    })
}

/// Scrubs every store of [`campaign_dirs`](crate::campaign_dirs)`(root)`,
/// the stores the serve engine opens.
pub fn scrub_root(disk: &dyn Disk, root: &Path) -> io::Result<Vec<(String, ScrubReport)>> {
    let not_a_dir = |_| {
        let message = format!("store root {} is not a directory", root.display());
        io::Error::new(io::ErrorKind::NotFound, message)
    };
    crate::campaign_dirs(disk, root)
        .map_err(not_a_dir)?
        .into_iter()
        .map(|(name, dir)| scrub_store(disk, &dir).map(|r| (name, r)))
        .collect()
}
