//! Store integrity scrub: decode every committed segment (full CRC
//! check), cross-check the manifest's bookkeeping against the bytes
//! on disk, and report a per-segment verdict. Read-only — scrubbing
//! never repairs, deletes, or rewrites anything; the writer's own
//! open-time recovery stays the only mutating path.
//!
//! Backs the daemon's `/admin/scrub` endpoint and the `repro scrub`
//! CLI (DESIGN §13).

use crate::segment;
use crate::view::{ManifestEntry, ManifestView};
use std::fs;
use std::io;
use std::path::Path;

/// Verdict for one committed segment.
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
    /// with the manifest (files swapped or copied over each other).
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
    /// The manifest parsed and every committed segment decoded clean.
    pub fn healthy(&self) -> bool {
        self.manifest_ok
            && self
                .segments
                .iter()
                .all(|s| s.verdict == SegmentVerdict::Ok)
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

/// Scrubs one store directory: reads the manifest, CRC-decodes every
/// committed segment, and cross-checks sizes and sequence numbers.
pub fn scrub_store(dir: &Path) -> io::Result<ScrubReport> {
    let manifest = match fs::read(dir.join("manifest.json")) {
        Ok(bytes) => match serde_json::from_slice::<ManifestView>(&bytes) {
            Ok(m) if m.version == 1 => Some(m),
            Ok(_) | Err(_) => {
                telemetry::counter("scanstore.scrub.bad_manifests").inc();
                return Ok(ScrubReport {
                    committed: 0,
                    manifest_ok: false,
                    segments: Vec::new(),
                    orphans: Vec::new(),
                });
            }
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };

    let mut committed = 0;
    let mut segments = Vec::new();
    let mut listed = Vec::new();
    if let Some(m) = &manifest {
        committed = m.committed;
        for entry in m.segments.iter().take(m.committed as usize) {
            listed.push(entry.file.clone());
            let verdict = scrub_segment(dir, entry);
            telemetry::counter_with("scanstore.scrub.segments", &[("verdict", verdict.tag())])
                .inc();
            segments.push(SegmentReport {
                seq: entry.seq,
                file: entry.file.clone(),
                verdict,
            });
        }
    }

    let mut orphans = Vec::new();
    for dirent in fs::read_dir(dir)? {
        let name = dirent?.file_name().to_string_lossy().into_owned();
        let looks_like_segment = name.starts_with("seg-") || name.ends_with(".tmp");
        if looks_like_segment && !listed.contains(&name) {
            orphans.push(name);
        }
    }
    orphans.sort();

    telemetry::counter("scanstore.scrub.runs").inc();
    Ok(ScrubReport {
        committed,
        manifest_ok: true,
        segments,
        orphans,
    })
}

fn scrub_segment(dir: &Path, entry: &ManifestEntry) -> SegmentVerdict {
    let path = dir.join(&entry.file);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return SegmentVerdict::Missing,
        Err(e) => {
            return SegmentVerdict::Corrupt {
                error: e.to_string(),
            }
        }
    };
    if bytes.len() as u64 != entry.bytes {
        return SegmentVerdict::SizeMismatch {
            manifest: entry.bytes,
            disk: bytes.len() as u64,
        };
    }
    match segment::decode(&bytes) {
        Ok(seg) if seg.seq == entry.seq => SegmentVerdict::Ok,
        Ok(seg) => SegmentVerdict::SeqMismatch { header: seg.seq },
        Err(e) => SegmentVerdict::Corrupt {
            error: e.to_string(),
        },
    }
}

/// Scrubs every store of [`campaign_dirs`](crate::campaign_dirs)`(root)`,
/// the stores the serve engine opens.
pub fn scrub_root(root: &Path) -> io::Result<Vec<(String, ScrubReport)>> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("store root {} is not a directory", root.display()),
        ));
    }
    crate::campaign_dirs(root)?
        .into_iter()
        .map(|(name, dir)| scrub_store(&dir).map(|r| (name, r)))
        .collect()
}
