//! Persistence for the telemetry flight recorder: an append-only
//! stream of CRC-checked segments holding [`ProbeRecord`]s.
//!
//! # Layout
//!
//! ```text
//! file  := segment*
//! segment := magic "GWRS" | payload_len u32 LE | payload | crc32 u32 LE
//! payload := n_strings varint | (len varint, utf8 bytes)*   string table
//!          | n_records varint | record*
//! record := seq | t_ms | kind u8 | campaign_idx | ip | asn
//!         | attempt | value | reason_idx                    (all varints)
//! ```
//!
//! Campaign names and drop reasons are interned per segment, so each
//! record costs a handful of bytes. Like the snapshot segments, the
//! stream tolerates a torn tail: [`read_stream`] returns every record
//! of the longest valid prefix and ignores a trailing partial or
//! corrupt segment. Records carry only deterministic fields, so two
//! seeded runs that drain the recorder at the same points write
//! byte-identical streams.

use crate::crc32::crc32;
use crate::varint::{put_u64, Reader};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use telemetry::recorder::{ProbeRecord, RecordKind};

const MAGIC: &[u8; 4] = b"GWRS";

/// A [`ProbeRecord`] read back from disk (strings are owned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRecord {
    /// Global sequence number in simulation order.
    pub seq: u64,
    /// Simulated time in milliseconds.
    pub t_ms: u64,
    /// What happened.
    pub kind: RecordKind,
    /// Owning campaign.
    pub campaign: String,
    /// Target resolver (`u32::from(Ipv4Addr)`), 0 for campaign-wide.
    pub ip: u32,
    /// Target's AS when known, else 0.
    pub asn: u32,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Kind-specific value (wait ms / rcode / attempts spent).
    pub value: u64,
    /// Drop reason, empty for non-drop records.
    pub reason: String,
}

/// Appends recorder drains as self-contained segments.
pub struct RecorderStream {
    file: File,
    path: PathBuf,
    segments: u64,
    records: u64,
}

impl RecorderStream {
    /// Creates (truncating) a recorder stream at `path`.
    pub fn create(path: &Path) -> io::Result<RecorderStream> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(RecorderStream {
            file,
            path: path.to_path_buf(),
            segments: 0,
            records: 0,
        })
    }

    /// The stream's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one segment holding `records`. Empty drains are a no-op
    /// (no empty segments on disk).
    pub fn append(&mut self, records: &[ProbeRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        // Intern campaign names and drop reasons, in first-use order.
        let mut strings: Vec<&str> = Vec::new();
        let idx_of = |strings: &mut Vec<&str>, s: &'static str| -> u64 {
            match strings.iter().position(|&t| t == s) {
                Some(i) => i as u64,
                None => {
                    strings.push(s);
                    (strings.len() - 1) as u64
                }
            }
        };
        let mut body = Vec::with_capacity(records.len() * 12);
        let mut recs = Vec::with_capacity(records.len() * 10);
        for r in records {
            let c = idx_of(&mut strings, r.campaign);
            let reason = idx_of(&mut strings, r.reason);
            put_u64(&mut recs, r.seq);
            put_u64(&mut recs, r.t_ms);
            recs.push(r.kind.to_u8());
            put_u64(&mut recs, c);
            put_u64(&mut recs, r.ip as u64);
            put_u64(&mut recs, r.asn as u64);
            put_u64(&mut recs, r.attempt as u64);
            put_u64(&mut recs, r.value);
            put_u64(&mut recs, reason);
        }
        put_u64(&mut body, strings.len() as u64);
        for s in &strings {
            put_u64(&mut body, s.len() as u64);
            body.extend_from_slice(s.as_bytes());
        }
        put_u64(&mut body, records.len() as u64);
        body.extend_from_slice(&recs);

        let mut frame = Vec::with_capacity(body.len() + 12);
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        self.file.write_all(&frame)?;
        self.segments += 1;
        self.records += records.len() as u64;
        telemetry::counter("scanstore.recorder.segments").inc();
        telemetry::counter("scanstore.recorder.records").add(records.len() as u64);
        Ok(())
    }

    /// Flushes and syncs the stream.
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        self.file.flush()?;
        self.file.sync_all()?;
        Ok((self.segments, self.records))
    }
}

/// Reads every record of the longest valid segment prefix of `path`.
/// A torn or corrupt tail segment is ignored, matching the snapshot
/// store's recovery semantics.
pub fn read_stream(path: &Path) -> io::Result<Vec<StoredRecord>> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some(records) = decode_segment(&buf[pos..], &mut pos) else {
            break;
        };
        out.extend(records);
    }
    Ok(out)
}

/// Decodes one segment at the start of `buf`; advances `pos` past it
/// on success, returns `None` on a torn or corrupt frame.
fn decode_segment(buf: &[u8], pos: &mut usize) -> Option<Vec<StoredRecord>> {
    if buf.len() < 8 || &buf[..4] != MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    let total = 8 + len + 4;
    if buf.len() < total {
        return None;
    }
    let body = &buf[8..8 + len];
    let stored_crc = u32::from_le_bytes(buf[8 + len..total].try_into().unwrap());
    if crc32(body) != stored_crc {
        return None;
    }
    let mut r = Reader::new(body);
    let decode = |r: &mut Reader| -> io::Result<Vec<StoredRecord>> {
        let n_strings = r.count()?;
        let mut strings = Vec::with_capacity(n_strings);
        for _ in 0..n_strings {
            let len = r.u64()? as usize;
            let s = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad utf8"))?;
            strings.push(s.to_string());
        }
        let n = r.count()?;
        let mut recs = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.u64()?;
            let t_ms = r.u64()?;
            let kind = RecordKind::from_u8(r.u8()?)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad record kind"))?;
            let campaign = strings
                .get(r.u64()? as usize)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad string index"))?
                .clone();
            let ip = r.u32()?;
            let asn = r.u32()?;
            let attempt = r.u32()?;
            let value = r.u64()?;
            let reason = strings
                .get(r.u64()? as usize)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad string index"))?
                .clone();
            recs.push(StoredRecord {
                seq,
                t_ms,
                kind,
                campaign,
                ip,
                asn,
                attempt,
                value,
                reason,
            });
        }
        Ok(recs)
    };
    let recs = decode(&mut r).ok()?;
    *pos += total;
    Some(recs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, kind: RecordKind, ip: u32) -> ProbeRecord {
        ProbeRecord {
            seq,
            t_ms: 1000 + seq,
            kind,
            campaign: "churn",
            ip,
            asn: 65000,
            attempt: 1,
            value: 3,
            reason: if kind == RecordKind::Drop {
                "burst"
            } else {
                ""
            },
        }
    }

    #[test]
    fn roundtrips_across_multiple_segments() {
        let dir = std::env::temp_dir().join("gw_recorder_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.gwrs");
        let mut s = RecorderStream::create(&path).unwrap();
        s.append(&[rec(0, RecordKind::Attempt, 9), rec(1, RecordKind::Drop, 9)])
            .unwrap();
        s.append(&[]).unwrap(); // no-op
        s.append(&[rec(2, RecordKind::GaveUp, 9)]).unwrap();
        let (segs, n) = s.finish().unwrap();
        assert_eq!((segs, n), (2, 3));
        let back = read_stream(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].campaign, "churn");
        assert_eq!(back[1].reason, "burst");
        assert_eq!(back[1].kind, RecordKind::Drop);
        assert_eq!(back[2].seq, 2);
        assert_eq!(back[2].kind, RecordKind::GaveUp);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = std::env::temp_dir().join("gw_recorder_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.gwrs");
        let mut s = RecorderStream::create(&path).unwrap();
        s.append(&[rec(0, RecordKind::Attempt, 1)]).unwrap();
        s.append(&[rec(1, RecordKind::Response, 1)]).unwrap();
        s.finish().unwrap();
        // Tear the last segment's final byte off.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let back = read_stream(&path).unwrap();
        assert_eq!(back.len(), 1, "only the intact first segment survives");
        assert_eq!(back[0].seq, 0);
        // Corrupt the surviving segment's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_stream(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
