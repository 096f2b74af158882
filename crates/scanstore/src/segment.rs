//! On-disk segment format.
//!
//! One segment holds one committed snapshot, encoded as a delta against
//! the previous snapshot (segment 0 deltas against the empty snapshot,
//! i.e. it is a full encoding). Layout:
//!
//! ```text
//! magic   "GWS1"                      4 bytes
//! seq     u32 LE                      4 bytes
//! t_ms    u64 LE                      8 bytes
//! kind    u8  (0 = full, 1 = delta)
//! label   varint len + bytes
//! meta    varint count + (varint klen + k + varint vlen + v)*
//! dict    varint count + (varint len + bytes)*   — new interned strings
//! removed varint count + ip gap varints
//! upserts varint count + records (see record.rs)
//! crc     u32 LE over everything above
//! ```
//!
//! A torn write (truncation anywhere, including mid-CRC) fails decoding;
//! flipped bits fail the CRC. Either way the store rolls its checkpoint
//! back to the previous segment.

use crate::crc32::crc32;
use crate::record::{decode_records, encode_records, SnapshotDiff};
use crate::varint::{put_u64, Reader};
use std::io;

/// File magic, versioned.
pub const MAGIC: &[u8; 4] = b"GWS1";

/// Segment kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Delta against the empty snapshot.
    Full,
    /// Delta against the previous segment's snapshot.
    Delta,
}

/// A decoded segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Snapshot sequence number (0-based).
    pub seq: u32,
    /// Snapshot timestamp (sim milliseconds).
    pub t_ms: u64,
    /// Full or delta.
    pub kind: Kind,
    /// Human-readable snapshot label (`week-3`, `cohort`, …).
    pub label: String,
    /// Small key/value annotations (ground truth, campaign stats).
    pub meta: Vec<(String, String)>,
    /// Strings first interned by this snapshot, in id order.
    pub new_strings: Vec<String>,
    /// The delta payload.
    pub diff: SnapshotDiff,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> io::Result<String> {
    let len = r.u64()? as usize;
    if len > 1 << 24 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "string too long",
        ));
    }
    let bytes = r.bytes(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid utf-8"))
}

/// Encodes a segment, CRC included.
pub fn encode(seg: &Segment) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + seg.diff.upserts.len() * 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&seg.seq.to_le_bytes());
    out.extend_from_slice(&seg.t_ms.to_le_bytes());
    out.push(match seg.kind {
        Kind::Full => 0,
        Kind::Delta => 1,
    });
    put_str(&mut out, &seg.label);
    put_u64(&mut out, seg.meta.len() as u64);
    for (k, v) in &seg.meta {
        put_str(&mut out, k);
        put_str(&mut out, v);
    }
    put_u64(&mut out, seg.new_strings.len() as u64);
    for s in &seg.new_strings {
        put_str(&mut out, s);
    }
    put_u64(&mut out, seg.diff.removed.len() as u64);
    let mut prev = 0u32;
    for &ip in &seg.diff.removed {
        put_u64(&mut out, u64::from(ip) - u64::from(prev));
        prev = ip;
    }
    put_u64(&mut out, seg.diff.upserts.len() as u64);
    encode_records(&mut out, &seg.diff.upserts, seg.t_ms);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Decodes and verifies a segment. Any truncation, trailing garbage, or
/// checksum mismatch is an error.
pub fn decode(buf: &[u8]) -> io::Result<Segment> {
    if buf.len() < MAGIC.len() + 4 {
        return Err(invalid("segment shorter than header"));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(invalid("segment checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.bytes(4)? != MAGIC {
        return Err(invalid("bad segment magic"));
    }
    let seq = u32::from_le_bytes(r.bytes(4)?.try_into().expect("4 bytes"));
    let t_ms = u64::from_le_bytes(r.bytes(8)?.try_into().expect("8 bytes"));
    let kind = match r.u8()? {
        0 => Kind::Full,
        1 => Kind::Delta,
        other => return Err(invalid(&format!("unknown segment kind {other}"))),
    };
    let label = read_str(&mut r)?;
    let meta_count = r.count()?;
    let mut meta = Vec::with_capacity(meta_count);
    for _ in 0..meta_count {
        let k = read_str(&mut r)?;
        let v = read_str(&mut r)?;
        meta.push((k, v));
    }
    let dict_count = r.count()?;
    let mut new_strings = Vec::with_capacity(dict_count);
    for _ in 0..dict_count {
        new_strings.push(read_str(&mut r)?);
    }
    let removed_count = r.count()?;
    let mut removed = Vec::with_capacity(removed_count);
    let mut prev = 0u32;
    for _ in 0..removed_count {
        let gap = r.u64()?;
        let ip = u64::from(prev)
            .checked_add(gap)
            .filter(|&v| v <= u64::from(u32::MAX))
            .ok_or_else(|| invalid("removed ip gap overflows"))? as u32;
        removed.push(ip);
        prev = ip;
    }
    let upsert_count = r.count()?;
    let upserts = decode_records(&mut r, upsert_count, t_ms)?;
    if r.remaining() != 0 {
        return Err(invalid("trailing bytes after segment payload"));
    }
    Ok(Segment {
        seq,
        t_ms,
        kind,
        label,
        meta,
        new_strings,
        diff: SnapshotDiff { removed, upserts },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Observation;

    fn sample() -> Segment {
        Segment {
            seq: 3,
            t_ms: 1_814_400_000,
            kind: Kind::Delta,
            label: "week-3".into(),
            meta: vec![("truth".into(), "1234".into())],
            new_strings: vec!["US".into(), "dyn".into()],
            diff: SnapshotDiff {
                removed: vec![10, 600, 70_000],
                upserts: vec![
                    Observation::at(5, 0, 1_814_400_100),
                    Observation::at(900, 5, 1_814_400_200),
                ],
            },
        }
    }

    #[test]
    fn roundtrip() {
        let seg = sample();
        assert_eq!(decode(&encode(&seg)).unwrap(), seg);
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bitflip_detected() {
        let mut bytes = encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }
}
