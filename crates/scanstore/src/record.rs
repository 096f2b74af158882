//! The observation record and its compact binary encoding.
//!
//! Records within a snapshot are sorted by IP and encoded with
//! gap-coded addresses plus varint fields; consecutive snapshots are
//! front-coded as deltas (removed IPs + upserted records), so a stable
//! population costs a few bytes per week regardless of fleet size.

use crate::varint::{put_i64, put_u64, Reader};
use serde::Serialize;
use std::io;

/// Bit flags carried by every observation.
pub mod flags {
    /// The response's UDP source differed from the probed target
    /// (DNS proxy / multi-homed host).
    pub const PROXY: u8 = 1 << 0;
    /// At least one TCP service answered the banner probe.
    pub const TCP_RESPONSIVE: u8 = 1 << 1;
    /// CHAOS outcome occupies bits 2–3 (see [`chaos_outcome`]).
    pub const CHAOS_SHIFT: u8 = 2;
    /// Mask for the CHAOS outcome bits.
    pub const CHAOS_MASK: u8 = 0b11 << CHAOS_SHIFT;

    /// No CHAOS response.
    pub const CHAOS_SILENT: u8 = 0;
    /// CHAOS queries answered with error rcodes.
    pub const CHAOS_ERRORS: u8 = 1;
    /// NOERROR but no version text.
    pub const CHAOS_EMPTY: u8 = 2;
    /// A version string was returned (interned in `software`).
    pub const CHAOS_VERSION: u8 = 3;

    /// Extracts the CHAOS outcome code from a flags byte.
    pub fn chaos_outcome(flags: u8) -> u8 {
        (flags & CHAOS_MASK) >> CHAOS_SHIFT
    }

    /// Builds a flags byte with the given CHAOS outcome.
    pub fn with_chaos(flags: u8, outcome: u8) -> u8 {
        (flags & !CHAOS_MASK) | ((outcome << CHAOS_SHIFT) & CHAOS_MASK)
    }
}

/// One per-host observation within a snapshot. String-valued fields
/// (software banner, device token, country, rDNS token) are interned
/// ids into the campaign's string table; `0` means absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct Observation {
    /// Probed IPv4 address as a big-endian integer.
    pub ip: u32,
    /// DNS response code (`dnswire::Rcode::to_u8` encoding).
    pub rcode: u8,
    /// See [`flags`].
    pub flags: u8,
    /// Interned software/version string (CHAOS answer), 0 = none.
    pub software: u32,
    /// Interned device token, 0 = none.
    pub device: u32,
    /// Interned ISO 3166 country code, 0 = none.
    pub country: u32,
    /// Origin AS number of the probed address, 0 = unknown. Carried
    /// directly (not interned) so AS-scoped queries need no string
    /// table round-trip.
    pub asn: u32,
    /// Interned rDNS token (`dyn` / `static`), 0 = none.
    pub rdns: u32,
    /// FNV-1a hash of the TCP banner corpus, 0 = none.
    pub banner_hash: u64,
    /// Campaign-defined scalar payload, 0 = none. Cache-snooping
    /// snapshots use it to carry the per-(TLD, round) sample (see
    /// `scanner::campaign::snoop`); other campaigns leave it 0.
    pub value: u64,
    /// When this host was first observed (sim milliseconds).
    pub first_seen_ms: u64,
    /// When this host was last observed (sim milliseconds).
    pub last_seen_ms: u64,
}

impl Observation {
    /// Convenience constructor for an address-only observation.
    pub fn at(ip: u32, rcode: u8, now_ms: u64) -> Observation {
        Observation {
            ip,
            rcode,
            first_seen_ms: now_ms,
            last_seen_ms: now_ms,
            ..Observation::default()
        }
    }

    /// The probed address as `Ipv4Addr`.
    pub fn ipv4(&self) -> std::net::Ipv4Addr {
        std::net::Ipv4Addr::from(self.ip)
    }
}

/// FNV-1a hash used for banner corpora.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes one record; `prev_ip` gap-codes the address and `base_ms`
/// delta-codes the timestamps.
pub fn encode_record(out: &mut Vec<u8>, o: &Observation, prev_ip: u32, base_ms: u64) {
    put_u64(out, u64::from(o.ip) - u64::from(prev_ip));
    out.push(o.rcode);
    out.push(o.flags);
    put_u64(out, u64::from(o.software));
    put_u64(out, u64::from(o.device));
    put_u64(out, u64::from(o.country));
    put_u64(out, u64::from(o.asn));
    put_u64(out, u64::from(o.rdns));
    put_u64(out, o.banner_hash);
    put_u64(out, o.value);
    put_i64(out, o.first_seen_ms as i64 - base_ms as i64);
    put_i64(out, o.last_seen_ms as i64 - o.first_seen_ms as i64);
}

/// Decodes one record written by [`encode_record`].
pub fn decode_record(r: &mut Reader<'_>, prev_ip: u32, base_ms: u64) -> io::Result<Observation> {
    let gap = r.u64()?;
    let ip = u64::from(prev_ip)
        .checked_add(gap)
        .filter(|&v| v <= u64::from(u32::MAX))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "ip gap overflows"))?
        as u32;
    let rcode = r.u8()?;
    let flags = r.u8()?;
    let software = r.u32()?;
    let device = r.u32()?;
    let country = r.u32()?;
    let asn = r.u32()?;
    let rdns = r.u32()?;
    let banner_hash = r.u64()?;
    let value = r.u64()?;
    let first_seen_ms = (base_ms as i64 + r.i64()?) as u64;
    let last_seen_ms = (first_seen_ms as i64 + r.i64()?) as u64;
    Ok(Observation {
        ip,
        rcode,
        flags,
        software,
        device,
        country,
        asn,
        rdns,
        banner_hash,
        value,
        first_seen_ms,
        last_seen_ms,
    })
}

/// Encodes `records` (sorted by IP) back to back, each address gap-coded
/// against its predecessor's.
pub fn encode_records(out: &mut Vec<u8>, records: &[Observation], base_ms: u64) {
    let mut prev = 0u32;
    for o in records {
        encode_record(out, o, prev, base_ms);
        prev = o.ip;
    }
}

/// Decodes `n` records written by [`encode_records`]. A count read off
/// disk comes through [`Reader::count`], so `n` never exceeds the bytes
/// left in `r`.
pub fn decode_records(r: &mut Reader<'_>, n: usize, base_ms: u64) -> io::Result<Vec<Observation>> {
    let mut records = Vec::with_capacity(n);
    let mut prev = 0u32;
    for _ in 0..n {
        let o = decode_record(r, prev, base_ms)?;
        prev = o.ip;
        records.push(o);
    }
    Ok(records)
}

/// The delta between two consecutive snapshots: IPs that disappeared
/// plus records that were added or changed. Records present in the
/// previous snapshot and untouched are carried implicitly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// IPs present in the previous snapshot but not this one (sorted).
    pub removed: Vec<u32>,
    /// Records new in, or changed since, the previous snapshot
    /// (sorted by IP).
    pub upserts: Vec<Observation>,
}

impl SnapshotDiff {
    /// Computes the delta from `prev` to `next` (both sorted by IP,
    /// unique per IP).
    pub fn between(prev: &[Observation], next: &[Observation]) -> SnapshotDiff {
        let mut diff = SnapshotDiff::default();
        let (mut i, mut j) = (0usize, 0usize);
        while i < prev.len() || j < next.len() {
            match (prev.get(i), next.get(j)) {
                (Some(p), Some(n)) if p.ip == n.ip => {
                    if p != n {
                        diff.upserts.push(*n);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(p), Some(n)) if p.ip < n.ip => {
                    diff.removed.push(p.ip);
                    i += 1;
                }
                (Some(_), Some(n)) => {
                    diff.upserts.push(*n);
                    j += 1;
                }
                (Some(p), None) => {
                    diff.removed.push(p.ip);
                    i += 1;
                }
                (None, Some(n)) => {
                    diff.upserts.push(*n);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        diff
    }

    /// Applies this delta to `prev`, returning the next snapshot
    /// (sorted by IP).
    pub fn apply(&self, prev: &[Observation]) -> Vec<Observation> {
        let mut out = Vec::with_capacity(prev.len() + self.upserts.len());
        let mut removed = self.removed.iter().peekable();
        let mut upserts = self.upserts.iter().peekable();
        for p in prev {
            while removed.next_if(|&&ip| ip < p.ip).is_some() {}
            let dropped = removed.next_if(|&&ip| ip == p.ip).is_some();
            while let Some(u) = upserts.next_if(|u| u.ip < p.ip) {
                out.push(*u);
            }
            match upserts.next_if(|u| u.ip == p.ip) {
                Some(u) => out.push(*u),
                None if !dropped => out.push(*p),
                None => {}
            }
        }
        out.extend(upserts.copied());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(ip: u32, rcode: u8) -> Observation {
        Observation::at(ip, rcode, 1_000)
    }

    #[test]
    fn record_roundtrip() {
        let o = Observation {
            ip: 0x0A00_0001,
            rcode: 5,
            flags: flags::PROXY,
            software: 3,
            device: 0,
            country: 7,
            asn: 64512,
            rdns: 1,
            banner_hash: 0xdead_beef,
            value: (2 << 32) | 86_400,
            first_seen_ms: 500,
            last_seen_ms: 2_000,
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &o, 0, 1_000);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_record(&mut r, 0, 1_000).unwrap(), o);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn diff_roundtrip() {
        let prev = vec![obs(1, 0), obs(5, 0), obs(9, 5)];
        let next = vec![obs(1, 0), obs(6, 0), obs(9, 0)];
        let d = SnapshotDiff::between(&prev, &next);
        assert_eq!(d.removed, vec![5]);
        assert_eq!(d.upserts.len(), 2); // 6 added, 9 changed
        assert_eq!(d.apply(&prev), next);
    }

    #[test]
    fn diff_of_identical_snapshots_is_empty() {
        let a = vec![obs(1, 0), obs(2, 0)];
        let d = SnapshotDiff::between(&a, &a);
        assert!(d.removed.is_empty() && d.upserts.is_empty());
        assert_eq!(d.apply(&a), a);
    }
}
