//! Domain names: label storage, textual parsing, wire decoding with
//! compression-pointer support, and case-insensitive semantics.

use crate::error::{DecodeError, NameError};
use std::fmt;

/// Maximum number of octets in a wire-encoded name (RFC 1035 §3.1).
pub const MAX_NAME_WIRE_LEN: usize = 255;
/// Maximum number of octets in a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Budget for chasing compression pointers before declaring a loop.
const MAX_POINTER_HOPS: usize = 64;

/// A fully-qualified domain name, stored as a sequence of labels.
///
/// `Name` preserves the byte-exact casing it was parsed or decoded with —
/// this is essential for the 0x20-encoding correlator in the scanner,
/// which recovers information bits from answer casing — while equality
/// and hashing are ASCII-case-insensitive per RFC 1035 §2.3.3.
#[derive(Debug, Clone)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parse a textual name such as `www.example.com` or `example.com.`.
    ///
    /// A single trailing dot is accepted and ignored; interior empty
    /// labels are rejected. The empty string and `"."` parse to the root.
    pub fn parse(text: &str) -> Result<Self, NameError> {
        let labels = text_labels(text)?
            .map(|part| part.as_bytes().to_vec())
            .collect();
        Ok(Name { labels })
    }

    /// Construct from raw labels. Used by the wire decoder and by code
    /// that synthesizes names programmatically (e.g. the hex-IP encoder).
    pub fn from_labels(labels: Vec<Vec<u8>>) -> Result<Self, NameError> {
        let mut wire_len = 1usize;
        for l in &labels {
            if l.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong {
                    label: String::from_utf8_lossy(l).into_owned(),
                });
            }
            wire_len += 1 + l.len();
        }
        if wire_len > MAX_NAME_WIRE_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(Name { labels })
    }

    /// Copy out the labels of a name the walker has accepted.
    pub(crate) fn from_wire_labels(labels: Labels<'_>) -> Self {
        Name {
            labels: labels.map(<[u8]>::to_vec).collect(),
        }
    }

    /// Labels of this name, outermost (leftmost) first.
    pub fn labels(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Wire-encoded length in octets, including the terminating root byte.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// Prepend a label, as the scanner does when adding random cache-busting
    /// prefixes (`prefix.hex-ip.domain.edu`).
    pub fn prepend(&self, label: &str) -> Result<Self, NameError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.as_bytes().to_vec());
        labels.extend(self.labels.iter().cloned());
        Name::from_labels(labels)
    }

    /// Returns `true` if `self` equals `suffix` or ends with its labels
    /// (case-insensitively). `a.b.example.com` is a subdomain of
    /// `example.com`; every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, suffix: &Name) -> bool {
        if suffix.labels.len() > self.labels.len() {
            return false;
        }
        self.labels
            .iter()
            .rev()
            .zip(suffix.labels.iter().rev())
            .all(|(a, b)| eq_ignore_case(a, b))
    }

    /// The parent domain (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Lower-cased textual form without trailing dot (root renders as `.`).
    /// This is the canonical key used by resolver caches and databases.
    pub fn to_ascii_lower(&self) -> String {
        if self.labels.is_empty() {
            return ".".to_string();
        }
        let mut out = String::with_capacity(self.wire_len());
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            for &b in l {
                out.push(b.to_ascii_lowercase() as char);
            }
        }
        out
    }

    /// Encode into `buf` (always uncompressed).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        for l in &self.labels {
            buf.push(l.len() as u8);
            buf.extend_from_slice(l);
        }
        buf.push(0);
    }

    /// Decode a name from `packet` starting at `offset`.
    ///
    /// Follows RFC 1035 compression pointers (which may only point
    /// backwards), enforcing the 255-octet name limit and a pointer-hop
    /// budget so that malicious pointer loops terminate. Returns the name
    /// and the offset just past the name *in the original stream* (i.e.
    /// past the first pointer if one was taken).
    pub fn decode(packet: &[u8], offset: usize) -> Result<(Name, usize), DecodeError> {
        let mut labels = Vec::new();
        let next = walk_name(packet, offset, |label| labels.push(label.to_vec()))?;
        Ok((Name { labels }, next))
    }
}

/// The labels of a textual name such as `www.example.com` or
/// `example.com.`, checked against the label and name length limits
/// before the first one is yielded. The root (`""` or `"."`) has none.
fn text_labels(text: &str) -> Result<impl Iterator<Item = &str>, NameError> {
    let trimmed = text.strip_suffix('.').unwrap_or(text);
    // `"".split('.')` yields one empty part; the root has no label.
    let count = if trimmed.is_empty() {
        0
    } else {
        trimmed.split('.').count()
    };
    let mut wire_len = 1usize; // trailing root byte
    for part in trimmed.split('.').take(count) {
        if part.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if part.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong {
                label: part.to_string(),
            });
        }
        wire_len += 1 + part.len();
    }
    if wire_len > MAX_NAME_WIRE_LEN {
        return Err(NameError::NameTooLong);
    }
    Ok(trimmed.split('.').take(count))
}

/// Append the (uncompressed) wire form of the textual name `text` to
/// `buf` — [`Name::parse`] then [`Name::encode_into`] without the
/// `Name`. On error `buf` is untouched.
pub(crate) fn encode_text_into(text: &str, buf: &mut Vec<u8>) -> Result<(), NameError> {
    for label in text_labels(text)? {
        buf.push(label.len() as u8);
        buf.extend_from_slice(label.as_bytes());
    }
    buf.push(0);
    Ok(())
}

/// The one name parser: walk the name at `offset` in `packet`, handing
/// each label to `on_label`, and return the offset just past the name
/// *in the original stream* (past the first pointer if one was taken).
///
/// Follows RFC 1035 compression pointers (which may only point
/// backwards), enforcing the 255-octet name limit and a pointer-hop
/// budget so that malicious pointer loops terminate.
pub(crate) fn walk_name<'a>(
    packet: &'a [u8],
    offset: usize,
    mut on_label: impl FnMut(&'a [u8]),
) -> Result<usize, DecodeError> {
    let mut wire_len = 1usize;
    let mut pos = offset;
    let mut end_of_name: Option<usize> = None; // set when first pointer taken
    let mut hops = 0usize;

    loop {
        let len_byte = *packet.get(pos).ok_or(DecodeError::Truncated {
            context: "name label length",
        })?;
        match len_byte {
            0 => return Ok(end_of_name.unwrap_or(pos + 1)),
            l if l & 0xc0 == 0xc0 => {
                let second = *packet.get(pos + 1).ok_or(DecodeError::Truncated {
                    context: "compression pointer",
                })?;
                let target = (((l & 0x3f) as usize) << 8) | second as usize;
                // Pointers must go strictly backwards to guarantee progress.
                if target >= pos {
                    return Err(DecodeError::BadPointer { offset: pos });
                }
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return Err(DecodeError::BadPointer { offset: pos });
                }
                if end_of_name.is_none() {
                    end_of_name = Some(pos + 2);
                }
                pos = target;
            }
            l if l & 0xc0 != 0 => {
                return Err(DecodeError::BadLabelType { byte: l });
            }
            l => {
                let l = l as usize;
                let start = pos + 1;
                let end = start + l;
                let label = packet.get(start..end).ok_or(DecodeError::Truncated {
                    context: "name label",
                })?;
                wire_len += 1 + l;
                if wire_len > MAX_NAME_WIRE_LEN {
                    return Err(DecodeError::NameTooLong);
                }
                on_label(label);
                pos = end;
            }
        }
    }
}

/// The labels of a name [`walk_name`] has accepted, outermost first,
/// read in place: compression pointers are followed, nothing is
/// copied. On a name that was never validated the iterator ends early
/// instead of panicking.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    packet: &'a [u8],
    pos: usize,
}

impl<'a> Labels<'a> {
    pub(crate) fn new(packet: &'a [u8], pos: usize) -> Self {
        Labels { packet, pos }
    }
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            let len = *self.packet.get(self.pos)?;
            match len {
                0 => return None,
                l if l & 0xc0 == 0xc0 => {
                    let second = *self.packet.get(self.pos + 1)?;
                    let target = (((l & 0x3f) as usize) << 8) | second as usize;
                    if target >= self.pos {
                        return None;
                    }
                    self.pos = target;
                }
                l if l & 0xc0 != 0 => return None,
                l => {
                    let start = self.pos + 1;
                    let label = self.packet.get(start..start + l as usize)?;
                    self.pos = start + l as usize;
                    return Some(label);
                }
            }
        }
    }
}

impl<'a> IntoIterator for &'a Name {
    type Item = &'a [u8];
    type IntoIter = std::iter::Map<std::slice::Iter<'a, Vec<u8>>, fn(&'a Vec<u8>) -> &'a [u8]>;

    fn into_iter(self) -> Self::IntoIter {
        self.labels.iter().map(Vec::as_slice)
    }
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.eq_ignore_ascii_case(y))
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(other.labels.iter())
                .all(|(a, b)| eq_ignore_case(a, b))
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            state.write_usize(l.len());
            for &b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = Name::parse("www.Example.COM.").unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), "www.Example.COM");
        assert_eq!(n.to_ascii_lower(), "www.example.com");
    }

    #[test]
    fn root_forms() {
        assert!(Name::parse("").unwrap().is_root());
        assert!(Name::parse(".").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
        let long = "x".repeat(64);
        assert!(matches!(
            Name::parse(&format!("{long}.com")),
            Err(NameError::LabelTooLong { .. })
        ));
    }

    #[test]
    fn rejects_overlong_name() {
        let label = "a".repeat(63);
        let name = [label.as_str(); 5].join(".");
        assert_eq!(Name::parse(&name), Err(NameError::NameTooLong));
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let a = Name::parse("ExAmPlE.CoM").unwrap();
        let b = Name::parse("example.com").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn subdomain_semantics() {
        let base = Name::parse("example.com").unwrap();
        let sub = Name::parse("a.b.EXAMPLE.com").unwrap();
        assert!(sub.is_subdomain_of(&base));
        assert!(base.is_subdomain_of(&base));
        assert!(!base.is_subdomain_of(&sub));
        assert!(base.is_subdomain_of(&Name::root()));
        // suffix match must be label-aligned in count, not string-based
        let not_sub = Name::parse("notexample.com").unwrap();
        assert!(!not_sub.is_subdomain_of(&base));
    }

    #[test]
    fn prepend_builds_scan_names() {
        let base = Name::parse("scan.example.edu").unwrap();
        let full = base.prepend("c0a80001").unwrap().prepend("r4nd0m").unwrap();
        assert_eq!(full.to_string(), "r4nd0m.c0a80001.scan.example.edu");
    }

    #[test]
    fn wire_round_trip() {
        let n = Name::parse("mail.example.org").unwrap();
        let mut buf = Vec::new();
        n.encode_into(&mut buf);
        let (decoded, consumed) = Name::decode(&buf, 0).unwrap();
        assert_eq!(decoded, n);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn decode_with_compression_pointer() {
        // Packet layout: "example.com" at 0, then "www" + pointer to 0.
        let mut pkt = Vec::new();
        Name::parse("example.com").unwrap().encode_into(&mut pkt);
        let ptr_pos = pkt.len();
        pkt.push(3);
        pkt.extend_from_slice(b"www");
        pkt.push(0xc0);
        pkt.push(0x00);
        let (n, next) = Name::decode(&pkt, ptr_pos).unwrap();
        assert_eq!(n, Name::parse("www.example.com").unwrap());
        assert_eq!(next, pkt.len());
    }

    #[test]
    fn pointer_loop_rejected() {
        // Self-referential pointer (points at itself → target >= pos).
        let pkt = [0xc0u8, 0x00];
        // offset 0 points to 0 → rejected as non-backwards
        assert!(matches!(
            Name::decode(&pkt, 0),
            Err(DecodeError::BadPointer { .. })
        ));
    }

    #[test]
    fn forward_pointer_rejected() {
        let pkt = [0xc0u8, 0x05, 0, 0, 0, 0];
        assert!(matches!(
            Name::decode(&pkt, 0),
            Err(DecodeError::BadPointer { .. })
        ));
    }

    #[test]
    fn truncated_label_rejected() {
        let pkt = [5u8, b'a', b'b'];
        assert!(matches!(
            Name::decode(&pkt, 0),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn extended_label_type_rejected() {
        let pkt = [0x41u8, 0x00];
        assert!(matches!(
            Name::decode(&pkt, 0),
            Err(DecodeError::BadLabelType { .. })
        ));
    }

    #[test]
    fn casing_preserved_for_0x20() {
        let n = Name::parse("wWw.ExAmple.COM").unwrap();
        let mut buf = Vec::new();
        n.encode_into(&mut buf);
        let (d, _) = Name::decode(&buf, 0).unwrap();
        assert_eq!(d.to_string(), "wWw.ExAmple.COM");
    }
}
