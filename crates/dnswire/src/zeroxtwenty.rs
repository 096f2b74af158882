//! DNS 0x20 encoding (Dagon et al., "Increased DNS Forgery Resistance
//! Through 0x20-Bit Encoding", CCS 2008).
//!
//! DNS name matching is case-insensitive, and well-behaved resolvers echo
//! the query name byte-for-byte in their responses. The casing of each
//! alphabetic character is therefore a covert channel of one bit per
//! letter. The *Going Wild* domain-scan campaign (Section 3.3) uses this
//! channel redundantly: 9 bits of the 25-bit resolver identifier are
//! carried both in the UDP source port and in the query-name casing, so
//! the identifier survives resolvers that rewrite the response port.
//!
//! This module encodes an integer into the casing of a name's alphabetic
//! characters (least-significant bit first) and decodes it back.

use crate::name::Name;

/// Number of alphabetic characters in the name — the channel capacity in
/// bits.
pub fn capacity_bits(name: &Name) -> u32 {
    name.labels()
        .iter()
        .flat_map(|l| l.iter())
        .filter(|b| b.is_ascii_alphabetic())
        .count() as u32
}

/// Encode the low `bits` bits of `value` into the casing of `name`.
///
/// Bit `i` of `value` controls the case of the `i`-th alphabetic
/// character (scanning left to right): 1 ⇒ uppercase, 0 ⇒ lowercase.
/// Non-alphabetic characters are left untouched. If the name has fewer
/// than `bits` alphabetic characters the high bits are silently dropped —
/// callers must check [`capacity_bits`] when lossless encoding matters.
pub fn encode_0x20(name: &Name, value: u32, bits: u32) -> Name {
    let mut labels: Vec<Vec<u8>> = Vec::with_capacity(name.label_count());
    let mut bit = 0u32;
    for label in name.labels() {
        let mut out = Vec::with_capacity(label.len());
        for &b in label {
            if b.is_ascii_alphabetic() && bit < bits {
                let set = (value >> bit) & 1 == 1;
                out.push(if set {
                    b.to_ascii_uppercase()
                } else {
                    b.to_ascii_lowercase()
                });
                bit += 1;
            } else if b.is_ascii_alphabetic() {
                // Past the payload: canonical lowercase so decode is
                // unambiguous.
                out.push(b.to_ascii_lowercase());
            } else {
                out.push(b);
            }
        }
        labels.push(out);
    }
    Name::from_labels(labels).expect("casing changes preserve name validity")
}

/// Decode the value carried in the casing of `name` (up to `bits` bits).
/// `name` is anything that yields labels: a `&Name`, or the
/// [`NameView`](crate::NameView) of a question still on the wire.
pub fn decode_0x20<'a>(name: impl IntoIterator<Item = &'a [u8]>, bits: u32) -> u32 {
    let mut value = 0u32;
    let letters = name
        .into_iter()
        .flatten()
        .filter(|b| b.is_ascii_alphabetic());
    for (bit, b) in letters.take(bits.min(32) as usize).enumerate() {
        if b.is_ascii_uppercase() {
            value |= 1 << bit;
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let base = name("scanprobe.example.edu");
        let cap = capacity_bits(&base);
        assert!(cap >= 9, "scan names must carry at least 9 bits");
        for v in [0u32, 1, 0b1_0101_0101, 0x1ff, 0b0_1111_0000] {
            let enc = encode_0x20(&base, v, 9);
            assert_eq!(decode_0x20(&enc, 9), v & 0x1ff);
            // Encoding never changes name identity (case-insensitive eq).
            assert_eq!(enc, base);
        }
    }

    #[test]
    fn digits_are_transparent() {
        let base = name("c0a80001.scan.example");
        let enc = encode_0x20(&base, 0b101, 3);
        // Digits stay put; only letters toggled. value bit0=1 -> 'C'.
        let text = enc.to_string();
        assert!(text.starts_with("C0a80001."), "got {text}");
        assert_eq!(decode_0x20(&enc, 3), 0b101);
    }

    #[test]
    fn zero_value_is_all_lowercase() {
        let base = name("MiXeD.CaSe.ORG");
        let enc = encode_0x20(&base, 0, 9);
        assert_eq!(enc.to_string(), "mixed.case.org");
    }

    #[test]
    fn capacity_counts_only_letters() {
        assert_eq!(capacity_bits(&name("abc.123")), 3);
        assert_eq!(capacity_bits(&name("a1b2.c3")), 3);
    }

    #[test]
    fn overflow_bits_dropped() {
        let base = name("ab.cd"); // 4 letters
        let enc = encode_0x20(&base, 0b11111, 5);
        assert_eq!(decode_0x20(&enc, 5), 0b1111);
    }
}
