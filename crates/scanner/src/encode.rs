//! Request encodings and response correlation.
//!
//! Two schemes from the paper:
//!
//! 1. **Enumeration scans** (Sec. 2.2) embed the *target address* in the
//!    query name — `prefix.hex-ip.scan-zone` — so the response
//!    identifies which host it was sent to even when the answering
//!    source address differs (DNS proxies, multi-homed hosts).
//! 2. **Domain scans** (Sec. 3.3) cannot vary the name, so they encode a
//!    25-bit *resolver identifier*: 16 bits in the DNS transaction ID,
//!    9 bits in the UDP source port, and — redundantly, for resolvers
//!    that rewrite ports — the same 9 bits in 0x20 casing.

use dnswire::{decode_0x20, encode_0x20, Message, MessageBuilder, MessageView, Name, RecordType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of ports used by the domain scan (9 bits).
pub const PORT_BITS: u32 = 9;
/// Port-block width (`2^PORT_BITS` = 512 ports).
pub const PORT_SPAN: u16 = 1 << PORT_BITS; // 512
/// Resolver identifiers carry 25 bits total.
pub const ID_BITS: u32 = 25;

/// Render an IPv4 address as the fixed-width hex label used in scan
/// names.
pub fn hex_ip(ip: std::net::Ipv4Addr) -> String {
    format!("{:08x}", u32::from(ip))
}

/// Parse a hex label back to an address.
pub fn parse_hex_ip(label: &str) -> Option<std::net::Ipv4Addr> {
    parse_hex_label(label.as_bytes())
}

/// Eight label bytes, hex digits of either case, to an address —
/// `u32::from_str_radix(label, 16)` without needing a `str`, including
/// its acceptance of one leading `+` in place of the first digit.
fn parse_hex_label(label: &[u8]) -> Option<std::net::Ipv4Addr> {
    let label: &[u8; 8] = label.try_into().ok()?;
    let digits = label.strip_prefix(b"+").unwrap_or(label);
    digits
        .iter()
        .try_fold(0u32, |v, &b| Some(v << 4 | (b as char).to_digit(16)?))
        .map(Into::into)
}

/// Build the enumeration query for `target`: random cache-busting
/// prefix + hex target + zone, with a transaction ID derived from the
/// same deterministic stream.
pub fn enumeration_query(target: std::net::Ipv4Addr, zone: &str, seed: u64) -> (Message, Name) {
    let mut rng = SmallRng::seed_from_u64(seed ^ u32::from(target) as u64);
    let prefix: String = (0..8)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect();
    let name =
        Name::parse(&format!("{prefix}.{}.{zone}", hex_ip(target))).expect("scan name is valid");
    let txid: u16 = rng.gen();
    // Advertise EDNS0 like real scanners do — resolvers that need more
    // than 512 bytes can answer without truncation.
    let msg = MessageBuilder::query(txid, name.clone(), RecordType::A)
        .edns(4096)
        .build();
    (msg, name)
}

/// Pre-encoded wire template for enumeration queries.
///
/// A full sweep sends one query per allocated address — tens of
/// millions per campaign — and the only bytes that vary between
/// probes are the transaction ID, the cache-busting prefix, and the
/// hex target label, all at fixed offsets. Building each probe by
/// patching a template skips per-probe name parsing and message
/// construction entirely; the output is byte-identical to
/// [`enumeration_query`]`(target, zone, seed).0.encode()`.
pub struct EnumProbeTemplate {
    bytes: Vec<u8>,
    seed: u64,
}

/// Offset of the 8-byte prefix label's content (12-byte header + the
/// label's length byte).
const PREFIX_AT: usize = 13;
/// Offset of the 8-byte hex target label's content.
const HEX_AT: usize = 22;

impl EnumProbeTemplate {
    /// Build the template for one `(zone, seed)` scan.
    pub fn new(zone: &str, seed: u64) -> Self {
        let (msg, _) = enumeration_query(std::net::Ipv4Addr::UNSPECIFIED, zone, seed);
        EnumProbeTemplate {
            bytes: msg.encode(),
            seed,
        }
    }

    /// Length of every probe this template stamps.
    pub fn probe_len(&self) -> usize {
        self.bytes.len()
    }

    /// Wire bytes of the enumeration query for `target`.
    pub fn probe(&self, target: std::net::Ipv4Addr) -> Vec<u8> {
        let mut out = self.bytes.clone();
        self.patch(target, &mut out);
        out
    }

    /// Write the enumeration query for `target` into `out`, which must
    /// be [`probe_len`](Self::probe_len) bytes — a slot of a batch
    /// buffer, so a sweep allocates per batch rather than per probe.
    pub fn stamp(&self, target: std::net::Ipv4Addr, out: &mut [u8]) {
        out.copy_from_slice(&self.bytes);
        self.patch(target, out);
    }

    /// Overwrite the three fields of a template copy that vary per probe.
    fn patch(&self, target: std::net::Ipv4Addr, out: &mut [u8]) {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ u32::from(target) as u64);
        for slot in &mut out[PREFIX_AT..PREFIX_AT + 8] {
            *slot = b'a' + rng.gen_range(0..26u8);
        }
        const HEXDIGITS: &[u8; 16] = b"0123456789abcdef";
        let v = u32::from(target);
        for (i, slot) in out[HEX_AT..HEX_AT + 8].iter_mut().enumerate() {
            *slot = HEXDIGITS[((v >> (28 - 4 * i)) & 0xf) as usize];
        }
        let txid: u16 = rng.gen();
        out[..2].copy_from_slice(&txid.to_be_bytes());
    }
}

/// Extract the encoded target address from an echoed question name —
/// a `&Name`, or the [`dnswire::NameView`] of a response still on the
/// wire.
pub fn target_from_qname<'a>(
    qname: impl IntoIterator<Item = &'a [u8]>,
) -> Option<std::net::Ipv4Addr> {
    // Labels: prefix . hexip . <zone...>
    let mut labels = qname.into_iter();
    let (_prefix, hex, _zone) = (labels.next()?, labels.next()?, labels.next()?);
    parse_hex_label(hex)
}

/// Pre-encoded wire template for the queries whose name does not vary
/// between probes: the domain scan's (Sec. 3.3), the snooping
/// campaign's NS queries, the CHAOS version queries. Stamping a probe
/// copies the template and patches the identifier in; for a
/// [`domain_probe`](Self::domain_probe) template the output is
/// byte-identical to building [`encode_probe`]'s name into a query
/// with [`MessageBuilder`] and encoding it.
pub struct QueryTemplate {
    bytes: Vec<u8>,
    /// Offsets of the letters that carry identifier bits 16.. as 0x20
    /// casing; none for a template that varies only the transaction ID.
    casing_at: Vec<usize>,
}

impl QueryTemplate {
    /// A template of `query` whose probes differ in transaction ID only.
    pub fn new(query: &Message) -> Self {
        QueryTemplate {
            bytes: query.encode(),
            casing_at: Vec::new(),
        }
    }

    /// The domain scan's A query for `domain`: transaction ID and the
    /// casing of the name's first [`PORT_BITS`] letters carry the
    /// 25-bit resolver identifier.
    pub fn domain_probe(domain: &str) -> Self {
        let base = Name::parse(domain).expect("catalog domains are valid names");
        let lower = encode_0x20(&base, 0, PORT_BITS);
        let bytes = MessageBuilder::query(0, lower, RecordType::A)
            .build()
            .encode();
        // The question name sits uncompressed right behind the header.
        let mut casing_at = Vec::with_capacity(PORT_BITS as usize);
        let mut pos = 12;
        while bytes[pos] != 0 {
            let label = pos + 1..pos + 1 + bytes[pos] as usize;
            casing_at.extend(label.clone().filter(|&at| bytes[at].is_ascii_alphabetic()));
            pos = label.end;
        }
        casing_at.truncate(PORT_BITS as usize);
        QueryTemplate { bytes, casing_at }
    }

    /// Length of every probe this template stamps.
    pub fn probe_len(&self) -> usize {
        self.bytes.len()
    }

    /// Wire bytes of the probe identified by `id`.
    pub fn probe(&self, id: u32) -> Vec<u8> {
        let mut out = self.bytes.clone();
        self.patch(id, &mut out);
        out
    }

    /// Write the probe identified by `id` into `out`, which must be
    /// [`probe_len`](Self::probe_len) bytes — a slot of a batch buffer.
    pub fn stamp(&self, id: u32, out: &mut [u8]) {
        out.copy_from_slice(&self.bytes);
        self.patch(id, out);
    }

    /// Low 16 bits into the transaction ID, the bits above into casing.
    fn patch(&self, id: u32, out: &mut [u8]) {
        out[..2].copy_from_slice(&(id as u16).to_be_bytes());
        for (bit, &at) in self.casing_at.iter().enumerate() {
            if (id >> (16 + bit)) & 1 == 1 {
                out[at] = out[at].to_ascii_uppercase();
            }
        }
    }
}

/// Encoded form of a domain-scan probe for resolver `id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeEncoding {
    /// DNS transaction ID (low 16 bits of the resolver id).
    pub txid: u16,
    /// Offset into the scanner's port block (high 9 bits).
    pub port_offset: u16,
    /// Query name with the high 9 bits 0x20-encoded into its casing.
    pub qname: Name,
}

/// Encode resolver `id` (< 2²⁵) for a query of `domain`.
pub fn encode_probe(id: u32, domain: &str) -> ProbeEncoding {
    assert!(id < (1 << ID_BITS), "resolver id {id} exceeds 25 bits");
    let txid = (id & 0xffff) as u16;
    let high = (id >> 16) as u16; // 9 bits
    let base = Name::parse(domain).expect("catalog domains are valid names");
    let qname = encode_0x20(&base, high as u32, PORT_BITS);
    ProbeEncoding {
        txid,
        port_offset: high,
        qname,
    }
}

/// Recover the resolver id from a response.
///
/// `arrival_port_offset` is the offset within the scanner's port block
/// the response actually arrived on; `None` if it arrived outside the
/// block (or the caller cannot attribute it). The 0x20 casing of the
/// echoed question is used when it disagrees with the arrival port —
/// the redundancy that defeats port-rewriting resolvers.
pub fn decode_probe(msg: &MessageView<'_>, arrival_port_offset: Option<u16>) -> Option<u32> {
    let low = msg.id() as u32;
    let casing_bits = decode_0x20(msg.question()?.name, PORT_BITS) as u16;
    let high = match arrival_port_offset {
        Some(p) if p < PORT_SPAN && p == casing_bits => p,
        // Port missing or rewritten: trust the casing channel.
        _ => casing_bits,
    };
    Some(((high as u32) << 16) | low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn hex_ip_round_trip() {
        for ip in [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(11, 22, 33, 44),
        ] {
            assert_eq!(parse_hex_ip(&hex_ip(ip)), Some(ip));
        }
        assert_eq!(parse_hex_ip("zzzzzzzz"), None);
        assert_eq!(parse_hex_ip("abcd"), None);
    }

    #[test]
    fn enumeration_query_embeds_target() {
        let target = Ipv4Addr::new(11, 0, 3, 7);
        let (msg, name) = enumeration_query(target, "scan.gwild.example", 9);
        assert_eq!(target_from_qname(&name), Some(target));
        assert_eq!(msg.questions[0].qname, name);
        // Deterministic per (target, seed).
        let (msg2, _) = enumeration_query(target, "scan.gwild.example", 9);
        assert_eq!(msg.header.id, msg2.header.id);
        let (msg3, name3) = enumeration_query(Ipv4Addr::new(11, 0, 3, 8), "scan.gwild.example", 9);
        assert_ne!(name.to_string(), name3.to_string());
        let _ = msg3;
    }

    #[test]
    fn probe_round_trip_via_port() {
        for id in [0u32, 1, 0xffff, 0x10000, 0x1ffffff, 12_345_678] {
            let p = encode_probe(id, "paypal.example");
            let q = MessageBuilder::query(p.txid, p.qname.clone(), RecordType::A).build();
            let resp = MessageBuilder::response_to(&q, dnswire::Rcode::NoError)
                .build()
                .encode();
            let resp = MessageView::parse(&resp).unwrap();
            assert_eq!(
                decode_probe(&resp, Some(p.port_offset)),
                Some(id),
                "id={id}"
            );
        }
    }

    #[test]
    fn probe_round_trip_with_rewritten_port() {
        // The resolver answered to the wrong port: 0x20 casing rescues
        // the high bits.
        let id = 0x1A3_4567u32;
        let p = encode_probe(id, "okcupid.example");
        let q = MessageBuilder::query(p.txid, p.qname.clone(), RecordType::A).build();
        let resp = MessageBuilder::response_to(&q, dnswire::Rcode::NoError)
            .build()
            .encode();
        let resp = MessageView::parse(&resp).unwrap();
        assert_eq!(decode_probe(&resp, None), Some(id));
        assert_eq!(decode_probe(&resp, Some(p.port_offset ^ 1)), Some(id));
    }

    #[test]
    fn casing_survives_name_identity() {
        let p = encode_probe(0x1ff_0000, "bet-at-home.example");
        assert_eq!(p.qname, Name::parse("bet-at-home.example").unwrap());
        assert_eq!(p.port_offset, 0x1ff);
    }

    #[test]
    #[should_panic(expected = "exceeds 25 bits")]
    fn oversized_id_rejected() {
        let _ = encode_probe(1 << 25, "x.example");
    }

    #[test]
    fn probe_template_matches_full_construction() {
        let zone = "scan.gwild.example";
        for seed in [0u64, 1, 0xF161_0000_0000_0007] {
            let tmpl = EnumProbeTemplate::new(zone, seed);
            for ip in [
                Ipv4Addr::new(0, 0, 0, 0),
                Ipv4Addr::new(11, 22, 33, 44),
                Ipv4Addr::new(192, 168, 0, 1),
                Ipv4Addr::new(255, 255, 255, 255),
            ] {
                let wire = enumeration_query(ip, zone, seed).0.encode();
                assert_eq!(tmpl.probe(ip), wire, "seed={seed} ip={ip}");
                // Stamped into the middle of a batch buffer: the slot is
                // the probe, its neighbours are untouched.
                let n = tmpl.probe_len();
                let mut buf = vec![0xAA; 3 * n + 7];
                tmpl.stamp(ip, &mut buf[n + 7..2 * n + 7]);
                assert_eq!(&buf[n + 7..2 * n + 7], &wire[..], "seed={seed} ip={ip}");
                assert!(buf[..n + 7]
                    .iter()
                    .chain(&buf[2 * n + 7..])
                    .all(|&b| b == 0xAA));
            }
        }
    }

    /// Echoed names come from whoever answered, so every shape of the
    /// hex label must map to what `from_utf8_lossy` + `to_ascii_lowercase`
    /// + `u32::from_str_radix` made of it.
    #[test]
    fn target_from_hostile_hex_labels() {
        let parse = |hex: &[u8]| {
            let labels = vec![b"prefix".to_vec(), hex.to_vec(), b"zone".to_vec()];
            target_from_qname(&Name::from_labels(labels).unwrap())
        };
        assert_eq!(parse(b"0b16212c"), Some(Ipv4Addr::new(11, 22, 33, 44)));
        assert_eq!(parse(b"0B16212C"), Some(Ipv4Addr::new(11, 22, 33, 44)));
        assert_eq!(parse(b"Ff00aAbB"), Some(Ipv4Addr::new(255, 0, 170, 187)));
        // `from_str_radix` takes a sign: `+` and seven digits is a number.
        assert_eq!(parse(b"+b16212c"), Some(Ipv4Addr::new(11, 22, 33, 44)));
        assert_eq!(parse(b"+0000001"), Some(Ipv4Addr::new(0, 0, 0, 1)));
        assert_eq!(parse(b"-b16212c"), None);
        assert_eq!(parse(b"++16212c"), None);
        assert_eq!(parse(b"0b16212+"), None);
        assert_eq!(parse(b"0b16212"), None, "seven bytes");
        assert_eq!(parse(b"00b16212c"), None, "nine bytes");
        assert_eq!(parse(b"0b16212g"), None);
        assert_eq!(parse(b"0b 6212c"), None);
        assert_eq!(parse(b"0b16\xff12c"), None, "not UTF-8");
        assert_eq!(
            parse(b"\xc3\xa9b16212"),
            None,
            "UTF-8, eight bytes, not hex"
        );
        assert_eq!(parse(b"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8"), None);
        // Fewer than three labels is not a scan name at all.
        assert_eq!(
            target_from_qname(&Name::parse("0b16212c.zone").unwrap()),
            None
        );
    }

    /// The stamped domain probe is the built one, for every bit of the
    /// 25-bit identifier and for names with fewer letters than bits.
    #[test]
    fn domain_template_matches_full_construction() {
        let ids = (0..ID_BITS)
            .flat_map(|bit| [1u32 << bit, (1 << bit) - 1, 0x0155_5555 ^ (1 << bit)])
            .chain([0, 0x1ff_ffff, 12_345_678]);
        for domain in [
            "paypal.example",
            "bet-at-home.example",
            "MiXeD.Case.Example.",
            "a1.b2",
            "123.45",
        ] {
            let tmpl = QueryTemplate::domain_probe(domain);
            for id in ids.clone() {
                let p = encode_probe(id, domain);
                let wire = MessageBuilder::query(p.txid, p.qname, RecordType::A)
                    .build()
                    .encode();
                assert_eq!(tmpl.probe(id), wire, "domain={domain} id={id:#x}");
                let mut slot = vec![0xAA; tmpl.probe_len()];
                tmpl.stamp(id, &mut slot);
                assert_eq!(slot, wire);
            }
        }
        // A plain template varies the transaction ID and nothing else.
        let query = MessageBuilder::chaos_query(0, Name::parse("Version.Bind").unwrap()).build();
        let tmpl = QueryTemplate::new(&query);
        let mut stamped = query.clone();
        stamped.header.id = 0xbeef;
        assert_eq!(tmpl.probe(0xbeef), stamped.encode());
    }
}
