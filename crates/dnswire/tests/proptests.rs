//! Property-based tests for the DNS wire codec.
//!
//! Three invariant families:
//!  1. encode ∘ decode = identity for arbitrary structured messages;
//!  2. the decoder never panics on arbitrary bytes (fuzz-shaped input);
//!  3. the wire walker ([`MessageView`]) accepts, rejects and reads
//!     exactly what the eager decoder it replaced did — [`oracle`] is
//!     that decoder, kept verbatim as the reference.

use dnswire::{
    decode_0x20, encode_0x20, DecodeError, Header, Message, MessageView, Name, Opcode, Question,
    RData, Rcode, RecordClass, RecordType, ResourceRecord,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            (b'a'..=b'z').prop_map(|b| b),
            (b'A'..=b'Z').prop_map(|b| b),
            (b'0'..=b'9').prop_map(|b| b),
            Just(b'-'),
        ],
        1..=12,
    )
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..=5)
        .prop_filter_map("valid name", |labels| Name::from_labels(labels).ok())
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..3)
            .prop_map(RData::Txt),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                }
            }),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(RData::Opaque),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), arb_rdata(), any::<u32>(), any::<u16>()).prop_map(
        |(name, rdata, ttl, class_raw)| {
            // Type must agree with the rdata shape for a faithful round trip;
            // Opaque uses an unknown type code to avoid structured decoding.
            let rtype = rdata.record_type().unwrap_or(RecordType::Other(9999));
            ResourceRecord {
                name,
                rtype,
                rclass: if rtype == RecordType::Other(9999) {
                    RecordClass::from_u16(class_raw)
                } else {
                    RecordClass::In
                },
                ttl,
                rdata,
            }
        },
    )
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::sample::select(vec![
            Rcode::NoError,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::Refused,
            Rcode::FormErr,
        ]),
        proptest::collection::vec(arb_name(), 0..2),
        proptest::collection::vec(arb_record(), 0..4),
        proptest::collection::vec(arb_record(), 0..2),
        proptest::collection::vec(arb_record(), 0..2),
    )
        .prop_map(
            |(id, response, aa, rd, ra, rcode, qnames, answers, authorities, additionals)| {
                Message {
                    header: Header {
                        id,
                        response,
                        opcode: Opcode::Query,
                        authoritative: aa,
                        truncated: false,
                        recursion_desired: rd,
                        recursion_available: ra,
                        authentic_data: aa & rd, // arbitrary but varied
                        checking_disabled: ra & aa,
                        rcode,
                    },
                    questions: qnames
                        .into_iter()
                        .map(|qname| Question {
                            qname,
                            qtype: RecordType::A,
                            qclass: RecordClass::In,
                        })
                        .collect(),
                    answers,
                    authorities,
                    additionals,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_encode_decode_round_trip(msg in arb_message()) {
        let wire = msg.encode();
        let decoded = Message::decode(&wire).expect("self-encoded message must decode");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_packets(
        msg in arb_message(),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut wire = msg.encode();
        if !wire.is_empty() {
            let i = idx.index(wire.len());
            wire[i] ^= 1 << bit;
        }
        let _ = Message::decode(&wire);
    }

    #[test]
    fn name_text_round_trip(name in arb_name()) {
        let text = name.to_string();
        if text != "." {
            let reparsed = Name::parse(&text).unwrap();
            prop_assert_eq!(reparsed, name);
        }
    }

    #[test]
    fn zeroxtwenty_round_trip(name in arb_name(), value in any::<u32>(), bits in 1u32..=16) {
        let cap = dnswire::zeroxtwenty::capacity_bits(&name);
        let effective = bits.min(cap);
        let enc = encode_0x20(&name, value, bits);
        let decoded = decode_0x20(&enc, bits);
        let mask = if effective >= 32 { u32::MAX } else { (1u32 << effective) - 1 };
        prop_assert_eq!(decoded, value & mask);
        // 0x20 encoding never changes which name is being queried.
        prop_assert_eq!(enc, name);
    }
}

/// The eager, owning decoder `Message::decode` was before it became a
/// caller of the walker: the reference for what is well formed, which
/// error a malformed packet earns, and what every field reads as.
mod oracle {
    use super::*;

    const MAX_NAME_WIRE_LEN: usize = 255;
    const MAX_POINTER_HOPS: usize = 64;

    fn name(packet: &[u8], offset: usize) -> Result<(Name, usize), DecodeError> {
        let mut labels = Vec::new();
        let mut wire_len = 1usize;
        let mut pos = offset;
        let mut end_of_name: Option<usize> = None;
        let mut hops = 0usize;
        loop {
            let len_byte = *packet.get(pos).ok_or(DecodeError::Truncated {
                context: "name label length",
            })?;
            match len_byte {
                0 => {
                    let next = end_of_name.unwrap_or(pos + 1);
                    return Ok((Name::from_labels(labels).unwrap(), next));
                }
                l if l & 0xc0 == 0xc0 => {
                    let second = *packet.get(pos + 1).ok_or(DecodeError::Truncated {
                        context: "compression pointer",
                    })?;
                    let target = (((l & 0x3f) as usize) << 8) | second as usize;
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
                    labels.push(label.to_vec());
                    pos = end;
                }
            }
        }
    }

    pub fn decode(packet: &[u8]) -> Result<Message, DecodeError> {
        if packet.len() < 12 {
            return Err(DecodeError::Truncated { context: "header" });
        }
        let id = u16::from_be_bytes([packet[0], packet[1]]);
        let w = u16::from_be_bytes([packet[2], packet[3]]);
        let qd = u16::from_be_bytes([packet[4], packet[5]]) as usize;
        let an = u16::from_be_bytes([packet[6], packet[7]]) as usize;
        let ns = u16::from_be_bytes([packet[8], packet[9]]) as usize;
        let ar = u16::from_be_bytes([packet[10], packet[11]]) as usize;

        let mut pos = 12usize;
        let mut questions = Vec::new();
        for _ in 0..qd {
            let (qname, next) = name(packet, pos)?;
            pos = next;
            let rest = packet
                .get(pos..pos + 4)
                .ok_or(DecodeError::SectionOverrun {
                    section: "question",
                })?;
            let qtype = RecordType::from_u16(u16::from_be_bytes([rest[0], rest[1]]));
            let qclass = RecordClass::from_u16(u16::from_be_bytes([rest[2], rest[3]]));
            pos += 4;
            questions.push(Question {
                qname,
                qtype,
                qclass,
            });
        }

        let decode_section = |count: usize,
                              section: &'static str,
                              pos: &mut usize|
         -> Result<Vec<ResourceRecord>, DecodeError> {
            let mut records = Vec::new();
            for _ in 0..count {
                let (name, next) = name(packet, *pos)?;
                *pos = next;
                let fixed = packet
                    .get(*pos..*pos + 10)
                    .ok_or(DecodeError::SectionOverrun { section })?;
                let rtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
                let rclass = RecordClass::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
                let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
                let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
                *pos += 10;
                let rdata_start = *pos;
                let rdata_end = rdata_start + rdlen;
                if packet.len() < rdata_end {
                    return Err(DecodeError::BadRdLength {
                        expected: rdlen,
                        available: packet.len().saturating_sub(rdata_start),
                    });
                }
                let rdata = decode_rdata(packet, rdata_start, rdata_end, rtype)?;
                *pos = rdata_end;
                records.push(ResourceRecord {
                    name,
                    rtype,
                    rclass,
                    ttl,
                    rdata,
                });
            }
            Ok(records)
        };

        let answers = decode_section(an, "answer", &mut pos)?;
        let authorities = decode_section(ns, "authority", &mut pos)?;
        let additionals = decode_section(ar, "additional", &mut pos)?;

        Ok(Message {
            header: Header {
                id,
                response: w & 0x8000 != 0,
                opcode: Opcode::from_u8((w >> 11) as u8),
                authoritative: w & 0x0400 != 0,
                truncated: w & 0x0200 != 0,
                recursion_desired: w & 0x0100 != 0,
                recursion_available: w & 0x0080 != 0,
                authentic_data: w & 0x0020 != 0,
                checking_disabled: w & 0x0010 != 0,
                rcode: Rcode::from_u8(w as u8),
            },
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    fn decode_rdata(
        packet: &[u8],
        start: usize,
        end: usize,
        rtype: RecordType,
    ) -> Result<RData, DecodeError> {
        let raw = &packet[start..end];
        let rdata = match rtype {
            RecordType::A if raw.len() == 4 => {
                RData::A(Ipv4Addr::new(raw[0], raw[1], raw[2], raw[3]))
            }
            RecordType::Aaaa if raw.len() == 16 => {
                let mut o = [0u8; 16];
                o.copy_from_slice(raw);
                RData::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
                let (name, next) = name(packet, start)?;
                if next > end {
                    return Err(DecodeError::BadRdLength {
                        expected: end - start,
                        available: next - start,
                    });
                }
                match rtype {
                    RecordType::Ns => RData::Ns(name),
                    RecordType::Cname => RData::Cname(name),
                    _ => RData::Ptr(name),
                }
            }
            RecordType::Mx if raw.len() >= 3 => {
                let preference = u16::from_be_bytes([raw[0], raw[1]]);
                let (exchange, next) = name(packet, start + 2)?;
                if next > end {
                    return Err(DecodeError::BadRdLength {
                        expected: end - start,
                        available: next - start,
                    });
                }
                RData::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::Txt => {
                let mut parts = Vec::new();
                let mut p = 0usize;
                while p < raw.len() {
                    let l = raw[p] as usize;
                    p += 1;
                    if p + l > raw.len() {
                        return Err(DecodeError::BadCharacterString);
                    }
                    parts.push(raw[p..p + l].to_vec());
                    p += l;
                }
                RData::Txt(parts)
            }
            RecordType::Soa => {
                let (mname, next) = name(packet, start)?;
                let (rname, next2) = name(packet, next)?;
                let fixed = packet
                    .get(next2..next2 + 20)
                    .ok_or(DecodeError::Truncated {
                        context: "SOA fixed fields",
                    })?;
                if next2 + 20 > end {
                    return Err(DecodeError::BadRdLength {
                        expected: end - start,
                        available: next2 + 20 - start,
                    });
                }
                RData::Soa {
                    mname,
                    rname,
                    serial: u32::from_be_bytes([fixed[0], fixed[1], fixed[2], fixed[3]]),
                    refresh: u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]),
                    retry: u32::from_be_bytes([fixed[8], fixed[9], fixed[10], fixed[11]]),
                    expire: u32::from_be_bytes([fixed[12], fixed[13], fixed[14], fixed[15]]),
                    minimum: u32::from_be_bytes([fixed[16], fixed[17], fixed[18], fixed[19]]),
                }
            }
            _ => RData::Opaque(raw.to_vec()),
        };
        Ok(rdata)
    }
}

/// Exact label bytes, casing included (`Name` equality ignores case).
fn labels_of<'a>(name: impl IntoIterator<Item = &'a [u8]>) -> Vec<Vec<u8>> {
    name.into_iter().map(<[u8]>::to_vec).collect()
}

/// The whole contract on one packet: the walker and its owning
/// collector give the reference decoder's verdict, and everything read
/// lazily through the view is what the reference materialised.
fn assert_walker_matches_oracle(packet: &[u8]) {
    let expected = oracle::decode(packet);
    assert_eq!(Message::decode(packet), expected, "packet {packet:02x?}");
    let view = match (MessageView::parse(packet), &expected) {
        (Ok(view), Ok(_)) => view,
        (Err(got), Err(want)) => return assert_eq!(&got, want, "packet {packet:02x?}"),
        (got, want) => panic!("view {got:?}, reference {want:?}, packet {packet:02x?}"),
    };
    let msg = expected.unwrap();
    assert_eq!(view.header(), msg.header);
    assert_eq!(view.id(), msg.header.id);
    assert_eq!(view.is_response(), msg.header.response);
    assert_eq!(view.rcode(), msg.header.rcode);
    assert_eq!(view.to_message(), msg);
    assert_eq!(view.questions().count(), msg.questions.len());
    assert_eq!(view.question().is_some(), !msg.questions.is_empty());
    for (q, want) in view.questions().zip(&msg.questions) {
        assert_eq!(labels_of(q.name), labels_of(&want.qname));
        assert_eq!((q.qtype, q.qclass), (want.qtype, want.qclass));
        let lower = want.qname.to_ascii_lower();
        assert_eq!(q.name.to_ascii_lower().as_str(), lower);
        assert!(q.name.eq_ascii_lower(&lower));
        assert!(!q.name.eq_ascii_lower(&format!("{lower}x")));
        assert!(!q.name.eq_ascii_lower(&lower[..lower.len() - 1]));
        assert_eq!(decode_0x20(q.name, 9), decode_0x20(&want.qname, 9));
    }
    let sections = [
        (view.answers(), &msg.answers),
        (view.authorities(), &msg.authorities),
        (view.additionals(), &msg.additionals),
    ];
    for (records, want) in sections {
        assert_eq!(records.clone().count(), want.len());
        for (rr, want) in records.zip(want) {
            assert_eq!(labels_of(rr.name()), labels_of(&want.name));
            assert_eq!(
                (rr.rtype, rr.rclass, rr.ttl),
                (want.rtype, want.rclass, want.ttl)
            );
            assert_eq!(rr.rdata().to_rdata(), want.rdata);
            assert_eq!(rr.rdata().txt_joined(), want.rdata.txt_joined());
            assert_eq!(rr.as_a(), want.rdata.as_a());
            assert_eq!(rr.rdata_bytes(), &packet[rr.rdata_range()]);
            assert_eq!(rr.to_record(), *want);
        }
    }
    assert_eq!(view.answer_ips().collect::<Vec<_>>(), msg.answer_ips());
}

/// Re-lay an uncompressed packet with every record owner that repeats
/// the first question's name replaced by a pointer to it — what real
/// responders send.
fn compress_owners(wire: &[u8]) -> Vec<u8> {
    let view = MessageView::parse(wire).expect("self-encoded message");
    let Some(question) = view.question() else {
        return wire.to_vec();
    };
    let qname_len = labels_of(question.name)
        .iter()
        .map(|l| 1 + l.len())
        .sum::<usize>()
        + 1;
    let qname = &wire[12..12 + qname_len];
    let records: Vec<_> = view
        .answers()
        .chain(view.authorities())
        .chain(view.additionals())
        .collect();
    let Some(first) = records.first() else {
        return wire.to_vec();
    };
    let mut out = wire[..first.name().offset()].to_vec();
    for rr in &records {
        let fixed = rr.rdata_range().start - 10;
        let owner = &wire[rr.name().offset()..fixed];
        if owner == qname && owner.len() > 1 {
            out.extend_from_slice(&[0xc0, 12]);
        } else {
            out.extend_from_slice(owner);
        }
        out.extend_from_slice(&wire[fixed..rr.rdata_range().end]);
    }
    out
}

/// One way a responder's packet goes wrong.
#[derive(Debug, Clone)]
enum Damage {
    /// A two-byte compression pointer written at `at` — backwards,
    /// at itself (a loop) or forwards, as `to` falls.
    Pointer { at: prop::sample::Index, to: u16 },
    /// A section count that disagrees with the sections.
    Count { section: usize, value: u16 },
    /// An RDLENGTH that disagrees with its RDATA.
    RdLength {
        record: prop::sample::Index,
        value: u16,
    },
    /// One flipped bit.
    Bit { at: prop::sample::Index, bit: u8 },
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<prop::sample::Index>(), 0u16..300).prop_map(|(at, to)| Damage::Pointer { at, to }),
        (0usize..4, prop_oneof![0u16..6, any::<u16>()])
            .prop_map(|(section, value)| Damage::Count { section, value }),
        (
            any::<prop::sample::Index>(),
            prop_oneof![0u16..64, any::<u16>()]
        )
            .prop_map(|(record, value)| Damage::RdLength { record, value }),
        (any::<prop::sample::Index>(), 0u8..8).prop_map(|(at, bit)| Damage::Bit { at, bit }),
    ]
}

fn damage(wire: &mut [u8], how: &Damage) {
    match how {
        Damage::Pointer { at, to } => {
            let at = 12 + at.index(wire.len() - 12 + 1);
            if let Some(slot) = wire.get_mut(at..at + 2) {
                slot.copy_from_slice(&(0xc000 | to).to_be_bytes());
            }
        }
        Damage::Count { section, value } => {
            wire[4 + 2 * section..6 + 2 * section].copy_from_slice(&value.to_be_bytes());
        }
        Damage::RdLength { record, value } => {
            let rdlengths: Vec<usize> = MessageView::parse(wire)
                .map(|v| {
                    v.answers()
                        .chain(v.authorities())
                        .chain(v.additionals())
                        .map(|rr| rr.rdata_range().start - 2)
                        .collect()
                })
                .unwrap_or_default();
            if !rdlengths.is_empty() {
                let at = rdlengths[record.index(rdlengths.len())];
                wire[at..at + 2].copy_from_slice(&value.to_be_bytes());
            }
        }
        Damage::Bit { at, bit } => {
            let at = at.index(wire.len());
            wire[at] ^= 1 << bit;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn walker_matches_reference_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        assert_walker_matches_oracle(&bytes);
    }

    /// Bytes that start like a message: a header announcing a few
    /// records over noise reaches the section walkers far more often
    /// than noise alone.
    #[test]
    fn walker_matches_reference_on_noise_behind_a_header(
        counts in proptest::collection::vec(0u8..3, 4),
        body in proptest::collection::vec(
            prop_oneof![Just(0u8), Just(1), Just(3), Just(0xc0), Just(12), any::<u8>()],
            0..96,
        ),
    ) {
        let mut packet = vec![0x12, 0x34, 0x81, 0x80];
        for c in counts {
            packet.extend_from_slice(&[0, c]);
        }
        packet.extend_from_slice(&body);
        assert_walker_matches_oracle(&packet);
    }

    #[test]
    fn walker_matches_reference_on_valid_and_compressed_messages(msg in arb_message()) {
        let wire = msg.encode();
        assert_walker_matches_oracle(&wire);
        let compressed = compress_owners(&wire);
        prop_assert_eq!(Message::decode(&compressed).as_ref(), Ok(&msg));
        assert_walker_matches_oracle(&compressed);
    }

    /// Pointer loops, forward pointers, RDLENGTH lies, count-field lies
    /// and bit flips, one or two at a time, on plain and compressed
    /// packets.
    #[test]
    fn walker_matches_reference_on_damaged_messages(
        msg in arb_message(),
        compress in any::<bool>(),
        hits in proptest::collection::vec(arb_damage(), 1..3),
    ) {
        let mut wire = msg.encode();
        if compress {
            wire = compress_owners(&wire);
        }
        for hit in &hits {
            damage(&mut wire, hit);
        }
        assert_walker_matches_oracle(&wire);
    }

    #[test]
    fn walker_matches_reference_at_every_truncation(
        msg in arb_message(),
        compress in any::<bool>(),
    ) {
        let mut wire = msg.encode();
        if compress {
            wire = compress_owners(&wire);
        }
        for cut in 0..wire.len() {
            assert_walker_matches_oracle(&wire[..cut]);
        }
    }
}
