//! The borrowed form of a message: [`MessageView`] checks a packet
//! once and then lends out what a caller asks for — header fields,
//! question names as label iterators, answer addresses, section
//! walkers — without copying anything out of it.
//!
//! There is one wire parser in this crate and this is it.
//! [`MessageView::parse`] is the only code that decides whether a
//! packet is well formed; [`Message::decode`] is
//! `MessageView::parse(..)?.to_message()`, the collector that copies a
//! checked packet into the owned form. What a view defers is
//! materialisation, never validation: a packet either yields a view
//! whose every accessor succeeds, or a [`DecodeError`].

use crate::error::DecodeError;
use crate::message::{Header, Message, Question, RData, ResourceRecord};
use crate::name::{walk_name, Labels, Name};
use crate::types::{Rcode, RecordClass, RecordType};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::Range;

const HEADER_LEN: usize = 12;

fn be16(bytes: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*bytes.get(at)?, *bytes.get(at + 1)?]))
}

fn be32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(
        bytes.get(at..at + 4)?.try_into().expect("four bytes"),
    ))
}

/// A checked DNS message, borrowed from the packet it arrived in.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    packet: &'a [u8],
    /// Where the answer, authority and additional sections start (the
    /// question section starts right after the header).
    starts: [usize; 3],
}

impl<'a> MessageView<'a> {
    /// Check `packet` and borrow it. Tolerates trailing bytes after the
    /// last announced record (some CPE stacks pad packets) but rejects
    /// any structural inconsistency inside the announced sections:
    /// all four sections are walked, every name's pointers, label
    /// types and length, every RDLENGTH and every typed RDATA shape.
    pub fn parse(packet: &'a [u8]) -> Result<Self, DecodeError> {
        if packet.len() < HEADER_LEN {
            return Err(DecodeError::Truncated { context: "header" });
        }
        let count = |at: usize| u16::from_be_bytes([packet[at], packet[at + 1]]);
        let mut pos = HEADER_LEN;
        for _ in 0..count(4) {
            pos = walk_name(packet, pos, |_| {})?;
            packet
                .get(pos..pos + 4)
                .ok_or(DecodeError::SectionOverrun {
                    section: "question",
                })?;
            pos += 4;
        }
        let mut starts = [0usize; 3];
        for (i, section) in ["answer", "authority", "additional"]
            .into_iter()
            .enumerate()
        {
            starts[i] = pos;
            for _ in 0..count(6 + 2 * i) {
                pos = walk_name(packet, pos, |_| {})?;
                let fixed = packet
                    .get(pos..pos + 10)
                    .ok_or(DecodeError::SectionOverrun { section })?;
                let rtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
                let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
                pos += 10;
                let end = pos + rdlen;
                if packet.len() < end {
                    return Err(DecodeError::BadRdLength {
                        expected: rdlen,
                        available: packet.len().saturating_sub(pos),
                    });
                }
                RDataView::parse(packet, pos..end, rtype)?;
                pos = end;
            }
        }
        Ok(MessageView { packet, starts })
    }

    /// Transaction ID.
    pub fn id(&self) -> u16 {
        u16::from_be_bytes([self.packet[0], self.packet[1]])
    }

    /// The raw flags word (QR, OPCODE, AA, TC, RD, RA, Z, AD, CD, RCODE).
    pub fn flags(&self) -> u16 {
        u16::from_be_bytes([self.packet[2], self.packet[3]])
    }

    /// Query (`false`) or response (`true`).
    pub fn is_response(&self) -> bool {
        self.flags() & 0x8000 != 0
    }

    /// Response code.
    pub fn rcode(&self) -> Rcode {
        Rcode::from_u8(self.flags() as u8)
    }

    /// The header with its flag bits expanded.
    pub fn header(&self) -> Header {
        Header::from_flags_word(self.id(), self.flags())
    }

    fn count(&self, section: usize) -> u16 {
        u16::from_be_bytes([self.packet[4 + 2 * section], self.packet[5 + 2 * section]])
    }

    /// The question section.
    pub fn questions(&self) -> Questions<'a> {
        Questions {
            packet: self.packet,
            pos: HEADER_LEN,
            left: self.count(0),
        }
    }

    /// The first question, which is the one every responder answers.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    fn section(&self, i: usize) -> Records<'a> {
        Records {
            packet: self.packet,
            pos: self.starts[i],
            left: self.count(i + 1),
        }
    }

    /// The answer section.
    pub fn answers(&self) -> Records<'a> {
        self.section(0)
    }

    /// The authority section.
    pub fn authorities(&self) -> Records<'a> {
        self.section(1)
    }

    /// The additional section.
    pub fn additionals(&self) -> Records<'a> {
        self.section(2)
    }

    /// All IPv4 addresses in the answer section, in order.
    pub fn answer_ips(&self) -> impl Iterator<Item = Ipv4Addr> + 'a {
        self.answers().filter_map(|rr| rr.as_a())
    }

    /// Copy the message out of the packet into the owned form.
    pub fn to_message(&self) -> Message {
        let records = |section: Records<'a>| section.map(|rr| rr.to_record()).collect::<Vec<_>>();
        Message {
            header: self.header(),
            questions: self
                .questions()
                .map(|q| Question {
                    qname: q.name.to_name(),
                    qtype: q.qtype,
                    qclass: q.qclass,
                })
                .collect(),
            answers: records(self.answers()),
            authorities: records(self.authorities()),
            additionals: records(self.additionals()),
        }
    }
}

/// Offset just past the (checked) name at `pos` in the record stream:
/// after its root byte or its first compression pointer.
fn name_end(packet: &[u8], mut pos: usize) -> Option<usize> {
    loop {
        match *packet.get(pos)? {
            0 => return Some(pos + 1),
            l if l & 0xc0 != 0 => return Some(pos + 2),
            l => pos += 1 + l as usize,
        }
    }
}

/// A domain name inside a checked packet.
#[derive(Debug, Clone, Copy)]
pub struct NameView<'a> {
    packet: &'a [u8],
    at: usize,
}

/// Longest text [`NameView::to_ascii_lower`] can produce: 250 label
/// octets of which each may render as two UTF-8 bytes, and the dots.
const MAX_LOWER_TEXT: usize = 512;

/// The lower-cased text of a name, held on the stack.
#[derive(Clone)]
pub struct LowerName {
    buf: [u8; MAX_LOWER_TEXT],
    len: usize,
}

impl LowerName {
    /// The text: labels joined by `.`, no trailing dot, root as `.`.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len])
            .expect("lower-cased ASCII and two-byte sequences are UTF-8")
    }
}

impl<'a> NameView<'a> {
    /// Offset of the name in its packet.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Labels, outermost (leftmost) first, with the casing they have on
    /// the wire.
    pub fn labels(&self) -> Labels<'a> {
        Labels::new(self.packet, self.at)
    }

    /// The owned form.
    pub fn to_name(&self) -> Name {
        Name::from_wire_labels(self.labels())
    }

    /// Feed the UTF-8 bytes of [`Name::to_ascii_lower`]'s text to `f`
    /// until it returns `false`; whether it never did. Octets above
    /// 0x7f render as the two-byte character `Name` makes of them.
    fn lower_text_bytes(&self, mut f: impl FnMut(u8) -> bool) -> bool {
        let mut root = true;
        for label in self.labels() {
            if !root && !f(b'.') {
                return false;
            }
            root = false;
            for &b in label {
                let fed = if b.is_ascii() {
                    f(b.to_ascii_lowercase())
                } else {
                    f(0xc0 | (b >> 6)) && f(0x80 | (b & 0x3f))
                };
                if !fed {
                    return false;
                }
            }
        }
        !root || f(b'.')
    }

    /// Lower-cased textual form without trailing dot (root renders as
    /// `.`) — exactly [`Name::to_ascii_lower`], without the `String`.
    pub fn to_ascii_lower(&self) -> LowerName {
        let mut out = LowerName {
            buf: [0; MAX_LOWER_TEXT],
            len: 0,
        };
        self.lower_text_bytes(|b| match out.buf.get_mut(out.len) {
            Some(slot) => {
                *slot = b;
                out.len += 1;
                true
            }
            None => false,
        });
        out
    }

    /// Whether [`to_ascii_lower`](Self::to_ascii_lower) would equal
    /// `text`, compared in place on the wire bytes.
    pub fn eq_ascii_lower(&self, text: &str) -> bool {
        let mut rest = text.as_bytes().iter();
        self.lower_text_bytes(|b| rest.next() == Some(&b)) && rest.next().is_none()
    }
}

impl<'a> IntoIterator for NameView<'a> {
    type Item = &'a [u8];
    type IntoIter = Labels<'a>;

    fn into_iter(self) -> Labels<'a> {
        self.labels()
    }
}

/// A question-section entry of a checked packet.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Queried name.
    pub name: NameView<'a>,
    /// Queried record type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

/// Walks the question section of a checked packet.
#[derive(Debug, Clone)]
pub struct Questions<'a> {
    packet: &'a [u8],
    pos: usize,
    left: u16,
}

impl<'a> Iterator for Questions<'a> {
    type Item = QuestionView<'a>;

    fn next(&mut self) -> Option<QuestionView<'a>> {
        self.left = self.left.checked_sub(1)?;
        let name = NameView {
            packet: self.packet,
            at: self.pos,
        };
        let fixed = name_end(self.packet, self.pos)?;
        let question = QuestionView {
            name,
            qtype: RecordType::from_u16(be16(self.packet, fixed)?),
            qclass: RecordClass::from_u16(be16(self.packet, fixed + 2)?),
        };
        self.pos = fixed + 4;
        Some(question)
    }
}

/// A resource record of a checked packet: the fixed fields read, the
/// name and RDATA left where they are.
#[derive(Debug, Clone)]
pub struct RecordView<'a> {
    packet: &'a [u8],
    name_at: usize,
    /// Record type.
    pub rtype: RecordType,
    /// Record class.
    pub rclass: RecordClass,
    /// Time to live, in seconds.
    pub ttl: u32,
    rdata: Range<usize>,
}

impl<'a> RecordView<'a> {
    /// Owner name.
    pub fn name(&self) -> NameView<'a> {
        NameView {
            packet: self.packet,
            at: self.name_at,
        }
    }

    /// Where the RDATA sits in the packet.
    pub fn rdata_range(&self) -> Range<usize> {
        self.rdata.clone()
    }

    /// The RDATA octets as they are on the wire.
    pub fn rdata_bytes(&self) -> &'a [u8] {
        &self.packet[self.rdata.clone()]
    }

    /// The RDATA, typed.
    pub fn rdata(&self) -> RDataView<'a> {
        RDataView::parse(self.packet, self.rdata.clone(), self.rtype)
            .expect("MessageView::parse accepted this RDATA")
    }

    /// The IPv4 address of an `A` record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self.rdata() {
            RDataView::A(ip) => Some(ip),
            _ => None,
        }
    }

    /// The owned form.
    pub fn to_record(&self) -> ResourceRecord {
        ResourceRecord {
            name: self.name().to_name(),
            rtype: self.rtype,
            rclass: self.rclass,
            ttl: self.ttl,
            rdata: self.rdata().to_rdata(),
        }
    }
}

/// Walks one record section of a checked packet.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    packet: &'a [u8],
    pos: usize,
    left: u16,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        self.left = self.left.checked_sub(1)?;
        let fixed = name_end(self.packet, self.pos)?;
        let rdata_at = fixed + 10;
        let rdata = rdata_at..rdata_at + be16(self.packet, fixed + 8)? as usize;
        self.packet.get(rdata.clone())?;
        let record = RecordView {
            packet: self.packet,
            name_at: self.pos,
            rtype: RecordType::from_u16(be16(self.packet, fixed)?),
            rclass: RecordClass::from_u16(be16(self.packet, fixed + 2)?),
            ttl: be32(self.packet, fixed + 4)?,
            rdata,
        };
        self.pos = record.rdata.end;
        Some(record)
    }
}

/// The character-strings of a TXT record, checked.
#[derive(Debug, Clone, Copy)]
pub struct TxtView<'a>(&'a [u8]);

impl<'a> TxtView<'a> {
    /// The strings, in order.
    pub fn strings(&self) -> impl Iterator<Item = &'a [u8]> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (string, tail) = tail.split_at_checked(len as usize)?;
            rest = tail;
            Some(string)
        })
    }
}

/// Typed record data, borrowed. Unmodelled types, and modelled types
/// whose RDATA does not have the type's fixed size, are opaque bytes.
#[derive(Debug, Clone, Copy)]
pub enum RDataView<'a> {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Authoritative name server.
    Ns(NameView<'a>),
    /// Canonical-name alias target.
    Cname(NameView<'a>),
    /// Reverse-DNS pointer target.
    Ptr(NameView<'a>),
    /// Mail exchange: preference and exchange host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Mail host.
        exchange: NameView<'a>,
    },
    /// Character strings.
    Txt(TxtView<'a>),
    /// Start of authority.
    Soa {
        /// Primary name server.
        mname: NameView<'a>,
        /// Responsible mailbox.
        rname: NameView<'a>,
        /// Zone serial.
        serial: u32,
        /// Secondary refresh interval (s).
        refresh: u32,
        /// Retry interval (s).
        retry: u32,
        /// Expiry (s).
        expire: u32,
        /// Negative-caching TTL (s).
        minimum: u32,
    },
    /// Raw RDATA of an unmodelled record type.
    Opaque(&'a [u8]),
}

impl<'a> RDataView<'a> {
    /// The per-type RDATA check. `rdata` must lie inside `packet`.
    fn parse(
        packet: &'a [u8],
        rdata: Range<usize>,
        rtype: RecordType,
    ) -> Result<RDataView<'a>, DecodeError> {
        let (start, end) = (rdata.start, rdata.end);
        let raw = &packet[rdata];
        // Names inside RDATA may use compression pointers into the full
        // packet, so they are walked against `packet`, not `raw`.
        let name = |at: usize| Ok((NameView { packet, at }, walk_name(packet, at, |_| {})?));
        let within = |next: usize| {
            if next > end {
                Err(DecodeError::BadRdLength {
                    expected: end - start,
                    available: next - start,
                })
            } else {
                Ok(())
            }
        };
        Ok(match rtype {
            RecordType::A if raw.len() == 4 => {
                RDataView::A(Ipv4Addr::new(raw[0], raw[1], raw[2], raw[3]))
            }
            RecordType::Aaaa if raw.len() == 16 => {
                let octets: [u8; 16] = raw.try_into().expect("sixteen bytes");
                RDataView::Aaaa(Ipv6Addr::from(octets))
            }
            RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
                let (target, next) = name(start)?;
                within(next)?;
                match rtype {
                    RecordType::Ns => RDataView::Ns(target),
                    RecordType::Cname => RDataView::Cname(target),
                    _ => RDataView::Ptr(target),
                }
            }
            RecordType::Mx if raw.len() >= 3 => {
                let (exchange, next) = name(start + 2)?;
                within(next)?;
                RDataView::Mx {
                    preference: u16::from_be_bytes([raw[0], raw[1]]),
                    exchange,
                }
            }
            RecordType::Txt => {
                let mut p = 0usize;
                while p < raw.len() {
                    p += 1 + raw[p] as usize;
                    if p > raw.len() {
                        return Err(DecodeError::BadCharacterString);
                    }
                }
                RDataView::Txt(TxtView(raw))
            }
            RecordType::Soa => {
                let (mname, next) = name(start)?;
                let (rname, next) = name(next)?;
                let fixed = packet.get(next..next + 20).ok_or(DecodeError::Truncated {
                    context: "SOA fixed fields",
                })?;
                within(next + 20)?;
                let word = |i: usize| be32(fixed, 4 * i).expect("inside twenty bytes");
                RDataView::Soa {
                    mname,
                    rname,
                    serial: word(0),
                    refresh: word(1),
                    retry: word(2),
                    expire: word(3),
                    minimum: word(4),
                }
            }
            _ => RDataView::Opaque(raw),
        })
    }

    /// TXT strings joined into one `String` (lossy UTF-8) — how
    /// `version.bind` answers are consumed.
    pub fn txt_joined(&self) -> Option<String> {
        match self {
            RDataView::Txt(txt) => Some(
                txt.strings()
                    .map(|s| String::from_utf8_lossy(s))
                    .collect::<String>(),
            ),
            _ => None,
        }
    }

    /// The owned form.
    pub fn to_rdata(&self) -> RData {
        match *self {
            RDataView::A(ip) => RData::A(ip),
            RDataView::Aaaa(ip) => RData::Aaaa(ip),
            RDataView::Ns(n) => RData::Ns(n.to_name()),
            RDataView::Cname(n) => RData::Cname(n.to_name()),
            RDataView::Ptr(n) => RData::Ptr(n.to_name()),
            RDataView::Mx {
                preference,
                exchange,
            } => RData::Mx {
                preference,
                exchange: exchange.to_name(),
            },
            RDataView::Txt(txt) => RData::Txt(txt.strings().map(<[u8]>::to_vec).collect()),
            RDataView::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => RData::Soa {
                mname: mname.to_name(),
                rname: rname.to_name(),
                serial,
                refresh,
                retry,
                expire,
                minimum,
            },
            RDataView::Opaque(bytes) => RData::Opaque(bytes.to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageBuilder;

    /// A query for a name given as raw labels.
    fn query(labels: &[&[u8]]) -> Vec<u8> {
        let labels = labels.iter().map(|l| l.to_vec()).collect();
        let name = Name::from_labels(labels).unwrap();
        MessageBuilder::query(7, name, RecordType::A)
            .build()
            .encode()
    }

    #[test]
    fn lower_text_is_name_to_ascii_lower_for_every_octet() {
        let every_octet: Vec<u8> = (0..=255u8).collect();
        let cases: Vec<Vec<&[u8]>> = vec![
            vec![],
            vec![b"WwW", b"ExAmPlE", b"COM"],
            vec![b"dotted.label", b"x"],
            vec![b"caf\xc3\xa9", b"\xff\x80"],
            every_octet[..128].chunks(63).collect(),
            every_octet[128..].chunks(63).collect(),
            vec![&[0xff; 63], &[0xfe; 63], &[0xfd; 63], &[0xfc; 61]],
        ];
        for labels in cases {
            let wire = query(&labels);
            let view = MessageView::parse(&wire).unwrap();
            let name = view.question().unwrap().name;
            let want = name.to_name().to_ascii_lower();
            assert_eq!(name.to_ascii_lower().as_str(), want);
            assert!(name.eq_ascii_lower(&want));
            assert!(!name.eq_ascii_lower(&format!("{want}.")));
            let mut shorter = want.clone();
            shorter.pop();
            assert!(!name.eq_ascii_lower(&shorter));
        }
    }

    #[test]
    fn labels_follow_compression_pointers_in_place() {
        let mut wire = query(&[b"a", b"Example", b"com"]);
        wire[7] = 1; // ANCOUNT
        wire.extend_from_slice(&[3, b'w', b'w', b'w', 0xc0, 14]); // www + pointer to "Example.com"
        wire.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 198, 51, 100, 7]);
        let view = MessageView::parse(&wire).unwrap();
        let rr = view.answers().next().unwrap();
        let labels: Vec<&[u8]> = rr.name().labels().collect();
        assert_eq!(labels, [&b"www"[..], b"Example", b"com"]);
        assert!(rr.name().eq_ascii_lower("www.example.com"));
        assert_eq!(rr.as_a(), Some(Ipv4Addr::new(198, 51, 100, 7)));
        assert_eq!(view.answer_ips().count(), 1);
    }
}
