//! DNS message structure: header, questions, resource records, and the
//! full encode/decode path.

use crate::error::DecodeError;
use crate::name::Name;
use crate::types::{Opcode, Rcode, RecordClass, RecordType};
use crate::view::MessageView;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Fixed 12-octet message header (RFC 1035 §4.1.1), with flag bits
/// expanded into booleans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Transaction ID. The domain-scan campaign stores 16 of the 25
    /// resolver-identifier bits here (Section 3.3 of the paper).
    pub id: u16,
    /// Query (`false`) or response (`true`).
    pub response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative Answer.
    pub authoritative: bool,
    /// TrunCation.
    pub truncated: bool,
    /// Recursion Desired. Cache snooping sends RD=0 on purpose.
    pub recursion_desired: bool,
    /// Recursion Available.
    pub recursion_available: bool,
    /// Authentic Data (RFC 4035): the responder validated the answer
    /// with DNSSEC. The Sec. 5 injector-race experiment keys on this.
    pub authentic_data: bool,
    /// Checking Disabled (RFC 4035).
    pub checking_disabled: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A fresh query header.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
        }
    }

    fn flags_word(&self) -> u16 {
        let mut w = 0u16;
        if self.response {
            w |= 0x8000;
        }
        w |= (self.opcode.to_u8() as u16) << 11;
        if self.authoritative {
            w |= 0x0400;
        }
        if self.truncated {
            w |= 0x0200;
        }
        if self.recursion_desired {
            w |= 0x0100;
        }
        if self.recursion_available {
            w |= 0x0080;
        }
        if self.authentic_data {
            w |= 0x0020;
        }
        if self.checking_disabled {
            w |= 0x0010;
        }
        w |= self.rcode.to_u8() as u16;
        w
    }

    pub(crate) fn from_flags_word(id: u16, w: u16) -> Self {
        Header {
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
        }
    }
}

/// A question-section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub qname: Name,
    /// Queried record type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

/// Typed record data. Unmodelled types carry opaque bytes so they
/// survive a decode→encode round trip unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Authoritative name server.
    Ns(Name),
    /// Canonical-name alias target.
    Cname(Name),
    /// Reverse-DNS pointer target.
    Ptr(Name),
    /// Mail exchange: preference and exchange host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Mail host.
        exchange: Name,
    },
    /// Character strings (joined by [`RData::txt_joined`]).
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa {
        /// Primary name server.
        mname: Name,
        /// Responsible mailbox.
        rname: Name,
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
    Opaque(Vec<u8>),
}

impl RData {
    /// The record type this data corresponds to, if structurally typed.
    pub fn record_type(&self) -> Option<RecordType> {
        Some(match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa { .. } => RecordType::Soa,
            RData::Opaque(_) => return None,
        })
    }

    /// Convenience accessor: the IPv4 address of an `A` record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RData::A(ip) => Some(*ip),
            _ => None,
        }
    }

    /// Convenience accessor: TXT strings joined into one `String`
    /// (lossy UTF-8) — how `version.bind` answers are consumed.
    pub fn txt_joined(&self) -> Option<String> {
        match self {
            RData::Txt(parts) => Some(
                parts
                    .iter()
                    .map(|p| String::from_utf8_lossy(p).into_owned())
                    .collect::<Vec<_>>()
                    .join(""),
            ),
            _ => None,
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            RData::A(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Aaaa(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode_into(buf),
            RData::Mx {
                preference,
                exchange,
            } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode_into(buf);
            }
            RData::Txt(parts) => {
                for p in parts {
                    buf.push(p.len().min(255) as u8);
                    buf.extend_from_slice(&p[..p.len().min(255)]);
                }
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                mname.encode_into(buf);
                rname.encode_into(buf);
                buf.extend_from_slice(&serial.to_be_bytes());
                buf.extend_from_slice(&refresh.to_be_bytes());
                buf.extend_from_slice(&retry.to_be_bytes());
                buf.extend_from_slice(&expire.to_be_bytes());
                buf.extend_from_slice(&minimum.to_be_bytes());
            }
            RData::Opaque(bytes) => buf.extend_from_slice(bytes),
        }
    }
}

/// A resource record (answer, authority, or additional section entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
    /// Record class.
    pub rclass: RecordClass,
    /// Time to live, in seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Build an `A` record.
    pub fn a(name: Name, ttl: u32, ip: Ipv4Addr) -> Self {
        ResourceRecord {
            name,
            rtype: RecordType::A,
            rclass: RecordClass::In,
            ttl,
            rdata: RData::A(ip),
        }
    }

    /// Build an `NS` record.
    pub fn ns(name: Name, ttl: u32, target: Name) -> Self {
        ResourceRecord {
            name,
            rtype: RecordType::Ns,
            rclass: RecordClass::In,
            ttl,
            rdata: RData::Ns(target),
        }
    }

    /// Build a CHAOS-class `TXT` record (e.g. a `version.bind` answer).
    pub fn chaos_txt(name: Name, text: &str) -> Self {
        ResourceRecord {
            name,
            rtype: RecordType::Txt,
            rclass: RecordClass::Ch,
            ttl: 0,
            rdata: RData::Txt(vec![text.as_bytes().to_vec()]),
        }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Fixed header.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authorities: Vec<ResourceRecord>,
    /// Additional section.
    pub additionals: Vec<ResourceRecord>,
}

impl Message {
    /// Encode to wire format. Names are emitted uncompressed; the result
    /// is always a valid DNS packet.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&self.header.id.to_be_bytes());
        buf.extend_from_slice(&self.header.flags_word().to_be_bytes());
        buf.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.authorities.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.additionals.len() as u16).to_be_bytes());
        for q in &self.questions {
            q.qname.encode_into(&mut buf);
            buf.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rr.name.encode_into(&mut buf);
            buf.extend_from_slice(&rr.rtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&rr.rclass.to_u16().to_be_bytes());
            buf.extend_from_slice(&rr.ttl.to_be_bytes());
            let rdlength_at = buf.len();
            buf.extend_from_slice(&[0, 0]);
            rr.rdata.encode_into(&mut buf);
            let rdlength = (buf.len() - rdlength_at - 2) as u16;
            buf[rdlength_at..rdlength_at + 2].copy_from_slice(&rdlength.to_be_bytes());
        }
        buf
    }

    /// Decode from wire format: the owning collector over
    /// [`MessageView::parse`], which decides what is well formed.
    /// Tolerates trailing bytes after the last announced record (some
    /// CPE stacks pad packets) but rejects any structural inconsistency
    /// inside the announced sections.
    pub fn decode(packet: &[u8]) -> Result<Message, DecodeError> {
        Ok(MessageView::parse(packet)?.to_message())
    }

    /// All IPv4 addresses in the answer section, in order.
    pub fn answer_ips(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|rr| rr.rdata.as_a())
            .collect()
    }

    /// The EDNS0 advertised UDP payload size, if an OPT pseudo-record is
    /// present in the additional section (RFC 6891 stores it in the
    /// CLASS field).
    pub fn edns_udp_size(&self) -> Option<u16> {
        self.additionals
            .iter()
            .find(|rr| rr.rtype == RecordType::Opt)
            .map(|rr| rr.rclass.to_u16())
    }
}

/// Fluent builder for queries and responses.
///
/// ```
/// use dnswire::{MessageBuilder, Name, RecordType, Rcode};
/// use std::net::Ipv4Addr;
///
/// let q = MessageBuilder::query(7, Name::parse("a.example").unwrap(), RecordType::A).build();
/// let r = MessageBuilder::response_to(&q, Rcode::NoError)
///     .answer_a(Name::parse("a.example").unwrap(), 300, Ipv4Addr::new(192, 0, 2, 1))
///     .build();
/// assert_eq!(r.header.id, 7);
/// assert_eq!(r.answer_ips(), vec![Ipv4Addr::new(192, 0, 2, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct MessageBuilder {
    msg: Message,
}

impl MessageBuilder {
    /// Start a standard `IN`-class query.
    pub fn query(id: u16, qname: Name, qtype: RecordType) -> Self {
        MessageBuilder {
            msg: Message {
                header: Header::query(id),
                questions: vec![Question {
                    qname,
                    qtype,
                    qclass: RecordClass::In,
                }],
                answers: Vec::new(),
                authorities: Vec::new(),
                additionals: Vec::new(),
            },
        }
    }

    /// Start a CHAOS-class TXT query (`version.bind` style).
    pub fn chaos_query(id: u16, qname: Name) -> Self {
        let mut b = Self::query(id, qname, RecordType::Txt);
        b.msg.questions[0].qclass = RecordClass::Ch;
        b.msg.header.recursion_desired = false;
        b
    }

    /// Start a response mirroring the query's ID and question section.
    pub fn response_to(query: &Message, rcode: Rcode) -> Self {
        MessageBuilder {
            msg: Message {
                header: Header {
                    id: query.header.id,
                    response: true,
                    opcode: query.header.opcode,
                    authoritative: false,
                    truncated: false,
                    recursion_desired: query.header.recursion_desired,
                    recursion_available: true,
                    authentic_data: false,
                    checking_disabled: query.header.checking_disabled,
                    rcode,
                },
                questions: query.questions.clone(),
                answers: Vec::new(),
                authorities: Vec::new(),
                additionals: Vec::new(),
            },
        }
    }

    /// Set the RD flag (cache snooping clears it).
    pub fn recursion_desired(mut self, rd: bool) -> Self {
        self.msg.header.recursion_desired = rd;
        self
    }

    /// Set the RA flag.
    pub fn recursion_available(mut self, ra: bool) -> Self {
        self.msg.header.recursion_available = ra;
        self
    }

    /// Mark the response authoritative.
    pub fn authoritative(mut self, aa: bool) -> Self {
        self.msg.header.authoritative = aa;
        self
    }

    /// Set the Authentic Data bit (DNSSEC-validated answer).
    pub fn authentic_data(mut self, ad: bool) -> Self {
        self.msg.header.authentic_data = ad;
        self
    }

    /// Append an `A` answer.
    pub fn answer_a(mut self, name: Name, ttl: u32, ip: Ipv4Addr) -> Self {
        self.msg.answers.push(ResourceRecord::a(name, ttl, ip));
        self
    }

    /// Append an arbitrary answer record.
    pub fn answer(mut self, rr: ResourceRecord) -> Self {
        self.msg.answers.push(rr);
        self
    }

    /// Append an authority record.
    pub fn authority(mut self, rr: ResourceRecord) -> Self {
        self.msg.authorities.push(rr);
        self
    }

    /// Advertise EDNS0 with the given UDP payload size (adds an OPT
    /// pseudo-record to the additional section, RFC 6891). Scanners use
    /// this to receive responses larger than the classic 512 bytes.
    pub fn edns(mut self, udp_size: u16) -> Self {
        self.msg.additionals.push(ResourceRecord {
            name: Name::root(),
            rtype: RecordType::Opt,
            rclass: RecordClass::Other(udp_size),
            ttl: 0, // extended RCODE + flags, all zero here
            rdata: RData::Opaque(Vec::new()),
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> Message {
        self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn query_round_trip() {
        let q = MessageBuilder::query(0xbeef, name("www.example.com"), RecordType::A).build();
        let wire = q.encode();
        let d = Message::decode(&wire).unwrap();
        assert_eq!(d, q);
        assert!(!d.header.response);
        assert!(d.header.recursion_desired);
    }

    #[test]
    fn response_with_multiple_answers() {
        let q = MessageBuilder::query(1, name("cdn.example"), RecordType::A).build();
        let r = MessageBuilder::response_to(&q, Rcode::NoError)
            .answer_a(name("cdn.example"), 60, Ipv4Addr::new(192, 0, 2, 1))
            .answer_a(name("cdn.example"), 60, Ipv4Addr::new(192, 0, 2, 2))
            .build();
        let d = Message::decode(&r.encode()).unwrap();
        assert_eq!(
            d.answer_ips(),
            vec![Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2)]
        );
        assert!(d.header.response);
        assert_eq!(d.header.id, 1);
    }

    #[test]
    fn chaos_version_bind_round_trip() {
        let q = MessageBuilder::chaos_query(42, name("version.bind")).build();
        assert_eq!(q.questions[0].qclass, RecordClass::Ch);
        let r = MessageBuilder::response_to(&q, Rcode::NoError)
            .answer(ResourceRecord::chaos_txt(name("version.bind"), "9.8.2rc1"))
            .build();
        let d = Message::decode(&r.encode()).unwrap();
        assert_eq!(d.answers[0].rdata.txt_joined().unwrap(), "9.8.2rc1");
        assert_eq!(d.answers[0].rclass, RecordClass::Ch);
    }

    #[test]
    fn ns_soa_mx_round_trip() {
        let q = MessageBuilder::query(9, name("example.org"), RecordType::Any).build();
        let r = MessageBuilder::response_to(&q, Rcode::NoError)
            .answer(ResourceRecord::ns(
                name("example.org"),
                3600,
                name("ns1.example.org"),
            ))
            .answer(ResourceRecord {
                name: name("example.org"),
                rtype: RecordType::Mx,
                rclass: RecordClass::In,
                ttl: 300,
                rdata: RData::Mx {
                    preference: 10,
                    exchange: name("mail.example.org"),
                },
            })
            .authority(ResourceRecord {
                name: name("example.org"),
                rtype: RecordType::Soa,
                rclass: RecordClass::In,
                ttl: 86400,
                rdata: RData::Soa {
                    mname: name("ns1.example.org"),
                    rname: name("hostmaster.example.org"),
                    serial: 2015102800,
                    refresh: 7200,
                    retry: 900,
                    expire: 1209600,
                    minimum: 300,
                },
            })
            .build();
        let d = Message::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn empty_answer_noerror_decodes() {
        // The paper explicitly counts NOERROR responses with empty answer
        // sections (Sec. 2.2) — make sure they are representable.
        let q = MessageBuilder::query(3, name("nx.example"), RecordType::A).build();
        let r = MessageBuilder::response_to(&q, Rcode::NoError).build();
        let d = Message::decode(&r.encode()).unwrap();
        assert!(d.answers.is_empty());
        assert_eq!(d.header.rcode, Rcode::NoError);
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            Message::decode(&[0u8; 5]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn section_count_overrun_rejected() {
        let q = MessageBuilder::query(1, name("x.example"), RecordType::A).build();
        let mut wire = q.encode();
        // Claim 4 questions but provide 1.
        wire[5] = 4;
        assert!(Message::decode(&wire).is_err());
    }

    #[test]
    fn bad_rdlength_rejected() {
        let q = MessageBuilder::query(1, name("x.example"), RecordType::A).build();
        let r = MessageBuilder::response_to(&q, Rcode::NoError)
            .answer_a(name("x.example"), 1, Ipv4Addr::new(1, 2, 3, 4))
            .build();
        let mut wire = r.encode();
        let len = wire.len();
        // Inflate the final RDLENGTH (the two bytes before the 4-byte IP).
        wire[len - 6] = 0xff;
        assert!(matches!(
            Message::decode(&wire),
            Err(DecodeError::BadRdLength { .. })
        ));
    }

    #[test]
    fn opaque_record_round_trips() {
        let q = MessageBuilder::query(5, name("x.example"), RecordType::Other(99)).build();
        let r = MessageBuilder::response_to(&q, Rcode::NoError)
            .answer(ResourceRecord {
                name: name("x.example"),
                rtype: RecordType::Other(99),
                rclass: RecordClass::In,
                ttl: 0,
                rdata: RData::Opaque(vec![1, 2, 3, 4, 5]),
            })
            .build();
        let d = Message::decode(&r.encode()).unwrap();
        assert_eq!(d.answers[0].rdata, RData::Opaque(vec![1, 2, 3, 4, 5]));
    }

    #[test]
    fn trailing_garbage_tolerated() {
        let q = MessageBuilder::query(1, name("x.example"), RecordType::A).build();
        let mut wire = q.encode();
        wire.extend_from_slice(&[0xde, 0xad]);
        assert!(Message::decode(&wire).is_ok());
    }

    #[test]
    fn edns_opt_round_trip() {
        let q = MessageBuilder::query(0x11, name("big.example"), RecordType::A)
            .edns(4096)
            .build();
        assert_eq!(q.edns_udp_size(), Some(4096));
        let d = Message::decode(&q.encode()).unwrap();
        assert_eq!(d.edns_udp_size(), Some(4096));
        assert_eq!(d.additionals.len(), 1);
        assert_eq!(d.additionals[0].rtype, RecordType::Opt);
        // Messages without OPT report none.
        let plain = MessageBuilder::query(1, name("x.example"), RecordType::A).build();
        assert_eq!(plain.edns_udp_size(), None);
    }

    #[test]
    fn decodes_response_with_name_compression() {
        // Hand-build a compressed response: question at offset 12,
        // answer name is a pointer to it.
        let q = MessageBuilder::query(0x0102, name("a.example.com"), RecordType::A).build();
        let mut wire = q.encode();
        wire[7] = 1; // ANCOUNT = 1
        wire.extend_from_slice(&[0xc0, 0x0c]); // pointer to offset 12
        wire.extend_from_slice(&RecordType::A.to_u16().to_be_bytes());
        wire.extend_from_slice(&RecordClass::In.to_u16().to_be_bytes());
        wire.extend_from_slice(&60u32.to_be_bytes());
        wire.extend_from_slice(&4u16.to_be_bytes());
        wire.extend_from_slice(&[198, 51, 100, 7]);
        let d = Message::decode(&wire).unwrap();
        assert_eq!(d.answers[0].name, name("a.example.com"));
        assert_eq!(d.answer_ips(), vec![Ipv4Addr::new(198, 51, 100, 7)]);
    }
}
