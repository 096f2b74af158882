//! Writing a response straight onto the wire.
//!
//! A responder that answers millions of queries has no use for an
//! owned [`Message`](crate::Message) per reply: everything a reply
//! repeats — the transaction ID, the opcode, RD and CD bits, the
//! question section, the owner name of its records — is already in the
//! query packet. [`ReplyWriter`] appends the reply to a caller's
//! buffer from a [`MessageView`] of the query; its bytes are exactly
//! `MessageBuilder::response_to(&query, rcode)…build().encode()`, which
//! stays as the reference the tests compare against.

use crate::error::NameError;
use crate::name::encode_text_into;
use crate::types::{Rcode, RecordClass, RecordType};
use crate::view::{MessageView, NameView};
use std::net::Ipv4Addr;

/// Header offsets of the record counts this writer bumps.
const ANCOUNT_AT: usize = 6;
const NSCOUNT_AT: usize = 8;
/// Flag bits a response copies from its query: OPCODE, RD, CD.
const ECHOED_FLAGS: u16 = 0x7800 | 0x0100 | 0x0010;
/// Flag bits every response sets: QR, RA.
const RESPONSE_FLAGS: u16 = 0x8000 | 0x0080;

/// A response under construction at the end of a byte buffer.
pub struct ReplyWriter<'q, 'b> {
    buf: &'b mut Vec<u8>,
    /// Where this message starts in `buf`.
    base: usize,
    /// The first question's name: the owner of every record written
    /// (the root, for a query that asks nothing).
    owner: Option<NameView<'q>>,
}

impl<'q, 'b> ReplyWriter<'q, 'b> {
    /// Start a response to `query`: the header (ID, opcode, RD and CD
    /// copied; QR and RA set; `rcode`) and the question section,
    /// re-emitted label by label so a compressed query is answered
    /// uncompressed.
    pub fn new(query: &MessageView<'q>, rcode: Rcode, buf: &'b mut Vec<u8>) -> Self {
        let owner = query.question().map(|q| q.name);
        let base = buf.len();
        let flags = RESPONSE_FLAGS | (query.flags() & ECHOED_FLAGS) | u16::from(rcode.to_u8());
        buf.extend_from_slice(&query.id().to_be_bytes());
        buf.extend_from_slice(&flags.to_be_bytes());
        buf.extend_from_slice(&[0; 8]);
        let mut questions = 0u16;
        for q in query.questions() {
            write_name(buf, Some(q.name));
            buf.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
            questions += 1;
        }
        buf[base + 4..base + 6].copy_from_slice(&questions.to_be_bytes());
        ReplyWriter { buf, base, owner }
    }

    /// Set the Authentic Data bit (DNSSEC-validated answer).
    pub fn authentic_data(&mut self) {
        self.buf[self.base + 3] |= 0x20;
    }

    /// Append an `A` answer.
    pub fn answer_a(&mut self, ttl: u32, ip: Ipv4Addr) {
        self.record(ANCOUNT_AT, RecordType::A, RecordClass::In, ttl, |buf| {
            buf.extend_from_slice(&ip.octets());
            Ok(())
        })
        .expect("address RDATA cannot fail");
    }

    /// Append an `NS` answer pointing at the textual name `target`.
    /// An unparsable `target` leaves the reply as it was.
    pub fn answer_ns(&mut self, ttl: u32, target: &str) -> Result<(), NameError> {
        self.record(ANCOUNT_AT, RecordType::Ns, RecordClass::In, ttl, |buf| {
            encode_text_into(target, buf)
        })
    }

    /// Append an `NS` record to the authority section. Answers must all
    /// have been written by now.
    pub fn authority_ns(&mut self, ttl: u32, target: &str) -> Result<(), NameError> {
        self.record(NSCOUNT_AT, RecordType::Ns, RecordClass::In, ttl, |buf| {
            encode_text_into(target, buf)
        })
    }

    /// Append a CHAOS-class `TXT` answer (e.g. a `version.bind` reply)
    /// holding `text` as one character-string.
    pub fn answer_chaos_txt(&mut self, text: &str) {
        self.record(ANCOUNT_AT, RecordType::Txt, RecordClass::Ch, 0, |buf| {
            let text = &text.as_bytes()[..text.len().min(255)];
            buf.push(text.len() as u8);
            buf.extend_from_slice(text);
            Ok(())
        })
        .expect("TXT RDATA cannot fail");
    }

    /// One record owned by the first question's name; `count_at` is the
    /// header count it adds to. When `rdata` fails the record is taken
    /// back out.
    fn record(
        &mut self,
        count_at: usize,
        rtype: RecordType,
        rclass: RecordClass,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>) -> Result<(), NameError>,
    ) -> Result<(), NameError> {
        let start = self.buf.len();
        write_name(self.buf, self.owner);
        self.buf.extend_from_slice(&rtype.to_u16().to_be_bytes());
        self.buf.extend_from_slice(&rclass.to_u16().to_be_bytes());
        self.buf.extend_from_slice(&ttl.to_be_bytes());
        let rdlength_at = self.buf.len();
        self.buf.extend_from_slice(&[0, 0]);
        if let Err(e) = rdata(self.buf) {
            self.buf.truncate(start);
            return Err(e);
        }
        let rdlength = (self.buf.len() - rdlength_at - 2) as u16;
        self.buf[rdlength_at..rdlength_at + 2].copy_from_slice(&rdlength.to_be_bytes());
        let count = &mut self.buf[self.base + count_at..self.base + count_at + 2];
        let bumped = u16::from_be_bytes([count[0], count[1]]) + 1;
        count.copy_from_slice(&bumped.to_be_bytes());
        Ok(())
    }
}

/// A name of a checked packet, uncompressed; `None` is the root.
fn write_name(buf: &mut Vec<u8>, name: Option<NameView<'_>>) {
    for label in name.into_iter().flatten() {
        buf.push(label.len() as u8);
        buf.extend_from_slice(label);
    }
    buf.push(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, MessageBuilder, ResourceRecord};
    use crate::name::Name;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// Query packets of every shape a responder meets: plain, 0x20-cased,
    /// RD clear, CD and a non-zero opcode set, EDNS, two questions, and
    /// a second question compressed against the first.
    fn queries() -> Vec<Vec<u8>> {
        let plain = MessageBuilder::query(0xbeef, name("WwW.exAMple.com"), RecordType::A);
        let mut flagged = plain.clone().recursion_desired(false).build();
        flagged.header.checking_disabled = true;
        flagged.header.opcode = crate::Opcode::Status;
        let mut two = plain.clone().edns(4096).build();
        two.questions.push(crate::Question {
            qname: name("other.example"),
            qtype: RecordType::Mx,
            qclass: RecordClass::Ch,
        });
        let mut compressed = plain.clone().build().encode();
        compressed[5] = 2; // QDCOUNT
        compressed.extend_from_slice(&[2, b'n', b's', 0xc0, 16, 0, 2, 0, 1]); // ns.exAMple.com NS IN
        vec![
            plain.clone().build().encode(),
            plain.edns(1232).build().encode(),
            flagged.encode(),
            two.encode(),
            compressed,
        ]
    }

    #[test]
    fn written_replies_are_the_builders_bytes() {
        let ip = |d| Ipv4Addr::new(198, 51, 100, d);
        for wire in queries() {
            let view = MessageView::parse(&wire).unwrap();
            let query = Message::decode(&wire).unwrap();
            let qname = query.questions[0].qname.clone();
            let written = |fill: &dyn Fn(&mut ReplyWriter<'_, '_>), rcode| {
                let mut buf = vec![0xaa; 3]; // replies append; what is there stays
                fill(&mut ReplyWriter::new(&view, rcode, &mut buf));
                assert_eq!(buf[..3], [0xaa; 3]);
                buf.split_off(3)
            };
            let built = |b: MessageBuilder| b.build().encode();
            for rcode in [
                Rcode::NoError,
                Rcode::NxDomain,
                Rcode::Refused,
                Rcode::NotImp,
            ] {
                assert_eq!(
                    written(&|_| {}, rcode),
                    built(MessageBuilder::response_to(&query, rcode))
                );
            }
            assert_eq!(
                written(
                    &|w| {
                        w.authentic_data();
                        w.answer_a(300, ip(1));
                        w.answer_a(300, ip(2));
                    },
                    Rcode::NoError
                ),
                built(
                    MessageBuilder::response_to(&query, Rcode::NoError)
                        .authentic_data(true)
                        .answer_a(qname.clone(), 300, ip(1))
                        .answer_a(qname.clone(), 300, ip(2))
                )
            );
            assert_eq!(
                written(
                    &|w| {
                        w.answer_ns(86_399, "a.nic.Example.").unwrap();
                        w.authority_ns(7, "b.nic.example").unwrap();
                    },
                    Rcode::NoError
                ),
                built(
                    MessageBuilder::response_to(&query, Rcode::NoError)
                        .answer(ResourceRecord::ns(
                            qname.clone(),
                            86_399,
                            name("a.nic.Example.")
                        ))
                        .authority(ResourceRecord::ns(qname.clone(), 7, name("b.nic.example")))
                )
            );
            for text in ["", "9.8.2rc1", &"v".repeat(300)] {
                assert_eq!(
                    written(&|w| w.answer_chaos_txt(text), Rcode::NoError),
                    built(
                        MessageBuilder::response_to(&query, Rcode::NoError)
                            .answer(ResourceRecord::chaos_txt(qname.clone(), text))
                    )
                );
            }
            // A target that is no name: the record is taken back out.
            assert_eq!(
                written(
                    &|w| {
                        w.answer_a(1, ip(9));
                        assert!(w.authority_ns(1, "bad..name").is_err());
                        assert!(w.authority_ns(1, &"x".repeat(64)).is_err());
                    },
                    Rcode::NoError
                ),
                built(
                    MessageBuilder::response_to(&query, Rcode::NoError).answer_a(
                        qname.clone(),
                        1,
                        ip(9)
                    )
                )
            );
        }
    }

    #[test]
    fn a_query_without_a_question_is_answered_by_its_header() {
        let mut wire = MessageBuilder::query(1, name("x.example"), RecordType::A)
            .build()
            .encode();
        wire[5] = 0;
        let view = MessageView::parse(&wire).unwrap();
        let query = Message::decode(&wire).unwrap();
        let mut buf = Vec::new();
        ReplyWriter::new(&view, Rcode::Refused, &mut buf);
        assert_eq!(
            buf,
            MessageBuilder::response_to(&query, Rcode::Refused)
                .build()
                .encode()
        );
    }
}
