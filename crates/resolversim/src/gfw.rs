//! The Great Firewall model: an on-path observer that injects forged
//! DNS answers for censored domains (Section 4.2).
//!
//! The paper's evidence: (i) 83.6% of unexpected responses for
//! Facebook/Twitter/YouTube come from Chinese resolvers returning
//! "randomly-chosen" IPs; (ii) 2.4% of Chinese resolvers produced *two*
//! answers — forged first, legitimate milliseconds later; (iii) sending
//! queries to unused Chinese address space still triggers answers for
//! censored names. All three behaviours fall out of this injector plus
//! the `GfwPoisoned` resolver behaviour.

use crate::behavior::forged_ip;
use dnswire::{MessageView, Rcode, RecordClass, RecordType, ReplyWriter};
use netsim::{Datagram, PathObserver, SimTime};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// On-path DNS injector for a country's address space.
pub struct GreatFirewall {
    /// Inclusive IPv4 ranges considered "inside" (queries *to* these
    /// ranges are observed).
    ranges: Vec<(u32, u32)>,
    /// Censored domain names (lower-case, exact match).
    censored: Arc<BTreeSet<String>>,
    /// Injection delay in milliseconds — small enough to beat any
    /// end-to-end path.
    pub injection_delay_ms: u64,
    /// Number of forged answers injected (observability).
    pub injected: u64,
}

impl GreatFirewall {
    /// Build an injector over `ranges` censoring `censored` names.
    pub fn new(ranges: Vec<(Ipv4Addr, Ipv4Addr)>, censored: Arc<BTreeSet<String>>) -> Self {
        GreatFirewall {
            ranges: ranges
                .into_iter()
                .map(|(a, b)| (u32::from(a), u32::from(b)))
                .collect(),
            censored,
            injection_delay_ms: 2,
            injected: 0,
        }
    }

    fn inside(&self, ip: Ipv4Addr) -> bool {
        let v = u32::from(ip);
        self.ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&v))
    }
}

/// Lower-cased text of the first question's name, read straight off the
/// wire into `buf` — no walk of the other sections. When it returns a
/// name and [`MessageView::parse`] accepts the payload, the name is
/// exactly the first question's `to_ascii_lower()`. `None` means "cannot tell
/// cheaply" — no question, the root name, a compression pointer or
/// reserved label type, a non-ASCII byte, truncation, an over-long
/// name — never "no name": the caller decodes in full.
fn peek_qname_lower<'a>(payload: &[u8], buf: &'a mut [u8; 255]) -> Option<&'a str> {
    if payload.len() < 12 || payload[4..6] == [0, 0] {
        return None;
    }
    let (mut pos, mut n) = (12, 0);
    loop {
        let len = *payload.get(pos)? as usize;
        if len == 0 {
            break;
        }
        if len > 63 {
            return None;
        }
        let label = payload.get(pos + 1..pos + 1 + len)?;
        if n > 0 {
            *buf.get_mut(n)? = b'.';
            n += 1;
        }
        for (out, b) in buf.get_mut(n..n + len)?.iter_mut().zip(label) {
            if !b.is_ascii() {
                return None;
            }
            *out = b.to_ascii_lowercase();
        }
        n += len;
        pos += 1 + len;
    }
    if n == 0 {
        return None;
    }
    std::str::from_utf8(&buf[..n]).ok()
}

impl GreatFirewall {
    /// The injection decision on the fully checked query.
    fn inject_decoded(&mut self, dgram: &Datagram) -> Vec<(u64, Datagram)> {
        let Ok(query) = MessageView::parse(&dgram.payload) else {
            return Vec::new();
        };
        let Some(q) = query.question().filter(|_| !query.is_response()) else {
            return Vec::new();
        };
        if q.qclass != RecordClass::In || q.qtype != RecordType::A {
            return Vec::new();
        }
        let qname = q.name.to_ascii_lower();
        let qname = qname.as_str();
        if !self.censored.contains(qname) {
            return Vec::new();
        }
        // Forge an answer that looks like it came from the queried host.
        // The forged IP is a function of the *query name and destination*
        // so repeated probes are stable but different vantage points see
        // different addresses — matching the paper's "arbitrary IPs".
        let forged = forged_ip(u32::from(dgram.dst_ip) as u64, qname);
        let mut resp = Vec::new();
        ReplyWriter::new(&query, Rcode::NoError, &mut resp).answer_a(300, forged);
        self.injected += 1;
        vec![(self.injection_delay_ms, dgram.reply_with(resp))]
    }
}

impl PathObserver for GreatFirewall {
    fn on_transit(&mut self, _now: SimTime, dgram: &Datagram) -> Vec<(u64, Datagram)> {
        // Only queries headed *into* the censored space, port 53.
        if dgram.dst_port != 53 || !self.inside(dgram.dst_ip) || self.inside(dgram.src_ip) {
            return Vec::new();
        }
        // Nearly everything crossing the border is a sweep probe for an
        // uncensored name: reject those on a cheap read of the question.
        // Being censored is necessary for injecting, so whatever the
        // read cannot decide goes to the full decode unchanged.
        let mut buf = [0u8; 255];
        if peek_qname_lower(&dgram.payload, &mut buf).is_some_and(|n| !self.censored.contains(n)) {
            return Vec::new();
        }
        self.inject_decoded(dgram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{Message, MessageBuilder, Name};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn gfw() -> GreatFirewall {
        GreatFirewall::new(
            vec![(ip("110.0.0.0"), ip("110.255.255.255"))],
            Arc::new(["facebook.example".to_string()].into_iter().collect()),
        )
    }

    fn query_dgram(qname: &str, dst: &str) -> Datagram {
        let q = MessageBuilder::query(0x99, Name::parse(qname).unwrap(), RecordType::A).build();
        Datagram::new(ip("100.0.0.1"), 40000, ip(dst), 53, q.encode())
    }

    #[test]
    fn injects_for_censored_domain_into_range() {
        let mut g = gfw();
        let out = g.on_transit(SimTime::ZERO, &query_dgram("facebook.example", "110.1.2.3"));
        assert_eq!(out.len(), 1);
        let resp = Message::decode(&out[0].1.payload).unwrap();
        assert_eq!(resp.header.id, 0x99);
        assert_eq!(resp.answer_ips().len(), 1);
        assert_eq!(out[0].1.src_ip, ip("110.1.2.3"), "spoofed as the target");
        assert_eq!(g.injected, 1);
    }

    #[test]
    fn injects_even_for_unbound_address_space() {
        // The paper's probe: random Chinese ranges answer for censored
        // names. The injector fires regardless of whether anything is
        // bound at the destination.
        let mut g = gfw();
        let out = g.on_transit(
            SimTime::ZERO,
            &query_dgram("facebook.example", "110.200.0.77"),
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn ignores_uncensored_and_outside_traffic() {
        let mut g = gfw();
        assert!(g
            .on_transit(SimTime::ZERO, &query_dgram("harmless.example", "110.1.2.3"))
            .is_empty());
        assert!(g
            .on_transit(SimTime::ZERO, &query_dgram("facebook.example", "9.1.2.3"))
            .is_empty());
    }

    #[test]
    fn ignores_intra_country_and_response_traffic() {
        let mut g = gfw();
        // src inside the range: not border-crossing.
        let mut d = query_dgram("facebook.example", "110.1.2.3");
        d.src_ip = ip("110.9.9.9");
        assert!(g.on_transit(SimTime::ZERO, &d).is_empty());
        // responses are not matched
        let q = MessageBuilder::query(1, Name::parse("facebook.example").unwrap(), RecordType::A)
            .build();
        let r = MessageBuilder::response_to(&q, Rcode::NoError).build();
        let d2 = Datagram::new(ip("100.0.0.1"), 40000, ip("110.1.2.3"), 53, r.encode());
        assert!(g.on_transit(SimTime::ZERO, &d2).is_empty());
    }

    #[test]
    fn forged_ip_stable_per_destination() {
        let mut g = gfw();
        let a = g.on_transit(SimTime::ZERO, &query_dgram("facebook.example", "110.1.2.3"));
        let b = g.on_transit(SimTime::ZERO, &query_dgram("facebook.example", "110.1.2.3"));
        let c = g.on_transit(SimTime::ZERO, &query_dgram("facebook.example", "110.1.2.4"));
        let ip_of =
            |v: &Vec<(u64, Datagram)>| Message::decode(&v[0].1.payload).unwrap().answer_ips()[0];
        assert_eq!(ip_of(&a), ip_of(&b));
        assert_ne!(ip_of(&a), ip_of(&c));
    }

    /// A query packet assembled by hand so that it can be malformed:
    /// `qd` is the announced QDCOUNT, `labels` go in uncompressed.
    fn raw_query(qd: u16, labels: &[&[u8]]) -> Vec<u8> {
        let mut p = vec![0x12, 0x34, 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0];
        p[4..6].copy_from_slice(&qd.to_be_bytes());
        for l in labels {
            p.push(l.len() as u8);
            p.extend_from_slice(l);
        }
        p.extend_from_slice(&[0, 0, 1, 0, 1]); // root, QTYPE A, QCLASS IN
        p
    }

    fn labels_of(name: &str) -> Vec<&[u8]> {
        name.split('.').map(str::as_bytes).collect()
    }

    /// What the cheap read promises, checked on one payload: a name it
    /// yields is the decoder's, and `on_transit` answers exactly as the
    /// decode-only path does.
    fn assert_agrees_with_decode(payload: &[u8]) {
        let mut buf = [0u8; 255];
        if let (Some(name), Ok(msg)) = (
            peek_qname_lower(payload, &mut buf),
            Message::decode(payload),
        ) {
            assert_eq!(name, msg.questions[0].qname.to_ascii_lower());
        }
        let d = Datagram::new(ip("100.0.0.1"), 40000, ip("110.1.2.3"), 53, payload);
        assert_eq!(
            gfw().on_transit(SimTime::ZERO, &d),
            gfw().inject_decoded(&d),
            "payload {payload:02x?}"
        );
    }

    #[test]
    fn fast_reject_matches_decode_on_each_query_shape() {
        let injects = |payload: &[u8]| {
            assert_agrees_with_decode(payload);
            let d = Datagram::new(ip("100.0.0.1"), 40000, ip("110.1.2.3"), 53, payload);
            gfw().on_transit(SimTime::ZERO, &d).len()
        };
        let censored = raw_query(1, &labels_of("facebook.example"));
        assert_eq!(injects(&censored), 1);
        assert_eq!(injects(&raw_query(1, &labels_of("FaceBook.eXample"))), 1);
        assert_eq!(injects(&raw_query(1, &labels_of("harmless.example"))), 0);
        // One label that merely renders like the censored name: the
        // decoder's lower-cased text is the same string, so it injects.
        assert_eq!(injects(&raw_query(1, &[b"facebook.example"])), 1);
        // Bytes >= 0x80 render as two-byte chars — also where they
        // happen to be UTF-8 already; the read steps aside.
        assert_eq!(injects(&raw_query(1, &[b"faceb\xf6\xf6k", b"example"])), 0);
        assert_eq!(injects(&raw_query(1, &[b"caf\xc3\xa9", b"example"])), 0);
        // No question announced, although one is in the packet.
        assert_eq!(injects(&raw_query(0, &labels_of("facebook.example"))), 0);
        // Two announced, one present: the decoder overruns.
        assert_eq!(injects(&raw_query(2, &labels_of("facebook.example"))), 0);
        // Truncated inside the name, inside the fixed tail, and to a bare header.
        for cut in [12, 15, 21, censored.len() - 5, censored.len() - 1] {
            assert_eq!(injects(&censored[..cut]), 0, "cut at {cut}");
        }
        // Trailing padding is tolerated by the decoder.
        let mut padded = censored.clone();
        padded.extend_from_slice(&[0; 9]);
        assert_eq!(injects(&padded), 1);
        // The question's second label is a compression pointer to a
        // copy of "example" further back... which a question cannot
        // have (pointers go backwards), so point at the name itself:
        // a loop the decoder rejects.
        let mut looped = raw_query(1, &[b"facebook"]);
        let at = 12 + 9;
        looped.splice(at..at + 1, [0xc0, 12]);
        assert_eq!(injects(&looped), 0);
        // A pointer as the whole name, to offset 0: the header bytes
        // decode as labels or fail; either way not the censored name.
        let mut pointed = raw_query(1, &[]);
        pointed.splice(12..13, [0xc0, 0]);
        assert_eq!(injects(&pointed), 0);
        // A reserved label type (0x40) is a decode error.
        let mut reserved = censored.clone();
        reserved[12] = 0x48;
        assert_eq!(injects(&reserved), 0);
        // The root name, and a name past the 255-octet wire limit.
        assert_eq!(injects(&raw_query(1, &[])), 0);
        assert_eq!(injects(&raw_query(1, &[&[b'a'; 63][..]; 5])), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        #[test]
        fn cheap_read_never_disagrees_with_decode_on_arbitrary_bytes(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
        ) {
            assert_agrees_with_decode(&payload);
        }

        /// Valid queries, then damaged: case flipped, a `.` or a high
        /// byte or a pointer or a reserved type written somewhere,
        /// QDCOUNT 0..3, cut short.
        #[test]
        fn cheap_read_never_disagrees_with_decode_on_mutated_queries(
            censored in proptest::prelude::any::<bool>(),
            labels in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::sample::select(b"aZ09-._\x80\xc3\xa9".to_vec()), 1..12),
                0..5,
            ),
            case_mask in proptest::prelude::any::<u32>(),
            qd in 0u16..3,
            poke in (proptest::prelude::any::<bool>(), 0usize..64,
                     proptest::sample::select(vec![b'.', 0x00, 0x2e, 0x40, 0x80, 0xc0, 0xff, 0x0c])),
            cut in 0usize..96,
        ) {
            let mut labels = if censored {
                vec![b"facebook".to_vec(), b"example".to_vec()]
            } else {
                labels
            };
            for (i, b) in labels.iter_mut().flatten().enumerate() {
                if case_mask >> (i % 32) & 1 == 1 {
                    *b = b.to_ascii_uppercase();
                }
            }
            let labels: Vec<&[u8]> = labels.iter().map(Vec::as_slice).collect();
            let mut payload = raw_query(qd, &labels);
            let (poked, at, byte) = poke;
            if poked && at < payload.len() {
                payload[at] = byte;
            }
            payload.truncate(payload.len().min(12 + cut));
            assert_agrees_with_decode(&payload);
        }
    }
}
