//! The resolver writes its replies straight onto the wire; this suite
//! holds those bytes — and the delays, ports and source addresses they
//! leave with — to the reference it replaced: decode the query into an
//! owned `Message`, build the answer with `MessageBuilder`, encode it.
//! [`oracle_on_udp`] and [`oracle_inject`] are that reference, kept as
//! the hosts had it.

use dnswire::{Message, MessageBuilder, Name, Rcode, RecordClass, RecordType, ResourceRecord};
use geodb::{Country, Rir};
use netsim::{Datagram, Host, HostCtx, PathObserver, SimTime};
use proptest::prelude::*;
use resolversim::software::ChaosErrorKind;
use resolversim::universe::TldInfo;
use resolversim::{
    Answer, CacheProfile, CensorPolicy, CensorRule, ChaosPolicy, DeviceProfile, DnsUniverse,
    DomainCategory, DomainKind, DomainRecord, ForwarderHost, GreatFirewall, QueryCtx,
    ResolverBehavior, ResolverHost, SnoopObservation, SoftwareProfile, TldCacheSim,
};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

// ---------------------------------------------------------------------
// The reference: the owned-message answer path.
// ---------------------------------------------------------------------

fn oracle_answer(host: &ResolverHost, query: &Message, answer: &Answer) -> Option<Message> {
    let qname = &query.questions[0].qname;
    let msg = match answer {
        Answer::Ips { ips, ttl } => {
            let mut b = MessageBuilder::response_to(query, Rcode::NoError);
            let lower = qname.to_ascii_lower();
            if host.universe.is_signed(&lower) {
                let legit = host.universe.all_legitimate_ips(&lower);
                if !ips.is_empty() && ips.iter().all(|i| legit.contains(i)) {
                    b = b.authentic_data(true);
                }
            }
            for ip in ips {
                b = b.answer_a(qname.clone(), *ttl, *ip);
            }
            b.build()
        }
        Answer::NxDomain => MessageBuilder::response_to(query, Rcode::NxDomain).build(),
        Answer::Empty => MessageBuilder::response_to(query, Rcode::NoError).build(),
        Answer::Refused => MessageBuilder::response_to(query, Rcode::Refused).build(),
        Answer::ServFail => MessageBuilder::response_to(query, Rcode::ServFail).build(),
        Answer::NsOnly { ns_host, ttl } => {
            let ns_name = Name::parse(ns_host).ok()?;
            MessageBuilder::response_to(query, Rcode::NoError)
                .authority(ResourceRecord::ns(qname.clone(), *ttl, ns_name))
                .build()
        }
        Answer::Silent => return None,
    };
    Some(msg)
}

fn oracle_chaos(host: &ResolverHost, query: &Message) -> Option<Message> {
    let qname = query.questions[0].qname.to_ascii_lower();
    if qname != "version.bind" && qname != "version.server" {
        return Some(MessageBuilder::response_to(query, Rcode::NotImp).build());
    }
    match host.software.version_bind_answer() {
        Some(text) => Some(
            MessageBuilder::response_to(query, Rcode::NoError)
                .answer(ResourceRecord::chaos_txt(
                    query.questions[0].qname.clone(),
                    &text,
                ))
                .build(),
        ),
        None => match &host.software.chaos {
            ChaosPolicy::EmptyAnswer => {
                Some(MessageBuilder::response_to(query, Rcode::NoError).build())
            }
            ChaosPolicy::Error(kind) => {
                Some(MessageBuilder::response_to(query, kind.rcode()).build())
            }
            _ => None,
        },
    }
}

fn oracle_ns_snoop(host: &mut ResolverHost, query: &Message, now: SimTime) -> Option<Message> {
    let qname = query.questions[0].qname.to_ascii_lower();
    let universe = Arc::clone(&host.universe);
    let tlds = universe.tlds();
    let idx = tlds.iter().position(|t| t.name == qname)?;
    let obs = host
        .cache
        .observe(idx as u32, tlds[idx].ttl, now.millis() / 1000);
    match obs {
        SnoopObservation::Cached { remaining_ttl } => {
            let ns_name = Name::parse(&tlds[idx].ns_host).ok()?;
            Some(
                MessageBuilder::response_to(query, Rcode::NoError)
                    .answer(ResourceRecord::ns(
                        query.questions[0].qname.clone(),
                        remaining_ttl,
                        ns_name,
                    ))
                    .build(),
            )
        }
        SnoopObservation::Absent | SnoopObservation::Empty => {
            Some(MessageBuilder::response_to(query, Rcode::NoError).build())
        }
        SnoopObservation::Silent => None,
    }
}

/// `ResolverHost::on_udp` as it was when replies were built.
fn oracle_on_udp(host: &mut ResolverHost, ctx: &mut HostCtx<'_>, dgram: &Datagram) {
    if !host.alive.load(std::sync::atomic::Ordering::Relaxed) {
        return;
    }
    let Ok(query) = Message::decode(&dgram.payload) else {
        return;
    };
    if query.header.response || query.questions.is_empty() {
        return;
    }
    host.queries_seen += 1;
    let question = &query.questions[0];
    if question.qclass == RecordClass::Ch {
        if let Some(resp) = oracle_chaos(host, &query) {
            let mut out = dgram.reply_with(resp.encode());
            if host.behavior.rewrites_port() {
                out.dst_port = out.dst_port.wrapping_add(1);
            }
            ctx.send_udp_delayed(out, host.response_delay_ms());
        }
        return;
    }
    if question.qtype == RecordType::Ns {
        if let Some(resp) = oracle_ns_snoop(host, &query, ctx.now) {
            ctx.send_udp_delayed(dgram.reply_with(resp.encode()), host.response_delay_ms());
        }
        return;
    }
    if question.qtype != RecordType::A {
        let resp = MessageBuilder::response_to(&query, Rcode::NotImp).build();
        ctx.send_udp_delayed(dgram.reply_with(resp.encode()), host.response_delay_ms());
        return;
    }
    let qname_lower = question.qname.to_ascii_lower();
    let qctx = QueryCtx {
        category: host.universe.record(&qname_lower).map(|r| r.category),
        universe: &host.universe,
        qname: &qname_lower,
        region: host.region,
        salt: host.salt,
        self_ip: ctx.local_ip,
    };
    let reply = host.behavior.answer(&qctx);
    if let Some(resp) = oracle_answer(host, &query, &reply.primary) {
        let mut out = dgram.reply_with(resp.encode());
        if host.behavior.rewrites_port() {
            out.dst_port = out.dst_port.wrapping_add(1);
        }
        if let Some(src) = host.reply_src {
            out.src_ip = src;
        }
        ctx.send_udp_delayed(out, host.response_delay_ms());
    }
    if let Some((extra_delay, answer)) = &reply.secondary {
        if let Some(resp) = oracle_answer(host, &query, answer) {
            ctx.send_udp_delayed(
                dgram.reply_with(resp.encode()),
                host.response_delay_ms() + extra_delay,
            );
        }
    }
}

/// The Great Firewall's injection as it was when the forged answer was
/// built: `(delay, datagram)` for a censored IN A query, else nothing.
fn oracle_inject(censored: &BTreeSet<String>, dgram: &Datagram) -> Vec<(u64, Datagram)> {
    let Ok(query) = Message::decode(&dgram.payload) else {
        return Vec::new();
    };
    if query.header.response || query.questions.is_empty() {
        return Vec::new();
    }
    let q = &query.questions[0];
    if q.qclass != RecordClass::In || q.qtype != RecordType::A {
        return Vec::new();
    }
    let qname = q.qname.to_ascii_lower();
    if !censored.contains(&qname) {
        return Vec::new();
    }
    // `forged_ip` is private to the crate; a poisoned resolver salted
    // with the destination address forges the same one.
    let universe = DnsUniverse::new();
    let forger = ResolverBehavior::GfwPoisoned {
        censored: Arc::new(censored.clone()),
        escapes_gfw: false,
    };
    let Answer::Ips { ips, .. } = forger
        .answer(&QueryCtx {
            universe: &universe,
            qname: &qname,
            category: None,
            region: Rir::Apnic,
            salt: u32::from(dgram.dst_ip) as u64,
            self_ip: dgram.dst_ip,
        })
        .primary
    else {
        unreachable!("a poisoned resolver forges an address for a censored name")
    };
    let resp = MessageBuilder::response_to(&query, Rcode::NoError)
        .answer_a(q.qname.clone(), 300, ips[0])
        .build();
    vec![(2, dgram.reply_with(resp.encode()))]
}

// ---------------------------------------------------------------------
// The world the hosts answer from.
// ---------------------------------------------------------------------

const CENSORED: &str = "facebook.example";

fn universe() -> Arc<DnsUniverse> {
    let mut u = DnsUniverse::new();
    let mut add = |name: &str, category, kind, is_mail_host| {
        u.add_domain(DomainRecord {
            name: name.into(),
            category,
            kind,
            ttl: 300,
            is_mail_host,
        })
    };
    let fixed = |a: &str| DomainKind::Fixed(vec![ip(a)]);
    add(
        "paypal.example",
        DomainCategory::Banking,
        fixed("198.51.100.44"),
        false,
    );
    add(
        CENSORED,
        DomainCategory::Alexa,
        fixed("198.51.100.7"),
        false,
    );
    add(
        "youporn.example",
        DomainCategory::Adult,
        fixed("198.51.100.99"),
        false,
    );
    add(
        "smtp.gmail.example",
        DomainCategory::Mx,
        fixed("198.51.100.25"),
        true,
    );
    add(
        "ads.example",
        DomainCategory::Ads,
        DomainKind::Fixed(vec![ip("198.51.100.60"), ip("198.51.100.61")]),
        false,
    );
    add(
        "cdn.example",
        DomainCategory::Alexa,
        DomainKind::Cdn {
            pools: vec![
                (
                    Rir::Ripe,
                    vec![ip("203.0.113.1"), ip("203.0.113.2"), ip("203.0.113.3")],
                ),
                (Rir::Apnic, vec![ip("203.0.113.129")]),
            ],
        },
        false,
    );
    add(
        "gone.example",
        DomainCategory::Nx,
        DomainKind::NonExistent,
        false,
    );
    u.add_wildcard("scan.gwild.example", vec![ip("192.0.2.53")], 5);
    u.sign_domain("paypal.example");
    u.sign_domain("cdn.example");
    u.set_tlds(vec![
        TldInfo {
            name: "com".into(),
            ns_host: "a.nic.com".into(),
            ttl: 3600,
        },
        TldInfo {
            name: "de".into(),
            ns_host: "a.nic.de".into(),
            ttl: 7200,
        },
        TldInfo {
            name: "broken".into(),
            ns_host: "not..a.name".into(),
            ttl: 60,
        },
    ]);
    Arc::new(u)
}

fn set(names: &[&str]) -> Arc<BTreeSet<String>> {
    Arc::new(names.iter().map(|s| s.to_string()).collect())
}

/// One of every `ResolverBehavior` variant, and the wrappers around
/// several kinds of inner behaviour.
fn behaviors() -> Vec<ResolverBehavior> {
    use ResolverBehavior::*;
    let censor = || Censor {
        policy: Arc::new(CensorPolicy {
            country: Country::new("TR"),
            rules: vec![CensorRule {
                categories: vec![DomainCategory::Adult],
                domains: vec![CENSORED.into()],
                landing_ips: vec![ip("203.0.113.80"), ip("203.0.113.81")],
            }],
            compliance: 0.9,
        }),
    };
    let poisoned = |escapes_gfw| GfwPoisoned {
        censored: set(&[CENSORED]),
        escapes_gfw,
    };
    let monetizer = || NxMonetizer {
        search_ips: vec![ip("203.0.113.200"), ip("203.0.113.201")],
    };
    vec![
        Honest,
        censor(),
        poisoned(false),
        poisoned(true),
        monetizer(),
        StaticIp { ip: ip("1.1.1.1") },
        SelfIp,
        LanRedirect {
            ip: ip("192.168.1.1"),
        },
        RefusedAll,
        ServFailAll,
        EmptyAll,
        NsOnly {
            ns_host: "ns.referral.example".into(),
        },
        NsOnly {
            ns_host: "no..such.name".into(),
        },
        Dead,
        PortRewriter {
            inner: Box::new(Honest),
        },
        PortRewriter {
            inner: Box::new(monetizer()),
        },
        Blocker {
            categories: vec![DomainCategory::Adult, DomainCategory::Banking],
            block_ip: ip("203.0.113.90"),
        },
        AdRedirect {
            targets: set(&["ads.example"]),
            inject_ip: ip("203.0.113.91"),
        },
        ProxyAll {
            proxy_ips: vec![ip("203.0.113.180"), ip("203.0.113.181")],
        },
        ProxyAll { proxy_ips: vec![] },
        Phish {
            targets: set(&["paypal.example"]),
            phish_ip: ip("203.0.113.92"),
        },
        MailIntercept {
            mail_ips: vec![ip("203.0.113.25")],
        },
        MalwareRedirect {
            targets: set(&["ads.example"]),
            ip: ip("203.0.113.93"),
        },
        Parking {
            targets: set(&["gone.example"]),
            park_ips: [ip("203.0.113.94"), ip("203.0.113.95")].into(),
        },
        Layered {
            censor: Box::new(censor()),
            fallback: Box::new(monetizer()),
        },
        Layered {
            censor: Box::new(poisoned(false)),
            fallback: Box::new(PortRewriter {
                inner: Box::new(SelfIp),
            }),
        },
    ]
}

fn softwares() -> Vec<SoftwareProfile> {
    vec![
        SoftwareProfile::new("BIND", "9.8.2", ChaosPolicy::Genuine),
        SoftwareProfile::new("x", "y", ChaosPolicy::Custom("get lost".into())),
        SoftwareProfile::new("x", "y", ChaosPolicy::Custom("v".repeat(300))),
        SoftwareProfile::new("x", "y", ChaosPolicy::EmptyAnswer),
        SoftwareProfile::new("x", "y", ChaosPolicy::Error(ChaosErrorKind::Refused)),
        SoftwareProfile::new("x", "y", ChaosPolicy::Error(ChaosErrorKind::ServFail)),
    ]
}

fn caches() -> Vec<CacheProfile> {
    vec![
        CacheProfile::InUse {
            refresh_gap_s: 300,
            tld_mask: 0b111,
            phase_s: 0,
        },
        CacheProfile::EmptyAnswer,
        CacheProfile::SingleThenSilent,
        CacheProfile::StaticTtl { ttl: 77 },
        CacheProfile::ZeroTtl,
        CacheProfile::TtlResetter,
    ]
}

fn host(
    behavior: &ResolverBehavior,
    software: &SoftwareProfile,
    cache: &CacheProfile,
    salt: u64,
    reply_src: Option<Ipv4Addr>,
) -> ResolverHost {
    let mut h = ResolverHost::new(
        universe(),
        behavior.clone(),
        software.clone(),
        DeviceProfile::closed(),
        TldCacheSim::new(cache.clone()),
        Rir::Ripe,
        salt,
    );
    h.reply_src = reply_src;
    h
}

// ---------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------

const QNAMES: &[&str] = &[
    "paypal.example",
    CENSORED,
    "youporn.example",
    "smtp.gmail.example",
    "ads.example",
    "cdn.example",
    "gone.example",
    "never-registered.example",
    "scan.gwild.example",
    "r4nd0m.0b00010a.scan.gwild.example",
    "xscan.gwild.example",
    "version.bind",
    "version.server",
    "hostname.bind",
    "com",
    "de",
    "broken",
    "xyz",
    ".",
];

/// How the query packet departs from the builder's plain one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Plain,
    Edns,
    NoRd,
    /// CD set and a non-zero opcode: both must be echoed.
    Flagged,
    /// A second question, spelled out.
    TwoQuestions,
    /// A second question whose name is a pointer into the first.
    Compressed,
    /// QDCOUNT zero although a question follows.
    NoQuestion,
    /// The QR bit set: not a query.
    Response,
    /// Cut short inside the question.
    Truncated,
    /// Bytes after the message, which the parser tolerates.
    Padded,
}

const SHAPES: &[Shape] = &[
    Shape::Plain,
    Shape::Edns,
    Shape::NoRd,
    Shape::Flagged,
    Shape::TwoQuestions,
    Shape::Compressed,
    Shape::NoQuestion,
    Shape::Response,
    Shape::Truncated,
    Shape::Padded,
];

const QTYPES: &[RecordType] = &[
    RecordType::A,
    RecordType::Ns,
    RecordType::Txt,
    RecordType::Mx,
    RecordType::Aaaa,
    RecordType::Any,
    RecordType::Other(4711),
];

const QCLASSES: &[RecordClass] = &[RecordClass::In, RecordClass::Ch, RecordClass::Other(42)];

fn query_packet(
    qname: &str,
    case_mask: u32,
    qtype: RecordType,
    qclass: RecordClass,
    shape: Shape,
    id: u16,
) -> Vec<u8> {
    let name = dnswire::encode_0x20(&Name::parse(qname).unwrap(), case_mask, 32);
    let mut b = MessageBuilder::query(id, name.clone(), qtype);
    if shape == Shape::Edns {
        b = b.edns(4096);
    }
    if shape == Shape::NoRd {
        b = b.recursion_desired(false);
    }
    let mut msg = b.build();
    msg.questions[0].qclass = qclass;
    if shape == Shape::Flagged {
        msg.header.checking_disabled = true;
        msg.header.opcode = dnswire::Opcode::Other(5);
    }
    if shape == Shape::TwoQuestions {
        msg.questions.push(dnswire::Question {
            qname: Name::parse("second.example").unwrap(),
            qtype: RecordType::Mx,
            qclass: RecordClass::In,
        });
    }
    let mut wire = msg.encode();
    match shape {
        Shape::Compressed => {
            wire[5] = 2;
            wire.extend_from_slice(&[3, b'w', b'w', b'w', 0xc0, 12, 0, 1, 0, 1]);
        }
        Shape::NoQuestion => wire[5] = 0,
        Shape::Response => wire[2] |= 0x80,
        Shape::Truncated => wire.truncate(wire.len() - 3),
        Shape::Padded => wire.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]),
        _ => {}
    }
    wire
}

fn drive(
    answer: impl FnOnce(&mut ResolverHost, &mut HostCtx<'_>, &Datagram),
    host: &mut ResolverHost,
    dgram: &Datagram,
    now: SimTime,
) -> Vec<(u64, Datagram)> {
    let mut outgoing = Vec::new();
    let mut ctx = HostCtx::new(now, dgram.dst_ip, &mut outgoing);
    answer(host, &mut ctx, dgram);
    outgoing
}

/// Both hosts answer `dgram`; everything that leaves them must agree.
fn assert_same_answer(
    written: &mut ResolverHost,
    built: &mut ResolverHost,
    dgram: &Datagram,
    now: SimTime,
) {
    let got = drive(|h, ctx, d| h.on_udp(ctx, d), written, dgram, now);
    let want = drive(oracle_on_udp, built, dgram, now);
    assert_eq!(got, want, "query {:02x?}", &dgram.payload[..]);
    assert_eq!(written.queries_seen, built.queries_seen);
}

/// Every behaviour × every name × every type, class and packet shape:
/// the cross product is small enough to walk outright.
#[test]
fn every_behaviour_writes_the_builders_reply_to_every_query() {
    let software = &softwares()[0];
    let cache = &caches()[0];
    let client = ip("100.0.0.1");
    let mut cases = 0u32;
    for (bi, behavior) in behaviors().iter().enumerate() {
        let reply_src = (bi % 3 == 0).then(|| ip("9.9.9.9"));
        let mut written = host(behavior, software, cache, bi as u64 + 2, reply_src);
        let mut built = host(behavior, software, cache, bi as u64 + 2, reply_src);
        for (ni, qname) in QNAMES.iter().enumerate() {
            for &qtype in QTYPES {
                for &qclass in QCLASSES {
                    for &shape in SHAPES {
                        let mask = 0x5a5a_a5a5u32.rotate_left(cases % 32);
                        let payload = query_packet(qname, mask, qtype, qclass, shape, cases as u16);
                        let dgram =
                            Datagram::new(client, 40_000 + ni as u16, ip("5.5.5.5"), 53, payload);
                        let now = SimTime::from_secs(10 + u64::from(cases) * 7);
                        assert_same_answer(&mut written, &mut built, &dgram, now);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 50_000);
}

/// The CHAOS and cache-snooping answers depend on the software and
/// cache profile, and the snooped cache changes as it is observed:
/// both hosts see the same query sequence and must stay in step.
#[test]
fn chaos_and_snoop_replies_follow_every_profile() {
    let client = ip("100.0.0.1");
    for software in &softwares() {
        for cache in &caches() {
            let mut written = host(&ResolverBehavior::Honest, software, cache, 5, None);
            let mut built = host(&ResolverBehavior::Honest, software, cache, 5, None);
            for round in 0..40u32 {
                for (qname, qtype, qclass) in [
                    ("version.bind", RecordType::Txt, RecordClass::Ch),
                    ("VERSION.server", RecordType::Txt, RecordClass::Ch),
                    ("id.server", RecordType::Txt, RecordClass::Ch),
                    ("com", RecordType::Ns, RecordClass::In),
                    ("DE", RecordType::Ns, RecordClass::In),
                    ("broken", RecordType::Ns, RecordClass::In),
                    ("org", RecordType::Ns, RecordClass::In),
                ] {
                    let shape = SHAPES[(round % 6) as usize];
                    let payload = query_packet(qname, round, qtype, qclass, shape, round as u16);
                    let dgram = Datagram::new(client, 40_000, ip("5.5.5.5"), 53, payload);
                    let now = SimTime::from_secs(u64::from(round) * 600);
                    assert_same_answer(&mut written, &mut built, &dgram, now);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random walks through the same space, salts and casings included,
    /// and packets that are no queries at all.
    #[test]
    fn written_replies_equal_built_replies(
        behavior in proptest::sample::select(behaviors()),
        software in proptest::sample::select(softwares()),
        cache in proptest::sample::select(caches()),
        salt in any::<u64>(),
        proxied in any::<bool>(),
        queries in proptest::collection::vec(
            (
                proptest::sample::select(QNAMES.to_vec()),
                any::<u32>(),
                proptest::sample::select(QTYPES.to_vec()),
                proptest::sample::select(QCLASSES.to_vec()),
                proptest::sample::select(SHAPES.to_vec()),
                any::<u16>(),
                0u64..200_000,
            ),
            1..6,
        ),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let reply_src = proxied.then(|| ip("9.9.9.9"));
        let mut written = host(&behavior, &software, &cache, salt, reply_src);
        let mut built = host(&behavior, &software, &cache, salt, reply_src);
        let client = ip("100.0.0.1");
        for (qname, mask, qtype, qclass, shape, id, at_s) in queries {
            let payload = query_packet(qname, mask, qtype, qclass, shape, id);
            let dgram = Datagram::new(client, 65_535, ip("5.5.5.5"), 53, payload);
            assert_same_answer(&mut written, &mut built, &dgram, SimTime::from_secs(at_s));
        }
        let dgram = Datagram::new(client, 1, ip("5.5.5.5"), 53, garbage);
        assert_same_answer(&mut written, &mut built, &dgram, SimTime::ZERO);
    }

    /// The injector's forged first answer — half of the double answer a
    /// resolver behind the firewall produces; the other half is the
    /// `GfwPoisoned` host's own, covered above.
    #[test]
    fn injected_answers_equal_built_answers(
        qname in proptest::sample::select(QNAMES.to_vec()),
        mask in any::<u32>(),
        qtype in proptest::sample::select(QTYPES.to_vec()),
        qclass in proptest::sample::select(QCLASSES.to_vec()),
        shape in proptest::sample::select(SHAPES.to_vec()),
        id in any::<u16>(),
        dst in 0u32..512,
    ) {
        let censored = set(&[CENSORED, "gone.example"]);
        let mut gfw = GreatFirewall::new(
            vec![(ip("110.0.0.0"), ip("110.255.255.255"))],
            Arc::clone(&censored),
        );
        let payload = query_packet(qname, mask, qtype, qclass, shape, id);
        let dst = Ipv4Addr::from(u32::from(ip("110.0.0.0")) + dst * 4099);
        let dgram = Datagram::new(ip("100.0.0.1"), 40_007, dst, 53, payload);
        prop_assert_eq!(gfw.on_transit(SimTime::ZERO, &dgram), oracle_inject(&censored, &dgram));
    }

    /// A forwarder relays the packet it was handed. Every packet a
    /// scanner or a resolver of this simulation emits is in the
    /// encoder's own (uncompressed, unpadded) form, for which that is
    /// what decoding and re-encoding it gave.
    #[test]
    fn forwarders_relay_what_reencoding_gave(
        qname in proptest::sample::select(QNAMES.to_vec()),
        mask in any::<u32>(),
        qtype in proptest::sample::select(QTYPES.to_vec()),
        shape in proptest::sample::select(vec![Shape::Plain, Shape::Edns, Shape::NoRd, Shape::TwoQuestions]),
        id in any::<u16>(),
        leaky in any::<bool>(),
    ) {
        let upstream = ip("20.0.0.53");
        let mut fwd = if leaky { ForwarderHost::leaky(upstream) } else { ForwarderHost::new(upstream) };
        let query = query_packet(qname, mask, qtype, RecordClass::In, shape, id);
        let reencoded = |p: &[u8]| Message::decode(p).unwrap().encode();
        let client = Datagram::new(ip("100.0.0.1"), 40_000, ip("5.5.5.5"), 53, query.clone());
        let mut outgoing = Vec::new();
        fwd.on_udp(&mut HostCtx::new(SimTime::ZERO, ip("5.5.5.5"), &mut outgoing), &client);
        prop_assert_eq!(outgoing.len(), 1);
        prop_assert_eq!(&outgoing[0].1.payload[..], &reencoded(&query)[..]);
        prop_assert_eq!(outgoing[0].1.dst_ip, upstream);

        // The upstream's answer, relayed back to the client.
        let mut resolver = host(&ResolverBehavior::Honest, &softwares()[0], &caches()[0], 3, None);
        let asked = outgoing.remove(0).1;
        let mut answers = Vec::new();
        resolver.on_udp(&mut HostCtx::new(SimTime::ZERO, upstream, &mut answers), &asked);
        for (_, answer) in answers {
            let mut relayed = Vec::new();
            fwd.on_udp(&mut HostCtx::new(SimTime::ZERO, ip("5.5.5.5"), &mut relayed), &answer);
            if !leaky {
                prop_assert_eq!(relayed.len(), 1);
                prop_assert_eq!(&relayed[0].1.payload[..], &reencoded(&answer.payload)[..]);
                prop_assert_eq!((relayed[0].1.dst_ip, relayed[0].1.dst_port), (ip("100.0.0.1"), 40_000));
            }
        }
    }
}
