//! Wire-codec throughput: every scan response passes through these.
//!
//! `dnswire` is the owned form (`Message::{encode, decode}`);
//! `view_parse` is the borrowed form every campaign drain and every
//! simulated host reads instead; `reply_write` is a response written
//! from a view of its query, against building and encoding one — down
//! to a whole `ResolverHost::on_udp`. The corpus is the traffic of the
//! two big campaigns: an EDNS enumeration probe and a domain-scan probe,
//! each with its answer.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dnswire::{Message, MessageBuilder, MessageView, Name, Rcode, RecordType, ReplyWriter};
use netsim::{Datagram, Host, HostCtx, SimTime};
use resolversim::{
    CacheProfile, ChaosPolicy, DeviceProfile, DnsUniverse, DomainCategory, DomainKind,
    DomainRecord, ResolverBehavior, ResolverHost, SoftwareProfile, TldCacheSim,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

const A1: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const A2: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 2);

fn answered(query: &Message) -> Message {
    let qname = &query.questions[0].qname;
    MessageBuilder::response_to(query, Rcode::NoError)
        .answer_a(qname.clone(), 300, A1)
        .answer_a(qname.clone(), 300, A2)
        .build()
}

fn bench_codec(c: &mut Criterion) {
    let sweep = MessageBuilder::query(
        0x1234,
        Name::parse("r4nd0mzz.0b00010a.scan.gwild.example").unwrap(),
        RecordType::A,
    )
    .edns(4096)
    .build();
    let domain = MessageBuilder::query(
        0x4321,
        Name::parse("PaYpAl.ExAmple").unwrap(),
        RecordType::A,
    )
    .build();
    let response = answered(&sweep);
    let wire = response.encode();
    let corpus: Vec<Vec<u8>> = [&sweep, &response, &domain, &answered(&domain)]
        .map(Message::encode)
        .to_vec();
    let corpus_bytes = corpus.iter().map(Vec::len).sum::<usize>() as u64;

    let mut g = c.benchmark_group("dnswire");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_response", |b| {
        b.iter(|| black_box(response.encode()))
    });
    g.bench_function("decode_response", |b| {
        b.iter(|| Message::decode(black_box(&wire)).unwrap())
    });
    g.bench_function("query_roundtrip", |b| {
        b.iter(|| {
            let w = sweep.encode();
            Message::decode(black_box(&w)).unwrap()
        })
    });
    g.throughput(Throughput::Bytes(corpus_bytes));
    g.bench_function("decode_corpus_of_4", |b| {
        b.iter(|| {
            for w in &corpus {
                black_box(Message::decode(black_box(w)).unwrap());
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("view_parse");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("parse_response", |b| {
        b.iter(|| MessageView::parse(black_box(&wire)).unwrap())
    });
    // What a campaign drain reads: header, echoed name, addresses, and
    // whether the authority section holds an NS.
    g.bench_function("parse_and_read_response", |b| {
        b.iter(|| {
            let v = MessageView::parse(black_box(&wire)).unwrap();
            let q = v.question().unwrap();
            (
                v.id(),
                v.rcode(),
                q.name
                    .eq_ascii_lower("r4nd0mzz.0b00010a.scan.gwild.example"),
                v.answer_ips().map(u32::from).sum::<u32>(),
                v.authorities().any(|rr| rr.rtype == RecordType::Ns),
            )
        })
    });
    g.throughput(Throughput::Bytes(corpus_bytes));
    g.bench_function("parse_corpus_of_4", |b| {
        b.iter(|| {
            for w in &corpus {
                black_box(MessageView::parse(black_box(w)).unwrap());
            }
        })
    });
    g.finish();

    let query_wire = domain.encode();
    let mut g = c.benchmark_group("reply_write");
    g.bench_function("built_and_encoded", |b| {
        b.iter(|| {
            let q = Message::decode(black_box(&query_wire)).unwrap();
            answered(&q).encode()
        })
    });
    g.bench_function("written_from_view", |b| {
        b.iter(|| {
            let q = MessageView::parse(black_box(&query_wire)).unwrap();
            let mut buf = Vec::with_capacity(128);
            let mut reply = ReplyWriter::new(&q, Rcode::NoError, &mut buf);
            reply.answer_a(300, A1);
            reply.answer_a(300, A2);
            buf
        })
    });
    let mut universe = DnsUniverse::new();
    universe.add_domain(DomainRecord {
        name: "paypal.example".into(),
        category: DomainCategory::Banking,
        kind: DomainKind::Fixed(vec![A1, A2]),
        ttl: 300,
        is_mail_host: false,
    });
    let mut host = ResolverHost::new(
        Arc::new(universe),
        ResolverBehavior::Honest,
        SoftwareProfile::new("BIND", "9.8.2", ChaosPolicy::Genuine),
        DeviceProfile::closed(),
        TldCacheSim::new(CacheProfile::EmptyAnswer),
        geodb::Rir::Ripe,
        9,
    );
    let dgram = Datagram::new(
        Ipv4Addr::new(100, 0, 0, 1),
        40_000,
        Ipv4Addr::new(5, 5, 5, 5),
        53,
        query_wire.clone(),
    );
    let mut outgoing = Vec::new();
    g.bench_function("honest_host_on_udp", |b| {
        b.iter(|| {
            outgoing.clear();
            let mut ctx = HostCtx::new(SimTime::ZERO, dgram.dst_ip, &mut outgoing);
            host.on_udp(&mut ctx, black_box(&dgram));
            outgoing.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
