//! Property tests for the scanner's algorithmic core: the LFSR
//! permutation and the resolver-identifier encoding.

use dnswire::{Message, MessageBuilder, MessageView, Rcode, RecordType};
use proptest::prelude::*;
use scanner::encode::QueryTemplate;
use scanner::{decode_probe, encode_probe, enumeration_query, target_from_qname, IpPermutation};
use std::collections::HashSet;
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The permutation visits every address exactly once, for arbitrary
    /// range layouts.
    #[test]
    fn permutation_is_a_bijection(
        seed in any::<u64>(),
        // Up to 4 disjoint ranges with gaps between them.
        sizes in proptest::collection::vec(1u32..500, 1..4),
        gaps in proptest::collection::vec(1u32..10_000, 4),
        base in 0x0B00_0000u32..0x20000000,
    ) {
        let mut ranges = Vec::new();
        let mut cursor = base;
        for (i, &size) in sizes.iter().enumerate() {
            let start = cursor;
            let end = start + size - 1;
            ranges.push((Ipv4Addr::from(start), Ipv4Addr::from(end)));
            cursor = end + 1 + gaps[i % gaps.len()];
        }
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        let perm = IpPermutation::new(&ranges, seed);
        prop_assert_eq!(perm.len(), total);
        let visited: Vec<Ipv4Addr> = perm.collect();
        prop_assert_eq!(visited.len() as u64, total);
        let set: HashSet<&Ipv4Addr> = visited.iter().collect();
        prop_assert_eq!(set.len() as u64, total, "duplicates found");
        for ip in &visited {
            let v = u32::from(*ip);
            prop_assert!(
                ranges.iter().any(|(a, b)| (u32::from(*a)..=u32::from(*b)).contains(&v)),
                "{} outside every range", ip
            );
        }
    }

    /// Probe encoding round-trips through a simulated response for every
    /// 25-bit identifier, with or without a usable arrival port.
    #[test]
    fn probe_identifier_round_trips(id in 0u32..(1 << 25), rewrite_port in any::<bool>()) {
        let p = encode_probe(id, "okcupid.example");
        let q = MessageBuilder::query(p.txid, p.qname.clone(), RecordType::A).build();
        // Simulate the resolver echoing the question (casing preserved)
        // through a real encode/decode cycle.
        let resp = MessageBuilder::response_to(&q, Rcode::NoError).build();
        let wire = resp.encode();
        let resp = MessageView::parse(&wire).unwrap();
        let arrival = if rewrite_port { None } else { Some(p.port_offset) };
        prop_assert_eq!(decode_probe(&resp, arrival), Some(id));
    }

    /// A probe stamped from the domain template is the probe built
    /// from scratch, for every identifier of the 25-bit space — and
    /// carries it back out of an echoing response.
    #[test]
    fn stamped_domain_probe_is_the_built_probe(
        id in 0u32..(1 << 25),
        domain in proptest::sample::select(vec![
            "okcupid.example", "bet-at-home.example", "a1.b2.example", "x.y", "UPPER.Example.",
        ]),
    ) {
        let p = encode_probe(id, domain);
        let built = MessageBuilder::query(p.txid, p.qname, RecordType::A).build().encode();
        let tmpl = QueryTemplate::domain_probe(domain);
        prop_assert_eq!(&tmpl.probe(id), &built);
        let mut slot = vec![0u8; tmpl.probe_len()];
        tmpl.stamp(id, &mut slot);
        prop_assert_eq!(&slot, &built);
        // Names with nine letters or more carry the whole identifier.
        if domain != "x.y" {
            let echoed = Message::decode(&built).unwrap();
            let wire = MessageBuilder::response_to(&echoed, Rcode::NoError).build().encode();
            prop_assert_eq!(decode_probe(&MessageView::parse(&wire).unwrap(), None), Some(id));
        }
    }

    /// The enumeration scan name always carries the target address,
    /// whatever the target.
    #[test]
    fn enumeration_name_encodes_target(raw in any::<u32>(), seed in any::<u64>()) {
        let target = Ipv4Addr::from(raw);
        let (msg, name) = enumeration_query(target, "scan.gwild.example", seed);
        prop_assert_eq!(target_from_qname(&name), Some(target));
        // The query must survive the wire.
        let decoded = Message::decode(&msg.encode()).unwrap();
        prop_assert_eq!(target_from_qname(&decoded.questions[0].qname), Some(target));
    }
}
