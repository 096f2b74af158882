//! The Section 5 DNSSEC discussion, as an executable experiment.
//!
//! The paper argues that DNSSEC does not defeat the Great Firewall's
//! injection *unless* the client refuses unsigned answers and waits:
//! the forged response arrives first, and "a resolver typically
//! utilizes the first response that matches an open transaction".
//!
//! Setup: an honest resolver behind a GFW-style injector, serving a
//! DNSSEC-signed censored domain. Two client strategies:
//! first-response-wins (loses) and wait-for-AD (wins).

use dnswire::{Message, MessageBuilder, Name, RecordType};
use netsim::{Datagram, Network, NetworkConfig, SimTime};
use resolversim::{
    CacheProfile, ChaosPolicy, DeviceProfile, DnsUniverse, DomainCategory, DomainKind,
    DomainRecord, GreatFirewall, ResolverBehavior, ResolverHost, SoftwareProfile, TldCacheSim,
};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

const LEGIT_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

fn setup() -> (Network, Ipv4Addr) {
    let mut universe = DnsUniverse::new();
    universe.add_domain(DomainRecord {
        name: "blocked.example".into(),
        category: DomainCategory::Alexa,
        kind: DomainKind::Fixed(vec![LEGIT_IP]),
        ttl: 300,
        is_mail_host: false,
    });
    universe.sign_domain("blocked.example");
    let universe = Arc::new(universe);

    let mut net = Network::new(NetworkConfig {
        seed: 5,
        udp_loss: 0.0,
        latency_ms: (20, 60),
        tcp_loss: 0.0,
    });
    // Honest validating resolver inside the censored range.
    let resolver_ip = Ipv4Addr::new(110, 7, 7, 7);
    let host = net.add_host(Box::new(ResolverHost::new(
        universe,
        ResolverBehavior::Honest,
        SoftwareProfile::new("BIND", "9.9.5", ChaosPolicy::Genuine),
        DeviceProfile::closed(),
        TldCacheSim::new(CacheProfile::EmptyAnswer),
        geodb::Rir::Apnic,
        3,
    )));
    net.bind_ip(resolver_ip, host);

    // The on-path injector censors the domain for border-crossing
    // queries.
    let censored: Arc<BTreeSet<String>> =
        Arc::new(["blocked.example".to_string()].into_iter().collect());
    net.add_injector(Box::new(GreatFirewall::new(
        vec![(
            Ipv4Addr::new(110, 0, 0, 0),
            Ipv4Addr::new(110, 255, 255, 255),
        )],
        censored,
    )));
    (net, resolver_ip)
}

fn query(net: &mut Network, resolver_ip: Ipv4Addr) -> Vec<Message> {
    let client_ip = Ipv4Addr::new(100, 0, 0, 1);
    let sock = net.open_socket(client_ip, 47_000);
    let q = MessageBuilder::query(
        0xD05,
        Name::parse("blocked.example").unwrap(),
        RecordType::A,
    )
    .build();
    net.send(
        Datagram::new(client_ip, 47_000, resolver_ip, 53, q.encode()),
        None,
    );
    net.run_until(SimTime::from_secs(10));
    net.recv_all(sock)
        .unwrap()
        .into_iter()
        .filter_map(|(_, d)| Message::decode(&d.payload).ok())
        .filter(|m| m.header.id == 0xD05 && m.header.response)
        .collect()
}

#[test]
fn first_response_client_is_fooled() {
    let (mut net, resolver_ip) = setup();
    let responses = query(&mut net, resolver_ip);
    assert!(responses.len() >= 2, "forged + genuine must both arrive");
    let first = &responses[0];
    assert_ne!(
        first.answer_ips(),
        vec![LEGIT_IP],
        "the injected answer wins the race"
    );
    assert!(
        !first.header.authentic_data,
        "the injector cannot forge validation"
    );
}

#[test]
fn ad_waiting_client_survives_injection() {
    let (mut net, resolver_ip) = setup();
    let responses = query(&mut net, resolver_ip);
    // Strategy from Sec. 5: for a domain known to be signed, drop
    // unsigned answers and keep waiting.
    let validated: Vec<&Message> = responses
        .iter()
        .filter(|m| m.header.authentic_data)
        .collect();
    assert_eq!(validated.len(), 1, "exactly one authenticated answer");
    assert_eq!(validated[0].answer_ips(), vec![LEGIT_IP]);
}

#[test]
fn unsigned_zone_has_no_defense() {
    // The same race for an *unsigned* domain: no response carries AD,
    // so the waiting strategy has nothing to wait for — the paper's
    // point about partial DNSSEC deployment.
    let mut universe = DnsUniverse::new();
    universe.add_domain(DomainRecord {
        name: "blocked.example".into(),
        category: DomainCategory::Alexa,
        kind: DomainKind::Fixed(vec![LEGIT_IP]),
        ttl: 300,
        is_mail_host: false,
    });
    // NOT signed.
    let universe = Arc::new(universe);
    let mut net = Network::new(NetworkConfig {
        seed: 6,
        udp_loss: 0.0,
        latency_ms: (20, 60),
        tcp_loss: 0.0,
    });
    let resolver_ip = Ipv4Addr::new(110, 7, 7, 7);
    let host = net.add_host(Box::new(ResolverHost::new(
        universe,
        ResolverBehavior::Honest,
        SoftwareProfile::new("BIND", "9.9.5", ChaosPolicy::Genuine),
        DeviceProfile::closed(),
        TldCacheSim::new(CacheProfile::EmptyAnswer),
        geodb::Rir::Apnic,
        3,
    )));
    net.bind_ip(resolver_ip, host);
    let censored: Arc<BTreeSet<String>> =
        Arc::new(["blocked.example".to_string()].into_iter().collect());
    net.add_injector(Box::new(GreatFirewall::new(
        vec![(
            Ipv4Addr::new(110, 0, 0, 0),
            Ipv4Addr::new(110, 255, 255, 255),
        )],
        censored,
    )));
    let responses = query(&mut net, resolver_ip);
    assert!(responses.iter().all(|m| !m.header.authentic_data));
}
