//! Real-socket integration: a mixed fleet of resolver behaviours served
//! over actual UDP on loopback, scanned with the paced real-socket driver.
//!
//! This is the "not simulation-bound" proof for the whole stack:
//! resolver behaviours, wire codec, scanner, and rate limiting all run
//! on a real network path.

use resolversim::loopback::spawn_fleet;
use resolversim::{
    CacheProfile, CensorPolicy, CensorRule, ChaosPolicy, DeviceProfile, DnsUniverse,
    DomainCategory, DomainKind, DomainRecord, ResolverBehavior, ResolverHost, SoftwareProfile,
    TldCacheSim,
};
use scanner::udp_scan::{scan_targets, Probe};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

fn universe() -> Arc<DnsUniverse> {
    let mut u = DnsUniverse::new();
    u.add_domain(DomainRecord {
        name: "probe.example".into(),
        category: DomainCategory::Misc,
        kind: DomainKind::Fixed(vec![Ipv4Addr::new(198, 51, 100, 10)]),
        ttl: 60,
        is_mail_host: false,
    });
    u.add_domain(DomainRecord {
        name: "blocked.example".into(),
        category: DomainCategory::Adult,
        kind: DomainKind::Fixed(vec![Ipv4Addr::new(198, 51, 100, 20)]),
        ttl: 60,
        is_mail_host: false,
    });
    Arc::new(u)
}

fn resolver(behavior: ResolverBehavior, version: &str) -> ResolverHost {
    ResolverHost::new(
        universe(),
        behavior,
        SoftwareProfile::new("BIND", version, ChaosPolicy::Genuine),
        DeviceProfile::closed(),
        TldCacheSim::new(CacheProfile::EmptyAnswer),
        geodb::Rir::Ripe,
        3,
    )
}

fn censor() -> ResolverBehavior {
    ResolverBehavior::Censor {
        policy: Arc::new(CensorPolicy {
            country: geodb::Country::new("TR"),
            rules: vec![CensorRule {
                categories: vec![DomainCategory::Adult],
                domains: vec![],
                landing_ips: vec![Ipv4Addr::new(203, 0, 113, 80)],
            }],
            compliance: 1.0,
        }),
    }
}

#[test]
fn mixed_fleet_over_real_sockets() {
    // 12 resolvers: 6 honest, 3 censoring, 2 refusing, 1 static.
    let mut hosts = Vec::new();
    for _ in 0..6 {
        hosts.push(resolver(ResolverBehavior::Honest, "9.8.2"));
    }
    for _ in 0..3 {
        hosts.push(resolver(censor(), "9.9.5"));
    }
    for _ in 0..2 {
        hosts.push(resolver(ResolverBehavior::RefusedAll, "9.3.6"));
    }
    hosts.push(resolver(
        ResolverBehavior::StaticIp {
            ip: Ipv4Addr::new(203, 0, 113, 99),
        },
        "9.7.3",
    ));

    let fleet = spawn_fleet(hosts, SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
    let targets: Vec<SocketAddrV4> = fleet.iter().map(|s| s.local_addr).collect();

    // Paced scan of an innocuous domain: honest + censor + static answer
    // NOERROR; refusers answer REFUSED.
    let name = dnswire::Name::parse("probe.example").unwrap();
    let outcomes = scan_targets(
        &targets,
        Probe::A(name),
        8,
        Duration::from_secs(3),
        Some(500),
    )
    .unwrap();
    assert_eq!(outcomes.len(), 12, "every resolver answers something");
    let noerror = outcomes
        .values()
        .filter(|o| o.rcode == dnswire::Rcode::NoError)
        .count();
    let refused = outcomes
        .values()
        .filter(|o| o.rcode == dnswire::Rcode::Refused)
        .count();
    assert_eq!(noerror, 10);
    assert_eq!(refused, 2);

    // Scan the censored domain: the censors return the landing page,
    // the honest ones the real address.
    let name = dnswire::Name::parse("blocked.example").unwrap();
    let outcomes = scan_targets(
        &targets,
        Probe::A(name),
        8,
        Duration::from_secs(3),
        Some(500),
    )
    .unwrap();
    let legit = Ipv4Addr::new(198, 51, 100, 20);
    let landing = Ipv4Addr::new(203, 0, 113, 80);
    let honest_answers = outcomes
        .values()
        .filter(|o| o.answers.contains(&legit))
        .count();
    let censored_answers = outcomes
        .values()
        .filter(|o| o.answers.contains(&landing))
        .count();
    assert_eq!(honest_answers, 6);
    assert_eq!(censored_answers, 3);

    for s in fleet {
        s.shutdown();
    }
}
