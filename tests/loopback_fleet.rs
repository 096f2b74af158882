//! Real-socket integration: a mixed fleet of resolver behaviours served
//! over actual UDP on loopback, scanned by the campaigns' own sweep over
//! its real-socket transport.
//!
//! This is the "not simulation-bound" proof for the whole stack:
//! resolver behaviours, wire codec, the 25-bit resolver-identifier
//! encoding and the sweep's pacing all run on a real network path — and
//! the same fleet on netsim is observed exactly as on loopback.

use dnswire::Rcode;
use resolversim::loopback::{spawn_fleet, ResolverServer};
use resolversim::{
    CacheProfile, CensorPolicy, CensorRule, ChaosPolicy, DeviceProfile, DnsUniverse,
    DomainCategory, DomainKind, DomainRecord, ResolverBehavior, ResolverHost, SoftwareProfile,
    TldCacheSim,
};
use scanner::{
    chaos_scan, scan_domains_streaming_with_policy, ChaosObservation, ProbePolicy, Transport,
    TupleObs, Udp,
};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use worldgen::{build_world, WorldConfig};

const DOMAINS: [&str; 2] = ["probe.example", "blocked.example"];

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

/// 12 resolvers: 6 honest, 3 censoring, 2 refusing, 1 static.
fn mixed_fleet() -> Vec<ResolverHost> {
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
    hosts
}

/// Spawn the mixed fleet on loopback from `base`; the servers, their
/// addresses and their one port.
fn spawn_mixed(base: Ipv4Addr) -> (Vec<ResolverServer>, Vec<Ipv4Addr>, u16) {
    let fleet = spawn_fleet(mixed_fleet(), SocketAddrV4::new(base, 0)).unwrap();
    let ips = fleet.iter().map(|s| *s.local_addr.ip()).collect();
    let port = fleet[0].local_addr.port();
    (fleet, ips, port)
}

/// The domain scan of [`DOMAINS`] over `net`: the first answer to each
/// (domain, resolver), by index.
fn domain_scan<T: Transport>(
    net: &mut T,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
) -> HashMap<(u16, u32), TupleObs> {
    let domains = DOMAINS.map(String::from);
    let mut first = HashMap::new();
    let sink = &mut |t: TupleObs| {
        first.entry((t.domain_idx, t.resolver_idx)).or_insert(t);
    };
    let policy = ProbePolicy::single();
    scan_domains_streaming_with_policy(net, vantage, resolvers, &domains, 11, &policy, sink);
    first
}

#[test]
fn mixed_fleet_over_real_sockets() {
    let (fleet, ips, port) = spawn_mixed(Ipv4Addr::new(127, 0, 4, 1));
    let answers = domain_scan(&mut Udp::new(port), Ipv4Addr::LOCALHOST, &ips);

    // The innocuous domain: honest + censor + static answer NOERROR;
    // refusers answer REFUSED.
    let probe: Vec<&TupleObs> = answers.values().filter(|t| t.domain_idx == 0).collect();
    assert_eq!(probe.len(), 12, "every resolver answers something");
    let noerror = probe.iter().filter(|t| t.rcode == Rcode::NoError).count();
    let refused = probe.iter().filter(|t| t.rcode == Rcode::Refused).count();
    assert_eq!(noerror, 10);
    assert_eq!(refused, 2);

    // The censored domain: the censors return the landing page, the
    // honest ones the real address.
    let blocked = answers.values().filter(|t| t.domain_idx == 1);
    let legit = Ipv4Addr::new(198, 51, 100, 20);
    let landing = Ipv4Addr::new(203, 0, 113, 80);
    let honest_answers = blocked.clone().filter(|t| t.ips.contains(&legit)).count();
    let censored_answers = blocked.filter(|t| t.ips.contains(&landing)).count();
    assert_eq!(honest_answers, 6);
    assert_eq!(censored_answers, 3);

    for s in fleet {
        s.shutdown();
    }
}

/// What a scan saw of one resolver: per domain its rcode and sorted A
/// answers, and its CHAOS outcome.
type Seen = (Vec<Option<(Rcode, Vec<Ipv4Addr>)>>, ChaosObservation);

fn observe<T: Transport>(net: &mut T, vantage: Ipv4Addr, resolvers: &[Ipv4Addr]) -> Vec<Seen> {
    let (policy, sink) = (ProbePolicy::single(), &mut scanstore::NullSink);
    let (mut chaos, _) = chaos_scan(net, vantage, resolvers, 5, &policy, sink);
    let mut answers = domain_scan(net, vantage, resolvers);
    (0..resolvers.len() as u32)
        .map(|ri| {
            let per_domain = (0..DOMAINS.len() as u16).map(|di| {
                let t = answers.remove(&(di, ri))?;
                let mut ips = t.ips;
                ips.sort_unstable();
                Some((t.rcode, ips))
            });
            let version = chaos.remove(&resolvers[ri as usize]);
            (
                per_domain.collect(),
                version.expect("every resolver is scanned"),
            )
        })
        .collect()
}

/// One fleet, built twice from the same constructors — once inside a
/// lossless netsim world, once on loopback at the same addresses — is
/// observed identically by the CHAOS and domain scans.
#[test]
fn netsim_and_loopback_observe_the_same_fleet() {
    let base = Ipv4Addr::new(127, 0, 1, 1);
    let mut world = build_world(WorldConfig::tiny(0x100B));
    let ips: Vec<Ipv4Addr> = (u32::from(base)..).take(12).map(Ipv4Addr::from).collect();
    for (&ip, host) in ips.iter().zip(mixed_fleet()) {
        let id = world.net.add_host(Box::new(host));
        world.net.bind_ip(ip, id);
    }
    let vantage = world.scanner_ip;
    let simulated = observe(&mut world, vantage, &ips);

    let (fleet, served, port) = spawn_mixed(base);
    assert_eq!(served, ips);
    let real = observe(&mut Udp::new(port), Ipv4Addr::LOCALHOST, &ips);
    for s in fleet {
        s.shutdown();
    }

    assert!(simulated
        .iter()
        .all(|(per_domain, _)| per_domain[0].is_some()));
    for (ip, (sim, real)) in ips.iter().zip(simulated.iter().zip(&real)) {
        assert_eq!(sim, real, "{ip}");
    }
}
