//! Scan *real* DNS servers over real UDP sockets: spawn a fleet of
//! simulated resolvers on 127.0.0.1–6, a thread each, then find the open
//! ones with the domain scan and fingerprint them with CHAOS — the
//! simulation campaigns themselves, run over the scanner's real-socket
//! transport on an actual network stack.
//!
//! Exits 1 unless every resolver shows the (rcode, version.bind) row its
//! behaviour and software call for.
//!
//! Run with: `cargo run --release --example loopback_scan`

use dnswire::Rcode;
use resolversim::loopback::spawn_fleet;
use resolversim::{
    CacheProfile, ChaosPolicy, DeviceProfile, DnsUniverse, DomainCategory, DomainKind,
    DomainRecord, ResolverBehavior, ResolverHost, SoftwareProfile, TldCacheSim,
};
use scanner::{chaos_scan, scan_domains_streaming_with_policy, ChaosObservation, ProbePolicy, Udp};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;

/// The row each resolver of the fleet must show, in fleet order.
const EXPECTED: [(&str, &str); 6] = [
    ("NOERROR", "BIND 9.8.2"),
    ("NOERROR", "BIND 9.3.6"),
    ("NOERROR", "Dnsmasq 2.52"),
    ("NOERROR", "none of your business"),
    ("REFUSED", "-"),
    ("NOERROR", "Unbound 1.4.22"),
];

fn universe() -> Arc<DnsUniverse> {
    let mut u = DnsUniverse::new();
    u.add_domain(DomainRecord {
        name: "probe.example".into(),
        category: DomainCategory::Misc,
        kind: DomainKind::Fixed(vec![Ipv4Addr::new(198, 51, 100, 42)]),
        ttl: 60,
        is_mail_host: false,
    });
    Arc::new(u)
}

fn resolver(
    behavior: ResolverBehavior,
    family: &str,
    version: &str,
    chaos: ChaosPolicy,
) -> ResolverHost {
    ResolverHost::new(
        universe(),
        behavior,
        SoftwareProfile::new(family, version, chaos),
        DeviceProfile::closed(),
        TldCacheSim::new(CacheProfile::EmptyAnswer),
        geodb::Rir::Ripe,
        1,
    )
}

fn main() -> std::io::Result<()> {
    // A little fleet with the behaviours a real scan encounters.
    let fleet = spawn_fleet(
        vec![
            resolver(
                ResolverBehavior::Honest,
                "BIND",
                "9.8.2",
                ChaosPolicy::Genuine,
            ),
            resolver(
                ResolverBehavior::Honest,
                "BIND",
                "9.3.6",
                ChaosPolicy::Genuine,
            ),
            resolver(
                ResolverBehavior::Honest,
                "Dnsmasq",
                "2.52",
                ChaosPolicy::Genuine,
            ),
            resolver(
                ResolverBehavior::Honest,
                "BIND",
                "9.9.5",
                ChaosPolicy::Custom("none of your business".into()),
            ),
            resolver(
                ResolverBehavior::RefusedAll,
                "BIND",
                "9.7.3",
                ChaosPolicy::Genuine,
            ),
            resolver(
                ResolverBehavior::StaticIp {
                    ip: Ipv4Addr::new(203, 0, 113, 99),
                },
                "Unbound",
                "1.4.22",
                ChaosPolicy::Genuine,
            ),
        ],
        SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
    )?;
    let targets: Vec<Ipv4Addr> = fleet.iter().map(|s| *s.local_addr.ip()).collect();
    let port = fleet[0].local_addr.port();
    println!("spawned {} resolvers on loopback", targets.len());

    // Sec. 2.2: who answers NOERROR is an open resolver…
    let policy = ProbePolicy::single();
    let mut net = Udp::new(port);
    let vantage = Ipv4Addr::LOCALHOST;
    let mut rcodes = vec![None; targets.len()];
    let domains = ["probe.example".to_string()];
    let sink = &mut |t: scanner::TupleObs| {
        rcodes[t.resolver_idx as usize].get_or_insert(t.rcode);
    };
    scan_domains_streaming_with_policy(&mut net, vantage, &targets, &domains, 1, &policy, sink);
    // …and Sec. 2.4: CHAOS fingerprints the open ones.
    let open: Vec<Ipv4Addr> = (targets.iter().zip(&rcodes))
        .filter(|(_, rcode)| **rcode == Some(Rcode::NoError))
        .map(|(ip, _)| *ip)
        .collect();
    let null = &mut scanstore::NullSink;
    let (versions, _) = chaos_scan(&mut net, vantage, &open, 2, &policy, null);

    println!("\n{:<22} {:<10} version.bind", "endpoint", "rcode");
    let mut rows = Vec::new();
    for (server, rcode) in fleet.iter().zip(&rcodes) {
        let rcode = rcode.map_or("-", |r| r.mnemonic());
        let version = match versions.get(server.local_addr.ip()) {
            Some(ChaosObservation::Version(v)) => v.as_str(),
            _ => "-",
        };
        println!(
            "{:<22} {rcode:<10} {version}",
            server.local_addr.to_string()
        );
        rows.push((rcode, version));
    }

    for s in fleet {
        s.shutdown();
    }
    if rows != EXPECTED {
        eprintln!("loopback_scan: expected {EXPECTED:?}");
        std::process::exit(1);
    }
    Ok(())
}
