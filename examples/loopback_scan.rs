//! Scan *real* DNS servers over real UDP sockets: spawn a fleet of
//! simulated resolvers on 127.0.0.1, a thread each, then enumerate and
//! fingerprint them with the real-socket scan driver — the same methodology
//! as the simulation campaigns, on an actual network stack.
//!
//! Run with: `cargo run --release --example loopback_scan`

use resolversim::loopback::spawn_fleet;
use resolversim::{
    CacheProfile, ChaosPolicy, DeviceProfile, DnsUniverse, DomainCategory, DomainKind,
    DomainRecord, ResolverBehavior, ResolverHost, SoftwareProfile, TldCacheSim,
};
use scanner::udp_scan::enumerate_and_fingerprint;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

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
    let targets: Vec<SocketAddrV4> = fleet.iter().map(|s| s.local_addr).collect();
    println!("spawned {} resolvers on loopback", targets.len());

    let results = enumerate_and_fingerprint(&targets, "probe.example", 16, Duration::from_secs(2))?;
    println!("\n{:<22} {:<10} version.bind", "endpoint", "rcode");
    for (addr, rcode, version) in &results {
        println!(
            "{:<22} {:<10} {}",
            addr.to_string(),
            rcode.mnemonic(),
            version.as_deref().unwrap_or("-")
        );
    }

    for s in fleet {
        s.shutdown();
    }
    Ok(())
}
