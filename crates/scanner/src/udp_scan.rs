//! A real-socket scan driver over one blocking `std::net::UdpSocket`.
//!
//! The simulation campaigns prove the methodology at Internet scale; this
//! driver proves the scanner speaks real DNS on real sockets. It probes a
//! set of UDP endpoints — in tests and the `loopback_scan` example these
//! are `resolversim::loopback` fleets on 127.0.0.1 — with the same
//! query construction the simulation campaigns use.
//!
//! Responses are correlated by peer address + transaction ID, with a
//! bounded number of probes in flight, mirroring the rate discipline of
//! the paper's scanner.

use dnswire::{MessageBuilder, MessageView, Name, Rcode, RecordType};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

/// Outcome of probing one endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Response code.
    pub rcode: Rcode,
    /// Answer A records.
    pub answers: Vec<Ipv4Addr>,
    /// TXT payload (CHAOS probes).
    pub txt: Option<String>,
}

/// Probe kind.
#[derive(Debug, Clone)]
pub enum Probe {
    /// A-record lookup of a domain.
    A(Name),
    /// CHAOS TXT `version.bind`.
    VersionBind,
}

/// Scan `targets` with `probe`, with at most `window` probes in flight,
/// a non-zero per-receive `deadline`, and an optional probes-per-second
/// ceiling enforced by a token bucket — the paper's politeness
/// discipline on real sockets. Returns outcomes for responsive targets.
pub fn scan_targets(
    targets: &[SocketAddrV4],
    probe: Probe,
    window: usize,
    deadline: Duration,
    rate_per_s: Option<u32>,
) -> std::io::Result<HashMap<SocketAddrV4, ProbeOutcome>> {
    let mut bucket = rate_per_s.map(|r| crate::TokenBucket::new(r, window.max(1) as u32));
    let wait_total = telemetry::counter("scanner.token_wait_ms_total");
    let wait_hist = telemetry::histogram("scanner.token_wait_ms", &[1, 5, 10, 50, 100, 500, 1000]);
    let start = Instant::now();
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.set_read_timeout(Some(deadline))?;
    let mut results: HashMap<SocketAddrV4, ProbeOutcome> = HashMap::new();
    let mut buf = vec![0u8; 4096];

    for chunk in targets.chunks(window.max(1)) {
        // Send the window.
        let mut expected: HashMap<SocketAddrV4, u16> = HashMap::new();
        for (i, &target) in chunk.iter().enumerate() {
            if let Some(bucket) = bucket.as_mut() {
                while let Err(wait) = bucket.try_acquire(start.elapsed().as_millis() as u64) {
                    wait_total.add(wait);
                    wait_hist.observe(wait);
                    std::thread::sleep(Duration::from_millis(wait));
                }
            }
            let txid = (u32::from(*target.ip()) as u16)
                .wrapping_add(target.port())
                .wrapping_add(i as u16);
            let msg = match &probe {
                Probe::A(name) => MessageBuilder::query(txid, name.clone(), RecordType::A).build(),
                Probe::VersionBind => {
                    MessageBuilder::chaos_query(txid, Name::parse("version.bind").unwrap()).build()
                }
            };
            socket.send_to(&msg.encode(), target)?;
            expected.insert(target, txid);
        }
        // Collect until the window is drained or a receive times out.
        let mut remaining = expected.len();
        while remaining > 0 {
            let Ok((len, peer)) = socket.recv_from(&mut buf) else {
                break;
            };
            let SocketAddr::V4(peer) = peer else { continue };
            let Some(&txid) = expected.get(&peer) else {
                continue;
            };
            let Ok(msg) = MessageView::parse(&buf[..len]) else {
                continue;
            };
            if !msg.is_response() || msg.id() != txid {
                continue;
            }
            let txt = msg.answers().find_map(|rr| rr.rdata().txt_joined());
            if results
                .insert(
                    peer,
                    ProbeOutcome {
                        rcode: msg.rcode(),
                        answers: msg.answer_ips().collect(),
                        txt,
                    },
                )
                .is_none()
            {
                remaining -= 1;
            }
        }
    }
    Ok(results)
}

/// Enumerate which endpoints are open resolvers (answer NOERROR for a
/// probe domain), then fingerprint their software with CHAOS — the
/// loopback analogue of the Sec. 2.2 + 2.4 pipeline.
pub fn enumerate_and_fingerprint(
    targets: &[SocketAddrV4],
    probe_domain: &str,
    window: usize,
    deadline: Duration,
) -> std::io::Result<Vec<(SocketAddrV4, Rcode, Option<String>)>> {
    let name = Name::parse(probe_domain)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let enumerated = scan_targets(targets, Probe::A(name), window, deadline, None)?;
    let open: Vec<SocketAddrV4> = enumerated
        .iter()
        .filter(|(_, o)| o.rcode == Rcode::NoError)
        .map(|(a, _)| *a)
        .collect();
    let versions = scan_targets(&open, Probe::VersionBind, window, deadline, None)?;
    let mut out: Vec<(SocketAddrV4, Rcode, Option<String>)> = enumerated
        .into_iter()
        .map(|(addr, o)| {
            let version = versions.get(&addr).and_then(|v| v.txt.clone());
            (addr, o.rcode, version)
        })
        .collect();
    out.sort_by_key(|(a, _, _)| (*a.ip(), a.port()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resolversim::loopback::{spawn_fleet, ResolverServer};
    use resolversim::{
        CacheProfile, ChaosPolicy, DeviceProfile, DnsUniverse, DomainCategory, DomainKind,
        DomainRecord, ResolverBehavior, ResolverHost, SoftwareProfile, TldCacheSim,
    };
    use std::sync::Arc;

    fn host(behavior: ResolverBehavior, version: &str) -> ResolverHost {
        let mut u = DnsUniverse::new();
        u.add_domain(DomainRecord {
            name: "probe.example".into(),
            category: DomainCategory::Misc,
            kind: DomainKind::Fixed(vec![Ipv4Addr::new(198, 51, 100, 77)]),
            ttl: 60,
            is_mail_host: false,
        });
        ResolverHost::new(
            Arc::new(u),
            behavior,
            SoftwareProfile::new("BIND", version, ChaosPolicy::Genuine),
            DeviceProfile::closed(),
            TldCacheSim::new(CacheProfile::EmptyAnswer),
            geodb::Rir::Ripe,
            7,
        )
    }

    #[test]
    fn loopback_enumerate_and_fingerprint() {
        let fleet: Vec<ResolverServer> = spawn_fleet(
            vec![
                host(ResolverBehavior::Honest, "9.8.2"),
                host(ResolverBehavior::RefusedAll, "9.9.5"),
                host(ResolverBehavior::Honest, "9.3.6"),
            ],
            SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
        )
        .unwrap();
        let targets: Vec<SocketAddrV4> = fleet.iter().map(|s| s.local_addr).collect();

        let results =
            enumerate_and_fingerprint(&targets, "probe.example", 16, Duration::from_secs(3))
                .unwrap();

        assert_eq!(results.len(), 3);
        let noerror: Vec<_> = results
            .iter()
            .filter(|(_, r, _)| *r == Rcode::NoError)
            .collect();
        let refused: Vec<_> = results
            .iter()
            .filter(|(_, r, _)| *r == Rcode::Refused)
            .collect();
        assert_eq!(noerror.len(), 2);
        assert_eq!(refused.len(), 1);
        let versions: Vec<&str> = noerror
            .iter()
            .filter_map(|(_, _, v)| v.as_deref())
            .collect();
        assert!(versions.contains(&"BIND 9.8.2"));
        assert!(versions.contains(&"BIND 9.3.6"));

        for s in fleet {
            s.shutdown();
        }
    }

    #[test]
    fn unresponsive_targets_do_not_hang() {
        // Nothing listens on this port (bind+drop to find a free one).
        let free = {
            let s = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
            let a = s.local_addr().unwrap();
            match a {
                SocketAddr::V4(v4) => v4,
                _ => unreachable!(),
            }
        };
        let results = scan_targets(
            &[free],
            Probe::A(Name::parse("probe.example").unwrap()),
            4,
            Duration::from_millis(200),
            None,
        )
        .unwrap();
        assert!(results.is_empty());
    }
}
