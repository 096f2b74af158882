//! Serve a [`ResolverHost`] on a real UDP socket, one thread per
//! resolver.
//!
//! This is the bridge between the deterministic simulation world and
//! actual networking code: the same `ResolverHost` behaviour object that
//! runs inside `netsim` can be exposed on loopback, and the scanner's
//! campaigns, run over its real-socket transport (`scanner::Udp`), probe
//! and classify it exactly as they do a simulated resolver. A fleet
//! takes consecutive 127/8 addresses on one shared port, so a campaign
//! names its resolvers by address, as it does on netsim. Integration
//! tests and the `loopback_scan` example use this to prove the scanner
//! is not simulation-bound.

use crate::resolver::ResolverHost;
use netsim::{Datagram, Host as _, HostCtx, SimTime};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle to a running loopback resolver. Dropping it stops the
/// resolver's thread and frees its address.
pub struct ResolverServer {
    /// The bound address (useful when port 0 was requested).
    pub local_addr: SocketAddrV4,
    /// A clone of the resolver's socket: stopping sends it a datagram
    /// of its own, which ends the thread's blocking receive.
    waker: UdpSocket,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ResolverServer {
    /// Bind `host` to `addr` (e.g. `127.0.0.1:0`) and serve on a thread
    /// of its own until [`ResolverServer::shutdown`] or drop.
    pub fn spawn(mut host: ResolverHost, addr: SocketAddrV4) -> std::io::Result<ResolverServer> {
        let socket = UdpSocket::bind(addr)?;
        let local_addr = match socket.local_addr()? {
            SocketAddr::V4(a) => a,
            SocketAddr::V6(_) => unreachable!("bound V4"),
        };
        let waker = socket.try_clone()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let start = Instant::now();

        let thread = std::thread::Builder::new()
            .name(format!("resolver-{local_addr}"))
            .spawn(move || {
                let mut buf = vec![0u8; 4096];
                loop {
                    let received = socket.recv_from(&mut buf);
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    // An error reports one datagram (an ICMP refusal of
                    // an earlier answer), not the socket: keep serving.
                    let Ok((len, SocketAddr::V4(peer))) = received else {
                        continue;
                    };
                    let now = SimTime(start.elapsed().as_millis() as u64);
                    let dgram = Datagram::new(
                        *peer.ip(),
                        peer.port(),
                        *local_addr.ip(),
                        local_addr.port(),
                        buf[..len].to_vec(),
                    );
                    let mut outgoing: Vec<(u64, Datagram)> = Vec::new();
                    host.on_udp(&mut HostCtx::new(now, dgram.dst_ip, &mut outgoing), &dgram);
                    for (delay_ms, out) in outgoing {
                        std::thread::sleep(Duration::from_millis(delay_ms));
                        let dst = SocketAddrV4::new(out.dst_ip, out.dst_port);
                        let _ = socket.send_to(&out.payload, dst);
                    }
                }
            })?;

        Ok(ResolverServer {
            local_addr,
            waker,
            stop,
            thread: Some(thread),
        })
    }

    /// Stop serving and wait for the resolver's thread to exit.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ResolverServer {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // A send to a bound loopback socket only fails if the
            // thread already died, in which case the join returns.
            let _ = self.waker.send_to(&[], self.local_addr);
            let _ = thread.join();
        }
    }
}

/// Spawn a fleet of resolvers on consecutive 127/8 addresses from
/// `base`'s, all on one port: `base`'s, or the one the kernel picks for
/// the first when that is 0. A fleet that would leave 127/8 is an
/// `InvalidInput` error. Returns the servers; their addresses are in
/// `local_addr`.
pub fn spawn_fleet(
    hosts: Vec<ResolverHost>,
    base: SocketAddrV4,
) -> std::io::Result<Vec<ResolverServer>> {
    let first = u32::from(*base.ip());
    let last = first.checked_add(hosts.len().saturating_sub(1) as u32);
    if !base.ip().is_loopback() || !last.is_some_and(|l| Ipv4Addr::from(l).is_loopback()) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} resolvers from {} leave 127/8", hosts.len(), base.ip()),
        ));
    }
    let mut servers = Vec::with_capacity(hosts.len());
    let mut port = base.port();
    for (ip, host) in (first..).zip(hosts) {
        let server = ResolverServer::spawn(host, SocketAddrV4::new(ip.into(), port))?;
        port = server.local_addr.port();
        servers.push(server);
    }
    Ok(servers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ResolverBehavior;
    use crate::cachesim::{CacheProfile, TldCacheSim};
    use crate::device::DeviceProfile;
    use crate::software::{ChaosPolicy, SoftwareProfile};
    use crate::universe::{DnsUniverse, DomainCategory, DomainKind, DomainRecord};
    use dnswire::{Message, MessageBuilder, Name, RecordType};

    fn test_host() -> ResolverHost {
        let mut u = DnsUniverse::new();
        u.add_domain(DomainRecord {
            name: "loop.example".into(),
            category: DomainCategory::Misc,
            kind: DomainKind::Fixed(vec![Ipv4Addr::new(198, 51, 100, 1)]),
            ttl: 60,
            is_mail_host: false,
        });
        ResolverHost::new(
            Arc::new(u),
            ResolverBehavior::Honest,
            SoftwareProfile::new("BIND", "9.8.2", ChaosPolicy::Genuine),
            DeviceProfile::closed(),
            TldCacheSim::new(CacheProfile::EmptyAnswer),
            geodb::Rir::Ripe,
            1,
        )
    }

    #[test]
    fn serves_real_udp_queries() {
        let server =
            ResolverServer::spawn(test_host(), SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = server.local_addr;

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let q = MessageBuilder::query(0x1337, Name::parse("loop.example").unwrap(), RecordType::A)
            .build();
        client.send_to(&q.encode(), addr).unwrap();
        let mut buf = [0u8; 1024];
        let (len, _) = client.recv_from(&mut buf).expect("timely response");
        let resp = Message::decode(&buf[..len]).unwrap();
        assert_eq!(resp.header.id, 0x1337);
        assert_eq!(resp.answer_ips(), vec![Ipv4Addr::new(198, 51, 100, 1)]);
        server.shutdown();
    }

    #[test]
    fn fleet_spawns_on_distinct_ports() {
        let base = SocketAddrV4::new(Ipv4Addr::new(127, 0, 2, 1), 0);
        let servers = spawn_fleet(vec![test_host(), test_host(), test_host()], base).unwrap();
        let port = servers[0].local_addr.port();
        assert_ne!(port, 0);
        let addrs: Vec<SocketAddrV4> = servers.iter().map(|s| s.local_addr).collect();
        let expected = [1, 2, 3].map(|d| SocketAddrV4::new(Ipv4Addr::new(127, 0, 2, d), port));
        assert_eq!(addrs, expected, "distinct addresses, one shared port");
        for s in servers {
            s.shutdown();
        }
        // A fleet running past 127.255.255.255 is refused, not wrapped.
        let edge = SocketAddrV4::new(Ipv4Addr::new(127, 255, 255, 254), 0);
        let err = spawn_fleet(vec![test_host(), test_host(), test_host()], edge).err();
        assert_eq!(
            err.map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidInput)
        );
    }

    #[test]
    fn shutdown_of_an_idle_resolver_is_prompt() {
        let server =
            ResolverServer::spawn(test_host(), SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        // Let the thread block in its receive first.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        server.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    }

    #[test]
    fn a_dropped_resolver_frees_its_address() {
        let server =
            ResolverServer::spawn(test_host(), SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = server.local_addr;
        assert!(UdpSocket::bind(addr).is_err(), "{addr} is served");
        drop(server);
        UdpSocket::bind(addr).expect("the address is free once the handle drops");
    }
}
