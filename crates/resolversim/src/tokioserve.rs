//! Serve a [`ResolverHost`] on a real UDP socket with tokio.
//!
//! This is the bridge between the deterministic simulation world and
//! actual networking code: the same `ResolverHost` behaviour object that
//! runs inside `netsim` can be exposed on 127.0.0.1, and the scanner's
//! tokio driver can enumerate and classify it exactly as it would a real
//! open resolver. Integration tests and the `loopback_scan` example use
//! this to prove the scanner is not simulation-bound.

use crate::resolver::ResolverHost;
use netsim::{Datagram, HostCtx, SimTime};
use std::net::{SocketAddr, SocketAddrV4};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tokio::net::UdpSocket;
use tokio::sync::oneshot;

/// Handle to a running loopback resolver.
pub struct ResolverServer {
    /// The bound address (useful when port 0 was requested).
    pub local_addr: SocketAddrV4,
    shutdown: Option<oneshot::Sender<()>>,
    task: tokio::task::JoinHandle<()>,
}

impl ResolverServer {
    /// Bind `host` to `addr` (e.g. `127.0.0.1:0`) and serve until
    /// [`ResolverServer::shutdown`] or drop.
    pub async fn spawn(host: ResolverHost, addr: SocketAddrV4) -> std::io::Result<ResolverServer> {
        let socket = UdpSocket::bind(SocketAddr::V4(addr)).await?;
        let local_addr = match socket.local_addr()? {
            SocketAddr::V4(a) => a,
            SocketAddr::V6(_) => unreachable!("bound V4"),
        };
        let (tx, mut rx) = oneshot::channel();
        let host = Arc::new(Mutex::new(host));
        let start = Instant::now();

        let task = tokio::spawn(async move {
            let mut buf = vec![0u8; 4096];
            loop {
                tokio::select! {
                    _ = &mut rx => break,
                    result = socket.recv_from(&mut buf) => {
                        let Ok((len, peer)) = result else { break };
                        let SocketAddr::V4(peer) = peer else { continue };
                        let now = SimTime(start.elapsed().as_millis() as u64);
                        let dgram = Datagram::new(
                            *peer.ip(),
                            peer.port(),
                            *local_addr.ip(),
                            local_addr.port(),
                            buf[..len].to_vec(),
                        );
                        let mut outgoing: Vec<(u64, Datagram)> = Vec::new();
                        {
                            use netsim::Host as _;
                            let mut guard = host.lock().unwrap_or_else(|e| e.into_inner());
                            let mut ctx = HostCtx::new(now, dgram.dst_ip, &mut outgoing);
                            (*guard).on_udp(&mut ctx, &dgram);
                        }
                        for (delay_ms, out) in outgoing {
                            if delay_ms > 0 {
                                tokio::time::sleep(std::time::Duration::from_millis(delay_ms)).await;
                            }
                            let dst = SocketAddrV4::new(out.dst_ip, out.dst_port);
                            let _ = socket.send_to(&out.payload, SocketAddr::V4(dst)).await;
                        }
                    }
                }
            }
        });

        Ok(ResolverServer {
            local_addr,
            shutdown: Some(tx),
            task,
        })
    }

    /// Stop serving.
    pub async fn shutdown(mut self) {
        if let Some(tx) = self.shutdown.take() {
            let _ = tx.send(());
        }
        let task = &mut self.task;
        let _ = task.await;
    }
}

impl Drop for ResolverServer {
    fn drop(&mut self) {
        if let Some(tx) = self.shutdown.take() {
            let _ = tx.send(());
        }
    }
}

/// Convenience: spawn a fleet of resolvers on consecutive loopback
/// ports. Returns the servers; their addresses are in `local_addr`.
pub async fn spawn_fleet(
    hosts: Vec<ResolverHost>,
    base: SocketAddrV4,
) -> std::io::Result<Vec<ResolverServer>> {
    let mut servers = Vec::with_capacity(hosts.len());
    let mut port = base.port();
    for host in hosts {
        let addr = SocketAddrV4::new(*base.ip(), port);
        servers.push(ResolverServer::spawn(host, addr).await?);
        if port != 0 {
            port += 1;
        }
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
    use std::net::Ipv4Addr;

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
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let server =
                ResolverServer::spawn(test_host(), SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
                    .await
                    .unwrap();
            let addr = server.local_addr;

            let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
            let q =
                MessageBuilder::query(0x1337, Name::parse("loop.example").unwrap(), RecordType::A)
                    .build();
            client
                .send_to(&q.encode(), SocketAddr::V4(addr))
                .await
                .unwrap();
            let mut buf = [0u8; 1024];
            let (len, _) = tokio::time::timeout(
                std::time::Duration::from_secs(5),
                client.recv_from(&mut buf),
            )
            .await
            .expect("timely response")
            .unwrap();
            let resp = Message::decode(&buf[..len]).unwrap();
            assert_eq!(resp.header.id, 0x1337);
            assert_eq!(resp.answer_ips(), vec![Ipv4Addr::new(198, 51, 100, 1)]);
            server.shutdown().await;
        })
    }

    #[test]
    fn fleet_spawns_on_distinct_ports() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let servers = spawn_fleet(
                vec![test_host(), test_host(), test_host()],
                SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
            )
            .await
            .unwrap();
            let mut ports: Vec<u16> = servers.iter().map(|s| s.local_addr.port()).collect();
            ports.sort_unstable();
            ports.dedup();
            assert_eq!(ports.len(), 3);
            for s in servers {
                s.shutdown().await;
            }
        })
    }
}
