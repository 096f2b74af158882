//! A stateful DNS forwarding proxy.
//!
//! Schomp et al. (IMC 2013), which the paper builds on, distinguish
//! *recursive resolvers* from *DNS proxies* — CPE devices that accept
//! queries and forward them to an upstream recursive (usually the
//! ISP's). The paper observes their fingerprint in every weekly scan:
//! "630,000 to 750,000 resolvers … respond to DNS requests that were
//! sent to different target hosts" (Sec. 2.2).
//!
//! [`ForwarderHost`] implements the real mechanism: it relays queries
//! upstream under its own transaction IDs, remembers who asked, and
//! relays answers back. A configurable `leaky` mode models broken NAT
//! devices whose *upstream* answers the client directly — producing the
//! source-mismatch signature the scanner keys on.

use crate::resolver::Alive;
use dnswire::MessageView;
use netsim::{Datagram, Host, HostCtx, SimTime, TcpRequest, TcpResponse};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;

/// Upper bound on in-flight forwarded queries; beyond it the oldest
/// entries are dropped (cheap CPE devices have tiny state tables).
const MAX_PENDING: usize = 512;

/// A forwarding DNS proxy.
pub struct ForwarderHost {
    /// The upstream recursive resolver.
    pub upstream: Ipv4Addr,
    /// When `true`, the proxy rewrites the query's source to the
    /// original client before forwarding (broken full-cone NAT): the
    /// upstream answers the client *directly*, from its own address —
    /// the multi-homed / source-mismatch signature.
    pub leaky: bool,
    /// In-flight: wire TXID → (client ip, client port).
    pending: HashMap<u16, (Ipv4Addr, u16)>,
    /// Insertion order for bounded eviction.
    order: Vec<u16>,
    /// Queries forwarded upstream.
    pub forwarded: u64,
    /// Upstream answers relayed to clients.
    pub relayed_back: u64,
    /// Liveness switch (shared with the world's lifecycle driver).
    pub alive: Alive,
}

impl ForwarderHost {
    /// A well-behaved (relaying) forwarder.
    pub fn new(upstream: Ipv4Addr) -> Self {
        ForwarderHost {
            upstream,
            leaky: false,
            pending: HashMap::new(),
            order: Vec::new(),
            forwarded: 0,
            relayed_back: 0,
            alive: Alive::new(true),
        }
    }

    /// Share a liveness switch with the caller.
    pub fn with_alive(mut self, alive: Alive) -> Self {
        self.alive = alive;
        self
    }

    /// A broken-NAT forwarder whose upstream answers clients directly.
    pub fn leaky(upstream: Ipv4Addr) -> Self {
        ForwarderHost {
            leaky: true,
            ..Self::new(upstream)
        }
    }
}

impl Host for ForwarderHost {
    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, dgram: &Datagram) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let Ok(msg) = MessageView::parse(&dgram.payload) else {
            return;
        };
        // A proxy relays the packet it was handed, byte for byte; the
        // TXID is kept stable on the wire (CPE forwarders mostly do),
        // so no rewriting is needed in either direction.
        let txid = msg.id();
        if msg.is_response() {
            // An upstream answer: relay to whoever asked.
            if let Some((client_ip, client_port)) = self.pending.remove(&txid) {
                self.order.retain(|&t| t != txid);
                self.relayed_back += 1;
                ctx.send_udp(Datagram::new(
                    ctx.local_ip,
                    53,
                    client_ip,
                    client_port,
                    dgram.payload.clone(),
                ));
            }
            return;
        }
        if msg.question().is_none() {
            return;
        }
        // A client query: forward upstream. Our state is keyed on the
        // client's TXID; colliding in-flight TXIDs from different
        // clients are rare and resolved last-writer-wins, faithfully to
        // cheap devices.
        self.forwarded += 1;
        if self.leaky {
            // Broken NAT: the upstream sees the *client* as the source
            // and will answer it directly from the upstream's address.
            ctx.send_udp(Datagram::new(
                dgram.src_ip,
                dgram.src_port,
                self.upstream,
                53,
                dgram.payload.clone(),
            ));
            return;
        }
        if self.pending.len() >= MAX_PENDING {
            if let Some(oldest) = self.order.first().copied() {
                self.pending.remove(&oldest);
                self.order.remove(0);
            }
        }
        self.pending.insert(txid, (dgram.src_ip, dgram.src_port));
        self.order.push(txid);
        ctx.send_udp(Datagram::new(
            ctx.local_ip,
            53,
            self.upstream,
            53,
            dgram.payload.clone(),
        ));
    }

    fn on_tcp(
        &mut self,
        _now: SimTime,
        _local_ip: Ipv4Addr,
        _port: u16,
        _req: &TcpRequest,
    ) -> Option<TcpResponse> {
        None
    }
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
    use netsim::{Network, NetworkConfig};
    use std::sync::Arc;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn setup(leaky: bool) -> (Network, Ipv4Addr) {
        let mut u = DnsUniverse::new();
        u.add_domain(DomainRecord {
            name: "fwd.example".into(),
            category: DomainCategory::Misc,
            kind: DomainKind::Fixed(vec![ip("198.51.100.9")]),
            ttl: 60,
            is_mail_host: false,
        });
        let universe = Arc::new(u);
        let mut net = Network::new(NetworkConfig {
            seed: 11,
            udp_loss: 0.0,
            latency_ms: (5, 30),
            tcp_loss: 0.0,
        });
        // Upstream recursive.
        let upstream_ip = ip("20.0.0.53");
        let upstream = net.add_host(Box::new(crate::ResolverHost::new(
            universe,
            ResolverBehavior::Honest,
            SoftwareProfile::new("BIND", "9.9.5", ChaosPolicy::Genuine),
            DeviceProfile::closed(),
            TldCacheSim::new(CacheProfile::EmptyAnswer),
            geodb::Rir::Arin,
            1,
        )));
        net.bind_ip(upstream_ip, upstream);
        // The CPE forwarder.
        let fwd_ip = ip("5.5.5.5");
        let fwd: Box<dyn Host> = if leaky {
            Box::new(ForwarderHost::leaky(upstream_ip))
        } else {
            Box::new(ForwarderHost::new(upstream_ip))
        };
        let fwd_id = net.add_host(fwd);
        net.bind_ip(fwd_ip, fwd_id);
        (net, fwd_ip)
    }

    #[test]
    fn forwarder_relays_answers_transparently() {
        let (mut net, fwd_ip) = setup(false);
        let client = ip("100.0.0.1");
        let sock = net.open_socket(client, 41_000);
        let q = MessageBuilder::query(0xABCD, Name::parse("fwd.example").unwrap(), RecordType::A)
            .build();
        net.send(Datagram::new(client, 41_000, fwd_ip, 53, q.encode()), None);
        net.run_until(netsim::SimTime::from_secs(5));
        let got = net.recv_all(sock).unwrap();
        assert_eq!(got.len(), 1);
        let (_, d) = &got[0];
        // The answer comes back FROM the forwarder (transparent relay).
        assert_eq!(d.src_ip, fwd_ip);
        let msg = Message::decode(&d.payload).unwrap();
        assert_eq!(msg.header.id, 0xABCD);
        assert_eq!(msg.answer_ips(), vec![ip("198.51.100.9")]);
    }

    #[test]
    fn leaky_forwarder_produces_source_mismatch() {
        let (mut net, fwd_ip) = setup(true);
        let client = ip("100.0.0.1");
        let sock = net.open_socket(client, 41_001);
        let q = MessageBuilder::query(0x7777, Name::parse("fwd.example").unwrap(), RecordType::A)
            .build();
        net.send(Datagram::new(client, 41_001, fwd_ip, 53, q.encode()), None);
        net.run_until(netsim::SimTime::from_secs(5));
        let got = net.recv_all(sock).unwrap();
        assert_eq!(got.len(), 1);
        let (_, d) = &got[0];
        // The upstream answered the client directly: source mismatch —
        // exactly the Sec. 2.2 multi-homed/proxy observation.
        assert_eq!(d.src_ip, ip("20.0.0.53"));
        assert_ne!(d.src_ip, fwd_ip);
        let msg = Message::decode(&d.payload).unwrap();
        assert_eq!(msg.header.id, 0x7777);
        assert_eq!(msg.answer_ips(), vec![ip("198.51.100.9")]);
    }

    #[test]
    fn forwarder_ignores_garbage_and_unsolicited_responses() {
        let (mut net, fwd_ip) = setup(false);
        let client = ip("100.0.0.1");
        let sock = net.open_socket(client, 41_002);
        // Garbage payload.
        net.send(
            Datagram::new(client, 41_002, fwd_ip, 53, &b"\xff\x00"[..]),
            None,
        );
        // Unsolicited response (no pending entry).
        let q = MessageBuilder::query(0x9999, Name::parse("fwd.example").unwrap(), RecordType::A)
            .build();
        let r = MessageBuilder::response_to(&q, dnswire::Rcode::NoError).build();
        net.send(Datagram::new(client, 41_002, fwd_ip, 53, r.encode()), None);
        net.run_until(netsim::SimTime::from_secs(3));
        assert!(net.recv_all(sock).unwrap().is_empty());
    }

    #[test]
    fn pending_table_is_bounded() {
        let mut fwd = ForwarderHost::new(ip("20.0.0.53"));
        let mut outgoing = Vec::new();
        for i in 0..(MAX_PENDING as u16 + 50) {
            let q =
                MessageBuilder::query(i, Name::parse("x.example").unwrap(), RecordType::A).build();
            let d = Datagram::new(ip("100.0.0.1"), 40_000, ip("5.5.5.5"), 53, q.encode());
            let mut ctx = HostCtx::new(SimTime::ZERO, ip("5.5.5.5"), &mut outgoing);
            fwd.on_udp(&mut ctx, &d);
        }
        assert!(fwd.pending.len() <= MAX_PENDING);
        assert_eq!(fwd.forwarded, MAX_PENDING as u64 + 50);
    }
}
