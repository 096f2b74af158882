//! [`ResolverHost`]: the open DNS resolver as a simulated host.

use crate::behavior::{Answer, QueryCtx, ResolverBehavior};
use crate::cachesim::{SnoopObservation, TldCacheSim};
use crate::device::DeviceProfile;
use crate::software::SoftwareProfile;
use crate::universe::DnsUniverse;
use dnswire::{MessageView, Rcode, RecordClass, RecordType, ReplyWriter};
use geodb::Rir;
use netsim::{Datagram, Host, HostCtx, SimTime, TcpRequest, TcpResponse};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A resolver's liveness switch, read and written like an `AtomicBool`:
/// one bit of a vector its whole population shares (behind a thin
/// pointer, so the handle is 16 bytes). Clones share the bit.
#[derive(Debug, Clone)]
pub struct Alive {
    bits: Arc<Vec<AtomicU64>>,
    idx: u32,
}

impl Alive {
    /// `n` switches over one bit vector, all off.
    pub fn group(n: usize) -> impl Iterator<Item = Alive> {
        let words = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0));
        let bits = Arc::new(words.collect::<Vec<_>>());
        (0..n as u32).map(move |idx| Alive {
            bits: bits.clone(),
            idx,
        })
    }

    /// A switch of its own, for a host built outside a world.
    pub fn new(alive: bool) -> Alive {
        Alive::group(1).next().expect("one switch").set(alive)
    }

    /// The switch, set to `alive`.
    pub fn set(self, alive: bool) -> Alive {
        self.store(alive, Ordering::Relaxed);
        self
    }

    /// Whether the resolver is alive.
    pub fn load(&self, order: Ordering) -> bool {
        self.bits[self.idx as usize / 64].load(order) >> (self.idx % 64) & 1 == 1
    }

    /// Switch the resolver on or off.
    pub fn store(&self, alive: bool, order: Ordering) {
        let (word, bit) = (&self.bits[self.idx as usize / 64], 1u64 << (self.idx % 64));
        if alive {
            word.fetch_or(bit, order);
        } else {
            word.fetch_and(!bit, order);
        }
    }
}

/// An open recursive DNS resolver (or something that answers like one).
pub struct ResolverHost {
    /// The shared DNS fabric.
    pub universe: Arc<DnsUniverse>,
    /// How it answers A queries.
    pub behavior: ResolverBehavior,
    /// CHAOS fingerprint profile, shared by every resolver that runs it.
    pub software: Arc<SoftwareProfile>,
    /// TCP-surface fingerprint profile.
    pub device: DeviceProfile,
    /// TLD-cache model for snooping.
    pub cache: TldCacheSim,
    /// Region (drives CDN answers for honest lookups).
    pub region: Rir,
    /// Per-resolver deterministic salt (landing-page choice, CDN edge
    /// rotation, forged-IP generation).
    pub salt: u64,
    /// Queries answered (observability for tests).
    pub queries_seen: u32,
    /// Liveness switch shared with the world's lifecycle driver: a
    /// retired (or not-yet-spawned) resolver stays bound to its IP but
    /// answers nothing.
    pub alive: Alive,
    /// When set, responses carry this source address instead of the
    /// queried one — a DNS proxy / multi-homed host (Sec. 2.2 found
    /// 630k-750k such responders per weekly scan).
    pub reply_src: Option<Ipv4Addr>,
}

impl ResolverHost {
    /// Assemble a resolver host.
    pub fn new(
        universe: Arc<DnsUniverse>,
        behavior: ResolverBehavior,
        software: impl Into<Arc<SoftwareProfile>>,
        device: DeviceProfile,
        cache: TldCacheSim,
        region: Rir,
        salt: u64,
    ) -> Self {
        ResolverHost {
            universe,
            behavior,
            software: software.into(),
            device,
            cache,
            region,
            salt,
            queries_seen: 0,
            alive: Alive::new(true),
            reply_src: None,
        }
    }

    /// Share a liveness switch with the caller (world lifecycle events).
    pub fn with_alive(mut self, alive: Alive) -> Self {
        self.alive = alive;
        self
    }

    /// Host-side processing delay added to every response.
    pub fn response_delay_ms(&self) -> u64 {
        1 + self.salt % 7
    }

    /// The wire reply carrying `answer`, if it is one that speaks.
    fn write_answer(
        &self,
        query: &MessageView<'_>,
        qname: &str,
        answer: &Answer,
    ) -> Option<Vec<u8>> {
        let rcode = match answer {
            Answer::Ips { .. } | Answer::Empty | Answer::NsOnly { .. } => Rcode::NoError,
            Answer::NxDomain => Rcode::NxDomain,
            Answer::Refused => Rcode::Refused,
            Answer::ServFail => Rcode::ServFail,
            Answer::Silent => return None,
        };
        let mut buf = Vec::with_capacity(REPLY_CAPACITY);
        let mut reply = ReplyWriter::new(query, rcode, &mut buf);
        match answer {
            Answer::Ips { ips, ttl } => {
                // A validating resolver sets AD when the zone is signed
                // and its own resolution validated — i.e. the answer is
                // the genuine one. Forged/poisoned answers never carry
                // AD (the Sec. 5 injector-race property).
                if self.universe.is_signed(qname) {
                    let legit = self.universe.all_legitimate_ips(qname);
                    if !ips.is_empty() && ips.iter().all(|i| legit.contains(i)) {
                        reply.authentic_data();
                    }
                }
                for ip in ips {
                    reply.answer_a(*ttl, *ip);
                }
            }
            Answer::NsOnly { ns_host, ttl } => reply.authority_ns(*ttl, ns_host).ok()?,
            _ => {}
        }
        Some(buf)
    }

    fn write_chaos(&self, query: &MessageView<'_>, qname: &str) -> Option<Vec<u8>> {
        let mut buf = Vec::with_capacity(REPLY_CAPACITY);
        if qname != "version.bind" && qname != "version.server" {
            ReplyWriter::new(query, Rcode::NotImp, &mut buf);
            return Some(buf);
        }
        match self.software.version_bind_answer() {
            Some(text) => ReplyWriter::new(query, Rcode::NoError, &mut buf).answer_chaos_txt(&text),
            None => {
                let rcode = match &self.software.chaos {
                    crate::software::ChaosPolicy::EmptyAnswer => Rcode::NoError,
                    crate::software::ChaosPolicy::Error(kind) => kind.rcode(),
                    // Genuine/Custom are handled by version_bind_answer.
                    _ => return None,
                };
                ReplyWriter::new(query, rcode, &mut buf);
            }
        }
        Some(buf)
    }

    /// Answer an NS query for a snooped TLD from the cache model;
    /// anything else asked for NS gets no reply.
    fn write_ns_snoop(
        &mut self,
        query: &MessageView<'_>,
        qname: &str,
        now: SimTime,
    ) -> Option<Vec<u8>> {
        let tlds = self.universe.tlds();
        let idx = tlds.iter().position(|t| t.name == qname)?;
        let obs = self
            .cache
            .observe(idx as u32, tlds[idx].ttl, now.millis() / 1000);
        let mut buf = Vec::with_capacity(REPLY_CAPACITY);
        match obs {
            SnoopObservation::Cached { remaining_ttl } => {
                ReplyWriter::new(query, Rcode::NoError, &mut buf)
                    .answer_ns(remaining_ttl, &tlds[idx].ns_host)
                    .ok()?;
            }
            // RD=0 and not cached, or a responder that answers empty:
            // nothing to return.
            SnoopObservation::Absent | SnoopObservation::Empty => {
                ReplyWriter::new(query, Rcode::NoError, &mut buf);
            }
            SnoopObservation::Silent => return None,
        }
        Some(buf)
    }
}

/// Room for a typical reply — header, a question and two A records for
/// a twenty-octet name — so writing one allocates once.
const REPLY_CAPACITY: usize = 128;

impl Host for ResolverHost {
    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, dgram: &Datagram) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let Ok(query) = MessageView::parse(&dgram.payload) else {
            return;
        };
        if query.is_response() {
            return;
        }
        let Some(question) = query.question() else {
            return;
        };
        self.queries_seen += 1;
        // Lower-cased once, on the stack, for every lookup below.
        let qname = question.name.to_ascii_lower();
        let qname = qname.as_str();

        // CHAOS-class fingerprinting queries.
        if question.qclass == RecordClass::Ch {
            if let Some(resp) = self.write_chaos(&query, qname) {
                let mut out = dgram.reply_with(resp);
                if self.behavior.rewrites_port() {
                    out.dst_port = out.dst_port.wrapping_add(1);
                }
                ctx.send_udp_delayed(out, self.response_delay_ms());
            }
            return;
        }

        // Cache-snooping NS queries for known TLDs.
        if question.qtype == RecordType::Ns {
            if let Some(resp) = self.write_ns_snoop(&query, qname, ctx.now) {
                ctx.send_udp_delayed(dgram.reply_with(resp), self.response_delay_ms());
            }
            return;
        }

        // Everything else: A-record behaviour.
        if question.qtype != RecordType::A {
            let mut resp = Vec::with_capacity(REPLY_CAPACITY);
            ReplyWriter::new(&query, Rcode::NotImp, &mut resp);
            ctx.send_udp_delayed(dgram.reply_with(resp), self.response_delay_ms());
            return;
        }

        let qctx = QueryCtx {
            category: self.universe.record(qname).map(|r| r.category),
            universe: &self.universe,
            qname,
            region: self.region,
            salt: self.salt,
            self_ip: ctx.local_ip,
        };
        let reply = self.behavior.answer(&qctx);
        if let Some(resp) = self.write_answer(&query, qname, &reply.primary) {
            let mut out = dgram.reply_with(resp);
            if self.behavior.rewrites_port() {
                out.dst_port = out.dst_port.wrapping_add(1);
            }
            if let Some(src) = self.reply_src {
                out.src_ip = src;
            }
            ctx.send_udp_delayed(out, self.response_delay_ms());
        }
        if let Some((extra_delay, answer)) = &reply.secondary {
            if let Some(resp) = self.write_answer(&query, qname, answer) {
                ctx.send_udp_delayed(
                    dgram.reply_with(resp),
                    self.response_delay_ms() + extra_delay,
                );
            }
        }
    }

    fn on_tcp(
        &mut self,
        _now: SimTime,
        _local_ip: Ipv4Addr,
        port: u16,
        req: &TcpRequest,
    ) -> Option<TcpResponse> {
        if !self.alive.load(Ordering::Relaxed) {
            return None;
        }
        self.device.probe(port, req)
    }
}

/// Test helper: compute the full wire
/// response(s) for a raw query payload, without a network. Returns
/// `(delay_ms, payload)` pairs.
pub fn offline_responses(
    host: &mut ResolverHost,
    dgram: &Datagram,
    now: SimTime,
) -> Vec<(u64, Vec<u8>)> {
    let mut outgoing: Vec<(u64, Datagram)> = Vec::new();
    {
        let mut ctx = HostCtx::new(now, dgram.dst_ip, &mut outgoing);
        host.on_udp(&mut ctx, dgram);
    }
    outgoing
        .into_iter()
        .map(|(d, g)| (d, g.payload.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachesim::CacheProfile;
    use crate::software::ChaosPolicy;
    use crate::universe::{DomainCategory, DomainKind, DomainRecord, TldInfo};
    use dnswire::{Message, MessageBuilder, Name};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn universe() -> Arc<DnsUniverse> {
        let mut u = DnsUniverse::new();
        u.add_domain(DomainRecord {
            name: "paypal.example".into(),
            category: DomainCategory::Banking,
            kind: DomainKind::Fixed(vec![ip("198.51.100.44")]),
            ttl: 300,
            is_mail_host: false,
        });
        u.set_tlds(vec![
            TldInfo {
                name: "com".into(),
                ns_host: "a.nic.com".into(),
                ttl: 3600,
            },
            TldInfo {
                name: "de".into(),
                ns_host: "a.nic.de".into(),
                ttl: 3600,
            },
        ]);
        Arc::new(u)
    }

    fn host(behavior: ResolverBehavior) -> ResolverHost {
        ResolverHost::new(
            universe(),
            behavior,
            SoftwareProfile::new("BIND", "9.8.2", ChaosPolicy::Genuine),
            DeviceProfile::closed(),
            TldCacheSim::new(CacheProfile::InUse {
                refresh_gap_s: 300,
                tld_mask: 0b11,
                phase_s: 0,
            }),
            Rir::Ripe,
            9,
        )
    }

    fn query_dgram(qname: &str, qtype: RecordType) -> Datagram {
        let q = MessageBuilder::query(0x4242, Name::parse(qname).unwrap(), qtype).build();
        Datagram::new(ip("100.0.0.1"), 40000, ip("5.5.5.5"), 53, q.encode())
    }

    fn run(host: &mut ResolverHost, d: &Datagram) -> Vec<Message> {
        offline_responses(host, d, SimTime::from_secs(10))
            .into_iter()
            .map(|(_, payload)| Message::decode(&payload).unwrap())
            .collect()
    }

    #[test]
    fn honest_a_query_round_trip() {
        let mut h = host(ResolverBehavior::Honest);
        let out = run(&mut h, &query_dgram("paypal.example", RecordType::A));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].header.id, 0x4242);
        assert_eq!(out[0].answer_ips(), vec![ip("198.51.100.44")]);
        assert_eq!(h.queries_seen, 1);
    }

    #[test]
    fn echoes_query_casing_for_0x20() {
        let mut h = host(ResolverBehavior::Honest);
        let out = run(&mut h, &query_dgram("PaYpAl.ExAmPlE", RecordType::A));
        assert_eq!(out[0].questions[0].qname.to_string(), "PaYpAl.ExAmPlE");
    }

    #[test]
    fn chaos_version_bind_genuine() {
        let mut h = host(ResolverBehavior::Honest);
        let q = MessageBuilder::chaos_query(1, Name::parse("version.bind").unwrap()).build();
        let d = Datagram::new(ip("100.0.0.1"), 40000, ip("5.5.5.5"), 53, q.encode());
        let out = run(&mut h, &d);
        assert_eq!(out[0].answers[0].rdata.txt_joined().unwrap(), "BIND 9.8.2");
    }

    #[test]
    fn chaos_error_policy() {
        let mut h = host(ResolverBehavior::Honest);
        h.software = Arc::new(SoftwareProfile::new(
            "BIND",
            "9.9.5",
            ChaosPolicy::Error(crate::software::ChaosErrorKind::Refused),
        ));
        let q = MessageBuilder::chaos_query(1, Name::parse("version.bind").unwrap()).build();
        let d = Datagram::new(ip("100.0.0.1"), 40000, ip("5.5.5.5"), 53, q.encode());
        let out = run(&mut h, &d);
        assert_eq!(out[0].header.rcode, Rcode::Refused);
        assert!(out[0].answers.is_empty());
    }

    #[test]
    fn ns_snoop_returns_cached_entry_with_ttl() {
        let mut h = host(ResolverBehavior::Honest);
        let q = MessageBuilder::query(2, Name::parse("com").unwrap(), RecordType::Ns)
            .recursion_desired(false)
            .build();
        let d = Datagram::new(ip("100.0.0.1"), 40000, ip("5.5.5.5"), 53, q.encode());
        let out = run(&mut h, &d);
        assert_eq!(out.len(), 1);
        // Entry cached at t=10s (phase 0): remaining TTL just under 3600.
        let rr = &out[0].answers[0];
        assert_eq!(rr.rtype, RecordType::Ns);
        assert!(rr.ttl <= 3600 && rr.ttl > 3000, "ttl={}", rr.ttl);
    }

    #[test]
    fn ns_query_for_unknown_tld_ignored() {
        let mut h = host(ResolverBehavior::Honest);
        let out = run(&mut h, &query_dgram("xyz", RecordType::Ns));
        assert!(out.is_empty());
    }

    #[test]
    fn refused_behaviour_sets_rcode() {
        let mut h = host(ResolverBehavior::RefusedAll);
        let out = run(&mut h, &query_dgram("paypal.example", RecordType::A));
        assert_eq!(out[0].header.rcode, Rcode::Refused);
    }

    #[test]
    fn dead_behaviour_is_silent() {
        let mut h = host(ResolverBehavior::Dead);
        let out = run(&mut h, &query_dgram("paypal.example", RecordType::A));
        assert!(out.is_empty());
    }

    #[test]
    fn self_ip_returns_local_binding() {
        let mut h = host(ResolverBehavior::SelfIp);
        let out = run(&mut h, &query_dgram("paypal.example", RecordType::A));
        assert_eq!(out[0].answer_ips(), vec![ip("5.5.5.5")]);
    }

    #[test]
    fn port_rewriter_shifts_destination() {
        let mut h = host(ResolverBehavior::PortRewriter {
            inner: Box::new(ResolverBehavior::Honest),
        });
        let d = query_dgram("paypal.example", RecordType::A);
        let out = offline_responses(&mut h, &d, SimTime::ZERO);
        assert_eq!(out.len(), 1);
        // Verify via raw datagram: port must be 40001. offline_responses
        // drops the datagram, so re-drive through a HostCtx here.
        let mut outgoing: Vec<(u64, Datagram)> = Vec::new();
        let mut ctx = HostCtx::new(SimTime::ZERO, d.dst_ip, &mut outgoing);
        h.on_udp(&mut ctx, &d);
        assert_eq!(outgoing[0].1.dst_port, 40001);
    }

    #[test]
    fn malformed_and_response_packets_ignored() {
        let mut h = host(ResolverBehavior::Honest);
        let junk = Datagram::new(ip("1.1.1.1"), 1, ip("5.5.5.5"), 53, &b"\xff\xfe"[..]);
        assert!(run(&mut h, &junk).is_empty());
        // A response packet must not trigger a reply (loop prevention).
        let q =
            MessageBuilder::query(7, Name::parse("paypal.example").unwrap(), RecordType::A).build();
        let r = MessageBuilder::response_to(&q, Rcode::NoError).build();
        let d = Datagram::new(ip("1.1.1.1"), 53, ip("5.5.5.5"), 53, r.encode());
        assert!(run(&mut h, &d).is_empty());
        assert_eq!(h.queries_seen, 0);
    }

    #[test]
    fn non_a_in_query_gets_notimp() {
        let mut h = host(ResolverBehavior::Honest);
        let out = run(&mut h, &query_dgram("paypal.example", RecordType::Mx));
        assert_eq!(out[0].header.rcode, Rcode::NotImp);
    }
}
