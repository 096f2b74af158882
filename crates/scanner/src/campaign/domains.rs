//! The 155-domain scan (Sec. 3.3): A queries for every catalog domain
//! at every open resolver, with the 25-bit resolver-identifier encoding.

use super::sweep::{self, Campaign, Inline, Outcome, Sweep};
use crate::encode::{decode_probe, QueryTemplate};
use crate::probe::ProbePolicy;
use crate::simio::ProbeBatch;
use crate::transport::Transport;
use dnswire::{MessageView, NameView, Rcode, RecordType};
use netsim::{Datagram, Vantage};
use std::net::Ipv4Addr;

/// One correlated DNS response from the domain scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleObs {
    /// Index into the scanned resolver list.
    pub resolver_idx: u32,
    /// Address the probe was sent to.
    pub resolver_ip: Ipv4Addr,
    /// Index into the scanned domain list.
    pub domain_idx: u16,
    /// Response code.
    pub rcode: Rcode,
    /// Answer A records.
    pub ips: Vec<Ipv4Addr>,
    /// 0 for the first response to this (resolver, domain) probe, 1 for
    /// the second, … — the GFW double-answer signature lives here.
    pub response_ordinal: u8,
    /// Source address of the response datagram.
    pub src_ip: Ipv4Addr,
    /// NOERROR with no A answers but NS records in the authority
    /// section — recursion effectively denied (Sec. 4.1: 2.0%).
    pub ns_only: bool,
}

/// Stream the domain scan's correlated responses into `sink`, over any
/// [`Transport`]: a simulated [`Vantage`], or real sockets.
///
/// Queries go out domain-by-domain (the paper scans one category at a
/// time to bound per-AuthNS load); each probe encodes the resolver index
/// in TXID + source port + 0x20 casing. Under a retrying [`ProbePolicy`],
/// (resolver, domain) probes with no response after the per-domain
/// grace are retransmitted in backed-off rounds before the scan moves
/// to the next domain. Returns the number of retransmissions sent.
pub fn scan_domains_streaming_with_policy<T: Transport>(
    net: &mut T,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    domains: &[String],
    seed: u64,
    policy: &ProbePolicy,
    sink: &mut dyn FnMut(TupleObs),
) -> u64 {
    assert!(
        resolvers.len() < (1 << crate::encode::ID_BITS),
        "resolver list exceeds the 25-bit identifier space"
    );
    // One pre-encoded query per domain.
    let tmpls = domains.iter().map(|d| QueryTemplate::domain_probe(d));
    let scan = DomainScan {
        resolvers,
        domains,
        current: 0,
        tmpls: tmpls.collect(),
        seen: vec![0; resolvers.len() * domains.len()],
        sink,
    };
    // One port block for all domains.
    let mut sweep = Sweep::open(net, vantage, scan, *policy);
    for di in 0..domains.len() {
        // The per-domain grace keeps cross-domain TXID collisions from
        // happening.
        sweep.campaign.current = di;
        sweep.scan(net, 0..resolvers.len() as u32, seed, di as u64);
    }
    let (_, tally) = sweep.finish(net);
    // Every tuple handed to the sink, repeated answers included.
    super::count("responses", "domains", tally.matched + tally.duplicate);
    tally.retries
}

/// Convenience: collect all tuples into a vector (tests, small scans).
pub fn scan_domains(
    world: &mut impl Vantage,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    domains: &[String],
    seed: u64,
) -> Vec<TupleObs> {
    let mut out = Vec::new();
    let (policy, sink) = (ProbePolicy::single(), &mut |t| out.push(t));
    scan_domains_streaming_with_policy(world, vantage, resolvers, domains, seed, &policy, sink);
    out
}

/// One A question per (resolver, domain), a domain at a time; the slot
/// is the resolver's index. Probes are identity-encoded — TXID, source
/// port and casing carry the index — so a resend is the same datagram
/// and an answer names its probe whenever it arrives.
struct DomainScan<'a> {
    resolvers: &'a [Ipv4Addr],
    domains: &'a [String],
    /// The domain being asked, and its query.
    current: usize,
    tmpls: Vec<QueryTemplate>,
    /// Responses so far to each probe, `[domain × resolvers + resolver]`,
    /// saturating: the next response's ordinal, and zero exactly where a
    /// retransmission is still owed.
    seen: Vec<u8>,
    sink: &'a mut dyn FnMut(TupleObs),
}

impl Campaign for DomainScan<'_> {
    const P: sweep::Params = sweep::DOMAINS;

    fn read(&mut self, msg: &MessageView<'_>, port_offset: u16, dgram: &Datagram) -> Outcome {
        let (Some(question), Some(id)) = (msg.question(), decode_probe(msg, Some(port_offset)))
        else {
            return Outcome::Unsolicited;
        };
        let ri = id as usize;
        if ri >= self.resolvers.len() {
            return Outcome::Unsolicited; // spoofed or corrupt
        }
        // Identify the domain from the echoed question.
        let Some(di) = domain_index(self.domains, self.current, question.name) else {
            return Outcome::Unsolicited;
        };
        let seen = &mut self.seen[di * self.resolvers.len() + ri];
        let ips: Vec<Ipv4Addr> = msg.answer_ips().collect();
        let rcode = msg.rcode();
        let ns_only = ips.is_empty()
            && rcode == Rcode::NoError
            && msg.authorities().any(|rr| rr.rtype == RecordType::Ns);
        (self.sink)(TupleObs {
            resolver_idx: id,
            resolver_ip: self.resolvers[ri],
            domain_idx: di as u16,
            rcode,
            ips,
            response_ordinal: *seen,
            src_ip: dgram.src_ip,
            ns_only,
        });
        let first = *seen == 0;
        *seen = seen.saturating_add(1);
        if first {
            Outcome::Matched(self.resolvers[ri])
        } else {
            Outcome::Duplicate(self.resolvers[ri])
        }
    }
}

impl Inline for DomainScan<'_> {
    type Slot = u32;

    fn stamp(&mut self, ri: u32, _seq: u64, batch: &mut ProbeBatch) -> Ipv4Addr {
        let tmpl = &self.tmpls[self.current];
        let ip = self.resolvers[ri as usize];
        // Sent from the port that carries the index's high bits.
        tmpl.stamp(ri, batch.push((ri >> 16) as u16, ip, tmpl.probe_len()));
        ip
    }

    fn missing(&self) -> Vec<u32> {
        let seen = &self.seen[self.current * self.resolvers.len()..][..self.resolvers.len()];
        (0..)
            .zip(seen)
            .filter(|(_, n)| **n == 0)
            .map(|(ri, _)| ri)
            .collect()
    }
}

/// Find the scanned domain matching the echoed qname — compared on the
/// wire, against what its lower-cased text would be — checking the
/// in-flight domain first (the common case).
fn domain_index(domains: &[String], current: usize, qname: NameView<'_>) -> Option<usize> {
    if domains
        .get(current)
        .is_some_and(|d| qname.eq_ascii_lower(d))
    {
        return Some(current);
    }
    domains.iter().position(|d| qname.eq_ascii_lower(d))
}
