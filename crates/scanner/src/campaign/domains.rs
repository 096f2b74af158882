//! The 155-domain scan (Sec. 3.3): A queries for every catalog domain
//! at every open resolver, with the 25-bit resolver-identifier encoding.

use crate::encode::{decode_probe, QueryTemplate};
use crate::probe::{ProbePolicy, RttEstimator};
use crate::simio::{ProbeBatch, SimScanner, BASE_PORT};
use dnswire::{MessageView, NameView, Rcode, RecordType};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use worldgen::World;

/// One correlated DNS response from the domain scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Stream the domain scan's correlated responses into `sink`.
///
/// Queries go out domain-by-domain (the paper scans one category at a
/// time to bound per-AuthNS load); each probe encodes the resolver index
/// in TXID + source port + 0x20 casing.
pub fn scan_domains_streaming(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    domains: &[String],
    seed: u64,
    sink: &mut dyn FnMut(TupleObs),
) {
    scan_domains_streaming_with_policy(
        world,
        vantage,
        resolvers,
        domains,
        seed,
        &ProbePolicy::single(),
        sink,
    );
}

/// [`scan_domains_streaming`] under an explicit [`ProbePolicy`]:
/// (resolver, domain) probes with no response after the per-domain
/// grace are retransmitted in backed-off rounds before the scan moves
/// to the next domain. Returns the number of retransmissions sent. A
/// single-attempt policy is byte-identical to [`scan_domains_streaming`].
pub fn scan_domains_streaming_with_policy(
    world: &mut World,
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
    let scanner = SimScanner::open(world, vantage);
    let mut drain = Drain {
        resolvers,
        domains,
        seen: vec![0; resolvers.len() * domains.len()],
        tuples: 0,
        malformed: 0,
    };
    const BATCH: usize = 4_096;
    let mut batch = ProbeBatch::default();
    let mut retries = 0u64;

    for (di, domain) in domains.iter().enumerate() {
        // One pre-encoded query per domain; each probe is a copy with
        // the resolver index patched into TXID and casing, sent from
        // the port that carries the same high bits.
        let tmpl = QueryTemplate::domain_probe(domain);
        let stamp = |batch: &mut ProbeBatch, ri: usize| {
            let slot = batch.push((ri >> 16) as u16, resolvers[ri], tmpl.probe_len());
            tmpl.stamp(ri as u32, slot);
        };
        for ri in 0..resolvers.len() {
            stamp(&mut batch, ri);
            if batch.len() == BATCH {
                scanner.send_probes(world, &mut batch);
                scanner.pump(world, 400);
                drain.collect(world, &scanner, di, sink);
            }
        }
        if !batch.is_empty() {
            scanner.send_probes(world, &mut batch);
        }
        // Per-domain grace so cross-domain TXID collisions cannot happen.
        scanner.pump(world, 4_000);
        drain.collect(world, &scanner, di, sink);

        // Retransmission rounds: probes are identity-encoded (TXID +
        // port + casing carry the resolver index), so a resend is the
        // same datagram — only the later send time re-rolls its fate.
        // With `attempts == 1` this loop never runs.
        if policy.attempts > 1 {
            let est = RttEstimator::new();
            let schedule = policy.schedule(seed ^ 0xD0_0A15 ^ (di as u64) << 16);
            for round in 0..(policy.attempts - 1) as usize {
                let missing: Vec<usize> = (0..resolvers.len())
                    .filter(|&ri| drain.seen[di * resolvers.len() + ri] == 0)
                    .collect();
                if missing.is_empty() {
                    break;
                }
                for &ri in &missing {
                    stamp(&mut batch, ri);
                    if batch.len() == BATCH {
                        scanner.send_probes(world, &mut batch);
                        scanner.pump(world, 400);
                        drain.collect(world, &scanner, di, sink);
                    }
                }
                if !batch.is_empty() {
                    scanner.send_probes(world, &mut batch);
                }
                retries += missing.len() as u64;
                scanner.pump(world, policy.wait_ms(round, &schedule, &est));
                drain.collect(world, &scanner, di, sink);
            }
        }
    }
    let reg = telemetry::global();
    let campaign = [("campaign", "domains")];
    reg.counter_with("scanner.probes_sent", &campaign)
        .add((resolvers.len() * domains.len()) as u64 + retries);
    reg.counter_with("scanner.responses", &campaign)
        .add(drain.tuples);
    if retries > 0 {
        reg.counter_with("scanner.retries", &campaign).add(retries);
    }
    super::count_malformed("domains", drain.malformed);
    retries
}

/// Convenience: collect all tuples into a vector (tests, small scans).
pub fn scan_domains(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    domains: &[String],
    seed: u64,
) -> Vec<TupleObs> {
    let mut out = Vec::new();
    scan_domains_streaming(world, vantage, resolvers, domains, seed, &mut |t| {
        out.push(t)
    });
    out
}

/// The receive side of one scan: correlates responses with the probes
/// that caused them and numbers repeated answers.
struct Drain<'a> {
    resolvers: &'a [Ipv4Addr],
    domains: &'a [String],
    /// Responses so far to each probe, `[domain × resolvers + resolver]`,
    /// saturating: the next response's ordinal, and zero exactly where a
    /// retransmission is still owed.
    seen: Vec<u8>,
    tuples: u64,
    malformed: u64,
}

impl Drain<'_> {
    fn collect(
        &mut self,
        world: &mut World,
        scanner: &SimScanner,
        current_domain: usize,
        sink: &mut dyn FnMut(TupleObs),
    ) {
        for (port_offset, _t, dgram) in scanner.drain(world) {
            let Ok(msg) = MessageView::parse(&dgram.payload) else {
                self.malformed += 1;
                continue;
            };
            if !msg.is_response() {
                continue;
            }
            let (Some(question), Some(id)) =
                (msg.question(), decode_probe(&msg, Some(port_offset)))
            else {
                continue;
            };
            let ri = id as usize;
            if ri >= self.resolvers.len() {
                continue; // spoofed or corrupt
            }
            // Identify the domain from the echoed question.
            let Some(di) = domain_index(self.domains, current_domain, question.name) else {
                continue;
            };
            let seen = &mut self.seen[di * self.resolvers.len() + ri];
            let ips: Vec<Ipv4Addr> = msg.answer_ips().collect();
            let rcode = msg.rcode();
            let ns_only = ips.is_empty()
                && rcode == Rcode::NoError
                && msg.authorities().any(|rr| rr.rtype == RecordType::Ns);
            sink(TupleObs {
                resolver_idx: id,
                resolver_ip: self.resolvers[ri],
                domain_idx: di as u16,
                rcode,
                ips,
                response_ordinal: *seen,
                src_ip: dgram.src_ip,
                ns_only,
            });
            *seen = seen.saturating_add(1);
            self.tuples += 1;
        }
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

/// Port-block base, re-exported for response-side tooling.
pub const DOMAIN_SCAN_BASE_PORT: u16 = BASE_PORT;
