//! The domain scan stamps its probes from a template into a batch and
//! reads responses in place; this suite holds it to the scan it
//! replaced — one `MessageBuilder` query and one engine send per probe,
//! an owned decode per response, a map of response ordinals — kept here
//! as [`reference_scan`].

use dnswire::{Message, MessageBuilder, RecordType};
use netsim::NetStats;
use scanner::simio::SimScanner;
use scanner::{encode_probe, enumerate, scan_domains_streaming_with_policy, ProbePolicy, TupleObs};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use worldgen::{build_world, World, WorldConfig};

/// The scan as it was: per-probe construction, per-probe sends, pumps
/// after every 4,096th probe, retransmission rounds under `policy`.
fn reference_scan(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    domains: &[String],
    seed: u64,
    policy: &ProbePolicy,
) -> (Vec<TupleObs>, u64) {
    let scanner = SimScanner::open(world, vantage);
    let mut ordinals: HashMap<(u32, u16), u8> = HashMap::new();
    let mut out = Vec::new();
    let mut retries = 0u64;
    let probe = |ri: usize, domain: &str| {
        let p = encode_probe(ri as u32, domain);
        let msg = MessageBuilder::query(p.txid, p.qname.clone(), RecordType::A).build();
        (p.port_offset, msg.encode())
    };
    for (di, domain) in domains.iter().enumerate() {
        let mut sent = 0usize;
        for (ri, &ip) in resolvers.iter().enumerate() {
            let (offset, payload) = probe(ri, domain);
            scanner.send(world, offset, ip, payload);
            sent += 1;
            if sent.is_multiple_of(4_096) {
                scanner.pump(world, 400);
                collect(
                    world,
                    &scanner,
                    resolvers,
                    domains,
                    di,
                    &mut ordinals,
                    &mut out,
                );
            }
        }
        scanner.pump(world, 4_000);
        collect(
            world,
            &scanner,
            resolvers,
            domains,
            di,
            &mut ordinals,
            &mut out,
        );
        if policy.attempts > 1 {
            let schedule = policy.schedule(seed ^ 0xD0_0A15 ^ (di as u64) << 16);
            for &wait in &schedule[..schedule.len() - 1] {
                let missing: Vec<usize> = (0..resolvers.len())
                    .filter(|&ri| !ordinals.contains_key(&(ri as u32, di as u16)))
                    .collect();
                if missing.is_empty() {
                    break;
                }
                let mut batch = 0usize;
                for &ri in &missing {
                    let (offset, payload) = probe(ri, domain);
                    scanner.send(world, offset, resolvers[ri], payload);
                    batch += 1;
                    if batch.is_multiple_of(4_096) {
                        scanner.pump(world, 400);
                        collect(
                            world,
                            &scanner,
                            resolvers,
                            domains,
                            di,
                            &mut ordinals,
                            &mut out,
                        );
                    }
                }
                retries += missing.len() as u64;
                scanner.pump(world, wait);
                collect(
                    world,
                    &scanner,
                    resolvers,
                    domains,
                    di,
                    &mut ordinals,
                    &mut out,
                );
            }
        }
    }
    (out, retries)
}

fn collect(
    world: &mut World,
    scanner: &SimScanner,
    resolvers: &[Ipv4Addr],
    domains: &[String],
    current_domain: usize,
    ordinals: &mut HashMap<(u32, u16), u8>,
    out: &mut Vec<TupleObs>,
) {
    for (port_offset, _t, dgram) in scanner.drain(world) {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            continue;
        };
        if !msg.header.response || msg.questions.is_empty() {
            continue;
        }
        // Arrival port and casing carry the same nine bits; where they
        // disagree the port was rewritten and the casing is trusted.
        let _ = port_offset;
        let high = dnswire::decode_0x20(&msg.questions[0].qname, 9);
        let id = (high << 16) | msg.header.id as u32;
        let ri = id as usize;
        if ri >= resolvers.len() {
            continue;
        }
        let qname = msg.questions[0].qname.to_ascii_lower();
        let di = if domains[current_domain] == qname {
            current_domain
        } else {
            match domains.iter().position(|d| *d == qname) {
                Some(di) => di,
                None => continue,
            }
        };
        let ordinal = ordinals.entry((id, di as u16)).or_insert(0);
        let ips = msg.answer_ips();
        let ns_only = ips.is_empty()
            && msg.header.rcode == dnswire::Rcode::NoError
            && msg.authorities.iter().any(|rr| rr.rtype == RecordType::Ns);
        out.push(TupleObs {
            resolver_idx: id,
            resolver_ip: resolvers[ri],
            domain_idx: di as u16,
            rcode: msg.header.rcode,
            ips,
            response_ordinal: *ordinal,
            src_ip: dgram.src_ip,
            ns_only,
        });
        *ordinal = ordinal.saturating_add(1);
    }
}

/// One scan of a fresh world, either way: tuples in emission order,
/// retransmissions, and everything the engine counted.
fn run(udp_loss: f64, policy: &ProbePolicy, reference: bool) -> (Vec<TupleObs>, u64, NetStats) {
    let mut world = build_world(WorldConfig {
        udp_loss,
        ..WorldConfig::tiny(11)
    });
    let vantage = world.scanner_ip;
    let fleet: Vec<Ipv4Addr> = enumerate(&mut world, vantage, 3)
        .noerror_ips()
        .into_iter()
        .step_by(3)
        .collect();
    // A slice of the catalog wide enough to hold censored, CDN, NX and
    // mail names, plus one name no resolver knows.
    let mut domains: Vec<String> = world
        .catalog
        .domains
        .iter()
        .step_by(6)
        .map(|d| d.name.clone())
        .collect();
    for extra in ["facebook.example", "never-registered.example"] {
        if !domains.iter().any(|d| d == extra) {
            domains.push(extra.into());
        }
    }
    assert!(fleet.len() > 300 && domains.len() > 20);
    let (tuples, retries) = if reference {
        reference_scan(&mut world, vantage, &fleet, &domains, 5, policy)
    } else {
        let mut tuples = Vec::new();
        let retries = scan_domains_streaming_with_policy(
            &mut world,
            vantage,
            &fleet,
            &domains,
            5,
            policy,
            &mut |t| tuples.push(t),
        );
        (tuples, retries)
    };
    (tuples, retries, world.net.stats())
}

#[test]
fn batched_scan_equals_per_probe_scan() {
    let reference = run(0.0, &ProbePolicy::single(), true);
    assert!(reference.0.len() > 5_000, "tuples came back");
    assert!(
        reference.0.iter().any(|t| t.response_ordinal > 0),
        "a double answer is in the sample"
    );
    assert_eq!(run(0.0, &ProbePolicy::single(), false), reference);
}

#[test]
fn batched_scan_equals_per_probe_scan_when_it_retransmits() {
    let policy = ProbePolicy::retrying(3);
    let reference = run(0.08, &policy, true);
    assert!(reference.1 > 100, "retransmissions were needed");
    assert_eq!(run(0.08, &policy, false), reference);
}
