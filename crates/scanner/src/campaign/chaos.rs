//! CHAOS `version.bind` / `version.server` fingerprinting (Sec. 2.4).

use crate::encode::QueryTemplate;
use crate::probe::{ProbePolicy, RttEstimator};
use crate::simio::SimScanner;
use dnswire::{MessageBuilder, MessageView, Name, Rcode, RecordType};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use worldgen::World;

/// Outcome of the two CHAOS queries against one resolver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosObservation {
    /// Both queries errored (REFUSED / SERVFAIL).
    Errors,
    /// NOERROR but no version in either answer.
    EmptyAnswers,
    /// A version string was returned (may be an admin-chosen decoy —
    /// the classifier decides).
    Version(String),
    /// No response to either query.
    Silent,
}

/// What the campaign keeps of one answer: its rcode and, when that is
/// NOERROR, the non-empty text of its first TXT record.
struct ChaosAnswer {
    rcode: Rcode,
    version: Option<String>,
}

/// Query `version.bind` and `version.server` at every resolver.
pub fn chaos_scan(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    seed: u64,
) -> HashMap<Ipv4Addr, ChaosObservation> {
    chaos_scan_with_policy(world, vantage, resolvers, seed, &ProbePolicy::single()).0
}

/// [`chaos_scan`] under an explicit [`ProbePolicy`]: after the native
/// sweep, unanswered query slots are retransmitted in backed-off
/// rounds. A single-attempt policy is byte-identical to [`chaos_scan`].
/// Also returns the number of retransmitted query slots.
pub fn chaos_scan_with_policy(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    seed: u64,
    policy: &ProbePolicy,
) -> (HashMap<Ipv4Addr, ChaosObservation>, u64) {
    let asn_of = super::churn::recorder_asn_map(world, resolvers);
    let scanner = SimScanner::open(world, vantage);
    let mut sp = telemetry::span("campaign.chaos", world.now().millis());
    telemetry::recorder::set_context("chaos", 1);
    // txid → (resolver, which query).
    let mut results: HashMap<Ipv4Addr, [Option<ChaosAnswer>; 2]> = HashMap::new();
    let mut txid_map: HashMap<u16, (Ipv4Addr, usize)> = HashMap::new();
    let mut malformed = 0u64;

    const BATCH: usize = 2_000;
    // One pre-encoded query per name; probes differ in TXID only.
    let queries = ["version.bind", "version.server"].map(|qname| {
        let qname = Name::parse(qname).expect("a valid name");
        QueryTemplate::new(&MessageBuilder::chaos_query(0, qname).build())
    });
    let mut seq = 0u32;
    let mut pending = 0usize;
    for &ip in resolvers {
        results.insert(ip, [None, None]);
        for (which, query) in queries.iter().enumerate() {
            // Transaction IDs must be unique among in-flight queries;
            // the map is flushed before the 16-bit space wraps.
            let txid = (seed as u16).wrapping_add(seq as u16);
            txid_map.insert(txid, (ip, which));
            if let Some(asns) = &asn_of {
                let asn = asns.get(&ip).copied().unwrap_or(0);
                telemetry::recorder::attempt(u32::from(ip), asn, world.now().millis());
            }
            scanner.send(world, (seq % 509) as u16, ip, query.probe(txid.into()));
            seq += 1;
            pending += 1;
            if pending == BATCH {
                pending = 0;
                scanner.pump(world, 400);
                malformed += collect(world, &scanner, &mut txid_map, &mut results, None);
            }
            if seq.is_multiple_of(60_000) {
                // Long grace, then recycle the TXID space.
                scanner.pump(world, 5_000);
                malformed += collect(world, &scanner, &mut txid_map, &mut results, None);
                txid_map.clear();
            }
        }
    }
    scanner.pump(world, 5_000);
    malformed += collect(world, &scanner, &mut txid_map, &mut results, None);

    // Retransmission rounds: resend whatever query slots are still
    // empty, wait out the (adaptive) timeout, re-collect. The native
    // sweep above is untouched — with `attempts == 1` this loop never
    // runs and the campaign's traffic is byte-identical to before.
    let mut retries = 0u64;
    if policy.attempts > 1 {
        let mut est = RttEstimator::new();
        let schedule = policy.schedule(seed ^ 0xC4A05);
        txid_map.clear();
        for round in 0..(policy.attempts - 1) as usize {
            let mut missing: Vec<(Ipv4Addr, usize)> = Vec::new();
            for &ip in resolvers {
                for (which, slot) in results[&ip].iter().enumerate() {
                    if slot.is_none() {
                        missing.push((ip, which));
                    }
                }
            }
            if missing.is_empty() {
                break;
            }
            telemetry::recorder::set_context("chaos", round as u32 + 2);
            let sent_at = world.now().millis();
            for &(ip, which) in &missing {
                let txid = (seed as u16).wrapping_add(seq as u16);
                txid_map.insert(txid, (ip, which));
                if let Some(asns) = &asn_of {
                    let asn = asns.get(&ip).copied().unwrap_or(0);
                    telemetry::recorder::attempt(u32::from(ip), asn, world.now().millis());
                }
                scanner.send(
                    world,
                    (seq % 509) as u16,
                    ip,
                    queries[which].probe(txid.into()),
                );
                seq += 1;
                pending += 1;
                if pending == BATCH {
                    pending = 0;
                    scanner.pump(world, 400);
                    malformed += collect(
                        world,
                        &scanner,
                        &mut txid_map,
                        &mut results,
                        Some((sent_at, &mut est)),
                    );
                }
                if seq.is_multiple_of(60_000) {
                    scanner.pump(world, 5_000);
                    malformed += collect(
                        world,
                        &scanner,
                        &mut txid_map,
                        &mut results,
                        Some((sent_at, &mut est)),
                    );
                    txid_map.clear();
                }
            }
            retries += missing.len() as u64;
            let wait = policy.wait_ms(round, &schedule, &est);
            telemetry::recorder::backoff(round as u32, wait, world.now().millis());
            scanner.pump(world, wait);
            malformed += collect(
                world,
                &scanner,
                &mut txid_map,
                &mut results,
                Some((sent_at, &mut est)),
            );
            txid_map.clear();
        }
    }

    if let Some(asns) = &asn_of {
        let now = world.now().millis();
        for (&ip, slots) in &results {
            if slots.iter().all(Option::is_none) {
                let asn = asns.get(&ip).copied().unwrap_or(0);
                telemetry::recorder::gave_up(u32::from(ip), asn, policy.attempts, now);
            }
        }
    }
    telemetry::recorder::clear_context();

    let out: HashMap<Ipv4Addr, ChaosObservation> = results
        .into_iter()
        .map(|(ip, slots)| (ip, classify(slots)))
        .collect();

    let silent = out
        .values()
        .filter(|o| **o == ChaosObservation::Silent)
        .count() as u64;
    let responders = out.len() as u64 - silent;
    let reg = telemetry::global();
    let chaos = [("campaign", "chaos")];
    reg.counter_with("scanner.probes_sent", &chaos)
        .add(seq as u64);
    reg.counter_with("scanner.responses", &chaos)
        .add(responders);
    reg.counter("scanner.chaos_silent").add(silent);
    if retries > 0 {
        reg.counter_with("scanner.retries", &chaos).add(retries);
    }
    super::count_malformed("chaos", malformed);
    sp.attr("probes_sent", seq as u64);
    sp.attr("responders", responders);
    sp.attr("silent", silent);
    sp.attr("retries", retries);
    sp.finish(world.now().millis());
    (out, retries)
}

/// Like [`chaos_scan`], but also writes each responding resolver into
/// `sink` as an [`scanstore::Observation`] with the CHAOS outcome in
/// its flag bits and the version string interned into `software`.
/// Silent resolvers produce no record, matching the scan's return map.
pub fn chaos_scan_with_sink(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    seed: u64,
    policy: &ProbePolicy,
    sink: &mut dyn scanstore::ObservationSink,
) -> (HashMap<Ipv4Addr, ChaosObservation>, u64) {
    use scanstore::{flags, Observation};
    let (observations, retries) = chaos_scan_with_policy(world, vantage, resolvers, seed, policy);
    let now_ms = world.now().millis();
    for (&ip, obs) in &observations {
        let (outcome, software) = match obs {
            ChaosObservation::Silent => continue,
            ChaosObservation::Errors => (flags::CHAOS_ERRORS, 0),
            ChaosObservation::EmptyAnswers => (flags::CHAOS_EMPTY, 0),
            ChaosObservation::Version(v) => (flags::CHAOS_VERSION, sink.intern(v)),
        };
        sink.observe(Observation {
            flags: flags::with_chaos(0, outcome),
            software,
            ..Observation::at(u32::from(ip), Rcode::NoError.to_u8(), now_ms)
        });
    }
    (observations, retries)
}

/// Fold what has arrived into `results`; returns how many packets the
/// wire walker rejected.
fn collect(
    world: &mut World,
    scanner: &SimScanner,
    txid_map: &mut HashMap<u16, (Ipv4Addr, usize)>,
    results: &mut HashMap<Ipv4Addr, [Option<ChaosAnswer>; 2]>,
    mut rtt: Option<(u64, &mut RttEstimator)>,
) -> u64 {
    let mut malformed = 0;
    for (_off, t, dgram) in scanner.drain(world) {
        let Ok(msg) = MessageView::parse(&dgram.payload) else {
            malformed += 1;
            continue;
        };
        if !msg.is_response() {
            continue;
        }
        if let Some(&(ip, which)) = txid_map.get(&msg.id()) {
            if let Some(slots) = results.get_mut(&ip) {
                if slots[which].is_none() {
                    let rcode = msg.rcode();
                    if telemetry::recorder::enabled() {
                        telemetry::recorder::response(u32::from(ip), rcode.to_u8(), t.millis());
                    }
                    let version = (rcode == Rcode::NoError)
                        .then(|| msg.answers().find(|rr| rr.rtype == RecordType::Txt))
                        .flatten()
                        .and_then(|rr| rr.rdata().txt_joined())
                        .filter(|s| !s.is_empty());
                    slots[which] = Some(ChaosAnswer { rcode, version });
                    // Retransmission rounds feed the adaptive-timeout
                    // estimator with observed round trips.
                    if let Some((sent_at, est)) = &mut rtt {
                        est.observe(t.millis().saturating_sub(*sent_at) as f64);
                    }
                }
            }
        }
    }
    malformed
}

fn classify(slots: [Option<ChaosAnswer>; 2]) -> ChaosObservation {
    let mut any_response = false;
    let mut any_noerror_empty = false;
    for slot in slots.into_iter().flatten() {
        any_response = true;
        if slot.rcode == Rcode::NoError {
            match slot.version {
                Some(v) => return ChaosObservation::Version(v),
                None => any_noerror_empty = true,
            }
        }
    }
    if !any_response {
        ChaosObservation::Silent
    } else if any_noerror_empty {
        ChaosObservation::EmptyAnswers
    } else {
        ChaosObservation::Errors
    }
}
