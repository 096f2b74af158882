//! The Internet-wide enumeration scan (Sec. 2.2) and the dual-vantage
//! verification scan.

use crate::encode::{target_from_qname, EnumProbeTemplate};
use crate::lfsr::IpPermutation;
use crate::simio::{ProbeBatch, SimScanner};
use dnswire::{MessageView, Rcode};
use scanstore::{flags, Observation, ObservationSink};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use worldgen::World;

/// What one target IP answered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnumObservation {
    /// Response code of the first answer.
    pub rcode: Rcode,
    /// The response's UDP source differed from the probed target — a
    /// DNS proxy or multi-homed host (630k–750k per week in the paper).
    pub answered_from_other_ip: bool,
    /// A-record answers (empty for error rcodes / empty answers).
    pub answers: Vec<Ipv4Addr>,
}

/// Result of one enumeration scan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnumerationResult {
    /// Keyed by the *probed target* (recovered from the hex-IP label,
    /// not the response source).
    pub observations: HashMap<Ipv4Addr, EnumObservation>,
    /// Probes actually sent (excludes blacklisted skips).
    pub probes_sent: u64,
    /// Addresses skipped because their operators opted out (Sec. 2.2).
    pub skipped_blacklisted: u64,
}

impl EnumerationResult {
    /// Responding-host counts per rcode mnemonic, plus `"ALL"`.
    pub fn counts(&self) -> HashMap<&'static str, u64> {
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for obs in self.observations.values() {
            *out.entry(obs.rcode.mnemonic()).or_insert(0) += 1;
            *out.entry("ALL").or_insert(0) += 1;
        }
        out
    }

    /// Targets that answered NOERROR — the open-resolver fleet fed to
    /// every downstream campaign.
    pub fn noerror_ips(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self
            .observations
            .iter()
            .filter(|(_, o)| o.rcode == Rcode::NoError)
            .map(|(ip, _)| *ip)
            .collect();
        v.sort_unstable();
        v
    }

    /// Count of proxy/multi-homed responders.
    pub fn mismatched_sources(&self) -> u64 {
        self.observations
            .values()
            .filter(|o| o.answered_from_other_ip)
            .count() as u64
    }
}

/// Scan every address in `world`'s allocated space from `vantage`,
/// LFSR-permuted, in rate-limited batches.
pub fn enumerate(world: &mut World, vantage: Ipv4Addr, seed: u64) -> EnumerationResult {
    enumerate_with_sink(world, vantage, seed, &mut scanstore::NullSink)
}

/// Like [`enumerate`], but streams each first-response observation into
/// `sink` as it is collected, so a snapshot store sees the scan as it
/// happens instead of after the fact.
pub fn enumerate_with_sink(
    world: &mut World,
    vantage: Ipv4Addr,
    seed: u64,
    sink: &mut dyn ObservationSink,
) -> EnumerationResult {
    let zone = world.catalog.scan_zone.clone();
    let ranges = world.scannable_ranges().to_vec();
    // Honor opt-out requests: blacklisted addresses are never probed
    // and therefore never appear in any result (Sec. 2.2).
    let blacklist = crate::Blacklist::new(
        world.blacklist_ranges.clone(),
        world.blacklist_singles.clone(),
    );
    let scanner = SimScanner::open(world, vantage);
    let perm = IpPermutation::new(&ranges, seed);
    let tmpl = EnumProbeTemplate::new(&zone, seed);
    let mut sp = telemetry::span("campaign.enumerate", world.now().millis());

    let mut result = EnumerationResult::default();
    const BATCH: usize = 4_096;
    // Probes are handed to the engine a batch at a time: one
    // `send_many` call per 4k targets lets the sharded engine evaluate
    // the probe pipeline on its workers while staying byte-identical
    // to per-probe sends. Probes are stamped straight into the batch's
    // reused buffer, so the sweep allocates per batch, not per probe.
    let mut batch = ProbeBatch::default();
    let mut delivered = 0u64;
    let mut malformed = 0u64;
    for target in perm {
        if blacklist.contains(target) {
            result.skipped_blacklisted += 1;
            continue;
        }
        tmpl.stamp(target, batch.push(0, target, tmpl.probe_len()));
        result.probes_sent += 1;
        if batch.len() == BATCH {
            scanner.send_probes(world, &mut batch);
            delivered += scanner.pump(world, 500).delivered;
            malformed += collect(world, &scanner, &mut result, sink);
        }
    }
    if !batch.is_empty() {
        scanner.send_probes(world, &mut batch);
    }
    // Grace period for stragglers.
    delivered += scanner.pump(world, 5_000).delivered;
    malformed += collect(world, &scanner, &mut result, sink);
    scanner.close(world);

    let reg = telemetry::global();
    let enumerate = [("campaign", "enumerate")];
    reg.counter_with("scanner.probes_sent", &enumerate)
        .add(result.probes_sent);
    reg.counter("scanner.blacklist_skips")
        .add(result.skipped_blacklisted);
    let responders = result.observations.len() as u64;
    reg.counter_with("scanner.timeouts", &enumerate)
        .add(result.probes_sent.saturating_sub(responders));
    // Sorted so labeled counters register in a stable order.
    let mut by_rcode: Vec<(&str, u64)> = result
        .counts()
        .into_iter()
        .filter(|&(mnemonic, _)| mnemonic != "ALL")
        .collect();
    by_rcode.sort_unstable();
    for (mnemonic, n) in by_rcode {
        reg.counter_with(
            "scanner.responses",
            &[("campaign", "enumerate"), ("rcode", mnemonic)],
        )
        .add(n);
    }
    super::count_malformed("enumerate", malformed);
    sp.attr("probes_sent", result.probes_sent);
    sp.attr("responders", responders);
    // Straight from the engine's RunReports — no re-deriving delivery
    // totals from before/after stats snapshots.
    sp.attr("net_delivered", delivered);
    sp.attr("blacklist_skips", result.skipped_blacklisted);
    sp.finish(world.now().millis());
    result
}

/// Fold what has arrived into `result`; returns how many packets the
/// wire walker rejected (corrupted packets are ignored, Sec. 5).
fn collect(
    world: &mut World,
    scanner: &SimScanner,
    result: &mut EnumerationResult,
    sink: &mut dyn ObservationSink,
) -> u64 {
    let now_ms = world.now().millis();
    let mut malformed = 0;
    for (_off, _t, dgram) in scanner.drain(world) {
        let Ok(msg) = MessageView::parse(&dgram.payload) else {
            malformed += 1;
            continue;
        };
        if !msg.is_response() {
            continue;
        }
        let Some(target) = msg.question().and_then(|q| target_from_qname(q.name)) else {
            continue;
        };
        // First response wins (clients behave the same way).
        if let std::collections::hash_map::Entry::Vacant(e) = result.observations.entry(target) {
            let obs = EnumObservation {
                rcode: msg.rcode(),
                answered_from_other_ip: dgram.src_ip != target,
                answers: msg.answer_ips().collect(),
            };
            sink.observe(Observation {
                flags: if obs.answered_from_other_ip {
                    flags::PROXY
                } else {
                    0
                },
                ..Observation::at(u32::from(target), obs.rcode.to_u8(), now_ms)
            });
            e.insert(obs);
        }
    }
    malformed
}

/// Dual-vantage verification (Sec. 2.2): scan from the secondary /8 and
/// report hosts visible there but not in `primary`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Hosts answering the verification scan but absent from the weekly
    /// scan, per rcode mnemonic.
    pub only_secondary: HashMap<String, u64>,
    /// NOERROR hosts missed by the primary scan.
    pub missed_noerror: u64,
    /// NOERROR hosts found by the primary scan.
    pub primary_noerror: u64,
}

/// Run the verification scan and diff against `primary`.
pub fn verify_scan(
    world: &mut World,
    primary: &EnumerationResult,
    seed: u64,
) -> VerificationReport {
    let vantage2 = world.scanner2_ip;
    let secondary = enumerate(world, vantage2, seed ^ 0x5EC0);
    let mut report = VerificationReport {
        primary_noerror: primary
            .observations
            .values()
            .filter(|o| o.rcode == Rcode::NoError)
            .count() as u64,
        ..Default::default()
    };
    for (ip, obs) in &secondary.observations {
        if !primary.observations.contains_key(ip) {
            *report
                .only_secondary
                .entry(obs.rcode.mnemonic().to_string())
                .or_insert(0) += 1;
            if obs.rcode == Rcode::NoError {
                report.missed_noerror += 1;
            }
        }
    }
    report
}
