//! The Internet-wide enumeration scan (Sec. 2.2), which the weekly
//! sweeps, the fleet and both passes of the dual-vantage verification
//! run.

use super::sweep::{self, Campaign, Outcome, Sweep};
use crate::encode::{target_from_qname, EnumProbeTemplate};
use crate::lfsr::IpPermutation;
use crate::probe::ProbePolicy;
use dnswire::{MessageView, Rcode};
use netsim::{Datagram, Vantage};
use scanstore::{flags, Observation, ObservationSink};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// What one target IP answered.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default)]
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

/// Scan every address of `world`'s scan plan from `vantage`,
/// LFSR-permuted, in rate-limited batches.
pub fn enumerate<V: Vantage>(world: &mut V, vantage: Ipv4Addr, seed: u64) -> EnumerationResult {
    enumerate_with_sink(world, vantage, seed, &mut scanstore::NullSink)
}

/// Like [`enumerate`], but streams each first-response observation into
/// `sink` as it is collected, so a snapshot store sees the scan as it
/// happens instead of after the fact.
pub fn enumerate_with_sink<V: Vantage>(
    world: &mut V,
    vantage: Ipv4Addr,
    seed: u64,
    sink: &mut dyn ObservationSink,
) -> EnumerationResult {
    let plan = world.plan();
    let ranges = plan.ranges.to_vec();
    // Honor opt-out requests: blacklisted addresses are never probed
    // and therefore never appear in any result (Sec. 2.2).
    let (bl_ranges, bl_singles) = plan.blacklist;
    let blacklist = crate::Blacklist::new(bl_ranges.to_vec(), bl_singles.to_vec());
    let tmpl = EnumProbeTemplate::new(plan.zone, seed);
    let sweeper = Sweeper {
        result: EnumerationResult::default(),
        sink,
        now_ms: world.now().millis(),
    };
    // The ZMap-style sweep is deliberately single-probe (Sec. 2.2).
    let mut sweep = Sweep::open(world, vantage, sweeper, ProbePolicy::single());
    let mut sp = telemetry::span("campaign.enumerate", world.now().millis());

    // Walked and stamped on the stamper thread: a probe depends on
    // `(seed, target)` alone, never on the world.
    let mut skipped = 0u64;
    let targets = IpPermutation::new(&ranges, seed).filter(|&target| {
        let skip = blacklist.contains(target);
        skipped += u64::from(skip);
        !skip
    });
    sweep.scan_ahead(world, targets, |target, chunk| {
        tmpl.stamp(target, chunk.push(0, target, tmpl.probe_len()));
    });
    let (Sweeper { mut result, .. }, tally) = sweep.finish(world);
    (result.probes_sent, result.skipped_blacklisted) = (tally.probes, skipped);

    telemetry::counter("scanner.blacklist_skips").add(skipped);
    let responders = result.observations.len() as u64;
    let timeouts = result.probes_sent.saturating_sub(responders);
    super::count("timeouts", "enumerate", timeouts);
    for (mnemonic, n) in result.counts() {
        if mnemonic != "ALL" {
            let labels = [("campaign", "enumerate"), ("rcode", mnemonic)];
            telemetry::counter_with("scanner.responses", &labels).add(n);
        }
    }
    sp.attr("probes_sent", result.probes_sent);
    sp.attr("responders", responders);
    sp.attr("net_delivered", tally.delivered);
    sp.attr("blacklist_skips", result.skipped_blacklisted);
    sp.finish(world.now().millis());
    result
}

/// The hex-IP question: every target is asked for a name that spells
/// its own address, so an answer names the probe it belongs to.
struct Sweeper<'a> {
    result: EnumerationResult,
    sink: &'a mut dyn ObservationSink,
    now_ms: u64,
}

impl Campaign for Sweeper<'_> {
    const P: sweep::Params = sweep::ENUMERATE;

    fn read(&mut self, msg: &MessageView<'_>, _port_offset: u16, dgram: &Datagram) -> Outcome {
        let Some(target) = msg.question().and_then(|q| target_from_qname(q.name)) else {
            return Outcome::Unsolicited;
        };
        // First response wins (clients behave the same way).
        let Entry::Vacant(e) = self.result.observations.entry(target) else {
            return Outcome::Duplicate(target);
        };
        let obs = EnumObservation {
            rcode: msg.rcode(),
            answered_from_other_ip: dgram.src_ip != target,
            answers: msg.answer_ips().collect(),
        };
        self.sink.observe(Observation {
            flags: if obs.answered_from_other_ip {
                flags::PROXY
            } else {
                0
            },
            ..Observation::at(u32::from(target), obs.rcode.to_u8(), self.now_ms)
        });
        e.insert(obs);
        Outcome::Matched(target)
    }
}
