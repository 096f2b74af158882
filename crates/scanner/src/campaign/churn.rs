//! Cohort churn tracking (Sec. 2.5 / Figure 2).
//!
//! Track the resolvers discovered in the first scan by their *IP
//! addresses*: re-probe the same addresses over time and count how many
//! still provide DNS resolutions, plus the day-one measurement and the
//! dynamic-rDNS attribution of early leavers.
//!
//! The campaign streams into a [`SnapshotSink`] — one snapshot per
//! probe round (`cohort`, `day1`, `week-1`…) — and the Figure 2 numbers
//! are derived back out of any [`SnapshotSource`] by
//! [`churn_from_source`], so a reopened on-disk store yields the same
//! report as the live run. Already-committed rounds are skipped on
//! resume.

use crate::encode::{target_from_qname, EnumProbeTemplate};
use crate::probe::{ProbePolicy, RttEstimator};
use crate::simio::{ProbeBatch, SimScanner};
use dnswire::{MessageView, Rcode};
use netsim::SimTime;
use scanstore::{Observation, SnapshotSink, SnapshotSource};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::io;
use std::net::Ipv4Addr;
use worldgen::World;

/// The churn experiment's outputs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChurnResult {
    /// Cohort size at week 0.
    pub cohort: u64,
    /// `survivors[w]` = cohort addresses still answering NOERROR at week
    /// `w+1` (weekly re-probes).
    pub survivors: Vec<u64>,
    /// Addresses still answering after one day.
    pub day1_survivors: u64,
    /// Of the day-one leavers with rDNS records: how many carry dynamic
    /// tokens, and how many had records at all.
    pub day1_leavers_dynamic_rdns: u64,
    /// Day-one leavers with any rDNS record.
    pub day1_leavers_with_rdns: u64,
}

impl ChurnResult {
    /// Fraction of the cohort alive at week `w` (1-based).
    pub fn survival_at_week(&self, w: usize) -> f64 {
        if self.cohort == 0 || w == 0 || w > self.survivors.len() {
            return 0.0;
        }
        self.survivors[w - 1] as f64 / self.cohort as f64
    }
}

/// Probe `cohort` addresses and return those answering NOERROR.
///
/// Public so campaign drivers (the bundle engine) can schedule churn
/// rounds at their own anchors; [`track_cohort_with_sink`] composes the
/// same pieces on a relative schedule.
pub fn probe_alive(
    world: &mut World,
    vantage: Ipv4Addr,
    cohort: &[Ipv4Addr],
    seed: u64,
) -> HashSet<Ipv4Addr> {
    probe_alive_with_policy(world, vantage, cohort, seed, &ProbePolicy::single()).0
}

/// [`probe_alive`] under an explicit [`ProbePolicy`]: addresses that
/// stayed silent are re-probed in backed-off retransmission rounds.
/// Returns the alive set and the number of retransmissions sent. A
/// single-attempt policy is byte-identical to [`probe_alive`].
pub fn probe_alive_with_policy(
    world: &mut World,
    vantage: Ipv4Addr,
    cohort: &[Ipv4Addr],
    seed: u64,
    policy: &ProbePolicy,
) -> (HashSet<Ipv4Addr>, u64) {
    let zone = world.catalog.scan_zone.clone();
    // When the flight recorder is on, resolve target ASNs once up
    // front and publish the probe context so netsim drop records and
    // our attempt/response records share a campaign/attempt identity.
    let asn_of = recorder_asn_map(world, cohort);
    let scanner = SimScanner::open(world, vantage);
    let tmpl = EnumProbeTemplate::new(&zone, seed);
    const BATCH: usize = 4_096;
    let mut alive = HashSet::new();
    // Every address that answered at all (any rcode) — only tracked
    // while the recorder is on, so give-ups aren't misattributed to
    // resolvers that answered with an error rcode.
    let mut responded = HashSet::new();
    let mut sent = 0usize;
    let mut delivered = 0u64;
    let mut malformed = 0u64;
    telemetry::recorder::set_context("churn", 1);
    if asn_of.is_some() {
        // Recorder on: keep per-probe sends so attempt records stay
        // interleaved with the engine's drop records exactly as before.
        for &ip in cohort {
            if let Some(asns) = &asn_of {
                let asn = asns.get(&ip).copied().unwrap_or(0);
                telemetry::recorder::attempt(u32::from(ip), asn, world.now().millis());
            }
            scanner.send(world, 0, ip, tmpl.probe(ip));
            sent += 1;
            if sent.is_multiple_of(BATCH) {
                delivered += scanner.pump(world, 500).delivered;
                malformed += collect_alive(world, &scanner, &mut alive, &mut responded);
            }
        }
    } else {
        // Recorder off: hand probes to the engine a batch at a time
        // (byte-identical; lets the sharded engine parallelize).
        let mut batch = ProbeBatch::default();
        for &ip in cohort {
            tmpl.stamp(ip, batch.push(0, ip, tmpl.probe_len()));
            sent += 1;
            if batch.len() == BATCH {
                scanner.send_probes(world, &mut batch);
                delivered += scanner.pump(world, 500).delivered;
                malformed += collect_alive(world, &scanner, &mut alive, &mut responded);
            }
        }
        if !batch.is_empty() {
            scanner.send_probes(world, &mut batch);
        }
    }
    delivered += scanner.pump(world, 5_000).delivered;
    malformed += collect_alive(world, &scanner, &mut alive, &mut responded);

    // Retransmission rounds: the probe template is deterministic per
    // target, but resending at a later sim time re-rolls its fate.
    let mut retries = 0u64;
    if policy.attempts > 1 {
        let est = RttEstimator::new();
        let schedule = policy.schedule(seed ^ 0xC4_0412);
        for round in 0..(policy.attempts - 1) as usize {
            let missing: Vec<Ipv4Addr> = cohort
                .iter()
                .copied()
                .filter(|ip| !alive.contains(ip))
                .collect();
            if missing.is_empty() {
                break;
            }
            telemetry::recorder::set_context("churn", round as u32 + 2);
            let mut batch = 0usize;
            for &ip in &missing {
                if let Some(asns) = &asn_of {
                    let asn = asns.get(&ip).copied().unwrap_or(0);
                    telemetry::recorder::attempt(u32::from(ip), asn, world.now().millis());
                }
                scanner.send(world, 0, ip, tmpl.probe(ip));
                batch += 1;
                if batch.is_multiple_of(BATCH) {
                    delivered += scanner.pump(world, 500).delivered;
                    malformed += collect_alive(world, &scanner, &mut alive, &mut responded);
                }
            }
            sent += missing.len();
            retries += missing.len() as u64;
            let wait = policy.wait_ms(round, &schedule, &est);
            telemetry::recorder::backoff(round as u32, wait, world.now().millis());
            delivered += scanner.pump(world, wait).delivered;
            malformed += collect_alive(world, &scanner, &mut alive, &mut responded);
        }
    }
    if let Some(asns) = &asn_of {
        let now = world.now().millis();
        for &ip in cohort
            .iter()
            .filter(|ip| !alive.contains(ip) && !responded.contains(ip))
        {
            let asn = asns.get(&ip).copied().unwrap_or(0);
            telemetry::recorder::gave_up(u32::from(ip), asn, policy.attempts, now);
        }
    }
    telemetry::recorder::clear_context();

    let reg = telemetry::global();
    let churn = [("campaign", "churn")];
    reg.counter_with("scanner.probes_sent", &churn)
        .add(sent as u64);
    reg.counter_with("scanner.responses", &churn)
        .add(alive.len() as u64);
    reg.counter_with("scanner.timeouts", &churn)
        .add((sent as u64).saturating_sub(alive.len() as u64));
    // Straight from the engine's RunReports — no re-deriving delivery
    // totals from before/after stats snapshots.
    reg.counter_with("scanner.net_delivered", &churn)
        .add(delivered);
    if retries > 0 {
        reg.counter_with("scanner.retries", &churn).add(retries);
    }
    super::count_malformed("churn", malformed);
    (alive, retries)
}

/// Fold what has arrived into the alive set; returns how many packets
/// the wire walker rejected.
fn collect_alive(
    world: &mut World,
    scanner: &SimScanner,
    alive: &mut HashSet<Ipv4Addr>,
    responded: &mut HashSet<Ipv4Addr>,
) -> u64 {
    let record = telemetry::recorder::enabled();
    let mut malformed = 0;
    for (_o, t, d) in scanner.drain(world) {
        let Ok(msg) = MessageView::parse(&d.payload) else {
            malformed += 1;
            continue;
        };
        if !msg.is_response() {
            continue;
        }
        if let Some(target) = msg.question().and_then(|q| target_from_qname(q.name)) {
            let rcode = msg.rcode();
            if record {
                responded.insert(target);
                telemetry::recorder::response(u32::from(target), rcode.to_u8(), t.millis());
            }
            if rcode == Rcode::NoError {
                alive.insert(target);
            }
        }
    }
    malformed
}

/// Target → ASN map for recorder records; `None` (free) when the
/// flight recorder is off.
pub(crate) fn recorder_asn_map(
    world: &World,
    targets: &[Ipv4Addr],
) -> Option<std::collections::HashMap<Ipv4Addr, u32>> {
    telemetry::recorder::enabled().then(|| {
        let idx = world.responder_index();
        targets
            .iter()
            .filter_map(|&ip| {
                let host = world.net.host_at(ip)?;
                Some((ip, idx.get(&host)?.asn))
            })
            .collect()
    })
}

/// Meta keys carried by the `day1` snapshot.
const META_LEAVERS_RDNS: &str = "day1_leavers_with_rdns";
const META_LEAVERS_DYN: &str = "day1_leavers_dynamic_rdns";

/// The `day1` snapshot's meta pairs: of the cohort addresses that did
/// *not* survive to day one, how many carry rDNS records and how many
/// of those are dynamic-pool tokens (the paper's DHCP-churn evidence).
pub fn day1_leaver_meta(
    world: &World,
    cohort: &[Ipv4Addr],
    alive_day1: &HashSet<Ipv4Addr>,
) -> Vec<(String, String)> {
    let mut with_rdns = 0u64;
    let mut dynamic = 0u64;
    for &ip in cohort {
        if !alive_day1.contains(&ip) && world.rdns.lookup(ip).is_some() {
            with_rdns += 1;
            if world.rdns.is_dynamic(ip) {
                dynamic += 1;
            }
        }
    }
    vec![
        (META_LEAVERS_RDNS.to_string(), with_rdns.to_string()),
        (META_LEAVERS_DYN.to_string(), dynamic.to_string()),
    ]
}

/// Commits the sorted `ips` (all answering NOERROR) as one snapshot.
pub fn commit_round(
    world: &World,
    sink: &mut dyn SnapshotSink,
    ips: impl Iterator<Item = Ipv4Addr>,
    label: &str,
    meta: &[(String, String)],
) -> io::Result<u32> {
    let now_ms = world.now().millis();
    for ip in ips {
        sink.observe(Observation::at(
            u32::from(ip),
            Rcode::NoError.to_u8(),
            now_ms,
        ));
    }
    sink.commit(label, now_ms, meta)
}

/// Run the full churn experiment against `sink`: a cohort snapshot,
/// the day-one probe, then weekly probes for `weeks` weeks. Advances
/// world time as it goes. The first `committed` probe rounds are
/// skipped — they are already durable in the sink — so a killed run
/// resumes where its checkpoint left off.
pub fn track_cohort_with_sink(
    world: &mut World,
    vantage: Ipv4Addr,
    cohort: &[Ipv4Addr],
    weeks: u32,
    seed: u64,
    sink: &mut dyn SnapshotSink,
    committed: u32,
) -> io::Result<()> {
    let t0 = world.now();
    let mut sp = telemetry::span("campaign.churn", t0.millis());
    sp.attr("cohort", cohort.len());
    sp.attr("weeks", weeks);
    sp.attr("resumed_rounds", committed);
    if committed == 0 {
        commit_round(world, sink, cohort.iter().copied(), "cohort", &[])?;
    }

    // Day 1.
    world.advance_to(SimTime(t0.millis() + SimTime::DAY));
    if committed < 2 {
        let alive_day1 = probe_alive(world, vantage, cohort, seed ^ 0xD1);
        let meta = day1_leaver_meta(world, cohort, &alive_day1);
        commit_round(
            world,
            sink,
            cohort.iter().copied().filter(|ip| alive_day1.contains(ip)),
            "day1",
            &meta,
        )?;
    }

    // Weekly probes.
    for w in 1..=weeks {
        world.advance_to(SimTime(t0.millis() + w as u64 * SimTime::WEEK));
        if w + 1 < committed {
            continue;
        }
        let alive = probe_alive(world, vantage, cohort, seed ^ (w as u64) << 8);
        telemetry::debug(
            "campaign.churn.round",
            "weekly re-probe committed",
            &[("week", w.into()), ("alive", alive.len().into())],
            Some(world.now().millis()),
        );
        commit_round(
            world,
            sink,
            cohort.iter().copied().filter(|ip| alive.contains(ip)),
            &format!("week-{w}"),
            &[],
        )?;
    }
    sp.finish(world.now().millis());
    Ok(())
}

/// Derive the Figure 2 numbers back out of a committed snapshot
/// sequence (`cohort`, `day1`, `week-1`…).
pub fn churn_from_source(src: &dyn SnapshotSource) -> io::Result<ChurnResult> {
    let mut result = ChurnResult::default();
    src.for_each_snapshot(&mut |snap| {
        match snap.seq {
            0 => result.cohort = snap.records.len() as u64,
            1 => {
                result.day1_survivors = snap.records.len() as u64;
                let get = |key: &str| {
                    snap.meta_value(key)
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0)
                };
                result.day1_leavers_with_rdns = get(META_LEAVERS_RDNS);
                result.day1_leavers_dynamic_rdns = get(META_LEAVERS_DYN);
            }
            _ => result.survivors.push(snap.records.len() as u64),
        }
        Ok(())
    })?;
    Ok(result)
}

/// Run the full churn experiment in memory: day-one probe, then weekly
/// probes for `weeks` weeks. Advances world time as it goes.
pub fn track_cohort(
    world: &mut World,
    vantage: Ipv4Addr,
    cohort: &[Ipv4Addr],
    weeks: u32,
    seed: u64,
) -> ChurnResult {
    let mut mem = scanstore::MemoryStore::new();
    track_cohort_with_sink(world, vantage, cohort, weeks, seed, &mut mem, 0)
        .expect("in-memory sink cannot fail");
    churn_from_source(&mem).expect("in-memory source cannot fail")
}
