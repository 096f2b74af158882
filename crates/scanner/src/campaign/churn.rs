//! Cohort churn tracking (Sec. 2.5 / Figure 2).
//!
//! Track the resolvers discovered in the first scan by their *IP
//! addresses*: re-probe the same addresses over time and count how many
//! still provide DNS resolutions, plus the day-one measurement and the
//! dynamic-rDNS attribution of early leavers.
//!
//! The campaign streams into a [`SnapshotSink`] — one snapshot per
//! probe round (`cohort`, then one [`round`] each: `day1`, `week-1`…) —
//! and the Figure 2 numbers are derived back out of any
//! [`SnapshotSource`] by [`churn_from_source`], so a reopened on-disk
//! store yields the same report as the live run. The bundle engine
//! schedules the rounds and skips the ones its store already holds.

use super::sweep::{self, Campaign, Inline, Outcome, Sweep};
use crate::encode::{target_from_qname, EnumProbeTemplate};
use crate::probe::ProbePolicy;
use crate::simio::ProbeBatch;
use dnswire::{MessageView, Rcode};
use netsim::{Datagram, Vantage};
use scanstore::{Observation, SnapshotSink, SnapshotSource};
use serde::Serialize;
use std::collections::HashSet;
use std::io;
use std::net::Ipv4Addr;

/// The churn experiment's outputs.
#[derive(Debug, Clone, Default, Serialize)]
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

/// Probe `cohort` addresses and return those answering NOERROR, and
/// the number of retransmissions sent: under a retrying [`ProbePolicy`]
/// addresses that have not answered NOERROR are re-probed in backed-off
/// rounds.
pub fn probe_alive_with_policy<V: Vantage>(
    world: &mut V,
    vantage: Ipv4Addr,
    cohort: &[Ipv4Addr],
    seed: u64,
    policy: &ProbePolicy,
) -> (HashSet<Ipv4Addr>, u64) {
    let liveness = Liveness {
        cohort,
        tmpl: EnumProbeTemplate::new(world.plan().zone, seed),
        alive: HashSet::new(),
        responded: HashSet::new(),
    };
    let mut sweep = Sweep::open(world, vantage, liveness, *policy);
    sweep.scan(world, cohort.iter().copied(), seed, 0);
    let (Liveness { alive, .. }, tally) = sweep.finish(world);
    super::count("responses", "churn", alive.len() as u64);
    let timeouts = tally.probes.saturating_sub(alive.len() as u64);
    super::count("timeouts", "churn", timeouts);
    super::count("net_delivered", "churn", tally.delivered);
    (alive, tally.retries)
}

/// The enumeration's hex-IP question, asked of a fixed cohort. The
/// probe is the same datagram every time it is sent to a target.
struct Liveness<'a> {
    cohort: &'a [Ipv4Addr],
    tmpl: EnumProbeTemplate,
    alive: HashSet<Ipv4Addr>,
    /// Every address that answered at all, whatever the rcode.
    responded: HashSet<Ipv4Addr>,
}

impl Campaign for Liveness<'_> {
    const P: sweep::Params = sweep::CHURN;

    fn read(&mut self, msg: &MessageView<'_>, _port_offset: u16, _dgram: &Datagram) -> Outcome {
        let Some(target) = msg.question().and_then(|q| target_from_qname(q.name)) else {
            return Outcome::Unsolicited;
        };
        // Any NOERROR counts, a later one too: an address that first
        // answered with an error is re-probed.
        if msg.rcode() == Rcode::NoError {
            self.alive.insert(target);
        }
        if self.responded.insert(target) {
            Outcome::Matched(target)
        } else {
            Outcome::Duplicate(target)
        }
    }
}

impl Inline for Liveness<'_> {
    type Slot = Ipv4Addr;

    fn stamp(&mut self, ip: Ipv4Addr, _seq: u64, batch: &mut ProbeBatch) -> Ipv4Addr {
        self.tmpl
            .stamp(ip, batch.push(0, ip, self.tmpl.probe_len()));
        ip
    }

    fn missing(&self) -> Vec<Ipv4Addr> {
        let silent = |ip: &Ipv4Addr| !self.alive.contains(ip);
        self.cohort.iter().copied().filter(silent).collect()
    }
}

/// Meta keys carried by the `day1` snapshot.
const META_LEAVERS_RDNS: &str = "day1_leavers_with_rdns";
const META_LEAVERS_DYN: &str = "day1_leavers_dynamic_rdns";

/// The `day1` snapshot's meta pairs: of the cohort addresses that did
/// *not* survive to day one, how many carry rDNS records and how many
/// of those are dynamic-pool tokens (the paper's DHCP-churn evidence).
fn day1_leaver_meta(
    world: &impl Vantage,
    cohort: &[Ipv4Addr],
    alive_day1: &HashSet<Ipv4Addr>,
) -> Vec<(String, String)> {
    let (mut with_rdns, mut dynamic) = (0u64, 0u64);
    for &ip in cohort.iter().filter(|ip| !alive_day1.contains(ip)) {
        if let Some(is_dynamic) = world.rdns_dynamic(ip) {
            with_rdns += 1;
            dynamic += u64::from(is_dynamic);
        }
    }
    vec![
        (META_LEAVERS_RDNS.to_string(), with_rdns.to_string()),
        (META_LEAVERS_DYN.to_string(), dynamic.to_string()),
    ]
}

/// Commits the sorted `ips` (all answering NOERROR) as one snapshot.
pub fn commit_round(
    world: &impl Vantage,
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

/// Churn round `w` of `cohort` — round 0 is day one, round `w` week
/// `w` — at the world's current time: probes the cohort under `policy`
/// with the round's seed (derived from the campaign's `seed`) and
/// commits the addresses still answering NOERROR as the round's
/// snapshot, `w + 1` after the cohort's (`day1` carries the day-one
/// leavers' rDNS meta, `week-{w}` none). Returns the alive set and the
/// retransmissions sent.
pub fn round<V: Vantage>(
    world: &mut V,
    vantage: Ipv4Addr,
    cohort: &[Ipv4Addr],
    w: u32,
    seed: u64,
    policy: &ProbePolicy,
    sink: &mut dyn SnapshotSink,
) -> io::Result<(HashSet<Ipv4Addr>, u64)> {
    let (seed, label) = match w {
        0 => (seed ^ 0xD1, "day1".to_string()),
        w => (seed ^ (w as u64) << 8, format!("week-{w}")),
    };
    let (alive, retries) = probe_alive_with_policy(world, vantage, cohort, seed, policy);
    let meta = match w {
        0 => day1_leaver_meta(world, cohort, &alive),
        w => {
            telemetry::debug(
                "campaign.churn.round",
                "weekly re-probe committed",
                &[("week", w.into()), ("alive", alive.len().into())],
                Some(world.now().millis()),
            );
            Vec::new()
        }
    };
    let still = cohort.iter().copied().filter(|ip| alive.contains(ip));
    commit_round(world, sink, still, &label, &meta)?;
    Ok((alive, retries))
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
