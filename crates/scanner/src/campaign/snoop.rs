//! DNS cache snooping (Sec. 2.6): non-recursive NS queries for 15 TLDs,
//! every 60 minutes for 36 hours.

use crate::encode::QueryTemplate;
use crate::probe::{ProbePolicy, RttEstimator};
use crate::simio::SimScanner;
use dnswire::{MessageBuilder, MessageView, Name, RecordType};
use netsim::SimTime;
use scanstore::{Observation, SnapshotSink, SnapshotSource};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::Ipv4Addr;
use worldgen::World;

/// One observation of one TLD's cache state at one resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnoopSample {
    /// NS record present with this remaining TTL.
    Ttl(u32),
    /// NOERROR but no NS record — not cached (or an empty responder).
    NoEntry,
    /// No response.
    Silent,
}

/// Full snooping series for one resolver: `series[tld][round]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnoopResult {
    /// Number of snooped TLDs.
    pub tld_count: usize,
    /// Number of hourly rounds.
    pub rounds: usize,
    /// Flattened `[tld * rounds + round]`.
    pub samples: Vec<SnoopSample>,
}

impl SnoopResult {
    /// The sample for `(tld, round)`.
    pub fn get(&self, tld: usize, round: usize) -> SnoopSample {
        self.samples[tld * self.rounds + round]
    }

    /// Series for one TLD.
    pub fn tld_series(&self, tld: usize) -> &[SnoopSample] {
        &self.samples[tld * self.rounds..(tld + 1) * self.rounds]
    }
}

/// Run the snooping campaign against `resolvers`. Advances world time by
/// `rounds` hours. Queries are sent with RD=0.
pub fn snoop_scan(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    rounds: usize,
    seed: u64,
) -> HashMap<Ipv4Addr, SnoopResult> {
    snoop_scan_with_policy(
        world,
        vantage,
        resolvers,
        rounds,
        seed,
        &ProbePolicy::single(),
    )
    .0
}

/// [`snoop_scan`] under an explicit [`ProbePolicy`]: within each hourly
/// round, (resolver, TLD) slots still Silent after the native sweep are
/// retransmitted in backed-off rounds before the hour closes. Returns
/// the series and the number of retransmissions. A single-attempt
/// policy is byte-identical to [`snoop_scan`].
pub fn snoop_scan_with_policy(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    rounds: usize,
    seed: u64,
    policy: &ProbePolicy,
) -> (HashMap<Ipv4Addr, SnoopResult>, u64) {
    // One pre-encoded RD=0 NS query per TLD; probes differ in TXID only.
    let tld_queries: Vec<QueryTemplate> = world
        .universe
        .tlds()
        .iter()
        .map(|t| {
            let tld = Name::parse(&t.name).expect("TLD names parse");
            let query = MessageBuilder::query(0, tld, RecordType::Ns).recursion_desired(false);
            QueryTemplate::new(&query.build())
        })
        .collect();
    let tld_count = tld_queries.len();

    let mut results: HashMap<Ipv4Addr, SnoopResult> = resolvers
        .iter()
        .map(|&ip| {
            (
                ip,
                SnoopResult {
                    tld_count,
                    rounds,
                    samples: vec![SnoopSample::Silent; tld_count * rounds],
                },
            )
        })
        .collect();

    let start = world.now();
    let mut retries = 0u64;
    let mut tally = Tally::default();
    for round in 0..rounds {
        world.advance_to(SimTime(start.millis() + round as u64 * SimTime::HOUR));
        let scanner = SimScanner::open(world, vantage);
        // txid → (resolver, tld).
        let mut txid_map: HashMap<u16, (Ipv4Addr, usize)> = HashMap::new();
        let mut seq = 0u32;
        for &ip in resolvers {
            for (ti, query) in tld_queries.iter().enumerate() {
                let txid = (seed as u16)
                    .wrapping_add(seq as u16)
                    .wrapping_add((round as u16) << 3);
                txid_map.insert(txid, (ip, ti));
                scanner.send(world, (seq % 509) as u16, ip, query.probe(txid.into()));
                seq += 1;
                if seq.is_multiple_of(2_000) {
                    scanner.pump(world, 300);
                    tally.collect(world, &scanner, &txid_map, &mut results, round);
                }
                if seq.is_multiple_of(60_000) {
                    scanner.pump(world, 5_000);
                    tally.collect(world, &scanner, &txid_map, &mut results, round);
                    txid_map.clear();
                }
            }
        }
        scanner.pump(world, 5_000);
        tally.collect(world, &scanner, &txid_map, &mut results, round);

        // Retransmission rounds: resend the (resolver, TLD) slots that
        // stayed Silent, still inside this round's hour so the cache
        // state being snooped is the same. With `attempts == 1` this
        // loop never runs and the campaign is byte-identical.
        if policy.attempts > 1 {
            let est = RttEstimator::new();
            let schedule = policy.schedule(seed ^ 0x5_0090 ^ (round as u64) << 20);
            txid_map.clear();
            for retry in 0..(policy.attempts - 1) as usize {
                let mut missing: Vec<(Ipv4Addr, usize)> = Vec::new();
                for &ip in resolvers {
                    for ti in 0..tld_count {
                        if results[&ip].get(ti, round) == SnoopSample::Silent {
                            missing.push((ip, ti));
                        }
                    }
                }
                if missing.is_empty() {
                    break;
                }
                for &(ip, ti) in &missing {
                    let txid = (seed as u16)
                        .wrapping_add(seq as u16)
                        .wrapping_add((round as u16) << 3);
                    txid_map.insert(txid, (ip, ti));
                    scanner.send(
                        world,
                        (seq % 509) as u16,
                        ip,
                        tld_queries[ti].probe(txid.into()),
                    );
                    seq += 1;
                    if seq.is_multiple_of(2_000) {
                        scanner.pump(world, 300);
                        tally.collect(world, &scanner, &txid_map, &mut results, round);
                    }
                }
                retries += missing.len() as u64;
                scanner.pump(world, policy.wait_ms(retry, &schedule, &est));
                tally.collect(world, &scanner, &txid_map, &mut results, round);
                txid_map.clear();
            }
        }
        tally.probes += u64::from(seq);
        scanner.close(world);
    }
    let reg = telemetry::global();
    let campaign = [("campaign", "snoop")];
    reg.counter_with("scanner.probes_sent", &campaign)
        .add(tally.probes);
    reg.counter_with("scanner.responses", &campaign)
        .add(tally.responses);
    if retries > 0 {
        reg.counter_with("scanner.retries", &campaign).add(retries);
    }
    super::count_malformed("snoop", tally.malformed);
    (results, retries)
}

/// Meta keys carried by the snooping campaign's `sample` snapshot.
pub const SNOOP_META_ROUNDS: &str = "rounds";
/// Number of snooped TLDs (`sample` snapshot meta).
pub const SNOOP_META_TLDS: &str = "tld_count";
/// Comma-joined authoritative TTL per TLD (`sample` snapshot meta).
pub const SNOOP_META_FULL_TTLS: &str = "full_ttls";

/// Encodes one sample into an [`Observation::value`] payload: tag bits
/// in the low two bits (`1` = NoEntry, `2` = Ttl with the TTL shifted
/// above the tag). Silent samples encode to `0` and are simply not
/// written — absence from a round's snapshot *is* the Silent encoding.
pub fn encode_snoop_sample(sample: SnoopSample) -> u64 {
    match sample {
        SnoopSample::Silent => 0,
        SnoopSample::NoEntry => 1,
        SnoopSample::Ttl(t) => 2 | (u64::from(t) << 2),
    }
}

/// Decodes an [`Observation::value`] written by [`encode_snoop_sample`].
pub fn decode_snoop_sample(value: u64) -> SnoopSample {
    match value & 0b11 {
        1 => SnoopSample::NoEntry,
        2 => SnoopSample::Ttl((value >> 2) as u32),
        _ => SnoopSample::Silent,
    }
}

/// Runs [`snoop_scan`] and commits the full series to `sink`:
/// snapshot 0 (`sample`) lists every probed resolver and carries the
/// campaign geometry in meta (rounds, TLD count, authoritative TTLs);
/// snapshot `1 + round * tld_count + tld` (`snoop-r{round}-t{tld}`)
/// holds one record per resolver whose sample for that (round, TLD)
/// was not Silent, encoded in [`Observation::value`]. The campaign is
/// all-or-nothing — a later round cannot be re-run without the cache
/// interactions of the earlier ones — so its snapshots are committed
/// as one group, one checkpoint. Returns the series and the number of
/// retransmissions sent under `policy`.
pub fn snoop_scan_with_sink(
    world: &mut World,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    rounds: usize,
    seed: u64,
    policy: &ProbePolicy,
    sink: &mut dyn SnapshotSink,
) -> io::Result<(HashMap<Ipv4Addr, SnoopResult>, u64)> {
    let mut sp = telemetry::span("campaign.snoop", world.now().millis());
    sp.attr("sample", resolvers.len());
    sp.attr("rounds", rounds);
    let (results, retries) =
        snoop_scan_with_policy(world, vantage, resolvers, rounds, seed, policy);
    sp.attr("retries", retries);
    let now_ms = world.now().millis();
    let tlds = world.universe.tlds();
    let tld_count = tlds.len();
    let full_ttls: Vec<String> = tlds.iter().map(|t| t.ttl.to_string()).collect();
    let meta = vec![
        (SNOOP_META_ROUNDS.to_string(), rounds.to_string()),
        (SNOOP_META_TLDS.to_string(), tld_count.to_string()),
        (SNOOP_META_FULL_TTLS.to_string(), full_ttls.join(",")),
    ];
    sink.begin_group();
    for &ip in resolvers {
        sink.observe(Observation::at(u32::from(ip), 0, now_ms));
    }
    sink.commit("sample", now_ms, &meta)?;
    for round in 0..rounds {
        for tld in 0..tld_count {
            for &ip in resolvers {
                let sample = results[&ip].get(tld, round);
                if sample != SnoopSample::Silent {
                    let mut obs = Observation::at(u32::from(ip), 0, now_ms);
                    obs.value = encode_snoop_sample(sample);
                    sink.observe(obs);
                }
            }
            sink.commit(&format!("snoop-r{round}-t{tld}"), now_ms, &[])?;
        }
    }
    sink.end_group()?;
    sp.finish(world.now().millis());
    Ok((results, retries))
}

/// Rebuilds the per-resolver snooping series out of a committed store.
/// Inverse of [`snoop_scan_with_sink`]: resolvers absent from a round's
/// snapshot get [`SnoopSample::Silent`] for that (round, TLD).
pub fn snoop_from_source(src: &dyn SnapshotSource) -> io::Result<HashMap<Ipv4Addr, SnoopResult>> {
    let sample = src.snapshot(0)?;
    let geom = |key: &str| -> io::Result<usize> {
        sample
            .meta_value(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("snoop store missing {key} meta"),
                )
            })
    };
    let rounds = geom(SNOOP_META_ROUNDS)?;
    let tld_count = geom(SNOOP_META_TLDS)?;
    let mut results: HashMap<Ipv4Addr, SnoopResult> = sample
        .records
        .iter()
        .map(|o| {
            (
                o.ipv4(),
                SnoopResult {
                    tld_count,
                    rounds,
                    samples: vec![SnoopSample::Silent; tld_count * rounds],
                },
            )
        })
        .collect();
    src.for_each_snapshot(&mut |snap| {
        if snap.seq == 0 {
            return Ok(());
        }
        let k = (snap.seq - 1) as usize;
        let (round, tld) = (k / tld_count, k % tld_count);
        for o in &snap.records {
            if let Some(res) = results.get_mut(&o.ipv4()) {
                res.samples[tld * rounds + round] = decode_snoop_sample(o.value);
            }
        }
        Ok(())
    })?;
    Ok(results)
}

/// The authoritative TTL per TLD recorded at collection time
/// (`full_ttls` meta on the `sample` snapshot).
pub fn snoop_full_ttls_from_source(src: &dyn SnapshotSource) -> io::Result<Vec<u32>> {
    let sample = src.snapshot(0)?;
    let raw = sample.meta_value(SNOOP_META_FULL_TTLS).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "snoop store missing full_ttls meta",
        )
    })?;
    raw.split(',')
        .map(|s| {
            s.parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad full_ttls meta entry"))
        })
        .collect()
}

/// What the campaign sent and got back, for its counters.
#[derive(Default)]
struct Tally {
    probes: u64,
    /// (resolver, TLD, round) slots that got their first answer.
    responses: u64,
    malformed: u64,
}

impl Tally {
    fn collect(
        &mut self,
        world: &mut World,
        scanner: &SimScanner,
        txid_map: &HashMap<u16, (Ipv4Addr, usize)>,
        results: &mut HashMap<Ipv4Addr, SnoopResult>,
        round: usize,
    ) {
        for (_o, _t, d) in scanner.drain(world) {
            let Ok(msg) = MessageView::parse(&d.payload) else {
                self.malformed += 1;
                continue;
            };
            if !msg.is_response() {
                continue;
            }
            let Some(&(ip, tld)) = txid_map.get(&msg.id()) else {
                continue;
            };
            let sample = msg
                .answers()
                .find(|rr| rr.rtype == RecordType::Ns)
                .map(|rr| SnoopSample::Ttl(rr.ttl))
                .unwrap_or(SnoopSample::NoEntry);
            if let Some(res) = results.get_mut(&ip) {
                let idx = tld * res.rounds + round;
                if res.samples[idx] == SnoopSample::Silent {
                    res.samples[idx] = sample;
                    self.responses += 1;
                }
            }
        }
    }
}
