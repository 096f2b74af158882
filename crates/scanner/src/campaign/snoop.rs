//! DNS cache snooping (Sec. 2.6): non-recursive NS queries for 15 TLDs,
//! every 60 minutes for 36 hours.

use super::sweep::{self, Answer, Grid, Sweep};
use crate::encode::QueryTemplate;
use crate::probe::ProbePolicy;
use dnswire::{MessageBuilder, MessageView, Name, RecordType};
use netsim::{SimTime, Vantage};
use scanstore::{Observation, SnapshotSink, SnapshotSource};
use std::collections::HashMap;
use std::io;
use std::net::Ipv4Addr;

/// One observation of one TLD's cache state at one resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopSample {
    /// NS record present with this remaining TTL.
    Ttl(u32),
    /// NOERROR but no NS record — not cached (or an empty responder).
    NoEntry,
    /// No response.
    Silent,
}

/// Full snooping series for one resolver: `series[tld][round]`.
#[derive(Debug, Clone)]
pub struct SnoopResult {
    /// Number of snooped TLDs.
    pub tld_count: usize,
    /// Number of hourly rounds.
    pub rounds: usize,
    /// Flattened `[tld * rounds + round]`.
    pub samples: Vec<SnoopSample>,
}

impl SnoopResult {
    /// A series with every sample still [`SnoopSample::Silent`].
    fn silent(tld_count: usize, rounds: usize) -> SnoopResult {
        SnoopResult {
            tld_count,
            rounds,
            samples: vec![SnoopSample::Silent; tld_count * rounds],
        }
    }

    /// The sample for `(tld, round)`.
    pub fn get(&self, tld: usize, round: usize) -> SnoopSample {
        self.samples[tld * self.rounds + round]
    }

    /// Series for one TLD.
    pub fn tld_series(&self, tld: usize) -> &[SnoopSample] {
        &self.samples[tld * self.rounds..(tld + 1) * self.rounds]
    }
}

/// Is the TLD's NS record cached, and for how much longer.
impl Answer for SnoopSample {
    const P: sweep::Params = sweep::SNOOP;

    fn read(msg: &MessageView<'_>) -> SnoopSample {
        let ns = msg.answers().find(|rr| rr.rtype == RecordType::Ns);
        ns.map_or(SnoopSample::NoEntry, |rr| SnoopSample::Ttl(rr.ttl))
    }
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

/// Run the snooping campaign against `resolvers` and commit the full
/// series to `sink`. Queries are sent with RD=0, one round an hour for
/// `rounds` hours (world time advances with them). Within each round,
/// (resolver, TLD) slots still Silent after the native sweep are
/// retransmitted under `policy` before the hour closes — still inside
/// the hour, so the cache state being snooped is the same.
///
/// Snapshot 0 (`sample`) lists every probed resolver and carries the
/// campaign geometry in meta (rounds, TLD count, authoritative TTLs);
/// snapshot `1 + round * tld_count + tld` (`snoop-r{round}-t{tld}`)
/// holds one record per resolver whose sample for that (round, TLD)
/// was not Silent, encoded in [`Observation::value`]. The campaign is
/// all-or-nothing — a later round cannot be re-run without the cache
/// interactions of the earlier ones — so its snapshots are committed
/// as one group, one checkpoint. Returns the series and the number of
/// retransmissions sent.
pub fn snoop_scan<V: Vantage>(
    world: &mut V,
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
    // One pre-encoded RD=0 NS query per TLD; probes differ in TXID only.
    let tlds = world.plan().tlds;
    let full_ttls: Vec<String> = tlds.iter().map(|(_, ttl)| ttl.to_string()).collect();
    let queries: Vec<QueryTemplate> = tlds
        .iter()
        .map(|(name, _)| {
            let tld = Name::parse(name).expect("TLD names parse");
            let query = MessageBuilder::query(0, tld, RecordType::Ns).recursion_desired(false);
            QueryTemplate::new(&query.build())
        })
        .collect();
    let tld_count = queries.len();
    let mut results = vec![SnoopResult::silent(tld_count, rounds); resolvers.len()];
    let start = world.now();
    let (mut retries, mut responses) = (0u64, 0u64);
    for round in 0..rounds {
        world.advance_to(SimTime(start.millis() + round as u64 * SimTime::HOUR));
        // One port block, and one TXID sequence, per hourly round.
        let first_txid = (seed as u16).wrapping_add((round as u16) << 3);
        let grid = Grid::<SnoopSample>::new(resolvers, &queries, first_txid);
        let mut sweep = Sweep::open(world, vantage, grid, *policy);
        sweep.scan(world, 0..resolvers.len() * tld_count, seed, round as u64);
        let (grid, tally) = sweep.finish(world);
        for (slot, sample) in grid.answers.into_iter().enumerate() {
            if let Some(sample) = sample {
                let (resolver, tld) = (slot / tld_count, slot % tld_count);
                results[resolver].samples[tld * rounds + round] = sample;
            }
        }
        retries += tally.retries;
        responses += tally.matched;
    }
    // (resolver, TLD, round) slots that got their first answer.
    super::count("responses", "snoop", responses);
    let results: HashMap<Ipv4Addr, SnoopResult> = resolvers.iter().copied().zip(results).collect();
    sp.attr("retries", retries);
    let now_ms = world.now().millis();
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
/// Inverse of [`snoop_scan`]: resolvers absent from a round's
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
        .map(|o| (o.ipv4(), SnoopResult::silent(tld_count, rounds)))
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
