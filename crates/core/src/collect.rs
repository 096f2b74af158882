//! Campaign collection into snapshot stores, and derivation of the
//! paper artifacts back out of them.
//!
//! Every figure/table runner in [`crate::experiments`] is split in two:
//!
//! * **collect** — drive the scan campaign, streaming observations into
//!   a [`SnapshotSink`] (one committed snapshot per scan round);
//! * **derive** — compute the report from any [`SnapshotSource`].
//!
//! With a [`MemoryStore`] sink this is the classic in-memory run; with
//! a [`CampaignStore`] the same campaign becomes durable, resumable
//! after a kill (committed rounds are skipped on the next run), and
//! re-servable without re-simulation. Both paths execute identical
//! collection and derivation code, which is what the byte-for-byte
//! equivalence tests assert.
//!
//! Resume: every roll of the simulated network — loss, jitter, fault
//! bursts — is a hash of the flow it falls on, never of how many packets
//! went before, so the rounds a resumed campaign re-simulates are the
//! rounds an uninterrupted run would have committed, byte for byte
//! (`tests/store_equivalence.rs` kills a campaign at 1 % loss and
//! compares). The same property lets a bundle's campaigns run on
//! separate worlds side by side — see [`collect_bundle`].

use crate::experiments::{Fig1Report, Fig2Report, Table3Report, Table4Report, UtilReport, WeekRow};
use crate::truth;
use classify::snoopclass::{classify_snoop, estimate_full_ttls};
use classify::{classify_version, fingerprint_device, SoftwareClass};
use dnswire::Rcode;
use geodb::{GeoDb, RdnsDb};
use netsim::{FaultPlan, SimTime};
use scanner::campaign::churn as churn_campaign;
use scanner::{churn_from_source, enumerate_with_sink, Coverage, ProbePolicy};
use scanstore::{
    flags, CampaignStore, Disk, MemoryStore, Observation, ObservationSink, SnapshotSink,
    SnapshotSource, StdDisk, StoreStats,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use worldgen::{build_world, World, WorldConfig};

/// Wraps a sink and enriches every observation with the GeoIP country
/// and the rDNS dynamic/static token before forwarding it, so those
/// attributes are queryable from the store without the world.
pub struct EnrichSink<'a> {
    inner: &'a mut dyn SnapshotSink,
    geo: Arc<GeoDb>,
    rdns: Arc<RdnsDb>,
}

impl<'a> EnrichSink<'a> {
    /// Shares the world's geo/rDNS databases for enrichment.
    pub fn new(world: &World, inner: &'a mut dyn SnapshotSink) -> EnrichSink<'a> {
        EnrichSink {
            geo: world.geo.clone(),
            rdns: world.rdns.clone(),
            inner,
        }
    }
}

impl ObservationSink for EnrichSink<'_> {
    fn observe(&mut self, mut obs: Observation) {
        let ip = obs.ipv4();
        if let Some(cc) = self.geo.country(ip) {
            obs.country = self.inner.intern(cc.as_str());
        }
        if let Some(asn) = self.geo.asn(ip) {
            obs.asn = asn;
        }
        if self.rdns.lookup(ip).is_some() {
            let token = if self.rdns.is_dynamic(ip) {
                "dyn"
            } else {
                "static"
            };
            obs.rdns = self.inner.intern(token);
        }
        self.inner.observe(obs);
    }

    fn intern(&mut self, s: &str) -> u32 {
        self.inner.intern(s)
    }
}

impl SnapshotSink for EnrichSink<'_> {
    fn commit(&mut self, label: &str, t_ms: u64, meta: &[(String, String)]) -> io::Result<u32> {
        self.inner.commit(label, t_ms, meta)
    }

    fn begin_group(&mut self) {
        self.inner.begin_group()
    }

    fn end_group(&mut self) -> io::Result<()> {
        self.inner.end_group()
    }
}

// =====================================================================
// Weekly enumeration (Fig. 1, Tables 1–2)
// =====================================================================

/// Meta keys carried by each weekly snapshot.
const META_TRUTH: &str = "truth";
const META_PROBES: &str = "probes_sent";
const META_SKIPPED: &str = "skipped_blacklisted";

/// One weekly enumeration round at the world's current time: scans,
/// enriches, and commits the `week-{week}` snapshot. Returns the
/// sweep's space coverage (probes dispatched over probes planned).
fn weekly_scan_week(
    world: &mut World,
    week: u32,
    sink: &mut dyn SnapshotSink,
) -> io::Result<Coverage> {
    let vantage = world.scanner_ip;
    let mut sp = telemetry::span("campaign.week", world.now().millis());
    sp.attr("week", week);
    let truth = truth::weekly_noerror(world, week);
    let mut enriched = EnrichSink::new(world, sink);
    let result = enumerate_with_sink(world, vantage, 0xF161 + week as u64, &mut enriched);
    let meta = vec![
        (META_TRUTH.to_string(), truth.to_string()),
        (META_PROBES.to_string(), result.probes_sent.to_string()),
        (
            META_SKIPPED.to_string(),
            result.skipped_blacklisted.to_string(),
        ),
    ];
    sink.commit(&format!("week-{week}"), world.now().millis(), &meta)?;
    sp.attr("probes_sent", result.probes_sent);
    sp.attr("responders", result.observations.len());
    sp.attr("truth_noerror", truth);
    sp.finish(world.now().millis());
    telemetry::info(
        "campaign.week",
        "weekly enumeration committed",
        &[
            ("week", week.into()),
            ("probes_sent", result.probes_sent.into()),
            ("responders", result.observations.len().into()),
        ],
        Some(world.now().millis()),
    );
    Ok(sweep_coverage(&result))
}

/// Derive the Figure 1 series (and the per-country snapshots Tables
/// 1–2 need) from a committed weekly snapshot sequence.
pub fn fig1_from_source(src: &dyn SnapshotSource) -> io::Result<Fig1Report> {
    let mut report = Fig1Report::default();
    let last = src.snapshot_count().saturating_sub(1);
    src.for_each_snapshot(&mut |snap| {
        let mut row = WeekRow {
            week: snap.seq,
            ..WeekRow::default()
        };
        let mut by_country: BTreeMap<String, u64> = BTreeMap::new();
        for o in &snap.records {
            row.all += 1;
            match o.rcode {
                0 => row.noerror += 1,
                5 => row.refused += 1,
                2 => row.servfail += 1,
                _ => {}
            }
            if o.flags & flags::PROXY != 0 {
                row.proxy_responders += 1;
            }
            if o.rcode == 0 && o.country != 0 {
                *by_country
                    .entry(src.string(o.country).to_string())
                    .or_insert(0) += 1;
            }
        }
        report.ground_truth_noerror.push(
            snap.meta_value(META_TRUTH)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        );
        if snap.seq == 0 {
            report.first_by_country = by_country.clone();
        }
        if snap.seq == last {
            report.last_by_country = by_country;
        }
        report.weeks.push(row);
        Ok(())
    })?;
    Ok(report)
}

// =====================================================================
// Churn cohort tracking (Fig. 2)
// =====================================================================

/// Derive Figure 2 from a committed churn snapshot sequence.
pub fn fig2_from_source(src: &dyn SnapshotSource) -> io::Result<Fig2Report> {
    Ok(Fig2Report {
        churn: churn_from_source(src)?,
    })
}

// =====================================================================
// CHAOS fingerprinting (Table 3) from a stored snapshot
// =====================================================================

/// Derive Table 3 from a committed CHAOS snapshot: outcome codes live
/// in the flag bits, version strings in the interned `software` field.
pub fn table3_from_source(src: &dyn SnapshotSource, seq: u32) -> io::Result<Table3Report> {
    let snap = src.snapshot(seq)?;
    let mut report = Table3Report::default();
    for o in &snap.records {
        match flags::chaos_outcome(o.flags) {
            flags::CHAOS_ERRORS => {
                report.responding += 1;
                report.errors += 1;
            }
            flags::CHAOS_EMPTY => {
                report.responding += 1;
                report.empty += 1;
            }
            flags::CHAOS_VERSION => {
                report.responding += 1;
                match classify_version(src.string(o.software)) {
                    SoftwareClass::Known { family, version } => {
                        report.genuine += 1;
                        *report
                            .versions
                            .entry(format!("{family} {version}"))
                            .or_insert(0) += 1;
                    }
                    SoftwareClass::Custom(_) => report.custom += 1,
                }
            }
            _ => {}
        }
    }
    Ok(report)
}

// =====================================================================
// Campaign bundle: collect once, derive many
// =====================================================================
//
// One pass over a single built `World` runs every required campaign at
// most once, on a fixed schedule of *absolute* anchor times. The
// anchors are chosen so that (a) no two campaigns share an anchor,
// (b) every campaign's in-flight pumping finishes long before the next
// anchor, and (c) none of the pumping crosses a 6-hour DHCP renumber
// boundary (see `World::advance_to`). Together with the flow-keyed
// network randomness this makes every campaign's observations
// *identical no matter which other campaigns run in the same bundle* —
// the property the bundle-equivalence integration test asserts
// byte-for-byte.

/// The campaign types a bundle can collect. Each runs at most once per
/// bundle; experiments declare which ones they need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CampaignKind {
    /// Weekly enumeration series (Fig. 1, Tables 1–2).
    Weekly,
    /// The shared fingerprinting fleet: one enumeration whose NOERROR
    /// responders feed CHAOS, banners, snooping, churn and domains.
    Fleet,
    /// CHAOS version.bind scan (Table 3).
    Chaos,
    /// TCP banner grab + device fingerprinting (Table 4).
    Banner,
    /// Cache snooping rounds (Sec. 2.6).
    Snoop,
    /// Cohort churn tracking (Fig. 2).
    Churn,
    /// 155-domain manipulation scan + analysis (Sections 3–4).
    Domains,
    /// Dual-vantage verification (Sec. 2.2).
    Verify,
}

impl CampaignKind {
    /// Every campaign kind, in store order.
    pub const ALL: [CampaignKind; 8] = [
        CampaignKind::Weekly,
        CampaignKind::Fleet,
        CampaignKind::Chaos,
        CampaignKind::Banner,
        CampaignKind::Snoop,
        CampaignKind::Churn,
        CampaignKind::Domains,
        CampaignKind::Verify,
    ];

    /// Stable name: the store subdirectory and telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            CampaignKind::Weekly => "weekly",
            CampaignKind::Fleet => "fleet",
            CampaignKind::Chaos => "chaos",
            CampaignKind::Banner => "banner",
            CampaignKind::Snoop => "snoop",
            CampaignKind::Churn => "churn",
            CampaignKind::Domains => "domains",
            CampaignKind::Verify => "verify",
        }
    }
}

/// Everything a bundle collection needs to know.
#[derive(Debug, Clone)]
pub struct BundleOptions {
    /// World to build (seed, scale, loss, weeks).
    pub cfg: WorldConfig,
    /// Weekly-series length (churn is additionally capped at the
    /// paper's 55 weeks).
    pub weeks: u32,
    /// Base scan seed (fleet enumeration, CHAOS, verification).
    pub seed: u64,
    /// Resolvers snooped (prefix of the fleet).
    pub snoop_sample: usize,
    /// Hourly snooping rounds.
    pub snoop_rounds: usize,
    /// Options for the Sections 3–4 analysis pipeline.
    pub analysis: crate::pipeline::AnalysisOptions,
    /// Fault plan injected into the simulated network before any
    /// campaign runs (`None` = pristine network; `FaultPlan::none()`
    /// installs nothing and is byte-identical to `None`).
    pub faults: Option<FaultPlan>,
    /// Retransmission policy shared by every retrying campaign
    /// (enumeration sweeps stay single-probe regardless — Sec. 2.2).
    pub probe: ProbePolicy,
}

/// Coverage fraction below which a collected campaign is flagged
/// degraded (`collect.campaign_degraded`). Per-campaign [`Coverage`]
/// is always tracked; it is purely observational and never alters
/// campaign traffic.
const DEGRADED_THRESHOLD: f64 = 0.95;

impl BundleOptions {
    /// Defaults matching `repro`: seed/weeks from the world config,
    /// 1,500 snooped resolvers, 36 rounds, no faults, single-probe
    /// policy.
    pub fn new(cfg: WorldConfig) -> BundleOptions {
        BundleOptions {
            seed: cfg.seed,
            weeks: cfg.weeks,
            cfg,
            snoop_sample: 1_500,
            snoop_rounds: 36,
            analysis: crate::pipeline::AnalysisOptions::default(),
            faults: None,
            probe: ProbePolicy::single(),
        }
    }
}

/// One campaign's backing store: in-memory or durable on disk. Both
/// expose the same sink/source traits, so collection and derivation
/// run one code path.
pub enum CampaignData {
    /// Zero-persistence in-memory snapshots.
    Mem(MemoryStore),
    /// Durable, delta-encoded, resumable on-disk store.
    Disk(CampaignStore),
}

impl CampaignData {
    fn sink(&mut self) -> &mut dyn SnapshotSink {
        match self {
            CampaignData::Mem(m) => m,
            CampaignData::Disk(d) => d,
        }
    }

    /// Read access to the committed snapshots.
    pub fn source(&self) -> &dyn SnapshotSource {
        match self {
            CampaignData::Mem(m) => m,
            CampaignData::Disk(d) => d,
        }
    }

    fn count(&self) -> u32 {
        self.source().snapshot_count()
    }

    fn resident_bytes(&self) -> usize {
        match self {
            CampaignData::Mem(m) => m.resident_bytes(),
            CampaignData::Disk(d) => d.resident_bytes(),
        }
    }
}

/// Publishes memory-ledger rows as `mem.<scope>.<owner>_bytes` gauges
/// and their sum as `mem.<scope>_bytes`. The rows are pure functions of
/// the inputs and go through `set_max`, so any lane may publish them.
pub(crate) fn publish_mem(scope: &str, rows: &[(&str, usize)]) {
    for (owner, bytes) in rows {
        telemetry::gauge(&format!("mem.{scope}.{owner}_bytes")).set_max(*bytes as f64);
    }
    let total: usize = rows.iter().map(|row| row.1).sum();
    telemetry::gauge(&format!("mem.{scope}_bytes")).set_max(total as f64);
}

/// The immutable result of a bundle collection: one snapshot source
/// per collected campaign. Shared (`&BundleData`) across `par_map`
/// workers during parallel experiment derivation.
pub struct BundleData {
    data: BTreeMap<CampaignKind, CampaignData>,
    coverage: BTreeMap<CampaignKind, Coverage>,
}

impl BundleData {
    /// Whether `kind` was collected into this bundle.
    pub fn has(&self, kind: CampaignKind) -> bool {
        self.data.contains_key(&kind)
    }

    /// Per-campaign coverage measured during *this* collection.
    /// Campaigns served entirely from a pre-existing store have no
    /// entry: coverage is a collection-time diagnostic of the scan
    /// just performed, deliberately not persisted to the stores.
    pub fn coverage(&self) -> &BTreeMap<CampaignKind, Coverage> {
        &self.coverage
    }

    /// Campaigns whose coverage fraction fell below `threshold`.
    pub fn degraded(&self, threshold: f64) -> Vec<CampaignKind> {
        self.coverage
            .iter()
            .filter(|(_, c)| c.fraction() < threshold)
            .map(|(&k, _)| k)
            .collect()
    }

    /// The snapshot source for `kind`; `NotFound` if the bundle was
    /// collected without it.
    pub fn source(&self, kind: CampaignKind) -> io::Result<&dyn SnapshotSource> {
        self.data.get(&kind).map(|d| d.source()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "campaign `{}` was not collected in this bundle",
                    kind.name()
                ),
            )
        })
    }

    /// Store statistics for every disk-backed campaign (empty for
    /// in-memory bundles), in store order.
    pub fn store_stats(&self) -> Vec<(&'static str, StoreStats)> {
        let mut out = Vec::new();
        for kind in CampaignKind::ALL {
            if let Some(CampaignData::Disk(store)) = self.data.get(&kind) {
                out.push((kind.name(), store.stats()));
            }
        }
        out
    }
}

/// What the generator planted, captured at world build time and
/// persisted in the fleet snapshot's meta — the closed-loop
/// validation's left-hand column.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Alive NOERROR resolvers.
    pub noerror: f64,
    /// Alive REFUSED resolvers.
    pub refused: f64,
    /// Planned TCP-exposed fraction.
    pub tcp_exposed: f64,
    /// Share of alive NOERROR resolvers leaking genuine versions.
    pub genuine_share: f64,
    /// Planted ZyNOS devices among alive NOERROR resolvers.
    pub zynos: f64,
    /// Planned in-use cache share (frequent + slow profiles).
    pub in_use_share: f64,
}

pub use crate::truth::capture_ground_truth;

/// Meta key on the fleet snapshot carrying the serialized
/// [`GroundTruth`].
const META_GROUND_TRUTH: &str = "ground_truth";
/// Meta key on the domains snapshot carrying the serialized
/// [`crate::pipeline::AnalysisReport`].
const META_ANALYSIS_REPORT: &str = "report";

/// Simulated week of the dual-vantage verification scan.
pub const VERIFY_WEEK: u32 = 30;

// Absolute campaign anchors (ms since epoch). Distinct per campaign so
// no campaign's start time depends on another campaign's pumping; all
// pumping at plausible scales finishes within minutes, far inside the
// gaps, and never crosses a 6-hour renumber boundary.
const FLEET_ANCHOR: u64 = SimTime::HOUR;
const CHAOS_ANCHOR: u64 = 3 * SimTime::HOUR;
const BANNER_ANCHOR: u64 = 4 * SimTime::HOUR;
const DOMAINS_ANCHOR: u64 = 7 * SimTime::HOUR;
const CHURN_DAY1_ANCHOR: u64 = 25 * SimTime::HOUR + SimTime::HOUR / 2;
// Snooping spans `rounds` hourly rounds from here; with the default 36
// rounds it ends at 66h, before the first churn/weekly round at week 1.
const SNOOP_ANCHOR: u64 = 30 * SimTime::HOUR;
const CHURN_WEEK_OFFSET: u64 = 2 * SimTime::HOUR;
const VERIFY_PRIMARY_OFFSET: u64 = 4 * SimTime::HOUR;
const VERIFY_SECONDARY_OFFSET: u64 = 5 * SimTime::HOUR;

/// Churn probe seed base (kept from the pre-bundle campaign).
const CHURN_SEED: u64 = 0xF162;
/// Snoop seed (kept from the pre-bundle utilization experiment).
const SNOOP_SEED: u64 = 0x5009;

#[derive(Debug, Clone, Copy)]
enum Task {
    Week(u32),
    Fleet,
    Cohort,
    Chaos,
    Banner,
    Domains,
    Snoop,
    /// Round 0 is day one; round `w` is week `w`.
    ChurnRound(u32),
    VerifyPrimary,
    VerifySecondary,
}

impl Task {
    /// What the task commits: the campaign whose store it writes, and
    /// the seq of its snapshot there. Snoop's rounds follow its
    /// `sample` snapshot in one group, so the group stands or falls
    /// with snapshot 0.
    fn commits(self) -> (CampaignKind, u32) {
        use CampaignKind::*;
        match self {
            Task::Week(w) => (Weekly, w),
            Task::Fleet => (Fleet, 0),
            Task::Cohort => (Churn, 0),
            Task::ChurnRound(w) => (Churn, w + 1),
            Task::Chaos => (Chaos, 0),
            Task::Banner => (Banner, 0),
            Task::Domains => (Domains, 0),
            Task::Snoop => (Snoop, 0),
            Task::VerifyPrimary => (Verify, 0),
            Task::VerifySecondary => (Verify, 1),
        }
    }

    /// The campaign a task executes under.
    fn campaign(self) -> CampaignKind {
        self.commits().0
    }

    /// Whether the stores already held the task's snapshot, by the
    /// snapshot count of each when the collection began.
    fn done(self, committed: &BTreeMap<CampaignKind, u32>) -> bool {
        let (kind, seq) = self.commits();
        committed[&kind] > seq
    }
}

/// What a lane reports about a task it executed, for the
/// `collect.progress` heartbeat: the campaign and the lane world's
/// clock.
struct Beat {
    campaign: CampaignKind,
    sim_ms: u64,
}

/// One `collect.progress` heartbeat after each executed bundle task:
/// a deterministic trace line (campaign, done/total, sim time —
/// `repro tail --file` aggregates these) plus, at info verbosity, a
/// progress line with a wall-clock ETA on stderr. The ETA never enters
/// the trace: wall time stays in the stderr side channel so traces
/// remain byte-identical across runs (DESIGN §9).
fn heartbeat_progress(beat: &Beat, done: usize, total: usize, started: std::time::Instant) {
    let to_stderr = telemetry::Level::Info <= telemetry::verbosity();
    if !to_stderr && !telemetry::trace_enabled() {
        return;
    }
    let permille = (done * 1000).checked_div(total).unwrap_or(1000) as u64;
    telemetry::heartbeat(
        "collect.progress",
        beat.sim_ms,
        &[
            ("campaign", beat.campaign.name().into()),
            ("done", done.into()),
            ("total", total.into()),
            ("permille", permille.into()),
        ],
    );
    if to_stderr {
        let eta_s = if done == 0 {
            0.0
        } else {
            started.elapsed().as_secs_f64() / done as f64 * (total - done) as f64
        };
        eprintln!(
            "[info ] collect.progress: {done}/{total} tasks ({}%) campaign={} eta~{:.0}s",
            permille / 10,
            beat.campaign.name(),
            eta_s,
        );
    }
}

fn mark_ran(ran: &mut BTreeSet<CampaignKind>, kind: CampaignKind) {
    if ran.insert(kind) {
        telemetry::counter_with("collect.campaign_runs", &[("campaign", kind.name())]).inc();
    }
}

/// The per-campaign sink map threaded through every bundle task.
type BundleSinks = BTreeMap<CampaignKind, CampaignData>;

/// A lane's world and the stores of the campaigns it runs.
struct Lane<'a> {
    world: World,
    data: BundleSinks,
    store: StoreAt<'a>,
}

/// A bundle store's root, and the disk it is read and written through.
pub type StoreAt<'a> = Option<(&'a Arc<dyn Disk>, &'a Path)>;

impl Lane<'_> {
    /// Run one task of campaign `kind` against its store, with graceful
    /// degradation: when the task fails against a disk-backed store, the
    /// (possibly mid-write) store handle is discarded, the store is
    /// reopened from its last durable checkpoint — `CampaignStore::open`
    /// drops any uncommitted tail — and the task is retried once before
    /// the error propagates. Memory bundles have no checkpoint to fall
    /// back to and fail immediately.
    fn retrying<T>(
        &mut self,
        kind: CampaignKind,
        f: &mut dyn FnMut(&mut World, &mut dyn SnapshotSink) -> io::Result<T>,
    ) -> io::Result<T> {
        let store = self.data.get_mut(&kind).expect("a lane holds its stores");
        let err = match f(&mut self.world, store.sink()) {
            Ok(v) => return Ok(v),
            Err(err) => err,
        };
        let Some((disk, dir)) = self.store else {
            return Err(err);
        };
        telemetry::counter_with("collect.campaign_retried", &[("campaign", kind.name())]).inc();
        telemetry::warn(
            "collect.retry",
            "campaign failed; reopening store from last checkpoint and retrying once",
            &[
                ("campaign", kind.name().into()),
                ("error", err.to_string().into()),
            ],
            Some(self.world.now().millis()),
        );
        let reopened = CampaignStore::open_on(Arc::clone(disk), dir.join(kind.name()))?;
        *store = CampaignData::Disk(reopened);
        f(&mut self.world, store.sink())
    }
}

/// Address-space coverage of one enumeration sweep.
fn sweep_coverage(result: &scanner::EnumerationResult) -> Coverage {
    Coverage::space(
        result.probes_sent + result.skipped_blacklisted,
        result.probes_sent,
    )
}

/// The fleet, read back from the fleet snapshot: NOERROR responders in
/// ascending address order — the list `EnumerationResult::noerror_ips`
/// makes of the sweep that committed it.
fn fleet_from_source(src: &dyn SnapshotSource) -> io::Result<Vec<Ipv4Addr>> {
    Ok(src
        .snapshot(0)?
        .records
        .iter()
        .filter(|o| o.rcode == Rcode::NoError.to_u8())
        .map(|o| o.ipv4())
        .collect())
}

/// The churn cohort, read back from the churn store's snapshot 0.
fn cohort_from_source(src: &dyn SnapshotSource) -> io::Result<Vec<Ipv4Addr>> {
    Ok(src.snapshot(0)?.records.iter().map(|o| o.ipv4()).collect())
}

/// Collect every campaign in `kinds` (plus the shared fleet when any
/// dependent campaign asks for it) in one pass over one schedule, each
/// campaign at most once. With `store_dir` each campaign persists under
/// its own subdirectory and completed campaigns are served from disk
/// without re-simulation; without it everything streams into memory.
///
/// The schedule runs on *lanes* (DESIGN §3, "Lanes"): a bundle that has
/// to run `Domains` and anything besides `Fleet` runs `Fleet → Domains`
/// on one lane and every other campaign on a second; any other bundle
/// is one lane. A lane is a thread with a world of its own, so the
/// result — reports, stores, trace, recorder and profile streams — is
/// the sequential one, byte for byte, whatever the scheduler does.
///
/// Telemetry proves the once-ness: `collect.lanes` and
/// `collect.world_builds` count lanes and the worlds they built (one
/// each), and `collect.campaign_runs{campaign=…}` counts actual campaign
/// executions (resumes served from a store do not count).
pub fn collect_bundle(
    opts: &BundleOptions,
    kinds: &[CampaignKind],
    store_dir: Option<&Path>,
) -> io::Result<BundleData> {
    let disk: Arc<dyn Disk> = Arc::new(StdDisk);
    collect_bundle_on(opts, kinds, store_dir.map(|dir| (&disk, dir)))
}

/// [`collect_bundle`] with the store read and written through a disk
/// of the caller's.
pub fn collect_bundle_on(
    opts: &BundleOptions,
    kinds: &[CampaignKind],
    store: StoreAt<'_>,
) -> io::Result<BundleData> {
    use CampaignKind::*;
    let mut want: BTreeSet<CampaignKind> = kinds.iter().copied().collect();
    if [Chaos, Banner, Snoop, Churn, Domains]
        .iter()
        .any(|k| want.contains(k))
    {
        want.insert(Fleet);
    }
    let mut data: BTreeMap<CampaignKind, CampaignData> = BTreeMap::new();
    for &kind in &want {
        data.insert(
            kind,
            match store {
                Some((disk, dir)) => CampaignData::Disk(CampaignStore::open_on(
                    Arc::clone(disk),
                    dir.join(kind.name()),
                )?),
                None => CampaignData::Mem(MemoryStore::new()),
            },
        );
    }
    if want.is_empty() {
        return Ok(BundleData {
            data,
            coverage: BTreeMap::new(),
        });
    }

    let committed: BTreeMap<CampaignKind, u32> =
        want.iter().map(|&k| (k, data[&k].count())).collect();

    // A partially committed snoop store cannot be resumed: skipping
    // committed rounds would skip the cache interactions that shaped
    // them, changing every later round (single-then-silent resolvers).
    if let Some(&c) = committed.get(&Snoop) {
        if c > 0 {
            let sample = data[&Snoop].source().snapshot(0)?;
            let expected = sample
                .meta_value(scanner::campaign::snoop::SNOOP_META_ROUNDS)
                .zip(sample.meta_value(scanner::campaign::snoop::SNOOP_META_TLDS))
                .and_then(|(r, t)| Some(1 + r.parse::<u32>().ok()? * t.parse::<u32>().ok()?));
            if expected != Some(c) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "snoop store is incomplete (all-or-nothing campaign); delete it and re-run",
                ));
            }
        }
    }

    // The absolute schedule; stable sort keeps same-anchor push order
    // (fleet before churn's cohort commit, which sends no packets).
    let mut tasks: Vec<(u64, Task)> = Vec::new();
    if want.contains(&Weekly) {
        for w in 0..opts.weeks {
            tasks.push((w as u64 * SimTime::WEEK, Task::Week(w)));
        }
    }
    if want.contains(&Fleet) {
        tasks.push((FLEET_ANCHOR, Task::Fleet));
    }
    if want.contains(&Chaos) {
        tasks.push((CHAOS_ANCHOR, Task::Chaos));
    }
    if want.contains(&Banner) {
        tasks.push((BANNER_ANCHOR, Task::Banner));
    }
    if want.contains(&Churn) {
        tasks.push((FLEET_ANCHOR, Task::Cohort));
        tasks.push((CHURN_DAY1_ANCHOR, Task::ChurnRound(0)));
        // Capped at the paper's 55 weeks.
        for w in 1..=opts.weeks.min(55) {
            let anchor = w as u64 * SimTime::WEEK + CHURN_WEEK_OFFSET;
            tasks.push((anchor, Task::ChurnRound(w)));
        }
    }
    if want.contains(&Domains) {
        tasks.push((DOMAINS_ANCHOR, Task::Domains));
    }
    if want.contains(&Snoop) {
        tasks.push((SNOOP_ANCHOR, Task::Snoop));
    }
    if want.contains(&Verify) {
        let base = VERIFY_WEEK as u64 * SimTime::WEEK;
        tasks.push((base + VERIFY_PRIMARY_OFFSET, Task::VerifyPrimary));
        tasks.push((base + VERIFY_SECONDARY_OFFSET, Task::VerifySecondary));
    }
    tasks.sort_by_key(|&(anchor, _)| anchor);

    let running: BTreeSet<CampaignKind> = tasks
        .iter()
        .filter(|(_, task)| !task.done(&committed))
        .map(|(_, task)| task.campaign())
        .collect();
    if running.is_empty() {
        return Ok(BundleData {
            data,
            coverage: BTreeMap::new(),
        }); // fully served from the store
    }
    let two_lanes = running.contains(&Domains)
        && [Weekly, Chaos, Banner, Snoop, Churn, Verify]
            .iter()
            .any(|kind| running.contains(kind));
    let lane_of = |kind: CampaignKind| usize::from(two_lanes && !matches!(kind, Fleet | Domains));

    let sched = Schedule {
        opts,
        store,
        tasks: tasks
            .into_iter()
            .map(|(anchor, task)| (anchor, task, lane_of(task.campaign())))
            .collect(),
        committed,
        stop: AtomicBool::new(false),
        telemetry: telemetry::current(),
    };
    let mut sinks: Vec<BundleSinks> = (0..=usize::from(two_lanes))
        .map(|_| BTreeMap::new())
        .collect();
    for (kind, store) in data {
        sinks[lane_of(kind)].insert(kind, store);
    }
    telemetry::counter("collect.lanes").add(sinks.len() as u64);
    let (fleet_tx, fleet_rx) = mpsc::channel();
    let handoffs = [Handoff::Give(fleet_tx), Handoff::Take(fleet_rx)];
    let (flush_tx, flush_rx) = mpsc::channel::<Flush>();

    let mut bundle_span = None;
    let ends = std::thread::scope(|scope| {
        let lanes: Vec<_> = sinks
            .into_iter()
            .zip(handoffs)
            .enumerate()
            .map(|(lane, (data, handoff))| {
                let (sched, flush_tx) = (&sched, flush_tx.clone());
                scope.spawn(move || {
                    let end = run_lane(sched, lane, data, handoff, &flush_tx);
                    if end.is_err() {
                        sched.stop.store(true, Ordering::Relaxed);
                    }
                    end
                })
            })
            .collect();
        drop(flush_tx);

        // The replayer: whatever the lanes finish first, the ordered
        // side channels receive slot after slot in schedule order, each
        // as soon as every earlier slot has been written.
        let total_tasks = sched.tasks.len();
        let collect_started = std::time::Instant::now();
        let mut pending = BTreeMap::new();
        let (mut next, mut clock_ms, mut tasks_done) = (0usize, 0u64, 0usize);
        for flush in flush_rx {
            pending.insert(flush.slot, flush);
            while let Some(flush) = pending.remove(&next) {
                flush.telemetry.replay(clock_ms);
                clock_ms = flush.clock_ms;
                if next == 0 {
                    if opts.faults.as_ref().is_some_and(|plan| !plan.is_noop()) {
                        telemetry::info(
                            "collect.faults",
                            "injecting network fault plan",
                            &[],
                            Some(clock_ms),
                        );
                    }
                    // Root profiling span for the whole collect phase.
                    // Opened only under `--profile`: an unconditional
                    // span would shift span ids/parents in every trace,
                    // breaking byte-identity with pre-profiler traces.
                    bundle_span = telemetry::profiling_enabled().then(|| {
                        let mut s = telemetry::span("collect.bundle", clock_ms);
                        s.attr("tasks", total_tasks);
                        s
                    });
                }
                if let Some(beat) = &flush.beat {
                    tasks_done += 1;
                    heartbeat_progress(beat, tasks_done, total_tasks, collect_started);
                }
                next += 1;
            }
        }
        lanes
            .into_iter()
            .map(|lane| lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<io::Result<Vec<LaneEnd>>>()
    })?;

    // What the lanes each know a part of is published once, here: the
    // final simulated clock, so a `--metrics` snapshot records how much
    // simulated time the run covered.
    let sim_end_ms = ends.iter().map(|e| e.sim_end_ms).max().unwrap_or(0);
    if let Some(s) = bundle_span.take() {
        s.finish(sim_end_ms);
    }
    telemetry::gauge("collect.sim_end_ms").set(sim_end_ms as f64);

    let mut data = BundleSinks::new();
    let mut coverage: BTreeMap<CampaignKind, Coverage> = BTreeMap::new();
    for end in ends {
        data.extend(end.data);
        coverage.extend(end.coverage);
    }
    let stores: Vec<(&str, usize)> = data
        .iter()
        .map(|(kind, store)| (kind.name(), store.resident_bytes()))
        .collect();
    publish_mem("store", &stores);
    for (kind, cov) in &coverage {
        if cov.fraction() < DEGRADED_THRESHOLD {
            telemetry::counter_with("collect.campaign_degraded", &[("campaign", kind.name())])
                .inc();
            telemetry::warn(
                "collect.degraded",
                "campaign coverage below threshold",
                &[
                    ("campaign", kind.name().into()),
                    ("fraction", cov.fraction().into()),
                    ("threshold", DEGRADED_THRESHOLD.into()),
                    ("gave_up", cov.gave_up.into()),
                    ("unreachable", cov.unreachable.into()),
                ],
                Some(sim_end_ms),
            );
        }
    }
    Ok(BundleData { data, coverage })
}

/// What every lane of one collection shares.
struct Schedule<'a> {
    opts: &'a BundleOptions,
    store: StoreAt<'a>,
    /// `(anchor, task, owning lane)`, in anchor order.
    tasks: Vec<(u64, Task, usize)>,
    /// Snapshots each campaign's store held when the collection began.
    committed: BTreeMap<CampaignKind, u32>,
    /// Raised by a lane that failed; the others stop at their next task.
    stop: AtomicBool,
    /// The caller's handle: each slot runs under a child of it, which
    /// goes to the replayer.
    telemetry: telemetry::Telemetry,
}

/// The fleet as it crosses lanes: the NOERROR list and where the clock
/// stood when its sweep was done — the churn cohort is stamped with it.
type FleetHandoff = (Vec<Ipv4Addr>, SimTime);

/// A lane's end of the one-shot fleet channel. A lane that dies drops
/// its end, so the other one stops instead of waiting.
enum Handoff {
    Give(mpsc::Sender<FleetHandoff>),
    Take(mpsc::Receiver<FleetHandoff>),
}

/// One schedule slot's output to the ordered side channels, on its way
/// to the replayer: slot 0 is the world build, slot `i + 1` task `i`.
struct Flush {
    slot: usize,
    telemetry: telemetry::Telemetry,
    /// Where the lane's clock stood after the slot, pumping included.
    clock_ms: u64,
    /// `Some` if the task ran (a task served from the store beats not).
    beat: Option<Beat>,
}

/// What a lane hands back when its last task is done.
struct LaneEnd {
    data: BundleSinks,
    coverage: BTreeMap<CampaignKind, Coverage>,
    sim_end_ms: u64,
}

/// Where a world's clock stands, the network's pumping included
/// (`World::now` catches up with it at the next `advance_to`).
fn clock(world: &World) -> SimTime {
    world.now().max(world.net.now())
}

/// Walks the schedule on a world of its own and runs the tasks `lane`
/// owns, each under a child of the caller's telemetry handle that goes
/// to the replayer.
/// Another lane's task is only an anchor to advance to, so that this
/// world crosses every lease boundary in the same `advance_to` as the
/// schedule does; the exception is the fleet, which the lane takes over
/// — list and clock — where the schedule has it swept.
fn run_lane(
    sched: &Schedule,
    lane: usize,
    data: BundleSinks,
    handoff: Handoff,
    out: &mpsc::Sender<Flush>,
) -> io::Result<LaneEnd> {
    use CampaignKind::*;
    let Schedule { opts, store, .. } = *sched;
    let built = sched.telemetry.child();
    let entered = built.enter();
    let mut world = build_world(opts.cfg.clone());
    telemetry::counter("collect.world_builds").inc();
    publish_mem("world", &world.mem_ledger());
    // The ledger's denominator: `worldgen.resolvers` is whichever world
    // was built last, and an ablation builds a smaller one at derive time.
    telemetry::gauge("mem.world.resolvers").set_max(world.resolvers.len() as f64);
    if let Some(plan) = &opts.faults {
        world.net.set_fault_plan(plan.clone());
    }
    drop(entered);
    if lane == 0 {
        let _ = out.send(Flush {
            slot: 0,
            telemetry: built,
            clock_ms: world.now().millis(),
            beat: None,
        });
    }
    let ground_truth = truth::capture_ground_truth(&world);
    let vantage = world.scanner_ip;
    let mut own = Lane { world, data, store };

    let mut fleet: Option<Vec<Ipv4Addr>> = None;
    let mut cohort: Option<Vec<Ipv4Addr>> = None;
    let mut ran: BTreeSet<CampaignKind> = BTreeSet::new();
    let mut coverage: BTreeMap<CampaignKind, Coverage> = BTreeMap::new();
    let absorb =
        |coverage: &mut BTreeMap<CampaignKind, Coverage>, kind: CampaignKind, cov: Coverage| {
            coverage.entry(kind).or_default().absorb(&cov);
        };

    let last = sched.tasks.iter().rposition(|&(_, _, owner)| owner == lane);
    for (index, &(anchor, task, owner)) in sched.tasks.iter().enumerate() {
        if Some(index) > last || sched.stop.load(Ordering::Relaxed) {
            break;
        }
        let slot = sched.telemetry.child();
        let entered = slot.enter();
        own.world.advance_to(SimTime(anchor));
        if owner != lane {
            if let (Task::Fleet, Handoff::Take(rx)) = (task, &handoff) {
                // A closed channel: the fleet's lane failed, and its
                // error is the collection's.
                let Ok((ips, swept)) = rx.recv() else { break };
                own.world.advance_to(swept);
                fleet = Some(ips);
            }
            continue;
        }
        let executed = !task.done(&sched.committed);
        if executed {
            mark_ran(&mut ran, task.campaign());
            match task {
                Task::Week(w) => {
                    let cov =
                        own.retrying(Weekly, &mut |world, sink| weekly_scan_week(world, w, sink))?;
                    absorb(&mut coverage, Weekly, cov);
                }
                Task::Fleet => {
                    let result = own.retrying(Fleet, &mut |world, sink| {
                        let mut enriched = EnrichSink::new(world, sink);
                        let result = enumerate_with_sink(world, vantage, opts.seed, &mut enriched);
                        let meta = vec![
                            (META_PROBES.to_string(), result.probes_sent.to_string()),
                            (
                                META_SKIPPED.to_string(),
                                result.skipped_blacklisted.to_string(),
                            ),
                            (
                                META_GROUND_TRUTH.to_string(),
                                serde_json::to_string(&ground_truth)
                                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
                            ),
                        ];
                        telemetry::info(
                            "campaign.fleet",
                            "enumerated fingerprinting fleet",
                            &[("open_resolvers", result.noerror_ips().len().into())],
                            Some(world.now().millis()),
                        );
                        sink.commit("fleet", world.now().millis(), &meta)?;
                        Ok(result)
                    })?;
                    absorb(&mut coverage, Fleet, sweep_coverage(&result));
                }
                Task::Cohort => {
                    let ips = fleet.as_ref().expect("fleet precedes churn cohort");
                    own.retrying(Churn, &mut |world, sink| {
                        let mut enriched = EnrichSink::new(world, sink);
                        let cohort = ips.iter().copied();
                        churn_campaign::commit_round(world, &mut enriched, cohort, "cohort", &[])
                    })?;
                }
                Task::ChurnRound(w) => {
                    let ips = cohort.as_ref().expect("cohort precedes churn rounds");
                    let (alive, retries) = own.retrying(Churn, &mut |world, sink| {
                        let mut enriched = EnrichSink::new(world, sink);
                        let (seed, policy) = (CHURN_SEED, &opts.probe);
                        churn_campaign::round(world, vantage, ips, w, seed, policy, &mut enriched)
                    })?;
                    let answered = |i: usize| u64::from(alive.contains(&ips[i]));
                    let cov = truth::coverage(&own.world, ips, 1, true, answered, retries);
                    absorb(&mut coverage, Churn, cov);
                }
                Task::Chaos => {
                    let ips = fleet.as_ref().expect("fleet precedes chaos");
                    let (observations, retries) = own.retrying(Chaos, &mut |world, sink| {
                        let mut enriched = EnrichSink::new(world, sink);
                        let observations = scanner::chaos_scan(
                            world,
                            vantage,
                            ips,
                            opts.seed,
                            &opts.probe,
                            &mut enriched,
                        );
                        sink.commit("chaos", world.now().millis(), &[])?;
                        Ok(observations)
                    })?;
                    let silent = scanner::ChaosObservation::Silent;
                    let answered = |i: usize| {
                        u64::from(observations.get(&ips[i]).is_some_and(|o| *o != silent))
                    };
                    let cov = truth::coverage(&own.world, ips, 1, false, answered, retries);
                    absorb(&mut coverage, Chaos, cov);
                }
                Task::Banner => {
                    let ips = fleet.as_ref().expect("fleet precedes banner");
                    let cov = own.retrying(Banner, &mut |world, sink| {
                        banner_collect(world, ips, &opts.probe, sink)
                    })?;
                    absorb(&mut coverage, Banner, cov);
                }
                Task::Domains => {
                    let ips = fleet.as_ref().expect("fleet precedes domains");
                    // One shared probe policy for every campaign in the
                    // bundle, the domain scan included.
                    let report = own.retrying(Domains, &mut |world, sink| {
                        let report = crate::pipeline::run_analysis_with_fleet(
                            world,
                            ips.clone(),
                            &opts.analysis,
                            &opts.probe,
                        );
                        let json = serde_json::to_string(&report)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                        let meta = [(META_ANALYSIS_REPORT.to_string(), json)];
                        sink.commit("analysis", world.now().millis(), &meta)?;
                        Ok(report)
                    })?;
                    absorb(&mut coverage, Domains, report.domains_coverage);
                }
                Task::Snoop => {
                    // Snooping starts a day after enumeration; DHCP churn
                    // has already moved a good share of the fleet, so probe
                    // for liveness first and sample resolvers still at
                    // their address — as the paper snooped resolvers from
                    // the current scan, not a stale list.
                    let ips = fleet.as_ref().expect("fleet precedes snoop");
                    let (sample, results, retries) = own.retrying(Snoop, &mut |world, sink| {
                        let (alive, _) = churn_campaign::probe_alive_with_policy(
                            world,
                            vantage,
                            ips,
                            SNOOP_SEED ^ 0xA11E,
                            &ProbePolicy::single(),
                        );
                        let sample: Vec<Ipv4Addr> = ips
                            .iter()
                            .copied()
                            .filter(|ip| alive.contains(ip))
                            .take(opts.snoop_sample)
                            .collect();
                        let (results, retries) = scanner::snoop_scan(
                            world,
                            vantage,
                            &sample,
                            opts.snoop_rounds,
                            SNOOP_SEED,
                            &opts.probe,
                            sink,
                        )?;
                        Ok((sample, results, retries))
                    })?;
                    // Resolver-granularity coverage: a snooped resolver is
                    // answered when any (round, TLD) sample got a response.
                    let heard = |r: &scanner::SnoopResult| {
                        r.samples.iter().any(|s| *s != scanner::SnoopSample::Silent)
                    };
                    let answered = |i: usize| u64::from(results.get(&sample[i]).is_some_and(heard));
                    let cov = truth::coverage(&own.world, &sample, 1, false, answered, retries);
                    absorb(&mut coverage, Snoop, cov);
                }
                Task::VerifyPrimary | Task::VerifySecondary => {
                    let (label, van, seed) = match task {
                        Task::VerifyPrimary => ("primary", vantage, opts.seed),
                        _ => ("secondary", own.world.scanner2_ip, opts.seed ^ 0x5EC0),
                    };
                    let result = own.retrying(Verify, &mut |world, sink| {
                        let mut enriched = EnrichSink::new(world, sink);
                        let result = enumerate_with_sink(world, van, seed, &mut enriched);
                        sink.commit(label, world.now().millis(), &[])?;
                        Ok(result)
                    })?;
                    absorb(&mut coverage, Verify, sweep_coverage(&result));
                }
            }
        }
        // What later tasks scan is read back from the store, whether
        // this run committed it or an earlier one did.
        match task {
            Task::Fleet => fleet = Some(fleet_from_source(own.data[&Fleet].source())?),
            Task::Cohort => cohort = Some(cohort_from_source(own.data[&Churn].source())?),
            _ => {}
        }
        drop(entered);
        let world = &own.world;
        if let (Task::Fleet, Handoff::Give(tx), Some(ips)) = (task, &handoff, &fleet) {
            let _ = tx.send((ips.clone(), clock(world)));
        }
        // Tasks served from a store report no beat, so heartbeat streams
        // stay a pure function of the work actually executed.
        let _ = out.send(Flush {
            slot: index + 1,
            telemetry: slot,
            clock_ms: clock(world).millis(),
            beat: executed.then(|| Beat {
                campaign: task.campaign(),
                sim_ms: world.now().millis(),
            }),
        });
    }
    let Lane { world, data, .. } = own;
    Ok(LaneEnd {
        data,
        coverage,
        sim_end_ms: world.now().millis(),
    })
}

/// Runs the TCP banner grab and commits one enriched snapshot: the
/// TCP-responsive flag, the banner-corpus hash, and the fingerprinted
/// device interned as `"hardware|os"` — everything Table 4 needs
/// without the world.
fn banner_collect(
    world: &mut World,
    fleet: &[Ipv4Addr],
    policy: &ProbePolicy,
    sink: &mut dyn SnapshotSink,
) -> io::Result<Coverage> {
    let (banners, coverage) = scanner::banner_scan(world, fleet, policy);
    let now_ms = world.now().millis();
    // In fleet order, not the map's: string ids are handed out in
    // observation order and the store must not depend on a hasher.
    for (ip, obs) in fleet.iter().filter_map(|ip| Some((ip, banners.get(ip)?))) {
        let fp = fingerprint_device(obs);
        let device = sink.intern(&format!("{}|{}", fp.class.label(), fp.os.label()));
        sink.observe(Observation {
            flags: flags::TCP_RESPONSIVE,
            banner_hash: scanstore::fnv1a(obs.corpus().as_bytes()),
            device,
            ..Observation::at(u32::from(*ip), 0, now_ms)
        });
    }
    let meta = vec![(META_FLEET.to_string(), fleet.len().to_string())];
    sink.commit("banner", now_ms, &meta)?;
    Ok(coverage)
}

/// Meta key on the banner snapshot: probed fleet size.
const META_FLEET: &str = "fleet";

// =====================================================================
// Derivations over bundle stores
// =====================================================================

/// Derive Table 4 from a committed banner snapshot: records are the
/// TCP-responsive hosts, device labels are interned `"hardware|os"`
/// pairs, and the probed fleet size rides in the meta.
pub fn table4_from_source(src: &dyn SnapshotSource) -> io::Result<Table4Report> {
    let snap = src.snapshot(0)?;
    let fleet = snap
        .meta_value(META_FLEET)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut hardware: BTreeMap<String, u64> = BTreeMap::new();
    let mut os: BTreeMap<String, u64> = BTreeMap::new();
    for o in &snap.records {
        let label = src.string(o.device);
        let (hw, osl) = label.split_once('|').unwrap_or((label, ""));
        *hardware.entry(hw.to_string()).or_insert(0) += 1;
        *os.entry(osl.to_string()).or_insert(0) += 1;
    }
    let total = snap.records.len().max(1) as f64;
    Ok(Table4Report {
        fleet,
        tcp_responsive: snap.records.len() as u64,
        hardware: hardware
            .into_iter()
            .map(|(k, v)| (k, 100.0 * v as f64 / total))
            .collect(),
        os: os
            .into_iter()
            .map(|(k, v)| (k, 100.0 * v as f64 / total))
            .collect(),
    })
}

/// Derive the utilization report (Sec. 2.6) from a committed snoop
/// store: the per-resolver series are rebuilt from the value-encoded
/// round snapshots, the authoritative TTLs from the campaign meta.
pub fn util_from_source(src: &dyn SnapshotSource) -> io::Result<UtilReport> {
    let snooped = scanner::snoop_from_source(src)?;
    let full = scanner::snoop_full_ttls_from_source(src)?;
    // The survey-based estimator remains available for settings where
    // authoritative TTLs are not public zone data.
    let results: Vec<&scanner::SnoopResult> = snooped.values().collect();
    let _ = estimate_full_ttls(&results);
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut rates: Vec<f64> = Vec::new();
    for r in snooped.values() {
        let class = classify_snoop(r, &full);
        *counts.entry(format!("{class:?}")).or_insert(0) += 1;
        if let Some(rate) = classify::snoopclass::estimate_popularity(r, &full) {
            rates.push(rate);
        }
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> Option<f64> {
        if rates.is_empty() {
            None
        } else {
            Some(rates[((rates.len() - 1) as f64 * p) as usize])
        }
    };
    let total = snooped.len().max(1) as f64;
    Ok(UtilReport {
        probed: snooped.len() as u64,
        shares: counts
            .into_iter()
            .map(|(k, v)| (k, 100.0 * v as f64 / total))
            .collect(),
        popularity_median: pct(0.5),
        popularity_p90: pct(0.9),
    })
}

/// Dual-vantage verification (Sec. 2.2): hosts the scan from the
/// secondary /8 saw that the primary scan did not.
#[derive(Debug, Clone, Default, Serialize)]
pub struct VerificationReport {
    /// Hosts answering the verification scan but absent from the weekly
    /// scan, per rcode mnemonic.
    pub only_secondary: HashMap<String, u64>,
    /// NOERROR hosts missed by the primary scan.
    pub missed_noerror: u64,
    /// NOERROR hosts found by the primary scan.
    pub primary_noerror: u64,
}

/// Derive the dual-vantage verification report from the committed
/// `primary`/`secondary` enumeration snapshots.
pub fn verification_from_source(src: &dyn SnapshotSource) -> io::Result<VerificationReport> {
    let missing = |label: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("verify store missing `{label}` snapshot"),
        )
    };
    let primary = src.snapshot(
        src.find_label("primary")
            .ok_or_else(|| missing("primary"))?,
    )?;
    let secondary = src.snapshot(
        src.find_label("secondary")
            .ok_or_else(|| missing("secondary"))?,
    )?;
    let primary_ips: std::collections::HashSet<u32> =
        primary.records.iter().map(|o| o.ip).collect();
    let mut report = VerificationReport {
        primary_noerror: primary
            .records
            .iter()
            .filter(|o| o.rcode == Rcode::NoError.to_u8())
            .count() as u64,
        ..Default::default()
    };
    for o in &secondary.records {
        if !primary_ips.contains(&o.ip) {
            *report
                .only_secondary
                .entry(Rcode::from_u8(o.rcode).mnemonic().to_string())
                .or_insert(0) += 1;
            if o.rcode == Rcode::NoError.to_u8() {
                report.missed_noerror += 1;
            }
        }
    }
    Ok(report)
}

/// Read the Sections 3–4 analysis report back out of the domains
/// store's snapshot meta.
pub fn analysis_from_source(
    src: &dyn SnapshotSource,
) -> io::Result<crate::pipeline::AnalysisReport> {
    let seq = src.find_label("analysis").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "domains store missing `analysis` snapshot",
        )
    })?;
    let snap = src.snapshot(seq)?;
    let raw = snap.meta_value(META_ANALYSIS_REPORT).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "analysis snapshot missing `report` meta",
        )
    })?;
    serde_json::from_str(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Read the planted [`GroundTruth`] back out of the fleet snapshot.
pub fn ground_truth_from_source(src: &dyn SnapshotSource) -> io::Result<GroundTruth> {
    let snap = src.snapshot(0)?;
    let raw = snap.meta_value(META_GROUND_TRUTH).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "fleet snapshot missing `ground_truth` meta",
        )
    })?;
    serde_json::from_str(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// NOERROR / REFUSED counts recovered from a committed fleet snapshot.
pub fn fleet_counts_from_source(src: &dyn SnapshotSource) -> io::Result<(u64, u64)> {
    let snap = src.snapshot(0)?;
    let count = |rc: Rcode| {
        snap.records
            .iter()
            .filter(|o| o.rcode == rc.to_u8())
            .count() as u64
    };
    Ok((count(Rcode::NoError), count(Rcode::Refused)))
}
