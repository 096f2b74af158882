//! Read-only, concurrently shareable views over a committed
//! [`CampaignStore`](crate::CampaignStore) directory.
//!
//! [`CampaignStore::open`] is a *writer* open: it deletes orphan
//! segments and rewrites the manifest, which is unsafe while another
//! process is still committing to the same directory. [`StoreView`]
//! is the reader-side counterpart. It reads the store through the same
//! manifest reader, segment check and prefix loader as the writer
//! (`disk.rs`), so a view holds exactly the segments a writer
//! open would keep, and the same [`SnapshotSource`] impl serves both.
//! On top of that:
//!
//! * it never writes, renames, or deletes anything;
//! * a committed segment that fails the check (missing, truncated or
//!   corrupt — e.g. a writer crashed mid-commit) rolls the view back to
//!   the longest valid prefix *in memory only*;
//! * decoded segments are held behind [`Arc`], so cloning a view is
//!   cheap and [`StoreView::refresh`] after a new commit re-decodes
//!   only the new segments — unless the writer rolled back since, in
//!   which case it reads the store again from the start;
//! * every view generation carries a [`ReadIndex`] — a sorted,
//!   string-interned per-IP index plus per-AS presence series — built
//!   once per manifest generation so point lookups cost a binary
//!   search instead of a segment replay.
//!
//! [`CampaignStore::open`]: crate::CampaignStore::open
//! [`SnapshotSource`]: crate::SnapshotSource

use crate::disk::{read_manifest, Committed, Manifest, OnDisk, MANIFEST};
use crate::record::Observation;
use crate::segment::Segment;
use crate::vfs::{Disk, StdDisk};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Per-IP summary in the read-side index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// The probed address.
    pub ip: u32,
    /// The most recent observation of this IP (from the last snapshot
    /// that contained it).
    pub latest: Observation,
    /// First snapshot (seq) the IP appeared in.
    pub first_seq: u32,
    /// Last snapshot (seq) the IP appeared in.
    pub last_seq: u32,
    /// Number of snapshots the IP was present in.
    pub rounds: u32,
    /// Whether the IP is present in the latest snapshot.
    pub live: bool,
}

/// Per-AS presence and cohort-survival series across snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsnSeries {
    /// IPs of this AS present in each snapshot (one element per seq).
    pub present: Vec<u64>,
    /// Of the AS's snapshot-0 cohort, how many are still present in
    /// each snapshot (element 0 is the cohort size).
    pub survivors: Vec<u64>,
}

/// Immutable per-generation read index: sorted IP entries, per-AS
/// series, per-snapshot sizes.
#[derive(Debug, Default)]
pub struct ReadIndex {
    entries: Vec<IndexEntry>,
    asn_series: BTreeMap<u32, AsnSeries>,
    /// Positions in `entries`, ordered by the interned country id of
    /// the latest observation, then ascending. A per-country query reads
    /// its own records instead of streaming every 88-byte entry through
    /// the cache to compare one field of each.
    by_country: Vec<u32>,
    snapshot_sizes: Vec<u64>,
    /// `scanstore.view.index_probes`, fetched at the first probe from
    /// the handle of the thread that makes it: lookups sit on the
    /// serving hot path, so the steady-state cost must be one relaxed
    /// atomic increment.
    probes: OnceLock<telemetry::Counter>,
}

impl ReadIndex {
    /// Builds the index by replaying `segments` in commit order.
    fn build(segments: &[Arc<Segment>]) -> ReadIndex {
        let t0 = std::time::Instant::now();
        let last = segments.len().wrapping_sub(1) as u32;
        let mut entries: HashMap<u32, IndexEntry> = HashMap::new();
        let mut asn_series: BTreeMap<u32, AsnSeries> = BTreeMap::new();
        let mut snapshot_sizes = Vec::with_capacity(segments.len());
        // AS of each snapshot-0 IP, for the survival series.
        let mut cohort0: HashMap<u32, u32> = HashMap::new();
        let mut current: Vec<Observation> = Vec::new();
        for (seq, seg) in segments.iter().enumerate() {
            let seq = seq as u32;
            current = seg.diff.apply(&current);
            snapshot_sizes.push(current.len() as u64);
            if seq == 0 {
                for o in &current {
                    cohort0.insert(o.ip, o.asn);
                }
            }
            for o in &current {
                entries
                    .entry(o.ip)
                    .and_modify(|e| {
                        e.latest = *o;
                        e.last_seq = seq;
                        e.rounds += 1;
                    })
                    .or_insert_with(|| IndexEntry {
                        ip: o.ip,
                        latest: *o,
                        first_seq: seq,
                        last_seq: seq,
                        rounds: 1,
                        live: false,
                    });
                let series = asn_series.entry(o.asn).or_default();
                if series.present.len() <= seq as usize {
                    series.present.resize(seq as usize + 1, 0);
                }
                series.present[seq as usize] += 1;
                if let Some(&asn0) = cohort0.get(&o.ip) {
                    let series = asn_series.entry(asn0).or_default();
                    if series.survivors.len() <= seq as usize {
                        series.survivors.resize(seq as usize + 1, 0);
                    }
                    series.survivors[seq as usize] += 1;
                }
            }
        }
        // Pad every series to the full snapshot count so consumers can
        // zip them against labels without bounds juggling.
        for series in asn_series.values_mut() {
            series.present.resize(segments.len(), 0);
            series.survivors.resize(segments.len(), 0);
        }
        let mut entries: Vec<IndexEntry> = entries.into_values().collect();
        entries.sort_by_key(|e| e.ip);
        for e in &mut entries {
            e.live = e.last_seq == last;
        }
        let mut by_country: Vec<u32> = (0..entries.len() as u32).collect();
        by_country.sort_unstable_by_key(|&at| (entries[at as usize].latest.country, at));
        telemetry::histogram("scanstore.view.index_build_us", &VIEW_WALL_BOUNDS_US)
            .observe(t0.elapsed().as_micros() as u64);
        ReadIndex {
            entries,
            asn_series,
            by_country,
            snapshot_sizes,
            probes: OnceLock::new(),
        }
    }

    fn probed(&self) {
        let probes = self
            .probes
            .get_or_init(|| telemetry::counter("scanstore.view.index_probes"));
        probes.inc();
    }

    /// Point lookup by IP (binary search over the sorted entries).
    pub fn lookup(&self, ip: u32) -> Option<&IndexEntry> {
        self.probed();
        self.entries
            .binary_search_by_key(&ip, |e| e.ip)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Every indexed IP, sorted ascending.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Presence/survival series for one AS, if it was ever observed.
    pub fn asn_series(&self, asn: u32) -> Option<&AsnSeries> {
        self.probed();
        self.asn_series.get(&asn)
    }

    /// The entries whose latest observation carries the interned country
    /// id `country` (see [`StoreView::string_ids`]), by ascending IP.
    pub fn in_country(&self, country: u32) -> impl Iterator<Item = &IndexEntry> + '_ {
        self.probed();
        let of = |at: &u32| self.entries[*at as usize].latest.country;
        let first = self.by_country.partition_point(|at| of(at) < country);
        let len = self.by_country[first..].partition_point(|at| of(at) == country);
        let at = &self.by_country[first..first + len];
        at.iter().map(|&at| &self.entries[at as usize])
    }

    /// Every AS with at least one observation, ascending.
    pub fn asns(&self) -> impl Iterator<Item = u32> + '_ {
        self.asn_series.keys().copied()
    }

    /// Records in each snapshot, by seq.
    pub fn snapshot_sizes(&self) -> &[u64] {
        &self.snapshot_sizes
    }
}

/// The campaign stores under `root`, as `(name, dir)` sorted by name:
/// `root` itself (named after its directory) when it holds a manifest,
/// otherwise every subdirectory that does. Names are directory names —
/// input from outside the program, escaped wherever they are written.
pub fn campaign_dirs(disk: &dyn Disk, root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let has_manifest = |dir: &Path| {
        disk.list(dir)
            .is_ok_and(|n| n.iter().any(|n| n == MANIFEST))
    };
    if has_manifest(root) {
        let name = root
            .file_name()
            .map_or_else(|| "store".to_string(), |n| n.to_string_lossy().into_owned());
        return Ok(vec![(name, root.to_path_buf())]);
    }
    let dirs = disk.list(root)?.into_iter().filter_map(|name| {
        let dir = root.join(&name);
        has_manifest(&dir).then_some((name, dir))
    });
    Ok(dirs.collect())
}

/// `(label, t_ms, meta)` of one committed snapshot segment.
pub type SegmentMeta<'a> = (&'a str, u64, &'a [(String, String)]);

/// A cheaply cloneable, read-only view of a campaign store directory.
///
/// All heavyweight state (decoded segments, string table, read index)
/// sits behind [`Arc`]s: clones share it, and concurrent readers on
/// other threads need no locking because a view is immutable.
#[derive(Debug, Clone)]
pub struct StoreView {
    disk: Arc<dyn Disk>,
    dir: PathBuf,
    /// The manifest's `recovery_events` when this view read it.
    recovery_events: u32,
    recovered: bool,
    committed: Committed,
    index: Arc<ReadIndex>,
}

/// Wall-time bounds (µs) for segment-decode and index-build
/// histograms: these feed `/metrics`, never the trace stream.
const VIEW_WALL_BOUNDS_US: [u64; 8] = [50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000];

impl StoreView {
    /// Opens a read-only view of the store at `dir`.
    ///
    /// Unlike [`CampaignStore::open`](crate::CampaignStore::open), this
    /// never mutates the directory: a missing manifest yields an empty
    /// view (generation 0), and a committed segment that fails the
    /// check — missing, truncated, or corrupt because a writer is
    /// mid-commit or crashed — rolls the view back to the longest valid
    /// prefix in memory and sets [`StoreView::recovered`], as does a
    /// manifest that does not parse.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<StoreView> {
        StoreView::open_on(Arc::new(StdDisk), dir)
    }

    /// [`StoreView::open`] through `disk`, which the view's refreshes
    /// read through too.
    pub fn open_on(disk: Arc<dyn Disk>, dir: impl AsRef<Path>) -> io::Result<StoreView> {
        let dir = dir.as_ref().to_path_buf();
        let missing = format!("store directory {} does not exist", dir.display());
        disk.list(&dir)
            .map_err(|_| io::Error::new(io::ErrorKind::NotFound, missing))?;
        let manifest = read_manifest(&*disk, &dir)?;
        telemetry::counter("scanstore.view.opens").inc();
        Ok(StoreView::load(disk, dir, manifest, Committed::default()))
    }

    /// Loads what `manifest` commits beyond `committed` and indexes the
    /// result.
    fn load(
        disk: Arc<dyn Disk>,
        dir: PathBuf,
        manifest: Option<Manifest>,
        mut committed: Committed,
    ) -> StoreView {
        let t0 = std::time::Instant::now();
        let held = committed.segments.len();
        let recovered = !manifest
            .as_ref()
            .is_some_and(|m| committed.load(&*disk, &dir, m));
        let decoded = committed.segments.len() - held;
        if decoded > 0 {
            telemetry::counter("scanstore.view.segments_decoded").add(decoded as u64);
            telemetry::histogram("scanstore.view.decode_us", &VIEW_WALL_BOUNDS_US)
                .observe(t0.elapsed().as_micros() as u64);
        }
        if recovered {
            telemetry::counter("scanstore.view.rollbacks").inc();
        }
        StoreView {
            disk,
            dir,
            recovery_events: manifest.map_or(0, |m| m.recovery_events),
            recovered,
            index: Arc::new(ReadIndex::build(&committed.segments)),
            committed,
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed snapshots in this view (the manifest generation the
    /// view was built from, after any in-memory rollback).
    pub fn generation(&self) -> u32 {
        self.committed.segments.len() as u32
    }

    /// Whether the open rolled back past a segment that failed the
    /// check, or read a manifest that does not parse.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Whether `other` holds this view's very segments, not merely as
    /// many: after a writer rollback a refresh can return the same
    /// generation with different contents.
    pub fn same_segments(&self, other: &StoreView) -> bool {
        let (mine, theirs) = (&self.committed.segments, &other.committed.segments);
        mine.len() == theirs.len() && mine.iter().zip(theirs).all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The per-generation read index.
    pub fn index(&self) -> &ReadIndex {
        &self.index
    }

    /// Every id the string table holds `s` under: at most one in a store
    /// [`CampaignStore`](crate::CampaignStore) wrote, which never interns
    /// a string twice. Resolved once, it lets a query over the index
    /// compare ids instead of strings.
    pub fn string_ids<'a>(&'a self, s: &'a str) -> impl Iterator<Item = u32> + 'a {
        let ids = self.committed.strings.iter().enumerate();
        ids.filter(move |(_, have)| *have == s)
            .map(|(id, _)| id as u32)
    }

    /// `(label, t_ms, meta)` of snapshot `seq`, without materializing
    /// its records.
    pub fn segment_meta(&self, seq: u32) -> Option<SegmentMeta<'_>> {
        self.committed
            .segments
            .get(seq as usize)
            .map(|s| (s.label.as_str(), s.t_ms, s.meta.as_slice()))
    }

    /// Re-reads the manifest and returns a view of the latest
    /// committed generation.
    ///
    /// * unchanged manifest → a cheap clone (all `Arc`s shared);
    /// * new commits on top of our prefix → only the new segments are
    ///   checked and decoded; the prefix (and its decode cost) is reused;
    /// * a writer rollback since this view read the manifest (its
    ///   `recovery_events` moved), fewer commits than the view holds, or
    ///   a manifest that does not parse → full reopen.
    pub fn refresh(&self) -> io::Result<StoreView> {
        let manifest = read_manifest(&*self.disk, &self.dir)?;
        let held = self.generation();
        let same_history = |m: &Manifest| m.recovery_events == self.recovery_events;
        let unchanged = match &manifest {
            Some(m) => same_history(m) && m.committed == held && !self.recovered,
            None => held == 0 && self.recovered,
        };
        if unchanged {
            telemetry::counter_with("scanstore.view.refreshes", &[("kind", "noop")]).inc();
            return Ok(self.clone());
        }
        let (kind, prefix) = match &manifest {
            Some(m) if same_history(m) && m.committed >= held => {
                ("incremental", self.committed.clone())
            }
            _ => ("reopen", Committed::default()),
        };
        telemetry::counter_with("scanstore.view.refreshes", &[("kind", kind)]).inc();
        let disk = Arc::clone(&self.disk);
        Ok(StoreView::load(disk, self.dir.clone(), manifest, prefix))
    }
}

impl OnDisk for StoreView {
    fn committed(&self) -> &Committed {
        &self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{ObservationSink, SnapshotSink};
    use crate::{CampaignStore, SnapshotSource};
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!("gw-view-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn obs(ip: u32, rcode: u8, asn: u32, t: u64) -> Observation {
        Observation {
            asn,
            ..Observation::at(ip, rcode, t)
        }
    }

    fn commit_week(store: &mut CampaignStore, week: u32, ips: &[(u32, u32)]) {
        for &(ip, asn) in ips {
            store.observe(obs(ip, 0, asn, 1_000 + u64::from(week)));
        }
        store
            .commit(&format!("week-{week}"), 1_000 + u64::from(week), &[])
            .unwrap();
    }

    #[test]
    fn view_matches_writer_store() {
        let tmp = TempDir::new("match");
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_week(&mut store, 0, &[(10, 1), (20, 2), (30, 1)]);
        commit_week(&mut store, 1, &[(10, 1), (30, 1), (40, 3)]);

        let view = StoreView::open(&tmp.0).unwrap();
        assert_eq!(view.generation(), 2);
        assert!(!view.recovered());
        assert_eq!(view.snapshot_count(), store.snapshot_count());
        for seq in 0..2 {
            assert_eq!(view.snapshot(seq).unwrap(), store.snapshot(seq).unwrap());
        }
        assert_eq!(view.find_label("week-1"), Some(1));
        assert_eq!(view.find_label("nope"), None);
    }

    #[test]
    fn index_summarizes_presence_and_churn() {
        let tmp = TempDir::new("index");
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_week(&mut store, 0, &[(10, 1), (20, 2), (30, 1)]);
        commit_week(&mut store, 1, &[(10, 1), (30, 1), (40, 3)]);
        commit_week(&mut store, 2, &[(10, 1), (40, 3)]);

        let view = StoreView::open(&tmp.0).unwrap();
        let idx = view.index();
        let e10 = idx.lookup(10).unwrap();
        assert_eq!((e10.first_seq, e10.last_seq, e10.rounds), (0, 2, 3));
        assert!(e10.live);
        let e20 = idx.lookup(20).unwrap();
        assert_eq!((e20.first_seq, e20.last_seq, e20.rounds), (0, 0, 1));
        assert!(!e20.live);
        assert!(idx.lookup(99).is_none());

        let as1 = idx.asn_series(1).unwrap();
        assert_eq!(as1.present, vec![2, 2, 1]);
        assert_eq!(as1.survivors, vec![2, 2, 1]);
        let as3 = idx.asn_series(3).unwrap();
        assert_eq!(as3.present, vec![0, 1, 1]);
        assert_eq!(as3.survivors, vec![0, 0, 0], "AS3 joined after the cohort");
        assert_eq!(idx.snapshot_sizes(), &[3, 3, 2]);
    }

    #[test]
    fn country_index_follows_the_latest_observation() {
        let tmp = TempDir::new("country");
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        let (us, de) = (store.intern("US"), store.intern("DE"));
        // 20 moves from DE to US in week 1; 30 is seen in week 0 only.
        for (week, seen) in [vec![(10, us), (20, de), (30, de)], vec![(10, us), (20, us)]]
            .iter()
            .enumerate()
        {
            for &(ip, country) in seen {
                store.observe(Observation {
                    country,
                    ..Observation::at(ip, 0, 1_000)
                });
            }
            store.commit(&format!("week-{week}"), 1_000, &[]).unwrap();
        }
        let view = StoreView::open(&tmp.0).unwrap();
        let ips_in = |country: &str| -> Vec<u32> {
            let ids = view.string_ids(country);
            ids.flat_map(|id| view.index().in_country(id))
                .map(|e| e.ip)
                .collect()
        };
        assert_eq!(ips_in("US"), [10, 20]);
        assert_eq!(ips_in("DE"), [30], "churned out, still indexed");
        assert_eq!(ips_in("FR"), [0u32; 0]);
        assert_eq!(view.string_ids("US").collect::<Vec<_>>(), [us]);
    }

    #[test]
    fn open_is_torn_tail_safe_and_nondestructive() {
        let tmp = TempDir::new("torn");
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_week(&mut store, 0, &[(10, 1)]);
        commit_week(&mut store, 1, &[(10, 1), (20, 2)]);
        // Simulate a writer crash: manifest points at a truncated tail.
        let seg1 = tmp.0.join("seg-00001.gws");
        let bytes = fs::read(&seg1).unwrap();
        fs::write(&seg1, &bytes[..bytes.len() / 2]).unwrap();

        let view = StoreView::open(&tmp.0).unwrap();
        assert_eq!(view.generation(), 1, "rolls back past the torn tail");
        assert!(view.recovered());
        // Read-only: the torn file must still be there for the writer.
        assert_eq!(fs::read(&seg1).unwrap().len(), bytes.len() / 2);
    }

    #[test]
    fn refresh_is_incremental_and_reuses_segments() {
        let tmp = TempDir::new("refresh");
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_week(&mut store, 0, &[(10, 1)]);

        let v1 = StoreView::open(&tmp.0).unwrap();
        let same = v1.refresh().unwrap();
        assert_eq!(same.generation(), 1);
        assert!(Arc::ptr_eq(
            &v1.committed.segments[0],
            &same.committed.segments[0]
        ));

        commit_week(&mut store, 1, &[(10, 1), (20, 2)]);
        let v2 = v1.refresh().unwrap();
        assert_eq!(v2.generation(), 2);
        assert!(
            Arc::ptr_eq(&v1.committed.segments[0], &v2.committed.segments[0]),
            "prefix segments are shared, not re-decoded"
        );
        assert_eq!(v2.snapshot(1).unwrap(), store.snapshot(1).unwrap());
        // The stale view still serves its own generation.
        assert_eq!(v1.snapshot_count(), 1);
        assert_eq!(v1.snapshot(0).unwrap().records.len(), 1);
    }

    #[test]
    fn empty_and_missing_stores() {
        let tmp = TempDir::new("empty");
        let view = StoreView::open(&tmp.0).unwrap();
        assert_eq!(view.generation(), 0);
        assert!(view.snapshot(0).is_err());
        assert!(StoreView::open(tmp.0.join("nope")).is_err());
    }
}
