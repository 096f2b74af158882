//! Read-only, concurrently shareable views over a committed
//! [`CampaignStore`](crate::CampaignStore) directory.
//!
//! [`CampaignStore::open`] is a *writer* open: it deletes orphan
//! segments and rewrites the manifest, which is unsafe while another
//! process is still committing to the same directory. [`StoreView`]
//! is the reader-side counterpart:
//!
//! * it never writes, renames, or deletes anything;
//! * a torn tail (manifest listing a segment whose file is missing,
//!   truncated, or corrupt — e.g. a writer crashed mid-commit) rolls
//!   the view back to the longest valid prefix *in memory only*;
//! * decoded segments are held behind [`Arc`], so cloning a view is
//!   cheap and [`StoreView::refresh`] after a new commit re-decodes
//!   only the new segments;
//! * every view generation carries a [`ReadIndex`] — a sorted,
//!   string-interned per-IP index plus per-AS presence series — built
//!   once per manifest generation so point lookups cost a binary
//!   search instead of a segment replay.
//!
//! Views implement [`SnapshotSource`], so every existing derivation
//! runs unchanged over a `StoreView`.

use crate::record::Observation;
use crate::segment::{self, Segment};
use crate::source::{Snapshot, SnapshotSource};
use crate::SnapshotDiff;
use serde::Deserialize;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The slice of the manifest a reader — a view or the scrubber —
/// needs. Deserialized leniently so a reader never fails on
/// writer-side additions to the manifest schema.
#[derive(Debug, Clone, Deserialize)]
pub(crate) struct ManifestView {
    pub(crate) version: u32,
    pub(crate) committed: u32,
    pub(crate) segments: Vec<ManifestEntry>,
}

#[derive(Debug, Clone, Deserialize)]
pub(crate) struct ManifestEntry {
    pub(crate) seq: u32,
    pub(crate) file: String,
    pub(crate) bytes: u64,
}

const MANIFEST: &str = "manifest.json";
const MANIFEST_VERSION: u32 = 1;

/// One decoded, immutable segment shared across view generations.
#[derive(Debug)]
struct ViewSegment {
    file: String,
    label: String,
    t_ms: u64,
    meta: Vec<(String, String)>,
    new_strings: Vec<String>,
    diff: SnapshotDiff,
}

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

/// Immutable per-generation read index: sorted IP entries, label map,
/// per-AS series, per-snapshot sizes.
#[derive(Debug, Default)]
pub struct ReadIndex {
    entries: Vec<IndexEntry>,
    labels: Vec<(String, u32)>,
    asn_series: BTreeMap<u32, AsnSeries>,
    /// Positions in `entries`, ordered by the interned country id of
    /// the latest observation, then ascending. A per-country query reads
    /// its own records instead of streaming every 88-byte entry through
    /// the cache to compare one field of each.
    by_country: Vec<u32>,
    snapshot_sizes: Vec<u64>,
}

/// Counter handle for index probes, fetched once: lookups sit on the
/// serving hot path, so the steady-state cost must be one relaxed
/// atomic increment.
fn probe_counter() -> &'static telemetry::Counter {
    static PROBES: std::sync::OnceLock<telemetry::Counter> = std::sync::OnceLock::new();
    PROBES.get_or_init(|| telemetry::counter("scanstore.view.index_probes"))
}

impl ReadIndex {
    /// Builds the index by replaying `segments` in commit order.
    fn build(segments: &[Arc<ViewSegment>]) -> ReadIndex {
        let t0 = std::time::Instant::now();
        let last = segments.len().wrapping_sub(1) as u32;
        let mut entries: HashMap<u32, IndexEntry> = HashMap::new();
        let mut labels: Vec<(String, u32)> = Vec::new();
        let mut asn_series: BTreeMap<u32, AsnSeries> = BTreeMap::new();
        let mut snapshot_sizes = Vec::with_capacity(segments.len());
        // AS of each snapshot-0 IP, for the survival series.
        let mut cohort0: HashMap<u32, u32> = HashMap::new();
        let mut current: Vec<Observation> = Vec::new();
        for (seq, seg) in segments.iter().enumerate() {
            let seq = seq as u32;
            if !labels.iter().any(|(l, _)| *l == seg.label) {
                labels.push((seg.label.clone(), seq));
            }
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
            labels,
            asn_series,
            by_country,
            snapshot_sizes,
        }
    }

    /// Point lookup by IP (binary search over the sorted entries).
    pub fn lookup(&self, ip: u32) -> Option<&IndexEntry> {
        probe_counter().inc();
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
        probe_counter().inc();
        self.asn_series.get(&asn)
    }

    /// The entries whose latest observation carries the interned country
    /// id `country` (see [`StoreView::string_ids`]), by ascending IP.
    pub fn in_country(&self, country: u32) -> impl Iterator<Item = &IndexEntry> + '_ {
        probe_counter().inc();
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

    /// `(label, seq)` of the first snapshot per distinct label.
    pub fn labels(&self) -> &[(String, u32)] {
        &self.labels
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
pub fn campaign_dirs(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    if root.join(MANIFEST).is_file() {
        let name = root
            .file_name()
            .map_or_else(|| "store".to_string(), |n| n.to_string_lossy().into_owned());
        return Ok(vec![(name, root.to_path_buf())]);
    }
    let mut dirs = Vec::new();
    for dirent in fs::read_dir(root)? {
        let dirent = dirent?;
        let path = dirent.path();
        if path.is_dir() && path.join(MANIFEST).is_file() {
            dirs.push((dirent.file_name().to_string_lossy().into_owned(), path));
        }
    }
    dirs.sort();
    Ok(dirs)
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
    dir: PathBuf,
    generation: u32,
    recovered: bool,
    segments: Vec<Arc<ViewSegment>>,
    strings: Arc<Vec<String>>,
    index: Arc<ReadIndex>,
}

fn read_manifest(dir: &Path) -> io::Result<Option<ManifestView>> {
    if let Some(e) = crate::faults::manifest_read_error(&dir.join(MANIFEST)) {
        return Err(e);
    }
    match fs::read(dir.join(MANIFEST)) {
        Ok(bytes) => match serde_json::from_slice::<ManifestView>(&bytes) {
            Ok(m) if m.version == MANIFEST_VERSION => Ok(Some(m)),
            // Unknown version or unparsable bytes: treat as empty
            // rather than failing the reader — the writer commits the
            // manifest atomically, so this is a foreign file, not a
            // torn write.
            _ => Ok(None),
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Wall-time bounds (µs) for segment-decode and index-build
/// histograms: these feed `/metrics`, never the trace stream.
const VIEW_WALL_BOUNDS_US: [u64; 8] = [50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000];

/// Decodes the committed segment at `entry`, verifying its sequence
/// number. Any read or decode failure yields `None` (torn tail).
fn decode_entry(dir: &Path, entry: &ManifestEntry, want_seq: u32) -> Option<Arc<ViewSegment>> {
    if crate::faults::segment_corrupt(&dir.join(&entry.file)) {
        return None;
    }
    let t0 = std::time::Instant::now();
    let bytes = fs::read(dir.join(&entry.file)).ok()?;
    let seg: Segment = segment::decode(&bytes).ok()?;
    if seg.seq != want_seq || entry.seq != want_seq {
        return None;
    }
    telemetry::counter("scanstore.view.segments_decoded").inc();
    telemetry::histogram("scanstore.view.decode_us", &VIEW_WALL_BOUNDS_US)
        .observe(t0.elapsed().as_micros() as u64);
    Some(Arc::new(ViewSegment {
        file: entry.file.clone(),
        label: seg.label,
        t_ms: seg.t_ms,
        meta: seg.meta,
        new_strings: seg.new_strings,
        diff: seg.diff,
    }))
}

fn string_table(segments: &[Arc<ViewSegment>]) -> Vec<String> {
    let mut strings = vec![String::new()];
    for seg in segments {
        strings.extend(seg.new_strings.iter().cloned());
    }
    strings
}

impl StoreView {
    /// Opens a read-only view of the store at `dir`.
    ///
    /// Unlike [`CampaignStore::open`](crate::CampaignStore::open), this
    /// never mutates the directory: a missing manifest yields an empty
    /// view (generation 0), and a torn tail — segments the manifest
    /// lists but that are missing, truncated, or corrupt because a
    /// writer is mid-commit or crashed — rolls the view back to the
    /// longest valid prefix in memory and sets [`StoreView::recovered`].
    pub fn open(dir: impl AsRef<Path>) -> io::Result<StoreView> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("store directory {} does not exist", dir.display()),
            ));
        }
        let manifest = read_manifest(&dir)?;
        let mut segments: Vec<Arc<ViewSegment>> = Vec::new();
        let mut recovered = false;
        if let Some(m) = &manifest {
            for entry in m.segments.iter().take(m.committed as usize) {
                match decode_entry(&dir, entry, segments.len() as u32) {
                    Some(seg) => segments.push(seg),
                    None => {
                        recovered = true;
                        break;
                    }
                }
            }
            if segments.len() < m.committed as usize {
                recovered = true;
            }
        }
        if recovered {
            telemetry::counter("scanstore.view.rollbacks").inc();
        }
        telemetry::counter("scanstore.view.opens").inc();
        let strings = Arc::new(string_table(&segments));
        let index = Arc::new(ReadIndex::build(&segments));
        Ok(StoreView {
            dir,
            generation: segments.len() as u32,
            recovered,
            segments,
            strings,
            index,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed snapshots in this view (the manifest generation the
    /// view was built from, after any in-memory rollback).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Whether the open rolled back past a torn tail.
    pub fn recovered(&self) -> bool {
        self.recovered
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
        let ids = self.strings.iter().enumerate();
        ids.filter(move |(_, have)| *have == s)
            .map(|(id, _)| id as u32)
    }

    /// `(label, t_ms, meta)` of snapshot `seq`, without materializing
    /// its records.
    pub fn segment_meta(&self, seq: u32) -> Option<SegmentMeta<'_>> {
        self.segments
            .get(seq as usize)
            .map(|s| (s.label.as_str(), s.t_ms, s.meta.as_slice()))
    }

    /// Re-reads the manifest and returns a view of the latest
    /// committed generation.
    ///
    /// * unchanged manifest → a cheap clone (all `Arc`s shared);
    /// * new commits on top of our prefix → only the new segments are
    ///   decoded; the old prefix (and its decode cost) is reused;
    /// * anything else (rollback, rewritten files) → full reopen.
    pub fn refresh(&self) -> io::Result<StoreView> {
        let manifest = read_manifest(&self.dir)?;
        let m = match manifest {
            Some(m) => m,
            None => {
                // Store reset to empty underneath us.
                if self.generation == 0 {
                    return Ok(self.clone());
                }
                telemetry::counter_with("scanstore.view.refreshes", &[("kind", "reopen")]).inc();
                return StoreView::open(&self.dir);
            }
        };
        let committed = m.committed as usize;
        let prefix_matches = committed >= self.segments.len()
            && self
                .segments
                .iter()
                .zip(m.segments.iter())
                .all(|(have, want)| have.file == want.file);
        if !prefix_matches {
            telemetry::counter_with("scanstore.view.refreshes", &[("kind", "reopen")]).inc();
            return StoreView::open(&self.dir);
        }
        if committed == self.segments.len() {
            telemetry::counter_with("scanstore.view.refreshes", &[("kind", "noop")]).inc();
            return Ok(self.clone());
        }
        // Decode only the new tail; stop at a torn segment.
        let mut segments = self.segments.clone();
        let mut recovered = false;
        for entry in m.segments.iter().take(committed).skip(segments.len()) {
            match decode_entry(&self.dir, entry, segments.len() as u32) {
                Some(seg) => segments.push(seg),
                None => {
                    recovered = true;
                    break;
                }
            }
        }
        if recovered {
            telemetry::counter("scanstore.view.rollbacks").inc();
        }
        telemetry::counter_with("scanstore.view.refreshes", &[("kind", "incremental")]).inc();
        let strings = Arc::new(string_table(&segments));
        let index = Arc::new(ReadIndex::build(&segments));
        Ok(StoreView {
            dir: self.dir.clone(),
            generation: segments.len() as u32,
            recovered,
            segments,
            strings,
            index,
        })
    }
}

impl SnapshotSource for StoreView {
    fn snapshot_count(&self) -> u32 {
        self.generation
    }

    fn string(&self, id: u32) -> &str {
        self.strings
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    fn snapshot(&self, seq: u32) -> io::Result<Snapshot> {
        if seq >= self.generation {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no snapshot {seq}"),
            ));
        }
        let mut records = Vec::new();
        for stored in &self.segments[..=seq as usize] {
            records = stored.diff.apply(&records);
        }
        let stored = &self.segments[seq as usize];
        Ok(Snapshot {
            seq,
            label: stored.label.clone(),
            t_ms: stored.t_ms,
            meta: stored.meta.clone(),
            records,
        })
    }

    fn for_each_snapshot(&self, f: &mut dyn FnMut(&Snapshot) -> io::Result<()>) -> io::Result<()> {
        let mut records: Vec<Observation> = Vec::new();
        for (seq, stored) in self.segments.iter().enumerate() {
            records = stored.diff.apply(&records);
            let snap = Snapshot {
                seq: seq as u32,
                label: stored.label.clone(),
                t_ms: stored.t_ms,
                meta: stored.meta.clone(),
                records,
            };
            f(&snap)?;
            records = snap.records;
        }
        Ok(())
    }

    fn find_label(&self, label: &str) -> Option<u32> {
        self.index
            .labels
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, seq)| seq)
    }

    fn diff(&self, seq: u32) -> io::Result<SnapshotDiff> {
        let next = seq
            .checked_add(1)
            .filter(|&n| n < self.generation)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no diff from {seq}"))
            })?;
        Ok(self.segments[next as usize].diff.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{ObservationSink, SnapshotSink};
    use crate::CampaignStore;

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
        assert!(Arc::ptr_eq(&v1.segments[0], &same.segments[0]));

        commit_week(&mut store, 1, &[(10, 1), (20, 2)]);
        let v2 = v1.refresh().unwrap();
        assert_eq!(v2.generation(), 2);
        assert!(
            Arc::ptr_eq(&v1.segments[0], &v2.segments[0]),
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
