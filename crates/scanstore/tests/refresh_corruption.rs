//! Reader resilience under mid-commit corruption, and the faults/scrub
//! surfaces that back the serve-chaos harness (DESIGN §13).

mod common;

use common::TempDir;
use scanstore::sink::{ObservationSink, SnapshotSink};
use scanstore::{
    scrub_store, CampaignStore, Disk, FaultSpec, Faulty, Observation, SegmentVerdict,
    SnapshotSource, StdDisk, StoreView,
};
use std::fs;
use std::path::Path;
use std::sync::Arc;

fn commit_ip(store: &mut CampaignStore, label: &str, ip: u32, t_ms: u64) {
    store.observe(Observation::at(ip, 0, t_ms));
    store.commit(label, t_ms, &[]).unwrap();
}

fn rollbacks() -> u64 {
    telemetry::snapshot()
        .counter("scanstore.view.rollbacks")
        .unwrap_or(0)
}

fn truncate_half(path: &Path) {
    let len = fs::metadata(path).unwrap().len();
    truncate_to(path, len / 2);
}

fn truncate_to(path: &Path, len: u64) {
    let f = fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

fn flip_byte(path: &Path, at: usize) {
    let mut bytes = fs::read(path).unwrap();
    bytes[at] ^= 0x01;
    fs::write(path, bytes).unwrap();
}

/// A store of `weeks` commits, one IP each: week `w` holds `10 * (w + 1)`.
fn commit_weeks(dir: &Path, weeks: u32) {
    let mut store = CampaignStore::open(dir).unwrap();
    for w in 0..weeks {
        let t_ms = 1_000 * u64::from(w + 1);
        commit_ip(&mut store, &format!("week-{w}"), 10 * (w + 1), t_ms);
    }
}

/// The ISSUE's satellite scenario: a writer commits, the newest
/// segment is torn on disk, and a reader refresh rolls back to the
/// committed prefix instead of failing — while the prior view keeps
/// serving untouched.
#[test]
fn refresh_rolls_back_on_mid_commit_corruption() {
    let tmp = TempDir::new("rollback");
    let mut store = CampaignStore::open(&tmp.0).unwrap();
    commit_ip(&mut store, "week-0", 10, 1_000);
    commit_ip(&mut store, "week-1", 20, 2_000);

    let view = StoreView::open(&tmp.0).unwrap();
    assert_eq!(view.generation(), 2);
    assert!(!view.recovered());

    commit_ip(&mut store, "week-2", 30, 3_000);
    truncate_half(&tmp.0.join("seg-00002.gws"));

    let before = rollbacks();
    let refreshed = view.refresh().unwrap();
    assert_eq!(
        refreshed.generation(),
        2,
        "the torn tail must roll back to the committed prefix"
    );
    assert!(refreshed.recovered());
    assert!(rollbacks() > before, "scanstore.view.rollbacks must tick");

    // The prefix still serves; the torn commit never appears.
    assert!(refreshed.index().lookup(20).is_some());
    assert!(refreshed.index().lookup(30).is_none());
    // The pre-refresh view is untouched.
    assert_eq!(view.generation(), 2);
    assert!(view.index().lookup(20).is_some());

    // Scrub pins the damage to the truncated segment.
    let report = scrub_store(&StdDisk, &tmp.0).unwrap();
    assert!(!report.healthy());
    assert!(report.manifest_ok);
    assert_eq!(report.bad_segments(), 1);
    assert!(matches!(
        report.segments[2].verdict,
        SegmentVerdict::SizeMismatch { .. }
    ));
    let json = telemetry::json::to_string(|o| report.write_json(o));
    assert!(json.contains("size_mismatch"), "{json}");
}

/// The writer rolls back a bit-flipped `seg-00002` and commits a
/// different week 2 under the same file name. A view that decoded the
/// old week must refresh to what a fresh open reads, snapshot for
/// snapshot — not keep the segment it held because the names match.
#[test]
fn refresh_after_a_writer_rollback_matches_a_fresh_open() {
    let tmp = TempDir::new("rewritten");
    commit_weeks(&tmp.0, 3);
    let view = StoreView::open(&tmp.0).unwrap();
    assert_eq!(view.snapshot(2).unwrap().records[0].ip, 30);

    flip_byte(&tmp.0.join("seg-00002.gws"), 20);
    let mut store = CampaignStore::open(&tmp.0).unwrap();
    assert_eq!(store.snapshot_count(), 2, "the flipped week rolls back");
    commit_ip(&mut store, "week-2", 99, 3_000);

    let refreshed = view.refresh().unwrap();
    let fresh = StoreView::open(&tmp.0).unwrap();
    assert!(!refreshed.recovered());
    assert_eq!(refreshed.generation(), fresh.generation());
    for seq in 0..fresh.snapshot_count() {
        assert_eq!(
            refreshed.snapshot(seq).unwrap(),
            fresh.snapshot(seq).unwrap(),
            "snapshot {seq}"
        );
    }
    assert!(refreshed.index().lookup(99).is_some());
    assert!(refreshed.index().lookup(30).is_none());
    assert!(!refreshed.same_segments(&view));
    assert!(refreshed.refresh().unwrap().same_segments(&refreshed));
}

/// Rewrites the manifest's segment entries, each given as the text
/// between its braces.
fn edit_entries(dir: &Path, edit: impl FnOnce(&mut Vec<String>)) {
    let path = dir.join("manifest.json");
    let text = fs::read_to_string(&path).unwrap();
    let (head, rest) = text.split_once("\"segments\":[{").unwrap();
    let (body, tail) = rest.split_once("}]").unwrap();
    let mut entries: Vec<String> = body.split("},{").map(str::to_string).collect();
    edit(&mut entries);
    let body = entries.join("},{");
    fs::write(&path, format!("{head}\"segments\":[{{{body}}}]{tail}")).unwrap();
}

/// Every file of `from`, copied into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for dirent in fs::read_dir(from).unwrap() {
        let dirent = dirent.unwrap();
        fs::copy(dirent.path(), to.join(dirent.file_name())).unwrap();
    }
}

fn segment_files(dir: &Path) -> usize {
    let names = fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name());
    names
        .filter(|n| n.to_string_lossy().starts_with("seg-"))
        .count()
}

/// The scrubber, the view and the writer read a store through one
/// segment check, so on any damage they agree: the scrub is healthy
/// exactly when the view opens without rolling back, the view holds the
/// segments before the first bad verdict, and a writer open keeps
/// exactly those.
#[test]
fn scrub_view_and_writer_agree_on_damaged_stores() {
    let seg = |dir: &Path, seq: u32| dir.join(format!("seg-{seq:05}.gws"));
    type Damage = Box<dyn Fn(&Path)>;
    let cases: Vec<(&str, Damage)> = vec![
        ("intact", Box::new(|_: &Path| {})),
        (
            "empty last",
            Box::new(move |d: &Path| truncate_to(&seg(d, 3), 0)),
        ),
        (
            "one byte of the last",
            Box::new(move |d: &Path| truncate_to(&seg(d, 3), 1)),
        ),
        (
            "half the last",
            Box::new(move |d: &Path| truncate_half(&seg(d, 3))),
        ),
        (
            "half the second",
            Box::new(move |d: &Path| truncate_half(&seg(d, 1))),
        ),
        (
            "crc byte cut",
            Box::new(move |d: &Path| {
                let len = fs::metadata(seg(d, 2)).unwrap().len();
                truncate_to(&seg(d, 2), len - 1);
            }),
        ),
        (
            "flipped byte",
            Box::new(move |d: &Path| flip_byte(&seg(d, 1), 20)),
        ),
        (
            "missing file",
            Box::new(move |d: &Path| fs::remove_file(seg(d, 2)).unwrap()),
        ),
        (
            "listed twice",
            Box::new(|d: &Path| edit_entries(d, |e| e[1] = e[0].clone())),
        ),
        (
            "seq skips",
            Box::new(|d: &Path| {
                edit_entries(d, |e| e[2] = e[2].replace("\"seq\":2", "\"seq\":3"));
            }),
        ),
    ];
    for (name, damage) in cases {
        let tmp = TempDir::new(&format!("agree-{}", name.replace(' ', "-")));
        let copy = TempDir::new(&format!("agree-copy-{}", name.replace(' ', "-")));
        commit_weeks(&tmp.0, 4);
        damage(&tmp.0);

        let scrub = scrub_store(&StdDisk, &tmp.0).unwrap();
        let view = StoreView::open(&tmp.0).unwrap();
        assert_eq!(scrub.segments.len(), 4, "{name}: every committed entry");
        assert_eq!(scrub.healthy(), name == "intact", "{name}: {scrub:?}");
        assert_eq!(scrub.healthy(), !view.recovered(), "{name}: {scrub:?}");
        let leading = scrub
            .segments
            .iter()
            .take_while(|s| s.verdict == SegmentVerdict::Ok)
            .count();
        assert_eq!(view.generation() as usize, leading, "{name}: {scrub:?}");

        copy_dir(&tmp.0, &copy.0);
        let store = CampaignStore::open(&copy.0).unwrap();
        assert_eq!(store.snapshot_count() as usize, leading, "{name}");
        assert_eq!(segment_files(&copy.0), leading, "{name}");
        for seq in 0..leading as u32 {
            assert_eq!(store.snapshot(seq).unwrap(), view.snapshot(seq).unwrap());
        }
    }
}

#[test]
fn scrub_passes_a_clean_store_and_lists_orphans() {
    let tmp = TempDir::new("clean");
    let mut store = CampaignStore::open(&tmp.0).unwrap();
    commit_ip(&mut store, "week-0", 10, 1_000);
    commit_ip(&mut store, "week-1", 20, 2_000);

    let report = scrub_store(&StdDisk, &tmp.0).unwrap();
    assert!(report.healthy(), "{report:?}");
    assert_eq!(report.committed, 2);
    assert_eq!(report.segments.len(), 2);
    assert!(report.orphans.is_empty());

    // A stray file the manifest does not list is reported but does
    // not fail the scrub — the committed data is intact.
    fs::write(tmp.0.join("seg-99999.gws"), b"stray").unwrap();
    let report = scrub_store(&StdDisk, &tmp.0).unwrap();
    assert!(report.healthy());
    assert_eq!(report.orphans, vec!["seg-99999.gws".to_string()]);
}

/// Faults are armed on a handle: a store opened through another disk
/// never sees them, and each budget is spent shot by shot.
#[test]
fn faults_shim_is_scoped_and_budgeted() {
    let tmp_a = TempDir::new("faults-a");
    let tmp_b = TempDir::new("faults-b");
    for tmp in [&tmp_a, &tmp_b] {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_ip(&mut store, "week-0", 10, 1_000);
    }
    let (faulty, other) = (Arc::new(Faulty::default()), Arc::new(Faulty::default()));
    let open_a = || StoreView::open_on(faulty.clone(), &tmp_a.0);

    // Scoped: a manifest fault armed on A's handle fails its open but
    // leaves store B, opened on another handle, untouched. A file that
    // is neither a manifest nor a segment reads clean and spends nothing.
    faulty.arm(&FaultSpec {
        manifest_read_errors: 1,
        ..FaultSpec::default()
    });
    fs::write(tmp_a.0.join("notes.json"), b"{}").unwrap();
    assert_eq!(faulty.read(&tmp_a.0.join("notes.json")).unwrap(), b"{}");
    assert!(open_a().is_err());
    assert_eq!(StoreView::open_on(other, &tmp_b.0).unwrap().generation(), 1);
    // Budgeted: the single shot is spent; A opens fine now.
    assert_eq!(open_a().unwrap().generation(), 1);

    // A segment fault reads as a torn file: the open rolls back to an
    // empty (recovered) view rather than erroring.
    faulty.arm(&FaultSpec {
        segment_corruptions: 1,
        ..FaultSpec::default()
    });
    let view = open_a().unwrap();
    assert_eq!(view.generation(), 0);
    assert!(view.recovered());

    // A write fault fails the commit like a full disk; disarming
    // makes the next commit succeed.
    faulty.arm(&FaultSpec {
        write_enospc: 1_000_000,
        ..FaultSpec::default()
    });
    let mut store = CampaignStore::open_on(faulty.clone(), &tmp_a.0).unwrap();
    store.observe(Observation::at(20, 0, 2_000));
    let err = store.commit("week-1", 2_000, &[]).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    faulty.arm(&FaultSpec::default());
    store.observe(Observation::at(30, 0, 3_000));
    store.commit("week-2", 3_000, &[]).unwrap();

    // Disarmed, everything reads clean again.
    let view = open_a().unwrap();
    assert!(view.index().lookup(30).is_some());
}
