//! Reader resilience under mid-commit corruption, and the faults/scrub
//! surfaces that back the serve-chaos harness (DESIGN §13).

mod common;

use common::TempDir;
use scanstore::sink::{ObservationSink, SnapshotSink};
use scanstore::{scrub_store, CampaignStore, FaultSpec, Observation, SegmentVerdict, StoreView};
use std::fs;

fn commit_ip(store: &mut CampaignStore, label: &str, ip: u32, t_ms: u64) {
    store.observe(Observation::at(ip, 0, t_ms));
    store.commit(label, t_ms, &[]).unwrap();
}

fn rollbacks() -> u64 {
    telemetry::snapshot()
        .counter("scanstore.view.rollbacks")
        .unwrap_or(0)
}

fn truncate_half(path: &std::path::Path) {
    let len = fs::metadata(path).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len / 2).unwrap();
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
    let report = scrub_store(&tmp.0).unwrap();
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

#[test]
fn scrub_passes_a_clean_store_and_lists_orphans() {
    let tmp = TempDir::new("clean");
    let mut store = CampaignStore::open(&tmp.0).unwrap();
    commit_ip(&mut store, "week-0", 10, 1_000);
    commit_ip(&mut store, "week-1", 20, 2_000);

    let report = scrub_store(&tmp.0).unwrap();
    assert!(report.healthy(), "{report:?}");
    assert_eq!(report.committed, 2);
    assert_eq!(report.segments.len(), 2);
    assert!(report.orphans.is_empty());

    // A stray file the manifest does not list is reported but does
    // not fail the scrub — the committed data is intact.
    fs::write(tmp.0.join("seg-99999.gws"), b"stray").unwrap();
    let report = scrub_store(&tmp.0).unwrap();
    assert!(report.healthy());
    assert_eq!(report.orphans, vec!["seg-99999.gws".to_string()]);
}

/// All faults-shim arming lives in this one test: the shim is a
/// process-global single slot, and integration tests in other files
/// run as separate processes.
#[test]
fn faults_shim_is_scoped_and_budgeted() {
    let tmp_a = TempDir::new("faults-a");
    let tmp_b = TempDir::new("faults-b");
    for tmp in [&tmp_a, &tmp_b] {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_ip(&mut store, "week-0", 10, 1_000);
    }

    // Scoped: a manifest fault armed for store A fails its open but
    // leaves store B untouched.
    scanstore::faults::arm(&FaultSpec {
        scope: tmp_a.0.to_string_lossy().into_owned(),
        manifest_read_errors: 1,
        ..FaultSpec::default()
    });
    assert!(StoreView::open(&tmp_a.0).is_err());
    assert_eq!(StoreView::open(&tmp_b.0).unwrap().generation(), 1);
    // Budgeted: the single shot is spent; A opens fine now.
    assert_eq!(StoreView::open(&tmp_a.0).unwrap().generation(), 1);
    scanstore::faults::disarm();

    // A segment fault reads as a torn file: the open rolls back to an
    // empty (recovered) view rather than erroring.
    scanstore::faults::arm(&FaultSpec {
        scope: tmp_a.0.to_string_lossy().into_owned(),
        segment_corruptions: 1,
        ..FaultSpec::default()
    });
    let view = StoreView::open(&tmp_a.0).unwrap();
    assert_eq!(view.generation(), 0);
    assert!(view.recovered());
    scanstore::faults::disarm();

    // A write fault fails the commit like a full disk; disarming
    // makes the next commit succeed.
    scanstore::faults::arm(&FaultSpec {
        scope: tmp_a.0.to_string_lossy().into_owned(),
        write_enospc: 1_000_000,
        ..FaultSpec::default()
    });
    let mut store = CampaignStore::open(&tmp_a.0).unwrap();
    store.observe(Observation::at(20, 0, 2_000));
    let err = store.commit("week-1", 2_000, &[]).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    scanstore::faults::disarm();
    store.observe(Observation::at(30, 0, 3_000));
    store.commit("week-2", 3_000, &[]).unwrap();

    // Disarmed, everything reads clean again.
    let view = StoreView::open(&tmp_a.0).unwrap();
    assert!(view.index().lookup(30).is_some());
}
