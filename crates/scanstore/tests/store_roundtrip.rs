//! Integration tests for the persistent store: property-based
//! encode/decode round-trips, torn-write recovery,
//! checkpoint/resume semantics, and the crash points of a grouped
//! checkpoint.

mod common;

use common::TempDir;
use proptest::prelude::*;
use scanstore::record::{decode_record, encode_record};
use scanstore::segment::{self, Kind, Segment};
use scanstore::varint::Reader;
use scanstore::{
    CampaignStore, FaultSpec, MemoryStore, Observation, ObservationSink, SnapshotDiff,
    SnapshotSink, SnapshotSource, StoreView,
};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

const BASE_MS: u64 = 1_000_000;

fn arb_observation() -> impl Strategy<Value = Observation> {
    (
        any::<u32>(),
        any::<u8>(),
        any::<u8>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        0u64..1 << 40,
        0u64..1 << 40,
    )
        .prop_map(
            |(ip, rcode, flags, software, country, banner_hash, first, dur)| Observation {
                ip,
                rcode,
                flags,
                software,
                device: software % 7,
                country,
                asn: country.rotate_left(5),
                rdns: country % 3,
                banner_hash,
                value: banner_hash ^ dur,
                first_seen_ms: first,
                last_seen_ms: first + dur,
            },
        )
}

/// Sorted-unique batch, as produced by a sink commit.
fn arb_batch() -> impl Strategy<Value = Vec<Observation>> {
    proptest::collection::vec(arb_observation(), 0..120).prop_map(|mut v| {
        v.sort_by_key(|o| o.ip);
        v.dedup_by_key(|o| o.ip);
        v
    })
}

/// Observations at the edges of the record codec: the last address,
/// all-ones payloads, a last-seen before the first-seen, and a
/// first-seen before the snapshot's own timestamp (`BASE_MS`).
fn arb_edge_observation() -> impl Strategy<Value = Observation> {
    (
        arb_observation(),
        prop_oneof![Just(u32::MAX), any::<u32>()],
        prop_oneof![Just(u64::MAX), any::<u64>()],
        prop_oneof![Just(u64::MAX), Just(0u64), any::<u64>()],
        0u64..2 * BASE_MS,
        0u64..2 * BASE_MS,
    )
        .prop_map(|(o, ip, banner_hash, value, first, last)| Observation {
            ip,
            banner_hash,
            value,
            first_seen_ms: first,
            last_seen_ms: last,
            ..o
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-memory store keeps a committed snapshot as record-codec
    /// bytes; whatever went in must come back out, one snapshot at a
    /// time or streamed, with labels, meta and strings as committed.
    #[test]
    fn memory_store_packed_snapshots_roundtrip(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_edge_observation(), 0..60),
            1..5,
        ),
    ) {
        let mut store = MemoryStore::new();
        let us = store.intern("US");
        let mut sealed = Vec::new();
        for (w, batch) in batches.iter().enumerate() {
            for o in batch {
                store.observe(*o);
            }
            let meta = vec![("truth".to_string(), w.to_string())];
            let seq = store.commit(&format!("week-{w}"), BASE_MS + w as u64, &meta).unwrap();
            prop_assert_eq!(seq as usize, w);
            // What a commit seals: sorted by address, first one wins.
            let mut want = batch.clone();
            want.sort_by_key(|o| o.ip);
            want.dedup_by_key(|o| o.ip);
            sealed.push(want);
        }
        prop_assert_eq!(store.snapshot_count() as usize, batches.len());
        let mut streamed = Vec::new();
        store.for_each_snapshot(&mut |snap| {
            streamed.push(snap.clone());
            Ok(())
        }).unwrap();
        for (w, want) in sealed.iter().enumerate() {
            let snap = store.snapshot(w as u32).unwrap();
            prop_assert_eq!(&snap.records, want);
            prop_assert_eq!(snap.seq as usize, w);
            prop_assert_eq!(&snap.label, &format!("week-{w}"));
            prop_assert_eq!(snap.t_ms, BASE_MS + w as u64);
            prop_assert_eq!(snap.meta_value("truth"), Some(w.to_string().as_str()));
            prop_assert_eq!(&streamed[w], &snap);
            prop_assert_eq!(store.find_label(&format!("week-{w}")), Some(w as u32));
        }
        prop_assert_eq!(streamed.len(), sealed.len());
        prop_assert_eq!(store.find_label("week-9"), None);
        prop_assert!(store.snapshot(batches.len() as u32).is_err());
        prop_assert_eq!(store.string(us), "US");
    }

    #[test]
    fn record_roundtrip_arbitrary(obs in arb_observation(), prev in any::<u32>()) {
        let prev_ip = prev.min(obs.ip);
        let mut buf = Vec::new();
        encode_record(&mut buf, &obs, prev_ip, BASE_MS);
        let mut r = Reader::new(&buf);
        let back = decode_record(&mut r, prev_ip, BASE_MS).unwrap();
        prop_assert_eq!(back, obs);
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn segment_roundtrip_arbitrary_batches(prev in arb_batch(), next in arb_batch()) {
        let diff = SnapshotDiff::between(&prev, &next);
        prop_assert_eq!(diff.apply(&prev), next.clone());
        let seg = Segment {
            seq: 1,
            t_ms: BASE_MS,
            kind: Kind::Delta,
            label: "week-1".to_string(),
            meta: vec![("truth".to_string(), "42".to_string())],
            new_strings: vec!["US".to_string()],
            diff,
        };
        let decoded = segment::decode(&segment::encode(&seg)).unwrap();
        prop_assert_eq!(decoded, seg);
    }

    #[test]
    fn store_roundtrip_arbitrary_batches(batches in proptest::collection::vec(arb_batch(), 1..5)) {
        let tmp = TempDir::new("prop-store");
        {
            let mut store = CampaignStore::open(&tmp.0).unwrap();
            for (w, batch) in batches.iter().enumerate() {
                for o in batch {
                    store.observe(*o);
                }
                store
                    .commit(&format!("week-{w}"), BASE_MS + w as u64, &[])
                    .unwrap();
            }
        }
        let store = CampaignStore::open(&tmp.0).unwrap();
        prop_assert_eq!(store.snapshot_count() as usize, batches.len());
        for (w, batch) in batches.iter().enumerate() {
            let snap = store.snapshot(w as u32).unwrap();
            prop_assert_eq!(&snap.records, batch);
            prop_assert_eq!(snap.label, format!("week-{w}"));
        }
    }
}

fn obs(ip: u32, rcode: u8) -> Observation {
    Observation::at(ip, rcode, BASE_MS)
}

fn commit_weeks(store: &mut CampaignStore, weeks: std::ops::Range<u32>) {
    for w in weeks {
        // Population drifts so every segment has removals and upserts.
        for ip in 0..200u32 {
            if (ip + w) % 7 != 0 {
                store.observe(obs(ip, (ip % 3) as u8));
            }
        }
        store
            .commit(&format!("week-{w}"), BASE_MS + u64::from(w), &[])
            .unwrap();
    }
}

#[test]
fn torn_write_rolls_back_to_last_valid_segment() {
    let tmp = TempDir::new("torn");
    {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_weeks(&mut store, 0..3);
        assert_eq!(store.snapshot_count(), 3);
    }
    // Tear the last segment mid-record.
    let seg2 = tmp.0.join("seg-00002.gws");
    let bytes = fs::read(&seg2).unwrap();
    fs::write(&seg2, &bytes[..bytes.len() / 2]).unwrap();

    let store = CampaignStore::open(&tmp.0).unwrap();
    assert_eq!(store.snapshot_count(), 2, "checkpoint must roll back");
    assert_eq!(store.stats().recovery_events, 1);
    assert!(!seg2.exists(), "torn segment must be deleted");
    // The surviving prefix still serves intact snapshots.
    let snap = store.snapshot(1).unwrap();
    assert!(!snap.records.is_empty());

    // The campaign can re-run week 2 and commit on top of the rollback.
    let mut store = CampaignStore::open(&tmp.0).unwrap();
    commit_weeks(&mut store, 2..3);
    assert_eq!(store.snapshot_count(), 3);
    assert_eq!(store.stats().recovery_events, 1, "recovery count persists");
}

#[test]
fn corrupted_middle_segment_rolls_back_past_it() {
    let tmp = TempDir::new("bitflip");
    {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_weeks(&mut store, 0..4);
    }
    let seg1 = tmp.0.join("seg-00001.gws");
    let mut bytes = fs::read(&seg1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&seg1, &bytes).unwrap();

    let store = CampaignStore::open(&tmp.0).unwrap();
    assert_eq!(
        store.snapshot_count(),
        1,
        "only the prefix before the flip survives"
    );
    assert_eq!(store.stats().recovery_events, 1);
    assert!(
        !tmp.0.join("seg-00002.gws").exists(),
        "segments past the rollback are deleted"
    );
    assert!(!tmp.0.join("seg-00003.gws").exists());
}

#[test]
fn resume_keeps_committed_prefix_bytes_unchanged() {
    let tmp = TempDir::new("resume");
    {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        assert_eq!(store.resumed_at(), None);
        commit_weeks(&mut store, 0..2);
    }
    let seg0 = fs::read(tmp.0.join("seg-00000.gws")).unwrap();
    let seg1 = fs::read(tmp.0.join("seg-00001.gws")).unwrap();

    {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        assert_eq!(store.resumed_at(), Some(2), "resume skips committed weeks");
        commit_weeks(&mut store, 2..4);
        assert_eq!(store.snapshot_count(), 4);
    }
    assert_eq!(fs::read(tmp.0.join("seg-00000.gws")).unwrap(), seg0);
    assert_eq!(fs::read(tmp.0.join("seg-00001.gws")).unwrap(), seg1);

    let store = CampaignStore::open(&tmp.0).unwrap();
    let stats = store.stats();
    assert_eq!(stats.segments, 4);
    assert_eq!(stats.recovery_events, 0, "clean resume is not a recovery");
    assert!(stats.bytes_written > 0);
    assert!(
        stats.compression_ratio > 1.0,
        "delta coding must beat JSON lines"
    );
}

/// The weekly-enumeration shape: 8 weeks × 20,000 addresses at
/// a fixed stride, ~1/7 of them rotating out each week. Encoding is
/// deterministic, and this workload measures 24,411,453 JSON-lines
/// bytes against 2,488,914 written — 9.8×. The bound leaves a fifth
/// of that as margin for format changes that trade a little density.
#[test]
fn weekly_shaped_workload_compresses_at_least_8x() {
    let tmp = TempDir::new("ratio");
    let mut store = CampaignStore::open(&tmp.0).unwrap();
    let software = store.intern("dnsmasq-2.51");
    let country = store.intern("CN");
    for week in 0..8u64 {
        for i in 0..20_000u32 {
            let ip = 0x0a00_0000 + i * 11;
            if (ip as u64 + week).is_multiple_of(7) {
                continue; // rotated out this week
            }
            let mut o = Observation::at(ip, 0, BASE_MS + week * 604_800_000);
            o.software = software;
            o.country = country;
            o.banner_hash = (ip as u64) << 7 | week;
            store.observe(o);
        }
        store
            .commit(&format!("week-{week}"), week * 604_800_000, &[])
            .unwrap();
    }
    let stats = store.stats();
    assert!(
        stats.compression_ratio >= 8.0,
        "{} bytes written for {} of JSON lines: {:.2}x, expected about 9.8x",
        stats.bytes_written,
        stats.json_bytes_equiv,
        stats.compression_ratio
    );
}

#[test]
fn orphan_segment_and_tmp_files_are_swept() {
    let tmp = TempDir::new("orphan");
    {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_weeks(&mut store, 0..2);
    }
    // Crash between segment rename and manifest write leaves an orphan.
    fs::write(tmp.0.join("seg-00002.gws"), b"half-written").unwrap();
    fs::write(tmp.0.join("seg-00003.gws.tmp"), b"scratch").unwrap();

    let store = CampaignStore::open(&tmp.0).unwrap();
    assert_eq!(store.snapshot_count(), 2);
    assert!(!tmp.0.join("seg-00002.gws").exists());
    assert!(!tmp.0.join("seg-00003.gws.tmp").exists());
}

#[test]
fn interned_strings_survive_reopen() {
    let tmp = TempDir::new("strings");
    let (us, de);
    {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        us = store.intern("US");
        de = store.intern("DE");
        let mut o = obs(1, 0);
        o.country = us;
        store.observe(o);
        store.commit("week-0", BASE_MS, &[]).unwrap();

        let mut o = obs(2, 0);
        o.country = de;
        store.observe(o);
        store.commit("week-1", BASE_MS + 1, &[]).unwrap();
    }
    let mut store = CampaignStore::open(&tmp.0).unwrap();
    assert_eq!(store.string(us), "US");
    assert_eq!(store.string(de), "DE");
    assert_eq!(
        store.intern("US"),
        us,
        "intern ids are stable across reopen"
    );
    assert_eq!(store.string(0), "");
}

#[test]
fn diff_cursor_matches_materialized_snapshots() {
    let tmp = TempDir::new("diff");
    {
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_weeks(&mut store, 0..3);
    }
    let store = CampaignStore::open(&tmp.0).unwrap();
    for seq in 0..2 {
        let prev = store.snapshot(seq).unwrap();
        let next = store.snapshot(seq + 1).unwrap();
        let expect = SnapshotDiff::between(&prev.records, &next.records);
        assert_eq!(store.diff(seq).unwrap(), expect);
    }
    assert!(store.diff(2).is_err(), "no diff past the last snapshot");
}

/// One week's commit that also interns a string of its own, so the
/// string table moves with every segment.
fn commit_tagged_week(store: &mut CampaignStore, w: u32) -> io::Result<u32> {
    let tag = store.intern(&format!("tag-{w}"));
    for ip in 0..60u32 {
        if !(ip + w).is_multiple_of(5) {
            let mut o = obs(ip, (ip % 3) as u8);
            o.country = tag;
            store.observe(o);
        }
    }
    store.commit(&format!("week-{w}"), BASE_MS + u64::from(w), &[])
}

/// Every file of a store directory, by name.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn grouped_and_ungrouped_commits_leave_identical_directories() {
    let (plain, grouped) = (TempDir::new("plain"), TempDir::new("grouped"));
    {
        let mut store = CampaignStore::open(&plain.0).unwrap();
        for w in 0..9 {
            commit_tagged_week(&mut store, w).unwrap();
        }
    }
    {
        let mut store = CampaignStore::open(&grouped.0).unwrap();
        commit_tagged_week(&mut store, 0).unwrap();
        store.begin_group();
        for w in 1..7 {
            assert_eq!(commit_tagged_week(&mut store, w).unwrap(), w);
        }
        assert_eq!(
            store.snapshot_count(),
            7,
            "the handle sees its staged commits"
        );
        // A reader that opens now sees the checkpoint before the group,
        // whatever segment files are lying about.
        let reader = StoreView::open(&grouped.0).unwrap();
        assert_eq!(reader.snapshot_count(), 1);
        assert!(!reader.recovered());
        assert!(grouped.0.join("seg-00006.gws").exists());
        store.end_group().unwrap();
        assert_eq!(reader.refresh().unwrap().snapshot_count(), 7);
        // An empty group and commits after a group are ordinary.
        store.begin_group();
        store.end_group().unwrap();
        for w in 7..9 {
            commit_tagged_week(&mut store, w).unwrap();
        }
    }
    let files = dir_bytes(&plain.0);
    assert_eq!(files.len(), 10, "nine segments and the manifest");
    assert_eq!(dir_bytes(&grouped.0), files);
    let store = CampaignStore::open(&grouped.0).unwrap();
    assert_eq!(store.snapshot_count(), 9);
    assert_eq!(store.stats().recovery_events, 0);
}

/// A group dies after `k` of its six segments were staged, for `k` at
/// the start, after one, in the middle and at the last segment, and at
/// the manifest write that would have sealed it. Whatever the point,
/// the directory reopens at the checkpoint before the group.
///
/// The fault shim is process-wide and single-slot, so every arming of
/// this binary lives in this one test.
#[test]
fn a_failed_group_leaves_the_previous_checkpoint() {
    let reference = TempDir::new("group-reference");
    let (before_files, before_current) = {
        let mut store = CampaignStore::open(&reference.0).unwrap();
        commit_tagged_week(&mut store, 0).unwrap();
        commit_tagged_week(&mut store, 1).unwrap();
        (dir_bytes(&reference.0), store.snapshot(1).unwrap().records)
    };
    let crash_points = [
        ("seg-00002", 0u32),
        ("seg-00003", 1),
        ("seg-00005", 3),
        ("seg-00007", 5),
        ("manifest.json", 6),
    ];
    for (failing_file, staged) in crash_points {
        let tmp = TempDir::new(&format!("group-crash-{staged}"));
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        commit_tagged_week(&mut store, 0).unwrap();
        commit_tagged_week(&mut store, 1).unwrap();

        scanstore::faults::arm(&FaultSpec {
            scope: tmp.0.join(failing_file).to_string_lossy().into_owned(),
            write_enospc: 1,
            ..FaultSpec::default()
        });
        store.begin_group();
        let outcome = (2..8)
            .try_for_each(|w| commit_tagged_week(&mut store, w).map(drop))
            .and_then(|()| store.end_group());
        scanstore::faults::disarm();
        let err = outcome.expect_err("the armed write fails the group");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(
            store.snapshot_count(),
            2 + staged,
            "crash point {failing_file}"
        );
        drop(store);

        // What the crash left: the old manifest and `staged` orphans.
        let reader = StoreView::open(&tmp.0).unwrap();
        assert_eq!(reader.snapshot_count(), 2, "crash point {failing_file}");
        assert!(!reader.recovered());
        assert_eq!(
            dir_bytes(&tmp.0).len(),
            before_files.len() + staged as usize,
            "crash point {failing_file}"
        );

        // Reopening sweeps them and resumes from before the group.
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        assert_eq!(store.snapshot_count(), 2, "crash point {failing_file}");
        assert_eq!(store.resumed_at(), Some(2));
        assert_eq!(
            store.stats().recovery_events,
            0,
            "orphans are not a rollback"
        );
        assert_eq!(store.stats().live_records, before_current.len() as u64);
        assert_eq!(store.snapshot(1).unwrap().records, before_current);
        assert_eq!(
            dir_bytes(&tmp.0),
            before_files,
            "crash point {failing_file}"
        );
        // The string table is the pre-group one: the group's strings are
        // gone and the next new string takes the first free id.
        let tag1 = store.intern("tag-1");
        assert_eq!((store.string(tag1), store.string(tag1 + 1)), ("tag-1", ""));
        assert_eq!(store.intern("tag-2"), tag1 + 1);
        drop(store);

        // The retried group then lands as if nothing had happened.
        let mut store = CampaignStore::open(&tmp.0).unwrap();
        store.begin_group();
        for w in 2..8 {
            commit_tagged_week(&mut store, w).unwrap();
        }
        store.end_group().unwrap();
        drop(store);
        let mut plain = CampaignStore::open(&reference.0).unwrap();
        for w in plain.snapshot_count()..8 {
            commit_tagged_week(&mut plain, w).unwrap();
        }
        drop(plain);
        assert_eq!(dir_bytes(&tmp.0), dir_bytes(&reference.0));
    }
}
