//! Stress test: a writer committing new generations while reader
//! threads concurrently open and refresh [`StoreView`]s. Readers must
//! only ever observe fully committed generations — never a torn
//! manifest, never a mix of segments from different generations.
//!
//! The generation contract makes torn reads detectable: commit `s`
//! contains exactly the IPs `1..=10+s`, all stamped `BASE_MS + s`, so
//! any view whose contents disagree with its own generation number
//! caught the store mid-commit.

mod common;

use common::TempDir;
use scanstore::{CampaignStore, Observation, ObservationSink, SnapshotSink, StoreView};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BASE_MS: u64 = 1_000_000;
const COMMITS: u32 = 24;

/// Checks every generation-dependent invariant of one view.
fn check_view(view: &StoreView) {
    let g = view.generation();
    if g == 0 {
        return; // opened before the first commit landed
    }
    let idx = view.index();
    assert_eq!(idx.snapshot_sizes().len() as u32, g);
    for s in 0..g {
        // Labels must be the contiguous prefix week-0..week-(g-1): a
        // mixed-generation view would skip or repeat one.
        let (label, t_ms, _meta) = view
            .segment_meta(s)
            .unwrap_or_else(|| panic!("generation {g} is missing segment {s}"));
        assert_eq!(label, format!("week-{s}"), "segment order torn");
        assert_eq!(t_ms, BASE_MS + u64::from(s));
        // Commit s holds exactly 10+s IPs.
        assert_eq!(idx.snapshot_sizes()[s as usize], u64::from(10 + s));
    }
    // IP 1 is in every commit; its summary must match the view's own
    // generation exactly.
    let e = idx.lookup(1).expect("ip 1 is in every commit");
    assert_eq!(e.rounds, g, "rounds disagree with generation");
    assert_eq!(e.last_seq, g - 1);
    assert_eq!(e.latest.last_seen_ms, BASE_MS + u64::from(g - 1));
    assert!(e.live);
    // The newest IP of the latest commit exists; one past it does not.
    assert!(idx.lookup(10 + g - 1).is_some());
    assert!(idx.lookup(10 + g).is_none());
}

fn write_generations(dir: &Path) {
    let mut store = CampaignStore::open(dir).unwrap();
    for s in 0..COMMITS {
        for ip in 1..=(10 + s) {
            store.observe(Observation::at(ip, 0, BASE_MS + u64::from(s)));
        }
        store
            .commit(&format!("week-{s}"), BASE_MS + u64::from(s), &[])
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn readers_never_observe_torn_or_mixed_generations() {
    let tmp = TempDir::new("torn-read");
    let dir = tmp.0.clone();
    // First commit before any reader starts, so `StoreView::open`
    // always has a manifest to find.
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        store.observe(Observation::at(1, 0, BASE_MS));
        for ip in 2..=10u32 {
            store.observe(Observation::at(ip, 0, BASE_MS));
        }
        store.commit("week-0", BASE_MS, &[]).unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for reader in 0..4u32 {
        let dir = dir.clone();
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut view = StoreView::open(&dir).unwrap();
            let mut reopens = 0u32;
            let mut max_gen = 0u32;
            while !done.load(Ordering::SeqCst) {
                // Half the readers re-open cold, half refresh a
                // long-lived view; both paths must hold the contract.
                if reader % 2 == 0 {
                    view = StoreView::open(&dir).unwrap();
                } else {
                    view = view.refresh().unwrap();
                }
                check_view(&view);
                assert!(
                    view.generation() >= max_gen,
                    "generation went backwards: {} < {max_gen}",
                    view.generation()
                );
                max_gen = view.generation();
                reopens += 1;
            }
            reopens
        }));
    }

    // The writer runs on this thread; `CampaignStore` keeps exclusive
    // write ownership while views read concurrently.
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        for s in 1..COMMITS {
            for ip in 1..=(10 + s) {
                store.observe(Observation::at(ip, 0, BASE_MS + u64::from(s)));
            }
            store
                .commit(&format!("week-{s}"), BASE_MS + u64::from(s), &[])
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    done.store(true, Ordering::SeqCst);
    for reader in readers {
        let reopens = reader.join().expect("reader saw a torn store");
        assert!(reopens > 0, "reader never completed a read");
    }

    // After the dust settles everyone converges on the final
    // generation.
    let view = StoreView::open(&dir).unwrap();
    assert_eq!(view.generation(), COMMITS);
    check_view(&view);
}

#[test]
fn cloned_views_share_segments_across_threads() {
    let tmp = TempDir::new("clone-share");
    write_generations(&tmp.0);
    let view = StoreView::open(&tmp.0).unwrap();
    // A view is Send + Sync: fan one instance out to threads that all
    // answer from the same decoded segments.
    let view = Arc::new(view);
    let mut workers = Vec::new();
    for _ in 0..4 {
        let view = Arc::clone(&view);
        workers.push(std::thread::spawn(move || {
            check_view(&view);
            view.index().entries().len()
        }));
    }
    for w in workers {
        assert_eq!(w.join().unwrap(), (10 + COMMITS - 1) as usize);
    }
}
