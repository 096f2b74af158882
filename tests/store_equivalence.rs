//! Store-vs-scratch equivalence and checkpoint/resume, end to end.
//!
//! The acceptance bar: `repro --exp fig1 --store <dir>` run twice must
//! produce identical output, with the second run serving from the
//! store; a killed first run must resume from the last committed
//! segment rather than week 0; and a store is a pure function of
//! `(seed, scale, flags)`, every byte of every campaign directory.
//! These tests assert exactly that at `WorldConfig::tiny` through the
//! library entry point the binary uses: `collect_bundle` into a store
//! directory (or into memory for the scratch reference),
//! `*_from_source` back out.

use goingwild::experiments::table1_country_flux;
use goingwild::experiments::{Fig1Report, Fig2Report};
use goingwild::{
    collect_bundle, fig1_from_source, fig2_from_source, BundleOptions, CampaignKind, WorldConfig,
};
use scanstore::StoreStats;
use std::fs;
use std::io;
use std::path::Path;

mod common;
use common::{tree, TempDir};

/// Run (or resume, or merely reopen) `kind` for `weeks` weeks — into
/// the persistent store under `dir`, or into a throwaway in-memory sink
/// for the scratch reference — and derive a report back out of it.
fn collected<R>(
    cfg: WorldConfig,
    weeks: u32,
    kind: CampaignKind,
    dir: Option<&Path>,
    derive: fn(&dyn scanstore::SnapshotSource) -> io::Result<R>,
) -> io::Result<(R, Option<StoreStats>)> {
    let opts = BundleOptions {
        weeks,
        ..BundleOptions::new(cfg)
    };
    let bundle = collect_bundle(&opts, &[kind], dir)?;
    let stats = bundle
        .store_stats()
        .into_iter()
        .find(|(name, _)| *name == kind.name());
    Ok((derive(bundle.source(kind)?)?, stats.map(|(_, stats)| stats)))
}

fn scratch_fig1(cfg: WorldConfig, weeks: u32) -> Fig1Report {
    let scratch = collected(cfg, weeks, CampaignKind::Weekly, None, fig1_from_source);
    scratch.expect("in-memory sink cannot fail").0
}

fn stored_fig1(cfg: WorldConfig, weeks: u32, dir: &Path) -> io::Result<(Fig1Report, StoreStats)> {
    let (report, stats) = collected(
        cfg,
        weeks,
        CampaignKind::Weekly,
        Some(dir),
        fig1_from_source,
    )?;
    Ok((report, stats.expect("a disk-backed campaign")))
}

fn scratch_fig2(cfg: WorldConfig, weeks: u32) -> Fig2Report {
    let scratch = collected(cfg, weeks, CampaignKind::Churn, None, fig2_from_source);
    scratch.expect("in-memory sink cannot fail").0
}

fn stored_fig2(cfg: WorldConfig, weeks: u32, dir: &Path) -> io::Result<(Fig2Report, StoreStats)> {
    let (report, stats) = collected(cfg, weeks, CampaignKind::Churn, Some(dir), fig2_from_source)?;
    Ok((report, stats.expect("a disk-backed campaign")))
}

fn weekly_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir.join("weekly"))
        .expect("store dir")
        .map(|e| {
            let e = e.expect("dirent");
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("read"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fig1_from_store_is_byte_identical_to_scratch() {
    const WEEKS: u32 = 3;
    let cfg = WorldConfig::tiny(0xE0);
    let tmp = TempDir::new("fig1");

    let scratch = scratch_fig1(cfg.clone(), WEEKS);
    let (first, stats1) = stored_fig1(cfg.clone(), WEEKS, &tmp.0).expect("collect into store");
    assert_eq!(stats1.segments, WEEKS);
    assert_eq!(stats1.resumed_at, None, "first run starts from scratch");
    assert_eq!(
        serde_json::to_string(&scratch).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "store-backed fig1 must match the in-memory run byte-for-byte"
    );
    // Tables 1–2 derive from the same report, so equality carries over.
    assert_eq!(
        serde_json::to_string(&table1_country_flux(&scratch, 10)).unwrap(),
        serde_json::to_string(&table1_country_flux(&first, 10)).unwrap(),
    );

    // Second run: served from disk, nothing re-simulated.
    let before = weekly_files(&tmp.0);
    let (second, stats2) = stored_fig1(cfg, WEEKS, &tmp.0).expect("serve from store");
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap(),
    );
    assert_eq!(
        stats2.resumed_at,
        Some(WEEKS),
        "second run reads the checkpoint"
    );
    assert_eq!(
        before,
        weekly_files(&tmp.0),
        "a fully-collected store must not be rewritten by a read"
    );
}

#[test]
fn killed_weekly_campaign_resumes_from_checkpoint() {
    const WEEKS: u32 = 3;
    // At 1 % packet loss: every loss roll is keyed on the flow, not on a
    // count of the packets sent before it, so the weeks re-simulated
    // after a kill lose exactly the packets the uninterrupted run lost.
    let cfg = WorldConfig {
        udp_loss: 0.01,
        ..WorldConfig::tiny(0xE1)
    };
    let tmp = TempDir::new("resume");

    // A run killed after committing week 0 (simulated by collecting a
    // shorter campaign, then tearing the next segment's write).
    stored_fig1(cfg.clone(), 1, &tmp.0).expect("partial campaign");
    fs::write(tmp.0.join("weekly/seg-00001.gws"), b"torn mid-write").unwrap();
    let seg0 = fs::read(tmp.0.join("weekly/seg-00000.gws")).unwrap();

    let (resumed, stats) = stored_fig1(cfg.clone(), WEEKS, &tmp.0).expect("resume");
    assert_eq!(stats.segments, WEEKS);
    assert_eq!(
        stats.resumed_at,
        Some(1),
        "resumes after week 0, not from week 0"
    );
    assert_eq!(
        fs::read(tmp.0.join("weekly/seg-00000.gws")).unwrap(),
        seg0,
        "the committed prefix is never rewritten"
    );
    // The resumed campaign reproduces the uninterrupted run exactly —
    // and the loss is real: the loss-free world answers more.
    let scratch = scratch_fig1(cfg, WEEKS);
    assert_eq!(
        serde_json::to_string(&scratch).unwrap(),
        serde_json::to_string(&resumed).unwrap(),
    );
    let lossless = scratch_fig1(WorldConfig::tiny(0xE1), WEEKS);
    assert!(
        lossless.weeks[WEEKS as usize - 1].all > resumed.weeks[WEEKS as usize - 1].all,
        "1 % loss must cost the last sweep some responders"
    );
}

#[test]
fn fig2_from_store_matches_scratch_and_reopens_clean() {
    const WEEKS: u32 = 2;
    let cfg = WorldConfig::tiny(0xE2);
    let tmp = TempDir::new("fig2");

    let scratch = scratch_fig2(cfg.clone(), WEEKS);
    let (first, stats1) = stored_fig2(cfg.clone(), WEEKS, &tmp.0).expect("collect churn");
    // cohort + day1 + one snapshot per weekly probe.
    assert_eq!(stats1.segments, WEEKS + 2);
    assert_eq!(
        serde_json::to_string(&scratch).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "store-backed fig2 must match the in-memory run byte-for-byte"
    );

    let (second, stats2) = stored_fig2(cfg, WEEKS, &tmp.0).expect("serve from store");
    assert_eq!(stats2.resumed_at, Some(WEEKS + 2));
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap(),
    );
}

/// Two collections of every campaign with the same options write the
/// same bytes — `chaos/` and `banner/` included, whose observations
/// (and so string ids) used to follow a `HashMap`'s iteration order.
#[test]
fn two_collections_of_every_campaign_write_identical_stores() {
    let cfg = WorldConfig {
        weeks: 2,
        ..WorldConfig::tiny(0xE3)
    };
    let opts = BundleOptions {
        snoop_sample: 40,
        snoop_rounds: 2,
        ..BundleOptions::new(cfg)
    };
    let (a, b) = (TempDir::new("all-a"), TempDir::new("all-b"));
    for dir in [&a, &b] {
        collect_bundle(&opts, &CampaignKind::ALL, Some(&dir.0)).expect("collect");
    }
    let (a, b) = (tree(&a.0), tree(&b.0));
    assert!(a.iter().any(|(path, _)| path.starts_with("chaos")));
    assert!(a.iter().any(|(path, _)| path.starts_with("banner")));
    for ((path_a, bytes_a), (path_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(path_a, path_b);
        assert!(
            bytes_a == bytes_b,
            "{} differs between two runs",
            path_a.display()
        );
    }
    assert_eq!(a.len(), b.len());
}
