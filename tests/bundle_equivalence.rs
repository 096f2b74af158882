//! Collect-once/derive-many equivalence, end to end.
//!
//! The acceptance bar for the campaign bundle: `repro --exp all` must
//! print byte-identical reports to each single-experiment invocation,
//! and the full bundle must build exactly one world and run every
//! campaign at most once. Asserted here at `WorldConfig::tiny` through
//! the same library entry points the binary uses: derive every
//! registry experiment from one full bundle, re-collect each distinct
//! requirement subset alone, and compare the rendered outputs.

mod common;

use common::{tree, SharedBuf, TempDir};
use goingwild::experiments::{self, DeriveOptions, Experiment};
use goingwild::{collect_bundle, BundleData, BundleOptions, CampaignKind, WorldConfig};
use netsim::FaultPlan;
use scanner::ProbePolicy;
use scanstore::fnv1a;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use telemetry::Telemetry;

/// Runs `f` under a telemetry handle of its own: `collect_bundle`
/// counts lanes, world builds and campaign runs in it, and a trace or
/// the flight recorder attaches to it. Returns what `f` returned and
/// the handle.
fn isolated<T>(f: impl FnOnce() -> T) -> (T, Telemetry) {
    let tel = Telemetry::new();
    let out = {
        let _in = tel.enter();
        f()
    };
    (out, tel)
}

/// How many times `kind` ran in the collections under `tel`.
fn runs(tel: &Telemetry, kind: CampaignKind) -> u64 {
    let labels = [("campaign", kind.name())];
    tel.registry()
        .counter_with("collect.campaign_runs", &labels)
        .get()
}

#[test]
fn subset_derivations_match_full_bundle_and_campaigns_run_once() {
    let (opts, dopts) = lane_opts();

    // The full bundle: two lanes, a world each, each campaign at most
    // once.
    let (full, tel) = isolated(|| collect_bundle(&opts, &CampaignKind::ALL, None));
    let full = full.expect("full bundle");
    assert_eq!(
        lanes_and_world_builds(&tel),
        (2, 2),
        "the full bundle runs on two lanes, one world each"
    );
    for kind in CampaignKind::ALL {
        let runs = runs(&tel, kind);
        assert_eq!(runs, 1, "campaign `{}` must run exactly once", kind.name());
    }

    // The ablations are self-contained (empty requirements), so subset
    // identity is vacuous for them — and they are the one experiment
    // that builds worlds inside its derivation.
    let exps = campaign_experiments();
    let full_outputs = experiments::derive_all(&full, &exps, &dopts);

    // Re-collect each distinct requirement set alone and compare every
    // member experiment's rendered text byte for byte.
    let mut groups: BTreeMap<Vec<CampaignKind>, Vec<usize>> = BTreeMap::new();
    for (i, e) in exps.iter().enumerate() {
        groups.entry(e.requires.to_vec()).or_default().push(i);
    }
    for (kinds, members) in groups {
        let (mini, tel) = isolated(|| collect_bundle(&opts, &kinds, None));
        let mini = mini.expect("subset bundle");
        let domains_has_company = kinds.contains(&CampaignKind::Domains)
            && kinds
                .iter()
                .any(|k| !matches!(k, CampaignKind::Fleet | CampaignKind::Domains));
        let lanes = 1 + u64::from(domains_has_company);
        assert_eq!(
            lanes_and_world_builds(&tel),
            (lanes, lanes),
            "a bundle of {kinds:?}: one lane unless Domains has company, a world per lane"
        );
        for i in members {
            let exp = exps[i];
            let from_full = &full_outputs[i].as_ref().expect("derive from full").text;
            let from_mini = (exp.derive)(&mini, &dopts)
                .expect("derive from subset")
                .text;
            assert_eq!(
                *from_full, from_mini,
                "experiment `{}` must not depend on which other campaigns shared the bundle",
                exp.id
            );
        }
    }
}

/// `(collect.lanes, collect.world_builds)` of the collections under `tel`.
fn lanes_and_world_builds(tel: &Telemetry) -> (u64, u64) {
    let reg = tel.registry();
    (
        reg.counter("collect.lanes").get(),
        reg.counter("collect.world_builds").get(),
    )
}

/// The chaos-ready machinery must be invisible when disarmed: a bundle
/// collected with an explicitly installed no-op fault plan, the default
/// single-attempt probe policy, and coverage accounting (always on) derives
/// byte-identical reports to the plain default-options bundle.
#[test]
fn noop_fault_plan_and_single_probe_policy_are_byte_identical() {
    let (base, dopts) = lane_opts();
    let disarmed = BundleOptions {
        faults: Some(FaultPlan::none()),
        probe: ProbePolicy::single(),
        ..base.clone()
    };
    let plain = collect_bundle(&base, &CampaignKind::ALL, None).expect("plain bundle");
    let chaos_ready = collect_bundle(&disarmed, &CampaignKind::ALL, None).expect("disarmed bundle");
    let exps = campaign_experiments();
    let a = experiments::derive_all(&plain, &exps, &dopts);
    let b = experiments::derive_all(&chaos_ready, &exps, &dopts);
    for ((exp, ra), rb) in exps.iter().zip(a).zip(b) {
        assert_eq!(
            ra.expect("derive plain").text,
            rb.expect("derive disarmed").text,
            "experiment `{}` must be unaffected by a disarmed fault/retry engine",
            exp.id
        );
    }
    // And every campaign earned a coverage row during collection.
    for kind in CampaignKind::ALL {
        let cov = chaos_ready
            .coverage()
            .get(&kind)
            .unwrap_or_else(|| panic!("campaign `{}` must report coverage", kind.name()));
        assert!(
            cov.attempted > 0,
            "campaign `{}` coverage must count attempts",
            kind.name()
        );
        // On the pristine tiny network nothing times out wholesale.
        assert!(
            cov.fraction() > 0.5,
            "campaign `{}` fraction {} suspiciously low on a pristine network",
            kind.name(),
            cov.fraction()
        );
    }
}

// =====================================================================
// The lane contract
// =====================================================================

/// The suite's bundle: every campaign and every pipeline stage at
/// `WorldConfig::tiny`, the whole domain catalog included.
fn lane_opts() -> (BundleOptions, DeriveOptions) {
    let cfg = WorldConfig {
        weeks: 2,
        ..WorldConfig::tiny(20151028)
    };
    let opts = BundleOptions {
        snoop_sample: 60,
        snoop_rounds: 4,
        ..BundleOptions::new(cfg.clone())
    };
    let dopts = DeriveOptions {
        cfg,
        ..DeriveOptions::default()
    };
    (opts, dopts)
}

/// The same with a domain of each kind instead of all 155: what the
/// lanes owe each other does not depend on the catalog's size, and the
/// domain scan is most of a debug-build collection.
fn small_lane_opts() -> (BundleOptions, DeriveOptions) {
    let (mut opts, mut dopts) = lane_opts();
    opts.cfg.scale = 0.00005;
    dopts.cfg.scale = 0.00005;
    opts.snoop_sample = 30;
    opts.snoop_rounds = 2;
    opts.analysis.domains = Some(
        [
            "facebook.example",
            "youporn.example",
            "paypal.example",
            "adnet-one.example",
            "qzxkjv.example",
            "update.adobe.example",
            "torproject.example",
            "gt.gwild.example",
        ]
        .map(String::from)
        .to_vec(),
    );
    (opts, dopts)
}

/// The registry experiments that derive from collected campaigns.
fn campaign_experiments() -> Vec<&'static Experiment> {
    experiments::REGISTRY
        .iter()
        .filter(|e| !e.requires.is_empty())
        .collect()
}

fn reports(
    bundle: &BundleData,
    exps: &[&'static Experiment],
    dopts: &DeriveOptions,
) -> Vec<String> {
    experiments::derive_all(bundle, exps, dopts)
        .into_iter()
        .map(|r| r.expect("derive").text)
        .collect()
}

/// A full bundle into a disk store, and every campaign collected alone
/// (with the fleet it depends on) into a store of its own: every file
/// the lone collection wrote is byte-identical in the full store, and
/// every report it can derive reads the same. With `faults`, under that
/// profile with three attempts per probe — the fault plan's state lives
/// in the world, so each lane's world must see what the lone world saw.
fn assert_full_store_equals_each_campaign_alone(name: &str, faults: Option<&str>) {
    let (mut opts, dopts) = small_lane_opts();
    if let Some(profile) = faults {
        opts.faults = Some(FaultPlan::named(profile, opts.seed).expect("profile"));
        opts.probe = ProbePolicy::retrying(3);
    }
    let exps = campaign_experiments();
    let full_dir = TempDir::new(&format!("{name}-full"));
    let full = collect_bundle(&opts, &CampaignKind::ALL, Some(&full_dir.0)).expect("full bundle");
    assert_eq!(
        faults.is_some(),
        full.coverage().values().any(|cov| cov.retries > 0),
        "{name}: retransmissions happen under faults, and only there"
    );
    let full_tree: BTreeMap<_, _> = tree(&full_dir.0).into_iter().collect();
    let full_reports = reports(&full, &exps, &dopts);

    let mut compared = 0;
    for kind in CampaignKind::ALL {
        let dir = TempDir::new(&format!("{name}-{}", kind.name()));
        let alone = collect_bundle(&opts, &[kind], Some(&dir.0)).expect("lone campaign");
        for (path, bytes) in tree(&dir.0) {
            assert!(
                full_tree.get(&path) == Some(&bytes),
                "{name}: {} differs between the full bundle and `{}` collected alone",
                path.display(),
                kind.name()
            );
            compared += 1;
        }
        for (exp, from_full) in exps.iter().zip(&full_reports) {
            if exp.requires.iter().all(|k| alone.has(*k)) {
                let from_alone = (exp.derive)(&alone, &dopts).expect("derive").text;
                assert_eq!(*from_full, from_alone, "{name}: experiment `{}`", exp.id);
            }
        }
    }
    // Every file of the full store was some lone collection's file too.
    assert!(
        compared >= full_tree.len(),
        "{compared} < {}",
        full_tree.len()
    );
    for kind in CampaignKind::ALL {
        assert!(full_tree.keys().any(|p| p.starts_with(kind.name())));
    }

    // The cohort snapshot carries the instant the fleet sweep finished,
    // which the churn lane never swept: it crossed lanes.
    let cohort = full
        .source(CampaignKind::Churn)
        .and_then(|src| src.snapshot(0))
        .expect("cohort snapshot");
    assert!(
        cohort.t_ms > netsim::SimTime::HOUR,
        "cohort stamped {} ms: the fleet sweep's pumping is missing",
        cohort.t_ms
    );
}

#[test]
fn full_store_equals_each_campaign_collected_alone() {
    assert_full_store_equals_each_campaign_alone("pristine", None);
}

#[test]
fn full_store_equals_each_campaign_collected_alone_under_faults() {
    for profile in ["flaky", "ratelimited", "hostile"] {
        assert_full_store_equals_each_campaign_alone(profile, Some(profile));
    }
}

/// FNV digests of one full bundle's four kinds of output.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    reports: u64,
    store: u64,
    trace: u64,
    record: u64,
}

/// Collects the full bundle of `opts` into a fresh disk store with a
/// trace and the flight recorder attached to a handle of its own, which
/// it returns with the digests.
fn traced_full_bundle(
    name: &str,
    (opts, dopts): (BundleOptions, DeriveOptions),
) -> (Digests, Telemetry) {
    let tel = Telemetry::new();
    let _in = tel.enter();
    let dir = TempDir::new(name);
    let buf = SharedBuf::default();
    telemetry::attach_trace(Box::new(buf.clone()));
    telemetry::recorder::enable(1.0, opts.seed, telemetry::recorder::DEFAULT_CAPACITY);
    let bundle = collect_bundle(&opts, &CampaignKind::ALL, Some(&dir.0)).expect("full bundle");
    telemetry::detach_trace().expect("flush trace");
    let records = telemetry::recorder::drain();
    telemetry::recorder::disable();
    assert!(!records.is_empty(), "the recorder captured nothing");

    let mut store = Vec::new();
    for (path, bytes) in tree(&dir.0) {
        store.extend_from_slice(path.to_string_lossy().as_bytes());
        store.extend_from_slice(&bytes);
    }
    let record: String = records.iter().map(|r| format!("{r:?}\n")).collect();
    let digests = Digests {
        reports: fnv1a(
            reports(&bundle, &campaign_experiments(), &dopts)
                .concat()
                .as_bytes(),
        ),
        store: fnv1a(&store),
        trace: fnv1a(&buf.contents()),
        record: fnv1a(record.as_bytes()),
    };
    (digests, tel)
}

/// "Byte-identical to the sequential bundle" as a test: these digests
/// were recorded at the commit before the lanes, where `collect_bundle`
/// walked the schedule on one thread over one world. The trace digest
/// was recorded anew once since (PR 22): `collect.progress` heartbeats
/// lost two attributes that had one possible value each, and that
/// commit's stream with the two cut out hashes to the value below. The
/// record digest was recorded anew once since: an attempt or give-up
/// record carries the AS the bought database names for the address
/// (`Vantage::asn`), not the planted resolver's, so a probe of an address
/// churn emptied no longer reads 0. The other three digests did not move.
#[test]
fn full_bundle_reproduces_the_sequential_digests() {
    assert_eq!(
        traced_full_bundle("sequential-digests", lane_opts()).0,
        Digests {
            reports: 8770696989380860093,
            store: 2913415903122669133,
            trace: 9076112760731201479,
            record: 9882867279304134655,
        }
    );
}

/// Nothing the scheduler does reaches an output: five collections in one
/// process, lanes racing differently each time, one digest — and each
/// collection ran every campaign once.
#[test]
fn five_traced_full_bundles_have_one_digest() {
    let (first, _) = traced_full_bundle("five-0", small_lane_opts());
    for round in 1..5 {
        let (again, tel) = traced_full_bundle(&format!("five-{round}"), small_lane_opts());
        assert_eq!(first, again, "round {round}");
        for kind in CampaignKind::ALL {
            let runs = runs(&tel, kind);
            assert_eq!(runs, 1, "campaign `{}` must run exactly once", kind.name());
        }
    }
}

/// Two `--metrics` snapshots of the same full bundle agree key for key
/// and value for value, wall-clock counters aside: no gauge is "whoever
/// wrote last".
#[test]
fn two_metrics_snapshots_of_the_full_bundle_are_equal() {
    let snapshot = || {
        let (opts, _) = small_lane_opts();
        let (full, tel) = isolated(|| collect_bundle(&opts, &CampaignKind::ALL, None));
        full.expect("full bundle");
        tel.registry()
            .snapshot()
            .to_json()
            .lines()
            .filter(|l| !l.contains("wall_us"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (a, b) = (snapshot(), snapshot());
    assert!(a.contains("collect.sim_end_ms") && a.contains("collect.lanes"));
    assert_eq!(a, b);
}

/// Makes `store`'s first commit fail: a segment is renamed into place,
/// and a file cannot be renamed over a non-empty directory.
fn block_first_segment(store: &Path) {
    fs::create_dir_all(store.join("seg-00000.gws/blocker")).expect("blocker");
}

/// A lane that fails ends the collection with its error — the other lane
/// neither hangs nor panics — and a re-run on the repaired directory
/// picks every campaign up from its own checkpoint.
#[test]
fn a_failing_lane_fails_the_collection_and_a_rerun_resumes() {
    let (opts, dopts) = small_lane_opts();
    let exps = campaign_experiments();
    let want = reports(
        &collect_bundle(&opts, &CampaignKind::ALL, None).expect("reference"),
        &exps,
        &dopts,
    );
    for broken in [CampaignKind::Domains, CampaignKind::Snoop] {
        let dir = TempDir::new(&format!("broken-{}", broken.name()));
        block_first_segment(&dir.0.join(broken.name()));
        let err = collect_bundle(&opts, &CampaignKind::ALL, Some(&dir.0))
            .err()
            .unwrap_or_else(|| panic!("a blocked `{}` store must fail", broken.name()));
        assert!(
            !err.to_string().contains("lane"),
            "the error is the store's, not a lane's complaint about another: {err}"
        );

        fs::remove_dir_all(dir.0.join(broken.name()).join("seg-00000.gws")).expect("repair");
        let (resumed, tel) = isolated(|| collect_bundle(&opts, &CampaignKind::ALL, Some(&dir.0)));
        let resumed = resumed.expect("re-run");
        assert_eq!(want, reports(&resumed, &exps, &dopts), "{}", broken.name());
        assert_eq!(
            runs(&tel, broken),
            1,
            "`{}` runs on the re-run",
            broken.name()
        );
        assert_eq!(
            runs(&tel, CampaignKind::Fleet),
            0,
            "the fleet was committed"
        );
    }
}

/// A finished disk bundle re-runs nothing: on the same directory a
/// second collection builds no world and runs no campaign — every
/// task's snapshot is already in its store — leaves every file as it
/// was, and derives the same reports.
#[test]
fn a_finished_disk_bundle_reruns_nothing() {
    let (opts, dopts) = small_lane_opts();
    let exps = campaign_experiments();
    let dir = TempDir::new("finished");
    let want = reports(
        &collect_bundle(&opts, &CampaignKind::ALL, Some(&dir.0)).expect("first run"),
        &exps,
        &dopts,
    );
    let files = tree(&dir.0);
    let (again, tel) = isolated(|| collect_bundle(&opts, &CampaignKind::ALL, Some(&dir.0)));
    let again = again.expect("second run");
    assert_eq!(tel.registry().counter("collect.world_builds").get(), 0);
    for kind in CampaignKind::ALL {
        assert_eq!(runs(&tel, kind), 0, "`{}` ran again", kind.name());
    }
    assert_eq!(want, reports(&again, &exps, &dopts));
    assert!(tree(&dir.0) == files, "the second run wrote to the store");
}

/// Two collections at the same time on two threads, each under a handle
/// of its own with a trace attached: each handle ends with what a
/// collection alone leaves — the same trace bytes, and the same lane,
/// world-build and campaign-run counters.
#[test]
fn concurrent_collections_are_isolated_by_their_handles() {
    let traced = || {
        let (opts, _) = small_lane_opts();
        let buf = SharedBuf::default();
        let ((), tel) = isolated(|| {
            telemetry::attach_trace(Box::new(buf.clone()));
            collect_bundle(&opts, &CampaignKind::ALL, None).expect("full bundle");
            telemetry::detach_trace().expect("flush trace");
        });
        let runs: Vec<u64> = CampaignKind::ALL.iter().map(|&k| runs(&tel, k)).collect();
        (buf.contents(), lanes_and_world_builds(&tel), runs)
    };
    let alone = traced();
    assert!(!alone.0.is_empty(), "the trace captured nothing");
    assert_eq!(alone.1, (2, 2));
    assert!(alone.2.iter().all(|&n| n == 1), "{:?}", alone.2);
    let together = std::thread::scope(|s| {
        let (a, b) = (s.spawn(traced), s.spawn(traced));
        [a.join().unwrap(), b.join().unwrap()]
    });
    for run in together {
        assert!(run.0 == alone.0, "a concurrent run's trace differs");
        assert_eq!((run.1, &run.2), (alone.1, &alone.2));
    }
}
