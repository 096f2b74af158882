//! Collect-once/derive-many equivalence, end to end.
//!
//! The acceptance bar for the campaign bundle: `repro --exp all` must
//! print byte-identical reports to each single-experiment invocation,
//! and the full bundle must build exactly one world and run every
//! campaign at most once. Asserted here at `WorldConfig::tiny` through
//! the same library entry points the binary uses: derive every
//! registry experiment from one full bundle, re-collect each distinct
//! requirement subset alone, and compare the rendered outputs.

use goingwild::experiments::{self, DeriveOptions, Experiment};
use goingwild::{collect_bundle, BundleOptions, CampaignKind, WorldConfig};
use netsim::FaultPlan;
use scanner::ProbePolicy;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// `collect_bundle` counts world builds and campaign runs in the
/// process-global telemetry registry, and the first test asserts on
/// those counters, so the tests in this binary take turns.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[test]
fn subset_derivations_match_full_bundle_and_campaigns_run_once() {
    let _guard = exclusive();
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
        cfg: cfg.clone(),
        ..DeriveOptions::default()
    };

    // The full bundle: one world build, each campaign at most once.
    telemetry::global().clear();
    let full = collect_bundle(&opts, &CampaignKind::ALL, None).expect("full bundle");
    assert_eq!(
        telemetry::counter("collect.world_builds").get(),
        1,
        "the whole bundle must share one world build"
    );
    for kind in CampaignKind::ALL {
        let runs = telemetry::global()
            .counter_with("collect.campaign_runs", &[("campaign", kind.name())])
            .get();
        assert_eq!(runs, 1, "campaign `{}` must run exactly once", kind.name());
    }

    // The ablations are self-contained (empty requirements), so subset
    // identity is vacuous for them — and they are the one experiment
    // that builds worlds inside its derivation.
    let exps: Vec<&'static Experiment> = experiments::REGISTRY
        .iter()
        .filter(|e| !e.requires.is_empty())
        .collect();
    let full_outputs = experiments::derive_all(&full, &exps, &dopts);

    // Re-collect each distinct requirement set alone and compare every
    // member experiment's rendered text byte for byte.
    let mut groups: BTreeMap<Vec<CampaignKind>, Vec<usize>> = BTreeMap::new();
    for (i, e) in exps.iter().enumerate() {
        groups.entry(e.requires.to_vec()).or_default().push(i);
    }
    for (kinds, members) in groups {
        let mini = collect_bundle(&opts, &kinds, None).expect("subset bundle");
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

/// The sharded engine must be invisible in every artifact: the full
/// bundle collected at 2, 4 and 8 shards derives reports byte-identical
/// to the single-threaded reference engine — the in-process assertion
/// behind the CI `shard-smoke` job's `repro --exp all --shards N` diff.
#[test]
fn sharded_bundles_are_byte_identical_to_sequential() {
    let _guard = exclusive();
    let mk = |shards: usize| {
        let cfg = WorldConfig {
            weeks: 2,
            shards,
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
        let bundle = collect_bundle(&opts, &CampaignKind::ALL, None).expect("bundle");
        let exps: Vec<&'static Experiment> = experiments::REGISTRY
            .iter()
            .filter(|e| !e.requires.is_empty())
            .collect();
        experiments::derive_all(&bundle, &exps, &dopts)
            .into_iter()
            .map(|r| r.expect("derive").text)
            .collect::<Vec<String>>()
    };
    let reference = mk(1);
    for shards in [2, 4, 8] {
        assert_eq!(
            reference,
            mk(shards),
            "--shards {shards} must reproduce the sequential reports byte-for-byte"
        );
    }
}

/// The chaos-ready machinery must be invisible when disarmed: a bundle
/// collected with an explicitly installed no-op fault plan, the default
/// single-attempt probe policy, and coverage accounting on derives
/// byte-identical reports to the plain default-options bundle.
#[test]
fn noop_fault_plan_and_single_probe_policy_are_byte_identical() {
    let _guard = exclusive();
    let cfg = WorldConfig {
        weeks: 2,
        ..WorldConfig::tiny(20151028)
    };
    let base = BundleOptions {
        snoop_sample: 60,
        snoop_rounds: 4,
        ..BundleOptions::new(cfg.clone())
    };
    let disarmed = BundleOptions {
        faults: Some(FaultPlan::none()),
        probe: ProbePolicy::single(),
        coverage: true,
        ..base.clone()
    };
    let dopts = DeriveOptions {
        cfg: cfg.clone(),
        ..DeriveOptions::default()
    };
    let plain = collect_bundle(&base, &CampaignKind::ALL, None).expect("plain bundle");
    let chaos_ready = collect_bundle(&disarmed, &CampaignKind::ALL, None).expect("disarmed bundle");
    let exps: Vec<&'static Experiment> = experiments::REGISTRY
        .iter()
        .filter(|e| !e.requires.is_empty())
        .collect();
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
