//! Failure-injection tests: the measurement campaigns must degrade
//! gracefully — not break — when the network drops packets.
//!
//! The enumeration scan sends exactly one probe per address (Sec. 2.2),
//! so with UDP loss probability `p` a round trip survives with
//! probability `(1-p)²` and the observed fleet shrinks accordingly.

use goingwild::{
    collect_bundle, run_analysis, AnalysisOptions, BundleOptions, CampaignKind, WorldConfig,
};
use netsim::{FaultEvent, FaultPlan, SimTime};
use scanner::{
    chaos_scan, enumerate, probe_alive_with_policy, ChaosObservation, Coverage, ProbePolicy,
};
use scanstore::FaultSpec;
use std::net::Ipv4Addr;
use worldgen::{build_world, World};

const SEED: u64 = 20151028;

fn lossy_cfg(udp_loss: f64) -> WorldConfig {
    WorldConfig {
        udp_loss,
        ..WorldConfig::tiny(SEED)
    }
}

#[test]
fn enumeration_under_loss_shrinks_by_the_round_trip_survival_rate() {
    let baseline = {
        let mut world = build_world(lossy_cfg(0.0));
        let vantage = world.scanner_ip;
        enumerate(&mut world, vantage, SEED).counts()["ALL"]
    };
    let p = 0.05;
    let lossy = {
        let mut world = build_world(lossy_cfg(p));
        let vantage = world.scanner_ip;
        enumerate(&mut world, vantage, SEED).counts()["ALL"]
    };
    let expected = (1.0 - p) * (1.0 - p);
    let observed = lossy as f64 / baseline as f64;
    // Within ±3 percentage points of the analytic survival rate.
    assert!(
        (observed - expected).abs() < 0.03,
        "observed survival {observed:.4}, expected ≈{expected:.4} \
         ({lossy} of {baseline} hosts)"
    );
}

#[test]
fn heavier_loss_loses_more_hosts_monotonically() {
    let fleet_at = |p: f64| {
        let mut world = build_world(lossy_cfg(p));
        let vantage = world.scanner_ip;
        enumerate(&mut world, vantage, SEED).noerror_ips().len()
    };
    let f0 = fleet_at(0.0);
    let f5 = fleet_at(0.05);
    let f20 = fleet_at(0.20);
    assert!(f0 > f5, "{f0} > {f5}");
    assert!(f5 > f20, "{f5} > {f20}");
    // Even at 20% loss the scan still finds the majority of the fleet.
    assert!(
        f20 as f64 > 0.5 * f0 as f64,
        "20% loss must not halve the fleet: {f20} of {f0}"
    );
}

#[test]
fn analysis_pipeline_survives_packet_loss() {
    // The full Sections 3–4 pipeline on a lossy network: fewer tuples,
    // same phenomena. TCP fetches already retry; DNS tuples that drop
    // simply vanish from the tuple set.
    let mut world = build_world(lossy_cfg(0.05));
    let domains: Vec<String> = vec![
        "facebook.example".into(),
        "youporn.example".into(),
        "paypal.example".into(),
        "qzxkjv.example".into(),
        "gt.gwild.example".into(),
    ];
    let opts = AnalysisOptions {
        domains: Some(domains),
        cluster_cap: 1_000,
        ..Default::default()
    };
    let report = run_analysis(&mut world, &opts);
    assert!(report.fleet_size > 1_000, "fleet {}", report.fleet_size);
    // Ground truth stays overwhelmingly legitimate even under loss.
    let gt = &report.per_category["GroundTr."];
    assert!(gt.legit_share() > 0.85, "gt legit {}", gt.legit_share());
    // Censorship is still visible.
    assert!(
        report.censorship.landing.ip_count() >= 5,
        "landing IPs {}",
        report.censorship.landing.ip_count()
    );
    // China still dominates social-media manipulation.
    let cn = report.fig4.unexpected_share("CN");
    assert!(cn > 0.4, "CN unexpected share {cn}");
}

/// Runs one churn liveness probe over a cohort with `target` flapping
/// (host down) for the first 4 seconds of the round. Returns the alive
/// set. Everything is deterministic, so the two policies see the exact
/// same world and the exact same flap.
fn churn_round_with_flap(policy: &ProbePolicy) -> (std::collections::HashSet<Ipv4Addr>, Ipv4Addr) {
    let mut world = build_world(lossy_cfg(0.0));
    let vantage = world.scanner_ip;
    let cohort = enumerate(&mut world, vantage, SEED).noerror_ips();
    let target = cohort[cohort.len() / 2];
    // The network clock, not `world.now()`: campaigns pump the network
    // directly and the world's lease clock only catches up lazily.
    let t0 = world.net.now();
    world.net.set_fault_plan(FaultPlan {
        events: vec![FaultEvent::HostDown {
            ip: target,
            from: t0,
            until: SimTime(t0.millis() + 4_000),
        }],
        seed: 1,
        ..FaultPlan::none()
    });
    let (alive, _) = probe_alive_with_policy(&mut world, vantage, &cohort, 0x11, policy);
    (alive, target)
}

#[test]
fn flapping_resolver_during_churn_is_not_misreported_as_gone() {
    // A resolver that flaps exactly while the churn round's single
    // probe is in flight looks like a leaver — the misclassification
    // the retry engine exists to prevent. The native pass sends at the
    // round's start and waits 5 s before giving up, so the first
    // retransmission lands after the 4 s flap has healed.
    let (alive_single, target) = churn_round_with_flap(&ProbePolicy::single());
    assert!(
        !alive_single.contains(&target),
        "without retries the flapping resolver must be missed \
         (otherwise this test exercises nothing)"
    );
    let (alive_retry, target) = churn_round_with_flap(&ProbePolicy::retrying(3));
    assert!(
        alive_retry.contains(&target),
        "a resolver that flaps for 4 s mid-round must be recovered by \
         the retransmission rounds, not reported as churned away"
    );
}

/// What a retrying campaign heard from `fleet` under `policy`.
type Answers = fn(&mut World, Ipv4Addr, &[Ipv4Addr], &ProbePolicy) -> usize;

#[test]
fn retrying_campaign_under_iid_loss_recovers_the_lossless_fleet() {
    // Per campaign, an i.i.d. loss rate that costs one probe per target
    // well over 3% of the answers: 5% for churn's one query a host; 15%
    // for CHAOS, whose resolver goes silent only if both of its queries
    // are lost.
    let cases: [(&str, f64, Answers); 2] = [
        // The resolvers found alive.
        ("churn", 0.05, |world, vantage, fleet, policy| {
            probe_alive_with_policy(world, vantage, fleet, 0x11, policy)
                .0
                .len()
        }),
        // The resolvers that answered either query.
        ("chaos", 0.15, |world, vantage, fleet, policy| {
            let sink = &mut scanstore::NullSink;
            let (obs, _) = chaos_scan(world, vantage, fleet, 0x11, policy, sink);
            obs.values()
                .filter(|o| **o != ChaosObservation::Silent)
                .count()
        }),
    ];
    for (campaign, loss, answers) in cases {
        // The lossless fleet and its one-probe-per-address baseline.
        let (fleet, baseline) = {
            let mut world = build_world(lossy_cfg(0.0));
            let vantage = world.scanner_ip;
            let fleet = enumerate(&mut world, vantage, SEED).noerror_ips();
            let baseline = answers(&mut world, vantage, &fleet, &ProbePolicy::single());
            (fleet, baseline)
        };
        // The same campaign instant under loss: enumeration advances
        // the network clock on a fixed schedule, so re-running it
        // synchronizes the probe round with the baseline world.
        let answers_at = |policy: &ProbePolicy| {
            let mut world = build_world(lossy_cfg(loss));
            let vantage = world.scanner_ip;
            let _ = enumerate(&mut world, vantage, SEED);
            answers(&mut world, vantage, &fleet, policy)
        };
        let single = answers_at(&ProbePolicy::single());
        let retried = answers_at(&ProbePolicy::retrying(3));
        // One probe survives the round trip with (1 − loss)²…
        assert!(
            (single as f64) < 0.97 * baseline as f64,
            "{campaign}: single-probe under {loss} loss should fall well \
             short of the lossless baseline: {single} vs {baseline}"
        );
        // …while three backed-off attempts recover ≥99% of the fleet.
        assert!(
            (retried as f64) >= 0.99 * baseline as f64,
            "{campaign}: three attempts under {loss} loss must recover \
             ≥99% of the lossless fleet: {retried} vs {baseline}"
        );
    }
}

#[test]
fn coverage_fraction_reflects_gave_up_but_not_unreachable() {
    let mut cov = Coverage {
        attempted: 100,
        answered: 90,
        gave_up: 5,
        unreachable: 5,
        retries: 7,
        space: false,
    };
    // 90 answered of 95 reachable: unreachable hosts (nobody there to
    // answer) don't count against the scanner.
    assert!((cov.fraction() - 90.0 / 95.0).abs() < 1e-9);
    cov.absorb(&Coverage::space(10, 10));
    assert_eq!(cov.attempted, 110);
    assert_eq!(cov.answered, 100);
    assert!(cov.space, "absorbing a space row marks the aggregate");
}

/// The disk fills while the snooping campaign writes its sixth segment.
/// The campaign is all-or-nothing and commits as one group, so the
/// failed burst leaves nothing committed; `collect_bundle` reopens the
/// store and re-runs the campaign once into a well-formed store. (When
/// every snapshot was its own checkpoint, the retry appended a second
/// campaign behind the five segments of the first: 66 segments where a
/// complete store has 61, samples filed under the wrong round and TLD,
/// and a directory the next run refused to read.)
#[test]
fn snoop_retry_after_a_failed_write_leaves_a_well_formed_store() {
    let dir = std::env::temp_dir().join(format!("gw-snoop-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = WorldConfig {
        weeks: 1,
        ..WorldConfig::tiny(SEED)
    };
    let opts = BundleOptions {
        snoop_sample: 40,
        snoop_rounds: 4,
        ..BundleOptions::new(cfg)
    };
    let kinds = [CampaignKind::Fleet, CampaignKind::Snoop];
    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    let snoop = [("campaign", "snoop")];
    let retried = || {
        tel.registry()
            .counter_with("collect.campaign_retried", &snoop)
            .get()
    };
    let runs = || {
        tel.registry()
            .counter_with("collect.campaign_runs", &snoop)
            .get()
    };

    scanstore::faults::arm(&FaultSpec {
        scope: dir.join("snoop/seg-00005").to_string_lossy().into_owned(),
        write_enospc: 1,
        ..FaultSpec::default()
    });
    let collected = collect_bundle(&opts, &kinds, Some(&dir));
    scanstore::faults::disarm();
    let bundle = collected.expect("the retry succeeds");
    assert_eq!(retried(), 1, "one retry");
    assert_eq!(runs(), 1, "one campaign run, retried inside");

    let store = bundle.source(CampaignKind::Snoop).unwrap();
    let sample = store.snapshot(0).unwrap();
    assert_eq!(sample.label, "sample");
    let tlds: u32 = sample.meta_value("tld_count").unwrap().parse().unwrap();
    assert_eq!(sample.meta_value("rounds"), Some("4"));
    assert_eq!(store.snapshot_count(), 1 + 4 * tlds, "a complete campaign");
    assert_eq!(store.snapshot(1).unwrap().label, "snoop-r0-t0");
    let utilization = goingwild::util_from_source(store).expect("derives");
    assert_eq!(utilization.probed, sample.records.len() as u64);
    drop(bundle);

    // The directory is one the next run serves from, and a clean one.
    let again = collect_bundle(&opts, &kinds, Some(&dir)).expect("served from the store");
    assert_eq!(runs(), 1, "nothing re-ran");
    assert_eq!(
        again.source(CampaignKind::Snoop).unwrap().snapshot_count(),
        1 + 4 * tlds
    );
    for (name, report) in scanstore::scrub_root(&dir).unwrap() {
        assert!(report.healthy(), "{name}: {report:?}");
        assert!(report.orphans.is_empty(), "{name}: {:?}", report.orphans);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
