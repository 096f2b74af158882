//! Integration tests for the measurement-experiment drivers (Sec. 2):
//! weekly enumeration, country/RIR flux, CHAOS fingerprinting, device
//! fingerprinting, churn tracking, cache-snooping utilization, and the
//! dual-vantage verification scan — all at tiny scale, asserting the
//! paper's *shapes*, not absolute numbers. Campaigns are collected
//! through [`collect_bundle`] — the same collect/derive split `repro`
//! uses — and derived with the pure `*_from_source` functions.

use goingwild::experiments::{table1_country_flux, table2_rir_flux};
use goingwild::{
    collect_bundle, fig1_from_source, fig2_from_source, table3_from_source, table4_from_source,
    util_from_source, verification_from_source, BundleData, BundleOptions, CampaignKind,
    WorldConfig,
};
use scanner::SnoopSample;

const SEED: u64 = 20151028;

fn short_cfg(weeks: u32) -> WorldConfig {
    WorldConfig {
        weeks,
        ..WorldConfig::tiny(SEED)
    }
}

/// Collect `kinds` into an in-memory bundle with repro's defaults.
fn bundle_of(cfg: WorldConfig, kinds: &[CampaignKind]) -> BundleData {
    collect_bundle(&BundleOptions::new(cfg), kinds, None).expect("in-memory collect cannot fail")
}

fn fig1_of(cfg: WorldConfig) -> goingwild::experiments::Fig1Report {
    let bundle = bundle_of(cfg, &[CampaignKind::Weekly]);
    fig1_from_source(bundle.source(CampaignKind::Weekly).unwrap()).expect("derive fig1")
}

#[test]
fn fig1_population_declines_and_cross_checks() {
    let fig1 = fig1_of(short_cfg(9));
    assert_eq!(fig1.weeks.len(), 9);
    let first = &fig1.weeks[0];
    let last = fig1.weeks.last().unwrap();
    // Paper: the NOERROR population shrinks over the study year
    // (26.8M → 17.8M over 55 weeks; any prefix must already trend down).
    assert!(
        last.noerror < first.noerror,
        "population must decline: {} → {}",
        first.noerror,
        last.noerror
    );
    // NOERROR dominates both error classes at every scan.
    for w in &fig1.weeks {
        assert!(w.noerror > w.refused, "week {}: noerror vs refused", w.week);
        assert!(
            w.noerror > w.servfail,
            "week {}: noerror vs servfail",
            w.week
        );
        assert_eq!(w.all, w.noerror + w.refused + w.servfail);
    }
    // DNS proxies / multi-homed hosts answer from a different source IP
    // in every scan (paper Sec. 2.5: ~2.5% of responders).
    for w in &fig1.weeks {
        let share = w.proxy_responders as f64 / w.all.max(1) as f64;
        assert!(
            (0.005..0.06).contains(&share),
            "week {}: proxy-responder share {share:.4}",
            w.week
        );
    }
    // ORP-style cross-check: scan counts track ground truth (paper:
    // within 2%; tiny scale adds small-sample noise — the full-scale
    // repro run measures 0.81%).
    assert!(
        fig1.max_cross_check_error() < 0.05,
        "cross-check error {:.4}",
        fig1.max_cross_check_error()
    );
}

#[test]
fn table1_top_countries_match_the_paper_ranking() {
    let fig1 = fig1_of(short_cfg(3));
    let rows = table1_country_flux(&fig1, 10);
    assert_eq!(rows.len(), 10);
    // Paper Table 1: US and CN are the two largest populations.
    let top2: Vec<&str> = rows[..2].iter().map(|r| r.key.as_str()).collect();
    assert!(top2.contains(&"US"), "top-2 {top2:?} must contain US");
    assert!(top2.contains(&"CN"), "top-2 {top2:?} must contain CN");
    // Rows are sorted descending by first-scan count.
    for pair in rows.windows(2) {
        assert!(pair[0].first >= pair[1].first);
    }
}

#[test]
fn table2_every_rir_shrinks_and_arin_is_most_stable() {
    let fig1 = fig1_of(short_cfg(9));
    let rows = table2_rir_flux(&fig1);
    assert!(rows.len() >= 4, "expected >=4 RIR rows, got {}", rows.len());
    // Paper Table 2: every region loses resolvers over the year.
    for r in &rows {
        assert!(r.delta() <= 0, "{} grew: {} → {}", r.key, r.first, r.last);
    }
    // ARIN (−12.1%) shrinks much less than RIPE (−33.2%) and
    // LACNIC (−35.1%).
    let pct = |key: &str| {
        rows.iter()
            .find(|r| r.key == key)
            .map(|r| r.pct())
            .unwrap_or_else(|| panic!("missing RIR row {key}"))
    };
    assert!(
        pct("ARIN") > pct("RIPE"),
        "ARIN {:.1}% should be more stable than RIPE {:.1}%",
        pct("ARIN"),
        pct("RIPE")
    );
    assert!(
        pct("ARIN") > pct("LACNIC"),
        "ARIN {:.1}% should be more stable than LACNIC {:.1}%",
        pct("ARIN"),
        pct("LACNIC")
    );
}

#[test]
fn table3_chaos_mix_is_bind_dominated() {
    let bundle = bundle_of(
        WorldConfig::tiny(SEED),
        &[CampaignKind::Fleet, CampaignKind::Chaos],
    );
    let t3 =
        table3_from_source(bundle.source(CampaignKind::Chaos).unwrap(), 0).expect("derive table 3");
    assert!(t3.responding > 0);
    // Paper Sec. 2.3: a majority of version-revealing resolvers run BIND.
    assert!(
        t3.bind_share() > 0.5,
        "BIND share {:.3} (paper: dominant)",
        t3.bind_share()
    );
    // The genuine / custom / empty / error split covers every responder.
    assert_eq!(t3.responding, t3.genuine + t3.custom + t3.empty + t3.errors);
    // dnsmasq (forwarder CPE) appears among the top versions.
    let tops = t3.top_versions(10);
    assert!(
        tops.iter()
            .any(|(k, _)| k.to_ascii_lowercase().contains("dnsmasq")),
        "dnsmasq expected among top versions: {tops:?}"
    );
}

#[test]
fn table4_device_mix_shape() {
    let bundle = bundle_of(
        WorldConfig::tiny(SEED),
        &[CampaignKind::Fleet, CampaignKind::Banner],
    );
    let t4 =
        table4_from_source(bundle.source(CampaignKind::Banner).unwrap()).expect("derive table 4");
    assert!(t4.fleet > 0);
    // Paper Sec. 2.4: only 26.3% of resolvers expose TCP services at all.
    let tcp_share = t4.tcp_responsive as f64 / t4.fleet as f64;
    assert!(
        (0.15..0.40).contains(&tcp_share),
        "TCP-responsive share {tcp_share:.3} (paper: 26.3%)"
    );
    // Routers dominate the recognizable hardware (paper: 54.7% of
    // fingerprinted devices).
    let share = |k: &str| t4.hardware.get(k).copied().unwrap_or(0.0);
    let router = share("Router");
    for other in ["Camera", "DVR", "NAS", "Firewall", "DSLAM"] {
        assert!(
            router > share(other),
            "Router ({router:.1}%) must dominate {other} ({:.1}%)",
            share(other)
        );
    }
}

#[test]
fn fig2_churn_curve_shape() {
    let bundle = bundle_of(short_cfg(12), &[CampaignKind::Fleet, CampaignKind::Churn]);
    let fig2 = fig2_from_source(bundle.source(CampaignKind::Churn).unwrap()).expect("derive fig2");
    let churn = &fig2.churn;
    assert!(churn.cohort > 0);
    // The cohort is the fleet, read back from its store.
    let fleet = bundle.source(CampaignKind::Fleet).unwrap();
    let (noerror, _) = goingwild::collect::fleet_counts_from_source(fleet).expect("fleet");
    assert_eq!(churn.cohort, noerror);
    // Paper Fig. 2: ~43.6% of the cohort is gone after a single day.
    let day1 = churn.day1_survivors as f64 / churn.cohort as f64;
    assert!(
        (0.35..0.75).contains(&day1),
        "day-1 survival {day1:.3} (paper: 56.4%)"
    );
    // Paper Fig. 2: 47.8% of the cohort still answers after a week.
    let w1 = churn.survival_at_week(1);
    assert!(
        (0.30..0.65).contains(&w1),
        "week-1 survival {w1:.3} (paper: 47.8%)"
    );
    // Survival is monotone non-increasing week over week.
    for pair in churn.survivors.windows(2) {
        assert!(pair[0] >= pair[1], "survival must not increase: {pair:?}");
    }
    // Long-run survival collapses to a small static core.
    let last = *churn.survivors.last().unwrap() as f64 / churn.cohort as f64;
    assert!(last < day1, "week-12 survival {last:.3} < day-1 {day1:.3}");
    // Day-one leavers overwhelmingly carry dynamic-looking rDNS
    // (paper: 78% of those with records).
    assert!(
        churn.day1_leavers_with_rdns > 0,
        "no day-one leaver has rDNS"
    );
    let dyn_share = churn.day1_leavers_dynamic_rdns as f64 / churn.day1_leavers_with_rdns as f64;
    assert!(dyn_share > 0.5, "dynamic rDNS share {dyn_share:.3}");
}

#[test]
fn utilization_recovers_the_in_use_majority() {
    let opts = BundleOptions {
        snoop_sample: 400,
        snoop_rounds: 36,
        ..BundleOptions::new(WorldConfig::tiny(SEED))
    };
    let bundle = collect_bundle(&opts, &[CampaignKind::Fleet, CampaignKind::Snoop], None)
        .expect("in-memory collect cannot fail");
    let util = util_from_source(bundle.source(CampaignKind::Snoop).unwrap()).expect("derive util");
    assert!(util.probed > 0);
    // Paper Sec. 2.6: 61.6% of snooped resolvers are actively used.
    assert!(
        util.in_use_share() > 40.0,
        "in-use share {:.1}% (paper: 61.6%)",
        util.in_use_share()
    );
    // Shares are percentages over the probed set.
    let total: f64 = util.shares.values().sum();
    assert!(
        (99.0..101.0).contains(&total),
        "shares must sum to 100%, got {total:.2}"
    );
    // Popularity estimates exist for the frequently-refreshing majority.
    assert!(util.popularity_median.is_some());
    // An in-use resolver re-adds a TLD after its NS record expired: a
    // round that found no entry, then a later one with a fresh TTL.
    let snooped = scanner::snoop_from_source(bundle.source(CampaignKind::Snoop).unwrap())
        .expect("read the snoop store back");
    let readded = |series: &[SnoopSample]| {
        let absent = series.iter().position(|s| *s == SnoopSample::NoEntry);
        absent.is_some_and(|i| series[i..].iter().any(|s| matches!(s, SnoopSample::Ttl(_))))
    };
    assert!(
        snooped
            .values()
            .any(|r| (0..r.tld_count).any(|tld| readded(r.tld_series(tld)))),
        "no TLD re-add observed across {} snooped resolvers",
        snooped.len()
    );
}

#[test]
fn verification_scan_misses_almost_nothing() {
    let bundle = bundle_of(WorldConfig::tiny(SEED), &[CampaignKind::Verify]);
    let v = verification_from_source(bundle.source(CampaignKind::Verify).unwrap())
        .expect("derive verification");
    assert!(v.primary_noerror > 0);
    // The scanner-blacklisting networks answer only the secondary
    // vantage.
    assert!(
        v.missed_noerror > 0,
        "the secondary vantage must see the blocked networks"
    );
    // Paper Sec. 2.2: the secondary vantage finds <1% additional hosts
    // (scanner-specific blacklisting); tiny-scale tolerance is wider.
    let miss = v.missed_noerror as f64 / v.primary_noerror as f64;
    assert!(miss < 0.05, "dual-vantage miss rate {miss:.4} (paper: <1%)");
}

#[test]
fn scan_tracks_each_planned_country_population() {
    // Regression guard for the opt-out blacklist: no country may lose a
    // measurable share of its planned population to scan-invisible
    // hosts (this once cost Mexico 18% of its resolvers and pushed its
    // Table 1 delta from −14% to −1%).
    let cfg = WorldConfig::tiny(SEED);
    let scale = cfg.scale;
    let fig1 = fig1_of(WorldConfig { weeks: 1, ..cfg });
    for plan in worldgen::COUNTRY_PLANS {
        let planted = (plan.start as f64 * scale).round();
        if planted < 40.0 {
            continue; // too small for a stable ratio at tiny scale
        }
        let seen = fig1.first_by_country.get(plan.code).copied().unwrap_or(0) as f64;
        assert!(
            seen > 0.90 * planted,
            "{}: scan sees {seen} of ~{planted} planted resolvers",
            plan.code
        );
    }
}
