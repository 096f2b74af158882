//! End-to-end campaign tests on a tiny simulated world.

use dnswire::Rcode;
use netsim::SimTime;
use scanner::campaign::churn;
use scanner::{
    acquire, banner_scan, chaos_scan, churn_from_source, enumerate, scan_domains, ChaosObservation,
    ProbePolicy,
};
use scanstore::SnapshotSource;
use worldgen::{build_world, WorldConfig};

fn world() -> worldgen::World {
    build_world(WorldConfig::tiny(2026))
}

#[test]
fn enumeration_finds_the_fleet() {
    let mut w = world();
    let vantage = w.scanner_ip;
    let result = enumerate(&mut w, vantage, 1);
    let counts = result.counts();
    let all = counts["ALL"];
    let noerror = counts["NOERROR"];
    let truth = w.alive_counts();
    let truth_noerror = truth[&worldgen::world::ResponseClass::NoError] as u64;

    assert!(all > 0);
    // Loss-free tiny world: we should find every alive NOERROR resolver
    // except those whose addresses opted out of scanning.
    let blacklist =
        scanner::Blacklist::new(w.blacklist_ranges.clone(), w.blacklist_singles.clone());
    let opted_out = w
        .resolvers
        .iter()
        .filter(|m| {
            m.response_class == worldgen::world::ResponseClass::NoError
                && w.resolver_ip(m)
                    .map(|ip| blacklist.contains(ip))
                    .unwrap_or(false)
        })
        .count() as u64;
    assert!(
        noerror + opted_out >= (truth_noerror as f64 * 0.97) as u64,
        "noerror={noerror} opted_out={opted_out} truth={truth_noerror}"
    );
    assert!(counts.get("REFUSED").copied().unwrap_or(0) > 0);
    assert!(counts.get("SERVFAIL").copied().unwrap_or(0) > 0);
    assert!(noerror > counts["REFUSED"] * 5);
    // Leaky CPE forwarders answer via their upstream: the response
    // source mismatches the probed target (Sec. 2.2's 630k-750k).
    assert!(
        result.mismatched_sources() > 0,
        "expected source-mismatch responders"
    );
}

#[test]
fn blacklisted_addresses_are_never_probed() {
    let mut w = world();
    let vantage = w.scanner_ip;
    let blacklist =
        scanner::Blacklist::new(w.blacklist_ranges.clone(), w.blacklist_singles.clone());
    assert!(!blacklist.is_empty());
    let result = enumerate(&mut w, vantage, 99);
    assert!(result.skipped_blacklisted > 0, "some space must be skipped");
    for ip in result.observations.keys() {
        assert!(!blacklist.contains(*ip), "{ip} is blacklisted but observed");
    }
}

#[test]
fn chaos_scan_recovers_software_mix() {
    let mut w = world();
    let vantage = w.scanner_ip;
    let result = enumerate(&mut w, vantage, 3);
    let fleet = result.noerror_ips();
    let sink = &mut scanstore::NullSink;
    let (obs, _) = chaos_scan(&mut w, vantage, &fleet, 3, &ProbePolicy::single(), sink);
    assert!(!obs.is_empty());
    let total = obs.len() as f64;
    let versions = obs
        .values()
        .filter(|o| matches!(o, ChaosObservation::Version(_)))
        .count() as f64;
    let errors = obs
        .values()
        .filter(|o| matches!(o, ChaosObservation::Errors))
        .count() as f64;
    // Paper: 33.9% genuine + 18.8% custom strings answer with *some*
    // version (≈52.7%); 42.7% error out.
    assert!(
        (0.40..0.65).contains(&(versions / total)),
        "version share {}",
        versions / total
    );
    assert!(
        (0.30..0.55).contains(&(errors / total)),
        "error share {}",
        errors / total
    );
    // BIND 9.8.2 should be the most common genuine version.
    let mut hist: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for o in obs.values() {
        if let ChaosObservation::Version(v) = o {
            if v.starts_with("BIND") || v.contains("Dnsmasq") || v.contains("Unbound") {
                *hist.entry(v.as_str()).or_insert(0) += 1;
            }
        }
    }
    let top = hist.iter().max_by_key(|(_, n)| **n).map(|(v, _)| *v);
    assert_eq!(top, Some("BIND 9.8.2"));
}

#[test]
fn banner_scan_matches_tcp_exposure() {
    let mut w = world();
    let vantage = w.scanner_ip;
    let result = enumerate(&mut w, vantage, 4);
    let fleet = result.noerror_ips();
    let (banners, _) = banner_scan(&mut w, &fleet, &ProbePolicy::single());
    let share = banners.len() as f64 / fleet.len() as f64;
    // Paper: 26.3% respond to at least one TCP probe.
    assert!((0.18..0.36).contains(&share), "tcp share {share}");
    // ZyNOS routers are identifiable.
    let zynos = banners
        .values()
        .filter(|b| b.corpus().contains("ZyNOS") || b.corpus().contains("ZyRouter"))
        .count();
    assert!(zynos > 0, "expected ZyNOS banners");
}

#[test]
fn domain_scan_separates_honest_and_bogus() {
    let mut w = world();
    let vantage = w.scanner_ip;
    let result = enumerate(&mut w, vantage, 5);
    let fleet = result.noerror_ips();
    let domains = vec![
        "paypal.example".to_string(),
        "facebook.example".to_string(),
        "qzxkjv.example".to_string(), // NX
    ];
    let tuples = scan_domains(&mut w, vantage, &fleet, &domains, 5);
    assert!(!tuples.is_empty());

    // paypal answers: mostly the legit hosting IPs.
    let legit_paypal = w.infra.legit_ips["paypal.example"].clone();
    let paypal: Vec<_> = tuples.iter().filter(|t| t.domain_idx == 0).collect();
    let legit_share = paypal
        .iter()
        .filter(|t| !t.ips.is_empty() && t.ips.iter().all(|i| legit_paypal.contains(i)))
        .count() as f64
        / paypal.len() as f64;
    assert!(legit_share > 0.85, "paypal legit share {legit_share}");

    // facebook: Chinese resolvers must return forged answers.
    let legit_fb = w.infra.legit_ips["facebook.example"].clone();
    let fb_bogus = tuples
        .iter()
        .filter(|t| {
            t.domain_idx == 1 && !t.ips.is_empty() && t.ips.iter().all(|i| !legit_fb.contains(i))
        })
        .count();
    assert!(fb_bogus > 10, "censored facebook answers: {fb_bogus}");

    // NX domain: some resolvers monetize (answer with IPs).
    let nx_with_ips = tuples
        .iter()
        .filter(|t| t.domain_idx == 2 && !t.ips.is_empty() && t.rcode == Rcode::NoError)
        .count();
    let nx_nx = tuples
        .iter()
        .filter(|t| t.domain_idx == 2 && t.rcode == Rcode::NxDomain)
        .count();
    assert!(nx_with_ips > 5, "monetized NX: {nx_with_ips}");
    assert!(nx_nx > nx_with_ips, "honest NXDOMAIN should dominate");

    // Double responses exist (GFW escapes).
    let doubles = tuples.iter().filter(|t| t.response_ordinal > 0).count();
    let _ = doubles; // may be zero at tiny scale; the full experiment checks it
}

/// The churn campaign's rounds, as the bundle engine runs them: the
/// cohort is snapshot 0, and round `w` commits the addresses it found
/// alive as snapshot `w + 1`, which the Figure 2 reader counts back.
#[test]
fn churn_rounds_commit_their_survivors_after_the_cohort() {
    let mut w = world();
    let vantage = w.scanner_ip;
    let cohort = enumerate(&mut w, vantage, 7).noerror_ips();
    let mut store = scanstore::MemoryStore::new();
    churn::commit_round(&w, &mut store, cohort.iter().copied(), "cohort", &[]).expect("commit");
    let policy = ProbePolicy::single();
    let mut alive = Vec::new();
    for (round, at) in [(0, SimTime::DAY), (1, SimTime::WEEK)] {
        w.advance_to(SimTime(at));
        let (set, _) =
            churn::round(&mut w, vantage, &cohort, round, 7, &policy, &mut store).expect("commit");
        alive.push(cohort.iter().filter(|ip| set.contains(ip)).count() as u64);
    }
    assert_eq!(
        ["cohort", "day1", "week-1"].map(|label| store.find_label(label)),
        [Some(0), Some(1), Some(2)]
    );
    let churn = churn_from_source(&store).expect("derive");
    assert_eq!(churn.cohort, cohort.len() as u64);
    assert_eq!(
        [churn.day1_survivors, churn.survivors[0]],
        [alive[0], alive[1]]
    );
    assert!(churn.day1_survivors < churn.cohort, "nobody left in a day");
    assert!(churn.day1_leavers_with_rdns >= churn.day1_leavers_dynamic_rdns);
}

#[test]
fn acquisition_fetches_phish_and_portal_content() {
    let mut w = world();
    let vantage = w.scanner_ip;

    // Phishing host content via a phishing resolver.
    let phish_ip = w.infra.phish_ips[0];
    let got = acquire(&mut w, vantage, phish_ip, "paypal.example", phish_ip, false);
    let http = got.http.expect("phish kit serves HTTP");
    assert!(http.body.contains("collect.php"));

    // Captive portal: redirect followed to the login page.
    let portal_ip = w.infra.portal_ips[0];
    let got = acquire(
        &mut w,
        vantage,
        portal_ip,
        "weatherhub.example",
        portal_ip,
        false,
    );
    let http = got.http.expect("portal serves HTTP");
    assert_eq!(http.redirects, 1);
    assert!(
        http.body.contains("authenticate"),
        "{}",
        &http.body[..120.min(http.body.len())]
    );

    // Mail interception banners.
    let mail_ip = w.infra.mail_intercept_ips[0];
    let got = acquire(
        &mut w,
        vantage,
        mail_ip,
        "smtp.gmail.example",
        mail_ip,
        true,
    );
    assert!(!got.mail_banners.is_empty());

    // HTTP-only proxy refuses TLS but serves content.
    let proxy = w.infra.proxy_http_ips[0];
    let got = acquire(&mut w, vantage, proxy, "paypal.example", proxy, false);
    assert!(got.http.is_some());
    assert!(got.https_sni.is_none());
}

/// The bought AS database and the planted resolvers agree on the AS of
/// every address a domain-scan sweep matches, on the default-seed world
/// and three tiny ones.
#[test]
fn matched_addresses_have_the_planted_asn_in_the_bought_database() {
    let tiny = [3, 2026, 0x7A11].map(WorldConfig::tiny);
    for mut w in [WorldConfig::default()]
        .into_iter()
        .chain(tiny)
        .map(build_world)
    {
        let (seed, vantage) = (w.cfg.seed, w.scanner_ip);
        let fleet: Vec<_> = w
            .resolvers
            .iter()
            .filter_map(|m| w.resolver_ip(m))
            .collect();
        let domains: Vec<_> = w.catalog.domains[..3]
            .iter()
            .map(|d| d.name.clone())
            .collect();
        let tuples = scan_domains(&mut w, vantage, &fleet, &domains, 9);
        assert!(
            tuples.len() > fleet.len(),
            "world {seed}: the sweep matched"
        );
        for ip in tuples.iter().map(|t| t.resolver_ip) {
            let planted = w.resolver_at(ip).map_or(0, |m| m.asn);
            assert_eq!(w.geo.asn(ip).unwrap_or(0), planted, "world {seed}: {ip}");
        }
    }
}
