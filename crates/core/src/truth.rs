//! Every read of what the simulator planted, in one place.
//!
//! The measurement side (`scanner`, `classify`, the campaign drivers)
//! sees a world only as a [`netsim::Vantage`]. What a world planted is
//! read here and nowhere else, each read by one kind of caller:
//!
//! | read | what it reads | its one caller |
//! |---|---|---|
//! | [`coverage`] | `World::resolver_at`, `World::reachable` | coverage scoring: each campaign's row, the domain scan's tuples |
//! | [`weekly_noerror`] | `World::reachable` over every resolver | closed loop: Fig. 1's cross-check column |
//! | [`capture_ground_truth`] | resolver metadata, plan constants | closed loop: the `closedloop` experiment |
//! | [`trusted_view`], [`trusted_forward`], [`acquire_trusted`] | `DnsUniverse::resolve` and its records | the trusted baseline, pending ROADMAP 17(b) |
//!
//! The trusted baseline stands in for the authors' own resolution and
//! fetch (Sec. 3.4) by asking the simulator's oracle, until it becomes
//! a resolution through a simulated trusted resolver over the wire.
//!
//! Not planted, so read elsewhere: the domain catalog and scan zone
//! (the authors chose them), the GeoIP/AS/rDNS databases (they bought
//! them) and `InfraIndex::cdn_default_cns`. A CDN shows its default
//! certificate to anyone who connects without SNI, so those names are
//! public knowledge, as the paper's certificate rule assumed; they say
//! nothing about any resolver.

use crate::collect::GroundTruth;
use classify::TrustedView;
use netsim::SimTime;
use resolversim::{DomainCategory, Resolution};
use scanner::{acquire, Acquired, Blacklist, Coverage};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use worldgen::world::ResponseClass;
use worldgen::World;

/// Coverage scoring. `targets[i]` was asked `per_target` questions, of
/// which `answered(i)` got an answer. Every unanswered question is
/// charged to the scanner (`gave_up`) when a live responder — a NOERROR
/// one, if `require_noerror` — that an outside scanner can reach sits at
/// the address right now, and to churn or filtering (`unreachable`)
/// otherwise.
pub fn coverage(
    world: &World,
    targets: &[Ipv4Addr],
    per_target: u64,
    require_noerror: bool,
    answered: impl Fn(usize) -> u64,
    retries: u64,
) -> Coverage {
    let week = (world.now().millis() / SimTime::WEEK) as u32;
    let mut cov = Coverage {
        retries,
        ..Coverage::default()
    };
    for (i, &ip) in targets.iter().enumerate() {
        let got = answered(i);
        cov.attempted += per_target;
        cov.answered += got;
        let missed = per_target - got;
        let resolver = world.resolver_at(ip);
        if resolver.is_some_and(|m| world.reachable(m, week, require_noerror)) {
            cov.gave_up += missed;
        } else {
            cov.unreachable += missed;
        }
    }
    cov
}

/// Closed loop, Fig. 1: the live NOERROR resolvers that week `week`'s
/// scan can reach — not opted out, not behind full border filters
/// (those are invisible to every outside observer).
pub fn weekly_noerror(world: &World, week: u32) -> u64 {
    let blacklist = Blacklist::new(
        world.blacklist_ranges.clone(),
        world.blacklist_singles.clone(),
    );
    world
        .resolvers
        .iter()
        .filter(|m| {
            world.reachable(m, week, true)
                && world
                    .resolver_ip(m)
                    .is_some_and(|ip| !blacklist.contains(ip))
        })
        .count() as u64
}

/// Closed loop: the generator's ground truth, from resolver metadata,
/// captured at world build time.
pub fn capture_ground_truth(world: &World) -> GroundTruth {
    let counts = world.alive_counts();
    let alive_noerror: Vec<&worldgen::ResolverMeta> = world
        .resolvers
        .iter()
        .filter(|m| {
            m.alive.load(std::sync::atomic::Ordering::Relaxed)
                && m.response_class == ResponseClass::NoError
        })
        .collect();
    let plan = worldgen::plan::UTILIZATION_PLAN;
    GroundTruth {
        noerror: *counts.get(&ResponseClass::NoError).unwrap_or(&0) as f64,
        refused: *counts.get(&ResponseClass::Refused).unwrap_or(&0) as f64,
        // The device plan records only *recognizable* devices; hosts
        // with unrecognizable banners are also TCP-exposed, so ground
        // truth is the plan constant.
        tcp_exposed: worldgen::plan::TCP_EXPOSED_FRACTION,
        genuine_share: alive_noerror.iter().filter(|m| m.chaos_genuine).count() as f64
            / alive_noerror.len().max(1) as f64,
        zynos: alive_noerror
            .iter()
            .filter(|m| matches!(m.device, Some(worldgen::plan::DeviceClassPlan::RouterZyNos)))
            .count() as f64,
        in_use_share: plan.frequent + plan.in_use_slow,
    }
}

/// Trusted baseline: every domain resolved from our own vantage (ARIN
/// region), a few times to capture CDN edge rotation.
pub fn trusted_view(world: &World, domains: &[(String, DomainCategory)]) -> TrustedView {
    let mut view = TrustedView::default();
    for (name, _) in domains {
        let mut ips = BTreeSet::new();
        let mut exists = false;
        for salt in 0..3u64 {
            match world.universe.resolve(name, geodb::Rir::Arin, salt) {
                Resolution::Ips { ips: got, .. } => {
                    exists = true;
                    ips.extend(got);
                }
                Resolution::NxDomain => {}
            }
        }
        if exists {
            view.ips.insert(name.clone(), ips.into_iter().collect());
        } else {
            view.nonexistent.insert(name.clone());
        }
    }
    view
}

/// Trusted baseline: the prefilter's forward lookup of a PTR name.
pub fn trusted_forward(world: &World) -> impl Fn(&str) -> Vec<Ipv4Addr> {
    let universe = world.universe.clone();
    move |name: &str| match universe.resolve(name, geodb::Rir::Arin, 0) {
        Resolution::Ips { ips, .. } => ips,
        Resolution::NxDomain => Vec::new(),
    }
}

/// Trusted baseline: the ground-truth representation of `domain`,
/// fetched from the address our own resolution gives.
pub fn acquire_trusted(world: &mut World, vantage: Ipv4Addr, domain: &str) -> Option<Acquired> {
    let region = geodb::Rir::Arin; // the measurement host's region
    let res = world.universe.resolve(domain, region, 0);
    let Resolution::Ips { ips, .. } = res else {
        return None;
    };
    let ip = *ips.first()?;
    let is_mail = world
        .universe
        .record(domain)
        .is_some_and(|r| r.is_mail_host);
    // Trusted acquisition does not depend on any open resolver; pass the
    // authoritative answer's own address for redirect re-resolution.
    Some(acquire(world, vantage, ip, domain, ip, is_mail))
}
