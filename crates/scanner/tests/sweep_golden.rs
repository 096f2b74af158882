//! Characterisation of the five UDP campaigns, recorded at the commit
//! before `campaign::sweep` existed (589f32d) and pinned here: for each
//! campaign, a single-attempt scan of a clean tiny world and a
//! three-attempt scan under the `flaky` fault profile, digested over
//! the observations, the network's packet counters, the final clock and
//! the retransmission count.
//!
//! The first constant of each pair is the byte-identity contract of
//! `ProbePolicy::single()` and never changes. The second changes only
//! when the retransmission path deliberately diverges; each such change
//! is listed, with its cause, next to the constant. (Each listed below
//! was confirmed by applying its one rule to the code before it: for
//! the two pump-counter changes, five lines in the old loops at
//! 589f32d; for the adaptive timeout, one line in the old policy.
//! Each reproduces the new digest exactly.)
//!
//! Target lists are padded with dark addresses so that native sweeps
//! and retransmission rounds both cross a pump boundary — the place the
//! per-campaign loops used to disagree.

use netsim::FaultPlan;
use scanner::{
    chaos_scan, enumerate, probe_alive_with_policy, scan_domains_streaming_with_policy, snoop_scan,
    ProbePolicy,
};
use std::fmt::Debug;
use std::net::Ipv4Addr;
use worldgen::{build_world, World, WorldConfig};

const SEED: u64 = 0x60_1DE2;

/// A tiny world after its fleet enumeration, and the policy to scan it
/// under. The retrying case installs the `flaky` profile once the fleet
/// is known and adds 3% i.i.d. loss: a tiny world has a handful of /16
/// paths, so the profile's per-path bursts alone can miss a short scan
/// entirely and leave only the dark padding to retransmit.
fn world_and_fleet(retrying: bool) -> (World, Vec<Ipv4Addr>, ProbePolicy) {
    let mut world = build_world(WorldConfig {
        udp_loss: if retrying { 0.03 } else { 0.0 },
        ..WorldConfig::tiny(SEED)
    });
    let vantage = world.scanner_ip;
    let fleet = enumerate(&mut world, vantage, SEED).noerror_ips();
    assert!(fleet.len() > 1_500, "fleet {}", fleet.len());
    if retrying {
        world
            .net
            .set_fault_plan(FaultPlan::named("flaky", SEED).expect("a built-in profile"));
        (world, fleet, ProbePolicy::retrying(3))
    } else {
        (world, fleet, ProbePolicy::single())
    }
}

/// `live` followed by `dark` addresses nothing is bound to.
fn padded(live: &[Ipv4Addr], dark: u32) -> Vec<Ipv4Addr> {
    let mut out = live.to_vec();
    out.extend((0..dark).map(|i| Ipv4Addr::from(0xF000_0000 + i)));
    out
}

fn digest(observations: &dyn Debug, world: &World, retries: u64) -> u64 {
    let tail = format!(
        "{:?}|{}|{retries}",
        world.net.stats(),
        world.net.now().millis()
    );
    // Shown when a digest moves (`--nocapture` otherwise).
    eprintln!("{tail}");
    scanstore::fnv1a(format!("{observations:?}|{tail}").as_bytes())
}

fn check(campaign: &str, run: impl Fn(bool) -> u64, single: u64, retrying: u64) {
    let got = (run(false), run(true));
    assert_eq!(
        got,
        (single, retrying),
        "{campaign}: (single, retrying) digests are {:#018x}, {:#018x}",
        got.0,
        got.1
    );
}

#[test]
fn enumerate_is_pinned() {
    // No retransmission in this campaign: the second case is the same
    // single-probe sweep under faults.
    let run = |faulty: bool| {
        let (mut world, _, _) = world_and_fleet(faulty);
        let vantage = world.scanner_ip;
        let result = enumerate(&mut world, vantage, SEED ^ 1);
        let mut obs: Vec<_> = result.observations.iter().collect();
        obs.sort_by_key(|(ip, _)| **ip);
        digest(
            &(obs, result.probes_sent, result.skipped_blacklisted),
            &world,
            0,
        )
    };
    check(
        "enumerate",
        run,
        0x1640_5330_cf3f_ece3,
        0x39d3_f407_3bb7_95f2,
    );
}

#[test]
fn churn_is_pinned() {
    let run = |retrying: bool| {
        let (mut world, fleet, policy) = world_and_fleet(retrying);
        let vantage = world.scanner_ip;
        let cohort = padded(&fleet, 4_500);
        let (alive, retries) =
            probe_alive_with_policy(&mut world, vantage, &cohort, SEED ^ 2, &policy);
        let mut alive: Vec<_> = alive.into_iter().collect();
        alive.sort_unstable();
        digest(&alive, &world, retries)
    };
    check("churn", run, 0x29ee_3708_b873_d004, 0xeb9e_83ab_c391_7350);
}

#[test]
fn chaos_is_pinned() {
    let run = |retrying: bool| {
        let (mut world, fleet, policy) = world_and_fleet(retrying);
        let vantage = world.scanner_ip;
        let resolvers = padded(&fleet, 1_500);
        let sink = &mut scanstore::NullSink;
        let (obs, retries) = chaos_scan(&mut world, vantage, &resolvers, SEED ^ 3, &policy, sink);
        let mut obs: Vec<_> = obs.into_iter().collect();
        obs.sort_by_key(|(ip, _)| *ip);
        digest(&obs, &world, retries)
    };
    // Retrying was 0xccf2_5bdb_b83b_fada at 589f32d. The pump counter
    // now restarts with every retransmission round; it used to carry
    // over from the native sweep, so the first 400 ms pump of a round
    // fell wherever the native sweep had left it.
    //
    // Then 0x860f_dbd1_6966_ed24, until the adaptive timeout went.
    // Retransmission round r now waits schedule[r], the jittered
    // backoff step; it used to wait an RTO grown from the answers to
    // round r, timed from the round's start (rto × 2^r, clamped to
    // [250, 6000] ms). Switching the adaptive timeout off in the old
    // `ProbePolicy::single()`, one field, reproduces this digest exactly.
    check("chaos", run, 0x870d_10b7_1578_d150, 0x0266_51e0_0708_b752);
}

#[test]
fn snoop_is_pinned() {
    let run = |retrying: bool| {
        let (mut world, fleet, policy) = world_and_fleet(retrying);
        let vantage = world.scanner_ip;
        let resolvers = padded(&fleet[..120], 80);
        let sink = &mut scanstore::NullSink;
        let (obs, retries) =
            snoop_scan(&mut world, vantage, &resolvers, 3, SEED ^ 4, &policy, sink)
                .expect("a null sink cannot fail");
        let mut obs: Vec<_> = obs.into_iter().collect();
        obs.sort_by_key(|(ip, _)| *ip);
        digest(&obs, &world, retries)
    };
    // Retrying was 0x5143_e119_b681_a213 at 589f32d, for the same
    // reason: retransmission rounds pumped at multiples of 2,000 of
    // the hourly round's running probe count, not of their own.
    check("snoop", run, 0x81bf_9990_b528_d5fa, 0x7546_c966_06a4_f213);
}

#[test]
fn domains_are_pinned() {
    let domains: Vec<String> = ["facebook.example", "paypal.example", "qzxkjv.example"]
        .map(String::from)
        .to_vec();
    let run = |retrying: bool| {
        let (mut world, fleet, policy) = world_and_fleet(retrying);
        let vantage = world.scanner_ip;
        let resolvers = padded(&fleet, 4_500);
        // In arrival order: the order tuples reach the sink is part of
        // what the scan promises.
        let mut tuples = Vec::new();
        let retries = scan_domains_streaming_with_policy(
            &mut world,
            vantage,
            &resolvers,
            &domains,
            SEED ^ 5,
            &policy,
            &mut |t| tuples.push(t),
        );
        digest(&tuples, &world, retries)
    };
    check("domains", run, 0x3959_ad11_9db7_0448, 0x976b_40ad_4a00_229e);
}
