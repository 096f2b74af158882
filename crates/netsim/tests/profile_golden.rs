//! One fixed traffic script, run with no fault plan and under each of
//! the six built-in profiles, pinned as one FNV digest per run.
//!
//! The script reaches every stage of the send pipeline: bound, dark,
//! filtered (at send time and at delivery time) and observer-watched
//! destinations, port-53 bursts that empty a rate-limit bucket, replies
//! travelling back through the same stages, and a few TCP queries. The
//! digest covers the socket arrivals (time and payload), `NetStats`,
//! `FaultStats` and the flight recorder's drop reasons in order, so a
//! reordered stage, a moved counter or a lost recorder record changes
//! it.

use netsim::host::EchoHost;
use netsim::{
    Datagram, FaultPlan, FaultStats, FilterDirection, NetStats, Network, NetworkConfig,
    PathObserver, SimTime, TcpRequest,
};
use std::net::Ipv4Addr;

const SCANNER: Ipv4Addr = Ipv4Addr::new(100, 0, 0, 1);
/// Echo hosts, one per /16, so outage windows hit them independently.
const HOSTS: u8 = 64;
const ROUNDS: u64 = 48;
const ROUND_MS: u64 = 5 * SimTime::MINUTE;

fn host_ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10 + i, i.wrapping_mul(7), 0, 1)
}

/// Forges a reply to every query whose payload starts with `censored`.
struct Forger;

impl PathObserver for Forger {
    fn on_transit(&mut self, _now: SimTime, d: &Datagram) -> Vec<(u64, Datagram)> {
        if d.dst_port == 53 && d.payload.starts_with(b"censored") {
            vec![(3, d.reply_with(&b"forged"[..]))]
        } else {
            vec![]
        }
    }
}

/// Everything one run of the script observes.
struct Run {
    arrivals: Vec<(u64, Vec<u8>)>,
    stats: NetStats,
    faults: FaultStats,
    drops: Vec<&'static str>,
}

fn run_script(plan: Option<FaultPlan>) -> Run {
    let mut net = Network::new(NetworkConfig {
        seed: 0x601d,
        udp_loss: 0.02,
        ..NetworkConfig::default()
    });
    for i in 0..HOSTS {
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(host_ip(i), h);
    }
    // A walled host: bound, but its /16 is filtered inbound from t=0.
    let walled = Ipv4Addr::new(7, 7, 7, 7);
    let h = net.add_host(Box::new(EchoHost));
    net.bind_ip(walled, h);
    net.add_filter(
        Ipv4Addr::new(7, 7, 0, 0),
        Ipv4Addr::new(7, 7, 255, 255),
        FilterDirection::Inbound,
        SimTime::ZERO,
    );
    // Host 5 goes behind an ingress filter half-way through, 5 ms
    // after a query to it departs: that query is filtered at delivery.
    let walled_at = SimTime(ROUNDS / 2 * ROUND_MS);
    net.add_filter(
        host_ip(5),
        host_ip(5),
        FilterDirection::Inbound,
        walled_at + 5,
    );
    net.add_injector(Box::new(Forger));
    if let Some(plan) = plan {
        net.set_fault_plan(plan);
    }
    let sock = net.open_socket(SCANNER, 40_000);
    let query = |dst, payload: Vec<u8>| Datagram::new(SCANNER, 40_000, dst, 53, payload);

    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    telemetry::recorder::enable(1.0, 1, 1 << 20);
    telemetry::recorder::set_context("golden", 1);
    for round in 0..ROUNDS {
        let t0 = SimTime(round * ROUND_MS);
        net.advance_to(t0);
        for i in 0..HOSTS {
            // Spread departures over the round so burst slots, spike
            // windows and flaps see distinct instants.
            let at = t0 + (i as u64 * 4_663 + round * 97) % ROUND_MS;
            let payload = [b'q', i, round as u8].to_vec();
            net.send(query(host_ip(i), payload), Some(at));
        }
        let r = round as u8;
        net.send(query(Ipv4Addr::new(99, r, 1, 1), vec![b'd', r]), None);
        net.send(query(walled, vec![b'w', r]), None);
        if t0 == walled_at {
            net.send(query(host_ip(5), vec![b'f']), None);
        }
        let watched = host_ip(r % HOSTS);
        net.send(query(watched, [&b"censored"[..], &[r]].concat()), None);
        // 30 queries 20 ms apart at one host: a rate-limited profile's
        // bucket holds 10 and refills 5 a second, and the burst spans
        // six slots of the burst chain, so the two stages meet.
        let target = host_ip(r.wrapping_mul(5).wrapping_add(1) % HOSTS);
        for k in 0..30u8 {
            let at = t0 + 1_000 + k as u64 * 20;
            net.send(query(target, vec![b'b', r, k]), Some(at));
        }
        if round % 6 == 0 {
            let _ = net.tcp_query(host_ip(r % HOSTS), 7, &TcpRequest::BannerProbe);
            let _ = net.tcp_query(host_ip(r % HOSTS), 80, &TcpRequest::BannerProbe);
            let _ = net.tcp_query(walled, 7, &TcpRequest::BannerProbe);
        }
        net.run_until(t0 + ROUND_MS);
    }
    net.run_until(SimTime(ROUNDS * ROUND_MS + SimTime::MINUTE));
    let drops = telemetry::recorder::drain()
        .iter()
        .map(|rec| rec.reason)
        .collect();
    telemetry::recorder::disable();
    let arrivals = net
        .recv_all(sock)
        .unwrap()
        .into_iter()
        .map(|(t, d)| (t.millis(), d.payload.to_vec()))
        .collect();
    Run {
        arrivals,
        stats: net.stats(),
        faults: net.fault_stats(),
        drops,
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn digest(run: &Run) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (t, payload) in &run.arrivals {
        fnv(&mut h, &t.to_le_bytes());
        fnv(&mut h, payload);
    }
    fnv(
        &mut h,
        format!("{:?}{:?}", run.stats, run.faults).as_bytes(),
    );
    for reason in &run.drops {
        fnv(&mut h, reason.as_bytes());
        fnv(&mut h, b"\n");
    }
    h
}

#[test]
fn every_fault_profile_keeps_its_digest() {
    // (profile, digest)
    let pinned: [(&str, u64); 7] = [
        ("none", 0x7e1b_ded7_d23e_bb25),
        ("flaky", 0x6878_2534_c71a_04d9),
        ("bursty", 0x8388_a595_19b8_8a75),
        ("outage", 0xc415_e544_dc0b_2560),
        ("flappy", 0x793b_15fc_3d5b_3c8f),
        ("ratelimited", 0x89f2_9549_b1ab_2c6f),
        ("hostile", 0x1e2a_3d9c_17df_dbc7),
    ];
    let mut got = Vec::new();
    for (profile, _) in pinned {
        let plan = (profile != "none").then(|| FaultPlan::named(profile, 17).unwrap());
        let run = run_script(plan);
        let s = run.stats;
        // The script reaches every stage it is meant to pin.
        assert!(
            s.udp_filtered > 0 && s.udp_unbound > 0 && s.injected > 0,
            "{profile}: {s:?}"
        );
        assert!(s.udp_lost > 0 && s.tcp_queries > 0, "{profile}: {s:?}");
        let f = run.faults;
        let hit = match profile {
            "none" => f == FaultStats::default(),
            "flaky" => f.burst_drops > 0 && f.latency_spiked > 0,
            "bursty" => f.burst_drops > 0,
            "outage" => f.outage_drops > 0,
            "flappy" => f.flap_drops > 0,
            "ratelimited" => f.rate_limit_drops > 0,
            _ => f.burst_drops * f.outage_drops * f.flap_drops * f.rate_limit_drops > 0,
        };
        assert!(hit, "{profile}: {f:?}");
        assert_eq!(
            run.drops.len() as u64,
            s.udp_lost,
            "{profile}: one record a drop"
        );
        got.push((profile, digest(&run), s, f));
    }
    for ((profile, want), (_, digest, s, f)) in pinned.iter().zip(&got) {
        assert_eq!(
            *digest, *want,
            "{profile}: digest {digest:#018x} ({s:?}, {f:?})"
        );
    }
}
