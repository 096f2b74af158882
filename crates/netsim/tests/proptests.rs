//! Property tests for the simulator's foundational guarantees:
//! determinism under identical seeds and conservation of datagrams —
//! on plain echo traffic, and on a script where host→host relays,
//! lease renumbering, future-dated sends and a mid-run fault-plan swap
//! meet.

use proptest::prelude::*;

// A tiny harness: N echo hosts, M sends with arbitrary payload sizes.
mod harness {
    use netsim::host::EchoHost;
    use netsim::{Datagram, Network, NetworkConfig, SimTime};
    use std::net::Ipv4Addr;

    pub fn run(
        seed: u64,
        loss: f64,
        sends: &[(u8, Vec<u8>)],
    ) -> (Vec<(u64, Vec<u8>)>, netsim::network::NetStats) {
        let mut net = Network::new(NetworkConfig {
            seed,
            udp_loss: loss,
            latency_ms: (5, 80),
            tcp_loss: 0.0,
        });
        // 8 echo hosts on distinct addresses.
        for i in 0..8u8 {
            let h = net.add_host(Box::new(EchoHost));
            net.bind_ip(Ipv4Addr::new(9, 9, 9, i), h);
        }
        let sock = net.open_socket(Ipv4Addr::new(100, 0, 0, 1), 40_000);
        for (host, payload) in sends {
            net.send(
                Datagram::new(
                    Ipv4Addr::new(100, 0, 0, 1),
                    40_000,
                    Ipv4Addr::new(9, 9, 9, host % 8),
                    53,
                    payload.clone(),
                ),
                None,
            );
        }
        net.run_until(SimTime::from_secs(60));
        let got = net
            .recv_all(sock)
            .unwrap()
            .into_iter()
            .map(|(t, d)| (t.millis(), d.payload.to_vec()))
            .collect();
        (got, net.stats())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed + same traffic ⇒ bit-identical outcomes (arrival times,
    /// payload order, statistics).
    #[test]
    fn identical_seeds_are_bit_identical(
        seed in any::<u64>(),
        loss in 0.0f64..0.5,
        sends in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..64)),
            1..60,
        ),
    ) {
        let a = harness::run(seed, loss, &sends);
        let b = harness::run(seed, loss, &sends);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// Datagram conservation: sent = delivered-to-host + lost + filtered
    /// + unbound + in-flight(0 after drain); replies are sends too.
    #[test]
    fn datagram_conservation(
        seed in any::<u64>(),
        loss in 0.0f64..0.9,
        sends in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..32)),
            1..40,
        ),
    ) {
        let (_, stats) = harness::run(seed, loss, &sends);
        prop_assert_eq!(
            stats.udp_sent,
            stats.udp_delivered + stats.udp_lost + stats.udp_filtered + stats.udp_unbound,
            "conservation violated: {:?}", stats
        );
    }

    /// With zero loss and bound destinations, every query produces
    /// exactly one reply at the socket.
    #[test]
    fn lossless_echo_is_exact(
        seed in any::<u64>(),
        sends in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..32)),
            1..40,
        ),
    ) {
        let (got, _) = harness::run(seed, 0.0, &sends);
        prop_assert_eq!(got.len(), sends.len());
    }
}

// The engine script: relays forwarding into a churned pool, under
// faults.
mod script {
    use netsim::host::{EchoHost, FnHost};
    use netsim::{
        ChurnConfig, Datagram, FaultPlan, FaultStats, HostCtx, HostId, LeasePool, NetStats,
        Network, NetworkConfig, SimTime,
    };
    use std::net::Ipv4Addr;

    /// Region A: the churned consumer pool the lease pool renumbers within.
    const POOL_BASE: u32 = 0x0A00_0000; // 10.0.0.0
    const POOL_SIZE: u32 = 64;
    /// Region B: statically addressed relays that forward into region A.
    const RELAY_BASE: u32 = 0x1400_0000; // 20.0.0.0
    const RELAY_COUNT: u32 = 8;
    pub const SCANNER: Ipv4Addr = Ipv4Addr::new(100, 0, 0, 1);

    /// Build the topology: 24 echo hosts (bound later, by the lease
    /// pool, inside region A) plus 8 relay hosts in region B that
    /// forward scanner traffic onward into region A — host-to-host
    /// flows.
    pub fn build_network(seed: u64, loss: f64) -> (Network, Vec<HostId>) {
        let mut net = Network::new(NetworkConfig {
            seed,
            udp_loss: loss,
            latency_ms: (5, 80),
            tcp_loss: 0.0,
        });
        let members: Vec<HostId> = (0..24).map(|_| net.add_host(Box::new(EchoHost))).collect();
        for i in 0..RELAY_COUNT {
            let target = Ipv4Addr::from(POOL_BASE + (i * 3) % POOL_SIZE);
            let h = net.add_host(Box::new(FnHost(
                move |ctx: &mut HostCtx<'_>, d: &Datagram| {
                    // Forward scanner queries into region A; ignore the
                    // echo replies coming back so the relay cannot loop.
                    if d.src_port == 40_000 {
                        ctx.send_udp_delayed(
                            Datagram::new(ctx.local_ip, 53, target, 53, d.payload.clone()),
                            1,
                        );
                    }
                },
            )));
            net.bind_ip(Ipv4Addr::from(RELAY_BASE + i), h);
        }
        (net, members)
    }

    /// Everything observable a run produces.
    #[derive(Debug, PartialEq)]
    pub struct Observed {
        /// Socket arrivals in delivery order: (arrival ms, payload).
        arrivals: Vec<(u64, Vec<u8>)>,
        stats: NetStats,
        faults: FaultStats,
        end_ms: u64,
        /// (events, delivered) per run call.
        reports: Vec<(u64, u64)>,
        renumbered: Vec<usize>,
    }

    /// Drive one fixed traffic script: interleaved individual sends
    /// (some with future departure times), a 600-datagram burst, churn
    /// renumbering between windows, and a fault-plan swap mid-run.
    pub fn run_script(net: &mut Network, members: Vec<HostId>, sends: &[(u8, u8)]) -> Observed {
        let pool_ips = (
            Ipv4Addr::from(POOL_BASE),
            Ipv4Addr::from(POOL_BASE + POOL_SIZE - 1),
        );
        let mut pool = LeasePool::new(
            net,
            ChurnConfig {
                mean_lease_ms: 40_000,
                seed: 7,
            },
            pool_ips,
            members,
            SimTime::ZERO,
        );
        net.set_fault_plan(FaultPlan::named("flappy", 3).unwrap());
        let sock = net.open_socket(SCANNER, 40_000);

        let mut obs = Observed {
            arrivals: Vec::new(),
            stats: NetStats::default(),
            faults: FaultStats::default(),
            end_ms: 0,
            reports: Vec::new(),
            renumbered: Vec::new(),
        };
        let steps = 6u64;
        for step in 0..steps {
            let t0 = SimTime(step * 30_000);
            for (i, &(which, len)) in sends.iter().enumerate() {
                let dst = match which % 3 {
                    0 => Ipv4Addr::from(POOL_BASE + (which as u32 % POOL_SIZE)),
                    1 => Ipv4Addr::from(RELAY_BASE + (which as u32 % RELAY_COUNT)),
                    // Dark space: exercises the unbound fast path.
                    _ => Ipv4Addr::new(99, 0, 0, which),
                };
                let payload = vec![which ^ step as u8; 1 + (len as usize % 24)];
                let d = Datagram::new(SCANNER, 40_000, dst, 53, payload);
                if i % 5 == 0 {
                    net.send(d, Some(t0 + (i as u64 % 97)));
                } else {
                    net.send(d, None);
                }
            }
            if step == 2 {
                for i in 0..600u32 {
                    let dst = if i % 4 == 0 {
                        Ipv4Addr::new(99, 1, (i >> 8) as u8, i as u8)
                    } else {
                        Ipv4Addr::from(POOL_BASE + i % POOL_SIZE)
                    };
                    net.send(
                        Datagram::new(SCANNER, 40_000, dst, 53, vec![i as u8; 4]),
                        None,
                    );
                }
            }
            if step == 4 {
                // Swap regimes mid-run.
                net.set_fault_plan(FaultPlan::named("hostile", 11).unwrap());
            }
            let r = net.run_until(t0 + 30_000);
            obs.reports.push((r.events, r.delivered));
            obs.renumbered.push(pool.renumber_expired(net, r.end));
        }
        let r = net.run_until(SimTime(steps * 30_000 + 60_000));
        obs.reports.push((r.events, r.delivered));
        obs.arrivals = net
            .recv_all(sock)
            .unwrap()
            .into_iter()
            .map(|(t, d)| (t.millis(), d.payload.to_vec()))
            .collect();
        obs.stats = net.stats();
        obs.faults = net.fault_stats();
        obs.end_ms = net.now().millis();
        // Conservation at idle: every datagram handed to the transport
        // or injected into it ended in exactly one counted bucket.
        let s = obs.stats;
        assert_eq!(
            s.udp_sent + s.injected,
            s.udp_filtered + s.udp_unbound + s.udp_lost + s.udp_delivered,
            "conservation violated: {s:?}"
        );
        obs
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random traffic under faults, churn flaps, a burst and a mid-run
    /// plan swap: the same seed observes the same delivery order, stats
    /// and renumbering twice, and the conservation identity holds at
    /// idle (asserted inside `run_script`).
    #[test]
    fn engine_script_is_deterministic_and_conserves(
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        sends in proptest::collection::vec((any::<u8>(), any::<u8>()), 10..60),
    ) {
        let run = || {
            let (mut net, members) = script::build_network(seed, loss);
            script::run_script(&mut net, members, &sends)
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn socket_misuse_is_typed() {
    use netsim::{SocketError, SocketHandle};
    let (mut net, _members) = script::build_network(1, 0.0);
    let sock = net.open_socket(script::SCANNER, 40_000);
    assert_eq!(net.recv(sock), Ok(None));
    assert!(net.close_socket(sock).is_ok());
    assert_eq!(net.close_socket(sock), Err(SocketError::Closed));
    assert_eq!(net.recv(sock), Err(SocketError::Closed));
    assert_eq!(net.recv_all(sock), Err(SocketError::Closed));
    let forged = SocketHandle(999);
    assert_eq!(net.recv(forged), Err(SocketError::Unknown));
    assert_eq!(net.recv_all(forged), Err(SocketError::Unknown));
    assert_eq!(net.close_socket(forged), Err(SocketError::Unknown));
}
