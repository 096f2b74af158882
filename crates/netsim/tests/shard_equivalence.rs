//! The sharded engine's acceptance bar: **byte-identical** behaviour to
//! the single-threaded reference engine at any shard count, under
//! faults, churn flaps, mid-run plan swaps, batched sends, and traffic
//! that crosses shard boundaries.

use netsim::host::{EchoHost, FnHost};
use netsim::{
    ChurnConfig, Datagram, FaultPlan, FaultStats, LeasePool, NetEngine, NetHandle, NetStats,
    Network, NetworkConfig, ShardedNet, SimTime,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Region A: the churned consumer pool the lease pool renumbers within.
const POOL_BASE: u32 = 0x0A00_0000; // 10.0.0.0
const POOL_SIZE: u32 = 64;
/// Region B: statically addressed relays that forward into region A.
const RELAY_BASE: u32 = 0x1400_0000; // 20.0.0.0
const RELAY_COUNT: u32 = 8;
const SCANNER: Ipv4Addr = Ipv4Addr::new(100, 0, 0, 1);

fn regions() -> Vec<(Ipv4Addr, Ipv4Addr)> {
    vec![
        (
            Ipv4Addr::from(POOL_BASE),
            Ipv4Addr::from(POOL_BASE + POOL_SIZE - 1),
        ),
        (
            Ipv4Addr::from(RELAY_BASE),
            Ipv4Addr::from(RELAY_BASE + RELAY_COUNT - 1),
        ),
    ]
}

/// Build the topology every engine variant starts from: 24 echo hosts
/// (bound later, by the lease pool, inside region A) plus 8 relay hosts
/// in region B that forward scanner traffic onward into region A —
/// host-to-host flows that cross the shard boundary.
fn build_network(seed: u64, loss: f64) -> (Network, Vec<netsim::HostId>) {
    let mut net = Network::new(NetworkConfig {
        seed,
        udp_loss: loss,
        latency_ms: (5, 80),
        tcp_loss: 0.0,
    });
    net.set_instrumentation(false);
    let members: Vec<netsim::HostId> = (0..24).map(|_| net.add_host(Box::new(EchoHost))).collect();
    for i in 0..RELAY_COUNT {
        let target = Ipv4Addr::from(POOL_BASE + (i * 3) % POOL_SIZE);
        let h = net.add_host(Box::new(FnHost(
            move |ctx: &mut netsim::HostCtx<'_>, d: &Datagram| {
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

/// Everything observable a run produces. Two engines are equivalent iff
/// these compare equal.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Socket arrivals in delivery order: (arrival ms, payload).
    arrivals: Vec<(u64, Vec<u8>)>,
    stats: NetStats,
    faults: FaultStats,
    end_ms: u64,
    /// (events, delivered) per run call — stalls intentionally omitted
    /// (they are a sharded-engine-only diagnostic).
    reports: Vec<(u64, u64)>,
    renumbered: Vec<usize>,
}

/// Drive one fixed traffic script against an engine: interleaved
/// individual sends (some with future departure times), a large
/// `send_many` batch (large enough to take the sharded engine's
/// parallel path), churn renumbering between windows, and a fault-plan
/// swap mid-run.
fn run_script(h: &mut dyn NetEngine, members: Vec<netsim::HostId>, sends: &[(u8, u8)]) -> Observed {
    let pool_ips: Vec<Ipv4Addr> = (0..POOL_SIZE)
        .map(|i| Ipv4Addr::from(POOL_BASE + i))
        .collect();
    let mut pool = LeasePool::new(
        &mut *h,
        ChurnConfig {
            mean_lease_ms: 40_000,
            seed: 7,
        },
        pool_ips,
        members,
        SimTime::ZERO,
    );
    h.set_fault_plan(FaultPlan::named("flappy", 3).unwrap());
    let sock = h.open_socket(SCANNER, 40_000);

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
                h.send(d, Some(t0 + (i as u64 % 97)));
            } else {
                h.send(d, None);
            }
        }
        if step == 2 {
            // A batch comfortably above the inline threshold, so the
            // sharded engine fans the evaluation out to its workers.
            let batch: Vec<Datagram> = (0..600u32)
                .map(|i| {
                    let dst = if i % 4 == 0 {
                        Ipv4Addr::new(99, 1, (i >> 8) as u8, i as u8)
                    } else {
                        Ipv4Addr::from(POOL_BASE + i % POOL_SIZE)
                    };
                    Datagram::new(SCANNER, 40_000, dst, 53, vec![i as u8; 4])
                })
                .collect();
            h.send_many(batch);
        }
        if step == 4 {
            // Swap regimes mid-run: the new plan must reach every shard.
            h.set_fault_plan(FaultPlan::named("hostile", 11).unwrap());
        }
        let r = h.run_until(t0 + 30_000);
        obs.reports.push((r.events, r.delivered));
        let now = r.end;
        obs.renumbered.push(pool.renumber_expired(&mut *h, now));
    }
    let r = h.run_to_idle(SimTime(steps * 30_000 + 60_000));
    obs.reports.push((r.events, r.delivered));
    obs.arrivals = h
        .recv_all(sock)
        .unwrap()
        .into_iter()
        .map(|(t, d)| (t.millis(), d.payload.to_vec()))
        .collect();
    obs.stats = h.stats();
    obs.faults = h.fault_stats();
    obs.end_ms = h.now().millis();
    // Conservation at idle: every datagram handed to the transport or
    // injected into it ended in exactly one counted bucket.
    let s = obs.stats;
    assert_eq!(
        s.udp_sent + s.injected,
        s.udp_filtered + s.udp_unbound + s.udp_lost + s.udp_delivered,
        "conservation violated at {} shards: {s:?}",
        h.shards()
    );
    obs
}

fn run_at(shards: usize, seed: u64, loss: f64, sends: &[(u8, u8)]) -> Observed {
    let (net, members) = build_network(seed, loss);
    let mut h = if shards <= 1 {
        NetHandle::single(net)
    } else {
        NetHandle::sharded(net, shards, &regions())
    };
    run_script(&mut *h, members, sends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random traffic (with faults, churn flaps, batched sends, and a
    /// mid-run plan swap) observes identical delivery orders and
    /// identical `NetStats` at every shard count.
    #[test]
    fn shard_counts_are_byte_identical(
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        sends in proptest::collection::vec((any::<u8>(), any::<u8>()), 10..60),
    ) {
        let reference = run_at(1, seed, loss, &sends);
        for shards in [2usize, 4, 7] {
            let sharded = run_at(shards, seed, loss, &sends);
            prop_assert_eq!(&reference, &sharded, "diverged at {} shards", shards);
        }
    }
}

/// A flow that crosses a shard boundary keeps its flow-keyed RNG
/// stream: the relay→pool leg is evaluated on a different worker than
/// the pool→relay reply, yet arrival times (loss rolls, jitter) match
/// the reference engine exactly.
#[test]
fn cross_shard_flow_keeps_flow_keyed_stream() {
    let sends: Vec<(u8, u8)> = (0u8..40).map(|i| (1 + i.wrapping_mul(3), i)).collect();
    let reference = run_at(1, 42, 0.15, &sends);

    let (net, members) = build_network(42, 0.15);
    let mut sharded = ShardedNet::from_network(net, 4, &regions());
    assert_eq!(NetEngine::shards(&sharded), 4);
    let obs = run_script(&mut sharded, members, &sends);
    assert_eq!(reference, obs, "cross-shard flows diverged");
    assert!(
        sharded.cross_shard_messages() > 0,
        "script must actually cross the shard boundary"
    );
}

/// The observability layer's first law (DESIGN §15): with scaling
/// capture and the commit profiler both enabled, the engine's
/// observable behaviour — arrivals, stats, fault counters, report
/// figures — stays byte-identical to an uninstrumented run. The
/// instrumentation may only *describe* the run, never perturb it.
#[test]
fn instrumentation_does_not_change_behaviour() {
    let sends: Vec<(u8, u8)> = (0u8..30).map(|i| (i.wrapping_mul(7), i)).collect();
    let plain = run_at(4, 9, 0.1, &sends);
    telemetry::enable_profile();
    netsim::scaling::enable();
    let instrumented = run_at(4, 9, 0.1, &sends);
    let measurement = netsim::scaling::take();
    let profile = telemetry::take_profile().expect("profiling was enabled");
    assert_eq!(plain, instrumented, "instrumentation must be invisible");
    // The commit profiler's folded categories (DESIGN §15) all report.
    for leaf in ["recorder_append", "rate_limit", "schedule", "stats_flush"] {
        let path = format!("shard_commit;{leaf}");
        assert!(profile.folded().contains_key(&path), "missing {path}");
    }

    let m = measurement.expect("the sharded run publishes a measurement at flush");
    assert!(m.batches > 0, "windows were charged");
    assert!(m.total_work_units > 0, "deliveries were charged");
    let p = netsim::scaling::predictions(&m);
    assert_eq!(p[0].workers, 1);
    assert!(
        (p[0].speedup_x - 1.0).abs() < 1e-9,
        "1-worker anchor must be exact, got {}",
        p[0].speedup_x
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The deterministic shard accounting is internally consistent on
    /// random traffic: the traffic matrix's off-diagonal total is
    /// exactly `cross_messages`, row and column sums agree, every
    /// routed delivery lands in a shard's event count, and both stall
    /// decompositions (per-cause and per-shard) resum to the total.
    #[test]
    fn shard_accounting_is_internally_consistent(
        seed in any::<u64>(),
        sends in proptest::collection::vec((any::<u8>(), any::<u8>()), 10..40),
    ) {
        let (net, members) = build_network(seed, 0.1);
        let mut sharded = ShardedNet::from_network(net, 4, &regions());
        let _ = run_script(&mut sharded, members, &sends);
        let s = NetEngine::shard_stats(&sharded);
        prop_assert_eq!(s.shards, 4);
        prop_assert_eq!(s.traffic.len(), 4);

        let off_diag: u64 = s.traffic.iter().enumerate()
            .flat_map(|(i, row)| row.iter().enumerate()
                .filter(move |&(j, _)| j != i)
                .map(|(_, &v)| v))
            .sum();
        prop_assert_eq!(off_diag, s.cross_messages);

        let total: u64 = s.traffic.iter().flatten().sum();
        let row_sums: u64 = s.traffic.iter().map(|r| r.iter().sum::<u64>()).sum();
        let col_sums: u64 = (0..s.shards)
            .map(|j| s.traffic.iter().map(|r| r[j]).sum::<u64>())
            .sum();
        prop_assert_eq!(row_sums, total);
        prop_assert_eq!(col_sums, total);

        // Matrix entries are the host->host subset of routed events.
        let events: u64 = s.events.iter().sum();
        prop_assert!(total <= events, "traffic {} > events {}", total, events);

        // Each stall gets exactly one "why" and one "where".
        prop_assert_eq!(
            s.stalls,
            s.stalls_min_latency + s.stalls_injector + s.stalls_empty_queue
        );
        prop_assert_eq!(
            s.stalls,
            s.stall_by_shard.iter().sum::<u64>() + s.stalls_unrouted
        );
    }
}

#[test]
fn socket_misuse_is_typed() {
    let (net, _members) = build_network(1, 0.0);
    let mut h = NetHandle::sharded(net, 2, &regions());
    let sock = h.open_socket(SCANNER, 40_000);
    assert_eq!(h.recv(sock), Ok(None));
    assert!(h.close_socket(sock).is_ok());
    assert_eq!(h.close_socket(sock), Err(netsim::SocketError::Closed));
    assert_eq!(h.recv(sock), Err(netsim::SocketError::Closed));
    assert_eq!(
        h.recv_all(netsim::SocketHandle(999)),
        Err(netsim::SocketError::Unknown)
    );
}
