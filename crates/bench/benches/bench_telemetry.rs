//! Telemetry overhead baseline: the same netsim echo workload with the
//! global-registry instrumentation on (the default) and off, to verify
//! the "near-free when no exporter is attached" claim.
//!
//! The workload is pure event-loop churn — every datagram crosses the
//! instrumented send/schedule/dispatch/deliver path twice — so it is a
//! worst case for the per-packet counter cost. `main` prints the
//! comparison against the < 3% overhead budget; the tracked figure is
//! gwbench's `trace.overhead_pct`.

use netsim::host::EchoHost;
use netsim::{Datagram, Network, NetworkConfig, SimTime};
use std::net::Ipv4Addr;
use std::time::Instant;

const TARGETS: u32 = 64;
const PACKETS: u32 = 200_000;
const RUNS: usize = 5;

/// One full echo workload; returns (delivered datagrams, seconds).
fn echo_workload(instrumented: bool) -> (u64, f64) {
    let mut net = Network::new(NetworkConfig {
        seed: 42,
        udp_loss: 0.01,
        latency_ms: (5, 50),
        tcp_loss: 0.0,
    });
    net.set_instrumentation(instrumented);
    let h = net.add_host(Box::new(EchoHost));
    let targets: Vec<Ipv4Addr> = (0..TARGETS)
        .map(|i| Ipv4Addr::from(0x0909_0000u32 + i))
        .collect();
    for &ip in &targets {
        net.bind_ip(ip, h);
    }
    let src = Ipv4Addr::new(100, 0, 0, 1);
    let _sock = net.open_socket(src, 40_000);
    let start = Instant::now();
    for i in 0..PACKETS {
        let dst = targets[(i % TARGETS) as usize];
        net.send(
            Datagram::new(src, 40_000, dst, 53, i.to_be_bytes().to_vec()),
            None,
        );
    }
    let delivered = net.run_until(SimTime::from_secs(3_600)).delivered;
    (delivered, start.elapsed().as_secs_f64())
}

/// Best-of-N wall-clock for one mode (minimum filters scheduler noise).
fn best_of(instrumented: bool) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut delivered = 0;
    for _ in 0..RUNS {
        let (d, secs) = echo_workload(instrumented);
        delivered = d;
        best = best.min(secs);
    }
    (delivered, best)
}

fn main() {
    // Warm-up run so page faults and lazy init hit neither side.
    let _ = echo_workload(true);

    let (delivered_on, secs_on) = best_of(true);
    let (delivered_off, secs_off) = best_of(false);
    assert_eq!(
        delivered_on, delivered_off,
        "instrumentation must not change simulation behaviour"
    );
    let overhead_pct = 100.0 * (secs_on / secs_off - 1.0);

    println!("{PACKETS} packets sent, {delivered_on} datagrams delivered, best of {RUNS}");
    println!("overhead: {overhead_pct:.2}% (on {secs_on:.3}s vs off {secs_off:.3}s, budget 3%)");
}
