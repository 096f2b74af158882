//! Fault counters across fault-plan swaps: `fault_stats()` never goes
//! down, whatever plans are installed and removed in between, and the
//! `netsim.faults.*` telemetry counters receive exactly what it counts.

use netsim::host::EchoHost;
use netsim::{Datagram, FaultPlan, FaultStats, Network, NetworkConfig, SimTime, TcpRequest};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use telemetry::Telemetry;

const SCANNER: Ipv4Addr = Ipv4Addr::new(100, 0, 0, 1);
const STEP_MS: u64 = 10 * SimTime::MINUTE;

fn fields(f: FaultStats) -> [u64; 5] {
    [
        f.burst_drops,
        f.outage_drops,
        f.flap_drops,
        f.rate_limit_drops,
        f.latency_spiked,
    ]
}

/// The `netsim.faults.*` counters of `tel`, in [`fields`] order.
fn registry(tel: &Telemetry) -> [u64; 5] {
    [
        "burst_drops",
        "outage_drops",
        "flap_drops",
        "rate_limit_drops",
        "latency_spiked",
    ]
    .map(|name| {
        tel.registry()
            .counter(&format!("netsim.faults.{name}"))
            .get()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `plans` picks, per step, no plan (0) or one of the six profiles.
    #[test]
    fn fault_counters_survive_any_plan_swap(plans in proptest::collection::vec(0usize..7, 1..9)) {
        // The network counts into the handle installed when it is built.
        let tel = Telemetry::new();
        let _in = tel.enter();
        let mut net = Network::new(NetworkConfig { seed: 3, ..NetworkConfig::default() });
        for i in 0..32u8 {
            let h = net.add_host(Box::new(EchoHost));
            net.bind_ip(Ipv4Addr::new(10 + i, 0, 0, 1), h);
        }
        let _sock = net.open_socket(SCANNER, 40_000);
        let mut last = [0u64; 5];
        for (step, &p) in plans.iter().enumerate() {
            let plan = match p {
                0 => FaultPlan::none(),
                n => FaultPlan::named(FaultPlan::PROFILES[n - 1], 5).unwrap(),
            };
            net.set_fault_plan(plan);
            let t0 = SimTime(step as u64 * STEP_MS);
            for k in 0..600u64 {
                let dst = Ipv4Addr::new(10 + (k % 32) as u8, 0, 0, 1);
                let payload = (step as u64 * 1_000 + k).to_be_bytes().to_vec();
                // Bursts of 20 per instant so a rate limit bites.
                let at = t0 + (k / 20) * 1_000;
                net.send(Datagram::new(SCANNER, 40_000, dst, 53, payload), Some(at));
            }
            let _ = net.tcp_query(Ipv4Addr::new(10, 0, 0, 1), 7, &TcpRequest::BannerProbe);
            net.run_until(t0 + STEP_MS);
            let now = fields(net.fault_stats());
            prop_assert!(
                now.iter().zip(&last).all(|(n, l)| n >= l),
                "step {step} ({plans:?}): counters went down from {last:?} to {now:?}"
            );
            prop_assert_eq!(registry(&tel), now, "step {} ({:?})", step, plans);
            last = now;
        }
    }
}
