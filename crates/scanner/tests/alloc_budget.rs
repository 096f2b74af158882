//! The enumeration sweep's allocation budget. Nineteen probes in twenty
//! die in dark space, so a sweep that allocates per probe spends its
//! time in the allocator; payloads are stamped into one buffer per
//! batch instead, and this binary holds the sweep to that. Probes are
//! stamped ahead on a second thread, so the binary also holds the sweep
//! to a ceiling on live bytes: the stamper may not run far ahead of the
//! thread that sends.
//!
//! One test only: the counter is process-wide, and a sibling test
//! allocating on another thread would be counted too.

mod counting_alloc;

use counting_alloc::{
    allocation_count, live_bytes, peak_live_bytes, reset_peak_live_bytes, Counting,
};
use scanstore::{Observation, ObservationSink};
use std::time::Duration;
use worldgen::{build_world, WorldConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Holds the sending thread up at the first answer, long enough for a
/// stamper without a bound to stamp the rest of the sweep. The budget
/// holds however long the stall is; the stall only makes sure a stamper
/// that ran ahead without a bound would be caught.
struct StallOnce(bool);

impl ObservationSink for StallOnce {
    fn observe(&mut self, _obs: Observation) {
        if !std::mem::replace(&mut self.0, true) {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn intern(&mut self, _s: &str) -> u32 {
        0
    }
}

#[test]
fn enumeration_sweep_allocates_per_batch_not_per_probe() {
    let mut world = build_world(WorldConfig::tiny(7));
    let vantage = world.scanner_ip;
    let (before, live_before) = (allocation_count(), live_bytes());
    reset_peak_live_bytes();
    let result = scanner::enumerate_with_sink(&mut world, vantage, 1, &mut StallOnce(false));
    let allocations = allocation_count() - before;
    let peak = peak_live_bytes() - live_before;
    let responders = result.observations.len() as u64;
    println!(
        "enumerate: {allocations} allocations for {} probes ({responders} responders) = {:.3} per probe; peak {peak} B live above the start",
        result.probes_sent,
        allocations as f64 / result.probes_sent as f64,
    );
    assert!(result.probes_sent > 10_000 && responders > 100);
    // A responder costs a handful of allocations — the host's answer
    // addresses and reply, the payload made of it, the observation
    // (`alloc_budget_domains.rs` holds that path to its own budget) —
    // and responders are a fortieth of the targets here. Allow each 12
    // and every probe a quarter of one: a sweep that allocates even
    // once per probe is far outside that.
    let budget = result.probes_sent / 4 + 12 * responders;
    assert!(
        allocations < budget,
        "{allocations} allocations for {} probes and {responders} responders, budget {budget}",
        result.probes_sent
    );
    // The sweep's own state (observations, the event queue, the batch
    // buffers) peaks near 1 MB here, and the chunks the stamper may
    // fill ahead add ≈ 0.1 MB. A stamper that ran ahead without a bound
    // would hold the rest of the sweep's 146 k probes, ≈ 80 B each:
    // 11.7 MB.
    let ceiling = 1_500_000;
    assert!(
        peak < ceiling,
        "{peak} B live above the start, ceiling {ceiling}"
    );
}
