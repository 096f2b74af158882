//! The enumeration sweep's allocation budget. Nineteen probes in twenty
//! die in dark space, so a sweep that allocates per probe spends its
//! time in the allocator; payloads are stamped into one buffer per
//! batch instead, and this binary holds the sweep to that.
//!
//! One test only: the counter is process-wide, and a sibling test
//! allocating on another thread would be counted too.

mod counting_alloc;

use counting_alloc::{allocation_count, Counting};
use worldgen::{build_world, WorldConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn enumeration_sweep_allocates_per_batch_not_per_probe() {
    let mut world = build_world(WorldConfig::tiny(7));
    let vantage = world.scanner_ip;
    let before = allocation_count();
    let result = scanner::enumerate(&mut world, vantage, 1);
    let allocations = allocation_count() - before;
    let responders = result.observations.len() as u64;
    println!(
        "enumerate: {allocations} allocations for {} probes ({responders} responders) = {:.3} per probe",
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
}
