//! The enumeration sweep's allocation budget. Nineteen probes in twenty
//! die in dark space, so a sweep that allocates per probe spends its
//! time in the allocator; payloads are stamped into one buffer per
//! batch instead, and this binary holds the sweep to that.
//!
//! One test only: the counter is process-wide, and a sibling test
//! allocating on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use worldgen::{build_world, WorldConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and guards
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn enumeration_sweep_allocates_per_batch_not_per_probe() {
    let mut world = build_world(WorldConfig::tiny(7));
    let vantage = world.scanner_ip;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = scanner::enumerate(&mut world, vantage, 1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let responders = result.observations.len() as u64;
    println!(
        "enumerate: {allocations} allocations for {} probes ({responders} responders) = {:.3} per probe",
        result.probes_sent,
        allocations as f64 / result.probes_sent as f64,
    );
    assert!(result.probes_sent > 10_000 && responders > 100);
    // A responder costs about fifty allocations — the host's answer,
    // its decode, the observation — and responders are a fortieth of
    // the targets here. Allow each 64 and every probe a quarter of one:
    // a sweep that allocates even once per probe is far outside that.
    let budget = result.probes_sent / 4 + 64 * responders;
    assert!(
        allocations < budget,
        "{allocations} allocations for {} probes and {responders} responders, budget {budget}",
        result.probes_sent
    );
}
