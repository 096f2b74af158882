//! The bytes a resolver and a stored record may cost, so they cannot
//! creep back: a world is held to a budget per resolver (live heap bytes
//! and live allocations, read from a counting allocator), the in-memory
//! store to one per committed record, and the `-v` ledger — which counts
//! from lengths — to agreeing with the allocator about the world.
//!
//! One test only: the counters are process-wide, and a sibling test
//! allocating on another thread would be counted too.

#[path = "../crates/scanner/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::{live_allocations, live_bytes, Counting};
use scanstore::{MemoryStore, Observation, ObservationSink, SnapshotSink};
use worldgen::{build_world, WorldConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes a world may hold per resolver (parent commit: 811).
const WORLD_BYTES_PER_RESOLVER: f64 = 520.0;
/// Live allocations per resolver (parent: 6.9).
const WORLD_ALLOCATIONS_PER_RESOLVER: f64 = 3.0;
/// `size_of::<ResolverHost>()` (parent: 216).
const RESOLVER_HOST_BYTES: usize = 112;
/// Live heap bytes per committed weekly-shaped record (parent: 64).
const STORE_BYTES_PER_RECORD: f64 = 16.0;
/// How far the ledger's world total may be from the allocator's.
const LEDGER_TOLERANCE: f64 = 0.10;

#[test]
fn world_and_store_stay_inside_their_byte_budgets() {
    // The inputs of gwbench's `enum_seq` workload.
    let cfg = WorldConfig {
        seed: 51,
        scale: 0.0003,
        weeks: 3,
        ..WorldConfig::default()
    };
    let (bytes, allocations) = (live_bytes(), live_allocations());
    let world = build_world(cfg);
    let bytes = (live_bytes() - bytes) as f64;
    let allocations = (live_allocations() - allocations) as f64;
    let resolvers = world.resolvers.len() as f64;
    let ledger: usize = world.mem_ledger().iter().map(|row| row.1).sum();
    println!(
        "world: {resolvers} resolvers, {:.1} B and {:.2} allocations each; ledger {ledger} B of {bytes} live",
        bytes / resolvers,
        allocations / resolvers,
    );
    assert!(resolvers > 10_000.0);
    assert!(bytes / resolvers <= WORLD_BYTES_PER_RESOLVER);
    assert!(allocations / resolvers <= WORLD_ALLOCATIONS_PER_RESOLVER);
    assert!(std::mem::size_of::<resolversim::ResolverHost>() <= RESOLVER_HOST_BYTES);
    assert!(
        (ledger as f64 - bytes).abs() <= LEDGER_TOLERANCE * bytes,
        "the ledger counts {ledger} B, the allocator {bytes}"
    );

    // A weekly sweep's records: NOERROR answers a few addresses apart,
    // enriched with country, AS and rDNS token, seen once.
    let mut store = MemoryStore::new();
    let (country, rdns) = (store.intern("BR"), store.intern("dyn"));
    let t_ms = 3 * 604_800_000u64;
    let before = live_bytes();
    for i in 0..10_000u32 {
        store.observe(Observation {
            country,
            rdns,
            asn: 1_000 + i % 200,
            ..Observation::at(0x0B00_0000 + 37 * i, 0, t_ms + u64::from(i % 5_000))
        });
    }
    store.commit("week-3", t_ms, &[]).unwrap();
    let per_record = (live_bytes() - before) as f64 / 10_000.0;
    println!("store: {per_record:.1} B a committed record");
    assert!(per_record <= STORE_BYTES_PER_RECORD);
}
