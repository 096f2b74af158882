//! The domain scan's allocation budget. Every probe of this campaign
//! reaches a live resolver and comes back answered, so what one round
//! trip allocates — stamping the probe, the host's reply, the drain —
//! is paid a quarter of a million times in one small `repro` run.
//! Probes are stamped from a template into a batch buffer, the host
//! writes its reply into one buffer from a borrowed view of the query,
//! and the drain reads the response in place; this binary holds the
//! scan to that.
//!
//! One test only: the counter is process-wide, and a sibling test
//! allocating on another thread would be counted too (which is why the
//! enumeration sweep's budget lives in a binary of its own,
//! `alloc_budget.rs`).

mod counting_alloc;

use counting_alloc::{allocation_count, Counting};
use worldgen::{build_world, WorldConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn domain_scan_allocates_a_handful_per_answered_tuple() {
    let mut world = build_world(WorldConfig::tiny(7));
    let vantage = world.scanner_ip;
    let fleet = scanner::enumerate(&mut world, vantage, 1).noerror_ips();
    let domains: Vec<String> = world
        .catalog
        .domains
        .iter()
        .map(|d| d.name.clone())
        .collect();
    let before = allocation_count();
    let tuples = scanner::scan_domains(&mut world, vantage, &fleet, &domains, 7);
    let allocations = allocation_count() - before;
    let answered = tuples.len() as u64;
    println!(
        "scan_domains: {allocations} allocations for {} queries, {answered} answered tuples = {:.2} per tuple",
        fleet.len() * domains.len(),
        allocations as f64 / answered as f64,
    );
    assert!(fleet.len() > 100 && domains.len() > 100 && answered > 10_000);
    // An answered query allocated 47 times when the probe was built as
    // a `Message`, the host decoded one, built another and encoded it,
    // and the drain decoded that. What is left: the host's answer
    // addresses, its reply buffer and the payload made of it, the
    // observation's addresses, and the amortised growth of queues.
    let budget = 10 * answered;
    assert!(
        allocations < budget,
        "{allocations} allocations for {answered} answered tuples, budget {budget}"
    );
}
