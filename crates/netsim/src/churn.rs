//! DHCP-style IP address churn.
//!
//! Section 2.5 of the paper measures resolver IP churn: 40% of resolvers
//! disappear from their IP within a day, 52.2% within a week — driven by
//! consumer broadband devices with short DHCP/PPPoE leases that renumber
//! inside their ISP's pool. [`LeasePool`] models exactly that: a set of
//! member hosts sharing an address pool, each renumbering when its lease
//! expires. Renumbering permutes hosts *within* the pool, so the pool's
//! aggregate population is stable (the resolver count stays flat) while
//! individual IP↔host associations decay — the effect Figure 2 plots.
//!
//! A pool carries far more addresses than members (worldgen gives
//! consumer pools 40× slack), and its addresses are one contiguous
//! block, so the pool holds `(first, len)` and an address is `first +
//! idx`. Each member remembers the index of its address: releasing it at
//! lease expiry is a push onto the free list, not a search.

use crate::network::{HostId, Network};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Per-pool churn parameters.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Mean lease duration in milliseconds. Actual leases are drawn
    /// uniformly from `[0.5 × mean, 1.5 × mean]`.
    pub mean_lease_ms: u64,
    /// Seed for this pool's renumbering decisions.
    pub seed: u64,
}

impl ChurnConfig {
    /// The consumer-broadband default: ~1-day leases (the paper finds
    /// >40% of resolvers gone within the first day).
    pub fn consumer_daily(seed: u64) -> Self {
        ChurnConfig {
            mean_lease_ms: SimTime::DAY,
            seed,
        }
    }

    /// Long leases for mostly-static assignments.
    pub fn stable(seed: u64) -> Self {
        ChurnConfig {
            mean_lease_ms: 52 * SimTime::WEEK,
            seed,
        }
    }
}

struct Member {
    host: HostId,
    current_ip: Ipv4Addr,
    /// Offset of `current_ip` from the pool's first address.
    idx: u32,
    lease_expires: SimTime,
}

/// A DHCP pool: `members` hosts sharing the `len` addresses from
/// `first` (`len` ≥ |members|; the surplus models the ISP's free address
/// headroom).
pub struct LeasePool {
    cfg: ChurnConfig,
    first: u32,
    len: u32,
    members: Vec<Member>,
    /// Offsets from `first` currently unassigned.
    free: Vec<u32>,
    rng: SmallRng,
}

impl LeasePool {
    /// Create the pool over the inclusive address `block` and perform
    /// initial assignment: member `i` gets the block's `i`-th address,
    /// the rest go to the free list. Panics if the pool is smaller than
    /// the membership — an impossible ISP.
    pub fn new(
        net: &mut Network,
        cfg: ChurnConfig,
        block: (Ipv4Addr, Ipv4Addr),
        members: Vec<HostId>,
        now: SimTime,
    ) -> Self {
        let first = u32::from(block.0);
        let len = u32::from(block.1) - first + 1;
        assert!(
            len as usize >= members.len(),
            "pool of {len} addresses cannot hold {} members",
            members.len()
        );
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let mut pool = LeasePool {
            free: (members.len() as u32..len).collect(),
            members: Vec::with_capacity(members.len()),
            first,
            len,
            rng,
            cfg,
        };
        for (i, host) in members.into_iter().enumerate() {
            let ip = pool.address(i as u32);
            net.bind_ip(ip, host);
            let lease = pool.draw_lease();
            pool.members.push(Member {
                host,
                current_ip: ip,
                idx: i as u32,
                lease_expires: now + lease,
            });
        }
        pool
    }

    fn address(&self, idx: u32) -> Ipv4Addr {
        debug_assert!(idx < self.len);
        Ipv4Addr::from(self.first + idx)
    }

    fn draw_lease(&mut self) -> u64 {
        let mean = self.cfg.mean_lease_ms;
        let lo = mean / 2;
        let hi = mean + mean / 2;
        self.rng.gen_range(lo..=hi)
    }

    /// Renumber every member whose lease expired by `now`. The expired
    /// member's old address goes back to the free list and it draws a
    /// fresh address — possibly, by chance, the same one. Returns the
    /// number of members that changed address.
    pub fn renumber_expired(&mut self, net: &mut Network, now: SimTime) -> usize {
        let mut changed = 0;
        for i in 0..self.members.len() {
            if self.members[i].lease_expires > now {
                continue;
            }
            // Release the old address.
            let old_ip = self.members[i].current_ip;
            net.unbind_ip(old_ip);
            self.free.push(self.members[i].idx);
            // Draw a new one.
            let pick = self.rng.gen_range(0..self.free.len());
            let new_idx = self.free.swap_remove(pick);
            let new_ip = self.address(new_idx);
            net.bind_ip(new_ip, self.members[i].host);
            self.members[i].current_ip = new_ip;
            self.members[i].idx = new_idx;
            let lease = self.draw_lease();
            self.members[i].lease_expires = now + lease;
            if new_ip != old_ip {
                changed += 1;
            }
        }
        changed
    }

    /// Every member with its current address, in membership order —
    /// right after [`LeasePool::new`], member `i` at the block's `i`-th.
    pub fn assignments(&self) -> impl Iterator<Item = (HostId, Ipv4Addr)> + '_ {
        self.members.iter().map(|m| (m.host, m.current_ip))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Resident bytes, from lengths: `(members, free list)`.
    pub fn resident_bytes(&self) -> (usize, usize) {
        (
            self.members.len() * std::mem::size_of::<Member>(),
            self.free.len() * std::mem::size_of::<u32>(),
        )
    }

    /// The earliest pending lease expiry, for adaptive stepping.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.members.iter().map(|m| m.lease_expires).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::EchoHost;
    use crate::network::NetworkConfig;

    fn pool_addresses(n: usize) -> (Ipv4Addr, Ipv4Addr) {
        let first = 0x0505_0000u32;
        (Ipv4Addr::from(first), Ipv4Addr::from(first + n as u32 - 1))
    }

    fn build(net: &mut Network, members: usize, slack: usize, mean_lease: u64) -> LeasePool {
        let hosts: Vec<HostId> = (0..members)
            .map(|_| net.add_host(Box::new(EchoHost)))
            .collect();
        LeasePool::new(
            net,
            ChurnConfig {
                mean_lease_ms: mean_lease,
                seed: 42,
            },
            pool_addresses(members + slack),
            hosts,
            SimTime::ZERO,
        )
    }

    fn address_of(pool: &LeasePool, host: HostId) -> Ipv4Addr {
        let (_, ip) = pool.assignments().find(|&(h, _)| h == host).unwrap();
        ip
    }

    /// The index each member remembers is where its address is, and
    /// the free list holds exactly the addresses nobody has.
    fn assert_partition(pool: &LeasePool, net: &Network) {
        let mut seen = vec![false; pool.len as usize];
        for m in &pool.members {
            assert_eq!(m.current_ip, pool.address(m.idx));
            assert_eq!(net.host_at(m.current_ip), Some(m.host));
            assert!(!std::mem::replace(&mut seen[m.idx as usize], true));
        }
        for &f in &pool.free {
            assert!(!std::mem::replace(&mut seen[f as usize], true));
        }
        assert!(seen.iter().all(|&s| s), "free + assigned cover the pool");
    }

    #[test]
    fn initial_assignment_binds_all() {
        let mut net = Network::new(NetworkConfig::default());
        let pool = build(&mut net, 50, 20, SimTime::DAY);
        assert_eq!(net.binding_count(), 50);
        assert_eq!(pool.len(), 50);
        for m in 0..50u32 {
            let ip = address_of(&pool, HostId(m));
            assert_eq!(net.host_at(ip), Some(HostId(m)));
        }
    }

    #[test]
    fn renumbering_preserves_population() {
        let mut net = Network::new(NetworkConfig::default());
        let mut pool = build(&mut net, 100, 50, SimTime::DAY);
        for day in 1..=30 {
            pool.renumber_expired(&mut net, SimTime::from_days(day));
            assert_eq!(net.binding_count(), 100, "population stable at day {day}");
        }
    }

    #[test]
    fn most_members_move_within_two_mean_leases() {
        let mut net = Network::new(NetworkConfig::default());
        let mut pool = build(&mut net, 200, 100, SimTime::DAY);
        let initial: Vec<Ipv4Addr> = (0..200u32).map(|m| address_of(&pool, HostId(m))).collect();
        // Step hourly for 2 days.
        for h in 1..=48 {
            pool.renumber_expired(&mut net, SimTime::from_hours(h));
        }
        let moved = (0..200u32)
            .filter(|&m| address_of(&pool, HostId(m)) != initial[m as usize])
            .count();
        assert!(moved > 150, "moved={moved}");
    }

    #[test]
    fn stable_config_rarely_moves() {
        let mut net = Network::new(NetworkConfig::default());
        let mut pool = build(&mut net, 100, 10, 52 * SimTime::WEEK);
        for w in 1..=10 {
            pool.renumber_expired(&mut net, SimTime::from_weeks(w));
        }
        let initial_still: usize = (0..100u32)
            .filter(|&m| address_of(&pool, HostId(m)) == Ipv4Addr::from(0x0505_0000 + m))
            .count();
        assert!(initial_still >= 95, "still={initial_still}");
    }

    #[test]
    fn old_address_becomes_unbound_or_reassigned() {
        let mut net = Network::new(NetworkConfig::default());
        let mut pool = build(&mut net, 10, 40, SimTime::HOUR);
        let before = address_of(&pool, HostId(0));
        // Push far past the lease.
        pool.renumber_expired(&mut net, SimTime::from_days(1));
        let after = address_of(&pool, HostId(0));
        if before != after {
            // The vacated IP either is free or now belongs to someone else.
            match net.host_at(before) {
                None => {}
                Some(h) => assert_ne!(h, HostId(0)),
            }
        }
        assert_eq!(net.host_at(after), Some(HostId(0)));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn oversubscribed_pool_rejected() {
        let mut net = Network::new(NetworkConfig::default());
        let hosts: Vec<HostId> = (0..5).map(|_| net.add_host(Box::new(EchoHost))).collect();
        let _ = LeasePool::new(
            &mut net,
            ChurnConfig::consumer_daily(1),
            pool_addresses(3),
            hosts,
            SimTime::ZERO,
        );
    }

    #[test]
    fn next_expiry_advances() {
        let mut net = Network::new(NetworkConfig::default());
        let mut pool = build(&mut net, 10, 10, SimTime::DAY);
        let first = pool.next_expiry().unwrap();
        pool.renumber_expired(&mut net, first + SimTime::HOUR);
        let second = pool.next_expiry().unwrap();
        assert!(second > first);
    }

    /// Seed 42, 50 members, 20 spare addresses, twelve 6-hour rounds:
    /// the assignments recorded before members remembered their index
    /// (when each renumbering searched `addresses` for the old one).
    /// The pool RNG must still be consumed in exactly that order.
    #[test]
    fn renumbering_sequence_matches_golden_vector() {
        const FINAL: [u32; 50] = [
            38, 5, 13, 23, 37, 6, 25, 27, 64, 20, 21, 36, 47, 39, 51, 41, 45, 49, 65, 0, 31, 11,
            58, 15, 68, 53, 22, 33, 40, 66, 17, 8, 4, 57, 35, 46, 43, 29, 30, 69, 9, 10, 52, 7, 2,
            19, 24, 56, 14, 12,
        ];
        let mut net = Network::new(NetworkConfig::default());
        let mut pool = build(&mut net, 50, 20, SimTime::DAY);
        // Every round's full address list, in host order.
        let mut history = Vec::new();
        for round in 1..=12 {
            pool.renumber_expired(&mut net, SimTime::from_hours(6 * round));
            history.extend(pool.assignments().flat_map(|(_, ip)| ip.octets()));
            assert_partition(&pool, &net);
        }
        assert_eq!(
            crate::network::fnv64(&history),
            0x52c0123a7701d443,
            "some round diverged"
        );
        let last: Vec<u32> = pool
            .assignments()
            .map(|(_, ip)| u32::from(ip) - 0x0505_0000)
            .collect();
        assert_eq!(last, FINAL);
    }

    proptest::proptest! {
        #[test]
        fn index_and_free_list_stay_a_partition(
            members in 1usize..40,
            slack in 0usize..40,
            mean_hours in 1u64..72,
            steps in proptest::collection::vec(1u64..48, 1..20),
        ) {
            let mut net = Network::new(NetworkConfig::default());
            let mut pool = build(&mut net, members, slack, mean_hours * SimTime::HOUR);
            assert_partition(&pool, &net);
            let mut now = 0;
            for step in steps {
                now += step;
                pool.renumber_expired(&mut net, SimTime::from_hours(now));
                assert_partition(&pool, &net);
                proptest::prop_assert_eq!(net.binding_count(), members);
            }
        }
    }
}
