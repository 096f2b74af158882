//! TLD-cache behaviour for cache snooping (Section 2.6).
//!
//! The campaign requests NS records for 15 TLDs (RD=0) every 60 minutes
//! for 36 hours and watches whether expired entries get *re-added*
//! (evidence of real client activity) and how fast.
//!
//! Rather than simulating individual clients, [`TldCacheSim`] computes
//! cache state as a deterministic closed-form function of time: an
//! in-use TLD cycles between *cached* (for `ttl`) and *absent* (for the
//! refresh gap until the next client request re-caches it). This is
//! exactly what a snooping observer can distinguish, and keeps a
//! 36-hour × 15-TLD × millions-of-resolvers campaign cheap.

/// Per-resolver cache-snooping behaviour class. Population shares come
/// from Sec. 2.6's findings.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheProfile {
    /// Replies to NS queries with an empty answer (7.3% of resolvers).
    EmptyAnswer,
    /// Sends a single response, then stops replying (3.3%; the paper
    /// attributes this to churn — we model the externally visible
    /// behaviour directly).
    SingleThenSilent,
    /// Returns the same TTL for every request (part of the 4.0%).
    StaticTtl {
        /// The invented constant TTL.
        ttl: u32,
    },
    /// Returns TTL 0 for everything (rest of the 4.0%).
    ZeroTtl,
    /// A real cache with client activity: entries expire and are
    /// re-added `refresh_gap_s` seconds later by client lookups. The
    /// entry's full TTL is the *zone's* (passed per observation — NS
    /// TTLs are set by the TLD operator, not the resolver).
    /// `tld_mask` selects which of the 15 snooped TLDs this resolver's
    /// clients actually use.
    InUse {
        /// Seconds between expiry and the next client-driven refresh.
        refresh_gap_s: u32,
        /// Which of the snooped TLDs this resolver's clients use.
        tld_mask: u32,
        /// Phase offset in seconds, so cycles don't align across hosts.
        phase_s: u32,
    },
    /// Keeps resetting TTLs ahead of expiry (19.6%; proactive refresh
    /// or load-balanced cache groups): observed TTLs hover near the
    /// zone TTL.
    TtlResetter,
    /// Very long TTLs that decrease but never expire inside the window.
    SlowDecreasing {
        /// The inflated starting TTL.
        ttl: u32,
    },
}

/// What a snooping NS query observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopObservation {
    /// Entry cached; remaining TTL in seconds.
    Cached {
        /// Seconds until expiry.
        remaining_ttl: u32,
    },
    /// Entry not in cache (RD=0, so the resolver won't fetch it).
    Absent,
    /// Resolver answered with an empty answer section.
    Empty,
    /// Resolver did not answer at all.
    Silent,
}

/// Closed-form cache simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct TldCacheSim {
    profile: CacheProfile,
    /// Number of NS queries answered so far (for `SingleThenSilent`).
    answered: u32,
}

impl TldCacheSim {
    /// A fresh simulator for `profile` with no queries answered yet.
    pub fn new(profile: CacheProfile) -> Self {
        TldCacheSim {
            profile,
            answered: 0,
        }
    }

    /// The underlying cache profile.
    pub fn profile(&self) -> &CacheProfile {
        &self.profile
    }

    /// Observe the cache state for TLD index `tld_idx` (0-based within
    /// the snooped set) at `t_s` seconds since the epoch. `zone_ttl` is
    /// the TLD's authoritative NS TTL. Mutates the single-response
    /// counter.
    pub fn observe(&mut self, tld_idx: u32, zone_ttl: u32, t_s: u64) -> SnoopObservation {
        match &self.profile {
            CacheProfile::EmptyAnswer => SnoopObservation::Empty,
            CacheProfile::SingleThenSilent => {
                self.answered += 1;
                if self.answered == 1 {
                    SnoopObservation::Cached {
                        remaining_ttl: 3600,
                    }
                } else {
                    SnoopObservation::Silent
                }
            }
            CacheProfile::StaticTtl { ttl } => SnoopObservation::Cached {
                remaining_ttl: *ttl,
            },
            CacheProfile::ZeroTtl => SnoopObservation::Cached { remaining_ttl: 0 },
            CacheProfile::InUse {
                refresh_gap_s,
                tld_mask,
                phase_s,
            } => {
                if tld_idx < 32 && tld_mask & (1 << tld_idx) == 0 {
                    // Clients never query this TLD: permanently absent.
                    return SnoopObservation::Absent;
                }
                // Stagger each TLD's cycle so refreshes don't align.
                let ttl = zone_ttl;
                let cycle = (ttl as u64) + (*refresh_gap_s as u64);
                let shifted = t_s + *phase_s as u64 + (tld_idx as u64 * 977);
                let in_cycle = shifted % cycle;
                if in_cycle < ttl as u64 {
                    SnoopObservation::Cached {
                        remaining_ttl: (ttl as u64 - in_cycle) as u32,
                    }
                } else {
                    SnoopObservation::Absent
                }
            }
            CacheProfile::TtlResetter => {
                // Remaining TTL hovers near the zone maximum: the
                // resolver refreshes long before expiry.
                let wiggle = (t_s / 60) % (zone_ttl as u64 / 12).max(1);
                SnoopObservation::Cached {
                    remaining_ttl: zone_ttl.saturating_sub(wiggle as u32),
                }
            }
            CacheProfile::SlowDecreasing { ttl } => {
                let elapsed = (t_s % (*ttl as u64 / 2).max(1)) as u32;
                SnoopObservation::Cached {
                    remaining_ttl: ttl.saturating_sub(elapsed),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_use_cycles_between_cached_and_absent() {
        let mut sim = TldCacheSim::new(CacheProfile::InUse {
            refresh_gap_s: 600,
            tld_mask: u32::MAX,
            phase_s: 0,
        });
        let mut seen_cached = false;
        let mut seen_absent = false;
        let mut re_added = false;
        let mut prev_absent = false;
        for hour in 0..36 {
            match sim.observe(0, 3600, hour * 3600) {
                SnoopObservation::Cached { .. } => {
                    if prev_absent {
                        re_added = true;
                    }
                    seen_cached = true;
                    prev_absent = false;
                }
                SnoopObservation::Absent => {
                    seen_absent = true;
                    prev_absent = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(seen_cached && seen_absent && re_added);
    }

    #[test]
    fn in_use_ttl_decreases_within_cycle() {
        let mut sim = TldCacheSim::new(CacheProfile::InUse {
            refresh_gap_s: 100_000,
            tld_mask: u32::MAX,
            phase_s: 0,
        });
        let a = match sim.observe(0, 3600, 0) {
            SnoopObservation::Cached { remaining_ttl } => remaining_ttl,
            other => panic!("{other:?}"),
        };
        let b = match sim.observe(0, 3600, 1800) {
            SnoopObservation::Cached { remaining_ttl } => remaining_ttl,
            other => panic!("{other:?}"),
        };
        assert!(b < a);
    }

    #[test]
    fn unused_tld_always_absent() {
        let mut sim = TldCacheSim::new(CacheProfile::InUse {
            refresh_gap_s: 60,
            tld_mask: 0b1, // only TLD 0 used
            phase_s: 0,
        });
        for hour in 0..36 {
            assert_eq!(sim.observe(5, 3600, hour * 3600), SnoopObservation::Absent);
        }
    }

    #[test]
    fn single_then_silent() {
        let mut sim = TldCacheSim::new(CacheProfile::SingleThenSilent);
        assert!(matches!(
            sim.observe(0, 3600, 0),
            SnoopObservation::Cached { .. }
        ));
        assert_eq!(sim.observe(1, 3600, 60), SnoopObservation::Silent);
        assert_eq!(sim.observe(0, 3600, 3600), SnoopObservation::Silent);
    }

    #[test]
    fn static_and_zero_ttl() {
        let mut s = TldCacheSim::new(CacheProfile::StaticTtl { ttl: 777 });
        for h in 0..10 {
            assert_eq!(
                s.observe(0, 3600, h * 3600),
                SnoopObservation::Cached { remaining_ttl: 777 }
            );
        }
        let mut z = TldCacheSim::new(CacheProfile::ZeroTtl);
        assert_eq!(
            z.observe(0, 3600, 0),
            SnoopObservation::Cached { remaining_ttl: 0 }
        );
    }

    #[test]
    fn resetter_never_near_expiry() {
        let mut sim = TldCacheSim::new(CacheProfile::TtlResetter);
        for h in 0..36 {
            match sim.observe(0, 3600, h * 3600) {
                SnoopObservation::Cached { remaining_ttl } => {
                    assert!(remaining_ttl > 3200, "ttl={remaining_ttl}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn slow_decreasing_never_expires_in_window() {
        let mut sim = TldCacheSim::new(CacheProfile::SlowDecreasing { ttl: 172_800 });
        for h in 0..36 {
            match sim.observe(0, 3600, h * 3600) {
                SnoopObservation::Cached { remaining_ttl } => assert!(remaining_ttl > 0),
                other => panic!("{other:?}"),
            }
        }
    }
}
