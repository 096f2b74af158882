//! Cache-snooping series classification (Sec. 2.6).
//!
//! From 36 hourly NS observations of 15 TLDs per resolver, recover the
//! utilization classes the paper reports — including the "re-added
//! within 5 seconds" inference, which works by TTL arithmetic: knowing a
//! TLD's full TTL, a cached observation pins the entry's insertion time;
//! comparing with the previous expiry bounds the refresh gap.

use scanner::{SnoopResult, SnoopSample};

/// Utilization classes (Sec. 2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UtilizationClass {
    /// Never answered any snooping query.
    Unresponsive,
    /// Answered exactly once, then fell silent (IP churn mid-campaign).
    SingleThenSilent,
    /// Always NOERROR with empty answers.
    EmptyResponder,
    /// Same TTL every time.
    StaticTtl,
    /// TTL 0 every time.
    ZeroTtl,
    /// ≥3 TLDs were re-added after expiry, at least one within ≤5 s.
    InUseFrequent,
    /// ≥3 TLDs were re-added after expiry.
    InUse,
    /// TTLs keep getting reset ahead of expiry (proactive refresh or
    /// load-balanced cache groups).
    TtlResetter,
    /// TTLs decrease but never expire within the window.
    DecreasingNoExpiry,
    /// Anything else (sparse/ambiguous series).
    Ambiguous,
}

/// Interval between snooping rounds, in seconds (paper: 60 minutes).
pub const ROUND_SECONDS: u64 = 3_600;
/// "Frequently used" refresh-gap bound (paper: 5 seconds).
pub const FREQUENT_GAP_S: u64 = 5;

/// Classify one resolver's snooping series. `full_ttls[tld]` is the
/// known full TTL of each TLD's NS record (estimated globally as the
/// maximum TTL observed for that TLD across all resolvers).
pub fn classify_snoop(result: &SnoopResult, full_ttls: &[u32]) -> UtilizationClass {
    let mut responses = 0usize;
    let mut entries = 0usize;
    let mut ttls_seen: Vec<u32> = Vec::new();

    for s in &result.samples {
        match s {
            SnoopSample::Silent => {}
            SnoopSample::NoEntry => responses += 1,
            SnoopSample::Ttl(t) => {
                responses += 1;
                entries += 1;
                ttls_seen.push(*t);
            }
        }
    }
    if responses == 0 {
        return UtilizationClass::Unresponsive;
    }
    if responses == 1 {
        return UtilizationClass::SingleThenSilent;
    }
    if entries == 0 {
        return UtilizationClass::EmptyResponder;
    }
    // Constant-TTL answers.
    if ttls_seen.iter().all(|&t| t == ttls_seen[0]) && entries == responses {
        return if ttls_seen[0] == 0 {
            UtilizationClass::ZeroTtl
        } else {
            UtilizationClass::StaticTtl
        };
    }

    // Per-TLD refresh analysis.
    let mut refreshed_tlds = 0usize;
    let mut any_frequent = false;
    let mut any_expiry_visible = false;
    let mut always_near_full = true;

    for tld in 0..result.tld_count {
        let series = result.tld_series(tld);
        let full = full_ttls.get(tld).copied().unwrap_or(0) as i64;
        let mut refreshed = false;
        let mut prev: Option<(usize, u32)> = None; // (round, ttl)
        let mut was_absent = false;
        for (round, s) in series.iter().enumerate() {
            match s {
                SnoopSample::Ttl(t) => {
                    let t64 = *t as i64;
                    if full > 0 && t64 < full * 85 / 100 {
                        always_near_full = false;
                    }
                    if was_absent {
                        // Plain re-add after an observed absence.
                        refreshed = true;
                        any_expiry_visible = true;
                    }
                    if let Some((pr, pt)) = prev {
                        // TTL arithmetic: previous entry expired at
                        // pr*R + pt; this entry was inserted at
                        // round*R − (full − t). Gap = insert − expiry.
                        let rounds_elapsed = (round - pr) as i64 * ROUND_SECONDS as i64;
                        let expiry_in = pt as i64;
                        if full > 0 && rounds_elapsed > expiry_in {
                            // The old entry expired between samples.
                            any_expiry_visible = true;
                            let insert_offset = rounds_elapsed - (full - t64);
                            let gap = insert_offset - expiry_in;
                            if gap >= 0 {
                                refreshed = true;
                                if gap as u64 <= FREQUENT_GAP_S {
                                    any_frequent = true;
                                }
                            }
                        }
                    }
                    prev = Some((round, *t));
                    was_absent = false;
                }
                SnoopSample::NoEntry => {
                    was_absent = true;
                    always_near_full = false;
                }
                SnoopSample::Silent => {}
            }
        }
        if refreshed {
            refreshed_tlds += 1;
        }
    }

    // Resetters first: their TTL never strays from the maximum, so any
    // "refresh" the arithmetic inferred is proactive, not client-driven.
    if always_near_full {
        return UtilizationClass::TtlResetter;
    }
    if refreshed_tlds >= 3 {
        if any_frequent {
            return UtilizationClass::InUseFrequent;
        }
        return UtilizationClass::InUse;
    }
    if !any_expiry_visible {
        return UtilizationClass::DecreasingNoExpiry;
    }
    UtilizationClass::Ambiguous
}

/// Resolver popularity estimate (queries per hour), in the spirit of
/// Rajab et al.'s DNS-based popularity estimation — the follow-up the
/// paper names at the end of Sec. 2.6.
///
/// Model: client queries arrive as a Poisson process with rate λ. An
/// expired cache entry is re-filled by the *next* client query, so the
/// expiry→re-add gap is exponentially distributed with mean 1/λ. The
/// TTL arithmetic recovers those gaps; λ̂ = 1 / mean(gap).
pub fn estimate_popularity(result: &SnoopResult, full_ttls: &[u32]) -> Option<f64> {
    let mut gaps: Vec<f64> = Vec::new();
    for tld in 0..result.tld_count {
        let series = result.tld_series(tld);
        let full = full_ttls.get(tld).copied().unwrap_or(0) as i64;
        if full == 0 {
            continue;
        }
        let mut prev: Option<(usize, u32)> = None;
        for (round, s) in series.iter().enumerate() {
            if let SnoopSample::Ttl(t) = s {
                if let Some((pr, pt)) = prev {
                    let rounds_elapsed = (round - pr) as i64 * ROUND_SECONDS as i64;
                    let expiry_in = pt as i64;
                    if rounds_elapsed > expiry_in {
                        let insert_offset = rounds_elapsed - (full - *t as i64);
                        let gap = insert_offset - expiry_in;
                        // A gap ≥ full TTL can only arise when whole
                        // refresh cycles were skipped between samples
                        // (aliasing) — reject those observations.
                        if gap >= 0 && gap < full {
                            gaps.push((gap as f64).max(0.5));
                        }
                    }
                }
                prev = Some((round, *t));
            }
        }
    }
    if gaps.is_empty() {
        return None;
    }
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    Some(3_600.0 / mean)
}

/// Estimate each TLD's full NS TTL: the *median* of per-resolver maxima.
/// The median is robust against resolvers that invent TTLs (static-TTL
/// responders, ghost-cache resolvers with inflated values) — the zone's
/// true TTL is what the honest majority's freshly-cached entries show.
pub fn estimate_full_ttls(results: &[&SnoopResult]) -> Vec<u32> {
    let tld_count = results.first().map(|r| r.tld_count).unwrap_or(0);
    let mut full = vec![0u32; tld_count];
    for (tld, slot) in full.iter_mut().enumerate() {
        let mut maxima: Vec<u32> = results
            .iter()
            .filter_map(|r| {
                if tld >= r.tld_count {
                    return None;
                }
                r.tld_series(tld)
                    .iter()
                    .filter_map(|s| match s {
                        SnoopSample::Ttl(t) => Some(*t),
                        _ => None,
                    })
                    .max()
            })
            .filter(|&t| t > 0)
            .collect();
        if maxima.is_empty() {
            continue;
        }
        maxima.sort_unstable();
        *slot = maxima[maxima.len() / 2];
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(
        tlds: usize,
        rounds: usize,
        mut f: impl FnMut(usize, usize) -> SnoopSample,
    ) -> SnoopResult {
        let mut samples = Vec::with_capacity(tlds * rounds);
        for t in 0..tlds {
            for r in 0..rounds {
                samples.push(f(t, r));
            }
        }
        SnoopResult {
            tld_count: tlds,
            rounds,
            samples,
        }
    }

    #[test]
    fn silent_and_single() {
        let r = result(15, 36, |_, _| SnoopSample::Silent);
        assert_eq!(
            classify_snoop(&r, &[3600; 15]),
            UtilizationClass::Unresponsive
        );
        let r = result(15, 36, |t, round| {
            if t == 0 && round == 0 {
                SnoopSample::Ttl(3600)
            } else {
                SnoopSample::Silent
            }
        });
        assert_eq!(
            classify_snoop(&r, &[3600; 15]),
            UtilizationClass::SingleThenSilent
        );
    }

    #[test]
    fn empty_static_zero() {
        let r = result(15, 36, |_, _| SnoopSample::NoEntry);
        assert_eq!(
            classify_snoop(&r, &[3600; 15]),
            UtilizationClass::EmptyResponder
        );
        let r = result(15, 36, |_, _| SnoopSample::Ttl(777));
        assert_eq!(classify_snoop(&r, &[777; 15]), UtilizationClass::StaticTtl);
        let r = result(15, 36, |_, _| SnoopSample::Ttl(0));
        assert_eq!(classify_snoop(&r, &[0; 15]), UtilizationClass::ZeroTtl);
    }

    #[test]
    fn in_use_via_absence_readd() {
        // TTL 1800 (expires within the hour), gap visible as NoEntry,
        // then re-added: pattern Ttl, NoEntry, Ttl, NoEntry…
        let r = result(15, 36, |t, round| {
            if t < 5 {
                if round % 2 == 0 {
                    SnoopSample::Ttl(1800)
                } else {
                    SnoopSample::NoEntry
                }
            } else {
                SnoopSample::NoEntry
            }
        });
        let c = classify_snoop(&r, &[1800; 15]);
        assert_eq!(c, UtilizationClass::InUse);
    }

    #[test]
    fn frequent_via_ttl_arithmetic() {
        // Full TTL 3000 s; observations hourly. Entry observed with TTL
        // decreasing; after expiry the fresh entry's TTL implies a ≤5 s
        // refresh gap: rounds_elapsed=3600, expiry_in = prev ttl,
        // insert_offset = 3600 − (3000 − t_new). Choose t_new so gap ≈ 2.
        // gap = 3600 − 3000 + t_new − pt. With pt = 600: gap = t_new − 0.
        // t_new = 2998 ⇒ insert 2 s after expiry... compute: gap =
        // 3600 − (3000 − 2998) − 600 = 2998. Hmm — pick pt=3598? Not
        // possible (> full). Instead pt = 600, t_new = 2 + 3000 − 3600 + 600 = 2.
        // Wait: gap = (3600 − (3000 − t_new)) − 600 = t_new. So t_new=3.
        let r = result(15, 36, |t, round| {
            if t < 5 {
                match round % 2 {
                    0 => SnoopSample::Ttl(600),
                    _ => SnoopSample::Ttl(3), // inserted 3 s after expiry
                }
            } else {
                SnoopSample::NoEntry
            }
        });
        let c = classify_snoop(&r, &[3000; 15]);
        assert_eq!(c, UtilizationClass::InUseFrequent);
    }

    #[test]
    fn resetter_always_near_full() {
        let r = result(15, 36, |_, round| {
            SnoopSample::Ttl(3600 - (round as u32 % 10) * 30)
        });
        assert_eq!(
            classify_snoop(&r, &[3600; 15]),
            UtilizationClass::TtlResetter
        );
    }

    #[test]
    fn decreasing_no_expiry() {
        // Huge TTL, decreases across the window, never expires.
        let r = result(15, 36, |_, round| {
            SnoopSample::Ttl(172_800 - round as u32 * 3600)
        });
        assert_eq!(
            classify_snoop(&r, &[172_800; 15]),
            UtilizationClass::DecreasingNoExpiry
        );
    }

    #[test]
    fn popularity_from_refresh_gaps() {
        // Generate self-consistent series straight from the cache model:
        // a fast resolver (3 s refresh gap) vs a slow one (1500 s).
        use resolversim::{CacheProfile, TldCacheSim};
        let series_for = |gap: u32| -> SnoopResult {
            let mut sim = TldCacheSim::new(CacheProfile::InUse {
                refresh_gap_s: gap,
                tld_mask: 0x7fff,
                phase_s: 0,
            });
            result(15, 36, |t, round| {
                match sim.observe(t as u32, 3000, round as u64 * ROUND_SECONDS) {
                    resolversim::cachesim::SnoopObservation::Cached { remaining_ttl } => {
                        SnoopSample::Ttl(remaining_ttl)
                    }
                    _ => SnoopSample::NoEntry,
                }
            })
        };
        let fast_rate = estimate_popularity(&series_for(3), &[3000; 15]).unwrap();
        let slow_rate = estimate_popularity(&series_for(1500), &[3000; 15]).unwrap();
        assert!(
            fast_rate > 20.0 * slow_rate,
            "fast {fast_rate} slow {slow_rate}"
        );
        assert!(
            fast_rate > 600.0,
            "≈1 query / 3 s ⇒ ≈1200/h, got {fast_rate}"
        );
        assert!(
            (1.0..10.0).contains(&slow_rate),
            "≈1/1500 s ⇒ ≈2.4/h, got {slow_rate}"
        );
    }

    #[test]
    fn popularity_none_without_observed_refreshes() {
        let idle = result(15, 36, |_, _| SnoopSample::NoEntry);
        assert!(estimate_popularity(&idle, &[3000; 15]).is_none());
    }

    #[test]
    fn full_ttl_estimation_is_median_robust() {
        // Three honest resolvers see the zone TTL (3600); one ghost
        // resolver inflates it to 172800. The median ignores the ghost.
        let honest = result(3, 4, |_, round| SnoopSample::Ttl(3600 - round as u32 * 10));
        let h2 = honest.clone();
        let h3 = honest.clone();
        let ghost = result(3, 4, |_, _| SnoopSample::Ttl(172_800));
        let full = estimate_full_ttls(&[&honest, &h2, &h3, &ghost]);
        assert_eq!(full, vec![3600, 3600, 3600]);
    }
}
