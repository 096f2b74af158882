//! The scan blacklist (Sec. 2.2).
//!
//! The paper honored opt-out requests: 208 network ranges and 50
//! individual addresses (20.8 M addresses total) were excluded from
//! every scan, and "to allow comparisons between the individual weekly
//! scans, we ignore blacklisted IP addresses in all of our scanning
//! results".

use std::net::Ipv4Addr;

/// A set of excluded ranges and individual addresses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Blacklist {
    /// Inclusive `[lo, hi]` ranges, sorted by `lo`, non-overlapping.
    ranges: Vec<(u32, u32)>,
    /// Individual addresses, sorted.
    singles: Vec<u32>,
}

impl Blacklist {
    /// Build from opt-out requests. Overlapping ranges are merged.
    pub fn new(ranges: Vec<(Ipv4Addr, Ipv4Addr)>, singles: Vec<Ipv4Addr>) -> Self {
        let mut r: Vec<(u32, u32)> = ranges
            .into_iter()
            .map(|(a, b)| {
                let (a, b) = (u32::from(a), u32::from(b));
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        r.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(r.len());
        for (lo, hi) in r {
            match merged.last_mut() {
                Some((_, mhi)) if lo <= mhi.saturating_add(1) => *mhi = (*mhi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        let mut s: Vec<u32> = singles.into_iter().map(u32::from).collect();
        s.sort_unstable();
        s.dedup();
        Blacklist {
            ranges: merged,
            singles: s,
        }
    }

    /// Whether `ip` must not be probed.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        let v = u32::from(ip);
        let idx = self.ranges.partition_point(|&(lo, _)| lo <= v);
        if idx > 0 && v <= self.ranges[idx - 1].1 {
            return true;
        }
        self.singles.binary_search(&v).is_ok()
    }

    /// Number of excluded addresses.
    pub fn excluded_count(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as u64)
            .sum::<u64>()
            + self.singles.len() as u64
    }

    /// Number of opt-out range entries.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the blacklist is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty() && self.singles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn ranges_and_singles() {
        let b = Blacklist::new(
            vec![(ip("11.0.0.0"), ip("11.0.0.255"))],
            vec![ip("12.0.0.7")],
        );
        assert!(b.contains(ip("11.0.0.0")));
        assert!(b.contains(ip("11.0.0.255")));
        assert!(b.contains(ip("12.0.0.7")));
        assert!(!b.contains(ip("11.0.1.0")));
        assert!(!b.contains(ip("12.0.0.8")));
        assert_eq!(b.excluded_count(), 257);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let b = Blacklist::new(
            vec![
                (ip("11.0.0.0"), ip("11.0.0.127")),
                (ip("11.0.0.100"), ip("11.0.0.255")),
                (ip("11.0.1.0"), ip("11.0.1.10")),
            ],
            vec![],
        );
        // 11.0.0.0–255 merges with the overlapping range AND with the
        // adjacent 11.0.1.0–10 (adjacency-merging preserves semantics).
        assert_eq!(b.range_count(), 1);
        assert_eq!(b.excluded_count(), 256 + 11);
    }

    #[test]
    fn inverted_input_normalized() {
        let b = Blacklist::new(vec![(ip("11.0.0.255"), ip("11.0.0.0"))], vec![]);
        assert!(b.contains(ip("11.0.0.128")));
    }

    #[test]
    fn empty_blacklist() {
        let b = Blacklist::default();
        assert!(b.is_empty());
        assert!(!b.contains(ip("1.2.3.4")));
        assert_eq!(b.excluded_count(), 0);
    }
}
