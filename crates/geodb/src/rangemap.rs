//! A sorted, non-overlapping interval map over the IPv4 address space.

use std::net::Ipv4Addr;

/// One entry: inclusive `[start, end]` mapped to a value.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Range<T> {
    start: u32,
    end: u32,
    value: T,
}

/// An immutable interval map with O(log n) point lookups. Construct via
/// [`IpRangeMap::builder`], which validates ordering and rejects
/// overlaps at insert time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpRangeMap<T> {
    ranges: Vec<Range<T>>,
}

impl<T> Default for IpRangeMap<T> {
    fn default() -> Self {
        IpRangeMap { ranges: Vec::new() }
    }
}

/// Error when inserting an invalid or overlapping range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeError {
    /// `start > end`.
    Inverted {
        /// Requested start.
        start: u32,
        /// Requested end.
        end: u32,
    },
    /// The new range intersects an existing one.
    Overlap {
        /// Requested start.
        start: u32,
        /// Requested end.
        end: u32,
    },
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeError::Inverted { start, end } => write!(
                f,
                "inverted range {}..{}",
                Ipv4Addr::from(*start),
                Ipv4Addr::from(*end)
            ),
            RangeError::Overlap { start, end } => write!(
                f,
                "range {}..{} overlaps an existing range",
                Ipv4Addr::from(*start),
                Ipv4Addr::from(*end)
            ),
        }
    }
}

impl std::error::Error for RangeError {}

/// Builder enforcing the non-overlap invariant.
#[derive(Debug, Clone)]
pub struct IpRangeMapBuilder<T> {
    ranges: Vec<Range<T>>,
}

impl<T> IpRangeMapBuilder<T> {
    /// Insert `[start, end]` (inclusive) mapping to `value`.
    pub fn insert(
        &mut self,
        start: Ipv4Addr,
        end: Ipv4Addr,
        value: T,
    ) -> Result<&mut Self, RangeError> {
        let (s, e) = (u32::from(start), u32::from(end));
        if s > e {
            return Err(RangeError::Inverted { start: s, end: e });
        }
        // Find insertion point by start.
        let idx = self.ranges.partition_point(|r| r.start < s);
        // Check neighbor overlap.
        if idx > 0 && self.ranges[idx - 1].end >= s {
            return Err(RangeError::Overlap { start: s, end: e });
        }
        if idx < self.ranges.len() && self.ranges[idx].start <= e {
            return Err(RangeError::Overlap { start: s, end: e });
        }
        self.ranges.insert(
            idx,
            Range {
                start: s,
                end: e,
                value,
            },
        );
        Ok(self)
    }

    /// Insert a CIDR block `base/prefix_len`.
    pub fn insert_cidr(
        &mut self,
        base: Ipv4Addr,
        prefix_len: u8,
        value: T,
    ) -> Result<&mut Self, RangeError> {
        assert!(prefix_len <= 32, "prefix length out of range");
        let b = u32::from(base);
        let mask = if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        };
        let start = b & mask;
        let end = start | !mask;
        self.insert(Ipv4Addr::from(start), Ipv4Addr::from(end), value)
    }

    /// Finalize.
    pub fn build(self) -> IpRangeMap<T> {
        IpRangeMap {
            ranges: self.ranges,
        }
    }
}

impl<T> IpRangeMap<T> {
    /// Start building a map.
    pub fn builder() -> IpRangeMapBuilder<T> {
        IpRangeMapBuilder { ranges: Vec::new() }
    }

    /// The value whose range contains `ip`.
    pub fn get(&self, ip: Ipv4Addr) -> Option<&T> {
        let v = u32::from(ip);
        let idx = self.ranges.partition_point(|r| r.start <= v);
        if idx == 0 {
            return None;
        }
        let r = &self.ranges[idx - 1];
        (v <= r.end).then_some(&r.value)
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate `(start, end, value)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, Ipv4Addr, &T)> {
        self.ranges
            .iter()
            .map(|r| (Ipv4Addr::from(r.start), Ipv4Addr::from(r.end), &r.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn point_lookup() {
        let mut b = IpRangeMap::builder();
        b.insert(ip("10.0.0.0"), ip("10.0.0.255"), "a").unwrap();
        b.insert(ip("10.0.2.0"), ip("10.0.2.255"), "b").unwrap();
        let m = b.build();
        assert_eq!(m.get(ip("10.0.0.7")), Some(&"a"));
        assert_eq!(m.get(ip("10.0.2.0")), Some(&"b"));
        assert_eq!(m.get(ip("10.0.2.255")), Some(&"b"));
        assert_eq!(m.get(ip("10.0.1.0")), None);
        assert_eq!(m.get(ip("9.255.255.255")), None);
        assert_eq!(m.get(ip("10.0.3.0")), None);
    }

    #[test]
    fn rejects_overlaps() {
        let mut b = IpRangeMap::builder();
        b.insert(ip("10.0.0.0"), ip("10.0.0.255"), 1).unwrap();
        assert!(matches!(
            b.insert(ip("10.0.0.128"), ip("10.0.1.0"), 2),
            Err(RangeError::Overlap { .. })
        ));
        assert!(matches!(
            b.insert(ip("9.255.255.0"), ip("10.0.0.0"), 3),
            Err(RangeError::Overlap { .. })
        ));
        // Adjacent (non-overlapping) is fine.
        b.insert(ip("10.0.1.0"), ip("10.0.1.255"), 4).unwrap();
    }

    #[test]
    fn rejects_inverted() {
        let mut b = IpRangeMap::builder();
        assert!(matches!(
            b.insert(ip("10.0.1.0"), ip("10.0.0.0"), 1),
            Err(RangeError::Inverted { .. })
        ));
    }

    #[test]
    fn out_of_order_insertion_sorted() {
        let mut b = IpRangeMap::builder();
        b.insert(ip("50.0.0.0"), ip("50.0.0.255"), "high").unwrap();
        b.insert(ip("20.0.0.0"), ip("20.0.0.255"), "low").unwrap();
        let m = b.build();
        let starts: Vec<_> = m.iter().map(|(s, _, _)| s).collect();
        assert_eq!(starts, vec![ip("20.0.0.0"), ip("50.0.0.0")]);
        assert_eq!(m.get(ip("20.0.0.1")), Some(&"low"));
    }

    #[test]
    fn cidr_insertion() {
        let mut b = IpRangeMap::builder();
        b.insert_cidr(ip("192.0.2.77"), 24, "doc").unwrap();
        let m = b.build();
        assert_eq!(m.get(ip("192.0.2.0")), Some(&"doc"));
        assert_eq!(m.get(ip("192.0.2.255")), Some(&"doc"));
        assert_eq!(m.get(ip("192.0.3.0")), None);
    }

    #[test]
    fn single_address_range() {
        let mut b = IpRangeMap::builder();
        b.insert(ip("8.8.8.8"), ip("8.8.8.8"), "dns").unwrap();
        let m = b.build();
        assert_eq!(m.get(ip("8.8.8.8")), Some(&"dns"));
        assert_eq!(m.get(ip("8.8.8.7")), None);
        assert_eq!(m.get(ip("8.8.8.9")), None);
    }

    #[test]
    fn full_space_cidr0() {
        let mut b = IpRangeMap::builder();
        b.insert_cidr(ip("1.2.3.4"), 0, "all").unwrap();
        let m = b.build();
        assert_eq!(m.get(ip("0.0.0.0")), Some(&"all"));
        assert_eq!(m.get(ip("255.255.255.255")), Some(&"all"));
    }
}
