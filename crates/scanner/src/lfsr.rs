//! Linear feedback shift registers and address-space permutation.
//!
//! The paper's scanner "applies a linear feedback shift register (LFSR)
//! of order 2³²−1 to distribute the sequence of target IP addresses",
//! so that "scanned networks receive a limited number of DNS requests
//! within a short time frame" (Sec. 2.2). A maximal-length Galois LFSR
//! of degree *n* visits every value in `1..2^n` exactly once, in an
//! order that scatters numerically adjacent values — which is exactly
//! the politeness property (ablation A-ABL5 quantifies it).
//!
//! [`IpPermutation`] lifts this to an arbitrary set of address ranges:
//! it picks the smallest sufficient LFSR degree and skips values beyond
//! the space size (the classic cycle-walking trick).

use std::net::Ipv4Addr;

/// Maximal-length tap masks (Galois form) per degree. Polynomials from
/// the standard Xilinx/Alfke table; each yields period `2^degree − 1`.
const TAPS: &[(u8, u32)] = &[
    (8, 0xB8),
    (12, 0xE08),
    (16, 0xD008),
    (20, 0x90000),
    (24, 0xE10000),
    (28, 0x9000000),
    (32, 0x80200003),
];

/// A Galois LFSR over `degree` bits with maximal period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u32,
    taps: u32,
    degree: u8,
    seed: u32,
}

impl Lfsr {
    /// Construct with the smallest supported degree covering `span`
    /// values, seeded with a nonzero start state derived from `seed`.
    pub fn covering(span: u64, seed: u64) -> Self {
        let needed = 64 - span.max(1).leading_zeros() as u8;
        let &(degree, taps) = TAPS
            .iter()
            .find(|(d, _)| *d >= needed)
            .unwrap_or(TAPS.last().unwrap());
        let mask = if degree == 32 {
            u32::MAX
        } else {
            (1u32 << degree) - 1
        };
        let mut state = (seed as u32 ^ (seed >> 32) as u32) & mask;
        if state == 0 {
            state = 1;
        }
        Lfsr {
            state,
            taps,
            degree,
            seed: state,
        }
    }

    /// Degree of the register.
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// Period: `2^degree − 1`.
    pub fn period(&self) -> u64 {
        (1u64 << self.degree) - 1
    }

    /// Advance one step and return the new state (never 0).
    pub fn next_state(&mut self) -> u32 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb == 1 {
            self.state ^= self.taps;
        }
        self.state
    }

    /// Whether the register has returned to its seed (full cycle done).
    pub fn cycled(&self) -> bool {
        self.state == self.seed
    }
}

/// Permuted iteration over a union of inclusive IPv4 ranges.
///
/// Yields every address in the ranges exactly once, in LFSR order.
#[derive(Debug, Clone)]
pub struct IpPermutation {
    ranges: Vec<(u32, u32)>,
    /// Cumulative sizes for index → address mapping.
    cumulative: Vec<u64>,
    total: u64,
    lfsr: Lfsr,
    emitted: u64,
    exhausted: bool,
}

impl IpPermutation {
    /// Build a permutation over `ranges` seeded by `seed`.
    pub fn new(ranges: &[(Ipv4Addr, Ipv4Addr)], seed: u64) -> Self {
        let ranges: Vec<(u32, u32)> = ranges
            .iter()
            .map(|(a, b)| (u32::from(*a), u32::from(*b)))
            .collect();
        let mut cumulative = Vec::with_capacity(ranges.len());
        let mut total = 0u64;
        for &(a, b) in &ranges {
            assert!(a <= b, "inverted range");
            total += (b - a + 1) as u64;
            cumulative.push(total);
        }
        IpPermutation {
            lfsr: Lfsr::covering(total, seed),
            ranges,
            cumulative,
            total,
            emitted: 0,
            exhausted: total == 0,
        }
    }

    /// Total number of addresses in the space.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn index_to_ip(&self, idx: u64) -> Ipv4Addr {
        // Find the range containing the idx-th address.
        let pos = self.cumulative.partition_point(|&c| c <= idx);
        let base = if pos == 0 {
            0
        } else {
            self.cumulative[pos - 1]
        };
        let (a, _) = self.ranges[pos];
        Ipv4Addr::from(a + (idx - base) as u32)
    }
}

impl Iterator for IpPermutation {
    type Item = Ipv4Addr;

    fn next(&mut self) -> Option<Ipv4Addr> {
        if self.exhausted {
            return None;
        }
        // The register enumerates 1..=period exactly once; bit-reversing
        // the state before the range check breaks the shift correlation
        // between successive states (raw Galois states cluster after
        // cycle-walking), then values in 1..=total map to indices.
        let degree = self.lfsr.degree() as u32;
        loop {
            if self.emitted >= self.total {
                self.exhausted = true;
                return None;
            }
            let s = self.lfsr.next_state();
            let candidate = (s.reverse_bits() >> (32 - degree)) as u64;
            if self.lfsr.cycled() && candidate > self.total {
                // Full cycle without covering: impossible for a maximal
                // register with period ≥ total, but guard anyway.
                self.exhausted = true;
                return None;
            }
            if candidate >= 1 && candidate <= self.total {
                self.emitted += 1;
                return Some(self.index_to_ip(candidate - 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lfsr_16_is_maximal() {
        let mut l = Lfsr::covering(40_000, 99);
        assert_eq!(l.degree(), 16);
        let mut seen = HashSet::new();
        for _ in 0..l.period() {
            seen.insert(l.next_state());
        }
        assert_eq!(
            seen.len() as u64,
            l.period(),
            "degree-16 LFSR must be maximal"
        );
        assert!(!seen.contains(&0));
    }

    #[test]
    fn lfsr_smaller_degrees_maximal() {
        for span in [200u64, 3_000, 60_000, 900_000] {
            let mut l = Lfsr::covering(span, 7);
            let mut count = 0u64;
            let period = l.period();
            assert!(period >= span);
            loop {
                l.next_state();
                count += 1;
                if l.cycled() {
                    break;
                }
                assert!(count <= period, "period overrun for span {span}");
            }
            assert_eq!(count, period, "span {span}");
        }
    }

    #[test]
    fn permutation_covers_every_address_once() {
        let ranges = [
            (Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(10, 0, 3, 255)),
            (Ipv4Addr::new(50, 1, 0, 0), Ipv4Addr::new(50, 1, 0, 99)),
        ];
        let perm = IpPermutation::new(&ranges, 1234);
        assert_eq!(perm.len(), 1024 + 100);
        let all: Vec<Ipv4Addr> = perm.collect();
        assert_eq!(all.len(), 1124);
        let set: HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 1124, "no duplicates");
        for ip in &all {
            let v = u32::from(*ip);
            let in_a = (0x0A000000..=0x0A0003FF).contains(&v);
            let in_b = (0x32010000..=0x32010063).contains(&v);
            assert!(in_a || in_b, "{ip} outside ranges");
        }
    }

    #[test]
    fn permutation_deterministic_per_seed() {
        let ranges = [(Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(10, 0, 0, 255))];
        let a: Vec<_> = IpPermutation::new(&ranges, 5).collect();
        let b: Vec<_> = IpPermutation::new(&ranges, 5).collect();
        let c: Vec<_> = IpPermutation::new(&ranges, 6).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn permutation_scatters_slash24_bursts() {
        // The politeness property: consecutive probes rarely hit the
        // same /24. Compare against sequential order.
        let ranges = [(Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(10, 0, 15, 255))];
        let perm: Vec<Ipv4Addr> = IpPermutation::new(&ranges, 42).collect();
        let window = 64;
        let max_burst = |order: &[Ipv4Addr]| {
            let mut worst = 0usize;
            for chunk in order.windows(window) {
                let mut per24 = std::collections::HashMap::new();
                for ip in chunk {
                    *per24.entry(u32::from(*ip) >> 8).or_insert(0usize) += 1;
                }
                worst = worst.max(*per24.values().max().unwrap());
            }
            worst
        };
        let seq: Vec<Ipv4Addr> = (0x0A000000u32..=0x0A000FFF).map(Ipv4Addr::from).collect();
        let burst_perm = max_burst(&perm);
        let burst_seq = max_burst(&seq);
        assert_eq!(burst_seq, window, "sequential scan hammers one /24");
        // A uniformly random order over 16 /24s would show a worst-case
        // window burst around 13–18 (Poisson tail over ~64k windows);
        // anything ≤ window/2.5 demonstrates the scatter property the
        // paper wants, versus 64 for the sequential scan.
        assert!(
            burst_perm <= window * 2 / 5,
            "permuted burst {burst_perm} too concentrated"
        );
        // A-ABL5's figure (EXPERIMENTS.md): seed 42 peaks at 17 probes
        // to one /24 in any 64-probe window, against 64 sequentially.
        assert_eq!(burst_perm, 17, "seed 42's LFSR burst moved");
    }

    #[test]
    fn empty_space() {
        let perm = IpPermutation::new(&[], 1);
        assert!(perm.is_empty());
        assert_eq!(perm.count(), 0);
    }

    #[test]
    fn single_address_space() {
        let perm = IpPermutation::new(
            &[(Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(9, 9, 9, 9))],
            77,
        );
        let all: Vec<_> = perm.collect();
        assert_eq!(all, vec![Ipv4Addr::new(9, 9, 9, 9)]);
    }
}
