//! # geodb — synthetic GeoIP / ASN / RIR / reverse-DNS databases
//!
//! The paper joins scan results against three external databases: the
//! MaxMind GeoIP country database (Tables 1, Figure 4), a BGP-derived
//! IP→AS mapping (AS-based statistics, prefilter rule (i)), and the
//! in-addr.arpa reverse-DNS zone (prefilter rule (ii), churn analysis).
//! This crate provides the same *lookup interfaces* over synthetic data
//! produced by `worldgen`, so the analysis pipeline exercises identical
//! join logic.
//!
//! The core structure is [`IpRangeMap`]: a sorted, non-overlapping
//! interval map over the IPv4 space with O(log n) lookups.

pub mod country;
pub mod rangemap;
pub mod rdns;
pub mod rir;

pub use country::Country;
pub use rangemap::IpRangeMap;
pub use rdns::{RdnsDb, RdnsPattern};
pub use rir::Rir;

use std::net::Ipv4Addr;

/// Information about one autonomous system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// Autonomous system number.
    pub asn: u32,
    /// Organization name, e.g. `"AR-TELECOM-SUR"`.
    pub name: String,
    /// Registration country.
    pub country: Country,
    /// Whether this AS is a broadband / end-user access network. Drives
    /// the paper's "Top 25 networks are telcos" observation and the
    /// dynamic-IP churn model.
    pub broadband: bool,
}

/// One allocated network block: the unit of the synthetic databases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetBlock {
    /// GeoIP country of the block.
    pub country: Country,
    /// Announcing AS.
    pub asn: u32,
    /// Reverse-DNS naming pattern for hosts in this block, if the
    /// operator populates the in-addr.arpa zone.
    pub rdns: Option<RdnsPattern>,
}

/// The combined geo/AS database: IP → [`NetBlock`], plus the AS registry.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    blocks: IpRangeMap<NetBlock>,
    ases: Vec<AsInfo>,
}

impl GeoDb {
    /// Build from parts. `blocks` must already be non-overlapping (the
    /// [`IpRangeMap`] builder enforces this); `ases` is indexed by ASN.
    pub fn new(blocks: IpRangeMap<NetBlock>, mut ases: Vec<AsInfo>) -> Self {
        ases.sort_by_key(|a| a.asn);
        ases.dedup_by_key(|a| a.asn);
        GeoDb { blocks, ases }
    }

    /// The network block containing `ip`.
    pub fn block(&self, ip: Ipv4Addr) -> Option<&NetBlock> {
        self.blocks.get(ip)
    }

    /// Country of `ip` per the GeoIP database.
    pub fn country(&self, ip: Ipv4Addr) -> Option<Country> {
        self.block(ip).map(|b| b.country)
    }

    /// ASN announcing `ip`.
    pub fn asn(&self, ip: Ipv4Addr) -> Option<u32> {
        self.block(ip).map(|b| b.asn)
    }

    /// Regional Internet Registry responsible for `ip` (via its country).
    pub fn rir(&self, ip: Ipv4Addr) -> Option<Rir> {
        self.country(ip).map(Rir::for_country)
    }

    /// Registry entry for an ASN.
    pub fn as_info(&self, asn: u32) -> Option<&AsInfo> {
        self.ases
            .binary_search_by_key(&asn, |a| a.asn)
            .ok()
            .map(|i| &self.ases[i])
    }

    /// Whether two addresses are announced by the same AS — prefilter
    /// rule (i) of Section 3.4.
    pub fn same_as(&self, a: Ipv4Addr, b: Ipv4Addr) -> bool {
        match (self.asn(a), self.asn(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Whether two addresses share a /24 — used by the captive-portal
    /// heuristic of Section 4.2.
    pub fn same_slash24(a: Ipv4Addr, b: Ipv4Addr) -> bool {
        u32::from(a) >> 8 == u32::from(b) >> 8
    }

    /// Iterate all registered ASes.
    pub fn ases(&self) -> &[AsInfo] {
        &self.ases
    }

    /// Number of blocks in the database.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterate all blocks as `(start, end, block)` in address order.
    pub fn blocks_iter(&self) -> impl Iterator<Item = (Ipv4Addr, Ipv4Addr, &NetBlock)> {
        self.blocks.iter()
    }
}

/// Well-known non-routable / reserved ranges excluded from scans
/// ("excluding well-known private and unallocated network ranges",
/// Sec. 2.2). Each entry is `(first, last)` inclusive.
pub const RESERVED_RANGES: &[(u32, u32)] = &[
    (0x00000000, 0x00FFFFFF), // 0.0.0.0/8
    (0x0A000000, 0x0AFFFFFF), // 10.0.0.0/8
    (0x7F000000, 0x7FFFFFFF), // 127.0.0.0/8
    (0xA9FE0000, 0xA9FEFFFF), // 169.254.0.0/16
    (0xAC100000, 0xAC1FFFFF), // 172.16.0.0/12
    (0xC0A80000, 0xC0A8FFFF), // 192.168.0.0/16
    (0xE0000000, 0xFFFFFFFF), // 224.0.0.0/3 multicast + reserved
];

/// `true` if `ip` falls into a reserved range.
pub fn is_reserved(ip: Ipv4Addr) -> bool {
    let v = u32::from(ip);
    RESERVED_RANGES
        .iter()
        .any(|&(lo, hi)| (lo..=hi).contains(&v))
}

/// `true` if `ip` is an RFC 1918 / loopback / link-local address —
/// the "LAN IP" check of Section 4.2 (up to 65.1% of suspicious
/// resolvers returned LAN addresses).
pub fn is_lan(ip: Ipv4Addr) -> bool {
    ip.is_private() || ip.is_loopback() || ip.is_link_local()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn sample_db() -> GeoDb {
        let mut b = IpRangeMap::builder();
        b.insert(
            ip("1.0.0.0"),
            ip("1.0.255.255"),
            NetBlock {
                country: Country::new("CN"),
                asn: 4134,
                rdns: None,
            },
        )
        .unwrap();
        b.insert(
            ip("5.5.0.0"),
            ip("5.5.63.255"),
            NetBlock {
                country: Country::new("TR"),
                asn: 9121,
                rdns: Some(RdnsPattern::dynamic_broadband("ttnet.example")),
            },
        )
        .unwrap();
        GeoDb::new(
            b.build(),
            vec![
                AsInfo {
                    asn: 4134,
                    name: "CHINANET".into(),
                    country: Country::new("CN"),
                    broadband: true,
                },
                AsInfo {
                    asn: 9121,
                    name: "TTNET".into(),
                    country: Country::new("TR"),
                    broadband: true,
                },
            ],
        )
    }

    #[test]
    fn lookup_inside_and_outside_blocks() {
        let db = sample_db();
        assert_eq!(db.country(ip("1.0.3.4")), Some(Country::new("CN")));
        assert_eq!(db.asn(ip("5.5.10.10")), Some(9121));
        assert_eq!(db.country(ip("9.9.9.9")), None);
    }

    #[test]
    fn rir_derived_from_country() {
        let db = sample_db();
        assert_eq!(db.rir(ip("1.0.0.1")), Some(Rir::Apnic));
        assert_eq!(db.rir(ip("5.5.0.1")), Some(Rir::Ripe));
    }

    #[test]
    fn same_as_and_slash24() {
        let db = sample_db();
        assert!(db.same_as(ip("1.0.0.1"), ip("1.0.200.1")));
        assert!(!db.same_as(ip("1.0.0.1"), ip("5.5.0.1")));
        assert!(
            !db.same_as(ip("9.9.9.9"), ip("9.9.9.10")),
            "unknown IPs never match"
        );
        assert!(GeoDb::same_slash24(ip("2.3.4.5"), ip("2.3.4.200")));
        assert!(!GeoDb::same_slash24(ip("2.3.4.5"), ip("2.3.5.5")));
    }

    #[test]
    fn as_registry_lookup() {
        let db = sample_db();
        assert_eq!(db.as_info(4134).unwrap().name, "CHINANET");
        assert!(db.as_info(65000).is_none());
    }

    #[test]
    fn reserved_and_lan_checks() {
        assert!(is_reserved(ip("10.1.2.3")));
        assert!(is_reserved(ip("192.168.1.1")));
        assert!(is_reserved(ip("239.1.2.3")));
        assert!(!is_reserved(ip("8.8.8.8")));
        assert!(is_lan(ip("172.16.5.5")));
        assert!(is_lan(ip("127.0.0.1")));
        assert!(!is_lan(ip("100.100.100.100")));
    }
}
