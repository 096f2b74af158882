//! Synthetic reverse-DNS (in-addr.arpa) zone.
//!
//! Two consumers in the pipeline:
//! * the **churn analysis** (Sec. 2.5) matches rDNS records of vanished
//!   resolvers against tokens indicating dynamic assignment
//!   ("broadband, dialup, and dynamic");
//! * the **prefilter** (Sec. 3.4, rule ii) checks whether the rDNS name
//!   of a returned IP resembles the requested domain, *and* whether the
//!   rDNS name's forward A record maps back to the IP (only the domain
//!   owner can set up the A record).

use std::net::Ipv4Addr;

use crate::rangemap::IpRangeMap;

/// Tokens the churn analysis treats as indicating dynamic IP assignment.
pub const DYNAMIC_TOKENS: &[&str] = &[
    "dynamic",
    "dyn",
    "dialup",
    "dial",
    "broadband",
    "bb",
    "pool",
    "dhcp",
    "ppp",
];

/// How hosts in a block are named in the reverse zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdnsPattern {
    /// `host-<a>-<b>-<c>-<d>.<infix>.<zone>` where `infix` carries a
    /// dynamic-assignment token, e.g. `host-5-5-1-2.dynamic.ttnet.example`.
    DynamicPool {
        /// Operator zone suffix.
        zone: String,
        /// The dynamic-assignment token, e.g. `"dynamic"`.
        token: String,
    },
    /// `static-<a>-<b>-<c>-<d>.<zone>` — statically assigned space.
    StaticHost {
        /// Operator zone suffix.
        zone: String,
    },
    /// A fixed name for every address in the block (e.g. CDN edge or
    /// service anycast), such as `cache.cdn.example`.
    Fixed {
        /// The PTR target.
        name: String,
    },
}

impl RdnsPattern {
    /// Convenience constructor for a dynamic broadband pool.
    pub fn dynamic_broadband(zone: &str) -> Self {
        RdnsPattern::DynamicPool {
            zone: zone.to_string(),
            token: "dynamic".to_string(),
        }
    }

    /// Convenience constructor for static space.
    pub fn static_host(zone: &str) -> Self {
        RdnsPattern::StaticHost {
            zone: zone.to_string(),
        }
    }

    /// Render the PTR target for `ip`.
    pub fn name_for(&self, ip: Ipv4Addr) -> String {
        let o = ip.octets();
        match self {
            RdnsPattern::DynamicPool { zone, token } => {
                format!("host-{}-{}-{}-{}.{token}.{zone}", o[0], o[1], o[2], o[3])
            }
            RdnsPattern::StaticHost { zone } => {
                format!("static-{}-{}-{}-{}.{zone}", o[0], o[1], o[2], o[3])
            }
            RdnsPattern::Fixed { name } => name.clone(),
        }
    }
}

/// The reverse zone: IP ranges with naming patterns plus point overrides
/// for individual service hosts (web servers, mail servers, CDN edges).
#[derive(Debug, Clone, Default)]
pub struct RdnsDb {
    patterns: IpRangeMap<RdnsPattern>,
    /// Sorted `(ip, name)` overrides; consulted before the range patterns.
    overrides: Vec<(u32, String)>,
}

impl RdnsDb {
    /// Build from range patterns plus per-address overrides.
    pub fn new(patterns: IpRangeMap<RdnsPattern>, mut overrides: Vec<(Ipv4Addr, String)>) -> Self {
        let mut ov: Vec<(u32, String)> = overrides
            .drain(..)
            .map(|(ip, name)| (u32::from(ip), name))
            .collect();
        ov.sort_by_key(|(ip, _)| *ip);
        ov.dedup_by_key(|(ip, _)| *ip);
        RdnsDb {
            patterns,
            overrides: ov,
        }
    }

    /// PTR lookup: the rDNS name of `ip`, if the operator populated the
    /// reverse zone.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<String> {
        let v = u32::from(ip);
        if let Ok(i) = self.overrides.binary_search_by_key(&v, |(ip, _)| *ip) {
            return Some(self.overrides[i].1.clone());
        }
        self.patterns.get(ip).map(|p| p.name_for(ip))
    }

    /// Whether the rDNS name of `ip` carries a dynamic-assignment token —
    /// the Sec. 2.5 churn heuristic (67.4% of day-one leavers matched).
    pub fn is_dynamic(&self, ip: Ipv4Addr) -> bool {
        match self.lookup(ip) {
            Some(name) => {
                let lower = name.to_ascii_lowercase();
                lower
                    .split('.')
                    .any(|lbl| DYNAMIC_TOKENS.iter().any(|t| lbl == *t || lbl.contains(t)))
            }
            None => false,
        }
    }

    /// Number of point overrides.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn db() -> RdnsDb {
        let mut b = IpRangeMap::builder();
        b.insert(
            ip("5.5.0.0"),
            ip("5.5.255.255"),
            RdnsPattern::dynamic_broadband("ttnet.example"),
        )
        .unwrap();
        b.insert(
            ip("6.6.0.0"),
            ip("6.6.0.255"),
            RdnsPattern::static_host("hosting.example"),
        )
        .unwrap();
        b.insert(
            ip("7.7.7.0"),
            ip("7.7.7.255"),
            RdnsPattern::Fixed {
                name: "edge.cdn.example".into(),
            },
        )
        .unwrap();
        RdnsDb::new(
            b.build(),
            vec![(ip("6.6.0.10"), "www.bank.example".to_string())],
        )
    }

    #[test]
    fn dynamic_pool_naming() {
        let d = db();
        assert_eq!(
            d.lookup(ip("5.5.1.2")).unwrap(),
            "host-5-5-1-2.dynamic.ttnet.example"
        );
        assert!(d.is_dynamic(ip("5.5.1.2")));
    }

    #[test]
    fn static_space_not_dynamic() {
        let d = db();
        assert_eq!(
            d.lookup(ip("6.6.0.99")).unwrap(),
            "static-6-6-0-99.hosting.example"
        );
        assert!(!d.is_dynamic(ip("6.6.0.99")));
    }

    #[test]
    fn fixed_and_override() {
        let d = db();
        assert_eq!(d.lookup(ip("7.7.7.42")).unwrap(), "edge.cdn.example");
        assert_eq!(d.lookup(ip("6.6.0.10")).unwrap(), "www.bank.example");
    }

    #[test]
    fn missing_zone_returns_none() {
        let d = db();
        assert_eq!(d.lookup(ip("9.9.9.9")), None);
        assert!(!d.is_dynamic(ip("9.9.9.9")));
    }

    #[test]
    fn token_matching_covers_paper_tokens() {
        for token in ["broadband", "dialup", "dynamic"] {
            let mut b = IpRangeMap::builder();
            b.insert(
                ip("5.0.0.0"),
                ip("5.0.0.255"),
                RdnsPattern::DynamicPool {
                    zone: "isp.example".into(),
                    token: token.to_string(),
                },
            )
            .unwrap();
            let d = RdnsDb::new(b.build(), vec![]);
            assert!(d.is_dynamic(ip("5.0.0.1")), "token {token}");
        }
    }
}
