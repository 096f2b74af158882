//! The authoritative DNS fabric: which domains exist, which IPs serve
//! them, and the TLD infrastructure.

use geodb::Rir;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The paper's 13 domain categories (Section 3.2) plus the ground-truth
/// domain operated by the measurement team.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DomainCategory {
    /// Advertisement providers.
    Ads,
    /// Adult content.
    Adult,
    /// Alexa Top 20.
    Alexa,
    /// AV vendors and update servers.
    Antivirus,
    /// Banking / payment sites.
    Banking,
    /// Dating sites.
    Dating,
    /// File sharing.
    Filesharing,
    /// Online betting.
    Gambling,
    /// Blacklisted malware domains.
    Malware,
    /// Mail hostnames (IMAP/POP3/SMTP).
    Mx,
    /// Nonexistent / typo domains.
    Nx,
    /// User-tracking services.
    Tracking,
    /// Update servers, agencies, OAuth, individual sites.
    Misc,
    /// The measurement team's own domain.
    GroundTruth,
}

impl DomainCategory {
    /// All categories, in Table 5's column order (GT sits between
    /// Gambling and Malware there; we expose paper order for reports).
    pub const ALL: [DomainCategory; 14] = [
        DomainCategory::Ads,
        DomainCategory::Adult,
        DomainCategory::Alexa,
        DomainCategory::Antivirus,
        DomainCategory::Banking,
        DomainCategory::Dating,
        DomainCategory::Filesharing,
        DomainCategory::Gambling,
        DomainCategory::GroundTruth,
        DomainCategory::Malware,
        DomainCategory::Misc,
        DomainCategory::Mx,
        DomainCategory::Nx,
        DomainCategory::Tracking,
    ];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            DomainCategory::Ads => "Ads",
            DomainCategory::Adult => "Adult",
            DomainCategory::Alexa => "Alexa",
            DomainCategory::Antivirus => "Antivirus",
            DomainCategory::Banking => "Banking",
            DomainCategory::Dating => "Dating",
            DomainCategory::Filesharing => "Filesharing",
            DomainCategory::Gambling => "Gambling",
            DomainCategory::GroundTruth => "GroundTr.",
            DomainCategory::Malware => "Malware",
            DomainCategory::Misc => "Misc.",
            DomainCategory::Mx => "MX",
            DomainCategory::Nx => "NX",
            DomainCategory::Tracking => "Tracking",
        }
    }
}

/// How a domain's legitimate A records are produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainKind {
    /// A fixed set of addresses (single-homed or small multi-homed).
    Fixed(Vec<Ipv4Addr>),
    /// A CDN-served domain: the answer depends on the client's region,
    /// and each region has several edge addresses that rotate.
    Cdn {
        /// Edge pools keyed by region.
        pools: Vec<(Rir, Vec<Ipv4Addr>)>,
    },
    /// The domain does not exist.
    NonExistent,
}

/// One domain in the universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecord {
    /// Lower-case FQDN without trailing dot.
    pub name: String,
    /// Catalog category.
    pub category: DomainCategory,
    /// How its A records are produced.
    pub kind: DomainKind,
    /// Answer TTL in seconds.
    pub ttl: u32,
    /// Whether the domain serves mail (MX category hostnames).
    pub is_mail_host: bool,
}

/// Result of a legitimate (hierarchy-following) resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Answer records.
    Ips {
        /// Resolved addresses.
        ips: Vec<Ipv4Addr>,
        /// Answer TTL.
        ttl: u32,
    },
    /// NXDOMAIN.
    NxDomain,
}

/// A legitimate resolution whose addresses are lent by the universe:
/// what [`DnsUniverse::resolve`] copies out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup<'a> {
    // A CDN answer is two consecutive edges of a ring, which need not
    // be adjacent in memory: `head` then `tail`.
    head: &'a [Ipv4Addr],
    tail: &'a [Ipv4Addr],
    /// Answer TTL.
    pub ttl: u32,
}

impl<'a> Lookup<'a> {
    /// Resolved addresses, in answer order.
    pub fn ips(&self) -> impl Iterator<Item = Ipv4Addr> + 'a {
        self.head.iter().chain(self.tail).copied()
    }
}

/// `name` lower-cased, without a copy when it already is — which every
/// name a resolver has read off the wire is.
fn lower(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A top-level domain with its authoritative NS host (cache-snooping
/// targets, Sec. 2.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TldInfo {
    /// E.g. `"com"` or `"co.uk"`.
    pub name: String,
    /// The NS record target, e.g. `"a.nic.com"`.
    pub ns_host: String,
    /// NS record TTL in seconds — deliberately in the minutes-to-hours
    /// range so a 36-hour snooping window observes expirations.
    pub ttl: u32,
}

/// The authoritative DNS fabric shared by all honest hosts.
#[derive(Debug, Clone, Default)]
pub struct DnsUniverse {
    domains: HashMap<String, DomainRecord>,
    /// Wildcard zones: any subdomain of `suffix` resolves to these IPs.
    /// Used for the scan zone (`*.scan.gwild.example` → scanner AuthNS).
    wildcards: Vec<(String, Vec<Ipv4Addr>, u32)>,
    tlds: Vec<TldInfo>,
    /// DNSSEC-signed domains. Deliberately sparse: the paper (Sec. 5)
    /// cites <0.6% deployment in 2015.
    signed: std::collections::BTreeSet<String>,
}

impl DnsUniverse {
    /// An empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a domain. Replaces any existing record of the same name.
    pub fn add_domain(&mut self, record: DomainRecord) {
        self.domains.insert(record.name.clone(), record);
    }

    /// Register a wildcard zone: `*.suffix` (and `suffix` itself)
    /// resolves to `ips`.
    pub fn add_wildcard(&mut self, suffix: &str, ips: Vec<Ipv4Addr>, ttl: u32) {
        self.wildcards.push((suffix.to_ascii_lowercase(), ips, ttl));
    }

    /// Register the TLD set for cache snooping.
    pub fn set_tlds(&mut self, tlds: Vec<TldInfo>) {
        self.tlds = tlds;
    }

    /// The snooping TLD set.
    pub fn tlds(&self) -> &[TldInfo] {
        &self.tlds
    }

    /// Mark a domain as DNSSEC-signed.
    pub fn sign_domain(&mut self, name: &str) {
        self.signed.insert(name.to_ascii_lowercase());
    }

    /// Whether a domain's zone is DNSSEC-signed.
    pub fn is_signed(&self, name: &str) -> bool {
        self.signed.contains(lower(name).as_ref())
    }

    /// Look up the record for an exact domain name.
    pub fn record(&self, name: &str) -> Option<&DomainRecord> {
        self.domains.get(lower(name).as_ref())
    }

    /// All registered domains.
    pub fn domains(&self) -> impl Iterator<Item = &DomainRecord> {
        self.domains.values()
    }

    /// Domains of one category.
    pub fn domains_in(&self, category: DomainCategory) -> Vec<&DomainRecord> {
        let mut v: Vec<&DomainRecord> = self
            .domains
            .values()
            .filter(|d| d.category == category)
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Perform a *correct* recursive resolution as a resolver in
    /// `region` would: follow the hierarchy, get the region's CDN edge
    /// set where applicable. `salt` varies edge rotation (e.g. the
    /// resolver's identity), mirroring how repeated CDN lookups return
    /// different subsets of a pool.
    pub fn resolve(&self, qname: &str, region: Rir, salt: u64) -> Resolution {
        match self.lookup(qname, region, salt) {
            Some(found) => Resolution::Ips {
                ips: found.ips().collect(),
                ttl: found.ttl,
            },
            None => Resolution::NxDomain,
        }
    }

    /// [`resolve`](Self::resolve) without copying the addresses out;
    /// `None` is NXDOMAIN.
    pub fn lookup(&self, qname: &str, region: Rir, salt: u64) -> Option<Lookup<'_>> {
        let name = lower(qname);
        if let Some(rec) = self.domains.get(name.as_ref()) {
            let (head, tail): (&[Ipv4Addr], &[Ipv4Addr]) = match &rec.kind {
                DomainKind::Fixed(ips) => (ips, &[]),
                DomainKind::Cdn { pools } => {
                    let (_, ips) = pools
                        .iter()
                        .find(|(r, _)| *r == region)
                        .or_else(|| pools.first())
                        .filter(|(_, ips)| !ips.is_empty())?;
                    // Rotate: pick two consecutive edges by salt.
                    let n = ips.len();
                    let start = (salt as usize) % n;
                    let next = (start + 1) % n;
                    let second = if n > 1 { &ips[next..=next] } else { &[] };
                    (&ips[start..=start], second)
                }
                DomainKind::NonExistent => return None,
            };
            return Some(Lookup {
                head,
                tail,
                ttl: rec.ttl,
            });
        }
        // Wildcard zones: the suffix itself or anything label-aligned
        // under it.
        self.wildcards
            .iter()
            .find(|(suffix, _, _)| {
                name.strip_suffix(suffix.as_str())
                    .is_some_and(|head| head.is_empty() || head.ends_with('.'))
            })
            .map(|(_, ips, ttl)| Lookup {
                head: ips,
                tail: &[],
                ttl: *ttl,
            })
    }

    /// Every legitimate IP a domain may resolve to, across all regions —
    /// what a perfectly informed oracle would whitelist. Used by tests
    /// to validate the prefilter, *not* by the prefilter itself (the
    /// pipeline must discover legitimacy the way the paper does).
    pub fn all_legitimate_ips(&self, name: &str) -> Vec<Ipv4Addr> {
        match self.domains.get(lower(name).as_ref()) {
            Some(rec) => match &rec.kind {
                DomainKind::Fixed(ips) => ips.clone(),
                DomainKind::Cdn { pools } => {
                    let mut all: Vec<Ipv4Addr> = pools
                        .iter()
                        .flat_map(|(_, ips)| ips.iter().copied())
                        .collect();
                    all.sort();
                    all.dedup();
                    all
                }
                DomainKind::NonExistent => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn universe() -> DnsUniverse {
        let mut u = DnsUniverse::new();
        u.add_domain(DomainRecord {
            name: "bank.example".into(),
            category: DomainCategory::Banking,
            kind: DomainKind::Fixed(vec![ip("198.51.100.10")]),
            ttl: 300,
            is_mail_host: false,
        });
        u.add_domain(DomainRecord {
            name: "cdn.example".into(),
            category: DomainCategory::Alexa,
            kind: DomainKind::Cdn {
                pools: vec![
                    (
                        Rir::Arin,
                        vec![ip("203.0.113.1"), ip("203.0.113.2"), ip("203.0.113.3")],
                    ),
                    (Rir::Apnic, vec![ip("203.0.113.129"), ip("203.0.113.130")]),
                ],
            },
            ttl: 60,
            is_mail_host: false,
        });
        u.add_domain(DomainRecord {
            name: "gone.example".into(),
            category: DomainCategory::Nx,
            kind: DomainKind::NonExistent,
            ttl: 0,
            is_mail_host: false,
        });
        u.add_wildcard("scan.gwild.example", vec![ip("192.0.2.53")], 5);
        u
    }

    #[test]
    fn fixed_resolution() {
        let u = universe();
        assert_eq!(
            u.resolve("bank.example", Rir::Ripe, 0),
            Resolution::Ips {
                ips: vec![ip("198.51.100.10")],
                ttl: 300
            }
        );
        assert_eq!(
            u.resolve("BANK.Example", Rir::Ripe, 0),
            u.resolve("bank.example", Rir::Ripe, 0)
        );
    }

    #[test]
    fn cdn_resolution_is_region_dependent() {
        let u = universe();
        let arin = u.resolve("cdn.example", Rir::Arin, 0);
        let apnic = u.resolve("cdn.example", Rir::Apnic, 0);
        assert_ne!(arin, apnic);
        let Resolution::Ips { ips, .. } = arin else {
            panic!()
        };
        assert!(ips
            .iter()
            .all(|i| u32::from(*i) < u32::from(ip("203.0.113.128"))));
    }

    #[test]
    fn cdn_rotation_by_salt() {
        let u = universe();
        let a = u.resolve("cdn.example", Rir::Arin, 0);
        let b = u.resolve("cdn.example", Rir::Arin, 1);
        assert_ne!(a, b, "salt rotates edges");
        // But all are in the legitimate set.
        let legit = u.all_legitimate_ips("cdn.example");
        for r in [a, b] {
            let Resolution::Ips { ips, .. } = r else {
                panic!()
            };
            assert!(ips.iter().all(|i| legit.contains(i)));
        }
    }

    #[test]
    fn unknown_region_falls_back_to_first_pool() {
        let u = universe();
        let r = u.resolve("cdn.example", Rir::Afrinic, 0);
        assert!(matches!(r, Resolution::Ips { .. }));
    }

    #[test]
    fn nxdomain_cases() {
        let u = universe();
        assert_eq!(
            u.resolve("gone.example", Rir::Ripe, 0),
            Resolution::NxDomain
        );
        assert_eq!(
            u.resolve("never-registered.example", Rir::Ripe, 0),
            Resolution::NxDomain
        );
    }

    #[test]
    fn wildcard_zone_matches_subdomains_only() {
        let u = universe();
        for q in [
            "scan.gwild.example",
            "abc123.scan.gwild.example",
            "r4nd.c0a80001.scan.gwild.example",
        ] {
            assert!(
                matches!(u.resolve(q, Rir::Ripe, 0), Resolution::Ips { .. }),
                "{q}"
            );
        }
        assert_eq!(
            u.resolve("notscan.gwild.example", Rir::Ripe, 0),
            Resolution::NxDomain
        );
        // Suffix match must be label-aligned.
        assert_eq!(
            u.resolve("xscan.gwild.example", Rir::Ripe, 0),
            Resolution::NxDomain
        );
    }

    #[test]
    fn category_listing_sorted() {
        let u = universe();
        let banking = u.domains_in(DomainCategory::Banking);
        assert_eq!(banking.len(), 1);
        assert_eq!(banking[0].name, "bank.example");
    }

    #[test]
    fn oracle_ips_cover_all_pools() {
        let u = universe();
        assert_eq!(u.all_legitimate_ips("cdn.example").len(), 5);
        assert!(u.all_legitimate_ips("gone.example").is_empty());
        assert!(u.all_legitimate_ips("nope.example").is_empty());
    }
}
