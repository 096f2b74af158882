//! DNS-based prefiltering (Sec. 3.4).
//!
//! Filters the vast majority of *legitimate* answers out of the tuple
//! stream without ever risking the loss of a bogus one:
//!
//! * NX domains: NXDOMAIN and empty NOERROR answers are the expected
//!   outcomes — filtered.
//! * Existing domains: every returned address must satisfy either
//!   (i) same-AS membership with a trusted resolution of the domain, or
//!   (ii) a *confirmed* reverse record: the rDNS name resembles the
//!   requested domain **and** its forward A record maps back to the
//!   address (only the domain owner can arrange that).
//! * CDN space that fails both: a later HTTPS-certificate check
//!   ([`PreFilter::certificate_ok`]) rescues addresses presenting a
//!   valid certificate for the domain, or the known default certificate
//!   of a large CDN provider.

use dnswire::Rcode;
use geodb::{GeoDb, RdnsDb};
use netsim::TlsCertificate;
use scanner::TupleObs;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Trusted resolutions: what *our* resolvers say each domain maps to.
/// Built once per scan from multiple vantage regions, mirroring the
/// paper's "we perform a DNS A lookup at (trusted) recursive resolvers".
#[derive(Debug, Clone, Default)]
pub struct TrustedView {
    /// Domain → trusted A records.
    pub ips: BTreeMap<String, Vec<Ipv4Addr>>,
    /// Domain → whether it should not exist.
    pub nonexistent: BTreeSet<String>,
}

impl TrustedView {
    /// Trusted A records for `domain` (empty if unresolvable).
    pub fn trusted_ips(&self, domain: &str) -> &[Ipv4Addr] {
        self.ips.get(domain).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// Verdict for one tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterVerdict {
    /// Expected NXDOMAIN / empty answer for a nonexistent domain.
    ExpectedNx,
    /// Error rcode (REFUSED/SERVFAIL/…): no resolution to judge.
    ErrorResponse,
    /// NOERROR with an empty answer section for an existing domain.
    EmptyAnswer,
    /// Every address matched the same-AS rule.
    LegitSameAs,
    /// Every address matched same-AS or confirmed-rDNS.
    LegitRdns,
    /// Unexpected — goes to data acquisition and clustering.
    Unexpected,
}

impl FilterVerdict {
    /// Whether the tuple survives into the unknown set.
    pub fn is_unexpected(self) -> bool {
        self == FilterVerdict::Unexpected
    }
}

/// Forward-confirmation oracle: trusted A lookup of an rDNS name.
pub type ForwardLookup<'a> = Box<dyn Fn(&str) -> Vec<Ipv4Addr> + 'a>;

/// The prefilter. Holds trusted resolutions, their AS sets, and the
/// databases the rules consult.
pub struct PreFilter<'a> {
    trusted: &'a TrustedView,
    geo: &'a GeoDb,
    rdns: &'a RdnsDb,
    /// AS numbers of the trusted resolution per domain (precomputed).
    trusted_asns: BTreeMap<String, BTreeSet<u32>>,
    /// Known default-certificate common names of large CDN providers.
    cdn_default_cns: Vec<String>,
    /// Forward-confirmation oracle: trusted A lookup of an rDNS name.
    forward: ForwardLookup<'a>,
}

impl<'a> PreFilter<'a> {
    /// Build the filter from trusted resolutions and databases.
    pub fn new(
        trusted: &'a TrustedView,
        geo: &'a GeoDb,
        rdns: &'a RdnsDb,
        cdn_default_cns: Vec<String>,
        forward: impl Fn(&str) -> Vec<Ipv4Addr> + 'a,
    ) -> Self {
        let trusted_asns = trusted
            .ips
            .iter()
            .map(|(domain, ips)| {
                let asns = ips.iter().filter_map(|ip| geo.asn(*ip)).collect();
                (domain.clone(), asns)
            })
            .collect();
        PreFilter {
            trusted,
            geo,
            rdns,
            trusted_asns,
            cdn_default_cns,
            forward: Box::new(forward),
        }
    }

    /// Judge one tuple (DNS stage only; certificates come later).
    pub fn judge(&self, domain: &str, obs: &TupleObs) -> FilterVerdict {
        let nonexistent = self.trusted.nonexistent.contains(domain);
        match obs.rcode {
            Rcode::NxDomain => {
                return if nonexistent {
                    FilterVerdict::ExpectedNx
                } else {
                    // NXDOMAIN for an existing domain is itself odd, but
                    // carries no address to analyze; bucket as empty.
                    FilterVerdict::EmptyAnswer
                };
            }
            Rcode::NoError => {}
            _ => return FilterVerdict::ErrorResponse,
        }
        if obs.ips.is_empty() {
            return if nonexistent {
                FilterVerdict::ExpectedNx
            } else {
                FilterVerdict::EmptyAnswer
            };
        }
        if nonexistent {
            // Any address for an NX domain is unexpected by definition.
            return FilterVerdict::Unexpected;
        }

        let trusted_asns = self.trusted_asns.get(domain);
        let mut all_same_as = true;
        let mut all_legit = true;
        for &ip in &obs.ips {
            let same_as = trusted_asns
                .map(|set| self.geo.asn(ip).map(|a| set.contains(&a)).unwrap_or(false))
                .unwrap_or(false);
            if same_as {
                continue;
            }
            all_same_as = false;
            if self.rdns_confirms(domain, ip) {
                continue;
            }
            all_legit = false;
            break;
        }
        if all_same_as {
            FilterVerdict::LegitSameAs
        } else if all_legit {
            FilterVerdict::LegitRdns
        } else {
            FilterVerdict::Unexpected
        }
    }

    /// Rule (ii): the rDNS name of `ip` resembles `domain` and forward-
    /// confirms to `ip`.
    fn rdns_confirms(&self, domain: &str, ip: Ipv4Addr) -> bool {
        let Some(record) = self.rdns.lookup(ip) else {
            return false;
        };
        let record = record.to_ascii_lowercase();
        // "the domain part of the record resembles the requested domain":
        // the record equals the domain or ends with it.
        let resembles = record == domain || record.ends_with(&format!(".{domain}"));
        if !resembles {
            return false;
        }
        (self.forward)(&record).contains(&ip)
    }

    /// Certificate stage (Sec. 3.4, final rule): an address is
    /// considered legitimate if a valid certificate covering `domain`
    /// was served with SNI, or — for large CDN providers — the SNI-less
    /// default certificate is valid and carries a known common name.
    ///
    /// The two rules have different strength: the known-CDN default
    /// certificate identifies the *host* as CDN infrastructure (strong —
    /// a transparent proxy forwards the origin's per-domain certificate
    /// but cannot produce the provider's default cert without its key),
    /// while a valid SNI certificate only proves the *content path* is
    /// authentic — which is also true of TLS-forwarding proxies.
    pub fn certificate_rule(
        &self,
        domain: &str,
        sni_cert: Option<&TlsCertificate>,
        nosni_cert: Option<&TlsCertificate>,
    ) -> Option<CertRule> {
        if let Some(cert) = nosni_cert {
            if cert.valid_chain
                && self
                    .cdn_default_cns
                    .iter()
                    .any(|cn| cn.eq_ignore_ascii_case(&cert.common_name))
            {
                return Some(CertRule::CdnDefault);
            }
        }
        if let Some(cert) = sni_cert {
            if cert.valid_chain && cert.covers(domain) {
                return Some(CertRule::SniValid);
            }
        }
        None
    }

    /// Convenience wrapper over [`PreFilter::certificate_rule`].
    pub fn certificate_ok(
        &self,
        domain: &str,
        sni_cert: Option<&TlsCertificate>,
        nosni_cert: Option<&TlsCertificate>,
    ) -> bool {
        self.certificate_rule(domain, sni_cert, nosni_cert)
            .is_some()
    }
}

/// Which certificate rule validated an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertRule {
    /// Valid chain covering the domain, served with SNI.
    SniValid,
    /// The known default certificate of a large CDN provider.
    CdnDefault,
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodb::{Country, IpRangeMap, NetBlock, RdnsPattern};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn tuple(domain_idx: u16, rcode: Rcode, ips: Vec<Ipv4Addr>) -> TupleObs {
        TupleObs {
            resolver_idx: 0,
            resolver_ip: ip("5.5.5.5"),
            domain_idx,
            rcode,
            ips,
            response_ordinal: 0,
            src_ip: ip("5.5.5.5"),
            ns_only: false,
        }
    }

    fn setup() -> (TrustedView, GeoDb, RdnsDb) {
        let mut trusted = TrustedView::default();
        trusted
            .ips
            .insert("bank.example".into(), vec![ip("20.0.0.10")]);
        trusted
            .ips
            .insert("cdn-site.example".into(), vec![ip("30.0.0.1")]);
        trusted.nonexistent.insert("nx.example".into());

        let mut blocks = IpRangeMap::builder();
        blocks
            .insert(
                ip("20.0.0.0"),
                ip("20.0.0.255"),
                NetBlock {
                    country: Country::new("US"),
                    asn: 100,
                    rdns: None,
                },
            )
            .unwrap();
        blocks
            .insert(
                ip("30.0.0.0"),
                ip("30.0.0.255"),
                NetBlock {
                    country: Country::new("US"),
                    asn: 200,
                    rdns: None,
                },
            )
            .unwrap();
        blocks
            .insert(
                ip("40.0.0.0"),
                ip("40.0.0.255"),
                NetBlock {
                    country: Country::new("DE"),
                    asn: 300,
                    rdns: None,
                },
            )
            .unwrap();
        let geo = GeoDb::new(blocks.build(), vec![]);

        let mut patterns = IpRangeMap::builder();
        patterns
            .insert(
                ip("40.0.0.0"),
                ip("40.0.0.127"),
                RdnsPattern::Fixed {
                    name: "mirror.bank.example".into(),
                },
            )
            .unwrap();
        patterns
            .insert(
                ip("40.0.0.128"),
                ip("40.0.0.255"),
                RdnsPattern::Fixed {
                    name: "fake.bank.example".into(),
                },
            )
            .unwrap();
        let rdns = RdnsDb::new(patterns.build(), vec![]);
        (trusted, geo, rdns)
    }

    fn filter<'a>(t: &'a TrustedView, g: &'a GeoDb, r: &'a RdnsDb) -> PreFilter<'a> {
        PreFilter::new(t, g, r, vec!["edge.cdnone.example".into()], |name| {
            // Forward oracle: only the real mirror confirms.
            if name == "mirror.bank.example" {
                vec![ip("40.0.0.5")]
            } else {
                vec![]
            }
        })
    }

    #[test]
    fn same_as_filters() {
        let (t, g, r) = setup();
        let f = filter(&t, &g, &r);
        // Same /24, same AS as trusted → legit.
        let v = f.judge(
            "bank.example",
            &tuple(0, Rcode::NoError, vec![ip("20.0.0.77")]),
        );
        assert_eq!(v, FilterVerdict::LegitSameAs);
    }

    #[test]
    fn foreign_as_unexpected() {
        let (t, g, r) = setup();
        let f = filter(&t, &g, &r);
        let v = f.judge(
            "bank.example",
            &tuple(0, Rcode::NoError, vec![ip("30.0.0.99")]),
        );
        assert_eq!(v, FilterVerdict::Unexpected);
    }

    #[test]
    fn confirmed_rdns_rescues() {
        let (t, g, r) = setup();
        let f = filter(&t, &g, &r);
        // 40.0.0.5: rDNS "mirror.bank.example" resembles the domain and
        // forward-confirms → legit.
        let v = f.judge(
            "bank.example",
            &tuple(0, Rcode::NoError, vec![ip("40.0.0.5")]),
        );
        assert_eq!(v, FilterVerdict::LegitRdns);
        // 40.0.0.200: rDNS resembles but does NOT forward-confirm
        // (anyone can claim a PTR) → unexpected.
        let v2 = f.judge(
            "bank.example",
            &tuple(0, Rcode::NoError, vec![ip("40.0.0.200")]),
        );
        assert_eq!(v2, FilterVerdict::Unexpected);
    }

    #[test]
    fn mixed_answers_judged_conservatively() {
        let (t, g, r) = setup();
        let f = filter(&t, &g, &r);
        // One legit + one foreign address → unexpected (never risk
        // filtering a bogus answer).
        let v = f.judge(
            "bank.example",
            &tuple(0, Rcode::NoError, vec![ip("20.0.0.10"), ip("30.0.0.1")]),
        );
        assert_eq!(v, FilterVerdict::Unexpected);
    }

    #[test]
    fn nx_semantics() {
        let (t, g, r) = setup();
        let f = filter(&t, &g, &r);
        assert_eq!(
            f.judge("nx.example", &tuple(0, Rcode::NxDomain, vec![])),
            FilterVerdict::ExpectedNx
        );
        assert_eq!(
            f.judge("nx.example", &tuple(0, Rcode::NoError, vec![])),
            FilterVerdict::ExpectedNx
        );
        // Monetized NX: any address is unexpected.
        assert_eq!(
            f.judge(
                "nx.example",
                &tuple(0, Rcode::NoError, vec![ip("20.0.0.10")])
            ),
            FilterVerdict::Unexpected
        );
    }

    #[test]
    fn error_and_empty_buckets() {
        let (t, g, r) = setup();
        let f = filter(&t, &g, &r);
        assert_eq!(
            f.judge("bank.example", &tuple(0, Rcode::Refused, vec![])),
            FilterVerdict::ErrorResponse
        );
        assert_eq!(
            f.judge("bank.example", &tuple(0, Rcode::NoError, vec![])),
            FilterVerdict::EmptyAnswer
        );
    }

    #[test]
    fn certificate_stage() {
        let (t, g, r) = setup();
        let f = filter(&t, &g, &r);
        let good = TlsCertificate::valid_for("cdn-site.example");
        let selfsigned = TlsCertificate::self_signed("cdn-site.example");
        let default_cn = TlsCertificate::valid_for("edge.cdnone.example");
        let unknown_cn = TlsCertificate::valid_for("edge.evil.example");
        assert!(f.certificate_ok("cdn-site.example", Some(&good), None));
        assert!(!f.certificate_ok("cdn-site.example", Some(&selfsigned), None));
        assert!(f.certificate_ok("cdn-site.example", None, Some(&default_cn)));
        assert!(!f.certificate_ok("cdn-site.example", None, Some(&unknown_cn)));
        assert!(!f.certificate_ok("cdn-site.example", None, None));
    }
}
