//! Resolver answer behaviours — the heart of the "manipulated DNS
//! resolutions" phenomenon (Sections 3–4).

use crate::universe::{DnsUniverse, DomainCategory};
use geodb::{Country, Rir};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One censorship rule: which domains are redirected, and to which
/// landing-page addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensorRule {
    /// Categories blocked wholesale (e.g. Adult, Gambling).
    pub categories: Vec<DomainCategory>,
    /// Individually blocked domain names (lower-case).
    pub domains: Vec<String>,
    /// Landing-page IPs (the paper found 299 such IPs across 34
    /// countries); one is picked deterministically per resolver.
    pub landing_ips: Vec<Ipv4Addr>,
}

impl CensorRule {
    fn matches(&self, name: &str, category: Option<DomainCategory>) -> bool {
        if let Some(c) = category {
            if self.categories.contains(&c) {
                return true;
            }
        }
        self.domains.iter().any(|d| d == name)
    }
}

/// A country's DNS censorship policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CensorPolicy {
    /// The censoring country.
    pub country: Country,
    /// Its rules.
    pub rules: Vec<CensorRule>,
    /// Fraction of the country's resolvers that comply (Sec. 4.2:
    /// CN 99.7%, MN 78.9%, GR 83.9%, …; TR had 10% non-compliance).
    pub compliance: f64,
}

impl CensorPolicy {
    /// The landing IP for `name` if this policy censors it, selected
    /// deterministically by `salt` (per-resolver).
    pub fn landing_for(
        &self,
        name: &str,
        category: Option<DomainCategory>,
        salt: u64,
    ) -> Option<Ipv4Addr> {
        for rule in &self.rules {
            if rule.matches(name, category) && !rule.landing_ips.is_empty() {
                let idx = (salt as usize) % rule.landing_ips.len();
                return Some(rule.landing_ips[idx]);
            }
        }
        None
    }
}

/// The externally visible answer of a resolver to an A query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A records.
    Ips {
        /// Answer addresses.
        ips: Vec<Ipv4Addr>,
        /// Answer TTL in seconds.
        ttl: u32,
    },
    /// NXDOMAIN.
    NxDomain,
    /// NOERROR with an empty answer section.
    Empty,
    /// REFUSED.
    Refused,
    /// SERVFAIL.
    ServFail,
    /// NOERROR carrying only NS records (recursion effectively denied —
    /// 2.0% of suspicious resolvers, Sec. 4.1).
    NsOnly {
        /// The referral NS host.
        ns_host: String,
        /// Referral TTL.
        ttl: u32,
    },
    /// No response at all.
    Silent,
}

/// A behaviour's reply: the primary answer plus an optional delayed
/// second answer (the GFW double-response signature, Sec. 4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The first answer sent.
    pub primary: Answer,
    /// `(extra_delay_ms, answer)` sent after the primary.
    pub secondary: Option<(u64, Answer)>,
}

impl Reply {
    /// A reply with no secondary answer.
    pub fn single(primary: Answer) -> Self {
        Reply {
            primary,
            secondary: None,
        }
    }
}

/// Everything a behaviour may consult when answering.
pub struct QueryCtx<'a> {
    /// The DNS fabric.
    pub universe: &'a DnsUniverse,
    /// Query name, lower-cased, no trailing dot.
    pub qname: &'a str,
    /// The category of the exact domain, if it is a catalog domain.
    pub category: Option<DomainCategory>,
    /// The resolver's region (drives CDN answers).
    pub region: Rir,
    /// Per-resolver deterministic salt.
    pub salt: u64,
    /// The IP the query arrived at (for `SelfIp`).
    pub self_ip: Ipv4Addr,
}

impl QueryCtx<'_> {
    fn honest(&self) -> Answer {
        match self.universe.lookup(self.qname, self.region, self.salt) {
            Some(found) => Answer::Ips {
                ips: found.ips().collect(),
                ttl: found.ttl,
            },
            None => Answer::NxDomain,
        }
    }
}

/// Deterministic forged IP for GFW-style random-address censorship.
pub(crate) fn forged_ip(salt: u64, qname: &str) -> Ipv4Addr {
    let mut h = 0xcbf29ce484222325u64 ^ salt;
    for b in qname.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // Map into 1.0.0.0–9.255.255.255: plausible unicast space containing
    // no reserved ranges, so forged answers always look routable.
    let v = 0x0100_0000u32 + (h as u32 % 0x0900_0000);
    Ipv4Addr::from(v)
}

/// The resolver behaviour taxonomy. Every phenomenon in Tables 5 and
/// Sec. 4.3 has a representative variant.
#[derive(Debug, Clone)]
pub enum ResolverBehavior {
    /// Follows the DNS hierarchy faithfully.
    Honest,
    /// Complies with a country censorship policy; everything else honest.
    Censor {
        /// The national policy.
        policy: Arc<CensorPolicy>,
    },
    /// A resolver behind the Great Firewall: its cache is poisoned for
    /// censored domains (random forged IPs). If `escapes_gfw`, its own
    /// answer is the legitimate one (the on-path injector still forges
    /// a first answer — producing the forged-then-legit double response
    /// the paper measured for 2.4% of Chinese resolvers).
    GfwPoisoned {
        /// Censored domain names.
        censored: Arc<BTreeSet<String>>,
        /// Whether this resolver's own answer is the genuine one.
        escapes_gfw: bool,
    },
    /// Redirects NXDOMAIN to a search/ad page (DNS error monetization,
    /// Weaver et al.; Table 5's Search column).
    NxMonetizer {
        /// Monetization target addresses.
        search_ips: Vec<Ipv4Addr>,
    },
    /// Returns one static IP for every domain (4.4% of suspicious
    /// resolvers).
    StaticIp {
        /// The one answer it ever gives.
        ip: Ipv4Addr,
    },
    /// Returns its own address for every domain (8,194 resolvers —
    /// mostly CPE login pages and IP cameras).
    SelfIp,
    /// Redirects every domain to a LAN address (captive-portal style;
    /// up to 65.1% of no-HTTP tuples).
    LanRedirect {
        /// The RFC 1918 target.
        ip: Ipv4Addr,
    },
    /// REFUSED for everything.
    RefusedAll,
    /// SERVFAIL for everything.
    ServFailAll,
    /// NOERROR with empty answers for everything.
    EmptyAll,
    /// Returns only NS records (denies recursion in practice).
    NsOnly {
        /// The referral NS host.
        ns_host: String,
    },
    /// Never answers (scan non-responders; also used after shutdown).
    Dead,
    /// Sends its answers to `dst_port + 1` (the port-rewriting proxies
    /// that motivate the 0x20 redundancy, Sec. 3.3) — wraps another
    /// behaviour.
    PortRewriter {
        /// The behaviour whose answers get misdirected.
        inner: Box<ResolverBehavior>,
    },
    /// Protection service: blocks specific categories with a landing
    /// page, resolves the rest honestly (Table 5 "Blocking").
    Blocker {
        /// Blocked categories.
        categories: Vec<DomainCategory>,
        /// The provider's landing page.
        block_ip: Ipv4Addr,
    },
    /// Redirects ad-provider domains to an injector host (Sec. 4.3).
    AdRedirect {
        /// Redirected ad domains.
        targets: Arc<BTreeSet<String>>,
        /// The manipulation front-end.
        inject_ip: Ipv4Addr,
    },
    /// Redirects every domain to transparent proxy front-ends.
    ProxyAll {
        /// The proxy front-ends.
        proxy_ips: Vec<Ipv4Addr>,
    },
    /// Redirects specific domains to a phishing host.
    Phish {
        /// Impersonated domains.
        targets: Arc<BTreeSet<String>>,
        /// The phishing host.
        phish_ip: Ipv4Addr,
    },
    /// Redirects mail hostnames to eavesdropping mail servers.
    MailIntercept {
        /// Interception mail servers.
        mail_ips: Vec<Ipv4Addr>,
    },
    /// Redirects update/antivirus domains to a fake-update dropper host.
    MalwareRedirect {
        /// Redirected update domains.
        targets: Arc<BTreeSet<String>>,
        /// The fake-update dropper host.
        ip: Ipv4Addr,
    },
    /// Returns parking-provider IPs for specific (re-registered) domains.
    Parking {
        /// Re-registered domains.
        targets: Arc<BTreeSet<String>>,
        /// Parking landers (a boxed slice keeps the enum at 32 bytes).
        park_ips: Box<[Ipv4Addr]>,
    },
    /// Censorship layered over another behaviour: `censor` (which must
    /// be [`ResolverBehavior::Censor`] or [`ResolverBehavior::GfwPoisoned`])
    /// takes precedence for the domains it matches; everything else is
    /// answered by `fallback`. Models e.g. a Chinese NX-monetizer whose
    /// upstream is still poisoned by the Great Firewall.
    Layered {
        /// The censorship component (`Censor` / `GfwPoisoned`).
        censor: Box<ResolverBehavior>,
        /// Behaviour for everything uncensored.
        fallback: Box<ResolverBehavior>,
    },
}

impl ResolverBehavior {
    /// Compute the reply for an A query.
    pub fn answer(&self, ctx: &QueryCtx<'_>) -> Reply {
        match self {
            ResolverBehavior::Honest => Reply::single(ctx.honest()),
            ResolverBehavior::Censor { policy } => {
                match policy.landing_for(ctx.qname, ctx.category, ctx.salt) {
                    Some(ip) => Reply::single(Answer::Ips {
                        ips: vec![ip],
                        ttl: 300,
                    }),
                    None => Reply::single(ctx.honest()),
                }
            }
            ResolverBehavior::GfwPoisoned {
                censored,
                escapes_gfw,
            } => {
                if censored.contains(ctx.qname) {
                    if *escapes_gfw {
                        // The forged first answer is injected on-path by
                        // [`crate::gfw::GreatFirewall`]; this resolver's
                        // own answer is the real one, arriving later.
                        let mut reply = Reply::single(ctx.honest());
                        // A touch of host-side delay so the injected
                        // packet always wins the race.
                        reply = Reply {
                            primary: reply.primary,
                            secondary: None,
                        };
                        reply
                    } else {
                        Reply::single(Answer::Ips {
                            ips: vec![forged_ip(ctx.salt, ctx.qname)],
                            ttl: 60,
                        })
                    }
                } else {
                    Reply::single(ctx.honest())
                }
            }
            ResolverBehavior::NxMonetizer { search_ips } => match ctx.honest() {
                Answer::NxDomain => Reply::single(Answer::Ips {
                    ips: search_ips.clone(),
                    ttl: 300,
                }),
                other => Reply::single(other),
            },
            ResolverBehavior::StaticIp { ip } => Reply::single(Answer::Ips {
                ips: vec![*ip],
                ttl: 3600,
            }),
            ResolverBehavior::SelfIp => Reply::single(Answer::Ips {
                ips: vec![ctx.self_ip],
                ttl: 3600,
            }),
            ResolverBehavior::LanRedirect { ip } => Reply::single(Answer::Ips {
                ips: vec![*ip],
                ttl: 60,
            }),
            ResolverBehavior::RefusedAll => Reply::single(Answer::Refused),
            ResolverBehavior::ServFailAll => Reply::single(Answer::ServFail),
            ResolverBehavior::EmptyAll => Reply::single(Answer::Empty),
            ResolverBehavior::NsOnly { ns_host } => Reply::single(Answer::NsOnly {
                ns_host: ns_host.clone(),
                ttl: 3600,
            }),
            ResolverBehavior::Dead => Reply::single(Answer::Silent),
            ResolverBehavior::PortRewriter { inner } => inner.answer(ctx),
            ResolverBehavior::Blocker {
                categories,
                block_ip,
            } => {
                if ctx
                    .category
                    .map(|c| categories.contains(&c))
                    .unwrap_or(false)
                {
                    Reply::single(Answer::Ips {
                        ips: vec![*block_ip],
                        ttl: 300,
                    })
                } else {
                    Reply::single(ctx.honest())
                }
            }
            ResolverBehavior::AdRedirect { targets, inject_ip } => {
                if targets.contains(ctx.qname) {
                    Reply::single(Answer::Ips {
                        ips: vec![*inject_ip],
                        ttl: 300,
                    })
                } else {
                    Reply::single(ctx.honest())
                }
            }
            ResolverBehavior::ProxyAll { proxy_ips } => {
                let idx = (ctx.salt as usize) % proxy_ips.len().max(1);
                match ctx.honest() {
                    // Proxy even NX domains: the proxy serves an error.
                    _ if proxy_ips.is_empty() => Reply::single(Answer::Empty),
                    _ => Reply::single(Answer::Ips {
                        ips: vec![proxy_ips[idx]],
                        ttl: 120,
                    }),
                }
            }
            ResolverBehavior::Phish { targets, phish_ip } => {
                if targets.contains(ctx.qname) {
                    Reply::single(Answer::Ips {
                        ips: vec![*phish_ip],
                        ttl: 300,
                    })
                } else {
                    Reply::single(ctx.honest())
                }
            }
            ResolverBehavior::MailIntercept { mail_ips } => {
                let is_mail = ctx
                    .universe
                    .record(ctx.qname)
                    .map(|r| r.is_mail_host)
                    .unwrap_or(false);
                if is_mail && !mail_ips.is_empty() {
                    let idx = (ctx.salt as usize) % mail_ips.len();
                    Reply::single(Answer::Ips {
                        ips: vec![mail_ips[idx]],
                        ttl: 300,
                    })
                } else {
                    Reply::single(ctx.honest())
                }
            }
            ResolverBehavior::MalwareRedirect { targets, ip } => {
                if targets.contains(ctx.qname) {
                    Reply::single(Answer::Ips {
                        ips: vec![*ip],
                        ttl: 300,
                    })
                } else {
                    Reply::single(ctx.honest())
                }
            }
            ResolverBehavior::Parking { targets, park_ips } => {
                if targets.contains(ctx.qname) && !park_ips.is_empty() {
                    let idx = (ctx.salt as usize) % park_ips.len();
                    Reply::single(Answer::Ips {
                        ips: vec![park_ips[idx]],
                        ttl: 600,
                    })
                } else {
                    Reply::single(ctx.honest())
                }
            }
            ResolverBehavior::Layered { censor, fallback } => {
                if censor.censors(ctx) {
                    censor.answer(ctx)
                } else {
                    fallback.answer(ctx)
                }
            }
        }
    }

    /// Whether this behaviour's censorship component matches the queried
    /// domain (only meaningful for `Censor` / `GfwPoisoned`).
    pub fn censors(&self, ctx: &QueryCtx<'_>) -> bool {
        match self {
            ResolverBehavior::Censor { policy } => policy
                .landing_for(ctx.qname, ctx.category, ctx.salt)
                .is_some(),
            ResolverBehavior::GfwPoisoned { censored, .. } => censored.contains(ctx.qname),
            ResolverBehavior::Layered { censor, .. } => censor.censors(ctx),
            _ => false,
        }
    }

    /// Whether responses should be sent to `dst_port + 1` instead of the
    /// query's source port.
    pub fn rewrites_port(&self) -> bool {
        matches!(self, ResolverBehavior::PortRewriter { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{DomainKind, DomainRecord};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn universe() -> DnsUniverse {
        let mut u = DnsUniverse::new();
        u.add_domain(DomainRecord {
            name: "facebook.example".into(),
            category: DomainCategory::Alexa,
            kind: DomainKind::Fixed(vec![ip("198.51.100.7")]),
            ttl: 300,
            is_mail_host: false,
        });
        u.add_domain(DomainRecord {
            name: "smtp.gmail.example".into(),
            category: DomainCategory::Mx,
            kind: DomainKind::Fixed(vec![ip("198.51.100.25")]),
            ttl: 300,
            is_mail_host: true,
        });
        u.add_domain(DomainRecord {
            name: "youporn.example".into(),
            category: DomainCategory::Adult,
            kind: DomainKind::Fixed(vec![ip("198.51.100.99")]),
            ttl: 300,
            is_mail_host: false,
        });
        u
    }

    fn ctx<'a>(u: &'a DnsUniverse, qname: &'a str) -> QueryCtx<'a> {
        QueryCtx {
            universe: u,
            qname,
            category: u.record(qname).map(|r| r.category),
            region: Rir::Ripe,
            salt: 7,
            self_ip: ip("5.5.5.5"),
        }
    }

    #[test]
    fn honest_resolves_and_nx() {
        let u = universe();
        let b = ResolverBehavior::Honest;
        assert_eq!(
            b.answer(&ctx(&u, "facebook.example")).primary,
            Answer::Ips {
                ips: vec![ip("198.51.100.7")],
                ttl: 300
            }
        );
        assert_eq!(b.answer(&ctx(&u, "nope.example")).primary, Answer::NxDomain);
    }

    #[test]
    fn censor_matches_category_and_domain() {
        let u = universe();
        let policy = Arc::new(CensorPolicy {
            country: Country::new("TR"),
            rules: vec![CensorRule {
                categories: vec![DomainCategory::Adult],
                domains: vec!["facebook.example".into()],
                landing_ips: vec![ip("203.0.113.80"), ip("203.0.113.81")],
            }],
            compliance: 0.9,
        });
        let b = ResolverBehavior::Censor { policy };
        let a1 = b.answer(&ctx(&u, "youporn.example")).primary;
        let a2 = b.answer(&ctx(&u, "facebook.example")).primary;
        for a in [&a1, &a2] {
            let Answer::Ips { ips, .. } = a else { panic!() };
            assert!(u32::from(ips[0]) >= u32::from(ip("203.0.113.80")));
        }
        // Uncensored domain resolves honestly.
        assert_eq!(
            b.answer(&ctx(&u, "smtp.gmail.example")).primary,
            Answer::Ips {
                ips: vec![ip("198.51.100.25")],
                ttl: 300
            }
        );
    }

    #[test]
    fn gfw_poisoned_forges_censored_only() {
        let u = universe();
        let censored: Arc<BTreeSet<String>> =
            Arc::new(["facebook.example".to_string()].into_iter().collect());
        let b = ResolverBehavior::GfwPoisoned {
            censored: censored.clone(),
            escapes_gfw: false,
        };
        let forged = b.answer(&ctx(&u, "facebook.example")).primary;
        let Answer::Ips { ips, .. } = &forged else {
            panic!()
        };
        assert_ne!(ips[0], ip("198.51.100.7"), "must be forged");
        // Deterministic per salt+domain.
        assert_eq!(b.answer(&ctx(&u, "facebook.example")).primary, forged);
        // Escaping resolver answers honestly.
        let esc = ResolverBehavior::GfwPoisoned {
            censored,
            escapes_gfw: true,
        };
        assert_eq!(
            esc.answer(&ctx(&u, "facebook.example")).primary,
            Answer::Ips {
                ips: vec![ip("198.51.100.7")],
                ttl: 300
            }
        );
    }

    #[test]
    fn nx_monetizer_only_rewrites_nx() {
        let u = universe();
        let b = ResolverBehavior::NxMonetizer {
            search_ips: vec![ip("203.0.113.200")],
        };
        assert_eq!(
            b.answer(&ctx(&u, "doesnotexist.example")).primary,
            Answer::Ips {
                ips: vec![ip("203.0.113.200")],
                ttl: 300
            }
        );
        assert_eq!(
            b.answer(&ctx(&u, "facebook.example")).primary,
            Answer::Ips {
                ips: vec![ip("198.51.100.7")],
                ttl: 300
            }
        );
    }

    #[test]
    fn static_self_and_lan() {
        let u = universe();
        assert_eq!(
            ResolverBehavior::StaticIp { ip: ip("1.1.1.1") }
                .answer(&ctx(&u, "facebook.example"))
                .primary,
            Answer::Ips {
                ips: vec![ip("1.1.1.1")],
                ttl: 3600
            }
        );
        assert_eq!(
            ResolverBehavior::SelfIp
                .answer(&ctx(&u, "anything.example"))
                .primary,
            Answer::Ips {
                ips: vec![ip("5.5.5.5")],
                ttl: 3600
            }
        );
        assert_eq!(
            ResolverBehavior::LanRedirect {
                ip: ip("192.168.1.1")
            }
            .answer(&ctx(&u, "facebook.example"))
            .primary,
            Answer::Ips {
                ips: vec![ip("192.168.1.1")],
                ttl: 60
            }
        );
    }

    #[test]
    fn error_behaviours() {
        let u = universe();
        let c = ctx(&u, "facebook.example");
        assert_eq!(
            ResolverBehavior::RefusedAll.answer(&c).primary,
            Answer::Refused
        );
        assert_eq!(
            ResolverBehavior::ServFailAll.answer(&c).primary,
            Answer::ServFail
        );
        assert_eq!(ResolverBehavior::EmptyAll.answer(&c).primary, Answer::Empty);
        assert_eq!(ResolverBehavior::Dead.answer(&c).primary, Answer::Silent);
        assert!(matches!(
            ResolverBehavior::NsOnly {
                ns_host: "ns.x".into()
            }
            .answer(&c)
            .primary,
            Answer::NsOnly { .. }
        ));
    }

    #[test]
    fn mail_intercept_targets_mail_hosts_only() {
        let u = universe();
        let b = ResolverBehavior::MailIntercept {
            mail_ips: vec![ip("203.0.113.25")],
        };
        assert_eq!(
            b.answer(&ctx(&u, "smtp.gmail.example")).primary,
            Answer::Ips {
                ips: vec![ip("203.0.113.25")],
                ttl: 300
            }
        );
        assert_eq!(
            b.answer(&ctx(&u, "facebook.example")).primary,
            Answer::Ips {
                ips: vec![ip("198.51.100.7")],
                ttl: 300
            }
        );
    }

    #[test]
    fn proxy_all_covers_everything() {
        let u = universe();
        let b = ResolverBehavior::ProxyAll {
            proxy_ips: vec![ip("203.0.113.180")],
        };
        for q in ["facebook.example", "smtp.gmail.example", "whatever.example"] {
            assert_eq!(
                b.answer(&ctx(&u, q)).primary,
                Answer::Ips {
                    ips: vec![ip("203.0.113.180")],
                    ttl: 120
                },
                "{q}"
            );
        }
    }

    #[test]
    fn port_rewriter_delegates() {
        let u = universe();
        let b = ResolverBehavior::PortRewriter {
            inner: Box::new(ResolverBehavior::Honest),
        };
        assert!(b.rewrites_port());
        assert_eq!(
            b.answer(&ctx(&u, "facebook.example")).primary,
            Answer::Ips {
                ips: vec![ip("198.51.100.7")],
                ttl: 300
            }
        );
    }

    #[test]
    fn forged_ip_outside_reserved_space() {
        for salt in 0..200u64 {
            let f = forged_ip(salt, "facebook.example");
            assert!(!geodb::is_reserved(f), "{f}");
        }
    }
}
