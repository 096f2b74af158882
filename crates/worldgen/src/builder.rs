//! World assembly: expand a [`WorldConfig`] into a populated [`World`].

use crate::catalog::DomainCatalog;
use crate::plan::*;
use crate::world::{InfraIndex, ResolverMeta, ResponseClass, World, WorldStats};
use geodb::{AsInfo, Country, GeoDb, IpRangeMap, RdnsDb, RdnsPattern, Rir};
use netsim::{ChurnConfig, FilterDirection, HostId, LeasePool, Network, NetworkConfig, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolversim::software::{
    ChaosErrorKind, CUSTOM_STRINGS, PAPER_CHAOS_MIX, TABLE3_SOFTWARE, TAIL_SOFTWARE,
};
use resolversim::universe::TldInfo;
use resolversim::webhost::{AdMode, MailBanners};
use resolversim::{
    Alive, CacheProfile, CensorPolicy, CensorRule, ChaosPolicy, DeviceClass, DeviceOs,
    DeviceProfile, DnsUniverse, DomainCategory, DomainKind, DomainRecord, ForwarderHost,
    GreatFirewall, ResolverBehavior, ResolverHost, SoftwareProfile, TldCacheSim, WebHost, WebRole,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Address-block allocator over non-reserved space, skipping the
/// measurement /8s.
struct Allocator {
    next: u32,
    allocated: Vec<(Ipv4Addr, Ipv4Addr)>,
}

/// The two measurement /8s (primary and verification vantage).
const SCANNER_SLASH8: (u32, u32) = (0x62_00_00_00, 0x62_FF_FF_FF); // 98.0.0.0/8
const SCANNER2_SLASH8: (u32, u32) = (0x63_00_00_00, 0x63_FF_FF_FF); // 99.0.0.0/8

impl Allocator {
    fn new() -> Self {
        Allocator {
            next: 0x0B00_0000, // 11.0.0.0
            allocated: Vec::new(),
        }
    }

    fn skip_conflicts(&mut self, size: u32) {
        loop {
            let start = self.next;
            let end = start.saturating_add(size - 1);
            let conflict = geodb::RESERVED_RANGES
                .iter()
                .chain([&SCANNER_SLASH8, &SCANNER2_SLASH8])
                .find(|&&(lo, hi)| start <= hi && end >= lo);
            match conflict {
                Some(&(_, hi)) => self.next = hi + 1,
                None => break,
            }
        }
    }

    /// Allocate a contiguous block of `size` addresses.
    fn block(&mut self, size: u32) -> (Ipv4Addr, Ipv4Addr) {
        assert!(size > 0);
        self.skip_conflicts(size);
        let start = self.next;
        let end = start + size - 1;
        self.next = end + 1;
        let range = (Ipv4Addr::from(start), Ipv4Addr::from(end));
        self.allocated.push(range);
        range
    }

    /// Allocate a single address.
    fn one(&mut self) -> Ipv4Addr {
        self.block(1).0
    }
}

/// Every address of an allocated block, in order.
fn addresses(block: (Ipv4Addr, Ipv4Addr)) -> impl Iterator<Item = Ipv4Addr> {
    (u32::from(block.0)..=u32::from(block.1)).map(Ipv4Addr::from)
}

/// Deterministic sub-seed derivation.
fn subseed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e3779b97f4a7c15);
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51afd7ed558ccd);
    z ^ (z >> 33)
}

/// A shared software profile and its Table 3 key.
type SharedProfile = (Arc<SoftwareProfile>, Arc<str>);

/// One world's distinct software profiles: each is built once and
/// shared by every resolver that runs it.
type ProfileTable = HashMap<(&'static str, &'static str, ChaosPolicy), SharedProfile>;

fn shared_profile(
    table: &mut ProfileTable,
    family: &'static str,
    version: &'static str,
    chaos: ChaosPolicy,
) -> SharedProfile {
    let entry = table.entry((family, version, chaos));
    let shared = entry.or_insert_with_key(|(family, version, chaos)| {
        let profile = SoftwareProfile::new(family, version, chaos.clone());
        let key = profile.table_key().into();
        (Arc::new(profile), key)
    });
    shared.clone()
}

/// Build the world. Pure function of `cfg`.
pub fn build_world(cfg: WorldConfig) -> World {
    let mut sp = telemetry::span("worldgen.build", 0);
    sp.attr("seed", cfg.seed);
    sp.attr("scale", cfg.scale);
    let catalog = DomainCatalog::standard();
    let mut net = Network::new(NetworkConfig {
        seed: subseed(cfg.seed, 2),
        udp_loss: cfg.udp_loss,
        latency_ms: (8, 120),
        tcp_loss: 0.002,
    });
    let mut alloc = Allocator::new();
    let mut universe = DnsUniverse::new();
    let mut infra = InfraIndex::default();
    let mut geo_builder = IpRangeMap::<geodb::NetBlock>::builder();
    let mut rdns_builder = IpRangeMap::<RdnsPattern>::builder();
    let mut rdns_overrides: Vec<(Ipv4Addr, String)> = Vec::new();
    let mut ases: Vec<AsInfo> = Vec::new();
    let mut next_asn = 1000u32;
    let mut web_hosts = 0usize;

    // ---- TLDs for cache snooping (Sec. 2.6's 15 TLDs) ----
    let tlds = [
        "br", "cn", "co.uk", "com", "de", "fr", "in", "info", "it", "jp", "net", "nl", "org", "pl",
        "ru",
    ];
    universe.set_tlds(
        tlds.iter()
            .map(|t| TldInfo {
                name: t.to_string(),
                ns_host: format!("a.nic.{t}"),
                ttl: 3600 + (subseed(cfg.seed, t.len() as u64) % 7200) as u32,
            })
            .collect(),
    );

    // =================================================================
    // Infrastructure: hosting, CDN, mail, special-purpose hosts.
    // =================================================================

    // A hosting AS (US) for origin servers and the measurement AuthNS.
    let hosting_asn = next_asn;
    next_asn += 10;
    ases.push(AsInfo {
        asn: hosting_asn,
        name: "US-HOSTCO".into(),
        country: Country::new("US"),
        broadband: false,
    });
    let hosting_block = alloc.block(2048);
    geo_builder
        .insert(
            hosting_block.0,
            hosting_block.1,
            geodb::NetBlock {
                country: Country::new("US"),
                asn: hosting_asn,
                rdns: Some(RdnsPattern::static_host("hostco.example")),
            },
        )
        .expect("hosting block");
    let mut hosting_ips = addresses(hosting_block);
    let mut next_hosting_ip = move || hosting_ips.next().expect("hosting space exhausted");

    // Measurement AuthNS (answers the scan zone and the GT domain).
    let authns_ip = next_hosting_ip();
    infra.authns_ip = authns_ip;
    universe.add_wildcard(&catalog.scan_zone, vec![authns_ip], 5);

    // Ground-truth domain: ordinary site on hosting.
    let gt_ip = next_hosting_ip();
    {
        let host = net.add_host(Box::new(WebHost::new(
            WebRole::LegitSite {
                domain: catalog.ground_truth.clone(),
                category: DomainCategory::GroundTruth,
            },
            subseed(cfg.seed, 3),
        )));
        net.bind_ip(gt_ip, host);
        web_hosts += 1;
        universe.add_domain(DomainRecord {
            name: catalog.ground_truth.clone(),
            category: DomainCategory::GroundTruth,
            kind: DomainKind::Fixed(vec![gt_ip]),
            ttl: 300,
            is_mail_host: false,
        });
        rdns_overrides.push((gt_ip, catalog.ground_truth.clone()));
        infra
            .legit_ips
            .insert(catalog.ground_truth.clone(), vec![gt_ip]);
    }

    // ---- CDN providers ----
    // Two providers, edges in five regions; SNI-less requests present
    // the provider default certificate (whitelisted by the prefilter).
    let cdn_domains: Vec<(String, DomainCategory)> = catalog
        .domains
        .iter()
        .filter(|d| d.cdn)
        .map(|d| (d.name.clone(), d.category))
        .collect();
    let providers = ["cdnone", "cdntwo"];
    let mut cdn_pools: BTreeMap<(usize, Rir), Vec<Ipv4Addr>> = BTreeMap::new();
    for (pi, provider) in providers.iter().enumerate() {
        infra
            .cdn_default_cns
            .push(format!("edge.{provider}.example"));
        let hosted: Arc<Vec<(String, DomainCategory)>> = Arc::new(
            cdn_domains
                .iter()
                .filter(|(name, _)| cdn_provider_of(name, providers.len()) == pi)
                .cloned()
                .collect(),
        );
        for (region, cc) in [
            (Rir::Arin, "US"),
            (Rir::Ripe, "DE"),
            (Rir::Apnic, "JP"),
            (Rir::Lacnic, "BR"),
            (Rir::Afrinic, "ZA"),
        ] {
            let edge_asn = next_asn;
            next_asn += 1;
            ases.push(AsInfo {
                asn: edge_asn,
                name: format!("{}-{}", provider.to_uppercase(), region.name()),
                country: Country::new(cc),
                broadband: false,
            });
            let block = alloc.block(8);
            geo_builder
                .insert(
                    block.0,
                    block.1,
                    geodb::NetBlock {
                        country: Country::new(cc),
                        asn: edge_asn,
                        rdns: Some(RdnsPattern::Fixed {
                            name: format!("edge.{provider}.example"),
                        }),
                    },
                )
                .expect("cdn block");
            let ips: Vec<Ipv4Addr> = addresses(block).take(3).collect();
            for (k, &ip) in ips.iter().enumerate() {
                // One edge kept disabled to model outdated CDN IPs.
                let role = if k == 2 && region == Rir::Afrinic && pi == 1 {
                    WebRole::DisabledEdge
                } else {
                    WebRole::CdnEdge {
                        provider: provider.to_string(),
                        hosted: hosted.clone(),
                    }
                };
                let host = net.add_host(Box::new(WebHost::new(
                    role,
                    subseed(cfg.seed, 50 + ip_hash(ip)),
                )));
                net.bind_ip(ip, host);
                web_hosts += 1;
            }
            cdn_pools.insert((pi, region), ips);
        }
    }

    // ---- Mail providers ----
    let mail_providers = ["gmail", "outlook", "yahoo", "yandex", "aim", "mailme"];
    let mut provider_mail_ips: BTreeMap<&str, Vec<Ipv4Addr>> = BTreeMap::new();
    for p in mail_providers {
        let mut ips = Vec::new();
        for _ in 0..2 {
            let ip = next_hosting_ip();
            let host = net.add_host(Box::new(WebHost::new(
                WebRole::MailServer {
                    banners: MailBanners::provider(&format!("{p}.example")),
                },
                subseed(cfg.seed, 60 + ip_hash(ip)),
            )));
            net.bind_ip(ip, host);
            web_hosts += 1;
            rdns_overrides.push((ip, format!("mx.{p}.example")));
            ips.push(ip);
        }
        infra.mail_legit_ips.insert(p.to_string(), ips.clone());
        provider_mail_ips.insert(p, ips);
    }

    // ---- Catalog domains: origins and records ----
    for d in &catalog.domains {
        if !d.exists {
            universe.add_domain(DomainRecord {
                name: d.name.clone(),
                category: d.category,
                kind: DomainKind::NonExistent,
                ttl: 0,
                is_mail_host: false,
            });
            continue;
        }
        if d.is_mail_host {
            // mail hostnames point at their provider's mail IPs.
            let provider = mail_providers
                .iter()
                .find(|p| d.name.contains(&format!(".{p}.")))
                .copied()
                .unwrap_or("gmail");
            let ips = provider_mail_ips[provider].clone();
            universe.add_domain(DomainRecord {
                name: d.name.clone(),
                category: d.category,
                kind: DomainKind::Fixed(ips.clone()),
                ttl: 300,
                is_mail_host: true,
            });
            infra.legit_ips.insert(d.name.clone(), ips);
            continue;
        }
        if d.cdn {
            let pi = cdn_provider_of(&d.name, providers.len());
            let pools: Vec<(Rir, Vec<Ipv4Addr>)> =
                [Rir::Arin, Rir::Ripe, Rir::Apnic, Rir::Lacnic, Rir::Afrinic]
                    .iter()
                    .map(|r| (*r, cdn_pools[&(pi, *r)].clone()))
                    .collect();
            let all: Vec<Ipv4Addr> = pools.iter().flat_map(|(_, v)| v.iter().copied()).collect();
            universe.add_domain(DomainRecord {
                name: d.name.clone(),
                category: d.category,
                kind: DomainKind::Cdn { pools },
                ttl: 60,
                is_mail_host: false,
            });
            infra.legit_ips.insert(d.name.clone(), all);
            continue;
        }
        // Plain origin on hosting: 1–2 addresses.
        let mut ips = vec![next_hosting_ip()];
        if domain_hash(&d.name).is_multiple_of(3) {
            ips.push(next_hosting_ip());
        }
        let host = net.add_host(Box::new(WebHost::new(
            WebRole::LegitSite {
                domain: d.name.clone(),
                category: d.category,
            },
            subseed(cfg.seed, 70 + domain_hash(&d.name)),
        )));
        for &ip in &ips {
            net.bind_ip(ip, host);
            rdns_overrides.push((ip, d.name.clone()));
        }
        web_hosts += 1;
        universe.add_domain(DomainRecord {
            name: d.name.clone(),
            category: d.category,
            kind: DomainKind::Fixed(ips.clone()),
            ttl: 300,
            is_mail_host: false,
        });
        infra.legit_ips.insert(d.name.clone(), ips);
    }

    // ---- Special-purpose host groups ----
    let spawn_group = |net: &mut Network,
                       alloc: &mut Allocator,
                       count: usize,
                       mut role_for: Box<dyn FnMut(usize) -> WebRole>,
                       seed_tag: u64|
     -> Vec<Ipv4Addr> {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let ip = alloc.one();
            let host = net.add_host(Box::new(WebHost::new(
                role_for(i),
                subseed(cfg.seed, seed_tag + i as u64),
            )));
            net.bind_ip(ip, host);
            out.push(ip);
        }
        out
    };

    // Error hosts.
    infra.error_ips = spawn_group(
        &mut net,
        &mut alloc,
        8,
        Box::new(|i| WebRole::ErrorHost {
            status: [404u16, 404, 500, 502, 403, 503, 404, 400][i % 8],
        }),
        100,
    );
    web_hosts += infra.error_ips.len();

    // Parking landers (two providers).
    infra.parking_ips = spawn_group(
        &mut net,
        &mut alloc,
        8,
        Box::new(|i| WebRole::Parking {
            provider: if i % 2 == 0 {
                "parkco".into()
            } else {
                "domainlot".into()
            },
        }),
        120,
    );
    web_hosts += infra.parking_ips.len();

    // Search pages.
    infra.search_ips = spawn_group(
        &mut net,
        &mut alloc,
        4,
        Box::new(|i| WebRole::Search {
            engine: if i % 2 == 0 {
                "Finder".into()
            } else {
                "Lookup".into()
            },
            mimicry: false,
        }),
        140,
    );
    web_hosts += infra.search_ips.len();

    // Captive portals.
    infra.portal_ips = spawn_group(
        &mut net,
        &mut alloc,
        5,
        Box::new(|i| WebRole::CaptivePortal {
            operator: [
                "MetroWifi",
                "HotelNet",
                "CampusLan",
                "AirportFree",
                "CafeSpot",
            ][i % 5]
                .into(),
        }),
        160,
    );
    web_hosts += infra.portal_ips.len();

    // Generic block pages (protection providers).
    infra.blockpage_ips = spawn_group(
        &mut net,
        &mut alloc,
        4,
        Box::new(|i| WebRole::BlockPage {
            operator: if i % 2 == 0 {
                "SafeGuardDNS".into()
            } else {
                "FamilyShield".into()
            },
            reason: if i % 2 == 0 {
                "the site distributes malware".into()
            } else {
                "parental control policy".into()
            },
        }),
        180,
    );
    web_hosts += infra.blockpage_ips.len();

    // Misc ordinary sites (personal/shopping — the unlabeled remainder).
    infra.misc_site_ips = spawn_group(
        &mut net,
        &mut alloc,
        6,
        Box::new(|i| WebRole::LegitSite {
            domain: format!("miscsite{i}.example"),
            category: DomainCategory::Misc,
        }),
        200,
    );
    web_hosts += infra.misc_site_ips.len();

    // Transparent proxies: 10 TLS + 10 HTTP-only (Sec. 4.3).
    // They need the universe; give them a placeholder and patch after
    // the universe is frozen — instead, build them after resolvers.
    // (handled below)

    // Ad manipulation hosts: 2 banner + 2 script + 7 blank + 2 fake-search.
    infra.ad_banner_ips = spawn_group(
        &mut net,
        &mut alloc,
        2,
        Box::new(|_| WebRole::AdManipulator {
            mode: AdMode::InjectBanner,
        }),
        220,
    );
    infra.ad_script_ips = spawn_group(
        &mut net,
        &mut alloc,
        2,
        Box::new(|_| WebRole::AdManipulator {
            mode: AdMode::InjectScript,
        }),
        230,
    );
    infra.ad_blank_ips = spawn_group(
        &mut net,
        &mut alloc,
        7,
        Box::new(|_| WebRole::AdManipulator {
            mode: AdMode::Blank,
        }),
        240,
    );
    infra.ad_fake_search_ips = spawn_group(
        &mut net,
        &mut alloc,
        2,
        Box::new(|_| WebRole::AdManipulator {
            mode: AdMode::FakeSearch,
        }),
        250,
    );
    web_hosts += 13;

    // Phishing hosts: 16 PayPal (3 with self-signed TLS), 1 BR + 1 RU
    // bank clones, and misc clones of other banking targets (39 total).
    let mut phish_roles: Vec<WebRole> = Vec::new();
    for i in 0..16 {
        phish_roles.push(WebRole::PhishKit {
            target: "paypal.example".into(),
            tls_self_signed: i < 3,
            bank_clone: false,
        });
    }
    phish_roles.push(WebRole::PhishKit {
        target: "bancaditalia.example".into(),
        tls_self_signed: false,
        bank_clone: true,
    });
    phish_roles.push(WebRole::PhishKit {
        target: "bancaditalia.example".into(),
        tls_self_signed: false,
        bank_clone: true,
    });
    let misc_targets = [
        "chasebank.example",
        "hsbcbank.example",
        "alipay.example",
        "ebaypay.example",
        "wellsbank.example",
    ];
    for i in 0..21 {
        phish_roles.push(WebRole::PhishKit {
            target: misc_targets[i % misc_targets.len()].into(),
            tls_self_signed: false,
            bank_clone: i % 2 == 0,
        });
    }
    let phish_count = phish_roles.len();
    infra.phish_ips = spawn_group(
        &mut net,
        &mut alloc,
        phish_count,
        Box::new(move |i| phish_roles[i].clone()),
        260,
    );
    web_hosts += phish_count;

    // Mail interception hosts (~1,135 at paper scale) + banner clones.
    let intercept_count = cfg.scaled_min(1_135, 4) as usize;
    infra.mail_intercept_ips = spawn_group(
        &mut net,
        &mut alloc,
        intercept_count,
        Box::new(|i| WebRole::MailServer {
            banners: MailBanners {
                smtp: format!("220 mail-relay-{i} ESMTP"),
                imap: format!("* OK relay-{i} IMAP4rev1 ready"),
                pop3: format!("+OK relay-{i} POP3"),
            },
        }),
        300,
    );
    web_hosts += intercept_count;
    infra.mail_clone_ips = spawn_group(
        &mut net,
        &mut alloc,
        2,
        Box::new(|i| WebRole::MailServer {
            banners: MailBanners::provider(if i == 0 {
                "gmail.example"
            } else {
                "yandex.example"
            }),
        }),
        320,
    );
    web_hosts += 2;

    // Fake-update (malware dropper) hosts: 30.
    infra.malware_update_ips = spawn_group(
        &mut net,
        &mut alloc,
        30,
        Box::new(|i| WebRole::FakeUpdate {
            product: if i % 2 == 0 {
                "Flash".into()
            } else {
                "Java".into()
            },
        }),
        340,
    );
    web_hosts += 30;

    // ---- Censorship landing pages (33 landing-page countries) ----
    for plan in CENSOR_PLANS {
        if plan.landing_ips == 0 {
            continue;
        }
        let cc = Country::new(plan.code);
        let gov_asn = next_asn;
        next_asn += 1;
        ases.push(AsInfo {
            asn: gov_asn,
            name: format!("{}-GOVNET", plan.code),
            country: cc,
            broadband: false,
        });
        let block = alloc.block(plan.landing_ips.max(1));
        geo_builder
            .insert(
                block.0,
                block.1,
                geodb::NetBlock {
                    country: cc,
                    asn: gov_asn,
                    rdns: None,
                },
            )
            .expect("gov block");
        let country_name = country_display(plan.code);
        let mut ips = Vec::new();
        for ip in addresses(block) {
            let host = net.add_host(Box::new(WebHost::new(
                WebRole::CensorLanding {
                    country: country_name.to_string(),
                    authority: "national telecommunications authority".into(),
                },
                subseed(cfg.seed, 400 + ip_hash(ip)),
            )));
            net.bind_ip(ip, host);
            web_hosts += 1;
            ips.push(ip);
        }
        infra.landing_ips.insert(plan.code.to_string(), ips);
    }
    // Estonia uses Russia's landing pages (Sec. 6 confirmation).
    if let Some(ru) = infra.landing_ips.get("RU").cloned() {
        infra.landing_ips.insert("EE".to_string(), ru);
    }

    // DNSSEC: sparse deployment as of 2015 (<0.6% of .net, Sec. 5).
    // The measurement zone and a couple of high-value targets sign.
    universe.sign_domain(&catalog.ground_truth);
    universe.sign_domain("paypal.example");
    universe.sign_domain("oauth.google.example");

    // Freeze the universe: proxies and resolvers share it read-only.
    let universe = Arc::new(universe);

    // Transparent proxies (need the frozen universe).
    for i in 0..10usize {
        let ip = alloc.one();
        let host = net.add_host(Box::new(WebHost::new(
            WebRole::TransparentProxy {
                universe: universe.clone(),
                tls: true,
            },
            subseed(cfg.seed, 500 + i as u64),
        )));
        net.bind_ip(ip, host);
        infra.proxy_tls_ips.push(ip);
    }
    for i in 0..10usize {
        let ip = alloc.one();
        let host = net.add_host(Box::new(WebHost::new(
            WebRole::TransparentProxy {
                universe: universe.clone(),
                tls: false,
            },
            subseed(cfg.seed, 520 + i as u64),
        )));
        net.bind_ip(ip, host);
        infra.proxy_http_ips.push(ip);
    }
    web_hosts += 20;

    // =================================================================
    // Resolver population.
    // =================================================================

    let censored_social: Arc<BTreeSet<String>> = Arc::new(
        catalog
            .social_media()
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );

    // Precompute censor policies.
    let mut censor_policies: BTreeMap<&str, Arc<CensorPolicy>> = BTreeMap::new();
    for plan in CENSOR_PLANS {
        if plan.code == "CN" {
            continue; // handled by the GFW + GfwPoisoned behaviour
        }
        let landing = infra
            .landing_ips
            .get(plan.code)
            .cloned()
            .unwrap_or_default();
        if landing.is_empty() {
            continue;
        }
        let mut categories = Vec::new();
        if plan.adult {
            categories.push(DomainCategory::Adult);
        }
        if plan.gambling {
            categories.push(DomainCategory::Gambling);
        }
        if plan.dating {
            categories.push(DomainCategory::Dating);
        }
        if plan.filesharing {
            categories.push(DomainCategory::Filesharing);
        }
        let mut domains: Vec<String> = plan.extra_domains.iter().map(|s| s.to_string()).collect();
        if plan.social {
            domains.extend(catalog.social_media().iter().map(|s| s.to_string()));
        }
        censor_policies.insert(
            plan.code,
            Arc::new(CensorPolicy {
                country: Country::new(plan.code),
                rules: vec![CensorRule {
                    categories,
                    domains,
                    landing_ips: landing,
                }],
                compliance: plan.compliance,
            }),
        );
    }

    // Behaviour target sets shared across resolvers.
    let ad_targets: Arc<BTreeSet<String>> = Arc::new(
        ["adnet-one.example", "adnet-two.example"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    let fake_search_targets: Arc<BTreeSet<String>> =
        Arc::new(["google.example".to_string()].into_iter().collect());
    let parking_stale_targets: Arc<BTreeSet<String>> = Arc::new(
        ["cn-dropzone.example", "cn-cmdhost.example"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    let parking_tor_targets: Arc<BTreeSet<String>> =
        Arc::new(["torproject.example".to_string()].into_iter().collect());
    let malware_search_targets: Arc<BTreeSet<String>> = Arc::new(
        [
            "botcnc1.example",
            "botcnc2.example",
            "exploitkit.example",
            "spamgate.example",
            "dgaseed.example",
            "wormrelay.example",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let malware_update_targets: Arc<BTreeSet<String>> = Arc::new(
        [
            "update.adobe.example",
            "update.java.example",
            "update.flashplayer.example",
            "update.avvendor01.example",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let paypal_targets: Arc<BTreeSet<String>> =
        Arc::new(["paypal.example".to_string()].into_iter().collect());
    let bank_targets: Arc<BTreeSet<String>> =
        Arc::new(["bancaditalia.example".to_string()].into_iter().collect());

    // Case-study population budgets (scaled).
    let mut case_budget: Vec<(BehaviorKind, u64)> = vec![
        (
            BehaviorKind::SelfIp,
            cfg.scaled_min(CASE_STUDY_PLAN.self_ip_everywhere, 3),
        ),
        (
            BehaviorKind::AdInjectBanner,
            cfg.scaled_min(CASE_STUDY_PLAN.ad_redirect_resolvers / 2, 2),
        ),
        (
            BehaviorKind::AdInjectScript,
            cfg.scaled_min(CASE_STUDY_PLAN.ad_redirect_resolvers / 2, 2),
        ),
        (
            BehaviorKind::AdBlank,
            cfg.scaled_min(CASE_STUDY_PLAN.ad_blank_resolvers, 1),
        ),
        (
            BehaviorKind::AdFakeSearch,
            cfg.scaled_min(CASE_STUDY_PLAN.ad_fake_search_resolvers, 1),
        ),
        (
            BehaviorKind::ProxyTls,
            cfg.scaled_min(CASE_STUDY_PLAN.proxy_tls_resolvers, 2),
        ),
        (
            BehaviorKind::ProxyHttp,
            cfg.scaled_min(CASE_STUDY_PLAN.proxy_http_resolvers, 6),
        ),
        (
            BehaviorKind::PhishPaypal,
            cfg.scaled_min(CASE_STUDY_PLAN.phish_paypal_resolvers, 3),
        ),
        (
            BehaviorKind::PhishBankBr,
            cfg.scaled_min(CASE_STUDY_PLAN.phish_bank_br_resolvers, 2),
        ),
        (
            BehaviorKind::PhishBankRu,
            cfg.scaled_min(CASE_STUDY_PLAN.phish_bank_ru_resolvers, 1),
        ),
        (
            BehaviorKind::PhishMisc,
            cfg.scaled_min(CASE_STUDY_PLAN.phish_misc_resolvers, 2),
        ),
        (
            BehaviorKind::MailClone,
            cfg.scaled_min(CASE_STUDY_PLAN.mail_clone_resolvers, 1),
        ),
        (
            BehaviorKind::MalwareUpdate,
            cfg.scaled_min(CASE_STUDY_PLAN.malware_update_resolvers, 2),
        ),
    ];

    let mut resolvers: Vec<ResolverMeta> = Vec::new();
    let mut profiles = ProfileTable::new();
    let mut pools: Vec<LeasePool> = Vec::new();
    let mut border_filtered: Vec<(u32, u32)> = Vec::new();
    let churn_mix = ChurnClass::mix();

    for (ci, plan) in COUNTRY_PLANS.iter().enumerate() {
        let cc = Country::new(plan.code);
        let region = Rir::for_country(cc);
        // Special sub-AS events (the Argentinean telco, the South Korean
        // ISP) are *part of* the country totals: their hosts are built
        // separately below, so the regular population excludes them and
        // the end target excludes the event AS's surviving remnant.
        let special = match plan.code {
            "AR" => Some((
                cfg.scaled(737_424).max(3) as usize,
                16u32,
                cfg.scaled(17_000) as usize,
            )),
            "KR" => Some((
                cfg.scaled(434_567).max(3) as usize,
                30u32,
                cfg.scaled(22) as usize,
            )),
            _ => None,
        };
        let (special_count, _special_week, special_leftover) = special.unwrap_or((0, 0, 0));
        let start = cfg
            .scaled(plan.start)
            .saturating_sub(special_count as u64)
            .max(4) as usize;
        let end = cfg
            .scaled(plan.end)
            .saturating_sub(special_leftover as u64)
            .max(2) as usize;
        let spawners = end.saturating_sub(start);
        let retirees = start.saturating_sub(end);

        // Scan-level REFUSED / SERVFAIL populations ride along,
        // proportional to country size.
        let refused = ((start as f64) * RESPONSE_CLASS_PLAN.refused_fraction) as usize;
        let servfail = ((start as f64) * RESPONSE_CLASS_PLAN.servfail_max_fraction) as usize;

        let total = start + spawners + refused + servfail;
        // One liveness vector per country (and one for the blocker
        // networks): a population's size is known where it begins.
        let mut switches = Alive::group(total + special_count);

        let mut country_rng = SmallRng::seed_from_u64(subseed(cfg.seed, 1000 + ci as u64));

        // The country's ISP recursive resolver: the upstream that CPE
        // forwarders relay to. It complies with national censorship.
        let isp_recursive_ip = alloc.one();
        {
            let isp_behavior = if plan.code == "CN" {
                ResolverBehavior::GfwPoisoned {
                    censored: censored_social.clone(),
                    escapes_gfw: false,
                }
            } else if let Some(policy) = censor_policies.get(plan.code) {
                ResolverBehavior::Censor {
                    policy: policy.clone(),
                }
            } else {
                ResolverBehavior::Honest
            };
            let isp_host = net.add_host(Box::new(ResolverHost::new(
                universe.clone(),
                isp_behavior,
                shared_profile(&mut profiles, "BIND", "9.9.5", ChaosPolicy::Genuine).0,
                DeviceProfile::closed(),
                TldCacheSim::new(CacheProfile::InUse {
                    refresh_gap_s: 2,
                    tld_mask: 0x7fff,
                    phase_s: (ci as u32 * 331) % 3600,
                }),
                region,
                subseed(cfg.seed, 5000 + ci as u64),
            )));
            net.bind_ip(isp_recursive_ip, isp_host);
        }

        // Pools per churn class.
        let mut class_members: BTreeMap<usize, Vec<HostId>> = BTreeMap::new();
        let mut metas_this_country: Vec<usize> = Vec::new();

        for i in 0..total {
            let salt = subseed(cfg.seed, (ci as u64) << 32 | i as u64);
            // Response class.
            let response_class = if i < start + spawners {
                ResponseClass::NoError
            } else if i < start + spawners + refused {
                ResponseClass::Refused
            } else {
                ResponseClass::ServFail
            };
            // Churn class.
            let mut u = country_rng.gen::<f64>();
            let mut churn = ChurnClass::Daily;
            for (class, share, _) in churn_mix {
                if u < share {
                    churn = class;
                    break;
                }
                u -= share;
            }
            // Behaviour.
            let (kind, censor_layer) = match response_class {
                ResponseClass::Refused => (BehaviorKind::RefusedAll, false),
                ResponseClass::ServFail => (BehaviorKind::ServFailAll, false),
                ResponseClass::NoError => {
                    let mut kind = BehaviorKind::Honest;
                    let mut u = country_rng.gen::<f64>();
                    for (k, share) in BASE_BEHAVIOR_MIX {
                        if u < *share {
                            kind = *k;
                            break;
                        }
                        u -= share;
                    }
                    // Case-study override draws from honest candidates.
                    if kind == BehaviorKind::Honest {
                        if let Some(slot) = case_budget.iter_mut().find(|(_, n)| *n > 0) {
                            // Spread case studies thinly: claim with low
                            // probability so they distribute across countries.
                            if country_rng.gen::<f64>() < 0.03 {
                                slot.1 -= 1;
                                kind = slot.0;
                            }
                        }
                    }
                    // Censorship layer.
                    let censors = CENSOR_PLANS
                        .iter()
                        .find(|p| p.code == plan.code)
                        .map(|p| country_rng.gen::<f64>() < p.compliance)
                        .unwrap_or(false);
                    if censors {
                        if plan.code == "CN" {
                            let escape = country_rng.gen::<f64>() < 0.024;
                            if kind == BehaviorKind::Honest {
                                kind = if escape {
                                    BehaviorKind::GfwEscape
                                } else {
                                    BehaviorKind::GfwPoisoned
                                };
                            }
                            (kind, true)
                        } else {
                            if kind == BehaviorKind::Honest {
                                kind = BehaviorKind::Censor;
                            }
                            (kind, true)
                        }
                    } else {
                        (kind, false)
                    }
                }
            };

            // Lifecycle.
            let (spawn_week, retire_week) = match response_class {
                ResponseClass::NoError => {
                    if i >= start {
                        // Spawner.
                        (
                            1 + country_rng.gen_range(0..cfg.weeks.saturating_sub(2).max(1)),
                            None,
                        )
                    } else if (i % start.max(1)) < retirees {
                        // Retiree (deterministic stripe, random week).
                        (
                            0,
                            Some(1 + country_rng.gen_range(0..cfg.weeks.saturating_sub(2).max(1))),
                        )
                    } else {
                        (0, None)
                    }
                }
                ResponseClass::Refused => (0, None),
                ResponseClass::ServFail => {
                    // Fluctuating windows; a third are active from the
                    // start so the first scans see a SERVFAIL floor.
                    let s = if country_rng.gen::<f64>() < 0.35 {
                        0
                    } else {
                        country_rng.gen_range(0..cfg.weeks.max(2))
                    };
                    let len = country_rng.gen_range(8..28);
                    (s, Some((s + len).min(cfg.weeks + 1)))
                }
            };

            // Device profile.
            let tcp_exposed = country_rng.gen::<f64>() < TCP_EXPOSED_FRACTION;
            let (device_plan, device) = if tcp_exposed {
                let mut u = country_rng.gen::<f64>();
                let mut picked = None;
                for (dp, share) in DEVICE_MIX {
                    if u < *share {
                        picked = Some(*dp);
                        break;
                    }
                    u -= share;
                }
                let profile = match picked {
                    Some(dp) => device_profile(dp, salt as u32),
                    None => DeviceProfile {
                        class: DeviceClass::Unknown,
                        os: DeviceOs::Unknown,
                        tcp_exposed: true,
                        serial: salt as u32 & 0xffff,
                    },
                };
                (picked, profile)
            } else {
                (None, DeviceProfile::closed())
            };

            // Software + CHAOS policy.
            let (family, version) = sample_software(&mut country_rng);
            let chaos_u = country_rng.gen::<f64>();
            let chaos = if chaos_u < PAPER_CHAOS_MIX.error {
                ChaosPolicy::Error(if country_rng.gen::<bool>() {
                    ChaosErrorKind::Refused
                } else {
                    ChaosErrorKind::ServFail
                })
            } else if chaos_u < PAPER_CHAOS_MIX.error + PAPER_CHAOS_MIX.empty {
                ChaosPolicy::EmptyAnswer
            } else if chaos_u
                < PAPER_CHAOS_MIX.error + PAPER_CHAOS_MIX.empty + PAPER_CHAOS_MIX.custom
            {
                ChaosPolicy::Custom(
                    CUSTOM_STRINGS[country_rng.gen_range(0..CUSTOM_STRINGS.len())].to_string(),
                )
            } else {
                ChaosPolicy::Genuine
            };
            let chaos_genuine = matches!(chaos, ChaosPolicy::Genuine);
            let (software, software_key) = shared_profile(&mut profiles, family, version, chaos);

            // Cache / utilization profile.
            let cache = sample_cache_profile(&mut country_rng, salt);

            // Materialize the behaviour.
            let behavior = materialize_behavior(
                kind,
                censor_layer,
                plan.code,
                &infra,
                &censor_policies,
                &censored_social,
                &ad_targets,
                &fake_search_targets,
                &parking_stale_targets,
                &parking_tor_targets,
                &malware_search_targets,
                &malware_update_targets,
                &paypal_targets,
                &bank_targets,
                salt,
            );

            let alive = switches.next().expect("sized above").set(spawn_week == 0);
            // ~2.5% of resolvers are CPE forwarding proxies with broken
            // NAT: the upstream ISP recursive answers the client
            // directly, from its own address (Sec. 2.2: 630k-750k
            // source-mismatch responders per week).
            let multihomed =
                country_rng.gen::<f64>() < 0.025 && response_class == ResponseClass::NoError;
            let host_id = if multihomed {
                net.add_host(Box::new(
                    ForwarderHost::leaky(isp_recursive_ip).with_alive(alive.clone()),
                ))
            } else {
                let host = ResolverHost::new(
                    universe.clone(),
                    behavior,
                    software,
                    device,
                    TldCacheSim::new(cache),
                    region,
                    salt,
                )
                .with_alive(alive.clone());
                net.add_host(Box::new(host))
            };

            let class_idx = churn_mix.iter().position(|(c, _, _)| *c == churn).unwrap();
            class_members.entry(class_idx).or_default().push(host_id);

            metas_this_country.push(resolvers.len());
            resolvers.push(ResolverMeta {
                host: host_id,
                country: cc,
                asn: 0, // patched below once pools allocate blocks
                behavior: kind,
                response_class,
                churn,
                device: device_plan,
                software_key,
                chaos_genuine,
                spawn_week,
                retire_week,
                initial_ip: Ipv4Addr::UNSPECIFIED,
                alive,
            });
        }

        // Build per-class pools and bind initial addresses.
        let mut meta_cursor: BTreeMap<HostId, usize> = metas_this_country
            .iter()
            .map(|&mi| (resolvers[mi].host, mi))
            .collect();
        for (class_idx, members) in class_members {
            let (class, _, mean_lease) = churn_mix[class_idx];
            let asn = next_asn;
            next_asn += 1;
            let broadband = matches!(class, ChurnClass::Daily | ChurnClass::Weekly);
            ases.push(AsInfo {
                asn,
                name: format!("{}-NET-{}", plan.code, class_idx),
                country: cc,
                broadband,
            });
            // Generous slack: in the real Internet open resolvers are <1%
            // of allocated space, so a vacated address almost never lands
            // on another resolver. 40x slack keeps the address-reuse
            // floor of the Figure 2 curve near the paper's 4% tail while
            // the scannable space stays laptop-sized.
            let pool_size = (members.len() as u32 * 40).max(members.len() as u32 + 8);
            let block = alloc.block(pool_size);
            let dynamic_rdns = {
                let mut r = SmallRng::seed_from_u64(subseed(cfg.seed, 7000 + asn as u64));
                r.gen::<f64>() < class.dynamic_rdns_share()
            };
            geo_builder
                .insert(
                    block.0,
                    block.1,
                    geodb::NetBlock {
                        country: cc,
                        asn,
                        rdns: None,
                    },
                )
                .expect("pool block non-overlapping");
            let pattern = if dynamic_rdns {
                RdnsPattern::DynamicPool {
                    zone: format!("{}.isp{}.example", plan.code.to_lowercase(), asn),
                    token: ["dynamic", "broadband", "dialup"][(asn as usize) % 3].to_string(),
                }
            } else {
                RdnsPattern::static_host(&format!(
                    "{}.isp{}.example",
                    plan.code.to_lowercase(),
                    asn
                ))
            };
            rdns_builder
                .insert(block.0, block.1, pattern)
                .expect("rdns block");

            let pool = LeasePool::new(
                &mut net,
                ChurnConfig {
                    mean_lease_ms: mean_lease,
                    seed: subseed(cfg.seed, 8000 + asn as u64),
                },
                block,
                members,
                SimTime::ZERO,
            );
            for (member, ip) in pool.assignments() {
                if let Some(mi) = meta_cursor.remove(&member) {
                    resolvers[mi].asn = asn;
                    resolvers[mi].initial_ip = ip;
                }
            }
            pools.push(pool);
        }

        // Special AS filter events: dedicated blocks that get
        // border-filtered mid-study (−97.8% for the AR telco).
        if let Some((count, week, _leftover)) = special {
            let asn = next_asn;
            next_asn += 1;
            ases.push(AsInfo {
                asn,
                name: format!("{}-TELCO-EVENT", plan.code),
                country: cc,
                broadband: true,
            });
            let block = alloc.block((count as u32 * 13 / 10).max(count as u32 + 2));
            geo_builder
                .insert(
                    block.0,
                    block.1,
                    geodb::NetBlock {
                        country: cc,
                        asn,
                        rdns: None,
                    },
                )
                .expect("special block");
            let (software, software_key) =
                shared_profile(&mut profiles, "BIND", "9.8.2", ChaosPolicy::Genuine);
            let mut members = Vec::with_capacity(count);
            for j in 0..count {
                let salt = subseed(cfg.seed, (0xAAAA_0000 + (ci as u64)) << 16 | j as u64);
                let alive = switches.next().expect("sized above").set(true);
                let host = ResolverHost::new(
                    universe.clone(),
                    ResolverBehavior::Honest,
                    software.clone(),
                    DeviceProfile::closed(),
                    TldCacheSim::new(CacheProfile::EmptyAnswer),
                    region,
                    salt,
                )
                .with_alive(alive.clone());
                let host_id = net.add_host(Box::new(host));
                members.push(host_id);
                resolvers.push(ResolverMeta {
                    host: host_id,
                    country: cc,
                    asn,
                    behavior: BehaviorKind::Honest,
                    response_class: ResponseClass::NoError,
                    churn: ChurnClass::Static,
                    device: None,
                    software_key: software_key.clone(),
                    chaos_genuine: true,
                    spawn_week: 0,
                    retire_week: None,
                    initial_ip: Ipv4Addr::UNSPECIFIED,
                    alive,
                });
            }
            let pool = LeasePool::new(
                &mut net,
                ChurnConfig::stable(subseed(cfg.seed, 9000 + asn as u64)),
                block,
                members,
                SimTime::ZERO,
            );
            let base = resolvers.len() - pool.len();
            for (k, (_, ip)) in pool.assignments().enumerate() {
                resolvers[base + k].initial_ip = ip;
            }
            pools.push(pool);
            // The border filter that makes the whole AS vanish.
            net.add_filter(
                block.0,
                block.1,
                FilterDirection::Inbound,
                SimTime::from_weeks(week as u64),
            );
            border_filtered.push((asn, week));
        }
    }

    // 21 networks that blacklisted the primary scanner only (Sec. 2.3,
    // explanation i): small blocks pair-filtered against the scanner /8.
    {
        let mut bl_rng = SmallRng::seed_from_u64(subseed(cfg.seed, 0xB10C));
        let per_net = cfg.scaled_min(77_000 / 21, 2) as usize;
        let (software, software_key) =
            shared_profile(&mut profiles, "Dnsmasq", "2.52", ChaosPolicy::Genuine);
        let mut switches = Alive::group(21 * per_net);
        for n in 0..21usize {
            let cc = Country::new(COUNTRY_PLANS[n % COUNTRY_PLANS.len()].code);
            let region = Rir::for_country(cc);
            let asn = next_asn;
            next_asn += 1;
            ases.push(AsInfo {
                asn,
                name: format!("BLOCKER-{n}"),
                country: cc,
                broadband: true,
            });
            let block = alloc.block((per_net as u32 + 4).max(8));
            geo_builder
                .insert(
                    block.0,
                    block.1,
                    geodb::NetBlock {
                        country: cc,
                        asn,
                        rdns: None,
                    },
                )
                .expect("blocker block");
            for (j, ip) in addresses(block).take(per_net).enumerate() {
                let alive = switches.next().expect("sized above").set(true);
                let host = ResolverHost::new(
                    universe.clone(),
                    ResolverBehavior::Honest,
                    software.clone(),
                    DeviceProfile::closed(),
                    TldCacheSim::new(CacheProfile::EmptyAnswer),
                    region,
                    subseed(cfg.seed, (0xB10C_0000 + (n as u64)) << 8 | j as u64),
                )
                .with_alive(alive.clone());
                let host_id = net.add_host(Box::new(host));
                net.bind_ip(ip, host_id);
                resolvers.push(ResolverMeta {
                    host: host_id,
                    country: cc,
                    asn,
                    behavior: BehaviorKind::Honest,
                    response_class: ResponseClass::NoError,
                    churn: ChurnClass::Static,
                    device: None,
                    software_key: software_key.clone(),
                    chaos_genuine: true,
                    spawn_week: 0,
                    retire_week: None,
                    initial_ip: ip,
                    alive,
                });
            }
            let activate = 4 + bl_rng.gen_range(0..20u64);
            net.add_pair_filter(
                block.0,
                block.1,
                Ipv4Addr::from(SCANNER_SLASH8.0),
                Ipv4Addr::from(SCANNER_SLASH8.1),
                SimTime::from_weeks(activate),
            );
        }
    }

    let geo = GeoDb::new(geo_builder.build(), ases);
    // GFW ranges = every CN block in the geo DB.
    let cn_ranges: Vec<(Ipv4Addr, Ipv4Addr)> = geo_ranges_for(&geo, Country::new("CN"));
    net.add_injector(Box::new(GreatFirewall::new(
        cn_ranges,
        censored_social.clone(),
    )));

    let rdns = RdnsDb::new(rdns_builder.build(), rdns_overrides);

    // The vector lives as long as the world: hand its growth slack back.
    resolvers.shrink_to_fit();
    let stats = WorldStats {
        resolvers: resolvers.len(),
        web_hosts,
        pools: pools.len(),
        countries: COUNTRY_PLANS.len(),
    };

    let scanner_ip = Ipv4Addr::from(SCANNER_SLASH8.0 + 1);
    let scanner2_ip = Ipv4Addr::from(SCANNER2_SLASH8.0 + 1);
    let allocated = alloc.allocated.clone();

    // Opt-out blacklist (Sec. 2.2: 208 ranges + 50 single addresses).
    // Some network operators ask to be excluded: every 23rd allocated
    // block contributes the first quarter of its space, and a few
    // resolvers opt out individually.
    let mut blacklist_ranges: Vec<(Ipv4Addr, Ipv4Addr)> = Vec::new();
    // Opt-outs are individual operators, not whole countries: a thin
    // slice (at most 16 addresses) of every 23rd allocated block, so no
    // country loses a measurable share of its population (the paper's
    // exclusion list stayed negligible against 26.8M resolvers).
    for (i, &(lo, hi)) in allocated.iter().enumerate() {
        if i % 23 == 7 {
            let lo_v = u32::from(lo);
            let hi_v = u32::from(hi);
            let span = hi_v - lo_v;
            if span >= 16 {
                let slice = (span / 64).clamp(1, 3);
                blacklist_ranges.push((lo, Ipv4Addr::from(lo_v + slice)));
            }
        }
    }
    let blacklist_singles: Vec<Ipv4Addr> = resolvers
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 997 == 13)
        .map(|(_, m)| m.initial_ip)
        .collect();

    let mut world = World::new_raw(
        cfg,
        net,
        universe,
        geo,
        rdns,
        catalog,
        resolvers,
        profiles.into_values().collect(),
        infra,
        pools,
        allocated,
        scanner_ip,
        scanner2_ip,
        stats,
        blacklist_ranges,
        blacklist_singles,
    );
    world.border_filtered_asns = border_filtered;
    telemetry::gauge("worldgen.resolvers").set(world.stats.resolvers as f64);
    telemetry::gauge("worldgen.web_hosts").set(world.stats.web_hosts as f64);
    telemetry::gauge("worldgen.pools").set(world.stats.pools as f64);
    telemetry::info(
        "worldgen.build",
        "world built",
        &[
            ("resolvers", world.stats.resolvers.into()),
            ("web_hosts", world.stats.web_hosts.into()),
            ("pools", world.stats.pools.into()),
            ("countries", world.stats.countries.into()),
        ],
        Some(0),
    );
    sp.attr("resolvers", world.stats.resolvers);
    sp.finish(0);
    world
}

/// All geo blocks of one country.
fn geo_ranges_for(geo: &GeoDb, country: Country) -> Vec<(Ipv4Addr, Ipv4Addr)> {
    geo.blocks_iter()
        .filter(|(_, _, b)| b.country == country)
        .map(|(a, b, _)| (a, b))
        .collect()
}

/// Which CDN provider hosts a domain. The social-media domains are
/// pinned to provider 0 (whose edge fleet is fully operational) so the
/// Figure 4 censorship signal is not polluted by the disabled-edge
/// phenomenon, which the paper reports separately (Sec. 4.2).
fn cdn_provider_of(name: &str, providers: usize) -> usize {
    if matches!(
        name,
        "facebook.example" | "twitter.example" | "youtube.example"
    ) {
        return 0;
    }
    (domain_hash(name) as usize) % providers
}

fn domain_hash(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn ip_hash(ip: Ipv4Addr) -> u64 {
    u32::from(ip) as u64
}

fn country_display(code: &str) -> &'static str {
    match code {
        "CN" => "China",
        "IR" => "Iran",
        "TR" => "Turkey",
        "ID" => "Indonesia",
        "MY" => "Malaysia",
        "IT" => "Italy",
        "RU" => "Russia",
        "GR" => "Greece",
        "BE" => "Belgium",
        "MN" => "Mongolia",
        "EE" => "Estonia",
        "VN" => "Vietnam",
        "TH" => "Thailand",
        "PK" => "Pakistan",
        "EG" => "Egypt",
        "DZ" => "Algeria",
        "IN" => "India",
        _ => "the Republic",
    }
}

/// Sample a software family+version from Table 3 + tail.
fn sample_software(rng: &mut SmallRng) -> (&'static str, &'static str) {
    let mut u = rng.gen::<f64>();
    for (family, version, share, _) in TABLE3_SOFTWARE {
        if u < *share {
            return (family, version);
        }
        u -= share;
    }
    for (family, version, share) in TAIL_SOFTWARE {
        if u < *share {
            return (family, version);
        }
        u -= share;
    }
    ("BIND", "9.9.4")
}

/// Sample a cache/utilization profile per the Sec. 2.6 shares.
#[allow(clippy::type_complexity)]
fn sample_cache_profile(rng: &mut SmallRng, salt: u64) -> CacheProfile {
    let p = UTILIZATION_PLAN;
    let mut u = rng.gen::<f64>();
    let phase = (salt % 86_400) as u32;
    let steps: [(f64, fn(&mut SmallRng, u32) -> CacheProfile); 8] = [
        (p.empty_answer, |_, _| CacheProfile::EmptyAnswer),
        (p.single_then_silent, |_, _| CacheProfile::SingleThenSilent),
        (p.static_ttl, |r, _| CacheProfile::StaticTtl {
            ttl: r.gen_range(60..86_400),
        }),
        (p.zero_ttl, |_, _| CacheProfile::ZeroTtl),
        (p.frequent, |r, phase| CacheProfile::InUse {
            refresh_gap_s: r.gen_range(1..=5),
            tld_mask: 0x7fff, // clients touch all 15 TLDs
            phase_s: phase,
        }),
        (p.in_use_slow, |r, phase| CacheProfile::InUse {
            refresh_gap_s: r.gen_range(300..5_400),
            tld_mask: 0b0111_1111 << (phase % 8),
            phase_s: phase,
        }),
        (p.ttl_resetter, |_, _| CacheProfile::TtlResetter),
        (p.slow_decreasing, |_, _| CacheProfile::SlowDecreasing {
            ttl: 172_800,
        }),
    ];
    for (share, make) in steps {
        if u < share {
            return make(rng, phase);
        }
        u -= share;
    }
    // Remainder: hosts that churn away mid-snooping — externally this
    // looks like silence; model as SingleThenSilent.
    CacheProfile::SingleThenSilent
}

/// Instantiate a device profile from the plan.
fn device_profile(plan: DeviceClassPlan, serial: u32) -> DeviceProfile {
    use DeviceClassPlan::*;
    let (class, os) = match plan {
        RouterZyNos => (DeviceClass::Router, DeviceOs::ZyNos),
        RouterSmartWare => (DeviceClass::Router, DeviceOs::SmartWare),
        RouterOsMikrotik => (DeviceClass::Router, DeviceOs::RouterOs),
        RouterLinux => (DeviceClass::Router, DeviceOs::Linux),
        EmbeddedLinux => (DeviceClass::Embedded, DeviceOs::Linux),
        EmbeddedCentOs => (DeviceClass::Embedded, DeviceOs::CentOs),
        EmbeddedUnknown => (DeviceClass::Embedded, DeviceOs::Unknown),
        ServerCentOs => (DeviceClass::Other, DeviceOs::CentOs),
        ServerWindows => (DeviceClass::Other, DeviceOs::Windows),
        ServerUnix => (DeviceClass::Other, DeviceOs::Unix),
        Firewall => (DeviceClass::Firewall, DeviceOs::Linux),
        Camera => (DeviceClass::Camera, DeviceOs::Linux),
        Dvr => (DeviceClass::Dvr, DeviceOs::Linux),
        Nas => (DeviceClass::Nas, DeviceOs::Linux),
        Dslam => (DeviceClass::Dslam, DeviceOs::Unknown),
        OtherMisc => (DeviceClass::Other, DeviceOs::Other),
    };
    DeviceProfile {
        class,
        os,
        tcp_exposed: true,
        serial: serial & 0xffff,
    }
}

/// Build the concrete [`ResolverBehavior`] for a planned kind.
#[allow(clippy::too_many_arguments)]
fn materialize_behavior(
    kind: BehaviorKind,
    censor_layer: bool,
    country_code: &str,
    infra: &InfraIndex,
    censor_policies: &BTreeMap<&str, Arc<CensorPolicy>>,
    censored_social: &Arc<BTreeSet<String>>,
    ad_targets: &Arc<BTreeSet<String>>,
    fake_search_targets: &Arc<BTreeSet<String>>,
    parking_stale_targets: &Arc<BTreeSet<String>>,
    parking_tor_targets: &Arc<BTreeSet<String>>,
    malware_search_targets: &Arc<BTreeSet<String>>,
    malware_update_targets: &Arc<BTreeSet<String>>,
    paypal_targets: &Arc<BTreeSet<String>>,
    bank_targets: &Arc<BTreeSet<String>>,
    salt: u64,
) -> ResolverBehavior {
    let pick = |v: &Vec<Ipv4Addr>, s: u64| v[(s as usize) % v.len().max(1)];
    let base = match kind {
        BehaviorKind::Honest => ResolverBehavior::Honest,
        BehaviorKind::Censor => match censor_policies.get(country_code) {
            Some(p) => ResolverBehavior::Censor { policy: p.clone() },
            None => ResolverBehavior::Honest,
        },
        BehaviorKind::GfwPoisoned => ResolverBehavior::GfwPoisoned {
            censored: censored_social.clone(),
            escapes_gfw: false,
        },
        BehaviorKind::GfwEscape => ResolverBehavior::GfwPoisoned {
            censored: censored_social.clone(),
            escapes_gfw: true,
        },
        BehaviorKind::NxMonetizer => {
            // Target mix shapes Table 5's NX column.
            let u = (salt % 100) as f64 / 100.0;
            let ip = if u < 0.40 {
                pick(&infra.search_ips, salt)
            } else if u < 0.65 {
                pick(&infra.error_ips, salt)
            } else if u < 0.87 {
                pick(&infra.parking_ips, salt)
            } else {
                pick(&infra.misc_site_ips, salt)
            };
            ResolverBehavior::NxMonetizer {
                search_ips: vec![ip],
            }
        }
        BehaviorKind::StaticError => ResolverBehavior::StaticIp {
            ip: pick(&infra.error_ips, salt),
        },
        BehaviorKind::StaticParking => ResolverBehavior::StaticIp {
            ip: pick(&infra.parking_ips, salt),
        },
        BehaviorKind::StaticSearch => ResolverBehavior::StaticIp {
            ip: pick(&infra.search_ips, salt),
        },
        BehaviorKind::StaticMisc => ResolverBehavior::StaticIp {
            ip: pick(&infra.misc_site_ips, salt),
        },
        BehaviorKind::SelfIp => ResolverBehavior::SelfIp,
        BehaviorKind::LanRedirect => ResolverBehavior::LanRedirect {
            ip: Ipv4Addr::new(192, 168, (salt % 255) as u8, 1),
        },
        BehaviorKind::CaptivePortal => ResolverBehavior::StaticIp {
            ip: pick(&infra.portal_ips, salt),
        },
        BehaviorKind::RefusedAll => ResolverBehavior::RefusedAll,
        BehaviorKind::ServFailAll => ResolverBehavior::ServFailAll,
        BehaviorKind::EmptyAll => ResolverBehavior::EmptyAll,
        BehaviorKind::NsOnly => ResolverBehavior::NsOnly {
            ns_host: "ns.local.example".into(),
        },
        BehaviorKind::PortRewriter => ResolverBehavior::PortRewriter {
            inner: Box::new(ResolverBehavior::Honest),
        },
        BehaviorKind::BlockerMalware => ResolverBehavior::Blocker {
            categories: vec![DomainCategory::Malware],
            block_ip: pick(&infra.blockpage_ips, salt & !1),
        },
        BehaviorKind::BlockerFamily => ResolverBehavior::Blocker {
            categories: vec![DomainCategory::Dating, DomainCategory::Adult],
            block_ip: pick(&infra.blockpage_ips, salt | 1),
        },
        BehaviorKind::ParkingStale => ResolverBehavior::Parking {
            targets: parking_stale_targets.clone(),
            park_ips: infra.parking_ips.as_slice().into(),
        },
        BehaviorKind::ParkingTor => ResolverBehavior::Parking {
            targets: parking_tor_targets.clone(),
            park_ips: infra.parking_ips.as_slice().into(),
        },
        // Re-registered malware domains monetized through search landers
        // (semantically a targeted redirect; the label comes from the
        // target host's content).
        BehaviorKind::MalwareSearch => ResolverBehavior::Parking {
            targets: malware_search_targets.clone(),
            park_ips: infra.search_ips.as_slice().into(),
        },
        BehaviorKind::AdInjectBanner => ResolverBehavior::AdRedirect {
            targets: ad_targets.clone(),
            inject_ip: pick(&infra.ad_banner_ips, salt),
        },
        BehaviorKind::AdInjectScript => ResolverBehavior::AdRedirect {
            targets: ad_targets.clone(),
            inject_ip: pick(&infra.ad_script_ips, salt),
        },
        BehaviorKind::AdBlank => ResolverBehavior::AdRedirect {
            targets: ad_targets.clone(),
            inject_ip: pick(&infra.ad_blank_ips, salt),
        },
        BehaviorKind::AdFakeSearch => ResolverBehavior::AdRedirect {
            targets: fake_search_targets.clone(),
            inject_ip: pick(&infra.ad_fake_search_ips, salt),
        },
        BehaviorKind::ProxyTls => ResolverBehavior::ProxyAll {
            proxy_ips: infra.proxy_tls_ips.clone(),
        },
        BehaviorKind::ProxyHttp => ResolverBehavior::ProxyAll {
            proxy_ips: infra.proxy_http_ips.clone(),
        },
        BehaviorKind::PhishPaypal => ResolverBehavior::Phish {
            targets: paypal_targets.clone(),
            phish_ip: infra.phish_ips[(salt as usize) % 16.min(infra.phish_ips.len())],
        },
        BehaviorKind::PhishBankBr => ResolverBehavior::Phish {
            targets: bank_targets.clone(),
            phish_ip: infra.phish_ips[16.min(infra.phish_ips.len() - 1)],
        },
        BehaviorKind::PhishBankRu => ResolverBehavior::Phish {
            targets: bank_targets.clone(),
            phish_ip: infra.phish_ips[17.min(infra.phish_ips.len() - 1)],
        },
        BehaviorKind::PhishMisc => {
            let idx = 18 + (salt as usize) % infra.phish_ips.len().saturating_sub(18).max(1);
            ResolverBehavior::Phish {
                targets: Arc::new(
                    ["chasebank.example", "hsbcbank.example", "alipay.example"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                ),
                phish_ip: infra.phish_ips[idx.min(infra.phish_ips.len() - 1)],
            }
        }
        BehaviorKind::MailIntercept => ResolverBehavior::MailIntercept {
            mail_ips: infra.mail_intercept_ips.clone(),
        },
        BehaviorKind::MailClone => ResolverBehavior::MailIntercept {
            mail_ips: infra.mail_clone_ips.clone(),
        },
        BehaviorKind::MalwareUpdate => ResolverBehavior::MalwareRedirect {
            targets: malware_update_targets.clone(),
            ip: pick(&infra.malware_update_ips, salt),
        },
    };

    if censor_layer
        && !matches!(
            kind,
            BehaviorKind::Censor | BehaviorKind::GfwPoisoned | BehaviorKind::GfwEscape
        )
    {
        let censor: ResolverBehavior = if country_code == "CN" {
            ResolverBehavior::GfwPoisoned {
                censored: censored_social.clone(),
                escapes_gfw: false,
            }
        } else {
            match censor_policies.get(country_code) {
                Some(p) => ResolverBehavior::Censor { policy: p.clone() },
                None => return base,
            }
        };
        ResolverBehavior::Layered {
            censor: Box::new(censor),
            fallback: Box::new(base),
        }
    } else {
        base
    }
}
