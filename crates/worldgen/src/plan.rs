//! The population plan: every distribution the generator is calibrated
//! to, as data. Numbers cite the paper section they come from.

/// Top-level generator configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Population scale relative to the paper (1.0 = 26.8M resolvers).
    /// The default 0.001 yields ≈26.8k resolvers — laptop-sized while
    /// keeping every percentage statistically meaningful.
    pub scale: f64,
    /// UDP loss probability of the simulated transport.
    pub udp_loss: f64,
    /// Number of weeks the world evolves (the paper observed 55).
    pub weeks: u32,
    /// Read by nothing: the sharded engine it selected is gone. The
    /// field stays only because `gwbench/` (which this tree's PRs may
    /// not edit alongside program code) still assigns it; ROADMAP item
    /// 3(d) deletes it.
    #[doc(hidden)]
    pub shards: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 2015_1028,
            scale: 0.001,
            udp_loss: 0.004,
            weeks: 55,
            shards: 1,
        }
    }
}

impl WorldConfig {
    /// A tiny world for unit tests (≈2.7k resolvers).
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            scale: 0.0001,
            udp_loss: 0.0,
            weeks: 55,
            shards: 1,
        }
    }

    /// Scale an absolute paper count into this world.
    pub fn scaled(&self, paper_count: u64) -> u64 {
        ((paper_count as f64) * self.scale).round().max(0.0) as u64
    }

    /// Scale a small case-study count, guaranteeing at least `min`.
    pub fn scaled_min(&self, paper_count: u64, min: u64) -> u64 {
        self.scaled(paper_count).max(min)
    }
}

/// Per-country population plan (Table 1 + countries named in the text).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountryPlan {
    /// ISO 3166 alpha-2 country code.
    pub code: &'static str,
    /// NOERROR resolvers on Jan 31, 2014 (paper scale).
    pub start: u64,
    /// NOERROR resolvers on Feb 6, 2015.
    pub end: u64,
}

/// Country populations. Top-10 rows are Table 1 verbatim; the rest are
/// sized from the text's percentages and Figure 4-a shares, with a long
/// tail bringing the total to ≈26.8M.
pub const COUNTRY_PLANS: &[CountryPlan] = &[
    // Table 1 (start and end measured).
    CountryPlan {
        code: "US",
        start: 2_958_640,
        end: 2_537_269,
    },
    CountryPlan {
        code: "CN",
        start: 2_418_949,
        end: 2_104_663,
    },
    CountryPlan {
        code: "TR",
        start: 1_439_736,
        end: 976_226,
    },
    CountryPlan {
        code: "VN",
        start: 1_393_618,
        end: 1_039_075,
    },
    CountryPlan {
        code: "MX",
        start: 1_372_934,
        end: 1_175_343,
    },
    CountryPlan {
        code: "IN",
        start: 1_269_714,
        end: 1_431_522,
    },
    CountryPlan {
        code: "TH",
        start: 1_214_042,
        end: 564_482,
    },
    CountryPlan {
        code: "IT",
        start: 1_172_001,
        end: 722_756,
    },
    CountryPlan {
        code: "CO",
        start: 1_062_080,
        end: 677_572,
    },
    CountryPlan {
        code: "TW",
        start: 1_061_218,
        end: 453_016,
    },
    // Countries named in the text with known dynamics.
    CountryPlan {
        code: "AR",
        start: 960_000,
        end: 240_000,
    }, // −75.0%
    CountryPlan {
        code: "GB",
        start: 520_000,
        end: 189_280,
    }, // −63.6%
    CountryPlan {
        code: "MY",
        start: 180_000,
        end: 287_460,
    }, // +59.7%
    CountryPlan {
        code: "LB",
        start: 60_000,
        end: 106_020,
    }, // +76.7%
    CountryPlan {
        code: "KR",
        start: 640_000,
        end: 205_000,
    }, // ISP shutdown
    // Figure 4-a visible populations.
    CountryPlan {
        code: "ID",
        start: 850_000,
        end: 640_000,
    },
    CountryPlan {
        code: "IR",
        start: 820_000,
        end: 700_000,
    },
    CountryPlan {
        code: "EG",
        start: 660_000,
        end: 500_000,
    },
    CountryPlan {
        code: "BR",
        start: 640_000,
        end: 500_000,
    },
    CountryPlan {
        code: "RU",
        start: 630_000,
        end: 490_000,
    },
    CountryPlan {
        code: "PL",
        start: 560_000,
        end: 430_000,
    },
    CountryPlan {
        code: "DZ",
        start: 520_000,
        end: 400_000,
    },
    CountryPlan {
        code: "JP",
        start: 360_000,
        end: 280_000,
    },
    // Censorship-relevant smaller countries (Sec. 4.2).
    CountryPlan {
        code: "GR",
        start: 120_000,
        end: 90_000,
    },
    CountryPlan {
        code: "BE",
        start: 110_000,
        end: 85_000,
    },
    CountryPlan {
        code: "MN",
        start: 40_000,
        end: 30_000,
    },
    CountryPlan {
        code: "EE",
        start: 35_000,
        end: 27_000,
    },
    // Long tail.
    CountryPlan {
        code: "DE",
        start: 980_000,
        end: 740_000,
    },
    CountryPlan {
        code: "FR",
        start: 930_000,
        end: 700_000,
    },
    CountryPlan {
        code: "ES",
        start: 700_000,
        end: 530_000,
    },
    CountryPlan {
        code: "UA",
        start: 500_000,
        end: 380_000,
    },
    CountryPlan {
        code: "RO",
        start: 460_000,
        end: 350_000,
    },
    CountryPlan {
        code: "CA",
        start: 420_000,
        end: 330_000,
    },
    CountryPlan {
        code: "NL",
        start: 340_000,
        end: 260_000,
    },
    CountryPlan {
        code: "PH",
        start: 330_000,
        end: 250_000,
    },
    CountryPlan {
        code: "PK",
        start: 320_000,
        end: 240_000,
    },
    CountryPlan {
        code: "BD",
        start: 300_000,
        end: 230_000,
    },
    CountryPlan {
        code: "CL",
        start: 280_000,
        end: 210_000,
    },
    CountryPlan {
        code: "PE",
        start: 260_000,
        end: 200_000,
    },
    CountryPlan {
        code: "VE",
        start: 250_000,
        end: 190_000,
    },
    CountryPlan {
        code: "CZ",
        start: 230_000,
        end: 175_000,
    },
    CountryPlan {
        code: "HU",
        start: 210_000,
        end: 160_000,
    },
    CountryPlan {
        code: "PT",
        start: 200_000,
        end: 150_000,
    },
    CountryPlan {
        code: "SE",
        start: 190_000,
        end: 145_000,
    },
    CountryPlan {
        code: "AT",
        start: 180_000,
        end: 135_000,
    },
    CountryPlan {
        code: "CH",
        start: 170_000,
        end: 130_000,
    },
    CountryPlan {
        code: "ZA",
        start: 160_000,
        end: 120_000,
    },
    CountryPlan {
        code: "NG",
        start: 150_000,
        end: 115_000,
    },
    CountryPlan {
        code: "MA",
        start: 140_000,
        end: 105_000,
    },
    CountryPlan {
        code: "TN",
        start: 130_000,
        end: 100_000,
    },
    CountryPlan {
        code: "KE",
        start: 120_000,
        end: 90_000,
    },
    CountryPlan {
        code: "AU",
        start: 240_000,
        end: 185_000,
    },
    CountryPlan {
        code: "HK",
        start: 200_000,
        end: 155_000,
    },
    CountryPlan {
        code: "SG",
        start: 150_000,
        end: 115_000,
    },
    CountryPlan {
        code: "NZ",
        start: 80_000,
        end: 60_000,
    },
    CountryPlan {
        code: "UY",
        start: 90_000,
        end: 68_000,
    },
    CountryPlan {
        code: "BO",
        start: 85_000,
        end: 64_000,
    },
    CountryPlan {
        code: "PY",
        start: 80_000,
        end: 60_000,
    },
    CountryPlan {
        code: "EC",
        start: 95_000,
        end: 72_000,
    },
    CountryPlan {
        code: "GH",
        start: 70_000,
        end: 53_000,
    },
];

/// IP-lease churn classes (Sec. 2.5 / Figure 2). Shares calibrated so
/// that ≈40% of the initial cohort renumbers within a day, ≈52% within
/// a week, and ≈4% is still on its address after 55 weeks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnClass {
    /// Consumer broadband with ~1-day leases.
    Daily,
    /// ~1-week leases.
    Weekly,
    /// ~6-week leases.
    Monthly,
    /// ~20-week leases.
    Quarterly,
    /// Effectively static.
    Static,
}

impl ChurnClass {
    /// `(class, share, mean_lease_ms)`. Daily leases are ~14 h: consumer
    /// PPPoE/DHCP re-dials cluster well inside a day, which is what
    /// drives the paper's ">40% gone within the first day".
    pub fn mix() -> [(ChurnClass, f64, u64); 5] {
        use netsim::SimTime;
        [
            (ChurnClass::Daily, 0.45, 14 * SimTime::HOUR),
            (ChurnClass::Weekly, 0.10, SimTime::WEEK),
            (ChurnClass::Monthly, 0.25, 6 * SimTime::WEEK),
            (ChurnClass::Quarterly, 0.18, 20 * SimTime::WEEK),
            (ChurnClass::Static, 0.02, 500 * SimTime::WEEK),
        ]
    }

    /// Whether pools of this class carry dynamic-assignment rDNS tokens
    /// (67.4% of day-one leavers did, Sec. 2.5).
    pub fn dynamic_rdns_share(self) -> f64 {
        match self {
            ChurnClass::Daily => 0.70,
            ChurnClass::Weekly => 0.55,
            ChurnClass::Monthly => 0.30,
            ChurnClass::Quarterly => 0.10,
            ChurnClass::Static => 0.02,
        }
    }
}

/// Ground-truth behaviour classes. Shares are the *base* population mix;
/// country censorship and case-study micro-populations are layered on
/// top by the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BehaviorKind {
    /// Relays answers unmodified.
    Honest,
    /// Country-policy censor redirecting to landing pages.
    Censor,
    /// Chinese resolver whose answers are poisoned by the GFW injector.
    GfwPoisoned,
    /// Chinese resolver on a path the GFW misses (completes the paper's
    /// double-response evidence).
    GfwEscape,
    /// Rewrites NXDOMAIN into parking/search IPs (NX monetization).
    NxMonetizer,
    /// Answers every domain with an HTTP-error host.
    StaticError,
    /// Answers every domain with one parking IP.
    StaticParking,
    /// Answers every domain with one search IP.
    StaticSearch,
    /// Answers every domain with one unrelated static site.
    StaticMisc,
    /// Answers with the resolver's own address (CPE web UIs).
    SelfIp,
    /// Answers with a private LAN address.
    LanRedirect,
    /// Answers everything with a captive-portal login host.
    CaptivePortal,
    /// REFUSED to every query.
    RefusedAll,
    /// SERVFAIL to every query.
    ServFailAll,
    /// NOERROR with an empty answer section.
    EmptyAll,
    /// Answers NS queries only (snooping responder, no A records).
    NsOnly,
    /// Correct IP but answers arrive from a different source port.
    PortRewriter,
    /// Security blocker: sinkholes the malware category.
    BlockerMalware,
    /// Parental-control blocker: sinkholes adult/dating categories.
    BlockerFamily,
    /// Serves stale parking IPs for expired domains.
    ParkingStale,
    /// Redirects Tor/filesharing domains to parking.
    ParkingTor,
    /// Redirects half the malware set to search pages (paper: search
    /// responses for six of 13 malware domains, 21.4% of their
    /// suspicious resolvers — re-registration monetization).
    MalwareSearch,
    /// Redirects ad networks to a banner-substituting host.
    AdInjectBanner,
    /// Redirects ad networks to a script-injecting host.
    AdInjectScript,
    /// Redirects ad networks to a blank-creative host (ad suppression).
    AdBlank,
    /// Redirects search engines to an ad-laden mimic.
    AdFakeSearch,
    /// Sends all domains through a TLS-capable transparent proxy.
    ProxyTls,
    /// Sends all domains through an HTTP-only transparent proxy.
    ProxyHttp,
    /// PayPal-targeting phishing redirect (Sec. 4.3: 176 resolvers).
    PhishPaypal,
    /// Brazilian bank clone redirect (285 resolvers, one IP).
    PhishBankBr,
    /// Russian bank clone redirect (46 resolvers, one IP).
    PhishBankRu,
    /// Remaining phishing-labelled redirections.
    PhishMisc,
    /// Redirects MX hostnames to a banner-mimicking mail relay.
    MailIntercept,
    /// Redirects MX hostnames to a full provider clone.
    MailClone,
    /// Redirects update/download domains to fake-update droppers.
    MalwareUpdate,
}

/// `(kind, share_of_noerror_population)` for the statistically sized
/// behaviours. Honest absorbs the remainder. Calibrated against the
/// Sec. 4.1 suspicious-tuple rates and Table 5 label shares:
/// the category-independent redirectors (static/self/LAN/portal) create
/// the flat ~2.5% suspicious base every domain category shows, and the
/// NX-only monetizers lift NX to ≈13.7%.
pub const BASE_BEHAVIOR_MIX: &[(BehaviorKind, f64)] = &[
    (BehaviorKind::StaticError, 0.0080),
    (BehaviorKind::StaticParking, 0.0032),
    (BehaviorKind::StaticSearch, 0.0002),
    (BehaviorKind::StaticMisc, 0.0010),
    (BehaviorKind::SelfIp, 0.0004),
    (BehaviorKind::LanRedirect, 0.0014),
    (BehaviorKind::CaptivePortal, 0.0016),
    (BehaviorKind::NsOnly, 0.0006),
    (BehaviorKind::NxMonetizer, 0.1000),
    (BehaviorKind::PortRewriter, 0.0008),
    (BehaviorKind::BlockerMalware, 0.0060),
    (BehaviorKind::BlockerFamily, 0.0030),
    (BehaviorKind::ParkingStale, 0.0450),
    (BehaviorKind::ParkingTor, 0.0100),
    (BehaviorKind::MalwareSearch, 0.0090),
    (BehaviorKind::MailIntercept, 0.0040),
];

/// Scan-level response-class populations (Figure 1): alongside the
/// NOERROR fleet, REFUSED hosts stay stable and SERVFAIL fluctuates.
pub struct ResponseClassPlan {
    /// REFUSED responders as a fraction of the NOERROR start population.
    pub refused_fraction: f64,
    /// Minimum / maximum concurrently active SERVFAIL responders
    /// (paper: 633,393 – 2,141,539 of 26.8M).
    pub servfail_min_fraction: f64,
    /// See [`ResponseClassPlan::servfail_min_fraction`].
    pub servfail_max_fraction: f64,
}

/// The calibrated Figure 1 response-class plan.
pub const RESPONSE_CLASS_PLAN: ResponseClassPlan = ResponseClassPlan {
    refused_fraction: 0.085,
    servfail_min_fraction: 0.024,
    servfail_max_fraction: 0.080,
};

/// Case-study micro-populations (paper-scale counts; Sec. 4.1 / 4.3).
pub struct CaseStudyPlan {
    /// Resolvers answering everything with their own IP (8,194).
    pub self_ip_everywhere: u64,
    /// Ad-banner/script redirectors (281 resolvers, 4 IPs).
    pub ad_redirect_resolvers: u64, // 281 → 4 IPs
    /// Blank-creative suppressors (14 resolvers, 7 IPs).
    pub ad_blank_resolvers: u64, // 14 → 7 IPs
    /// Fake-search redirectors (7 resolvers, 2 IPs).
    pub ad_fake_search_resolvers: u64, // 7 → 2 IPs
    /// TLS-capable transparent proxies (99 resolvers, 10 IPs).
    pub proxy_tls_resolvers: u64, // 99 → 10 IPs
    /// HTTP-only transparent proxies (10,179 resolvers, 10 IPs).
    pub proxy_http_resolvers: u64, // 10,179 → 10 IPs
    /// PayPal phishing redirectors (176 resolvers, 16 IPs).
    pub phish_paypal_resolvers: u64, // 176 → 16 IPs
    /// Brazilian bank clone redirectors (285 resolvers, 1 IP).
    pub phish_bank_br_resolvers: u64, // 285 → 1 IP
    /// Russian bank clone redirectors (46 resolvers, 1 IP).
    pub phish_bank_ru_resolvers: u64, // 46 → 1 IP
    /// Remainder of the 1,360 phishing-labelled resolvers.
    pub phish_misc_resolvers: u64, // remainder of 1,360
    /// Mail-provider clone redirectors (8 resolvers).
    pub mail_clone_resolvers: u64, // 8
    /// Fake-update dropper redirectors (228 resolvers, 30 IPs).
    pub malware_update_resolvers: u64, // 228 → 30 IPs
}

/// Paper-scale case-study counts (Sec. 4.1 / 4.3).
pub const CASE_STUDY_PLAN: CaseStudyPlan = CaseStudyPlan {
    self_ip_everywhere: 8_194,
    ad_redirect_resolvers: 281,
    ad_blank_resolvers: 14,
    ad_fake_search_resolvers: 7,
    proxy_tls_resolvers: 99,
    proxy_http_resolvers: 10_179,
    phish_paypal_resolvers: 176,
    phish_bank_br_resolvers: 285,
    phish_bank_ru_resolvers: 46,
    phish_misc_resolvers: 853,
    mail_clone_resolvers: 8,
    malware_update_resolvers: 228,
};

/// Censorship plan per country (Sec. 4.2). `social` = blocks
/// Facebook/Twitter/YouTube; `landing_ips` sums to ≈299 across all
/// entries (the paper's count).
#[derive(Debug, Clone, Copy)]
pub struct CensorPlan {
    /// ISO 3166 alpha-2 country code.
    pub code: &'static str,
    /// Fraction of the country's resolvers that enforce the policy.
    pub compliance: f64,
    /// Blocks Facebook/Twitter/YouTube.
    pub social: bool,
    /// Blocks the Adult category.
    pub adult: bool,
    /// Blocks the Gambling category.
    pub gambling: bool,
    /// Blocks the Dating category.
    pub dating: bool,
    /// Blocks the Filesharing category.
    pub filesharing: bool,
    /// Individually named extra domains.
    pub extra_domains: &'static [&'static str],
    /// Distinct landing-page IPs this country operates.
    pub landing_ips: u32,
}

/// The explicitly modelled censoring countries. CN is handled by the
/// GFW (no landing pages — forged random IPs); the other 33 countries
/// use landing pages, matching the paper's "34 different countries".
pub const CENSOR_PLANS: &[CensorPlan] = &[
    CensorPlan {
        code: "CN",
        compliance: 0.997,
        social: true,
        adult: false,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 0,
    },
    CensorPlan {
        code: "IR",
        compliance: 0.60,
        social: true,
        adult: true,
        gambling: true,
        dating: true,
        filesharing: false,
        extra_domains: &["blogspot.example"],
        landing_ips: 30,
    },
    CensorPlan {
        code: "TR",
        compliance: 0.90,
        social: false,
        adult: true,
        gambling: true,
        dating: false,
        filesharing: true,
        extra_domains: &["rotten.example", "wikileaks.example"],
        landing_ips: 22,
    },
    CensorPlan {
        code: "ID",
        compliance: 0.80,
        social: false,
        adult: true,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &["blogspot.example", "rotten.example"],
        landing_ips: 30,
    },
    CensorPlan {
        code: "MY",
        compliance: 0.60,
        social: false,
        adult: true,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 12,
    },
    CensorPlan {
        code: "IT",
        compliance: 0.693,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: true,
        extra_domains: &[],
        landing_ips: 20,
    },
    CensorPlan {
        code: "RU",
        compliance: 0.70,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: true,
        extra_domains: &["wikileaks.example"],
        landing_ips: 24,
    },
    CensorPlan {
        code: "GR",
        compliance: 0.839,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 8,
    },
    CensorPlan {
        code: "BE",
        compliance: 0.786,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 8,
    },
    CensorPlan {
        code: "MN",
        compliance: 0.789,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 6,
    },
    // Estonia resolves gambling domains to *Russian* landing pages
    // (Sec. 6, Levis confirmation) — the builder wires EE to RU's IPs.
    CensorPlan {
        code: "EE",
        compliance: 0.569,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 0,
    },
    CensorPlan {
        code: "VN",
        compliance: 0.40,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 14,
    },
    CensorPlan {
        code: "TH",
        compliance: 0.45,
        social: false,
        adult: true,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 12,
    },
    CensorPlan {
        code: "PK",
        compliance: 0.25,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 12,
    },
    CensorPlan {
        code: "EG",
        compliance: 0.35,
        social: false,
        adult: true,
        gambling: true,
        dating: true,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 10,
    },
    CensorPlan {
        code: "DZ",
        compliance: 0.30,
        social: false,
        adult: true,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 8,
    },
    CensorPlan {
        code: "IN",
        compliance: 0.15,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: true,
        extra_domains: &[],
        landing_ips: 14,
    },
    CensorPlan {
        code: "UA",
        compliance: 0.25,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 6,
    },
    CensorPlan {
        code: "RO",
        compliance: 0.30,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 6,
    },
    CensorPlan {
        code: "PH",
        compliance: 0.25,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 5,
    },
    CensorPlan {
        code: "BD",
        compliance: 0.45,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 6,
    },
    CensorPlan {
        code: "MA",
        compliance: 0.30,
        social: false,
        adult: true,
        gambling: false,
        dating: true,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 5,
    },
    CensorPlan {
        code: "TN",
        compliance: 0.25,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 4,
    },
    CensorPlan {
        code: "KE",
        compliance: 0.20,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 4,
    },
    CensorPlan {
        code: "ZA",
        compliance: 0.15,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 4,
    },
    CensorPlan {
        code: "NG",
        compliance: 0.20,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 4,
    },
    CensorPlan {
        code: "VE",
        compliance: 0.30,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 4,
    },
    CensorPlan {
        code: "PY",
        compliance: 0.25,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 3,
    },
    CensorPlan {
        code: "BO",
        compliance: 0.25,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 3,
    },
    CensorPlan {
        code: "EC",
        compliance: 0.20,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 3,
    },
    CensorPlan {
        code: "GH",
        compliance: 0.20,
        social: false,
        adult: true,
        gambling: false,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 3,
    },
    CensorPlan {
        code: "UY",
        compliance: 0.20,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 3,
    },
    CensorPlan {
        code: "HU",
        compliance: 0.20,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 3,
    },
    CensorPlan {
        code: "CZ",
        compliance: 0.15,
        social: false,
        adult: false,
        gambling: true,
        dating: false,
        filesharing: false,
        extra_domains: &[],
        landing_ips: 3,
    },
];

/// Device/OS assignment (Table 4): shares over the 26.3% of resolvers
/// that expose TCP services. `(class, os, share)`.
pub const DEVICE_MIX: &[(crate::plan::DeviceClassPlan, f64)] = &[
    (DeviceClassPlan::RouterZyNos, 0.166),
    (DeviceClassPlan::RouterSmartWare, 0.026),
    (DeviceClassPlan::RouterOsMikrotik, 0.017),
    (DeviceClassPlan::RouterLinux, 0.132),
    (DeviceClassPlan::EmbeddedLinux, 0.10),
    (DeviceClassPlan::EmbeddedCentOs, 0.14),
    (DeviceClassPlan::EmbeddedUnknown, 0.066),
    (DeviceClassPlan::ServerCentOs, 0.073),
    (DeviceClassPlan::ServerWindows, 0.036),
    (DeviceClassPlan::ServerUnix, 0.050),
    (DeviceClassPlan::Firewall, 0.019),
    (DeviceClassPlan::Camera, 0.018),
    (DeviceClassPlan::Dvr, 0.012),
    (DeviceClassPlan::Nas, 0.002),
    (DeviceClassPlan::Dslam, 0.001),
    (DeviceClassPlan::OtherMisc, 0.008),
    // Remainder (~0.134): TCP open but unrecognizable banners → Unknown.
];

/// Concrete device templates the builder instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClassPlan {
    /// ZyXEL CPE (ZyNOS banners on FTP/Telnet/HTTP).
    RouterZyNos,
    /// Patton SmartWare CPE.
    RouterSmartWare,
    /// MikroTik RouterOS device.
    RouterOsMikrotik,
    /// Linux-based home router.
    RouterLinux,
    /// Embedded Linux board.
    EmbeddedLinux,
    /// Embedded CentOS appliance.
    EmbeddedCentOs,
    /// Embedded device with no OS evidence.
    EmbeddedUnknown,
    /// CentOS server.
    ServerCentOs,
    /// Windows server (IIS / Microsoft Telnet).
    ServerWindows,
    /// BSD/Unix server.
    ServerUnix,
    /// Firewall appliance.
    Firewall,
    /// IP camera.
    Camera,
    /// Digital video recorder.
    Dvr,
    /// Network-attached storage.
    Nas,
    /// DSL multiplexer.
    Dslam,
    /// Recognizable but uncategorized hardware.
    OtherMisc,
}

/// Fraction of resolvers exposing any TCP service (Sec. 2.4: 26.3%).
pub const TCP_EXPOSED_FRACTION: f64 = 0.263;

/// Cache / utilization profile shares (Sec. 2.6).
pub struct UtilizationPlan {
    /// Cache-snoop NS queries get empty NOERROR answers (7.3%).
    pub empty_answer: f64, // 7.3%
    /// Answers the first snoop query then falls silent (3.3%).
    pub single_then_silent: f64, // 3.3%
    /// TTL never decreases (2.0%, half of the paper's 4.0%).
    pub static_ttl: f64, // 2.0% (half of the 4.0%)
    /// TTL always zero (2.0%).
    pub zero_ttl: f64,
    /// In use with refresh gaps of at most 5 s (38.7%).
    pub frequent: f64, // 38.7% — refresh ≤ 5 s
    /// In use with refresh gaps of minutes-hours (22.9%).
    pub in_use_slow: f64, // 22.9% — refresh in minutes-hours (61.6% total in use)
    /// Resets the TTL to the zone value on every query (19.6%).
    pub ttl_resetter: f64, // 19.6%
    /// TTL decreases slower than wall-clock (4.0%).
    pub slow_decreasing: f64, // 4.0%
                              // Remainder: unreachable during snooping (IP churn).
}

/// The calibrated Sec. 2.6 utilization plan.
pub const UTILIZATION_PLAN: UtilizationPlan = UtilizationPlan {
    empty_answer: 0.073,
    single_then_silent: 0.033,
    static_ttl: 0.020,
    zero_ttl: 0.020,
    frequent: 0.387,
    in_use_slow: 0.229,
    ttl_resetter: 0.196,
    slow_decreasing: 0.040,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_totals_near_paper() {
        let start: u64 = COUNTRY_PLANS.iter().map(|c| c.start).sum();
        let end: u64 = COUNTRY_PLANS.iter().map(|c| c.end).sum();
        assert!((28_000_000..33_000_000).contains(&start), "start={start}");
        // Top 10 countries host ≈49.1% of resolvers (Sec. 2.3).
        let top10: u64 = COUNTRY_PLANS.iter().take(10).map(|c| c.start).sum();
        let share = top10 as f64 / start as f64;
        assert!((0.45..0.54).contains(&share), "top10 share={share}");
        // Overall decline ≈ −33.6% (26.8M → 17.8M).
        let decline = 1.0 - end as f64 / start as f64;
        assert!((0.25..0.40).contains(&decline), "decline={decline}");
    }

    #[test]
    fn top10_matches_table1() {
        assert_eq!(COUNTRY_PLANS[0].code, "US");
        assert_eq!(COUNTRY_PLANS[0].start, 2_958_640);
        assert_eq!(COUNTRY_PLANS[0].end, 2_537_269);
        assert_eq!(COUNTRY_PLANS[5].code, "IN");
        assert!(COUNTRY_PLANS[5].end > COUNTRY_PLANS[5].start, "India grows");
    }

    #[test]
    fn no_duplicate_countries() {
        let mut codes: Vec<&str> = COUNTRY_PLANS.iter().map(|c| c.code).collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }

    #[test]
    fn churn_mix_sums_to_one() {
        let sum: f64 = ChurnClass::mix().iter().map(|(_, s, _)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn behavior_mix_leaves_honest_majority() {
        let sum: f64 = BASE_BEHAVIOR_MIX.iter().map(|(_, s)| s).sum();
        assert!(sum < 0.25, "bogus base too large: {sum}");
        assert!(sum > 0.10, "bogus base too small: {sum}");
    }

    #[test]
    fn censor_plan_has_34_countries_and_299_landing_ips() {
        assert_eq!(CENSOR_PLANS.len(), 34);
        let ips: u32 = CENSOR_PLANS.iter().map(|c| c.landing_ips).sum();
        assert!(
            (280..=320).contains(&ips),
            "landing ips = {ips} (paper: 299)"
        );
        // All censor countries have a population plan.
        for c in CENSOR_PLANS {
            assert!(
                COUNTRY_PLANS.iter().any(|p| p.code == c.code),
                "{} missing population",
                c.code
            );
        }
    }

    #[test]
    fn device_mix_within_tcp_exposed_budget() {
        let sum: f64 = DEVICE_MIX.iter().map(|(_, s)| s).sum();
        assert!(
            sum < 1.0,
            "device mix sums to {sum}, must leave Unknown remainder"
        );
        assert!(sum > 0.8);
    }

    #[test]
    fn utilization_plan_within_reachable_budget() {
        let p = UTILIZATION_PLAN;
        let sum = p.empty_answer
            + p.single_then_silent
            + p.static_ttl
            + p.zero_ttl
            + p.frequent
            + p.in_use_slow
            + p.ttl_resetter
            + p.slow_decreasing;
        // Shares cover (nearly) the whole responding population; the
        // paper's 16.8% snooping non-responders emerge from churn, not
        // from this plan.
        assert!((0.90..1.01).contains(&sum), "sum={sum}");
    }

    #[test]
    fn scaling_helpers() {
        let cfg = WorldConfig::default();
        assert_eq!(cfg.scaled(1000), 1);
        assert_eq!(cfg.scaled_min(100, 1), 1);
        assert_eq!(cfg.scaled(26_800_000), 26_800);
    }
}
