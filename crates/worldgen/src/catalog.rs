//! The scanned-domain catalog: 155 domains in 13 categories (Sec. 3.2)
//! plus the ground-truth domain and the scanner's wildcard zone.
//!
//! Domain names are synthetic (`.example` space) but mirror the paper's
//! composition exactly: 9 Ads, 4 Adult, 20 Alexa, 15 Antivirus,
//! 20 Banking, 3 Dating, 5 Filesharing, 4 Gambling, 13 Malware, 13 MX
//! hostnames (6 providers), 21 NX (8 nonexistent + 5 NX subdomains of
//! popular domains + 8 typo-squats), 5 Tracking, 22 Misc — 154 + GT.

use resolversim::DomainCategory;

/// One catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogDomain {
    /// Lower-case FQDN.
    pub name: String,
    /// Scan category (Table 5 rows).
    pub category: DomainCategory,
    /// Whether the name legitimately exists (NX entries do not).
    pub exists: bool,
    /// Mail hostname (IMAP/POP3/SMTP probing target).
    pub is_mail_host: bool,
    /// Served by a CDN (region-dependent answers).
    pub cdn: bool,
}

impl CatalogDomain {
    fn site(name: &str, category: DomainCategory) -> Self {
        CatalogDomain {
            name: name.to_string(),
            category,
            exists: true,
            is_mail_host: false,
            cdn: false,
        }
    }

    fn cdn_site(name: &str, category: DomainCategory) -> Self {
        CatalogDomain {
            cdn: true,
            ..Self::site(name, category)
        }
    }

    fn mail(name: &str) -> Self {
        CatalogDomain {
            name: name.to_string(),
            category: DomainCategory::Mx,
            exists: true,
            is_mail_host: true,
            cdn: false,
        }
    }

    fn nx(name: &str) -> Self {
        CatalogDomain {
            name: name.to_string(),
            category: DomainCategory::Nx,
            exists: false,
            is_mail_host: false,
            cdn: false,
        }
    }
}

/// The full catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainCatalog {
    /// All scanned domains (154 + ground truth).
    pub domains: Vec<CatalogDomain>,
    /// The measurement team's own domain (AuthNS under our control).
    pub ground_truth: String,
    /// Wildcard zone used by the enumeration scan
    /// (`<random>.<hex-ip>.<scan_zone>`).
    pub scan_zone: String,
}

impl DomainCatalog {
    /// Build the standard catalog.
    pub fn standard() -> Self {
        let mut d = Vec::with_capacity(156);

        // Ads (9).
        for name in [
            "adnet-one.example",
            "adnet-two.example",
            "bannerfarm.example",
            "clicktrace.example",
            "popserve.example",
            "adsyndicate.example",
            "promoload.example",
            "pixelpush.example",
            "admesh.example",
        ] {
            d.push(CatalogDomain::site(name, DomainCategory::Ads));
        }

        // Adult (4).
        for name in [
            "youporn.example",
            "adultfinder.example",
            "nightvid.example",
            "redlounge.example",
        ] {
            d.push(CatalogDomain::site(name, DomainCategory::Adult));
        }

        // Alexa Top 20 (CDN-heavy).
        let alexa = [
            ("google.example", true),
            ("facebook.example", true),
            ("youtube.example", true),
            ("twitter.example", true),
            ("baidu.example", false),
            ("wikipedia.example", true),
            ("amazon.example", true),
            ("qq.example", false),
            ("linkedin.example", true),
            ("taobao.example", false),
            ("blogspot.example", true),
            ("yandexsite.example", false),
            ("bing.example", true),
            ("instagram.example", true),
            ("vk.example", false),
            ("sohu.example", false),
            ("pinterest.example", true),
            ("reddit.example", true),
            ("ebaymain.example", true),
            ("msn.example", true),
        ];
        for (name, cdn) in alexa {
            d.push(if cdn {
                CatalogDomain::cdn_site(name, DomainCategory::Alexa)
            } else {
                CatalogDomain::site(name, DomainCategory::Alexa)
            });
        }

        // Antivirus / protection vendors (15).
        for i in 1..=13 {
            d.push(CatalogDomain::site(
                &format!("avvendor{i:02}.example"),
                DomainCategory::Antivirus,
            ));
        }
        d.push(CatalogDomain::site(
            "update.avvendor01.example",
            DomainCategory::Antivirus,
        ));
        d.push(CatalogDomain::site(
            "sigs.avvendor02.example",
            DomainCategory::Antivirus,
        ));

        // Banking / payment (20).
        let banks = [
            "paypal.example",
            "alipay.example",
            "ebaypay.example",
            "chasebank.example",
            "hsbcbank.example",
            "santanderbank.example",
            "unicreditbank.example",
            "bancaditalia.example",
            "deutschebank.example",
            "wellsbank.example",
            "citigroupbank.example",
            "barclaysbank.example",
            "bnpbank.example",
            "ingbank.example",
            "ubsbank.example",
            "sberbank.example",
            "itaubank.example",
            "icbcbank.example",
            "mizuhobank.example",
            "visacards.example",
        ];
        for name in banks {
            d.push(CatalogDomain::site(name, DomainCategory::Banking));
        }

        // Dating (3).
        for name in ["matchme.example", "okcupid.example", "loveconnect.example"] {
            d.push(CatalogDomain::site(name, DomainCategory::Dating));
        }

        // Filesharing (5).
        for name in [
            "kickass.example",
            "thepiratebay.example",
            "torproject.example",
            "rapidload.example",
            "megashare.example",
        ] {
            d.push(CatalogDomain::site(name, DomainCategory::Filesharing));
        }

        // Gambling (4).
        for name in [
            "bet-at-home.example",
            "pokerstars.example",
            "luckyspin.example",
            "oddsmaker.example",
        ] {
            d.push(CatalogDomain::site(name, DomainCategory::Gambling));
        }

        // Malware (13; the first two are the lapsed Chinese domains that
        // now point at parking providers, cf. Sec. 4.2 "Parking").
        for name in [
            "cn-dropzone.example",
            "cn-cmdhost.example",
            "irc.zief.example",
            "botcnc1.example",
            "botcnc2.example",
            "exploitkit.example",
            "drivebyhost.example",
            "spamgate.example",
            "fakeavpush.example",
            "trojandrop.example",
            "wormrelay.example",
            "dgaseed.example",
            "maldistrib.example",
        ] {
            d.push(CatalogDomain::site(name, DomainCategory::Malware));
        }

        // MX hostnames: 13 across 6 providers (Sec. 3.2).
        for name in [
            "smtp.gmail.example",
            "imap.gmail.example",
            "pop.gmail.example",
            "smtp.outlook.example",
            "imap.outlook.example",
            "smtp.yahoo.example",
            "imap.yahoo.example",
            "smtp.yandex.example",
            "imap.yandex.example",
            "pop.yandex.example",
            "smtp.aim.example",
            "imap.mailme.example",
            "smtp.mailme.example",
        ] {
            d.push(CatalogDomain::mail(name));
        }

        // NX: 8 nonexistent + 5 NX subdomains + 8 typos (21).
        for name in [
            "qzxkjv.example",
            "nxprobe1.example",
            "nxprobe2.example",
            "nxprobe3.example",
            "nxprobe4.example",
            "nxprobe5.example",
            "nxprobe6.example",
            "nxprobe7.example",
            "rswkllf.twitter.example",
            "zzz9.facebook.example",
            "qqq1.google.example",
            "xvx.wikipedia.example",
            "nxsub.amazon.example",
            "amason.example",
            "ghoogle.example",
            "wikipeida.example",
            "facebok.example",
            "tvitter.example",
            "youtubee.example",
            "paypaal.example",
            "amazonn.example",
        ] {
            d.push(CatalogDomain::nx(name));
        }

        // Tracking (5).
        for name in [
            "bluecava-track.example",
            "threatmetrix-track.example",
            "fingerprintjs.example",
            "beaconstat.example",
            "sessionpeek.example",
        ] {
            d.push(CatalogDomain::site(name, DomainCategory::Tracking));
        }

        // Miscellaneous (22): update servers, intelligence agencies,
        // OAuth services, individual sites.
        for name in [
            "update.adobe.example",
            "update.windows.example",
            "update.java.example",
            "update.chrome.example",
            "update.firefox.example",
            "update.flashplayer.example",
            "nsa-agency.example",
            "gchq-agency.example",
            "mossad-agency.example",
            "oauth.amazon.example",
            "oauth.google.example",
            "oauth.twitter.example",
            "rotten.example",
            "wikileaks.example",
            "pastebin.example",
            "archive.example",
            "newsportal.example",
            "weatherhub.example",
            "cryptoforum.example",
            "translate.example",
            "mapservice.example",
            "stockticker.example",
        ] {
            d.push(CatalogDomain::site(name, DomainCategory::Misc));
        }

        DomainCatalog {
            domains: d,
            ground_truth: "gt.gwild.example".to_string(),
            scan_zone: "scan.gwild.example".to_string(),
        }
    }

    /// Number of scannable domains (including GT).
    pub fn total_with_gt(&self) -> usize {
        self.domains.len() + 1
    }

    /// Domains of one category.
    pub fn in_category(&self, c: DomainCategory) -> Vec<&CatalogDomain> {
        self.domains.iter().filter(|d| d.category == c).collect()
    }

    /// The domain names a censorship case study keys on.
    pub fn social_media(&self) -> [&'static str; 3] {
        ["facebook.example", "twitter.example", "youtube.example"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_matches_paper() {
        let c = DomainCatalog::standard();
        let count = |cat| c.in_category(cat).len();
        assert_eq!(count(DomainCategory::Ads), 9);
        assert_eq!(count(DomainCategory::Adult), 4);
        assert_eq!(count(DomainCategory::Alexa), 20);
        assert_eq!(count(DomainCategory::Antivirus), 15);
        assert_eq!(count(DomainCategory::Banking), 20);
        assert_eq!(count(DomainCategory::Dating), 3);
        assert_eq!(count(DomainCategory::Filesharing), 5);
        assert_eq!(count(DomainCategory::Gambling), 4);
        assert_eq!(count(DomainCategory::Malware), 13);
        assert_eq!(count(DomainCategory::Mx), 13);
        assert_eq!(count(DomainCategory::Nx), 21);
        assert_eq!(count(DomainCategory::Tracking), 5);
        assert_eq!(count(DomainCategory::Misc), 22);
        assert_eq!(c.domains.len(), 154);
        assert_eq!(c.total_with_gt(), 155);
    }

    #[test]
    fn names_unique_and_lowercase() {
        let c = DomainCatalog::standard();
        let mut names: Vec<&str> = c.domains.iter().map(|d| d.name.as_str()).collect();
        names.push(&c.ground_truth);
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate catalog names");
        assert!(names.iter().all(|n| *n == n.to_ascii_lowercase()));
    }

    #[test]
    fn nx_entries_do_not_exist() {
        let c = DomainCatalog::standard();
        assert!(c.in_category(DomainCategory::Nx).iter().all(|d| !d.exists));
        assert!(c
            .in_category(DomainCategory::Banking)
            .iter()
            .all(|d| d.exists));
    }

    #[test]
    fn mail_hosts_flagged() {
        let c = DomainCatalog::standard();
        assert!(c
            .in_category(DomainCategory::Mx)
            .iter()
            .all(|d| d.is_mail_host));
        assert_eq!(
            c.domains.iter().filter(|d| d.is_mail_host).count(),
            13,
            "only MX entries are mail hosts"
        );
    }

    #[test]
    fn social_media_present_in_alexa() {
        let c = DomainCatalog::standard();
        for s in c.social_media() {
            assert!(
                c.domains
                    .iter()
                    .any(|d| d.name == s && d.category == DomainCategory::Alexa),
                "{s}"
            );
        }
    }

    #[test]
    fn cdn_flag_only_on_existing_sites() {
        let c = DomainCatalog::standard();
        assert!(c.domains.iter().filter(|d| d.cdn).all(|d| d.exists));
        assert!(c.domains.iter().any(|d| d.cdn), "catalog needs CDN domains");
    }
}
