//! Device and software fingerprinting (Sec. 2.4, Tables 3–4).
//!
//! The paper hand-compiled >2,245 regular expressions against banner
//! corpora. This reproduction carries a token-rule table with the same
//! *structure* (token → device class + OS attribution); the table is
//! data, so extending it is adding rows, not code.

use scanner::BannerObservation;

/// Hardware category (Table 4, hardware columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceClass {
    /// Routers, modems, gateways.
    Router,
    /// Embedded OSes / boards (GoAhead, RomPager, Arduino, RPi).
    Embedded,
    /// Firewall appliances.
    Firewall,
    /// IP cameras.
    Camera,
    /// Digital video recorders.
    Dvr,
    /// Network-attached storage.
    Nas,
    /// ISP DSL multiplexers.
    Dslam,
    /// Recognizable but uncategorized (servers, appliances).
    Other,
    /// Host exposes no TCP services (73.7% of resolvers) or nothing
    /// recognizable.
    Unknown,
}

impl DeviceClass {
    /// Table 4 column label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::Router => "Router",
            DeviceClass::Embedded => "Embedded",
            DeviceClass::Firewall => "Firewall",
            DeviceClass::Camera => "Camera",
            DeviceClass::Dvr => "DVR",
            DeviceClass::Nas => "NAS",
            DeviceClass::Dslam => "DSLAM",
            DeviceClass::Other => "Others",
            DeviceClass::Unknown => "Unknown",
        }
    }
}

/// Operating system category (Table 4, OS columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceOs {
    /// Generic Linux.
    Linux,
    /// ZyXEL's CPE firmware.
    ZyNos,
    /// CentOS servers.
    CentOs,
    /// BSD/other Unix.
    Unix,
    /// Microsoft Windows.
    Windows,
    /// Patton SmartWare CPE firmware.
    SmartWare,
    /// MikroTik RouterOS.
    RouterOs,
    /// Recognizable but uncategorized.
    Other,
    /// No OS evidence.
    Unknown,
}

impl DeviceOs {
    /// Table 4 column label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceOs::Linux => "Linux",
            DeviceOs::ZyNos => "ZyNOS",
            DeviceOs::CentOs => "CentOS",
            DeviceOs::Unix => "Unix",
            DeviceOs::Windows => "Windows",
            DeviceOs::SmartWare => "SmartWare",
            DeviceOs::RouterOs => "RouterOS",
            DeviceOs::Other => "Others",
            DeviceOs::Unknown => "Unknown",
        }
    }
}

/// A fingerprint rule: if the corpus contains `token` (case-insensitive),
/// attribute the class/OS. Earlier rules win.
pub struct FingerprintRule {
    /// Case-insensitive substring to match.
    pub token: &'static str,
    /// Hardware class the token implies.
    pub class: Option<DeviceClass>,
    /// Operating system the token implies.
    pub os: Option<DeviceOs>,
}

/// The rule table. Ordering encodes specificity: exact device tokens
/// first, generic OS tokens last.
pub const RULES: &[FingerprintRule] = &[
    // Specific devices (the paper's worked example first).
    FingerprintRule {
        token: "dm500plus login",
        class: Some(DeviceClass::Dvr),
        os: Some(DeviceOs::Linux),
    },
    FingerprintRule {
        token: "zynos",
        class: Some(DeviceClass::Router),
        os: Some(DeviceOs::ZyNos),
    },
    FingerprintRule {
        token: "zyrouter",
        class: Some(DeviceClass::Router),
        os: Some(DeviceOs::ZyNos),
    },
    FingerprintRule {
        token: "rompager",
        class: Some(DeviceClass::Router),
        os: None,
    },
    FingerprintRule {
        token: "smartware",
        class: Some(DeviceClass::Router),
        os: Some(DeviceOs::SmartWare),
    },
    FingerprintRule {
        token: "routeros",
        class: Some(DeviceClass::Router),
        os: Some(DeviceOs::RouterOs),
    },
    FingerprintRule {
        token: "mikrotik",
        class: Some(DeviceClass::Router),
        os: Some(DeviceOs::RouterOs),
    },
    FingerprintRule {
        token: "adsl router",
        class: Some(DeviceClass::Router),
        os: None,
    },
    FingerprintRule {
        token: "router login",
        class: Some(DeviceClass::Router),
        os: None,
    },
    FingerprintRule {
        token: "netcam",
        class: Some(DeviceClass::Camera),
        os: None,
    },
    FingerprintRule {
        token: "network camera",
        class: Some(DeviceClass::Camera),
        os: None,
    },
    FingerprintRule {
        token: "dvr-webs",
        class: Some(DeviceClass::Dvr),
        os: None,
    },
    FingerprintRule {
        token: "nas4you",
        class: Some(DeviceClass::Nas),
        os: None,
    },
    FingerprintRule {
        token: "dslam",
        class: Some(DeviceClass::Dslam),
        os: None,
    },
    FingerprintRule {
        token: "fortresswall",
        class: Some(DeviceClass::Firewall),
        os: None,
    },
    FingerprintRule {
        token: "goahead-webs",
        class: Some(DeviceClass::Embedded),
        os: None,
    },
    FingerprintRule {
        token: "arduino",
        class: Some(DeviceClass::Embedded),
        os: None,
    },
    FingerprintRule {
        token: "raspberry",
        class: Some(DeviceClass::Embedded),
        os: None,
    },
    // OS attribution.
    FingerprintRule {
        token: "centos",
        class: None,
        os: Some(DeviceOs::CentOs),
    },
    FingerprintRule {
        token: "dropbear",
        class: None,
        os: Some(DeviceOs::Linux),
    },
    FingerprintRule {
        token: "(linux)",
        class: None,
        os: Some(DeviceOs::Linux),
    },
    FingerprintRule {
        token: "linux",
        class: None,
        os: Some(DeviceOs::Linux),
    },
    FingerprintRule {
        token: "freebsd",
        class: None,
        os: Some(DeviceOs::Unix),
    },
    FingerprintRule {
        token: "(unix)",
        class: None,
        os: Some(DeviceOs::Unix),
    },
    FingerprintRule {
        token: "microsoft-iis",
        class: None,
        os: Some(DeviceOs::Windows),
    },
    FingerprintRule {
        token: "microsoft telnet",
        class: None,
        os: Some(DeviceOs::Windows),
    },
    // Server-ish devices: IIS/Apache boxes with no device token.
    FingerprintRule {
        token: "vsftpd",
        class: None,
        os: Some(DeviceOs::Linux),
    },
];

/// The fingerprinting result for one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFingerprint {
    /// Hardware class.
    pub class: DeviceClass,
    /// Operating system.
    pub os: DeviceOs,
}

/// Fingerprint one banner corpus.
pub fn fingerprint_device(obs: &BannerObservation) -> DeviceFingerprint {
    let corpus = obs.corpus().to_ascii_lowercase();
    let mut class = None;
    let mut os = None;
    for rule in RULES {
        if corpus.contains(rule.token) {
            if class.is_none() && rule.class.is_some() {
                class = rule.class;
            }
            if os.is_none() && rule.os.is_some() {
                os = rule.os;
            }
            if class.is_some() && os.is_some() {
                break;
            }
        }
    }
    // Hosts with recognizable server software but no device token stay
    // "Unknown" hardware — Table 4's large Unknown column is exactly
    // these (the paper could name the OS but not the box).
    let class = class.unwrap_or(DeviceClass::Unknown);
    DeviceFingerprint {
        class,
        os: os.unwrap_or(DeviceOs::Unknown),
    }
}

/// Classification of a CHAOS version string (Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoftwareClass {
    /// Recognized `family version` pair.
    Known {
        /// Software family, e.g. `"BIND"`.
        family: String,
        /// Version string.
        version: String,
    },
    /// A string that matches no known DNS software pattern —
    /// administrator-configured hiding (18.8% in the paper).
    Custom(String),
}

/// Known DNS software families and a loose version-shape check.
const FAMILIES: &[&str] = &[
    "BIND",
    "Unbound",
    "Dnsmasq",
    "PowerDNS",
    "MS DNS",
    "Nominum Vantio",
    "ZyWALL DNS",
];

/// Classify a `version.bind` answer string.
pub fn classify_version(s: &str) -> SoftwareClass {
    let trimmed = s.trim();
    for family in FAMILIES {
        if let Some(rest) = trimmed.strip_prefix(family) {
            let version = rest.trim();
            // A version must look like digits-and-dots.
            if !version.is_empty()
                && version.chars().all(|c| {
                    c.is_ascii_digit() || c == '.' || c == '-' || c.is_ascii_alphanumeric()
                })
                && version.chars().next().unwrap().is_ascii_digit()
            {
                return SoftwareClass::Known {
                    family: family.to_string(),
                    version: version.to_string(),
                };
            }
        }
    }
    // Bare "9.8.2"-style answers are BIND by convention.
    if !trimmed.is_empty()
        && trimmed.chars().next().unwrap().is_ascii_digit()
        && trimmed.chars().all(|c| c.is_ascii_digit() || c == '.')
        && trimmed.contains('.')
    {
        return SoftwareClass::Known {
            family: "BIND".to_string(),
            version: trimmed.to_string(),
        };
    }
    SoftwareClass::Custom(trimmed.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(banners: &[(u16, &str)], http: Option<&str>) -> BannerObservation {
        BannerObservation {
            banners: banners.iter().map(|(p, s)| (*p, s.to_string())).collect(),
            http_body: http.map(|s| s.to_string()),
        }
    }

    #[test]
    fn paper_worked_example() {
        let o = obs(&[(23, "dm500plus login: unit42")], None);
        let f = fingerprint_device(&o);
        assert_eq!(f.class, DeviceClass::Dvr);
        assert_eq!(f.os, DeviceOs::Linux);
    }

    #[test]
    fn zynos_router() {
        let o = obs(
            &[(21, "220 ZyRouter FTP version 1.0 ready (ZyNOS) S/N 99")],
            None,
        );
        let f = fingerprint_device(&o);
        assert_eq!(f.class, DeviceClass::Router);
        assert_eq!(f.os, DeviceOs::ZyNos);
    }

    #[test]
    fn http_body_contributes() {
        let o = obs(
            &[],
            Some("<html><title>ZyRouter ZR-660 Web Configuration</title>..."),
        );
        let f = fingerprint_device(&o);
        assert_eq!(f.class, DeviceClass::Router);
    }

    #[test]
    fn os_only_hosts_have_unknown_hardware() {
        let o = obs(&[(22, "SSH-2.0-OpenSSH_5.3 CentOS")], None);
        let f = fingerprint_device(&o);
        assert_eq!(f.class, DeviceClass::Unknown);
        assert_eq!(f.os, DeviceOs::CentOs);
    }

    #[test]
    fn unrecognized_banners_unknown() {
        let o = obs(&[(21, "220 service ready (777)")], None);
        let f = fingerprint_device(&o);
        assert_eq!(f.class, DeviceClass::Unknown);
        assert_eq!(f.os, DeviceOs::Unknown);
    }

    #[test]
    fn version_strings_classified() {
        assert_eq!(
            classify_version("BIND 9.8.2"),
            SoftwareClass::Known {
                family: "BIND".into(),
                version: "9.8.2".into()
            }
        );
        assert_eq!(
            classify_version("Dnsmasq 2.52"),
            SoftwareClass::Known {
                family: "Dnsmasq".into(),
                version: "2.52".into()
            }
        );
        assert_eq!(
            classify_version("9.9.5"),
            SoftwareClass::Known {
                family: "BIND".into(),
                version: "9.9.5".into()
            }
        );
        assert_eq!(
            classify_version("none of your business"),
            SoftwareClass::Custom("none of your business".into())
        );
        assert_eq!(
            classify_version("get lost"),
            SoftwareClass::Custom("get lost".into())
        );
    }

    #[test]
    fn decoy_numeric_strings() {
        // "9.9.9" is a decoy in our custom list, but indistinguishable
        // from a real BIND version — the paper has the same ambiguity;
        // it lands in Known (conservative over-attribution).
        assert!(matches!(
            classify_version("9.9.9"),
            SoftwareClass::Known { .. }
        ));
    }
}
