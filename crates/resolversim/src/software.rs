//! DNS server software profiles — what a CHAOS `version.bind` /
//! `version.server` scan sees (Section 2.4, Table 3).

use dnswire::Rcode;

/// How a resolver answers CHAOS version queries. The paper's shares (of
/// 19.9M responding resolvers): 42.7% error for both queries, 4.6%
/// NOERROR with no version, 18.8% administrator-overridden strings,
/// 33.9% genuine software versions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ChaosPolicy {
    /// REFUSED or SERVFAIL for both version queries.
    Error(ChaosErrorKind),
    /// NOERROR with an empty answer section.
    EmptyAnswer,
    /// An administrator-configured string hiding the software.
    Custom(String),
    /// The genuine version string.
    Genuine,
}

/// Which error code the resolver uses for CHAOS queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosErrorKind {
    /// Answers REFUSED.
    Refused,
    /// Answers SERVFAIL.
    ServFail,
}

impl ChaosErrorKind {
    /// The corresponding response code.
    pub fn rcode(self) -> Rcode {
        match self {
            ChaosErrorKind::Refused => Rcode::Refused,
            ChaosErrorKind::ServFail => Rcode::ServFail,
        }
    }
}

/// A concrete DNS server software + version, with the CVE exposure notes
/// the paper reports in Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftwareProfile {
    /// Vendor family, e.g. `"BIND"`.
    pub family: String,
    /// Version string as emitted in `version.bind`, e.g. `"9.8.2"`.
    pub version: String,
    /// How this instance answers CHAOS queries.
    pub chaos: ChaosPolicy,
}

impl SoftwareProfile {
    /// A profile with no CVE annotations.
    pub fn new(family: &str, version: &str, chaos: ChaosPolicy) -> Self {
        SoftwareProfile {
            family: family.to_string(),
            version: version.to_string(),
            chaos,
        }
    }

    /// The string a `version.bind` TXT answer carries, if any.
    pub fn version_bind_answer(&self) -> Option<String> {
        match &self.chaos {
            ChaosPolicy::Genuine => Some(format!("{} {}", self.family, self.version)),
            ChaosPolicy::Custom(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Canonical key for Table 3 aggregation, e.g. `"BIND 9.8.2"`.
    pub fn table_key(&self) -> String {
        format!("{} {}", self.family, self.version)
    }
}

/// The Table 3 Top-10 software versions with their within-leakers shares
/// (the percentages are of resolvers that returned genuine versions).
pub const TABLE3_SOFTWARE: &[(&str, &str, f64, &str)] = &[
    ("BIND", "9.8.2", 0.198, "IP Bypass, DoS, Mem. Corr./Leak."),
    ("BIND", "9.3.6", 0.089, "DoS"),
    ("BIND", "9.7.3", 0.057, "Mem. Overfl., DoS"),
    ("BIND", "9.9.5", 0.052, "DoS"),
    ("Unbound", "1.4.22", 0.048, "Mem. Overfl., DoS"),
    ("Dnsmasq", "2.40", 0.046, "RCE, DoS"),
    ("BIND", "9.8.4", 0.039, "IP Bypass, DoS"),
    ("PowerDNS", "3.5.3", 0.032, "Mem. Overfl."),
    ("Dnsmasq", "2.52", 0.029, "DoS"),
    ("MS DNS", "6.1.7601", 0.025, "DoS"),
];

/// Long-tail versions filling the remaining ~38.5% of leakers, chosen so
/// BIND's overall share lands near the paper's 60.2%.
pub const TAIL_SOFTWARE: &[(&str, &str, f64)] = &[
    ("BIND", "9.9.4", 0.060),
    ("BIND", "9.4.2", 0.045),
    ("BIND", "9.2.4", 0.035),
    ("BIND", "9.10.1", 0.027),
    ("Dnsmasq", "2.45", 0.050),
    ("Dnsmasq", "2.62", 0.040),
    ("Unbound", "1.4.20", 0.035),
    ("PowerDNS", "3.3", 0.030),
    ("MS DNS", "6.0.6002", 0.025),
    ("Nominum Vantio", "5.4.1", 0.020),
    ("ZyWALL DNS", "1.0", 0.018),
];

/// CHAOS policy shares over *all* responding resolvers (Sec. 2.4).
#[derive(Debug, Clone, Copy)]
pub struct ChaosMix {
    /// Share answering errors for both queries.
    pub error: f64,
    /// Share answering NOERROR with no version.
    pub empty: f64,
    /// Share answering administrator strings.
    pub custom: f64,
    /// Share leaking the genuine version.
    pub genuine: f64,
}

/// The paper's observed mix.
pub const PAPER_CHAOS_MIX: ChaosMix = ChaosMix {
    error: 0.427,
    empty: 0.046,
    custom: 0.188,
    genuine: 0.339,
};

/// Administrator strings used for the "arbitrary version strings"
/// population.
pub const CUSTOM_STRINGS: &[&str] = &[
    "none of your business",
    "unknown",
    "dns",
    "get lost",
    "mind your own zone",
    "secured",
    "contact admin@example",
    "surely you must be joking",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genuine_answer_carries_family_and_version() {
        let p = SoftwareProfile::new("BIND", "9.8.2", ChaosPolicy::Genuine);
        assert_eq!(p.version_bind_answer().unwrap(), "BIND 9.8.2");
        assert_eq!(p.table_key(), "BIND 9.8.2");
    }

    #[test]
    fn custom_answer_hides_software() {
        let p = SoftwareProfile::new("BIND", "9.8.2", ChaosPolicy::Custom("unknown".into()));
        assert_eq!(p.version_bind_answer().unwrap(), "unknown");
    }

    #[test]
    fn error_and_empty_answer_nothing() {
        for chaos in [
            ChaosPolicy::Error(ChaosErrorKind::Refused),
            ChaosPolicy::Error(ChaosErrorKind::ServFail),
            ChaosPolicy::EmptyAnswer,
        ] {
            let p = SoftwareProfile::new("BIND", "9.8.2", chaos);
            assert!(p.version_bind_answer().is_none());
        }
    }

    #[test]
    fn table3_shares_sum_below_one() {
        let sum: f64 = TABLE3_SOFTWARE.iter().map(|(_, _, s, _)| s).sum();
        assert!((0.60..0.63).contains(&sum), "top-10 shares sum to {sum}");
        let tail: f64 = TAIL_SOFTWARE.iter().map(|(_, _, s)| s).sum();
        assert!((sum + tail - 1.0).abs() < 0.01, "total {}", sum + tail);
    }

    #[test]
    fn bind_overall_share_near_paper() {
        let bind: f64 = TABLE3_SOFTWARE
            .iter()
            .filter(|(f, _, _, _)| *f == "BIND")
            .map(|(_, _, s, _)| s)
            .chain(
                TAIL_SOFTWARE
                    .iter()
                    .filter(|(f, _, _)| *f == "BIND")
                    .map(|(_, _, s)| s),
            )
            .sum();
        assert!(
            (0.57..0.63).contains(&bind),
            "BIND share {bind} vs paper 0.602"
        );
    }

    #[test]
    fn chaos_mix_sums_to_one() {
        let m = PAPER_CHAOS_MIX;
        assert!((m.error + m.empty + m.custom + m.genuine - 1.0).abs() < 1e-9);
    }
}
