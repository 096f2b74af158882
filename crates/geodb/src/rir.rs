//! Regional Internet Registries and the country→RIR mapping used by
//! Table 2.

use crate::country::Country;
use std::fmt;

/// The five Regional Internet Registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rir {
    /// RIPE NCC — Europe, Middle East, Central Asia.
    Ripe,
    /// APNIC — Asia-Pacific.
    Apnic,
    /// LACNIC — Latin America and the Caribbean.
    Lacnic,
    /// ARIN — North America.
    Arin,
    /// AFRINIC — Africa.
    Afrinic,
}

impl Rir {
    /// All registries, in the paper's Table 2 row order.
    pub const ALL: [Rir; 5] = [Rir::Ripe, Rir::Apnic, Rir::Lacnic, Rir::Arin, Rir::Afrinic];

    /// Registry responsible for a country. The mapping covers every
    /// country the synthetic world generates plus a continental default
    /// for anything else (first letter buckets are *not* meaningful; the
    /// fallback is ARIN to keep the function total).
    pub fn for_country(c: Country) -> Rir {
        match c.as_str() {
            // RIPE NCC: Europe, Middle East, parts of Central Asia.
            "TR" | "IT" | "DE" | "FR" | "GB" | "RU" | "PL" | "NL" | "ES" | "SE" | "GR" | "BE"
            | "UA" | "RO" | "CZ" | "IR" | "LB" | "EE" | "CH" | "AT" | "PT" | "HU" => Rir::Ripe,
            // APNIC: Asia-Pacific.
            "CN" | "VN" | "IN" | "TH" | "TW" | "KR" | "JP" | "ID" | "MY" | "AU" | "PH" | "BD"
            | "PK" | "HK" | "SG" | "MN" | "NZ" => Rir::Apnic,
            // LACNIC: Latin America and the Caribbean.
            "MX" | "CO" | "AR" | "BR" | "CL" | "PE" | "VE" | "EC" | "UY" | "BO" | "PY" => {
                Rir::Lacnic
            }
            // ARIN: North America.
            "US" | "CA" => Rir::Arin,
            // AFRINIC: Africa.
            "EG" | "DZ" | "ZA" | "NG" | "MA" | "TN" | "KE" | "GH" => Rir::Afrinic,
            _ => Rir::Arin,
        }
    }

    /// Display name matching the paper's Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Rir::Ripe => "RIPE",
            Rir::Apnic => "APNIC",
            Rir::Lacnic => "LACNIC",
            Rir::Arin => "ARIN",
            Rir::Afrinic => "AFRINIC",
        }
    }
}

impl fmt::Display for Rir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_top10_countries_map_correctly() {
        // Table 1's Top 10: US CN TR VN MX IN TH IT CO TW.
        let cases = [
            ("US", Rir::Arin),
            ("CN", Rir::Apnic),
            ("TR", Rir::Ripe),
            ("VN", Rir::Apnic),
            ("MX", Rir::Lacnic),
            ("IN", Rir::Apnic),
            ("TH", Rir::Apnic),
            ("IT", Rir::Ripe),
            ("CO", Rir::Lacnic),
            ("TW", Rir::Apnic),
        ];
        for (code, rir) in cases {
            assert_eq!(Rir::for_country(Country::new(code)), rir, "{code}");
        }
    }

    #[test]
    fn unknown_country_gets_total_fallback() {
        assert_eq!(Rir::for_country(Country::new("ZZ")), Rir::Arin);
    }

    #[test]
    fn names_match_table2() {
        let names: Vec<_> = Rir::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, vec!["RIPE", "APNIC", "LACNIC", "ARIN", "AFRINIC"]);
    }
}
