//! Scalar protocol enumerations: record types, classes, opcodes, rcodes.

/// DNS resource-record type (the TYPE / QTYPE field).
///
/// Only the types exercised by the *Going Wild* measurement get named
/// variants; everything else is preserved verbatim in [`RecordType::Other`]
/// so unknown records survive a decode/encode round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address (the workhorse of the study).
    A,
    /// Authoritative name server — used by the cache-snooping campaign.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer — reverse DNS.
    Ptr,
    /// Mail exchange.
    Mx,
    /// Text record — carries `version.bind` CHAOS answers.
    Txt,
    /// IPv6 host address (decoded for completeness; the study is IPv4-only).
    Aaaa,
    /// EDNS0 OPT pseudo-record (RFC 6891).
    Opt,
    /// `ANY` query meta-type.
    Any,
    /// Any type this crate does not model structurally.
    Other(u16),
}

impl RecordType {
    /// Wire value of this type.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Any => 255,
            RecordType::Other(v) => v,
        }
    }

    /// Parse a wire value, collapsing to [`RecordType::Other`] when unknown.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            255 => RecordType::Any,
            other => RecordType::Other(other),
        }
    }
}

/// DNS class. `IN` for ordinary resolution, `CH` (CHAOS) for the
/// `version.bind` software-fingerprinting scan of Section 2.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// Internet.
    In,
    /// CHAOS — `version.bind` / `version.server` fingerprinting.
    Ch,
    /// Hesiod (decoded only).
    Hs,
    /// `ANY` query meta-class.
    Any,
    /// Unmodelled class, preserved verbatim.
    Other(u16),
}

impl RecordClass {
    /// Wire value of this class.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
            RecordClass::Hs => 4,
            RecordClass::Any => 255,
            RecordClass::Other(v) => v,
        }
    }

    /// Parse a wire value, collapsing to [`RecordClass::Other`].
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            3 => RecordClass::Ch,
            4 => RecordClass::Hs,
            255 => RecordClass::Any,
            other => RecordClass::Other(other),
        }
    }
}

/// Header OPCODE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete, decoded only).
    IQuery,
    /// Server status request.
    Status,
    /// Anything else (NOTIFY, UPDATE, ...).
    Other(u8),
}

impl Opcode {
    /// Wire value (low nibble).
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Other(v) => v & 0x0f,
        }
    }

    /// Parse from the opcode nibble.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            other => Opcode::Other(other),
        }
    }
}

/// Response code (RCODE). The study's weekly scans bucket resolvers by
/// exactly these statuses (Figure 1: `NOERROR`, `REFUSED`, `SERVFAIL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rcode {
    /// Successful response.
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Query kind not implemented.
    NotImp,
    /// Policy refusal.
    Refused,
    /// Any extended or unassigned code.
    Other(u8),
}

impl Rcode {
    /// Wire value (low nibble).
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0f,
        }
    }

    /// Parse from the RCODE nibble.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }

    /// Human-readable mnemonic matching the paper's figures.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Rcode::NoError => "NOERROR",
            Rcode::FormErr => "FORMERR",
            Rcode::ServFail => "SERVFAIL",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::NotImp => "NOTIMP",
            Rcode::Refused => "REFUSED",
            Rcode::Other(_) => "OTHER",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_round_trips() {
        for v in 0..512u16 {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn record_class_round_trips() {
        for v in 0..300u16 {
            assert_eq!(RecordClass::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn rcode_round_trips_low_nibble() {
        for v in 0..16u8 {
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn opcode_round_trips_low_nibble() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn known_wire_values() {
        assert_eq!(RecordType::A.to_u16(), 1);
        assert_eq!(RecordType::Ns.to_u16(), 2);
        assert_eq!(RecordType::Txt.to_u16(), 16);
        assert_eq!(RecordType::Aaaa.to_u16(), 28);
        assert_eq!(RecordClass::Ch.to_u16(), 3);
        assert_eq!(Rcode::Refused.to_u8(), 5);
    }

    #[test]
    fn mnemonics_match_paper_labels() {
        assert_eq!(Rcode::NoError.mnemonic(), "NOERROR");
        assert_eq!(Rcode::ServFail.mnemonic(), "SERVFAIL");
        assert_eq!(Rcode::Refused.mnemonic(), "REFUSED");
    }
}
