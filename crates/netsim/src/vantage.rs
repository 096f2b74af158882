//! What a measurement vantage on the simulated Internet sees: the wire,
//! the clock, the databases the paper's authors bought, and their own
//! scan plan (Secs. 2–3). The scanner's campaigns take nothing else, so
//! they cannot read what a world planted. The trait lives here, below
//! both the world that implements it and the scanner that uses it.

use crate::{Network, SimTime};
use std::net::Ipv4Addr;

/// A vantage on a simulated Internet.
pub trait Vantage {
    /// The wire: every exchange — UDP probes, the TCP banner grab, the
    /// HTTP(S)/mail fetch — is a datagram or a TCP request through it.
    fn net(&mut self) -> &mut Network;

    /// The world's clock, which pumping [`Vantage::net`] does not move.
    fn now(&self) -> SimTime;

    /// Let the world live until `t`: churn, leases and lifecycle events.
    fn advance_to(&mut self, t: SimTime);

    /// The AS of the resolver behind `ip`, 0 if none is known: what the
    /// flight recorder stamps on a probe of `ip`.
    fn asn(&self, ip: Ipv4Addr) -> u32;

    /// The bought rDNS database on `ip`: `None` without a record, else
    /// whether the name carries a dynamic-assignment token.
    fn rdns_dynamic(&self, ip: Ipv4Addr) -> Option<bool>;

    /// What the measurer set out to scan.
    fn plan(&self) -> ScanPlan<'_>;
}

/// The scan plan, fixed before the first probe (Secs. 2.2, 2.6).
pub struct ScanPlan<'a> {
    /// The zone whose names spell the enumeration's targets.
    pub zone: &'a str,
    /// Every address range the enumeration walks.
    pub ranges: &'a [(Ipv4Addr, Ipv4Addr)],
    /// Opt-out ranges and single addresses, never probed.
    pub blacklist: (&'a [(Ipv4Addr, Ipv4Addr)], &'a [Ipv4Addr]),
    /// The snooped TLDs with their authoritative NS TTLs, in order.
    pub tlds: Vec<(&'a str, u32)>,
}
