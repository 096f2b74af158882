//! The assembled [`World`] and its evolution over the study year.

use crate::catalog::DomainCatalog;
use crate::plan::{BehaviorKind, ChurnClass, DeviceClassPlan, WorldConfig};
use geodb::{Country, GeoDb, RdnsDb};
use netsim::{HostId, LeasePool, Network, ScanPlan, SimTime, Vantage};
use resolversim::{Alive, DnsUniverse, SoftwareProfile};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Response class a resolver exhibits in the weekly enumeration scan
/// (Figure 1's series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResponseClass {
    /// Answers enumeration probes with NOERROR.
    NoError,
    /// Answers with REFUSED.
    Refused,
    /// Answers with SERVFAIL.
    ServFail,
}

/// Ground-truth record for one resolver — what the generator decided.
/// The measurement pipeline never reads this; experiments use it to
/// validate recovered distributions.
#[derive(Debug, Clone)]
pub struct ResolverMeta {
    /// Simulator host handle.
    pub host: HostId,
    /// Country the resolver lives in.
    pub country: Country,
    /// Originating AS number.
    pub asn: u32,
    /// Planted DNS behaviour.
    pub behavior: BehaviorKind,
    /// Figure 1 response class.
    pub response_class: ResponseClass,
    /// IP churn class (Figure 2).
    pub churn: ChurnClass,
    /// TCP device template, if the host exposes TCP services.
    pub device: Option<DeviceClassPlan>,
    /// `"BIND 9.8.2"`-style key if the CHAOS scan can learn it — one
    /// string per distinct profile, shared.
    pub software_key: Arc<str>,
    /// Whether CHAOS queries reveal the genuine version.
    pub chaos_genuine: bool,
    /// Week the resolver first appears (0 = present at study start).
    pub spawn_week: u32,
    /// Week the resolver permanently disappears, if any.
    pub retire_week: Option<u32>,
    /// Address at world-build time (changes with churn).
    pub initial_ip: Ipv4Addr,
    /// Liveness switch shared with the simulated host.
    pub alive: Alive,
}

/// Index of the special-purpose infrastructure the generator placed —
/// the oracle against which classification output is validated.
#[derive(Debug, Clone)]
pub struct InfraIndex {
    /// Censorship landing pages per country code.
    pub landing_ips: BTreeMap<String, Vec<Ipv4Addr>>,
    /// Domain-parking landers.
    pub parking_ips: Vec<Ipv4Addr>,
    /// Search-engine redirect targets.
    pub search_ips: Vec<Ipv4Addr>,
    /// HTTP-error-only hosts.
    pub error_ips: Vec<Ipv4Addr>,
    /// Captive-portal login hosts.
    pub portal_ips: Vec<Ipv4Addr>,
    /// Unrelated static sites used by StaticMisc redirectors.
    pub misc_site_ips: Vec<Ipv4Addr>,
    /// Security/parental blocking pages.
    pub blockpage_ips: Vec<Ipv4Addr>,
    /// TLS-capable transparent proxies.
    pub proxy_tls_ips: Vec<Ipv4Addr>,
    /// HTTP-only transparent proxies.
    pub proxy_http_ips: Vec<Ipv4Addr>,
    /// Phishing kits and bank clones.
    pub phish_ips: Vec<Ipv4Addr>,
    /// Ad hosts substituting banner creatives.
    pub ad_banner_ips: Vec<Ipv4Addr>,
    /// Ad hosts injecting scripts.
    pub ad_script_ips: Vec<Ipv4Addr>,
    /// Ad hosts serving blank creatives.
    pub ad_blank_ips: Vec<Ipv4Addr>,
    /// Ad-laden fake search engines.
    pub ad_fake_search_ips: Vec<Ipv4Addr>,
    /// Legitimate mail-provider hosts per MX hostname.
    pub mail_legit_ips: BTreeMap<String, Vec<Ipv4Addr>>,
    /// Banner-mimicking mail interception relays.
    pub mail_intercept_ips: Vec<Ipv4Addr>,
    /// Full mail-provider clones.
    pub mail_clone_ips: Vec<Ipv4Addr>,
    /// Fake Flash/Java update droppers.
    pub malware_update_ips: Vec<Ipv4Addr>,
    /// Default-certificate common names of the modelled CDN providers —
    /// the whitelist the prefilter's certificate stage uses (Sec. 3.4).
    pub cdn_default_cns: Vec<String>,
    /// The measurement AuthNS answering the scan zone.
    pub authns_ip: Ipv4Addr,
    /// Oracle: legitimate IPs per catalog domain.
    pub legit_ips: BTreeMap<String, Vec<Ipv4Addr>>,
}

impl Default for InfraIndex {
    fn default() -> Self {
        InfraIndex {
            landing_ips: BTreeMap::new(),
            parking_ips: Vec::new(),
            search_ips: Vec::new(),
            error_ips: Vec::new(),
            portal_ips: Vec::new(),
            misc_site_ips: Vec::new(),
            blockpage_ips: Vec::new(),
            proxy_tls_ips: Vec::new(),
            proxy_http_ips: Vec::new(),
            phish_ips: Vec::new(),
            ad_banner_ips: Vec::new(),
            ad_script_ips: Vec::new(),
            ad_blank_ips: Vec::new(),
            ad_fake_search_ips: Vec::new(),
            mail_legit_ips: BTreeMap::new(),
            mail_intercept_ips: Vec::new(),
            mail_clone_ips: Vec::new(),
            malware_update_ips: Vec::new(),
            cdn_default_cns: Vec::new(),
            authns_ip: Ipv4Addr::UNSPECIFIED,
            legit_ips: BTreeMap::new(),
        }
    }
}

/// Aggregate world statistics (cheap to compute, used by reports).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Total resolvers placed (all response classes).
    pub resolvers: usize,
    /// Total web/mail/infrastructure hosts placed.
    pub web_hosts: usize,
    /// DHCP lease pools created.
    pub pools: usize,
    /// Countries with at least one resolver.
    pub countries: usize,
}

/// The populated, evolving Internet.
pub struct World {
    /// The configuration the world was built from.
    pub cfg: WorldConfig,
    /// The packet-level simulator.
    pub net: Network,
    /// Authoritative DNS data.
    pub universe: Arc<DnsUniverse>,
    /// IP-to-country/AS database. Built once and never written again,
    /// so whoever needs it beside a `&mut World` clones the pointer.
    pub geo: Arc<GeoDb>,
    /// Reverse-DNS database (shared the same way).
    pub rdns: Arc<RdnsDb>,
    /// The scanned-domain catalog.
    pub catalog: DomainCatalog,
    /// Ground-truth record per resolver, in `HostId` order (the order
    /// hosts were built in): [`World::resolver_at`] searches it by host.
    pub resolvers: Vec<ResolverMeta>,
    /// Oracle index of planted infrastructure.
    pub infra: InfraIndex,
    /// Aggregate counts.
    pub stats: WorldStats,
    /// Every distinct software profile with its Table 3 key; resolvers
    /// share these.
    profiles: Vec<(Arc<SoftwareProfile>, Arc<str>)>,
    pub(crate) pools: Vec<LeasePool>,
    /// Allocated address ranges — the scannable universe.
    pub(crate) allocated: Vec<(Ipv4Addr, Ipv4Addr)>,
    /// Opt-out blacklist (Sec. 2.2): ranges and single addresses whose
    /// operators asked to be excluded from scanning.
    pub blacklist_ranges: Vec<(Ipv4Addr, Ipv4Addr)>,
    /// Opt-out blacklist: individual addresses.
    pub blacklist_singles: Vec<Ipv4Addr>,
    /// ASes that become unreachable to *every* outside observer at a
    /// given week (full inbound border filtering — the AR/KR events).
    pub border_filtered_asns: Vec<(u32, u32)>,
    /// Measurement vantage points (distinct /8s, Sec. 2.2).
    pub scanner_ip: Ipv4Addr,
    /// Second vantage point (dual-vantage verification).
    pub scanner2_ip: Ipv4Addr,
    current: SimTime,
}

impl World {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_raw(
        cfg: WorldConfig,
        net: Network,
        universe: Arc<DnsUniverse>,
        geo: GeoDb,
        rdns: RdnsDb,
        catalog: DomainCatalog,
        resolvers: Vec<ResolverMeta>,
        profiles: Vec<(Arc<SoftwareProfile>, Arc<str>)>,
        infra: InfraIndex,
        pools: Vec<LeasePool>,
        allocated: Vec<(Ipv4Addr, Ipv4Addr)>,
        scanner_ip: Ipv4Addr,
        scanner2_ip: Ipv4Addr,
        stats: WorldStats,
        blacklist_ranges: Vec<(Ipv4Addr, Ipv4Addr)>,
        blacklist_singles: Vec<Ipv4Addr>,
    ) -> Self {
        assert!(resolvers.windows(2).all(|pair| pair[0].host < pair[1].host));
        World {
            cfg,
            net,
            universe,
            geo: Arc::new(geo),
            rdns: Arc::new(rdns),
            catalog,
            resolvers,
            profiles,
            infra,
            stats,
            pools,
            allocated,
            blacklist_ranges,
            blacklist_singles,
            border_filtered_asns: Vec::new(),
            scanner_ip,
            scanner2_ip,
            current: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.current
    }

    /// Every allocated address range, for space-bounded scanning.
    pub fn scannable_ranges(&self) -> &[(Ipv4Addr, Ipv4Addr)] {
        &self.allocated
    }

    /// Total number of scannable addresses.
    pub fn scannable_size(&self) -> u64 {
        self.allocated
            .iter()
            .map(|(a, b)| (u32::from(*b) - u32::from(*a) + 1) as u64)
            .sum()
    }

    /// Advance simulated time, renumbering DHCP pools at *absolute*
    /// 6-hour boundaries (multiples of 6h since epoch) and firing
    /// spawn/retire lifecycle events at week boundaries.
    ///
    /// The lease grid being absolute — not relative to wherever the
    /// previous campaign left the clock — is what makes pool
    /// renumbering canonical: any subset of scheduled campaigns sees
    /// renumbering happen at the same simulated instants, consuming
    /// the pool RNG in the same order, so IP assignments are identical
    /// whether one campaign runs or all of them do.
    pub fn advance_to(&mut self, target: SimTime) {
        const STEP: u64 = 6 * SimTime::HOUR;
        // Campaigns may have pushed the network clock forward without
        // going through us; catch up first so leases stay consistent.
        self.current = self.current.max(self.net.now());
        let mut sp = telemetry::span("worldgen.advance", self.current.millis());
        let (mut steps, mut renumbered) = (0u64, 0u64);
        while self.current < target {
            steps += 1;
            let boundary = SimTime((self.current.millis() / STEP + 1) * STEP);
            let next = boundary.min(target);
            // Week-boundary lifecycle events.
            let week_before = self.current.weeks();
            let week_after = next.weeks();
            if week_after > week_before || self.current == SimTime::ZERO {
                for w in (week_before + 1)..=week_after {
                    self.fire_week_events(w as u32);
                }
            }
            self.net.run_until(next);
            // Renumber only on the absolute grid: stopping at an
            // arbitrary campaign anchor must not perturb lease timing.
            if next == boundary {
                for pool in &mut self.pools {
                    renumbered += pool.renumber_expired(&mut self.net, next) as u64;
                }
            }
            self.current = next;
        }
        telemetry::counter("worldgen.renumbered").add(renumbered);
        sp.attr("steps", steps);
        sp.attr("renumbered", renumbered);
        sp.finish(self.current.millis());
    }

    /// Advance to the start of scan week `w` (scans run weekly from
    /// week 0).
    pub fn advance_to_week(&mut self, w: u32) {
        self.advance_to(SimTime::from_weeks(w as u64));
    }

    fn fire_week_events(&mut self, week: u32) {
        for meta in &self.resolvers {
            if meta.spawn_week == week {
                meta.alive.store(true, Ordering::Relaxed);
            }
            if meta.retire_week == Some(week) {
                meta.alive.store(false, Ordering::Relaxed);
            }
        }
    }

    /// The current IP of a resolver (follows pool renumbering).
    pub fn resolver_ip(&self, meta: &ResolverMeta) -> Option<Ipv4Addr> {
        let ips = self.net.ips_of(meta.host);
        ips.first().copied()
    }

    /// Count of currently alive resolvers per response class (ground
    /// truth for Figure 1 validation).
    pub fn alive_counts(&self) -> BTreeMap<ResponseClass, usize> {
        let mut out = BTreeMap::new();
        for m in &self.resolvers {
            if m.alive.load(Ordering::Relaxed) {
                *out.entry(m.response_class).or_insert(0) += 1;
            }
        }
        out
    }

    /// Where this world's resident bytes are, owner by owner, counted
    /// from lengths: growth slack is never written, so never resident.
    /// The small fixed tables are counted shallowly (a range of each of
    /// the two range maps per block, strings by length).
    pub fn mem_ledger(&self) -> Vec<(&'static str, usize)> {
        use std::mem::size_of;
        let [hosts, bindings, host_ips] = self.net.resident_bytes();
        let pools = self.pools.iter().map(LeasePool::resident_bytes);
        let (members, free) = pools.fold((0, 0), |sum, pool| (sum.0 + pool.0, sum.1 + pool.1));
        let profiles = self.profiles.iter().map(|(profile, key)| {
            size_of::<SoftwareProfile>() + profile.family.len() + profile.version.len() + key.len()
        });
        let ranges = size_of::<geodb::NetBlock>() + size_of::<geodb::RdnsPattern>() + 16;
        let ases = self
            .geo
            .ases()
            .iter()
            .map(|a| size_of::<geodb::AsInfo>() + a.name.len());
        let geo_rdns = self.geo.block_count() * ranges
            + ases.sum::<usize>()
            + self.rdns.override_count() * size_of::<(u32, String)>();
        let records = self
            .universe
            .domains()
            .map(|d| size_of::<(String, resolversim::DomainRecord)>() + 2 * d.name.len());
        let catalog = self
            .catalog
            .domains
            .iter()
            .map(|d| size_of::<crate::catalog::CatalogDomain>() + d.name.len());
        vec![
            ("hosts", hosts),
            ("profiles", profiles.sum()),
            ("routes.bindings", bindings),
            ("routes.host_ips", host_ips),
            ("pools.members", members),
            ("pools.free", free),
            (
                "resolver_meta",
                self.resolvers.len() * size_of::<ResolverMeta>(),
            ),
            ("liveness", self.resolvers.len().div_ceil(64) * 8),
            ("geo_rdns", geo_rdns),
            (
                "universe_catalog",
                records.sum::<usize>() + catalog.sum::<usize>(),
            ),
        ]
    }

    /// The resolver at `ip` right now, if one is bound there: coverage
    /// accounting probes a handful of addresses against a world of many.
    pub fn resolver_at(&self, ip: Ipv4Addr) -> Option<&ResolverMeta> {
        let host = self.net.host_at(ip)?;
        let i = self
            .resolvers
            .binary_search_by_key(&host, |m| m.host)
            .ok()?;
        Some(&self.resolvers[i])
    }

    /// Whether `m` is a live responder — a NOERROR one, if
    /// `noerror_only` — that an outside scanner can reach in week
    /// `week`: an AS under full inbound border filtering by then is
    /// invisible to every observer.
    pub fn reachable(&self, m: &ResolverMeta, week: u32, noerror_only: bool) -> bool {
        m.alive.load(Ordering::Relaxed)
            && (!noerror_only || m.response_class == ResponseClass::NoError)
            && !self
                .border_filtered_asns
                .iter()
                .any(|&(asn, w)| m.asn == asn && week >= w)
    }
}

/// The measurement side's view of the world: the wire, the clock, the
/// bought databases and the scan plan.
impl Vantage for World {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    fn now(&self) -> SimTime {
        self.current
    }

    fn advance_to(&mut self, t: SimTime) {
        World::advance_to(self, t);
    }

    fn asn(&self, ip: Ipv4Addr) -> u32 {
        self.geo.asn(ip).unwrap_or(0)
    }

    fn rdns_dynamic(&self, ip: Ipv4Addr) -> Option<bool> {
        self.rdns.lookup(ip).map(|_| self.rdns.is_dynamic(ip))
    }

    fn plan(&self) -> ScanPlan<'_> {
        let tlds = self.universe.tlds().iter();
        ScanPlan {
            zone: &self.catalog.scan_zone,
            ranges: &self.allocated,
            blacklist: (&self.blacklist_ranges, &self.blacklist_singles),
            tlds: tlds.map(|t| (t.name.as_str(), t.ttl)).collect(),
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("resolvers", &self.resolvers.len())
            .field("scannable", &self.scannable_size())
            .field("now", &self.current)
            .finish()
    }
}
