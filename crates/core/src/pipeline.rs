//! The Sections 3–4 pipeline: domain scan → prefilter → acquisition →
//! clustering → labeling → censorship + case studies (Figure 3).

use crate::truth;
use classify::cases::{
    detect_ad_manipulation, detect_mail_interception, detect_malware_updates, detect_phishing,
    detect_proxies, AdReport, CaseCorpus, CaseRecord, MailReport, MalwareReport, PhishFinding,
    ProxyReport,
};
use classify::censorship::{
    detect_double_responses, ComplianceReport, DoubleResponseReport, LandingInventory,
};
use classify::labeler::{label_cluster, label_page, Label, LabelInput};
use classify::{fine_cluster, FilterVerdict, PreFilter};
use geodb::Country;
use htmlsim::diff::tag_delta;
use htmlsim::distance::{page_distance, FeatureWeights, PreparedPage};
use htmlsim::{PageFeatures, TagInterner};
use resolversim::DomainCategory;
use scanner::{
    acquire_with_policy, scan_domains_streaming_with_policy, Acquired, Coverage, ProbePolicy,
    TupleObs,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;
use worldgen::World;

/// Linkage cut threshold for the coarse clustering.
const CLUSTER_THRESHOLD: f64 = 0.32;

/// Minimum mirrored domains before an IP counts as a proxy.
const PROXY_MIN_DOMAINS: usize = 4;

/// Pipeline tunables.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Restrict the scan to these domains (None = full catalog + GT).
    pub domains: Option<Vec<String>>,
    /// Maximum pages entering the O(n²) clustering; the rest are
    /// assigned to the nearest clustered exemplar (logged, never
    /// silently dropped).
    pub cluster_cap: usize,
    /// Scan seed.
    pub seed: u64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            domains: None,
            cluster_cap: 2_500,
            seed: 0x0006_011D_57AB,
        }
    }
}

/// Prefilter statistics per domain category (Sec. 4.1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CategoryStats {
    /// Tuples with any response.
    pub responses: u64,
    /// Tuples judged legitimate by the prefilter.
    pub legit: u64,
    /// Empty NOERROR answers.
    pub empty: u64,
    /// Error rcodes.
    pub error: u64,
    /// Suspicious tuples surviving all prefilter stages.
    pub unexpected: u64,
    /// Tuples reclassified as legitimate by the certificate stage.
    pub cert_rescued: u64,
}

impl CategoryStats {
    /// Legitimate tuples over responses.
    pub fn legit_share(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.legit as f64 / self.responses as f64
        }
    }

    /// Suspicious tuples over responses.
    pub fn unexpected_share(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.unexpected as f64 / self.responses as f64
        }
    }
}

/// Resolver-level oddities (Sec. 4.1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResolverOddities {
    /// Resolvers returning their own address for ≥75% of domains.
    pub self_ip_everywhere: u64,
    /// Resolvers returning one single static address for every answered
    /// domain.
    pub static_single_ip: u64,
    /// Resolvers returning the same address set for more than one domain.
    pub same_set_multi_domain: u64,
    /// Resolvers answering with NS-only referrals.
    pub ns_only: u64,
    /// Total suspicious resolvers (any unexpected tuple).
    pub suspicious_resolvers: u64,
    /// Of the self-IP resolvers with fetched content: how many served a
    /// router/CPE login page (Sec. 4.1: 65.9%) or an IP-camera page
    /// (7.0%).
    pub self_ip_router_login: u64,
    /// Self-IP resolvers serving camera login pages.
    pub self_ip_camera: u64,
}

/// Per-category Table 5 row: average and per-domain max share per label.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Table5Row {
    /// Domain category label.
    pub category: String,
    /// label → (average share %, max share % over the category's domains).
    pub shares: BTreeMap<String, (f64, f64)>,
}

/// Figure 4: country mix for the social-media domains.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Fig4Report {
    /// Country → resolvers answering the 3 domains (any response).
    pub all: BTreeMap<String, u64>,
    /// Country → resolvers with unexpected answers for the 3 domains.
    pub unexpected: BTreeMap<String, u64>,
}

impl Fig4Report {
    /// Share of a country within the unexpected population.
    pub fn unexpected_share(&self, cc: &str) -> f64 {
        let total: u64 = self.unexpected.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.unexpected.get(cc).unwrap_or(&0) as f64 / total as f64
    }
}

/// Censorship findings (Sec. 4.2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CensorshipSection {
    /// Censorship landing-page inventory.
    pub landing: LandingInventory,
    /// Per-country compliance matrix.
    pub compliance: ComplianceReport,
    /// Dual-answer (injector) evidence.
    pub doubles: DoubleResponseReport,
}

/// Case-study findings (Sec. 4.3).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CaseSection {
    /// Ad-manipulation findings.
    pub ads: AdReport,
    /// Transparent-proxy findings.
    pub proxies: ProxyReport,
    /// Phishing findings.
    pub phishing: Vec<PhishFinding>,
    /// Mail-interception findings.
    pub mail: MailReport,
    /// Fake-update findings.
    pub malware: MalwareReport,
}

/// One fine-grained modification cluster (Sec. 3.6): a set of pages
/// that apply the *same* small modification to a known page.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ModificationCluster {
    /// Distinct modified pages in the cluster.
    pub pages: usize,
    /// Suspicious tuples represented by those pages.
    pub tuples: usize,
    /// Tag names added relative to ground truth (exemplar).
    pub added: Vec<String>,
    /// Tag names removed relative to ground truth (exemplar).
    pub removed: Vec<String>,
    /// A domain whose page carries this modification.
    pub example_domain: String,
}

/// Everything the Sections 3–4 pipeline produces.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Resolvers scanned.
    pub fleet_size: u64,
    /// Prefilter statistics per domain category.
    pub per_category: BTreeMap<String, CategoryStats>,
    /// Same-answer / self-IP / LAN-IP oddity statistics.
    pub oddities: ResolverOddities,
    /// Label shares per category (Table 5).
    pub table5: Vec<Table5Row>,
    /// Social-media censorship origin shares (Figure 4).
    pub fig4: Fig4Report,
    /// Censorship analyses (Sec. 4.2).
    pub censorship: CensorshipSection,
    /// Case-study detections (Sec. 4.3).
    pub cases: CaseSection,
    /// Fraction of unexpected HTTP-bearing tuples that got a label.
    pub labeled_share: f64,
    /// Fraction of unexpected tuples yielding HTTP payloads (88.9% in
    /// the paper).
    pub http_share: f64,
    /// Of the no-HTTP tuples: LAN-address share (≤65.1% per set).
    pub no_http_lan_share: f64,
    /// Number of coarse clusters formed.
    pub clusters: usize,
    /// Pages clustered directly vs assigned to nearest exemplar.
    pub clustered_directly: usize,
    /// Pages assigned to their nearest exemplar after the cap.
    pub assigned_to_exemplar: usize,
    /// Fine-grained modification clusters: near-ground-truth pages
    /// grouped by *which tags* were added/removed (Sec. 3.6).
    pub modifications: Vec<ModificationCluster>,
    /// Tuple-granularity coverage of the domain scan: answered
    /// (resolver, domain) pairs against the reachable tuple space.
    /// A collection-time diagnostic — not persisted with the report.
    #[serde(skip)]
    pub domains_coverage: Coverage,
}

/// Social-media domains used by Figure 4 and the GFW analysis.
const SOCIAL: [&str; 3] = ["facebook.example", "twitter.example", "youtube.example"];

/// Run the full analysis pipeline against `world` at its current time,
/// enumerating its own fleet first (Step 1), one attempt per probe.
/// Campaign drivers that already hold an enumerated fleet should call
/// [`run_analysis_with_fleet`] directly so the enumeration runs once.
pub fn run_analysis(world: &mut World, opts: &AnalysisOptions) -> AnalysisReport {
    let vantage = world.scanner_ip;
    let enumeration = scanner::enumerate(world, vantage, opts.seed);
    run_analysis_with_fleet(
        world,
        enumeration.noerror_ips(),
        opts,
        &ProbePolicy::single(),
    )
}

/// Run the analysis pipeline (Steps 2–6) over an already-enumerated
/// `fleet` of NOERROR resolvers, retransmitting the domain scan and the
/// acquisition fetches by `probe`.
pub fn run_analysis_with_fleet(
    world: &mut World,
    fleet: Vec<std::net::Ipv4Addr>,
    opts: &AnalysisOptions,
    probe: &ProbePolicy,
) -> AnalysisReport {
    let vantage = world.scanner_ip;
    let mut sp_run = telemetry::span("pipeline.analysis", world.now().millis());
    sp_run.attr("fleet", fleet.len());
    telemetry::counter("pipeline.resolvers_enumerated").add(fleet.len() as u64);

    // ---- Step 2: domain set ----
    let catalog_domains: Vec<(String, DomainCategory)> = {
        let mut v: Vec<(String, DomainCategory)> = world
            .catalog
            .domains
            .iter()
            .map(|d| (d.name.clone(), d.category))
            .collect();
        v.push((
            world.catalog.ground_truth.clone(),
            DomainCategory::GroundTruth,
        ));
        if let Some(filter) = &opts.domains {
            v.retain(|(n, _)| filter.contains(n));
        }
        v
    };
    let domain_names: Vec<String> = catalog_domains.iter().map(|(n, _)| n.clone()).collect();
    let category_of: Vec<DomainCategory> = catalog_domains.iter().map(|(_, c)| *c).collect();

    // ---- Step 3: trusted view + prefilter ----
    let mut sp_prefilter = telemetry::span("pipeline.prefilter", world.now().millis());
    let trusted = truth::trusted_view(world, &catalog_domains);
    let forward = truth::trusted_forward(world);
    // The prefilter borrows geo/rdns; take the shared pointers out of
    // the world so the world stays mutable for scanning.
    let geo = world.geo.clone();
    let rdns = world.rdns.clone();
    let prefilter = PreFilter::new(
        &trusted,
        &geo,
        &rdns,
        world.infra.cdn_default_cns.clone(),
        forward,
    );

    // ---- Step 4: domain scan with streaming prefilter ----
    let mut report = AnalysisReport {
        fleet_size: fleet.len() as u64,
        ..Default::default()
    };
    let mut unexpected: Vec<TupleObs> = Vec::new();
    let mut social_tuples: Vec<TupleObs> = Vec::new();
    // Per-resolver pattern tracking.
    #[derive(Default, Clone)]
    struct PerResolver {
        answered: u32,
        self_ip: u32,
        ns_only: u32,
        ip_sets: HashMap<u64, u32>,
        distinct_single: BTreeSet<Ipv4Addr>,
        suspicious: bool,
    }
    let mut per_resolver: Vec<PerResolver> = vec![PerResolver::default(); fleet.len()];
    let social_idx: BTreeSet<u16> = domain_names
        .iter()
        .enumerate()
        .filter(|(_, n)| SOCIAL.contains(&n.as_str()))
        .map(|(i, _)| i as u16)
        .collect();
    let censor_relevant: BTreeSet<u16> = category_of
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            matches!(
                c,
                DomainCategory::Adult
                    | DomainCategory::Gambling
                    | DomainCategory::Dating
                    | DomainCategory::Filesharing
                    | DomainCategory::Alexa
            )
        })
        .map(|(i, _)| i as u16)
        .collect();
    let resolver_country: Vec<Option<Country>> = fleet.iter().map(|ip| geo.country(*ip)).collect();

    // Category statistics accumulate in one slot per distinct category,
    // resolved per domain here so the scan sink indexes instead of
    // building a label per tuple. A slot stays `None` until its category
    // sees a tuple; only those reach `per_category`.
    let mut category_labels: Vec<&'static str> = Vec::new();
    let category_slot: Vec<usize> = category_of
        .iter()
        .map(|c| {
            let label = c.label();
            category_labels
                .iter()
                .position(|&l| l == label)
                .unwrap_or_else(|| {
                    category_labels.push(label);
                    category_labels.len() - 1
                })
        })
        .collect();
    let mut category_stats: Vec<Option<CategoryStats>> = vec![None; category_labels.len()];
    // Answered (resolver, domain) slots: a dense fleet × domains bit
    // matrix, with the count of set bits kept per resolver.
    let n_dom = domain_names.len();
    let mut answered_bits = vec![0u64; (fleet.len() * n_dom).div_ceil(64)];
    let mut answered_slots: Vec<u64> = vec![0; fleet.len()];
    let scan_retries;
    {
        let compliance = &mut report.censorship.compliance;
        let mut sink = |t: TupleObs| {
            let di = t.domain_idx as usize;
            let slot = t.resolver_idx as usize * n_dom + di;
            let (word, bit) = (slot / 64, 1u64 << (slot % 64));
            if answered_bits[word] & bit == 0 {
                answered_bits[word] |= bit;
                answered_slots[t.resolver_idx as usize] += 1;
            }
            let stats = category_stats[category_slot[di]].get_or_insert_with(Default::default);
            if t.response_ordinal == 0 {
                stats.responses += 1;
            }
            let verdict = prefilter.judge(&domain_names[di], &t);
            // Resolver-level patterns (first responses only).
            if t.response_ordinal == 0 {
                let pr = &mut per_resolver[t.resolver_idx as usize];
                pr.answered += 1;
                if t.ns_only {
                    pr.ns_only += 1;
                }
                if t.ips.len() == 1 && t.ips[0] == t.resolver_ip {
                    pr.self_ip += 1;
                }
                // Answer-set patterns are a *suspicious-resolver*
                // statistic (Sec. 4.1): track them for unexpected
                // answers only, else every honest resolver trips the
                // same-set rule via multi-hostname mail providers.
                if verdict.is_unexpected() && !t.ips.is_empty() {
                    let mut sorted = t.ips.clone();
                    sorted.sort_unstable();
                    let mut h = 0xcbf29ce484222325u64;
                    for ip in &sorted {
                        h ^= u32::from(*ip) as u64;
                        h = h.wrapping_mul(0x100000001b3);
                    }
                    *pr.ip_sets.entry(h).or_insert(0) += 1;
                    if t.ips.len() == 1 {
                        pr.distinct_single.insert(t.ips[0]);
                    }
                }
                match verdict {
                    FilterVerdict::LegitSameAs | FilterVerdict::LegitRdns => stats.legit += 1,
                    FilterVerdict::ExpectedNx => stats.legit += 1,
                    FilterVerdict::EmptyAnswer => stats.empty += 1,
                    FilterVerdict::ErrorResponse => stats.error += 1,
                    FilterVerdict::Unexpected => {
                        stats.unexpected += 1;
                        pr.suspicious = true;
                    }
                }
                // Compliance accounting for censorship-relevant domains.
                if censor_relevant.contains(&t.domain_idx) {
                    if let Some(cc) = resolver_country[t.resolver_idx as usize] {
                        let censored = verdict.is_unexpected();
                        // Only count resolvers that actually answered.
                        if matches!(
                            verdict,
                            FilterVerdict::LegitSameAs
                                | FilterVerdict::LegitRdns
                                | FilterVerdict::Unexpected
                        ) {
                            compliance.record(cc, &domain_names[di], censored);
                        }
                    }
                }
            }
            if social_idx.contains(&t.domain_idx) {
                social_tuples.push(t.clone());
            }
            if verdict.is_unexpected() && t.response_ordinal == 0 {
                unexpected.push(t);
            }
        };
        scan_retries = scan_domains_streaming_with_policy(
            world,
            vantage,
            &fleet,
            &domain_names,
            opts.seed,
            probe,
            &mut sink,
        );
    }
    // What the scan left behind, at its largest (before certificates
    // rescue tuples), for the memory ledger: a tuple's answers are one
    // more allocation, of four addresses; a suspicious resolver's
    // patterns a hash table of 16-byte entries and 56-byte tree leaves.
    let patterns = per_resolver
        .iter()
        .map(|pr| pr.ip_sets.capacity() * 8 / 7 * 17 + pr.distinct_single.len().div_ceil(11) * 56);
    let scan_bytes = (unexpected.len() + social_tuples.len())
        * (std::mem::size_of::<TupleObs>() + 4 * std::mem::size_of::<Ipv4Addr>())
        + std::mem::size_of_val(per_resolver.as_slice())
        + patterns.sum::<usize>()
        + std::mem::size_of_val(answered_bits.as_slice());
    report.per_category = category_labels
        .iter()
        .zip(category_stats)
        .filter_map(|(label, stats)| Some((label.to_string(), stats?)))
        .collect();
    // Tuple-granularity coverage: every (resolver, domain) slot either
    // answered, or is charged to the scanner or to churn/filtering.
    let answered = |i: usize| answered_slots[i];
    report.domains_coverage =
        truth::coverage(world, &fleet, n_dom as u64, true, answered, scan_retries);
    telemetry::counter("pipeline.tuples_unexpected").add(unexpected.len() as u64);
    sp_prefilter.attr("domains", domain_names.len());
    sp_prefilter.attr("unexpected_tuples", unexpected.len());
    sp_prefilter.finish(world.now().millis());

    // ---- Resolver oddities ----
    let mut self_ip_resolvers: BTreeSet<u32> = BTreeSet::new();
    for (ri, pr) in per_resolver.iter().enumerate() {
        if pr.answered > 0 && pr.self_ip * 4 >= pr.answered * 3 {
            self_ip_resolvers.insert(ri as u32);
        }
    }
    for pr in &per_resolver {
        if pr.answered == 0 {
            continue;
        }
        if pr.suspicious {
            report.oddities.suspicious_resolvers += 1;
        }
        if pr.self_ip * 4 >= pr.answered * 3 {
            report.oddities.self_ip_everywhere += 1;
        }
        // Static single IP: one address for (essentially) every domain.
        let unexpected_answers: u32 = pr.ip_sets.values().sum();
        if pr.distinct_single.len() == 1
            && unexpected_answers >= pr.answered * 8 / 10
            && pr.answered > 3
        {
            report.oddities.static_single_ip += 1;
        }
        if pr.ip_sets.values().any(|&n| n > 1) {
            report.oddities.same_set_multi_domain += 1;
        }
        if pr.ns_only * 2 >= pr.answered {
            report.oddities.ns_only += 1;
        }
    }

    // ---- Step 5: acquisition for unique (domain, ip) pairs ----
    // BTreeMap, not HashMap: the iteration order below fixes the page
    // group order, which fixes cluster exemplars — random order would
    // make the modification clusters differ run to run.
    let mut sp_fetch = telemetry::span("pipeline.fetch", world.now().millis());
    let mut pair_content: BTreeMap<(u16, Ipv4Addr), Acquired> = BTreeMap::new();
    for t in &unexpected {
        let Some(&ip) = t.ips.first() else { continue };
        let key = (t.domain_idx, ip);
        if pair_content.contains_key(&key) {
            continue;
        }
        let di = t.domain_idx as usize;
        let is_mail = category_of[di] == DomainCategory::Mx;
        let got = acquire_with_policy(
            world,
            vantage,
            t.resolver_ip,
            &domain_names[di],
            ip,
            is_mail,
            probe,
        );
        pair_content.insert(key, got);
    }

    // Ground-truth content per domain.
    let mut gt_bodies: BTreeMap<String, String> = BTreeMap::new();
    let mut gt_mail_banners: BTreeSet<String> = BTreeSet::new();
    for (name, cat) in &catalog_domains {
        if let Some(got) = truth::acquire_trusted(world, vantage, name) {
            if let Some(http) = &got.http {
                gt_bodies.insert(name.clone(), http.body.clone());
            }
            if *cat == DomainCategory::Mx {
                for (_, b) in &got.mail_banners {
                    gt_mail_banners.insert(b.clone());
                }
            }
        }
    }

    // ---- Certificate rescue stage ----
    // Known-CDN default certificates rescue unconditionally (the paper's
    // CDN rule); SNI-only rescues are weaker — a TLS-forwarding proxy
    // also presents valid per-domain certificates — so they are revoked
    // when one IP validates too many distinct domains (proxy evidence,
    // handed to the proxy detector instead).
    let mut cert_ok_pairs: BTreeSet<(u16, Ipv4Addr)> = BTreeSet::new();
    let mut sni_only_pairs: BTreeSet<(u16, Ipv4Addr)> = BTreeSet::new();
    for (&(di, ip), got) in &pair_content {
        let domain = &domain_names[di as usize];
        let sni = got.https_sni.as_ref().and_then(|p| p.certificate.as_ref());
        let nosni = got
            .https_nosni
            .as_ref()
            .and_then(|p| p.certificate.as_ref());
        match prefilter.certificate_rule(domain, sni, nosni) {
            Some(classify::CertRule::CdnDefault) => {
                cert_ok_pairs.insert((di, ip));
            }
            Some(classify::CertRule::SniValid) => {
                cert_ok_pairs.insert((di, ip));
                sni_only_pairs.insert((di, ip));
            }
            None => {}
        }
    }
    {
        let mut per_ip: BTreeMap<Ipv4Addr, u32> = BTreeMap::new();
        for &(_, ip) in &sni_only_pairs {
            *per_ip.entry(ip).or_insert(0) += 1;
        }
        cert_ok_pairs.retain(|pair| !sni_only_pairs.contains(pair) || per_ip[&pair.1] <= 3);
    }
    for t in &unexpected {
        if let Some(&ip) = t.ips.first() {
            if cert_ok_pairs.contains(&(t.domain_idx, ip)) {
                let cat = category_of[t.domain_idx as usize].label().to_string();
                if let Some(stats) = report.per_category.get_mut(&cat) {
                    stats.cert_rescued += 1;
                    stats.unexpected = stats.unexpected.saturating_sub(1);
                    stats.legit += 1;
                }
            }
        }
    }
    let unexpected: Vec<TupleObs> = unexpected
        .into_iter()
        .filter(|t| match t.ips.first() {
            Some(&ip) => !cert_ok_pairs.contains(&(t.domain_idx, ip)),
            None => true,
        })
        .collect();
    telemetry::counter("pipeline.pages_fetched").add(pair_content.len() as u64);
    telemetry::counter("pipeline.cert_rescued_pairs").add(cert_ok_pairs.len() as u64);
    sp_fetch.attr("pairs_fetched", pair_content.len());
    sp_fetch.attr("cert_rescued", cert_ok_pairs.len());
    sp_fetch.finish(world.now().millis());

    // ---- Step 6: features, clustering, labeling ----
    let mut sp_cluster = telemetry::span("pipeline.cluster", world.now().millis());
    let mut interner = TagInterner::new();
    // Unique pages: fingerprint → representative (body, status, pairs).
    struct PageGroup {
        features: PageFeatures,
        body: String,
        status: u16,
        pairs: Vec<(u16, Ipv4Addr)>,
    }
    let mut groups: Vec<PageGroup> = Vec::new();
    let mut by_fingerprint: HashMap<u64, usize> = HashMap::new();
    for (&(di, ip), got) in &pair_content {
        if cert_ok_pairs.contains(&(di, ip)) {
            continue;
        }
        let Some(page) = got
            .http
            .as_ref()
            .or(got.https_sni.as_ref())
            .or(got.https_nosni.as_ref())
        else {
            continue;
        };
        let features = PageFeatures::extract(&page.body, &mut interner);
        let fp = features.fingerprint();
        match by_fingerprint.get(&fp) {
            Some(&gi) => groups[gi].pairs.push((di, ip)),
            None => {
                by_fingerprint.insert(fp, groups.len());
                groups.push(PageGroup {
                    features,
                    body: page.body.clone(),
                    status: page.status,
                    pairs: vec![(di, ip)],
                });
            }
        }
    }
    // Tuple-weighted coverage, as the paper reports it: one landing
    // page serving thousands of resolvers counts thousands of times.
    {
        let has_http: BTreeSet<(u16, Ipv4Addr)> = groups
            .iter()
            .flat_map(|g| g.pairs.iter().copied())
            .collect();
        let mut t_http = 0u64;
        let mut t_none = 0u64;
        let mut t_none_lan = 0u64;
        for t in &unexpected {
            let Some(&ip) = t.ips.first() else { continue };
            if has_http.contains(&(t.domain_idx, ip)) {
                t_http += 1;
            } else {
                t_none += 1;
                if geodb::is_lan(ip) {
                    t_none_lan += 1;
                }
            }
        }
        report.http_share = if t_http + t_none > 0 {
            t_http as f64 / (t_http + t_none) as f64
        } else {
            0.0
        };
        report.no_http_lan_share = if t_none > 0 {
            t_none_lan as f64 / t_none as f64
        } else {
            0.0
        };
    }

    // Cluster (capped) + nearest-exemplar assignment for the rest.
    let weights = FeatureWeights::default();
    let n_direct = groups.len().min(opts.cluster_cap);
    let direct_features: Vec<&PageFeatures> =
        groups[..n_direct].iter().map(|g| &g.features).collect();
    let flat = classify::cluster_pages(&direct_features, &weights, CLUSTER_THRESHOLD);
    report.clusters = flat.len();
    report.clustered_directly = n_direct;
    report.assigned_to_exemplar = groups.len() - n_direct;
    telemetry::counter("pipeline.clusters_formed").add(flat.len() as u64);
    // The stage's large transients, for the memory ledger: what the
    // scan held, every fetched body plus the unique pages' copies, and
    // `page_matrix`'s triangle beside its square of `f32`s.
    let fetched = pair_content
        .values()
        .flat_map(|got| [&got.http, &got.https_sni, &got.https_nosni])
        .flatten()
        .map(|page| page.body.len());
    crate::collect::publish_mem(
        "analysis",
        &[
            ("scan", scan_bytes),
            (
                "pages",
                fetched.sum::<usize>() + groups.iter().map(|g| g.body.len()).sum::<usize>(),
            ),
            ("matrix", 6 * n_direct * n_direct),
        ],
    );
    sp_cluster.attr("unique_pages", groups.len());
    sp_cluster.attr("clusters", flat.len());
    sp_cluster.attr("clustered_directly", n_direct);
    sp_cluster.finish(world.now().millis());

    // Label each cluster from up to 5 exemplars.
    let mut sp_label = telemetry::span("pipeline.label", world.now().millis());
    let mut cluster_labels: Vec<Label> = Vec::with_capacity(flat.len());
    for members in &flat.clusters {
        let exemplars: Vec<LabelInput<'_>> = members
            .iter()
            .take(5)
            .map(|&m| LabelInput {
                status: groups[m].status,
                body: &groups[m].body,
            })
            .collect();
        cluster_labels.push(label_cluster(&exemplars));
    }
    // Page label per group: direct members take their cluster's label;
    // overflow groups take the nearest exemplar's cluster label.
    let mut group_label: Vec<Label> = vec![Label::Misc; groups.len()];
    for (gi, label_slot) in group_label.iter_mut().enumerate().take(n_direct) {
        *label_slot = cluster_labels[flat.assignment[gi]];
    }
    for gi in n_direct..groups.len() {
        // Nearest exemplar: first member of each cluster.
        let mut best = Label::Misc;
        let mut best_d = f64::INFINITY;
        let page = PreparedPage::new(&groups[gi].features, &weights);
        for (ci, members) in flat.clusters.iter().enumerate() {
            if let Some(&m0) = members.first() {
                let d = page.distance(&groups[m0].features);
                if d < best_d {
                    best_d = d;
                    best = cluster_labels[ci];
                }
            }
        }
        // Fall back to direct page labeling when no cluster is close.
        group_label[gi] = if best_d <= CLUSTER_THRESHOLD * 1.5 {
            best
        } else {
            label_page(&LabelInput {
                status: groups[gi].status,
                body: &groups[gi].body,
            })
        };
    }

    // Pair → label map (ordered for the same reason as `pair_content`).
    let mut pair_label: BTreeMap<(u16, Ipv4Addr), Label> = BTreeMap::new();
    for (gi, g) in groups.iter().enumerate() {
        for &pair in &g.pairs {
            pair_label.insert(pair, group_label[gi]);
        }
    }
    report.labeled_share = 1.0; // every HTTP page receives a label
    telemetry::counter("pipeline.pages_labeled").add(groups.len() as u64);
    sp_label.attr("pages_labeled", groups.len());
    sp_label.finish(world.now().millis());

    // ---- Self-IP content drill-down (Sec. 4.1) ----
    {
        let mut router: BTreeSet<u32> = BTreeSet::new();
        let mut camera: BTreeSet<u32> = BTreeSet::new();
        for t in &unexpected {
            if !self_ip_resolvers.contains(&t.resolver_idx) {
                continue;
            }
            let Some(&ip) = t.ips.first() else { continue };
            if ip != t.resolver_ip {
                continue;
            }
            if let Some(got) = pair_content.get(&(t.domain_idx, ip)) {
                if let Some(page) = got.http.as_ref() {
                    let body = page.body.to_ascii_lowercase();
                    if body.contains("router login") || body.contains("web configuration") {
                        router.insert(t.resolver_idx);
                    } else if body.contains("camera") || body.contains("netcam") {
                        camera.insert(t.resolver_idx);
                    }
                }
            }
        }
        report.oddities.self_ip_router_login = router.len() as u64;
        report.oddities.self_ip_camera = camera.len() as u64;
    }

    // ---- Fine-grained modification clustering (Sec. 3.6) ----
    {
        // Ground-truth features per domain.
        let mut gt_features: BTreeMap<String, PageFeatures> = BTreeMap::new();
        for (name, body) in &gt_bodies {
            gt_features.insert(name.clone(), PageFeatures::extract(body, &mut interner));
        }
        // Pages structurally close to their domain's ground truth but
        // not identical: candidates for small malicious modifications.
        let mut candidates: Vec<usize> = Vec::new();
        let mut deltas = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            let Some(&(di, _)) = g.pairs.first() else {
                continue;
            };
            let domain = &domain_names[di as usize];
            let Some(gtf) = gt_features.get(domain) else {
                continue;
            };
            let d = page_distance(&g.features, gtf, &weights);
            if d > 0.0 && d < 0.35 {
                candidates.push(gi);
                deltas.push(tag_delta(&gtf.tag_sequence, &g.features.tag_sequence));
            }
        }
        if !deltas.is_empty() {
            let flat = fine_cluster(&deltas, 0.3);
            for members in &flat.clusters {
                let Some(&m0) = members.first() else { continue };
                let exemplar = &deltas[m0];
                let names = |set: &BTreeMap<u16, u32>| -> Vec<String> {
                    set.keys()
                        .filter_map(|&id| interner.name(id).map(|s| s.to_string()))
                        .collect()
                };
                let tuples: usize = members
                    .iter()
                    .map(|&m| groups[candidates[m]].pairs.len())
                    .sum();
                let gi0 = candidates[m0];
                let example_domain = groups[gi0]
                    .pairs
                    .first()
                    .map(|&(di, _)| domain_names[di as usize].clone())
                    .unwrap_or_default();
                report.modifications.push(ModificationCluster {
                    pages: members.len(),
                    tuples,
                    added: names(&exemplar.added),
                    removed: names(&exemplar.removed),
                    example_domain,
                });
            }
            report.modifications.sort_by(|a, b| {
                b.tuples
                    .cmp(&a.tuples)
                    .then(a.example_domain.cmp(&b.example_domain))
            });
        }
    }

    // ---- Table 5 ----
    {
        // (domain, label) → distinct suspicious resolvers.
        let mut per_domain: HashMap<u16, HashMap<Label, BTreeSet<u32>>> = HashMap::new();
        let mut suspicious_per_domain: HashMap<u16, BTreeSet<u32>> = HashMap::new();
        // Country-level bogus rates for the censorship fallback: when a
        // forged answer serves no content, but the resolver sits in a
        // country where the majority of resolvers return bogus answers
        // for this domain, the paper attributes it to censorship (the
        // Sec. 4.2 "conspicuous distribution of countries" argument).
        let country_bogus_rate = |cc: Country, di: u16| -> f64 {
            report
                .censorship
                .compliance
                .rate(cc, &[domain_names[di as usize].as_str()])
                .unwrap_or(0.0)
        };
        for t in &unexpected {
            suspicious_per_domain
                .entry(t.domain_idx)
                .or_default()
                .insert(t.resolver_idx);
            if let Some(&ip) = t.ips.first() {
                let label = match pair_label.get(&(t.domain_idx, ip)) {
                    Some(&l) => Some(l),
                    None => {
                        // Content-less forged answer: censorship fallback.
                        let cc = resolver_country[t.resolver_idx as usize];
                        match cc {
                            Some(cc)
                                if censor_relevant.contains(&t.domain_idx)
                                    && country_bogus_rate(cc, t.domain_idx) >= 0.5 =>
                            {
                                Some(Label::Censorship)
                            }
                            _ => None,
                        }
                    }
                };
                if let Some(label) = label {
                    per_domain
                        .entry(t.domain_idx)
                        .or_default()
                        .entry(label)
                        .or_default()
                        .insert(t.resolver_idx);
                }
            }
        }
        // Category → label → (sum of shares, max share, domain count).
        let mut acc: BTreeMap<String, BTreeMap<Label, (f64, f64)>> = BTreeMap::new();
        let mut domains_per_cat: BTreeMap<String, u32> = BTreeMap::new();
        for (di, _name) in domain_names.iter().enumerate() {
            let cat = category_of[di].label().to_string();
            *domains_per_cat.entry(cat.clone()).or_insert(0) += 1;
            let total = suspicious_per_domain
                .get(&(di as u16))
                .map(|s| s.len())
                .unwrap_or(0);
            let cat_entry = acc.entry(cat).or_default();
            for label in Label::ALL {
                let count = per_domain
                    .get(&(di as u16))
                    .and_then(|m| m.get(&label))
                    .map(|s| s.len())
                    .unwrap_or(0);
                let share = if total == 0 {
                    0.0
                } else {
                    100.0 * count as f64 / total as f64
                };
                let e = cat_entry.entry(label).or_insert((0.0, 0.0));
                e.0 += share;
                e.1 = e.1.max(share);
            }
        }
        for (cat, labels) in acc {
            let n = domains_per_cat[&cat] as f64;
            let mut row = Table5Row {
                category: cat,
                shares: BTreeMap::new(),
            };
            for (label, (sum, max)) in labels {
                row.shares.insert(label.name().to_string(), (sum / n, max));
            }
            report.table5.push(row);
        }
    }

    // ---- Figure 4 ----
    {
        let mut seen_all: HashMap<u32, ()> = HashMap::new();
        let mut seen_unexpected: BTreeSet<u32> = BTreeSet::new();
        for t in &social_tuples {
            if t.response_ordinal == 0 && seen_all.insert(t.resolver_idx, ()).is_none() {
                if let Some(cc) = resolver_country[t.resolver_idx as usize] {
                    *report.fig4.all.entry(cc.as_str().to_string()).or_insert(0) += 1;
                }
            }
        }
        for t in &unexpected {
            if social_idx.contains(&t.domain_idx) && seen_unexpected.insert(t.resolver_idx) {
                if let Some(cc) = resolver_country[t.resolver_idx as usize] {
                    *report
                        .fig4
                        .unexpected
                        .entry(cc.as_str().to_string())
                        .or_insert(0) += 1;
                }
            }
        }
    }

    // ---- Censorship ----
    for (&(_di, ip), label) in &pair_label {
        if *label == Label::Censorship {
            report.censorship.landing.add(ip, &geo);
        }
    }
    {
        // "Legitimate" for the double-response analysis = the trusted
        // resolution plus any address the certificate stage validated
        // for that domain (regional CDN edges).
        let mut trusted_sets: Vec<BTreeSet<Ipv4Addr>> = domain_names
            .iter()
            .map(|n| trusted.trusted_ips(n).iter().copied().collect())
            .collect();
        for &(di, ip) in &cert_ok_pairs {
            trusted_sets[di as usize].insert(ip);
        }
        report.censorship.doubles = detect_double_responses(&social_tuples, |di, ips| {
            let set = &trusted_sets[di as usize];
            !ips.is_empty() && ips.iter().all(|i| set.contains(i))
        });
    }

    // ---- Case studies ----
    // One record per distinct (domain, target) pair, borrowing its
    // acquired content and carrying the resolvers that answered with it.
    {
        let mut sp_cases = telemetry::span("pipeline.cases", world.now().millis());
        let mut by_pair: BTreeMap<(u16, Ipv4Addr), CaseRecord<'_>> = BTreeMap::new();
        let mut seen: BTreeSet<(u32, u16)> = BTreeSet::new();
        let mut tuples = 0usize;
        for t in &unexpected {
            let Some(&ip) = t.ips.first() else { continue };
            if !seen.insert((t.resolver_idx, t.domain_idx)) {
                continue;
            }
            if let Some(acquired) = pair_content.get(&(t.domain_idx, ip)) {
                tuples += 1;
                by_pair
                    .entry((t.domain_idx, ip))
                    .or_insert_with(|| CaseRecord {
                        domain: &domain_names[t.domain_idx as usize],
                        target_ip: ip,
                        acquired,
                        resolvers: Vec::new(),
                    })
                    .resolvers
                    .push(t.resolver_idx);
            }
        }
        let corpus = CaseCorpus::new(by_pair.into_values().collect(), &gt_bodies);
        report.cases.proxies = detect_proxies(&corpus, PROXY_MIN_DOMAINS);
        report.cases.phishing = detect_phishing(&corpus);
        report.cases.ads = detect_ad_manipulation(&corpus);
        report.cases.mail = detect_mail_interception(&corpus, &gt_mail_banners);
        report.cases.malware = detect_malware_updates(&corpus);
        sp_cases.attr("tuples", tuples);
        sp_cases.attr("pairs", corpus.pairs());
        sp_cases.attr("distinct_bodies", corpus.distinct_bodies());
        sp_cases.finish(world.now().millis());
    }

    sp_run.attr("clusters", report.clusters);
    sp_run.finish(world.now().millis());
    report
}
