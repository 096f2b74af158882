//! The Sec. 4.3 case-study detectors.
//!
//! Each detector consumes acquired content for unexpected tuples and
//! reports the specific abuse class with the evidence the paper cites.
//!
//! Thousands of resolvers point at the same few hosts, and those hosts
//! serve the same few pages, so the detectors do not work tuple by
//! tuple. A [`CaseCorpus`] holds one [`CaseRecord`] per distinct
//! `(domain, target address)` pair — borrowing the acquired content and
//! carrying the set of resolvers that gave that answer — and the facts
//! the detectors read off an HTML body (tag multiset, first form action,
//! `src` sets, a handful of substring tests), extracted in one tokenizer
//! pass per *distinct body*, ground truth included. A detector judges
//! each pair once and fans the verdict out to the pair's resolvers,
//! which yields the same sets, maps and evidence lists as judging every
//! tuple separately (the test module keeps that per-tuple form as the
//! oracle).

use htmlsim::distance::jaccard_multiset;
use htmlsim::{tokenize, Token};
use scanner::Acquired;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// One distinct `(domain, target address)` pair among the unexpected
/// tuples, with the content acquired from it — the unit all detectors
/// work on.
#[derive(Debug, Clone)]
pub struct CaseRecord<'a> {
    /// The queried domain.
    pub domain: &'a str,
    /// The address resolvers answered with.
    pub target_ip: Ipv4Addr,
    /// Content fetched from that address.
    pub acquired: &'a Acquired,
    /// Fleet indices of the resolvers that gave this answer.
    pub resolvers: Vec<u32>,
}

/// What the detectors read off one HTML body.
#[derive(Debug)]
struct PageFacts {
    /// Opening tags by (lower-cased) name.
    tags: BTreeMap<String, u32>,
    /// The first `action="…"` of a `<form>`.
    form_action: Option<String>,
    /// Every `src="…"` value.
    srcs: BTreeSet<String>,
    /// The `src="…"` values of `<script>` tags.
    script_srcs: BTreeSet<String>,
    /// "did you mean" + "search", case-insensitively.
    fake_search: bool,
    /// Contains `/blank.gif`.
    blank_gif: bool,
    /// Update-themed wording next to an `.exe`, case-insensitively.
    fake_update: bool,
}

impl PageFacts {
    fn extract(body: &str) -> Self {
        let mut tags: BTreeMap<String, u32> = BTreeMap::new();
        let mut form_action = None;
        let mut srcs = BTreeSet::new();
        let mut script_srcs = BTreeSet::new();
        for token in tokenize(body) {
            let Token::Open { name, attrs, .. } = token else {
                continue;
            };
            for (k, v) in attrs {
                if k == "src" {
                    if name == "script" {
                        script_srcs.insert(v.clone());
                    }
                    srcs.insert(v);
                } else if k == "action" && name == "form" && form_action.is_none() {
                    form_action = Some(v);
                }
            }
            *tags.entry(name).or_insert(0) += 1;
        }
        let lower = body.to_ascii_lowercase();
        PageFacts {
            tags,
            form_action,
            srcs,
            script_srcs,
            fake_search: lower.contains("did you mean") && lower.contains("search"),
            blank_gif: body.contains("/blank.gif"),
            fake_update: (lower.contains("out of date")
                || lower.contains("update required")
                || lower.contains("install update"))
                && lower.contains(".exe"),
        }
    }

    fn count_of(&self, tag: &str) -> u32 {
        self.tags.get(tag).copied().unwrap_or(0)
    }

    /// Whether this page is structurally close to `other` (>60% of
    /// opening tags shared).
    fn mimics(&self, other: &PageFacts) -> bool {
        jaccard_multiset(&self.tags, &other.tags) < 0.4
    }
}

/// Everything the detectors consume: the per-pair records, the ground
/// truth, and the `PageFacts` of every distinct body among them.
#[derive(Debug)]
pub struct CaseCorpus<'a> {
    records: Vec<CaseRecord<'a>>,
    /// Per record: its plain-HTTP body's slot in `facts`.
    record_facts: Vec<Option<usize>>,
    /// Domain → (ground-truth body, its slot in `facts`).
    ground_truth: BTreeMap<&'a str, (&'a str, usize)>,
    /// One entry per distinct body, served or ground truth.
    facts: Vec<PageFacts>,
}

impl<'a> CaseCorpus<'a> {
    /// Index `records` and the per-domain ground-truth bodies, parsing
    /// each distinct body once.
    pub fn new(
        records: Vec<CaseRecord<'a>>,
        ground_truth_bodies: &'a BTreeMap<String, String>,
    ) -> Self {
        let mut facts: Vec<PageFacts> = Vec::new();
        let mut slot_of: HashMap<&'a str, usize> = HashMap::new();
        let mut slot = |body: &'a str| {
            *slot_of.entry(body).or_insert_with(|| {
                facts.push(PageFacts::extract(body));
                facts.len() - 1
            })
        };
        let record_facts = records
            .iter()
            .map(|r| r.acquired.http.as_ref().map(|http| slot(&http.body)))
            .collect();
        let ground_truth = ground_truth_bodies
            .iter()
            .map(|(domain, body)| (domain.as_str(), (body.as_str(), slot(body))))
            .collect();
        CaseCorpus {
            records,
            record_facts,
            ground_truth,
            facts,
        }
    }

    /// Number of `(domain, target address)` pairs.
    pub fn pairs(&self) -> usize {
        self.records.len()
    }

    /// Number of distinct bodies parsed (served and ground truth).
    pub fn distinct_bodies(&self) -> usize {
        self.facts.len()
    }

    /// Records whose plain-HTTP fetch returned a page: `(record, status,
    /// body, facts of the body)`.
    fn http_pages(&self) -> impl Iterator<Item = (&CaseRecord<'a>, u16, &'a str, &PageFacts)> {
        self.records
            .iter()
            .zip(&self.record_facts)
            .filter_map(|(r, slot)| {
                let http = r.acquired.http.as_ref()?;
                Some((r, http.status, http.body.as_str(), &self.facts[(*slot)?]))
            })
    }

    /// Ground-truth body of `domain` and its facts.
    fn ground_truth(&self, domain: &str) -> Option<(&'a str, &PageFacts)> {
        let &(body, slot) = self.ground_truth.get(domain)?;
        Some((body, &self.facts[slot]))
    }
}

// ---------------------------------------------------------------------
// Transparent proxies
// ---------------------------------------------------------------------

/// Proxy findings (Sec. 4.3: 20 proxy IPs; 99 resolvers → 10 TLS IPs,
/// 10,179 resolvers → 10 HTTP-only IPs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProxyReport {
    /// Proxy addresses that forward valid TLS.
    pub tls_proxy_ips: BTreeSet<Ipv4Addr>,
    /// Proxy addresses refusing TLS (credential-exposure risk).
    pub http_only_proxy_ips: BTreeSet<Ipv4Addr>,
    /// Resolvers pointing at TLS-capable proxies.
    pub resolvers_via_tls: BTreeSet<u32>,
    /// Resolvers pointing at HTTP-only proxies.
    pub resolvers_via_http_only: BTreeSet<u32>,
}

/// Detect transparent proxies: a target IP that served the *original*
/// content (byte-equal to ground truth) for at least `min_domains`
/// distinct domains. TLS capability splits the two classes.
pub fn detect_proxies(corpus: &CaseCorpus<'_>, min_domains: usize) -> ProxyReport {
    // target ip → set of domains it mirrored, TLS evidence, resolvers.
    #[derive(Default)]
    struct Acc<'a> {
        mirrored: BTreeSet<&'a str>,
        tls_ok: bool,
        resolvers: BTreeSet<u32>,
    }
    let mut by_ip: BTreeMap<Ipv4Addr, Acc<'_>> = BTreeMap::new();
    for (r, status, body, _) in corpus.http_pages() {
        let Some((gt, _)) = corpus.ground_truth(r.domain) else {
            continue;
        };
        if status != 200 || body != gt {
            continue;
        }
        let acc = by_ip.entry(r.target_ip).or_default();
        acc.mirrored.insert(r.domain);
        acc.resolvers.extend(&r.resolvers);
        if let Some(page) = &r.acquired.https_sni {
            if page
                .certificate
                .as_ref()
                .map(|c| c.valid_chain && c.covers(r.domain))
                .unwrap_or(false)
            {
                acc.tls_ok = true;
            }
        }
    }
    let mut report = ProxyReport::default();
    for (ip, acc) in by_ip {
        if acc.mirrored.len() < min_domains {
            continue;
        }
        if acc.tls_ok {
            report.tls_proxy_ips.insert(ip);
            report.resolvers_via_tls.extend(acc.resolvers);
        } else {
            report.http_only_proxy_ips.insert(ip);
            report.resolvers_via_http_only.extend(acc.resolvers);
        }
    }
    report
}

// ---------------------------------------------------------------------
// Phishing
// ---------------------------------------------------------------------

/// One phishing finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhishFinding {
    /// The phishing host.
    pub target_ip: Ipv4Addr,
    /// The impersonated domain.
    pub domain: String,
    /// Resolvers directing clients there.
    pub resolvers: BTreeSet<u32>,
    /// Evidence tokens (image-kit structure, foreign form action,
    /// self-signed certificate).
    pub evidence: Vec<String>,
}

/// Detect phishing hosts: content impersonating a specific domain with
/// credential capture re-pointed at attacker infrastructure.
pub fn detect_phishing(corpus: &CaseCorpus<'_>) -> Vec<PhishFinding> {
    let mut by_key: BTreeMap<(Ipv4Addr, &str), PhishFinding> = BTreeMap::new();
    for (r, status, _, facts) in corpus.http_pages() {
        if status != 200 {
            continue;
        }
        let mut evidence = Vec::new();

        // Structure: the 46-<img> + POST-form kit.
        let imgs = facts.count_of("img");
        let forms = facts.count_of("form");
        if imgs >= 30 && forms >= 1 {
            evidence.push(format!("image-kit structure ({imgs} img tags + form)"));
        }

        // Credential form posting to a foreign host / php collector.
        if let Some(action) = &facts.form_action {
            let foreign = action.starts_with("http://") || action.starts_with("https://");
            let foreign_host = foreign && !action.contains(r.domain);
            if foreign_host && action.contains(".php") {
                evidence.push(format!("credential form posts to {action}"));
            } else if foreign_host
                && forms >= 1
                && corpus
                    .ground_truth(r.domain)
                    .is_some_and(|(_, gt)| facts.mimics(gt))
            {
                evidence.push(format!("cloned page posts to {action}"));
            }
        }

        // Self-signed TLS on an impersonated domain.
        if let Some(page) = &r.acquired.https_sni {
            if let Some(cert) = &page.certificate {
                if !cert.valid_chain {
                    evidence.push("self-signed certificate".to_string());
                }
            }
        }

        if evidence.is_empty() {
            continue;
        }
        let entry = by_key
            .entry((r.target_ip, r.domain))
            .or_insert_with(|| PhishFinding {
                target_ip: r.target_ip,
                domain: r.domain.to_string(),
                resolvers: BTreeSet::new(),
                evidence: Vec::new(),
            });
        entry.resolvers.extend(&r.resolvers);
        for e in evidence {
            if !entry.evidence.contains(&e) {
                entry.evidence.push(e);
            }
        }
    }
    by_key.into_values().collect()
}

// ---------------------------------------------------------------------
// Ad manipulation
// ---------------------------------------------------------------------

/// Ad-traffic manipulation classes (Sec. 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AdManipulation {
    /// Banners injected into the provider's page.
    InjectedBanner,
    /// Suspicious JavaScript injected.
    InjectedScript,
    /// Ads replaced with empty placeholders.
    BlankedAds,
    /// A search-page mimicry with embedded ads.
    FakeSearchFront,
}

/// Findings per manipulation class.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdReport {
    /// Manipulating addresses per class.
    pub by_class: BTreeMap<AdManipulation, BTreeSet<Ipv4Addr>>,
    /// Participating resolvers per class.
    pub resolvers: BTreeMap<AdManipulation, BTreeSet<u32>>,
}

/// Detect manipulated ad-provider responses by diffing against ground
/// truth.
pub fn detect_ad_manipulation(corpus: &CaseCorpus<'_>) -> AdReport {
    let mut report = AdReport::default();
    for (r, status, body, facts) in corpus.http_pages() {
        let Some((gt_body, gt)) = corpus.ground_truth(r.domain) else {
            continue;
        };
        if status != 200 || body == gt_body {
            continue;
        }
        let class = if facts.fake_search {
            Some(AdManipulation::FakeSearchFront)
        } else if facts.mimics(gt) {
            // Injection classes require the page to still *be* the ad
            // provider's page — unrelated redirect targets (error pages,
            // misc sites) have their own src attributes and must not
            // count as injections.
            let added = facts.srcs.difference(&gt.srcs).next().is_some();
            let removed = gt.srcs.difference(&facts.srcs).next().is_some();
            let added_script = facts
                .script_srcs
                .difference(&gt.script_srcs)
                .next()
                .is_some();
            if facts.blank_gif && removed {
                Some(AdManipulation::BlankedAds)
            } else if added_script {
                Some(AdManipulation::InjectedScript)
            } else if added {
                Some(AdManipulation::InjectedBanner)
            } else {
                None
            }
        } else {
            None
        };
        if let Some(class) = class {
            report
                .by_class
                .entry(class)
                .or_default()
                .insert(r.target_ip);
            report
                .resolvers
                .entry(class)
                .or_default()
                .extend(&r.resolvers);
        }
    }
    report
}

// ---------------------------------------------------------------------
// Mail interception
// ---------------------------------------------------------------------

/// Mail findings (Sec. 4.3: 64.7% of MX-suspicious resolvers → 1,135
/// listening IPs; 8 resolvers → banner clones).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MailReport {
    /// IPs listening on mail ports for redirected MX hostnames.
    pub listening_ips: BTreeSet<Ipv4Addr>,
    /// IPs whose banners match a legitimate provider's banners —
    /// the suspicious clones.
    pub clone_ips: BTreeSet<Ipv4Addr>,
    /// Resolvers redirecting mail hostnames.
    pub resolvers: BTreeSet<u32>,
}

/// Detect mail interception. `legit_banners` are the banner strings of
/// the real providers.
pub fn detect_mail_interception(
    corpus: &CaseCorpus<'_>,
    legit_banners: &BTreeSet<String>,
) -> MailReport {
    let mut report = MailReport::default();
    for r in &corpus.records {
        if r.acquired.mail_banners.is_empty() {
            continue;
        }
        report.listening_ips.insert(r.target_ip);
        report.resolvers.extend(&r.resolvers);
        if r.acquired
            .mail_banners
            .iter()
            .any(|(_, b)| legit_banners.contains(b))
        {
            report.clone_ips.insert(r.target_ip);
        }
    }
    report
}

// ---------------------------------------------------------------------
// Malware droppers
// ---------------------------------------------------------------------

/// Fake-update malware findings (Sec. 4.3: 228 resolvers → 30 IPs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MalwareReport {
    /// Fake-update hosts serving executables.
    pub dropper_ips: BTreeSet<Ipv4Addr>,
    /// Resolvers directing clients there.
    pub resolvers: BTreeSet<u32>,
}

/// Detect fake-update dropper pages: update-themed content offering an
/// executable download.
pub fn detect_malware_updates(corpus: &CaseCorpus<'_>) -> MalwareReport {
    let mut report = MalwareReport::default();
    for (r, _, _, facts) in corpus.http_pages() {
        if facts.fake_update {
            report.dropper_ips.insert(r.target_ip);
            report.resolvers.extend(&r.resolvers);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmlsim::gen::{self, PageCtx, SiteCategory};
    use netsim::TlsCertificate;
    use scanner::FetchedPage;

    /// One unexpected tuple with its own copy of the acquired content —
    /// the unit the detectors worked on before they judged each
    /// `(domain, target)` pair once, and the unit of the [`oracle`].
    #[derive(Debug, Clone)]
    struct TupleRecord {
        resolver_idx: u32,
        domain: String,
        target_ip: Ipv4Addr,
        acquired: Acquired,
    }

    /// The detectors as they ran per tuple, re-tokenizing each tuple's
    /// body in every detector: the reference the per-pair detectors are
    /// proven equal to.
    mod oracle {
        use super::super::{
            AdManipulation, AdReport, MailReport, MalwareReport, PhishFinding, ProxyReport,
        };
        use super::TupleRecord;
        use htmlsim::{tokenize, PageFeatures, TagInterner, Token};
        use std::collections::{BTreeMap, BTreeSet};
        use std::net::Ipv4Addr;

        pub fn detect_proxies(
            records: &[TupleRecord],
            ground_truth_bodies: &BTreeMap<String, String>,
            min_domains: usize,
        ) -> ProxyReport {
            // target ip → set of domains it mirrored, TLS evidence, resolvers.
            struct Acc {
                mirrored: BTreeSet<String>,
                tls_ok: bool,
                any_tls_attempt: bool,
                resolvers: BTreeSet<u32>,
            }
            let mut by_ip: BTreeMap<Ipv4Addr, Acc> = BTreeMap::new();
            for r in records {
                let Some(http) = &r.acquired.http else {
                    continue;
                };
                let Some(gt) = ground_truth_bodies.get(&r.domain) else {
                    continue;
                };
                if http.status != 200 || &http.body != gt {
                    continue;
                }
                let acc = by_ip.entry(r.target_ip).or_insert_with(|| Acc {
                    mirrored: BTreeSet::new(),
                    tls_ok: false,
                    any_tls_attempt: false,
                    resolvers: BTreeSet::new(),
                });
                acc.mirrored.insert(r.domain.clone());
                acc.resolvers.insert(r.resolver_idx);
                acc.any_tls_attempt = true;
                if let Some(page) = &r.acquired.https_sni {
                    if page
                        .certificate
                        .as_ref()
                        .map(|c| c.valid_chain && c.covers(&r.domain))
                        .unwrap_or(false)
                    {
                        acc.tls_ok = true;
                    }
                }
            }
            let mut report = ProxyReport::default();
            for (ip, acc) in by_ip {
                if acc.mirrored.len() < min_domains {
                    continue;
                }
                if acc.tls_ok {
                    report.tls_proxy_ips.insert(ip);
                    report.resolvers_via_tls.extend(acc.resolvers);
                } else {
                    report.http_only_proxy_ips.insert(ip);
                    report.resolvers_via_http_only.extend(acc.resolvers);
                }
            }
            report
        }

        pub fn detect_phishing(
            records: &[TupleRecord],
            ground_truth_bodies: &BTreeMap<String, String>,
        ) -> Vec<PhishFinding> {
            let mut by_key: BTreeMap<(Ipv4Addr, String), PhishFinding> = BTreeMap::new();
            for r in records {
                let Some(http) = &r.acquired.http else {
                    continue;
                };
                if http.status != 200 {
                    continue;
                }
                let mut evidence = Vec::new();

                // Structure: the 46-<img> + POST-form kit.
                let mut interner = TagInterner::new();
                let features = PageFeatures::extract(&http.body, &mut interner);
                let imgs = features.count_of("img", &interner);
                let forms = features.count_of("form", &interner);
                if imgs >= 30 && forms >= 1 {
                    evidence.push(format!("image-kit structure ({imgs} img tags + form)"));
                }

                // Credential form posting to a foreign host / php collector.
                if let Some(action) = form_action(&http.body) {
                    let foreign = action.starts_with("http://") || action.starts_with("https://");
                    let foreign_host = foreign && !action.contains(&r.domain);
                    if foreign_host && (action.ends_with(".php") || action.contains(".php")) {
                        evidence.push(format!("credential form posts to {action}"));
                    } else if foreign_host
                        && forms >= 1
                        && body_mimics(&http.body, ground_truth_bodies.get(&r.domain))
                    {
                        evidence.push(format!("cloned page posts to {action}"));
                    }
                }

                // Self-signed TLS on an impersonated domain.
                if let Some(page) = &r.acquired.https_sni {
                    if let Some(cert) = &page.certificate {
                        if !cert.valid_chain {
                            evidence.push("self-signed certificate".to_string());
                        }
                    }
                }

                if evidence.is_empty() {
                    continue;
                }
                let entry = by_key
                    .entry((r.target_ip, r.domain.clone()))
                    .or_insert_with(|| PhishFinding {
                        target_ip: r.target_ip,
                        domain: r.domain.clone(),
                        resolvers: BTreeSet::new(),
                        evidence: Vec::new(),
                    });
                entry.resolvers.insert(r.resolver_idx);
                for e in evidence {
                    if !entry.evidence.contains(&e) {
                        entry.evidence.push(e);
                    }
                }
            }
            by_key.into_values().collect()
        }

        // Extract the first `<form … action="…">` value.
        fn form_action(body: &str) -> Option<String> {
            for token in tokenize(body) {
                if let Token::Open { name, attrs, .. } = token {
                    if name == "form" {
                        for (k, v) in attrs {
                            if k == "action" {
                                return Some(v);
                            }
                        }
                    }
                }
            }
            None
        }

        // Whether `body` is structurally close to the ground truth (>60% of
        // opening tags shared).
        fn body_mimics(body: &str, gt: Option<&String>) -> bool {
            let Some(gt) = gt else { return false };
            let mut interner = TagInterner::new();
            let a = PageFeatures::extract(body, &mut interner);
            let b = PageFeatures::extract(gt, &mut interner);
            htmlsim::distance::jaccard_multiset(&a.tag_multiset, &b.tag_multiset) < 0.4
        }

        pub fn detect_ad_manipulation(
            records: &[TupleRecord],
            ground_truth_bodies: &BTreeMap<String, String>,
        ) -> AdReport {
            let mut report = AdReport::default();
            for r in records {
                let Some(http) = &r.acquired.http else {
                    continue;
                };
                let Some(gt) = ground_truth_bodies.get(&r.domain) else {
                    continue;
                };
                if http.status != 200 || &http.body == gt {
                    continue;
                }
                let body = &http.body;
                let lower = body.to_ascii_lowercase();
                let class = if lower.contains("did you mean") && lower.contains("search") {
                    Some(AdManipulation::FakeSearchFront)
                } else if body_mimics(body, Some(gt)) {
                    // Injection classes require the page to still *be* the ad
                    // provider's page — unrelated redirect targets (error pages,
                    // misc sites) have their own src attributes and must not
                    // count as injections.
                    let gt_srcs = src_hosts(gt);
                    let srcs = src_hosts(body);
                    let added: Vec<&String> = srcs.difference(&gt_srcs).collect();
                    let removed: Vec<&String> = gt_srcs.difference(&srcs).collect();
                    let added_script = script_srcs(body)
                        .difference(&script_srcs(gt))
                        .next()
                        .is_some();
                    if body.contains("/blank.gif") && !removed.is_empty() {
                        Some(AdManipulation::BlankedAds)
                    } else if added_script {
                        Some(AdManipulation::InjectedScript)
                    } else if !added.is_empty() {
                        Some(AdManipulation::InjectedBanner)
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some(class) = class {
                    report
                        .by_class
                        .entry(class)
                        .or_default()
                        .insert(r.target_ip);
                    report
                        .resolvers
                        .entry(class)
                        .or_default()
                        .insert(r.resolver_idx);
                }
            }
            report
        }

        fn src_hosts(body: &str) -> BTreeSet<String> {
            let mut out = BTreeSet::new();
            for token in tokenize(body) {
                if let Token::Open { attrs, .. } = token {
                    for (k, v) in attrs {
                        if k == "src" {
                            out.insert(v);
                        }
                    }
                }
            }
            out
        }

        fn script_srcs(body: &str) -> BTreeSet<String> {
            let mut out = BTreeSet::new();
            for token in tokenize(body) {
                if let Token::Open { name, attrs, .. } = token {
                    if name == "script" {
                        for (k, v) in attrs {
                            if k == "src" {
                                out.insert(v);
                            }
                        }
                    }
                }
            }
            out
        }

        pub fn detect_mail_interception(
            records: &[TupleRecord],
            legit_banners: &BTreeSet<String>,
        ) -> MailReport {
            let mut report = MailReport::default();
            for r in records {
                if r.acquired.mail_banners.is_empty() {
                    continue;
                }
                report.listening_ips.insert(r.target_ip);
                report.resolvers.insert(r.resolver_idx);
                if r.acquired
                    .mail_banners
                    .iter()
                    .any(|(_, b)| legit_banners.contains(b))
                {
                    report.clone_ips.insert(r.target_ip);
                }
            }
            report
        }

        pub fn detect_malware_updates(records: &[TupleRecord]) -> MalwareReport {
            let mut report = MalwareReport::default();
            for r in records {
                let Some(http) = &r.acquired.http else {
                    continue;
                };
                let body = http.body.to_ascii_lowercase();
                if (body.contains("out of date")
                    || body.contains("update required")
                    || body.contains("install update"))
                    && body.contains(".exe")
                {
                    report.dropper_ips.insert(r.target_ip);
                    report.resolvers.insert(r.resolver_idx);
                }
            }
            report
        }
    }

    /// Group tuples into the per-pair records the detectors take, in
    /// order of first appearance.
    fn pairs(tuples: &[TupleRecord]) -> Vec<CaseRecord<'_>> {
        let mut records: Vec<CaseRecord<'_>> = Vec::new();
        for t in tuples {
            match records
                .iter_mut()
                .find(|r| r.domain == t.domain && r.target_ip == t.target_ip)
            {
                Some(r) => r.resolvers.push(t.resolver_idx),
                None => records.push(CaseRecord {
                    domain: &t.domain,
                    target_ip: t.target_ip,
                    acquired: &t.acquired,
                    resolvers: vec![t.resolver_idx],
                }),
            }
        }
        records
    }

    const LEGIT_BANNER: &str = "220 smtp.gmail.example ESMTP ready";

    fn json<T: Serialize>(report: &T) -> String {
        serde_json::to_string(report).unwrap()
    }

    fn corpus<'a>(
        tuples: &'a [TupleRecord],
        ground_truth_bodies: &'a BTreeMap<String, String>,
    ) -> CaseCorpus<'a> {
        CaseCorpus::new(pairs(tuples), ground_truth_bodies)
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn fetched(status: u16, body: &str) -> FetchedPage {
        FetchedPage {
            status,
            body: body.to_string(),
            certificate: None,
            redirects: 0,
            final_host: "h".into(),
            final_ip: ip("9.9.9.9"),
        }
    }

    fn rec(resolver: u32, domain: &str, target: &str, http_body: Option<&str>) -> TupleRecord {
        TupleRecord {
            resolver_idx: resolver,
            domain: domain.to_string(),
            target_ip: ip(target),
            acquired: Acquired {
                http: http_body.map(|b| fetched(200, b)),
                https_sni: None,
                https_nosni: None,
                mail_banners: Vec::new(),
            },
        }
    }

    /// Every planted page family × 3 domains × several resolvers. Each
    /// family's host keeps one address across the domains (so every
    /// address is shared by three domains), and the router login, the
    /// fake search front and the dropper serve the same bytes under
    /// every domain.
    fn planted_tuples() -> (Vec<TupleRecord>, BTreeMap<String, String>, BTreeSet<String>) {
        let domains = ["bank.example", "pay.example", "adnet.example"];
        let mut gts: BTreeMap<String, String> = BTreeMap::new();
        for d in domains {
            // A banking page (login form) that also embeds a partner ad.
            let page = gen::legit_site(SiteCategory::Banking, &PageCtx::new(d, 7)).replace(
                "<main>",
                "<main><img src=\"http://ads.partner.example/banner.gif\">",
            );
            gts.insert(d.to_string(), page);
        }
        let shared = PageCtx::new("shared.example", 3);

        let mut tuples: Vec<TupleRecord> = Vec::new();
        // Several resolvers per pair, interleaved so that the tuples of
        // one pair are never adjacent.
        for k in 0..3u32 {
            for (di, d) in domains.iter().enumerate() {
                let gt = &gts[*d];
                let own = PageCtx::new(d, 11 + di as u64);
                let valid = Some(TlsCertificate::valid_for(d));
                let self_signed = Some(TlsCertificate::self_signed(d));
                // (address, status, body, SNI certificate, mail banners)
                type Plant = (
                    &'static str,
                    u16,
                    Option<String>,
                    Option<TlsCertificate>,
                    Vec<&'static str>,
                );
                let plants: Vec<Plant> = vec![
                    (
                        "30.0.0.1",
                        200,
                        Some(gen::router_login(gen::RouterVendor::ZyRouter, &shared)),
                        None,
                        vec![],
                    ),
                    (
                        "30.0.0.2",
                        200,
                        Some(gen::phishing_kit_images("paypal", &own)),
                        self_signed.clone(),
                        vec![],
                    ),
                    (
                        "30.0.0.3",
                        200,
                        Some(gt.replace(
                            &format!("https://{d}/login"),
                            "http://203.0.113.66/cgi/harvest.php",
                        )),
                        None,
                        vec![],
                    ),
                    (
                        "30.0.0.4",
                        200,
                        Some(gt.replace(
                            &format!("https://{d}/login"),
                            "http://203.0.113.66/cgi/harvest",
                        )),
                        None,
                        vec![],
                    ),
                    (
                        "30.0.0.5",
                        200,
                        Some(gen::inject_ad(gt, "ads.rogue.example")),
                        None,
                        vec![],
                    ),
                    (
                        "30.0.0.6",
                        200,
                        Some(gen::inject_script(gt, "js.rogue.example")),
                        None,
                        vec![],
                    ),
                    ("30.0.0.7", 200, Some(gen::blank_ads(gt)), None, vec![]),
                    (
                        "30.0.0.8",
                        200,
                        Some(gen::search_page("Google", true, &shared)),
                        None,
                        vec![],
                    ),
                    (
                        "30.0.0.9",
                        200,
                        Some(gen::fake_update_page("Flash", &shared)),
                        None,
                        vec![],
                    ),
                    // The dropper page behind an error status still counts.
                    (
                        "30.0.0.10",
                        404,
                        Some(gen::fake_update_page("Java", &own)),
                        None,
                        vec![],
                    ),
                    // Byte-equal mirrors: one forwards valid TLS, one
                    // refuses it.
                    ("30.0.0.11", 200, Some(gt.clone()), valid, vec![]),
                    ("30.0.0.12", 200, Some(gt.clone()), None, vec![]),
                    // Mail hosts: a relay, and a clone of the provider's banner.
                    ("30.0.0.13", 200, None, None, vec!["220 mail-relay-3 ESMTP"]),
                    ("30.0.0.14", 200, None, None, vec![LEGIT_BANNER]),
                    // Nothing answered at all.
                    ("30.0.0.15", 200, None, None, vec![]),
                ];
                for (pi, (addr, status, body, cert, banners)) in plants.into_iter().enumerate() {
                    let https_sni = cert.map(|c| FetchedPage {
                        certificate: Some(c),
                        ..fetched(200, body.as_deref().unwrap_or(""))
                    });
                    for resolver in [100 * pi as u32 + 10 * di as u32 + k, 9_000 + k] {
                        tuples.push(TupleRecord {
                            resolver_idx: resolver,
                            domain: d.to_string(),
                            target_ip: ip(addr),
                            acquired: Acquired {
                                http: body.as_deref().map(|b| fetched(status, b)),
                                https_sni: https_sni.clone(),
                                https_nosni: None,
                                mail_banners: banners
                                    .iter()
                                    .map(|b| ("smtp".to_string(), b.to_string()))
                                    .collect(),
                            },
                        });
                    }
                }
            }
        }
        (
            tuples,
            gts,
            [LEGIT_BANNER.to_string()].into_iter().collect(),
        )
    }

    #[test]
    fn per_pair_detectors_equal_the_per_tuple_oracle() {
        let (tuples, gts, legit_banners) = planted_tuples();
        let corpus = corpus(&tuples, &gts);
        assert_eq!(corpus.pairs(), 15 * 3);
        assert!(corpus.distinct_bodies() < corpus.pairs());
        for min_domains in [2, 4] {
            assert_eq!(
                json(&detect_proxies(&corpus, min_domains)),
                json(&oracle::detect_proxies(&tuples, &gts, min_domains))
            );
        }
        assert_eq!(
            json(&detect_phishing(&corpus)),
            json(&oracle::detect_phishing(&tuples, &gts))
        );
        assert_eq!(
            json(&detect_ad_manipulation(&corpus)),
            json(&oracle::detect_ad_manipulation(&tuples, &gts))
        );
        assert_eq!(
            json(&detect_mail_interception(&corpus, &legit_banners)),
            json(&oracle::detect_mail_interception(&tuples, &legit_banners))
        );
        assert_eq!(
            json(&detect_malware_updates(&corpus)),
            json(&oracle::detect_malware_updates(&tuples))
        );

        // The corpus exercises every branch the detectors have.
        let proxies = detect_proxies(&corpus, 2);
        assert_eq!(
            proxies.tls_proxy_ips,
            [ip("30.0.0.11")].into_iter().collect()
        );
        assert_eq!(
            proxies.http_only_proxy_ips,
            [ip("30.0.0.12")].into_iter().collect()
        );
        let evidence: BTreeSet<String> = detect_phishing(&corpus)
            .into_iter()
            .flat_map(|f| f.evidence)
            .map(|e| e.split(' ').take(2).collect::<Vec<_>>().join(" "))
            .collect();
        for kind in [
            "image-kit structure",
            "credential form",
            "cloned page",
            "self-signed certificate",
        ] {
            assert!(evidence.contains(kind), "{kind} missing from {evidence:?}");
        }
        let ads = detect_ad_manipulation(&corpus);
        assert_eq!(ads.by_class.len(), 4, "{:?}", ads.by_class);
        assert_eq!(detect_malware_updates(&corpus).dropper_ips.len(), 2);
        let mail = detect_mail_interception(&corpus, &legit_banners);
        assert_eq!(mail.listening_ips.len(), 2);
        assert_eq!(mail.clone_ips.len(), 1);
    }

    #[test]
    fn proxies_need_multiple_domains_and_identity() {
        let gt_a = gen::legit_site(
            SiteCategory::Banking,
            &PageCtx::new("a.example", htmlsim::gen::PageCtx::new("a.example", 0).seed),
        );
        // Use the shared legit_content convention instead: identical
        // bodies keyed by domain.
        let mut gts = BTreeMap::new();
        gts.insert("a.example".to_string(), "BODY-A".to_string());
        gts.insert("b.example".to_string(), "BODY-B".to_string());
        gts.insert("c.example".to_string(), "BODY-C".to_string());
        let _ = gt_a;

        let records = vec![
            rec(1, "a.example", "30.0.0.1", Some("BODY-A")),
            rec(1, "b.example", "30.0.0.1", Some("BODY-B")),
            rec(2, "c.example", "30.0.0.1", Some("BODY-C")),
            // A host mirroring only one domain is not a proxy.
            rec(3, "a.example", "30.0.0.2", Some("BODY-A")),
            // A host serving different content is not a proxy.
            rec(4, "a.example", "30.0.0.3", Some("OTHER")),
        ];
        let report = detect_proxies(&corpus(&records, &gts), 2);
        assert!(report.http_only_proxy_ips.contains(&ip("30.0.0.1")));
        assert!(!report.http_only_proxy_ips.contains(&ip("30.0.0.2")));
        assert!(!report.http_only_proxy_ips.contains(&ip("30.0.0.3")));
        assert_eq!(
            report.resolvers_via_http_only,
            [1u32, 2].into_iter().collect()
        );
    }

    #[test]
    fn phishing_kit_detected() {
        let kit = gen::phishing_kit_images("paypal", &PageCtx::new("paypal.example", 1));
        let records = vec![rec(7, "paypal.example", "40.0.0.1", Some(&kit))];
        let gts = BTreeMap::new();
        let findings = detect_phishing(&corpus(&records, &gts));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].evidence.iter().any(|e| e.contains("image-kit")));
        assert!(findings[0]
            .evidence
            .iter()
            .any(|e| e.contains("collect.php")));
        assert!(findings[0].resolvers.contains(&7));
    }

    #[test]
    fn bank_clone_detected() {
        let gt = gen::legit_site(
            SiteCategory::Banking,
            &PageCtx::new(
                "bank.example",
                htmlsim::gen::PageCtx::new("bank.example", 0).seed,
            ),
        );
        // The clone generator rewrites the form action.
        let clone = gt.replace(
            "https://bank.example/login",
            "http://203.0.113.66/cgi/harvest.php",
        );
        let mut gts = BTreeMap::new();
        gts.insert("bank.example".to_string(), gt);
        let records = vec![rec(9, "bank.example", "41.0.0.1", Some(&clone))];
        let findings = detect_phishing(&corpus(&records, &gts));
        assert_eq!(findings.len(), 1, "clone with foreign php action");
    }

    #[test]
    fn legit_content_not_phishing() {
        let gt = gen::legit_site(SiteCategory::Banking, &PageCtx::new("bank.example", 3));
        let mut gts = BTreeMap::new();
        gts.insert("bank.example".to_string(), gt.clone());
        let records = vec![rec(9, "bank.example", "41.0.0.1", Some(&gt))];
        assert!(detect_phishing(&corpus(&records, &gts)).is_empty());
    }

    #[test]
    fn ad_manipulation_classes() {
        let gt = gen::legit_site(SiteCategory::Ads, &PageCtx::new("adnet.example", 5));
        let injected = gen::inject_ad(&gt, "ads.rogue.example");
        let scripted = gen::inject_script(&gt, "js.rogue.example");
        let fake = gen::search_page("Google", true, &PageCtx::new("adnet.example", 5));
        let mut gts = BTreeMap::new();
        gts.insert("adnet.example".to_string(), gt);
        let records = vec![
            rec(1, "adnet.example", "50.0.0.1", Some(&injected)),
            rec(2, "adnet.example", "50.0.0.2", Some(&scripted)),
            rec(3, "adnet.example", "50.0.0.3", Some(&fake)),
        ];
        let report = detect_ad_manipulation(&corpus(&records, &gts));
        assert!(report.by_class[&AdManipulation::InjectedBanner].contains(&ip("50.0.0.1")));
        assert!(report.by_class[&AdManipulation::InjectedScript].contains(&ip("50.0.0.2")));
        assert!(report.by_class[&AdManipulation::FakeSearchFront].contains(&ip("50.0.0.3")));
    }

    #[test]
    fn mail_interception_and_clones() {
        let legit: BTreeSet<String> = ["220 smtp.gmail.example ESMTP ready".to_string()]
            .into_iter()
            .collect();
        let mut r1 = rec(1, "smtp.gmail.example", "60.0.0.1", None);
        r1.acquired.mail_banners = vec![("smtp".into(), "220 mail-relay-3 ESMTP".into())];
        let mut r2 = rec(2, "smtp.gmail.example", "60.0.0.2", None);
        r2.acquired.mail_banners =
            vec![("smtp".into(), "220 smtp.gmail.example ESMTP ready".into())];
        let r3 = rec(3, "smtp.gmail.example", "60.0.0.3", None);
        let (records, gts) = ([r1, r2, r3], BTreeMap::new());
        let report = detect_mail_interception(&corpus(&records, &gts), &legit);
        assert_eq!(report.listening_ips.len(), 2);
        assert_eq!(report.clone_ips, [ip("60.0.0.2")].into_iter().collect());
    }

    #[test]
    fn malware_droppers_detected() {
        let page = gen::fake_update_page("Flash", &PageCtx::new("update.adobe.example", 2));
        let records = vec![
            rec(1, "update.adobe.example", "70.0.0.1", Some(&page)),
            rec(
                2,
                "update.adobe.example",
                "70.0.0.2",
                Some("<html>plain</html>"),
            ),
        ];
        let gts = BTreeMap::new();
        let report = detect_malware_updates(&corpus(&records, &gts));
        assert_eq!(report.dropper_ips, [ip("70.0.0.1")].into_iter().collect());
    }
}
