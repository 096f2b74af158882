//! The query engine: an immutable set of [`StoreView`]s answering the
//! four query families.
//!
//! An engine is built once per store generation and shared behind an
//! `Arc`: request handlers clone the `Arc`, so a refresh that swaps in
//! a newer engine never invalidates an answer in flight. All JSON goes
//! through `telemetry::json` with fixed key order and integer
//! arithmetic only, so a response body is byte-stable for a given
//! store.
//!
//! Its layers are plain `telemetry::span`s — `parse`, one `probe` per
//! campaign consulted, `serialize` — noted by a `detail` attribute. In
//! the daemon they nest under the request's scope (DESIGN §11);
//! anywhere else they only count into `span.<layer>.*`.

use crate::admission::{deadline_response, Deadline};
use crate::http::{json_body, Response};
use crate::obs::{Labeled, ENDPOINTS};
use scanstore::view::IndexEntry;
use scanstore::{flags, SnapshotSource, StoreView};
use std::collections::BTreeMap;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use telemetry::json::{self, Text};
use telemetry::Span;

/// Opens a `probe` layer, noted with the campaign it reads.
fn probe(campaign: &str) -> Span {
    let mut span = telemetry::span("probe", 0);
    span.attr("detail", campaign);
    span
}

/// An immutable, shareable set of campaign views.
#[derive(Debug)]
pub struct QueryEngine {
    root: PathBuf,
    views: BTreeMap<String, StoreView>,
    /// [`QueryEngine::generation_tag`], rendered once per engine.
    tag: String,
    /// `serve.requests{family}` and `serve.deadline_exceeded{endpoint}`.
    requests: Labeled,
    pub(crate) deadlines: Labeled,
}

impl QueryEngine {
    /// Opens every campaign store under `root` (read-only). `root` may
    /// be a PR 3 bundle store (`<root>/<campaign>/manifest.json`) or a
    /// single store directory.
    pub fn open(root: impl AsRef<Path>) -> io::Result<QueryEngine> {
        let root = root.as_ref().to_path_buf();
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("store directory {} does not exist", root.display()),
            ));
        }
        let mut views = BTreeMap::new();
        for (name, dir) in scanstore::campaign_dirs(&root)? {
            views.insert(name, StoreView::open(&dir)?);
        }
        if views.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no campaign stores under {} (expected <dir>/<campaign>/manifest.json; \
                     collect one with `repro --exp fig1 --store <dir>`)",
                    root.display()
                ),
            ));
        }
        Ok(QueryEngine::over(root, views))
    }

    fn over(root: PathBuf, views: BTreeMap<String, StoreView>) -> QueryEngine {
        let tag = views
            .iter()
            .map(|(name, view)| format!("{name}:{}", view.generation()))
            .collect::<Vec<_>>()
            .join(",");
        // What the router resolves a request to, or `unknown`.
        let families = [&ENDPOINTS[..], &["unknown"]].concat();
        QueryEngine {
            root,
            views,
            tag,
            requests: Labeled::new("serve.requests", "family", &families),
            deadlines: Labeled::new("serve.deadline_exceeded", "endpoint", &ENDPOINTS),
        }
    }

    /// Re-reads every campaign's manifest, decoding only new segments
    /// (all of them after a writer rollback), and picks up campaigns
    /// that appeared since the engine was built. Returns the refreshed
    /// engine and whether any view's segments changed — a rollback
    /// recommitted to the same generation counts.
    pub fn refresh(&self) -> io::Result<(QueryEngine, bool)> {
        let mut views = BTreeMap::new();
        let mut changed = false;
        for (name, view) in &self.views {
            let next = view.refresh()?;
            changed |= !next.same_segments(view);
            views.insert(name.clone(), next);
        }
        for (name, dir) in scanstore::campaign_dirs(&self.root)? {
            if let std::collections::btree_map::Entry::Vacant(slot) = views.entry(name) {
                slot.insert(StoreView::open(&dir)?);
                changed = true;
            }
        }
        Ok((QueryEngine::over(self.root.clone(), views), changed))
    }

    /// A compact tag identifying the engine's store generations, e.g.
    /// `banner:3,weekly:8`. Cache keys embed it so a refresh naturally
    /// invalidates stale entries.
    pub fn generation_tag(&self) -> &str {
        &self.tag
    }

    /// Campaign names, sorted.
    pub fn campaigns(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }

    /// One campaign's view.
    pub fn view(&self, name: &str) -> Option<&StoreView> {
        self.views.get(name)
    }

    /// Routes one request target (path + query) to its handler,
    /// without a deadline.
    pub fn handle(&self, target: &str) -> Response {
        self.handle_with(target, Deadline::none())
    }

    /// Routes one request target (path + query) to its handler,
    /// checking `deadline` cooperatively at dispatch and between
    /// probe/serialize phases — an expired deadline answers `503
    /// deadline_exceeded` instead of pinning the connection.
    /// (`/metrics`, `/slo`, and `/debug/requests` are served by the
    /// daemon itself — the engine is a pure function of the store, so
    /// live data never routes through here.)
    pub fn handle_with(&self, target: &str, deadline: Deadline) -> Response {
        let mut parse = telemetry::span("parse", 0);
        let (path, params) = crate::http::split_target(target);
        let get =
            |key: &str| -> Option<&str> { params.iter().find(|(k, _)| *k == key).map(|&(_, v)| v) };
        let family = match path {
            "/classify" => "classify",
            "/churn" => "churn",
            "/amplifiers" => "amplifiers",
            "/coverage" => "coverage",
            "/campaigns" => "campaigns",
            "/healthz" => "healthz",
            _ => {
                self.requests.inc("unknown");
                return Response::error(404, &format!("unknown path {path}"));
            }
        };
        parse.attr("detail", family);
        drop(parse);
        self.requests.inc(family);
        if deadline.expired() {
            return deadline_response(&self.deadlines, family);
        }
        match path {
            "/classify" => self.classify(get("ip"), deadline),
            "/churn" => self.churn(get("asn"), get("campaign"), deadline),
            "/amplifiers" => {
                self.amplifiers(get("country"), get("limit"), get("campaign"), deadline)
            }
            "/coverage" => self.coverage(get("campaign"), deadline),
            "/campaigns" => self.campaign_inventory(),
            _ => self.healthz(),
        }
    }

    /// The campaign a query runs over: the explicit `campaign` param,
    /// else `weekly` when present, else the first campaign.
    fn pick_campaign(&self, requested: Option<&str>) -> Result<(&str, &StoreView), Response> {
        match requested {
            Some(name) => match self.views.get_key_value(name) {
                Some((k, v)) => Ok((k, v)),
                None => Err(Response::error(
                    404,
                    &format!("unknown campaign `{name}`; see /campaigns"),
                )),
            },
            None => {
                match self
                    .views
                    .get_key_value("weekly")
                    .or_else(|| self.views.iter().next())
                {
                    Some((k, v)) => Ok((k.as_str(), v)),
                    // `open` rejects empty stores, so this is
                    // unreachable; answer a uniform 500 rather than
                    // panicking if that invariant ever breaks.
                    None => Err(Response::error(500, "no campaigns loaded")),
                }
            }
        }
    }

    fn classify(&self, ip: Option<&str>, deadline: Deadline) -> Response {
        let Some(ip_str) = ip else {
            return Response::error(400, "classify requires ?ip=a.b.c.d");
        };
        let Ok(ip) = ip_str.parse::<Ipv4Addr>() else {
            return Response::error(400, &format!("`{ip_str}` is not a dotted IPv4 address"));
        };
        let ip_u32 = u32::from(ip);
        // Probe every campaign's index first, then serialize, so the
        // span tree separates index time from formatting time.
        let mut matches: Vec<(&String, &StoreView, &IndexEntry)> = Vec::new();
        for (name, view) in &self.views {
            if deadline.expired() {
                return deadline_response(&self.deadlines, "classify");
            }
            let span = probe(name);
            let hit = view.index().lookup(ip_u32);
            drop(span);
            if let Some(e) = hit {
                matches.push((name, view, e));
            }
        }
        if deadline.expired() {
            return deadline_response(&self.deadlines, "classify");
        }
        let _serialize = telemetry::span("serialize", 0);
        let open_live = matches
            .iter()
            .any(|(_, _, e)| e.live && e.latest.rcode == 0);
        let summary = if open_live {
            "open-resolver-live"
        } else if matches.iter().any(|(_, _, e)| e.live) {
            "responding-error"
        } else if !matches.is_empty() {
            "churned"
        } else {
            "unknown"
        };
        let body = json_body(256, |o| {
            o.field("query", "classify");
            o.field("ip", Text(ip));
            o.field("found", !matches.is_empty());
            o.field("summary", summary);
            o.object("campaigns", |c| {
                for (name, view, e) in &matches {
                    c.object(name, |o| entry_json(view, e, o));
                }
            });
        });
        Response::ok(body)
    }

    fn churn(&self, asn: Option<&str>, campaign: Option<&str>, deadline: Deadline) -> Response {
        let Some(asn_str) = asn else {
            return Response::error(400, "churn requires ?asn=<number>");
        };
        let Ok(asn) = asn_str.parse::<u32>() else {
            return Response::error(400, &format!("`{asn_str}` is not an AS number"));
        };
        let (name, view) = match self.pick_campaign(campaign) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let span = probe(name);
        let series = view.index().asn_series(asn);
        drop(span);
        let Some(series) = series else {
            return Response::error(404, &format!("AS{asn} was never observed in `{name}`"));
        };
        if deadline.expired() {
            return deadline_response(&self.deadlines, "churn");
        }
        let _serialize = telemetry::span("serialize", 0);
        let cohort = series.survivors.first().copied().unwrap_or(0);
        let body = json_body(256, |o| {
            o.field("query", "churn");
            o.field("asn", asn);
            o.field("campaign", name);
            o.field("cohort", cohort);
            o.array("snapshots", |a| {
                for seq in 0..view.generation() {
                    a.push(view.segment_meta(seq).map_or("", |(label, _, _)| label));
                }
            });
            o.field("present", series.present.as_slice());
            o.field("survivors", series.survivors.as_slice());
            // Parts-per-million retention of the snapshot-0 cohort:
            // integer arithmetic, so the curve is byte-stable.
            o.array("retention_ppm", |a| {
                for &s in &series.survivors {
                    a.push((s * 1_000_000).checked_div(cohort).unwrap_or(0));
                }
            });
        });
        Response::ok(body)
    }

    fn amplifiers(
        &self,
        country: Option<&str>,
        limit: Option<&str>,
        campaign: Option<&str>,
        deadline: Deadline,
    ) -> Response {
        let Some(country) = country else {
            return Response::error(400, "amplifiers requires ?country=CC");
        };
        let limit = match limit {
            None => 10usize,
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= 1 => n.min(200),
                _ => return Response::error(400, "limit must be a positive integer"),
            },
        };
        let (name, view) = match self.pick_campaign(campaign) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let span = probe(name);
        let mut candidates: Vec<&IndexEntry> = view
            .string_ids(country)
            .flat_map(|id| view.index().in_country(id))
            .filter(|e| e.live && e.latest.rcode == 0)
            .collect();
        let total = candidates.len();
        // Highest score first; ties resolve by address so the ranking
        // is a total order — selecting the top `limit` and sorting only
        // those yields the list a full sort would.
        let rank = |e: &&IndexEntry| (std::cmp::Reverse(amp_score(e)), e.ip);
        if total > limit {
            candidates.select_nth_unstable_by_key(limit, rank);
            candidates.truncate(limit);
        }
        candidates.sort_unstable_by_key(rank);
        drop(span);
        if deadline.expired() {
            return deadline_response(&self.deadlines, "amplifiers");
        }
        let _serialize = telemetry::span("serialize", 0);
        let body = json_body(128 + candidates.len() * 96, |o| {
            o.field("query", "amplifiers");
            o.field("country", country);
            o.field("campaign", name);
            o.field("total_candidates", total);
            o.field("returned", candidates.len());
            o.array("candidates", |a| {
                for e in &candidates {
                    let tcp = e.latest.flags & flags::TCP_RESPONSIVE != 0;
                    a.object(|o| {
                        o.field("ip", Text(Ipv4Addr::from(e.ip)));
                        o.field("asn", e.latest.asn);
                        o.field("score", amp_score(e));
                        o.field("rounds", e.rounds);
                        o.field("tcp_responsive", tcp);
                        o.field("software", view.string(e.latest.software));
                    });
                }
            });
        });
        Response::ok(body)
    }

    fn coverage(&self, campaign: Option<&str>, deadline: Deadline) -> Response {
        let (name, view) = match self.pick_campaign(campaign) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let span = probe(name);
        let idx = view.index();
        let live = idx.snapshot_sizes().last().copied().unwrap_or(0);
        drop(span);
        if deadline.expired() {
            return deadline_response(&self.deadlines, "coverage");
        }
        let _serialize = telemetry::span("serialize", 0);
        let generation = view.generation();
        // Segment metadata is dense in `seq`: the last one present means
        // every one is. Answer a uniform 500, not a panic, if it is not.
        if generation > 0 && view.segment_meta(generation - 1).is_none() {
            return Response::error(500, "segment metadata missing");
        }
        let body = json_body(256, |o| {
            o.field("query", "coverage");
            o.field("campaign", name);
            o.field("generation", generation);
            o.field("live_records", live);
            o.field("distinct_ips", idx.entries().len());
            o.array("snapshots", |a| {
                let segments = (0..generation).map_while(|seq| view.segment_meta(seq));
                for (seq, (label, t_ms, meta)) in segments.enumerate() {
                    a.object(|o| {
                        o.field("seq", seq);
                        o.field("label", label);
                        o.field("t_ms", t_ms);
                        o.field("records", idx.snapshot_sizes()[seq]);
                        o.object("meta", |m| {
                            for (k, v) in meta.iter() {
                                m.field(k, v);
                            }
                        });
                    });
                }
            });
        });
        Response::ok(body)
    }

    fn campaign_inventory(&self) -> Response {
        let _serialize = telemetry::span("serialize", 0);
        let body = json_body(64 + self.views.len() * 96, |o| {
            o.field("query", "campaigns");
            o.array("campaigns", |a| {
                for (name, view) in &self.views {
                    let live = view.index().snapshot_sizes().last().copied();
                    a.object(|o| {
                        o.field("name", name);
                        o.field("generation", view.generation());
                        o.field("live_records", live.unwrap_or(0));
                        o.field("distinct_ips", view.index().entries().len());
                        o.field("recovered", view.recovered());
                    });
                }
            });
        });
        Response::ok(body)
    }

    fn healthz(&self) -> Response {
        // healthz is read on every fleet warm-up; keep it cacheable so
        // the cache sees traffic even on tiny stores.
        Response::ok(json_body(64, |o| {
            o.field("ok", true);
            o.field("generations", self.generation_tag());
        }))
    }
}

/// Deterministic integer amplification score: stability (rounds
/// present) dominates, TCP fallback and a known software banner add
/// confidence, proxy forwarding a little more.
fn amp_score(e: &IndexEntry) -> u64 {
    let mut score = u64::from(e.rounds) * 1000;
    if e.latest.flags & flags::TCP_RESPONSIVE != 0 {
        score += 500;
    }
    if e.latest.software != 0 {
        score += 100;
    }
    if e.latest.flags & flags::PROXY != 0 {
        score += 25;
    }
    score
}

fn entry_json(view: &StoreView, e: &IndexEntry, out: &mut json::Object<'_>) {
    let o = &e.latest;
    let chaos = match flags::chaos_outcome(o.flags) {
        flags::CHAOS_ERRORS => "errors",
        flags::CHAOS_EMPTY => "empty",
        flags::CHAOS_VERSION => "version",
        _ => "silent",
    };
    out.field("live", e.live);
    out.field("rcode", o.rcode);
    out.field("proxy", o.flags & flags::PROXY != 0);
    out.field("tcp_responsive", o.flags & flags::TCP_RESPONSIVE != 0);
    out.field("chaos", chaos);
    out.field("software", view.string(o.software));
    out.field("device", view.string(o.device));
    out.field("country", view.string(o.country));
    out.field("rdns", view.string(o.rdns));
    out.field("asn", o.asn);
    out.field("banner_hash", o.banner_hash);
    out.field("value", o.value);
    out.field("first_seq", e.first_seq);
    out.field("last_seq", e.last_seq);
    out.field("rounds", e.rounds);
    out.field("snapshots", view.generation());
    out.field("first_seen_ms", o.first_seen_ms);
    out.field("last_seen_ms", o.last_seen_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanstore::{CampaignStore, Observation, ObservationSink, SnapshotSink};
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("gw-engine-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn seed_store(dir: &Path) {
        let mut store = CampaignStore::open(dir.join("weekly")).unwrap();
        let us = store.intern("US");
        let de = store.intern("DE");
        let soft = store.intern("dnsmasq-2.51");
        for week in 0u32..3 {
            for ip in [10u32, 20, 30, 40] {
                if ip == 40 && week > 0 {
                    continue; // 40 churns out after week 0
                }
                let mut o =
                    Observation::at(ip, if ip == 30 { 5 } else { 0 }, 1_000 + u64::from(week));
                o.country = if ip == 20 { de } else { us };
                o.asn = if ip == 20 { 2 } else { 1 };
                if ip == 10 {
                    o.software = soft;
                    o.flags = scanstore::flags::TCP_RESPONSIVE;
                }
                store.observe(o);
            }
            store
                .commit(&format!("week-{week}"), 1_000 + u64::from(week), &[])
                .unwrap();
        }
    }

    fn body(r: &Response) -> String {
        String::from_utf8(r.body.clone()).unwrap()
    }

    #[test]
    fn classify_answers_from_the_index() {
        let tmp = TempDir::new("classify");
        seed_store(&tmp.0);
        let engine = QueryEngine::open(&tmp.0).unwrap();

        let r = engine.handle("/classify?ip=0.0.0.10");
        assert_eq!(r.status, 200);
        let b = body(&r);
        assert!(b.contains("\"summary\":\"open-resolver-live\""), "{b}");
        assert!(b.contains("\"software\":\"dnsmasq-2.51\""), "{b}");
        assert!(b.contains("\"tcp_responsive\":true"), "{b}");
        assert!(b.contains("\"rounds\":3"), "{b}");

        let churned = body(&engine.handle("/classify?ip=0.0.0.40"));
        assert!(churned.contains("\"summary\":\"churned\""), "{churned}");
        let unknown = body(&engine.handle("/classify?ip=9.9.9.9"));
        assert!(unknown.contains("\"found\":false"), "{unknown}");
        assert_eq!(engine.handle("/classify?ip=banana").status, 400);
        assert_eq!(engine.handle("/classify").status, 400);
    }

    #[test]
    fn churn_and_amplifiers_and_coverage() {
        let tmp = TempDir::new("families");
        seed_store(&tmp.0);
        let engine = QueryEngine::open(&tmp.0).unwrap();

        let churn = body(&engine.handle("/churn?asn=1"));
        assert!(churn.contains("\"present\":[3,2,2]"), "{churn}");
        assert!(churn.contains("\"survivors\":[3,2,2]"), "{churn}");
        assert!(churn.contains("\"cohort\":3"), "{churn}");
        assert_eq!(engine.handle("/churn?asn=999").status, 404);
        assert_eq!(engine.handle("/churn").status, 400);

        let amp = body(&engine.handle("/amplifiers?country=US&limit=5"));
        assert!(amp.contains("\"total_candidates\":1"), "{amp}");
        assert!(amp.contains("\"ip\":\"0.0.0.10\""), "{amp}");
        // 30 has rcode 5 and 40 churned: neither is a candidate.
        assert!(!amp.contains("0.0.0.30"), "{amp}");
        assert_eq!(engine.handle("/amplifiers").status, 400);

        let cov = body(&engine.handle("/coverage?campaign=weekly"));
        assert!(cov.contains("\"generation\":3"), "{cov}");
        assert!(cov.contains("\"label\":\"week-2\""), "{cov}");
        assert_eq!(engine.handle("/coverage?campaign=nope").status, 404);

        assert_eq!(engine.handle("/nope").status, 404);
    }

    #[test]
    fn amplifiers_top_k_is_a_prefix_of_the_full_ranking() {
        let tmp = TempDir::new("topk");
        let mut store = CampaignStore::open(tmp.0.join("weekly")).unwrap();
        let us = store.intern("US");
        let soft = store.intern("dnsmasq-2.51");
        // 40 resolvers whose scores collide often (rounds 1..=3, two
        // flags, a banner), so ties on the address decide much of it.
        for week in 0u32..3 {
            for ip in (1u32..=40).filter(|ip| ip % 3 + week >= 2) {
                let mut o = Observation::at(ip, 0, 1_000 + u64::from(week));
                o.country = us;
                if ip % 4 == 0 {
                    o.flags = scanstore::flags::TCP_RESPONSIVE;
                }
                if ip % 5 == 0 {
                    o.software = soft;
                }
                store.observe(o);
            }
            store.commit(&format!("week-{week}"), 1_000, &[]).unwrap();
        }
        let engine = QueryEngine::open(&tmp.0).unwrap();
        // (score, ip) of every candidate of a response, in its order.
        let ranking = |limit: usize| -> Vec<(u64, String)> {
            let b = body(&engine.handle(&format!("/amplifiers?country=US&limit={limit}")));
            let field = |c: &str, key: &str| {
                let rest = &c[c.find(key).unwrap() + key.len()..];
                rest[..rest.find([',', '"']).unwrap()].to_string()
            };
            b.split("{\"ip\":\"")
                .skip(1)
                .map(|c| (field(c, "\"score\":").parse().unwrap(), field(c, "")))
                .collect()
        };
        let full = ranking(200);
        assert_eq!(full.len(), 40);
        let by_ip = |ip: &str| u32::from(ip.parse::<Ipv4Addr>().unwrap());
        assert!(full
            .windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].0 == w[1].0 && by_ip(&w[0].1) < by_ip(&w[1].1))));
        for limit in [1, 7, 39, 40, 41] {
            assert_eq!(ranking(limit), full[..limit.min(full.len())], "{limit}");
        }
    }

    #[test]
    fn responses_are_byte_identical() {
        let tmp = TempDir::new("stable");
        seed_store(&tmp.0);
        let engine = QueryEngine::open(&tmp.0).unwrap();
        for target in [
            "/classify?ip=0.0.0.10",
            "/churn?asn=1",
            "/amplifiers?country=US",
            "/coverage",
            "/campaigns",
        ] {
            assert_eq!(engine.handle(target), engine.handle(target), "{target}");
        }
        // A freshly opened engine over the same bytes agrees too.
        let engine2 = QueryEngine::open(&tmp.0).unwrap();
        assert_eq!(
            engine.handle("/classify?ip=0.0.0.10"),
            engine2.handle("/classify?ip=0.0.0.10")
        );
    }

    #[test]
    fn expired_deadline_answers_503_everywhere() {
        let tmp = TempDir::new("deadline");
        seed_store(&tmp.0);
        let engine = QueryEngine::open(&tmp.0).unwrap();
        for target in [
            "/classify?ip=0.0.0.10",
            "/churn?asn=1",
            "/amplifiers?country=US",
            "/coverage",
        ] {
            let r = engine.handle_with(target, Deadline::expired_now());
            assert_eq!(r.status, 503, "{target}");
            assert_eq!(
                body(&r),
                "{\"error\":\"deadline_exceeded\",\"status\":503}\n",
                "{target}"
            );
        }
        // No deadline (the default paths) answers normally.
        let r = engine.handle_with("/classify?ip=0.0.0.10", Deadline::none());
        assert_eq!(r.status, 200);
    }

    #[test]
    fn refresh_picks_up_new_commits() {
        let tmp = TempDir::new("refresh");
        seed_store(&tmp.0);
        let engine = QueryEngine::open(&tmp.0).unwrap();
        assert_eq!(engine.generation_tag(), "weekly:3");
        let (same, changed) = engine.refresh().unwrap();
        assert!(!changed);
        assert_eq!(same.generation_tag(), "weekly:3");

        let mut store = CampaignStore::open(tmp.0.join("weekly")).unwrap();
        store.observe(Observation::at(50, 0, 2_000));
        store.commit("week-3", 2_000, &[]).unwrap();
        let (next, changed) = engine.refresh().unwrap();
        assert!(changed);
        assert_eq!(next.generation_tag(), "weekly:4");
        let b = body(&next.handle("/classify?ip=0.0.0.50"));
        assert!(b.contains("\"found\":true"), "{b}");
        // The old engine still answers from its own generation.
        assert!(body(&engine.handle("/classify?ip=0.0.0.50")).contains("\"found\":false"));
    }

    #[test]
    fn refresh_reports_a_rollback_recommitted_to_the_same_generation() {
        let tmp = TempDir::new("rollback");
        seed_store(&tmp.0);
        let engine = QueryEngine::open(&tmp.0).unwrap();
        let seg2 = tmp.0.join("weekly").join("seg-00002.gws");
        let mut bytes = fs::read(&seg2).unwrap();
        bytes[20] ^= 0x01;
        fs::write(&seg2, &bytes).unwrap();
        // The writer rolls the flipped week back and commits another.
        let mut store = CampaignStore::open(tmp.0.join("weekly")).unwrap();
        assert_eq!(store.snapshot_count(), 2);
        store.observe(Observation::at(99, 0, 1_002));
        store.commit("week-2", 1_002, &[]).unwrap();

        let (next, changed) = engine.refresh().unwrap();
        assert!(changed, "same generation, different segments");
        assert_eq!(next.generation_tag(), "weekly:3");
        assert!(body(&next.handle("/classify?ip=0.0.0.99")).contains("\"found\":true"));
        let fresh = QueryEngine::open(&tmp.0).unwrap();
        assert_eq!(
            next.handle("/classify?ip=0.0.0.10"),
            fresh.handle("/classify?ip=0.0.0.10")
        );
    }
}
