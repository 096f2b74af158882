//! Kernels: one layer's public function timed in isolation, over inputs
//! captured from the workload's own world — real probe bytes, real
//! response bytes, real pages, real store records, real request targets.
//!
//! Each kernel runs batches until its share of the time budget is spent
//! and reports nanoseconds per operation. Input preparation inside a
//! batch is outside the timed region.

use crate::batch::BatchSpec;
use crate::common::Scratch;
use crate::metrics::Outcome;
use goingwild::BundleOptions;
use netsim::Datagram;
use scanner::encode::EnumProbeTemplate;
use scanner::simio::SimScanner;
use scanner::IpPermutation;
use scanstore::{segment, CampaignStore, MemoryStore, Observation, SnapshotDiff, SnapshotSink};
use std::hint::black_box;
use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};
use worldgen::World;

/// Accumulates timed batches of one kernel.
struct Timer {
    budget: Duration,
    spent: Duration,
    ops: u64,
}

impl Timer {
    fn new(budget: Duration) -> Timer {
        Timer {
            budget,
            spent: Duration::ZERO,
            ops: 0,
        }
    }

    fn more(&self) -> bool {
        self.ops == 0 || (self.spent < self.budget && self.ops < 50_000_000)
    }

    /// Times `f`, which performs `ops` operations.
    fn batch<T>(&mut self, ops: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.spent += t.elapsed();
        self.ops += ops;
        out
    }

    fn ns_per_op(&self) -> f64 {
        self.spent.as_nanos() as f64 / self.ops.max(1) as f64
    }
}

/// Times `f` over the whole of `inputs`, repeatedly.
fn over<I, T>(budget: Duration, inputs: &[I], mut f: impl FnMut(&I) -> T) -> f64 {
    assert!(!inputs.is_empty(), "kernel without captured inputs");
    let mut timer = Timer::new(budget);
    while timer.more() {
        timer.batch(inputs.len() as u64, || {
            for input in inputs {
                black_box(f(black_box(input)));
            }
        });
    }
    timer.ns_per_op()
}

/// ns/op of the batch kernels, kept for the ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchKernels {
    pub stamp_ns: f64,
    pub permute_ns: f64,
    pub send_dark_ns: f64,
    pub send_bound_ns: f64,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub sink_mem_ns: f64,
    pub sink_disk_ns: f64,
    pub judge_ns: f64,
    pub page_distance_ns: f64,
    pub tokenize_ns: f64,
    pub counter_add_ns: f64,
}

const BATCH: usize = 4_096;

/// Runs every kernel the batch workload `spec` exercises, sets their
/// metrics, and returns the ns/op values.
pub fn batch(
    spec: &BatchSpec,
    opts: &BundleOptions,
    scratch: &Scratch,
    budget: Duration,
    out: &mut Outcome,
) -> io::Result<BatchKernels> {
    let mut k = BatchKernels::default();

    let mut world = goingwild::build_world(opts.cfg.clone());

    let seed = 0xF161;
    let zone = world.catalog.scan_zone.clone();
    let ranges = world.scannable_ranges().to_vec();
    let tmpl = EnumProbeTemplate::new(&zone, seed);
    let targets: Vec<Ipv4Addr> = IpPermutation::new(&ranges, seed).take(16 * BATCH).collect();

    k.stamp_ns = over(budget, &targets, |&t| tmpl.probe(t));
    k.permute_ns = {
        let mut timer = Timer::new(budget);
        while timer.more() {
            let perm = IpPermutation::new(&ranges, seed ^ timer.ops);
            timer.batch(BATCH as u64 * 16, || {
                black_box(perm.take(16 * BATCH).count())
            });
        }
        timer.ns_per_op()
    };

    // Dark sends: permuted targets no host is bound to (≈95% of them).
    let vantage = world.scanner_ip;
    let dark: Vec<Ipv4Addr> = targets
        .iter()
        .copied()
        .filter(|&ip| world.net.host_at(ip).is_none())
        .collect();
    k.send_dark_ns = {
        let mut timer = Timer::new(budget);
        while timer.more() {
            let probes: Vec<Datagram> = dark
                .iter()
                .take(BATCH)
                .map(|&ip| {
                    Datagram::new(vantage, scanner::simio::BASE_PORT, ip, 53, tmpl.probe(ip))
                })
                .collect();
            timer.batch(probes.len() as u64, || {
                for d in probes {
                    world.net.send(d, None);
                }
            });
        }
        timer.ns_per_op()
    };

    // Bound sends: probes to live resolvers, pumped until answered. The
    // captured answers are the decode corpus and the store records.
    let live: Vec<Ipv4Addr> = world
        .resolvers
        .iter()
        .filter(|m| m.alive.load(std::sync::atomic::Ordering::Relaxed))
        .filter_map(|m| world.resolver_ip(m))
        .take(BATCH)
        .collect();
    let sim = SimScanner::open(&mut world, vantage);
    let mut responses: Vec<Datagram> = Vec::new();
    k.send_bound_ns = {
        let mut timer = Timer::new(budget);
        while timer.more() {
            let probes: Vec<(Ipv4Addr, Vec<u8>)> =
                live.iter().map(|&ip| (ip, tmpl.probe(ip))).collect();
            timer.batch(probes.len() as u64, || {
                sim.send_batch(&mut world, 0, probes);
                sim.pump(&mut world, 5_000);
            });
            let got = sim.drain(&mut world);
            if responses.is_empty() {
                responses = got.into_iter().map(|(_, _, d)| d).collect();
            }
        }
        timer.ns_per_op()
    };
    sim.close(&mut world);

    // Wire codec over the captured corpus: every probe and every answer.
    let mut corpus: Vec<Vec<u8>> = live.iter().map(|&ip| tmpl.probe(ip)).collect();
    corpus.extend(responses.iter().map(|d| d.payload.to_vec()));
    let decoded: Vec<dnswire::Message> = corpus
        .iter()
        .filter_map(|w| dnswire::Message::decode(w).ok())
        .collect();
    out.metrics
        .set("dnswire.decode_fail", (corpus.len() - decoded.len()) as f64);
    k.decode_ns = over(budget, &corpus, |w| dnswire::Message::decode(w));
    k.encode_ns = over(budget, &decoded, |m| m.encode());

    // Store sinks over the observations those answers become.
    let now = world.now().millis();
    let records: Vec<Observation> = responses
        .iter()
        .zip(&decoded[live.len().min(decoded.len())..])
        .map(|(d, m)| Observation::at(u32::from(d.src_ip), m.header.rcode.to_u8(), now))
        .collect();
    if !records.is_empty() {
        k.sink_mem_ns = sink_kernel(budget, &records, |_| Ok(MemoryStore::new()))?;
        out.metrics
            .set("scanstore.sink_mem_ns_per_record", k.sink_mem_ns);
    }
    if spec.disk && !records.is_empty() {
        k.sink_disk_ns = sink_kernel(budget, &records, |round| {
            CampaignStore::open(scratch.sub(&format!("kernel-sink-{round}")))
        })?;
        out.metrics
            .set("scanstore.sink_disk_ns_per_record", k.sink_disk_ns);
        let (enc, dec) = segment_kernels(budget, &records);
        out.metrics
            .set("scanstore.segment_encode_ns_per_record", enc);
        out.metrics
            .set("scanstore.segment_decode_ns_per_record", dec);
    }

    if !spec.is_enum() {
        analysis_kernels(&mut world, &live, budget, &mut k);
        out.metrics.set("classify.judge_ns", k.judge_ns);
        out.metrics
            .set("htmlsim.page_distance_ns", k.page_distance_ns);
        out.metrics
            .set("htmlsim.tokenize_ns_per_page", k.tokenize_ns);
    }

    k.counter_add_ns = {
        let counter = telemetry::counter("gwbench.kernel.counter_add");
        over(budget, &targets, |_| counter.add(1))
    };

    let m = &mut out.metrics;
    m.set("scanner.stamp_ns", k.stamp_ns);
    m.set("scanner.permute_ns", k.permute_ns);
    m.set("netsim.send_dark_ns", k.send_dark_ns);
    m.set("netsim.send_bound_ns", k.send_bound_ns);
    // A resolver host cannot be driven from outside netsim: its answer
    // cost is what a bound send adds over a dark one.
    m.set(
        "resolversim.answer_ns",
        (k.send_bound_ns - k.send_dark_ns).max(0.0),
    );
    m.set("dnswire.decode_ns", k.decode_ns);
    m.set("dnswire.encode_ns", k.encode_ns);
    m.set("telemetry.counter_add_ns", k.counter_add_ns);
    out.note("kernel.corpus_packets", format!("{} count", corpus.len()));
    out.note(
        "kernel.dark_targets",
        format!("{} of {} count", dark.len(), targets.len()),
    );
    Ok(k)
}

/// observe × n + commit into a fresh store per round; ns per record.
fn sink_kernel<S: SnapshotSink>(
    budget: Duration,
    records: &[Observation],
    mut fresh: impl FnMut(u64) -> io::Result<S>,
) -> io::Result<f64> {
    let mut timer = Timer::new(budget);
    let mut round = 0;
    while timer.more() {
        let mut store = fresh(round)?;
        round += 1;
        timer.batch(records.len() as u64, || {
            for &obs in records {
                store.observe(obs);
            }
            store.commit("kernel", 0, &[])
        })?;
    }
    Ok(timer.ns_per_op())
}

/// Segment encode and decode, ns per record.
fn segment_kernels(budget: Duration, records: &[Observation]) -> (f64, f64) {
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|o| o.ip);
    sorted.dedup_by_key(|o| o.ip);
    let seg = segment::Segment {
        seq: 0,
        t_ms: 0,
        kind: segment::Kind::Full,
        label: "kernel".to_string(),
        meta: Vec::new(),
        new_strings: Vec::new(),
        diff: SnapshotDiff::between(&[], &sorted),
    };
    let n = sorted.len().max(1) as f64;
    let bytes = segment::encode(&seg);
    let enc = over(budget, std::slice::from_ref(&seg), segment::encode) / n;
    let dec = over(budget, std::slice::from_ref(&bytes), |b| segment::decode(b)) / n;
    (enc, dec)
}

/// Prefilter judge over real domain-scan tuples; page distance and
/// tokenizer over real pages of the planted infrastructure.
fn analysis_kernels(world: &mut World, live: &[Ipv4Addr], budget: Duration, k: &mut BatchKernels) {
    use classify::{PreFilter, TrustedView};
    use htmlsim::distance::{page_distance, FeatureWeights};
    use htmlsim::{PageFeatures, TagInterner};
    use resolversim::Resolution;

    let vantage = world.scanner_ip;
    let mut domains: Vec<String> = world
        .catalog
        .domains
        .iter()
        .map(|d| d.name.clone())
        .collect();
    domains.push(world.catalog.ground_truth.clone());

    // The trusted view, as the pipeline builds it.
    let mut trusted = TrustedView::default();
    for name in &domains {
        let mut ips = std::collections::BTreeSet::new();
        for salt in 0..3 {
            if let Resolution::Ips { ips: got, .. } =
                world.universe.resolve(name, geodb::Rir::Arin, salt)
            {
                ips.extend(got);
            }
        }
        if ips.is_empty() {
            trusted.nonexistent.insert(name.clone());
        } else {
            trusted.ips.insert(name.clone(), ips.into_iter().collect());
        }
    }
    let fleet: Vec<Ipv4Addr> = live.iter().copied().take(48).collect();
    let tuples = scanner::scan_domains(world, vantage, &fleet, &domains, 7);
    let geo = world.geo.clone();
    let rdns = world.rdns.clone();
    let universe = world.universe.clone();
    let prefilter = PreFilter::new(
        &trusted,
        &geo,
        &rdns,
        world.infra.cdn_default_cns.clone(),
        move |name: &str| match universe.resolve(name, geodb::Rir::Arin, 0) {
            Resolution::Ips { ips, .. } => ips,
            Resolution::NxDomain => Vec::new(),
        },
    );
    if !tuples.is_empty() {
        k.judge_ns = over(budget, &tuples, |t| {
            prefilter.judge(&domains[t.domain_idx as usize], t)
        });
    }

    // The pages the pipeline clusters are what manipulated answers lead
    // to: fetch, for a few catalog domains each, every kind of host the
    // generator planted (landing, parking, search, error, portal, …).
    let infra = &world.infra;
    let planted: Vec<Ipv4Addr> = [
        &infra.parking_ips,
        &infra.search_ips,
        &infra.error_ips,
        &infra.portal_ips,
        &infra.misc_site_ips,
        &infra.blockpage_ips,
        &infra.phish_ips,
        &infra.ad_banner_ips,
        &infra.ad_script_ips,
        &infra.ad_fake_search_ips,
        &infra.malware_update_ips,
    ]
    .into_iter()
    .chain(infra.landing_ips.values())
    .flat_map(|ips| ips.iter().copied().take(4))
    .collect();
    let mut bodies: Vec<String> = Vec::new();
    for (i, &ip) in planted.iter().enumerate() {
        let domain = &domains[i * 7 % domains.len()];
        let got = scanner::acquire(world, vantage, ip, domain, ip, false);
        if let Some(page) = got.http.or(got.https_sni).or(got.https_nosni) {
            bodies.push(page.body);
        }
    }
    if bodies.len() >= 2 {
        k.tokenize_ns = over(budget, &bodies, |b| htmlsim::tokenize(b));
        let mut interner = TagInterner::new();
        let features: Vec<PageFeatures> = bodies
            .iter()
            .map(|b| PageFeatures::extract(b, &mut interner))
            .collect();
        let weights = FeatureWeights::default();
        let pairs: Vec<(usize, usize)> = (0..features.len())
            .flat_map(|i| (i + 1..features.len()).map(move |j| (i, j)))
            .collect();
        k.page_distance_ns = over(budget, &pairs, |&(i, j)| {
            page_distance(&features[i], &features[j], &weights)
        });
    }
}

/// ns/op of the serve kernels, kept for the ledger.
#[derive(Debug, Default, Clone)]
pub struct ServeKernels {
    pub parse_ns: f64,
    pub cache_get_ns: f64,
    pub cache_put_ns: f64,
    /// `(family, ns)` for classify, churn, amplifiers, coverage, campaigns.
    pub handle_ns: Vec<(&'static str, f64)>,
    pub to_wire_ns: f64,
    pub index_lookup_ns: f64,
}

/// The five query families of the fleet mix.
pub const FAMILIES: [&str; 5] = ["classify", "churn", "amplifiers", "coverage", "campaigns"];

pub fn family_of(target: &str) -> &'static str {
    FAMILIES
        .into_iter()
        .find(|f| target[1..].starts_with(f))
        .unwrap_or("campaigns")
}

/// Kernels of the serving path over the run's own targets and store.
pub fn serve(
    engine: &serve::QueryEngine,
    targets: &[String],
    budget: Duration,
    out: &mut Outcome,
) -> ServeKernels {
    use serve::http::{parse_request_line, split_target};
    let mut k = ServeKernels::default();

    let heads: Vec<String> = targets
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\nHost: gwbench\r\nConnection: close\r\n\r\n"))
        .collect();
    k.parse_ns = over(budget, &heads, |h| {
        parse_request_line(h).map(|(_, target)| split_target(target).1.len())
    });

    for family in FAMILIES {
        let of_family: Vec<&String> = targets.iter().filter(|t| family_of(t) == family).collect();
        if !of_family.is_empty() {
            let ns = over(budget, &of_family, |t| engine.handle(t));
            out.metrics.set(&format!("serve.handle_ns.{family}"), ns);
            k.handle_ns.push((family, ns));
        }
    }

    let responses: Vec<serve::http::Response> =
        targets.iter().take(512).map(|t| engine.handle(t)).collect();
    k.to_wire_ns = over(budget, &responses, |r| r.to_wire());

    // The daemon's cache at its default capacity, keyed as it keys.
    let tag = engine.generation_tag();
    let entries: Vec<(String, std::sync::Arc<Vec<u8>>)> = targets
        .iter()
        .zip(responses.iter().cycle())
        .map(|(t, r)| (format!("{tag}|{t}"), std::sync::Arc::new(r.to_wire())))
        .collect();
    let cap = serve::ServeOptions::default().cache_cap;
    let mut cache = serve::LruCache::new(cap).expect("non-zero capacity");
    let resident: Vec<&(String, std::sync::Arc<Vec<u8>>)> = entries.iter().take(cap / 2).collect();
    for (key, body) in &resident {
        cache.put(key.clone(), "classify", body.clone());
    }
    k.cache_get_ns = over(budget, &resident, |(key, _)| cache.get(key, "classify"));
    // Puts into a full cache evict: the miss path's cost.
    let mut cache = serve::LruCache::new(cap).expect("non-zero capacity");
    k.cache_put_ns = {
        let mut timer = Timer::new(budget);
        while timer.more() {
            let batch: Vec<(String, std::sync::Arc<Vec<u8>>)> = entries.to_vec();
            timer.batch(batch.len() as u64, || {
                for (key, body) in batch {
                    cache.put(key, "classify", body);
                }
            });
        }
        timer.ns_per_op()
    };

    // Index probes over every indexed address of the largest campaign.
    if let Some(view) = engine
        .campaigns()
        .filter_map(|c| engine.view(c))
        .max_by_key(|v| v.index().entries().len())
    {
        let ips: Vec<u32> = view.index().entries().iter().map(|e| e.ip).collect();
        if !ips.is_empty() {
            k.index_lookup_ns = over(budget, &ips, |&ip| view.index().lookup(ip).is_some());
        }
    }

    let m = &mut out.metrics;
    m.set("serve.parse_ns", k.parse_ns);
    m.set("serve.to_wire_ns", k.to_wire_ns);
    m.set("serve.cache_get_ns", k.cache_get_ns);
    m.set("serve.cache_put_ns", k.cache_put_ns);
    m.set("scanstore.index_lookup_ns", k.index_lookup_ns);
    k
}
