//! The batch workloads: `enum_seq`, `repro_all`, and the hand-run
//! `enum_shards2`.
//!
//! One *pass* is what a `repro` user runs: `collect_bundle` over a fresh
//! world followed by `derive_all`. A run first computes reference outputs
//! with the sequential engine into memory (its set-up, and the process's
//! cold pass), then repeats identical passes for the measuring window and
//! reports medians. Every pass must reproduce the reference digest.

use crate::common::{dir_bytes, Delta, Digest, Scratch};
use crate::metrics::Outcome;
use crate::trace::Tracer;
use crate::{kernels, ledger, procfs, stats, Args, Workload};
use goingwild::experiments::{self, DeriveOptions, Experiment, ExperimentOutput, REGISTRY};
use goingwild::{collect_bundle, BundleData, BundleOptions, CampaignKind, EnrichSink, WorldConfig};
use netsim::SimTime;
use scanstore::{MemoryStore, SnapshotSink, SnapshotSource};
use std::io;
use std::path::Path;
use std::time::Instant;

/// World seed of `repro_all`. Its clustering stage is quadratic in a page
/// count that swings 696–1332 across world seeds (1.2–3.6 s of a pass), so
/// the population is pinned and `--seed` drives the scan seeds instead.
pub const PINNED_WORLD_SEED: u64 = 2015_1028;

/// Relative error every closed-loop row must stay inside. At this scale
/// the worst row (TCP-exposed share, ≈300 hosts) sits near 0.16.
const CLOSED_LOOP_TOLERANCE: f64 = 0.40;

/// Hourly snooping rounds of `repro_all`, a third of the default. Every
/// round commits one segment per snooped TLD, each with four fsyncs; at
/// the default 36 rounds fsync latency, a property of the host's disk,
/// is two fifths of a pass.
const SNOOP_ROUNDS: usize = 12;

/// Coverage below which a campaign counts as a failed operation.
const COVERAGE_FLOOR: f64 = 0.95;

/// Shards of the sharded engine wherever the benchmark runs it: the
/// host's core count. The engine adds a coordinator thread to its shard
/// workers, so it runs one thread more than the host has cores.
const SHARDS: usize = 2;

/// Times an untraced run sets up; `setup_s` is the fastest. At least 2:
/// the window lies between them.
const SETUPS: usize = 3;

/// The fixed configuration of one batch workload.
pub struct BatchSpec {
    pub workload: Workload,
    pub kinds: Vec<CampaignKind>,
    pub exps: Vec<&'static Experiment>,
    pub scale: f64,
    pub weeks: u32,
    pub shards: usize,
    pub snoop_sample: usize,
    /// Collect into an on-disk store (a fresh directory per pass).
    pub disk: bool,
    pub pinned_world: bool,
}

impl BatchSpec {
    pub fn of(workload: Workload, quick: bool) -> BatchSpec {
        let shrink = if quick { 3.0 } else { 1.0 };
        let exp = |id: &str| experiments::experiment(id).expect("registry id");
        match workload {
            Workload::EnumSeq | Workload::EnumShards2 => BatchSpec {
                workload,
                kinds: vec![CampaignKind::Weekly],
                exps: vec![exp("fig1"), exp("tab1"), exp("tab2")],
                scale: 0.0003 / shrink,
                weeks: if quick { 2 } else { 3 },
                shards: if workload == Workload::EnumShards2 {
                    SHARDS
                } else {
                    1
                },
                snoop_sample: 0,
                disk: false,
                pinned_world: false,
            },
            Workload::ReproAll => BatchSpec {
                workload,
                kinds: CampaignKind::ALL.to_vec(),
                exps: REGISTRY.iter().collect(),
                // Already near the floor the planted case studies allow:
                // quick mode only trims the snoop sample.
                scale: 0.00004,
                weeks: 2,
                shards: 1,
                snoop_sample: if quick { 40 } else { 100 },
                disk: true,
                pinned_world: true,
            },
            Workload::ServeHot | Workload::ServeCold => unreachable!("not a batch workload"),
        }
    }

    /// The inputs generated from `--seed`.
    pub fn options(&self, seed: u64) -> BundleOptions {
        let cfg = WorldConfig {
            seed: if self.pinned_world {
                PINNED_WORLD_SEED
            } else {
                seed
            },
            scale: self.scale,
            weeks: self.weeks,
            shards: self.shards,
            ..WorldConfig::default()
        };
        let mut opts = BundleOptions::new(cfg);
        opts.seed = seed;
        opts.analysis.seed ^= seed;
        if self.snoop_sample > 0 {
            opts.snoop_sample = self.snoop_sample;
            opts.snoop_rounds = SNOOP_ROUNDS;
        }
        opts
    }

    /// Whether this is an enumeration-only (weekly sweep) workload.
    pub fn is_enum(&self) -> bool {
        self.workload != Workload::ReproAll
    }
}

/// What one collect + derive pass did.
pub struct Pass {
    pub collect_s: f64,
    /// CPU seconds (user + system, all threads) of the collect phase.
    pub collect_cpu_s: f64,
    pub derive_s: f64,
    pub digest: Digest,
    pub delta: Delta,
    pub bundle: BundleData,
    pub outputs: Vec<io::Result<ExperimentOutput>>,
    /// Bytes on disk of the bundle store (0 for memory passes).
    pub store_bytes: u64,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.collect_s + self.derive_s
    }

    /// Units of work the collect phase did: probes on the enumeration
    /// workloads; on `repro_all` simulated datagrams, because the domain
    /// scan publishes no `scanner.probes_sent`.
    fn work(&self, spec: &BatchSpec) -> u64 {
        if spec.is_enum() {
            self.delta.counter_sum("scanner.probes_sent")
        } else {
            self.delta.counter("netsim.udp_sent")
        }
    }
}

fn digest_outputs(outputs: &[io::Result<ExperimentOutput>]) -> Digest {
    let mut d = Digest::new();
    for out in outputs.iter().flatten() {
        d.update(out.id.as_bytes());
        d.update(out.text.as_bytes());
        if let Some((key, value)) = &out.json {
            d.update(key.as_bytes());
            d.update(serde_json::to_string(value).unwrap_or_default().as_bytes());
        }
    }
    d
}

fn derive_options(opts: &BundleOptions) -> DeriveOptions {
    DeriveOptions {
        cfg: opts.cfg.clone(),
        ..DeriveOptions::default()
    }
}

/// One untraced pass through the product's two public entry points.
pub fn run_pass(spec: &BatchSpec, opts: &BundleOptions, store: Option<&Path>) -> io::Result<Pass> {
    let derive_opts = derive_options(opts);
    let before = telemetry::snapshot();
    let cpu0 = procfs::cpu_s().unwrap_or(0.0);
    let t0 = Instant::now();
    let bundle = collect_bundle(opts, &spec.kinds, store)?;
    let collect_s = t0.elapsed().as_secs_f64();
    let collect_cpu_s = procfs::cpu_s().unwrap_or(0.0) - cpu0;
    let t1 = Instant::now();
    let outputs = experiments::derive_all(&bundle, &spec.exps, &derive_opts);
    let derive_s = t1.elapsed().as_secs_f64();
    let delta = Delta::between(before, telemetry::snapshot());
    Ok(Pass {
        collect_s,
        collect_cpu_s,
        derive_s,
        digest: digest_outputs(&outputs),
        delta,
        bundle,
        outputs,
        store_bytes: store.map_or(Ok(0), dir_bytes)?,
    })
}

/// Worst relative error over the closed-loop rows, if that experiment ran.
fn closed_loop_worst(outputs: &[io::Result<ExperimentOutput>]) -> Option<f64> {
    let out = outputs.iter().flatten().find(|o| o.id == "closedloop")?;
    let (_, rows) = out.json.as_ref()?;
    let rows: Vec<experiments::ClosedLoopRow> = serde_json::from_value(rows.clone()).ok()?;
    Some(rows.iter().map(|r| r.rel_error()).fold(0.0, f64::max))
}

/// Counts a pass's operations into `out`: every campaign, every derived
/// experiment, the closed-loop tolerance, the digest against `reference`,
/// and the dark-space share that makes an enumeration workload valid.
fn account(spec: &BatchSpec, pass: &Pass, reference: Digest, out: &mut Outcome) {
    let degraded = pass.bundle.degraded(COVERAGE_FLOOR);
    for kind in CampaignKind::ALL {
        if pass.bundle.has(kind) {
            out.op(!degraded.contains(&kind), || {
                format!(
                    "campaign {} covered less than {COVERAGE_FLOOR}",
                    kind.name()
                )
            });
        }
    }
    for (exp, result) in spec.exps.iter().zip(&pass.outputs) {
        out.op(result.is_ok(), || {
            format!(
                "derive {}: {}",
                exp.id,
                result
                    .as_ref()
                    .err()
                    .map_or(String::new(), ToString::to_string)
            )
        });
    }
    if spec.exps.iter().any(|e| e.id == "closedloop") {
        let worst = closed_loop_worst(&pass.outputs);
        out.op(worst.is_some_and(|w| w <= CLOSED_LOOP_TOLERANCE), || {
            format!("closed loop: worst relative error {worst:?} > {CLOSED_LOOP_TOLERANCE}")
        });
    }
    out.op(pass.digest == reference, || {
        format!(
            "output digest {} != reference {}",
            pass.digest.hex(),
            reference.hex()
        )
    });
    if spec.is_enum() {
        let ratio = dark_ratio(&pass.delta);
        out.op(ratio >= 0.90, || {
            format!("netsim.dark_ratio {ratio:.3} < 0.90: not a sweep")
        });
    }
}

fn dark_ratio(delta: &Delta) -> f64 {
    delta.counter("netsim.udp_unbound") as f64 / delta.counter("netsim.udp_sent").max(1) as f64
}

/// The reference pass: same inputs, sequential engine, memory store.
fn reference_pass(spec: &BatchSpec, opts: &BundleOptions) -> io::Result<Pass> {
    let mut ref_opts = opts.clone();
    ref_opts.cfg.shards = 1;
    run_pass(spec, &ref_opts, None)
}

fn measured_pass(
    spec: &BatchSpec,
    opts: &BundleOptions,
    scratch: &Scratch,
    name: &str,
) -> io::Result<Pass> {
    let dir = spec.disk.then(|| scratch.sub(name));
    let pass = run_pass(spec, opts, dir.as_deref())?;
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir)?;
    }
    Ok(pass)
}

/// The untraced run: reports the end-to-end metrics.
pub fn run(args: &Args, out: &mut Outcome) -> io::Result<()> {
    let spec = BatchSpec::of(args.workload, args.quick);
    let scratch = Scratch::new(args.workload.name())?;
    let opts = spec.options(args.seed);

    // One set-up is two passes. First a pass on the workload's own engine
    // and store; the process's very first is what a user's single `repro`
    // run is — cold caches, a fresh heap — so the peak resident set is
    // read after it, before repeated passes fragment the heap (each adds
    // 1–10 MB). Then the reference outputs every pass must reproduce.
    //
    // A run sets up `SETUPS` times — before the window, between its
    // equal parts, and after it — so that one slow spell of the host
    // (5–20 s) cannot cover them all, and reports the fastest: the same
    // fast-side estimate the window's passes get.
    let mut setups = Vec::new();
    let mut first = None;
    let mut reference_digest = Digest::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut cpus = Vec::new();
    let mut last = None;
    let mut left_s = args.seconds;
    for n in 0..SETUPS {
        let t = Instant::now();
        let own = measured_pass(&spec, &opts, &scratch, &format!("setup-{n}"))?;
        first.get_or_insert((procfs::peak_rss_mb(), own.wall_s()));
        reference_digest = reference_pass(&spec, &opts)?.digest;
        setups.push(t.elapsed().as_secs_f64());
        account(&spec, &own, reference_digest, out);

        let parts_left = SETUPS - 1 - n;
        if parts_left == 0 {
            break;
        }
        // This part's share of what is left of the window: a pass that
        // overran the part before is taken out of the ones after.
        let part = Instant::now();
        let share_s = left_s / parts_left as f64;
        let ran = walls.len();
        while walls.len() == ran || part.elapsed().as_secs_f64() < share_s {
            let pass = measured_pass(&spec, &opts, &scratch, &format!("pass-{}", walls.len()))?;
            cpus.push(pass.collect_cpu_s);
            account(&spec, &pass, reference_digest, out);
            walls.push(pass.wall_s());
            rates.push(pass.work(&spec) as f64 / pass.collect_s);
            last = Some(pass);
        }
        left_s -= part.elapsed().as_secs_f64();
    }
    let (peak_rss_mb, cold_pass_s) = first.expect("SETUPS > 0");
    let setup_s = stats::fast_quartile(&setups, false);
    let last = last.expect("at least one pass ran");

    out.metrics.set("setup_s", setup_s);
    out.metrics
        .set("work_per_s", stats::fast_quartile(&rates, true));
    out.metrics
        .set("latency_us", stats::fast_quartile(&walls, false) * 1e6);
    if let Some(mb) = peak_rss_mb {
        out.metrics.set("peak_rss_mb", mb);
    }

    let max = walls.iter().copied().fold(0.0, f64::max);
    out.note("passes", format!("{} count", walls.len()));
    out.note(
        "wall_s",
        format!("{:.4} s", stats::fast_quartile(&walls, false)),
    );
    out.note("wall_s.median", format!("{:.4} s", stats::median(&walls)));
    out.note("wall_s.max", format!("{max:.4} s"));
    out.note("cold_pass_s", format!("{cold_pass_s:.4} s"));
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note("setups_s", each.join(" "));
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    out.note("pass_walls_s", each.join(" "));
    let each: Vec<String> = cpus.iter().map(|c| format!("{c:.2}")).collect();
    out.note("pass_collect_cpu_s", each.join(" "));
    let rate_name = if spec.is_enum() {
        "probes_per_s"
    } else {
        "packets_per_s"
    };
    out.note(
        rate_name,
        format!("{:.0} 1/s", stats::fast_quartile(&rates, true)),
    );
    if let Some(mb) = procfs::peak_rss_mb() {
        out.note("peak_rss_mb.all_passes", format!("{mb:.2} MB"));
    }
    if spec.disk {
        let records = last.delta.counter_sum("scanstore.records_committed").max(1);
        out.note(
            "store_bytes_per_record",
            format!("{:.3} B", last.store_bytes as f64 / records as f64),
        );
    }
    out.note("digest", reference_digest.hex());
    Ok(())
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Digest of everything Figure 1 and Tables 1–2 derive from a weekly
/// snapshot source, through the same public functions the registry's
/// derivations call. Both the untraced bundle and the phase-driven traced
/// store go through it, so equal digests mean equal derived outputs.
fn weekly_digest(src: &dyn SnapshotSource) -> io::Result<Digest> {
    let fig1 = goingwild::fig1_from_source(src)?;
    let mut d = Digest::new();
    d.update(goingwild::report::render_fig1(&fig1).as_bytes());
    let tab1 = experiments::table1_country_flux(&fig1, DeriveOptions::default().top_countries);
    d.update(goingwild::report::render_flux("tab1", &tab1).as_bytes());
    d.update(
        goingwild::report::render_flux("tab2", &experiments::table2_rir_flux(&fig1)).as_bytes(),
    );
    d.update(
        serde_json::to_string(&fig1)
            .map_err(io::Error::other)?
            .as_bytes(),
    );
    Ok(d)
}

/// The weekly campaign driven phase by phase through public functions —
/// the same calls, in the same order, `collect_bundle(kinds=[Weekly])`
/// makes — with a span around each. Returns the store it filled.
fn traced_weekly(
    opts: &BundleOptions,
    tracer: &mut Tracer,
) -> io::Result<(MemoryStore, Delta, f64)> {
    use std::sync::atomic::Ordering;
    use worldgen::world::ResponseClass;

    let before = telemetry::snapshot();
    let t0 = Instant::now();
    let collect = tracer.enter("goingwild", "collect");
    let mut world = tracer.time("worldgen", "build_world", || {
        goingwild::build_world(opts.cfg.clone())
    });
    tracer.time("goingwild", "capture_ground_truth", || {
        std::hint::black_box(goingwild::collect::capture_ground_truth(&world));
    });
    let blacklist = tracer.time("scanner", "Blacklist::new", || {
        scanner::Blacklist::new(
            world.blacklist_ranges.clone(),
            world.blacklist_singles.clone(),
        )
    });
    let vantage = world.scanner_ip;
    let mut store = MemoryStore::new();
    for week in 0..opts.weeks {
        tracer.time("worldgen", "World::advance_to", || {
            world.advance_to(SimTime(u64::from(week) * SimTime::WEEK));
        });
        let truth = tracer.time("goingwild", "truth_count", || {
            world
                .resolvers
                .iter()
                .filter(|m| {
                    m.response_class == ResponseClass::NoError
                        && m.alive.load(Ordering::Relaxed)
                        && world
                            .resolver_ip(m)
                            .is_some_and(|ip| !blacklist.contains(ip))
                        && !world
                            .border_filtered_asns
                            .iter()
                            .any(|&(asn, w)| m.asn == asn && week >= w)
                })
                .count()
        });
        let id = tracer.enter("goingwild", "EnrichSink::new");
        let mut enriched = EnrichSink::new(&world, &mut store);
        tracer.exit(id);
        let id = tracer.enter("scanner", "enumerate_with_sink");
        let result = scanner::enumerate_with_sink(
            &mut world,
            vantage,
            0xF161 + u64::from(week),
            &mut enriched,
        );
        tracer.exit(id);
        let meta = vec![
            ("truth".to_string(), truth.to_string()),
            ("probes_sent".to_string(), result.probes_sent.to_string()),
            (
                "skipped_blacklisted".to_string(),
                result.skipped_blacklisted.to_string(),
            ),
        ];
        let now = world.now().millis();
        tracer.time("scanstore", "SnapshotSink::commit", || {
            store.commit(&format!("week-{week}"), now, &meta)
        })?;
    }
    tracer.time("worldgen", "drop World", || drop(world));
    tracer.exit(collect);
    let collect_s = t0.elapsed().as_secs_f64();
    Ok((
        store,
        Delta::between(before, telemetry::snapshot()),
        collect_s,
    ))
}

/// `collect_bundle` wrapped as one span. The campaigns other than the
/// weekly one cannot be driven from outside (their anchors, seeds and
/// stores are private to the bundle engine), so the time inside is
/// attributed with the program's own `span.*.wall_us` counters.
fn traced_bundle(
    spec: &BatchSpec,
    opts: &BundleOptions,
    store: Option<&Path>,
    tracer: &mut Tracer,
) -> io::Result<(BundleData, Delta, f64)> {
    let before = telemetry::snapshot();
    let t0 = Instant::now();
    let id = tracer.enter("goingwild", "collect_bundle");
    let bundle = collect_bundle(opts, &spec.kinds, store);
    tracer.exit(id);
    let collect_s = t0.elapsed().as_secs_f64();
    let delta = Delta::between(before, telemetry::snapshot());
    // `campaign.week` contains the weekly sweeps' `campaign.enumerate`;
    // `pipeline.analysis` contains its four stages. Lay the leaves, and
    // the containers' own remainders, as children of the wrapper.
    let week = delta.span_wall_ns("campaign.week");
    let enumerate = delta.span_wall_ns("campaign.enumerate");
    let stages = ["prefilter", "fetch", "cluster", "label"]
        .map(|s| delta.span_wall_ns(&format!("pipeline.{s}")));
    let analysis = delta.span_wall_ns("pipeline.analysis");
    tracer.lay_counter_children(
        id,
        &[
            (
                "worldgen",
                "worldgen.build",
                delta.span_wall_ns("worldgen.build"),
            ),
            ("scanner", "campaign.enumerate", enumerate),
            (
                "goingwild",
                "campaign.week (outside the sweep)",
                week.saturating_sub(weekly_share(&delta, enumerate)),
            ),
            (
                "scanner",
                "campaign.chaos",
                delta.span_wall_ns("campaign.chaos"),
            ),
            (
                "scanner",
                "campaign.snoop",
                delta.span_wall_ns("campaign.snoop"),
            ),
            (
                "scanner",
                "campaign.churn",
                delta.span_wall_ns("campaign.churn"),
            ),
            (
                "scanner",
                "pipeline.prefilter (domain scan + judge)",
                stages[0],
            ),
            ("scanner", "pipeline.fetch", stages[1]),
            ("classify", "pipeline.cluster", stages[2]),
            ("classify", "pipeline.label", stages[3]),
            (
                "goingwild",
                "pipeline.analysis (outside its stages)",
                analysis.saturating_sub(stages.iter().sum()),
            ),
        ],
    );
    Ok((bundle?, delta, collect_s))
}

/// The part of all `campaign.enumerate` time spent inside weekly sweeps:
/// sweeps are identical in size, so it is the weekly share of the count.
fn weekly_share(delta: &Delta, enumerate_ns: u64) -> u64 {
    let sweeps = delta.counter("span.campaign.enumerate.count").max(1);
    let weekly = delta.counter("span.campaign.week.count");
    enumerate_ns * weekly.min(sweeps) / sweeps
}

/// The traced run: reports the per-layer metrics and prints the ledger.
pub fn run_traced(args: &Args, out: &mut Outcome) -> io::Result<()> {
    let spec = BatchSpec::of(args.workload, args.quick);
    let scratch = Scratch::new(args.workload.name())?;
    let opts = spec.options(args.seed);
    let cpu0 = procfs::cpu_s().unwrap_or(0.0);

    // What a world costs in memory, while the heap is still clean: later
    // passes leave freed pages resident and a new world reuses them.
    let rss_before = procfs::rss_mb().unwrap_or(0.0);
    let world = goingwild::build_world(opts.cfg.clone());
    let rss_after = procfs::rss_mb().unwrap_or(0.0);
    out.metrics.set("worldgen.rss_mb_after_build", rss_after);
    out.metrics.set(
        "worldgen.bytes_per_resolver",
        (rss_after - rss_before).max(0.0) * 1024.0 * 1024.0 / world.resolvers.len().max(1) as f64,
    );
    drop(world);

    // The untraced pass every traced number is checked against.
    let untraced = measured_pass(&spec, &opts, &scratch, "untraced")?;
    account(&spec, &untraced, untraced.digest, out);

    let mut tracer = Tracer::new();
    tracer.set_trace(1);
    let root = tracer.enter("goingwild", "pass");
    let (delta, collect_s) = if spec.is_enum() {
        let (store, delta, collect_s) = traced_weekly(&opts, &mut tracer)?;
        let want = weekly_digest(untraced.bundle.source(CampaignKind::Weekly)?)?;
        let got = tracer.time("goingwild", "derive (weekly digest)", || {
            weekly_digest(&store)
        })?;
        out.op(got == want, || {
            format!(
                "traced pass derived {} but collect_bundle derived {}",
                got.hex(),
                want.hex()
            )
        });
        (delta, collect_s)
    } else {
        let dir = scratch.sub("traced");
        let (bundle, delta, collect_s) = traced_bundle(&spec, &opts, Some(&dir), &mut tracer)?;
        let derive_opts = derive_options(&opts);
        let derive = tracer.enter("goingwild", "derive");
        let outputs: Vec<_> = spec
            .exps
            .iter()
            .map(|exp| {
                tracer.time("goingwild", &format!("derive.{}", exp.id), || {
                    (exp.derive)(&bundle, &derive_opts)
                })
            })
            .collect();
        tracer.exit(derive);
        let got = digest_outputs(&outputs);
        out.op(got == untraced.digest, || {
            format!(
                "traced pass derived {} but the untraced pass {}",
                got.hex(),
                untraced.digest.hex()
            )
        });
        (delta, collect_s)
    };
    tracer.exit(root);

    // Every experiment's derivation, one at a time, over the untraced
    // bundle (on the enumeration workloads the traced store is not a
    // `BundleData`, and the two are digest-equal).
    if spec.is_enum() {
        tracer.set_trace(2);
        let derive_opts = derive_options(&opts);
        for exp in &spec.exps {
            let result = tracer.time("goingwild", &format!("derive.{}", exp.id), || {
                (exp.derive)(&untraced.bundle, &derive_opts)
            });
            out.op(result.is_ok(), || {
                format!("sequential derive {} failed", exp.id)
            });
        }
    }

    let spans = tracer.spans();
    let selfs = tracer.self_times_ns();
    let root_ns = spans[root as usize].dur_ns();
    let span_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            / 1e6
    };
    let m = &mut out.metrics;
    m.set("goingwild.collect_s", collect_s);
    m.set("goingwild.derive_s", untraced.derive_s);
    for exp in &spec.exps {
        m.set(
            &format!("goingwild.derive_ms.{}", exp.id),
            span_ms(&format!("derive.{}", exp.id)),
        );
    }
    m.set(
        "trace.overhead_pct",
        100.0 * (collect_s / untraced.collect_s - 1.0),
    );
    // Unowned time: what the pass span and the coarse wrappers keep for
    // themselves after every child took its share.
    let unowned: u64 = spans
        .iter()
        .filter(|s| {
            s.trace == 1
                && matches!(
                    s.name.as_str(),
                    "pass" | "collect" | "collect_bundle" | "derive"
                )
        })
        .map(|s| selfs[s.id as usize])
        .sum();
    m.set(
        "goingwild.unattributed_share",
        unowned as f64 / root_ns as f64,
    );

    if spec.is_enum() {
        m.set("worldgen.build_ms", span_ms("build_world"));
        m.set(
            "worldgen.advance_ms_per_week",
            span_ms("World::advance_to") / f64::from(spec.weeks),
        );
        let probes = delta.counter_sum("scanner.probes_sent").max(1);
        m.set(
            "scanner.enumerate_ns_per_probe",
            span_ms("enumerate_with_sink") * 1e6 / probes as f64,
        );
    } else {
        m.set(
            "worldgen.build_ms",
            delta.span_wall_ns("worldgen.build") as f64 / 1e6,
        );
        let sweeps = delta
            .counter_sum("scanner.probes_sent{campaign=enumerate}")
            .max(1);
        m.set(
            "scanner.enumerate_ns_per_probe",
            delta.span_wall_ns("campaign.enumerate") as f64 / sweeps as f64,
        );
    }
    counts(&spec, &untraced, out);

    let kernel = kernels::batch(&spec, &opts, &scratch, args.kernel_budget(), out)?;
    out.metrics
        .set("proc.cpu_s", procfs::cpu_s().unwrap_or(0.0) - cpu0);
    if spec.is_enum() {
        engines_side_by_side(&spec, &opts, &untraced, out)?;
    }

    let path = crate::common::work_root().join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer.write_jsonl(&path)?;
    out.note("span_file", path.display());
    out.note("spans", format!("{} count", spans.len()));
    ledger::print_batch(&spec, &tracer, root, &delta, &kernel, out);
    Ok(())
}

/// The sharded engine beside the sequential one: one more pass, on
/// whichever of the two the workload does not use, so that every traced
/// enumeration run holds a sequential and a sharded pass over the same
/// inputs. Their outputs must be equal. The sharded pass's timings are
/// per-layer metrics and no more: its wall-clock is bimodal on this host
/// (see the README), which is why no judged workload runs that engine.
fn engines_side_by_side(
    spec: &BatchSpec,
    opts: &BundleOptions,
    untraced: &Pass,
    out: &mut Outcome,
) -> io::Result<()> {
    let mut other_opts = opts.clone();
    other_opts.cfg.shards = if spec.shards > 1 { 1 } else { SHARDS };
    let other = run_pass(spec, &other_opts, None)?;
    let (seq, sharded) = if spec.shards > 1 {
        (&other, untraced)
    } else {
        (untraced, &other)
    };
    out.op(seq.digest == sharded.digest, || {
        format!(
            "{SHARDS} shards derived {} but the sequential engine {}",
            sharded.digest.hex(),
            seq.digest.hex()
        )
    });
    let d = &sharded.delta;
    let m = &mut out.metrics;
    m.set(
        "netsim.shard.windows",
        d.counter("netsim.shard.windows") as f64,
    );
    m.set(
        "netsim.shard.horizon_stalls",
        d.counter("netsim.shard.horizon_stalls") as f64,
    );
    m.set(
        "netsim.shard.cross_messages",
        d.counter("netsim.shard.cross_messages") as f64,
    );
    m.set(
        "netsim.shard.imbalance_ratio",
        d.gauge("netsim.shard.imbalance_permille") / 1000.0,
    );
    let barrier_s = d.counter("netsim.wall.commit_barrier_us") as f64 / 1e6;
    m.set("netsim.shard.commit_share", barrier_s / sharded.collect_s);
    m.set("netsim.shard.pass_ms", sharded.wall_s() * 1e3);
    m.set("netsim.shard.slowdown_x", sharded.collect_s / seq.collect_s);
    m.set(
        "netsim.shard.cpu_per_wall",
        sharded.collect_cpu_s / sharded.collect_s,
    );
    Ok(())
}

/// Per-layer counts, read from the untraced pass's telemetry delta.
fn counts(spec: &BatchSpec, untraced: &Pass, out: &mut Outcome) {
    let d = &untraced.delta;
    let probes = d.counter_sum("scanner.probes_sent");
    let responses = d.counter_sum("scanner.responses");
    let m = &mut out.metrics;
    m.set("scanner.probes_sent", probes as f64);
    m.set("scanner.responses", responses as f64);
    m.set(
        "scanner.response_ratio",
        responses as f64 / probes.max(1) as f64,
    );
    m.set("netsim.udp_sent", d.counter("netsim.udp_sent") as f64);
    m.set("netsim.udp_unbound", d.counter("netsim.udp_unbound") as f64);
    m.set("netsim.dark_ratio", dark_ratio(d));
    m.set(
        "netsim.events_dispatched",
        d.counter("netsim.events_dispatched") as f64,
    );
    m.set("netsim.queue_depth_max", d.gauge("netsim.queue_depth_max"));
    if !spec.is_enum() {
        m.set(
            "classify.cluster_ms",
            d.span_wall_ns("pipeline.cluster") as f64 / 1e6,
        );
        m.set(
            "classify.label_ms",
            d.span_wall_ns("pipeline.label") as f64 / 1e6,
        );
        m.set(
            "classify.fetch_ms",
            d.span_wall_ns("pipeline.fetch") as f64 / 1e6,
        );
        // The domain scan publishes no probe counter: count the
        // (resolver, domain) tuples the analysis report says answered.
        let report = analysis_report(&untraced.outputs).unwrap_or_default();
        m.set(
            "scanner.domains_ns_per_query",
            d.span_wall_ns("pipeline.prefilter") as f64 / domain_queries(&report).max(1) as f64,
        );
        let pages = unique_pages(&report);
        m.set("classify.unique_pages", pages as f64);
        m.set(
            "htmlsim.pairs",
            (pages * pages.saturating_sub(1) / 2) as f64,
        );
        let records = d.counter_sum("scanstore.records_committed").max(1);
        m.set(
            "scanstore.bytes_per_record",
            untraced.store_bytes as f64 / records as f64,
        );
    }
    let t = Instant::now();
    std::hint::black_box(telemetry::snapshot());
    m.set("telemetry.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
}

/// The analysis report, read back from the `analysis` experiment's JSON.
fn analysis_report(outputs: &[io::Result<ExperimentOutput>]) -> Option<goingwild::AnalysisReport> {
    let out = outputs.iter().flatten().find(|o| o.id == "analysis")?;
    serde_json::from_value(out.json.as_ref()?.1.clone()).ok()
}

/// Unique pages that entered clustering.
fn unique_pages(report: &goingwild::AnalysisReport) -> u64 {
    (report.clustered_directly + report.assigned_to_exemplar) as u64
}

/// (resolver, domain) tuples of the domain scan that got an answer.
fn domain_queries(report: &goingwild::AnalysisReport) -> u64 {
    report.per_category.values().map(|c| c.responses).sum()
}
