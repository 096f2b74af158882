//! `repro [flags]` — regenerate the paper's tables and figures.
//!
//! Collect once, derive many: the selected experiments' campaign
//! requirements are unioned and collected in one pass over one schedule
//! ([`goingwild::collect_bundle`]: each campaign once, a world per
//! lane), then every experiment derives its artifact from the
//! immutable bundle — in parallel. `repro --exp all`
//! therefore runs each campaign exactly once, and every single-
//! experiment invocation prints byte-identical output to its section
//! of the `all` run.

use crate::cli::{emit, usage_error, Parsed};
use goingwild::experiments::{self, known_experiment, DeriveOptions, Experiment, REGISTRY};
use goingwild::{collect_bundle, BundleData, BundleOptions, ExperimentOutput, WorldConfig};
use netsim::FaultPlan;
use scanner::ProbePolicy;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// What `repro` collects: the world, the experiments and the faults.
pub struct Workload {
    pub exp: String,
    pub scale: f64,
    pub weeks: u32,
    pub seed: u64,
    pub snoop_sample: usize,
    /// Named network fault profile injected into the simulation.
    faults: Option<String>,
    /// Probe attempts per retrying campaign (`None` = 1, or 3 when
    /// `--faults` is set).
    retries: Option<u32>,
}

impl Workload {
    /// Reads and validates the workload flags.
    pub fn from_flags(p: &Parsed) -> Workload {
        let w = Workload {
            exp: p.string("--exp").unwrap_or_else(|| "all".to_string()),
            scale: p.num("--scale").unwrap_or(0.0005),
            weeks: p.num("--weeks").unwrap_or(55),
            seed: p.num("--seed").unwrap_or(2015_1028),
            snoop_sample: p.num("--snoop-sample").unwrap_or(1_500),
            faults: p.string("--faults"),
            retries: p.num("--retries"),
        };
        if !known_experiment(&w.exp) {
            usage_error(&format!("unknown experiment id `{}`", w.exp));
        }
        if let Some(profile) = &w.faults {
            if FaultPlan::named(profile, 0).is_none() {
                usage_error(&format!(
                    "unknown fault profile `{profile}`; known profiles: {}",
                    FaultPlan::PROFILES.join(", ")
                ));
            }
        }
        if w.retries == Some(0) {
            usage_error("--retries must be at least 1 (total probe attempts)");
        }
        if !(w.scale.is_finite() && w.scale > 0.0) {
            usage_error("--scale expects a finite number greater than 0");
        }
        w
    }

    fn world_config(&self) -> WorldConfig {
        WorldConfig {
            seed: self.seed,
            scale: self.scale,
            udp_loss: 0.004,
            weeks: self.weeks,
            ..WorldConfig::default()
        }
    }

    /// The experiments `--exp` selects. For `all`, subsumed
    /// experiments' sections already appear byte-for-byte inside their
    /// subsumer's report, so they are skipped and each section prints
    /// exactly once.
    fn selected(&self) -> Vec<&'static Experiment> {
        if self.exp == "all" {
            REGISTRY
                .iter()
                .filter(|e| e.subsumed_by.is_none())
                .collect()
        } else {
            vec![experiments::experiment(&self.exp).expect("validated by known_experiment")]
        }
    }

    /// How the workload's campaigns are collected.
    fn bundle_options(&self) -> BundleOptions {
        let faults = self
            .faults
            .as_deref()
            .map(|p| FaultPlan::named(p, self.seed).expect("validated by from_flags"));
        // A fault profile without an explicit --retries implies the
        // chaos-ready default of 3 attempts; otherwise campaigns stay
        // single-probe (byte-identical to the pre-fault pipeline).
        let attempts = self.retries.unwrap_or(if faults.is_some() { 3 } else { 1 });
        BundleOptions {
            seed: self.seed,
            weeks: self.weeks,
            snoop_sample: self.snoop_sample,
            faults,
            probe: ProbePolicy::retrying(attempts),
            ..BundleOptions::new(self.world_config())
        }
    }

    /// Selects the experiments, unions their campaign requirements,
    /// collects that bundle once (into `store`, if given), then derives
    /// every experiment's artifact from it in parallel.
    pub fn collect_and_derive(
        &self,
        store: Option<&Path>,
    ) -> std::io::Result<(BundleData, Derived)> {
        let selected = self.selected();
        let kinds: Vec<_> = selected
            .iter()
            .flat_map(|e| e.requires.iter().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let bundle = collect_bundle(&self.bundle_options(), &kinds, store)?;
        let derive_opts = DeriveOptions {
            cfg: self.world_config(),
            ..DeriveOptions::default()
        };
        let outputs = experiments::derive_all(&bundle, &selected, &derive_opts);
        Ok((bundle, selected.into_iter().zip(outputs).collect()))
    }
}

/// Each selected experiment with its artifact, or why it failed.
pub type Derived = Vec<(&'static Experiment, std::io::Result<ExperimentOutput>)>;

/// `-v`: where the memory went. Every `mem.<scope>.<owner>_bytes` gauge
/// is a row (a world row counted once per world built); what the
/// process's high-water mark holds beyond them is printed, not hidden.
fn print_mem_ledger(snap: &telemetry::Snapshot) {
    let worlds = snap.counter("collect.world_builds").unwrap_or(0).max(1) as f64;
    let resolvers = snap.gauge("mem.world.resolvers").unwrap_or(0.0).max(1.0);
    let mut rows: Vec<(&str, f64)> = Vec::new();
    for (key, bytes) in &snap.gauges {
        let owner = key
            .strip_prefix("mem.")
            .and_then(|k| k.strip_suffix("_bytes"));
        match owner {
            Some(owner) if owner.starts_with("world.") => rows.push((owner, bytes * worlds)),
            Some(owner) if owner.contains('.') => rows.push((owner, *bytes)),
            _ => {} // a scope's total, or not a ledger gauge
        }
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|line| {
        let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
        Some(kb.trim().parse::<f64>().ok()? * 1024.0)
    });
    let attributed: f64 = rows.iter().map(|row| row.1).sum();
    if let Some(hwm) = hwm {
        rows.push(("unattributed", hwm - attributed));
    }
    let whole = hwm.unwrap_or(attributed).max(1.0);
    eprintln!("memory ledger — {worlds} world(s) of {resolvers} resolvers");
    eprintln!(
        "  {:<26} {:>13} {:>11} {:>6}",
        "owner", "bytes", "B/resolver", "share"
    );
    for (owner, bytes) in rows {
        let (each, share) = (bytes / resolvers, 100.0 * bytes / whole);
        eprintln!("  {owner:<26} {bytes:>13.0} {each:>11.1} {share:>5.1}%");
    }
    match hwm {
        Some(hwm) => eprintln!("  VmHWM {hwm:.0} bytes, {attributed:.0} attributed"),
        None => eprintln!("  VmHWM n/a, {attributed:.0} bytes attributed"),
    }
}

fn print_experiment_list() {
    use std::fmt::Write as _;
    let mut out = String::from("experiment ids accepted by --exp (plus `all`):\n");
    for e in REGISTRY {
        let _ = writeln!(out, "  {:<10} {}", e.id, e.title);
    }
    emit(&out);
}

/// Verifies the JSON report path can be created without clobbering
/// anything on failure (existing files are left untouched).
fn probe_writable_file(path: &str) -> std::io::Result<()> {
    use std::fs::OpenOptions;
    let existed = Path::new(path).exists();
    OpenOptions::new().append(true).create(true).open(path)?;
    if !existed {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Verifies the store directory exists (creating it if needed) and
/// accepts writes.
fn probe_writable_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(".repro-write-probe.tmp");
    std::fs::write(&probe, b"probe")?;
    std::fs::remove_file(&probe)
}

pub fn main(p: &Parsed) -> Result<(), String> {
    if p.has("--list") {
        print_experiment_list();
        return Ok(());
    }
    let workload = Workload::from_flags(p);
    let strict_coverage: Option<f64> = p.num("--strict-coverage");
    if strict_coverage.is_some_and(|pct| !(0.0..=100.0).contains(&pct)) {
        usage_error("--strict-coverage expects a percentage in 0..=100");
    }
    let record_rate = p.num("--record-rate").unwrap_or(1.0);
    if !(0.0..=1.0).contains(&record_rate) {
        usage_error("--record-rate expects a fraction in 0..=1");
    }
    // Fail fast on unwritable outputs, before hours of simulation.
    let [json, metrics, trace, record, profile] =
        ["--json", "--metrics", "--trace", "--record", "--profile"].map(|flag| {
            let path = p.string(flag);
            if let Some(path) = &path {
                if let Err(e) = probe_writable_file(path) {
                    usage_error(&format!("{flag} path {path} is not writable: {e}"));
                }
            }
            path
        });
    let store = p.get("--store").map(PathBuf::from);
    if let Some(dir) = &store {
        if let Err(e) = probe_writable_dir(dir) {
            usage_error(&format!(
                "--store dir {} is not writable: {e}",
                dir.display()
            ));
        }
    }
    // Given both, the later of --quiet and --verbose wins.
    let verbose = p.position("--verbose") > p.position("--quiet");
    telemetry::set_verbosity(match (verbose, p.has("--quiet")) {
        (true, _) => telemetry::Level::Debug,
        (false, true) => telemetry::Level::Error,
        (false, false) => telemetry::Level::Info,
    });
    if let Some(path) = &trace {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| usage_error(&format!("--trace path {path}: {e}")));
        telemetry::attach_trace(Box::new(std::io::BufWriter::new(file)));
    }
    if record.is_some() {
        telemetry::recorder::enable(
            record_rate,
            workload.seed,
            telemetry::recorder::DEFAULT_CAPACITY,
        );
    }
    if profile.is_some() {
        telemetry::enable_profile();
    }
    let mut json_out = serde_json::Map::new();
    println!(
        "# Going Wild reproduction — scale {} (≈{} resolvers), seed {}\n",
        workload.scale,
        (26_800_000.0 * workload.scale) as u64,
        workload.seed
    );

    // A store failure is an environment problem, not a bug: report
    // and exit non-zero instead of panicking.
    let (bundle, outputs) =
        workload
            .collect_and_derive(store.as_deref())
            .map_err(|e| match &store {
                Some(dir) => format!("snapshot store at {} failed: {e}", dir.display()),
                None => format!("bundle collection failed: {e}"),
            })?;
    let mut failed = false;
    for (exp, out) in outputs {
        match out {
            Ok(out) => {
                println!("{}", out.text);
                if json.is_some() {
                    if let Some((key, value)) = out.json {
                        // Experiments sharing a data product emit the
                        // same key; first writer wins.
                        if json_out.get(key).is_none() {
                            json_out.insert(key.to_string(), value);
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("repro: experiment {} failed: {e}", exp.id);
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }

    let coverage = bundle.coverage();
    if !coverage.is_empty() {
        println!("# Campaign coverage (this collection)");
        for (kind, cov) in coverage {
            println!(
                "  {:<8} {:>6.2}%  attempted {}, answered {}, gave up {}, unreachable {}, retries {}{}",
                kind.name(),
                100.0 * cov.fraction(),
                cov.attempted,
                cov.answered,
                cov.gave_up,
                cov.unreachable,
                cov.retries,
                if cov.space { " (address space)" } else { "" },
            );
        }
        println!();
        if json.is_some() {
            let cov_json: BTreeMap<&'static str, &scanner::Coverage> =
                coverage.iter().map(|(k, c)| (k.name(), c)).collect();
            json_out.insert("coverage".into(), serde_json::to_value(&cov_json).unwrap());
        }
    }

    let store_stats = bundle.store_stats();
    if !store_stats.is_empty() {
        println!(
            "# Snapshot store — {}",
            store.as_ref().expect("store set").display()
        );
        for (campaign, s) in &store_stats {
            println!(
                "  {campaign:<8} {} segments, {} live records, {} bytes on disk ({:.1}x vs JSON lines), {} recovery events{}",
                s.segments,
                s.live_records,
                s.bytes_written,
                s.compression_ratio,
                s.recovery_events,
                match s.resumed_at {
                    Some(seq) => format!(", resumed at segment {seq}"),
                    None => String::new(),
                }
            );
        }
        println!();
        if json.is_some() {
            let stores: BTreeMap<String, &scanstore::StoreStats> = store_stats
                .iter()
                .map(|(campaign, s)| ((*campaign).to_string(), s))
                .collect();
            json_out.insert("store".into(), serde_json::to_value(&stores).unwrap());
        }
    }

    if let Some(path) = &json {
        std::fs::write(path, serde_json::to_string_pretty(&json_out).unwrap())
            .expect("write json report");
        telemetry::info(
            "repro.json",
            "wrote machine-readable reports",
            &[("path", path.as_str().into())],
            None,
        );
    }

    // Flush the trace stream before the metrics snapshot so the two
    // artifacts are consistent with each other.
    let _ = telemetry::detach_trace();

    // Persist the flight-recorder stream before the metrics snapshot,
    // so its scanstore.recorder.* counters are part of the snapshot.
    if let Some(path) = &record {
        let stats = telemetry::recorder::stats();
        let records = telemetry::recorder::drain();
        telemetry::recorder::disable();
        let mut stream = scanstore::RecorderStream::create(Path::new(path))
            .unwrap_or_else(|e| usage_error(&format!("--record path {path}: {e}")));
        stream.append(&records).expect("write recorder stream");
        let (segments, n) = stream.finish().expect("sync recorder stream");
        telemetry::info(
            "repro.record",
            "wrote flight-recorder stream",
            &[
                ("path", path.as_str().into()),
                ("segments", segments.into()),
                ("records", n.into()),
                ("overwritten", stats.overwritten.into()),
            ],
            None,
        );
    }

    if let Some(path) = &profile {
        if let Some(profile) = telemetry::take_profile() {
            std::fs::write(path, profile.folded_text()).expect("write folded profile");
            if verbose {
                eprint!("{}", profile.summary_table());
            }
            telemetry::info(
                "repro.profile",
                "wrote folded sim-time stacks",
                &[
                    ("path", path.as_str().into()),
                    ("spans", (profile.spans().len() as u64).into()),
                ],
                None,
            );
        }
    }

    if let Some(path) = &metrics {
        let snap = telemetry::snapshot();
        std::fs::write(path, snap.to_json()).expect("write metrics snapshot");
        if verbose {
            eprint!("{}", snap.to_table());
        }
        telemetry::info(
            "repro.metrics",
            "wrote telemetry snapshot",
            &[("path", path.as_str().into())],
            None,
        );
    }
    if verbose {
        print_mem_ledger(&telemetry::snapshot());
    }

    // The strict gate runs last so every artifact (reports, JSON,
    // metrics, traces) is written even for a degraded run.
    if let Some(pct) = strict_coverage {
        let threshold = pct / 100.0;
        let degraded = bundle.degraded(threshold);
        if !degraded.is_empty() {
            for kind in &degraded {
                let cov = &bundle.coverage()[kind];
                eprintln!(
                    "repro: campaign `{}` coverage {:.2}% is below the --strict-coverage gate of {pct}%",
                    kind.name(),
                    100.0 * cov.fraction(),
                );
            }
            std::process::exit(3);
        }
        eprintln!(
            "repro: strict coverage gate passed ({} campaigns >= {pct}%)",
            bundle.coverage().len()
        );
    }
    Ok(())
}
