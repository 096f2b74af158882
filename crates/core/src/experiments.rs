//! One experiment per paper artifact (see DESIGN.md's experiment
//! index), behind the typed [`REGISTRY`]: every entry declares the
//! campaign kinds it needs and a pure derivation from a collected
//! [`BundleData`] to its rendered artifact. Callers collect once with
//! [`crate::collect_bundle`] and derive many — in parallel via
//! [`derive_all`], since derivations only read the immutable bundle.

use crate::collect::{self, BundleData, CampaignKind};
use crate::report;
use classify::UtilizationClass;
use geodb::Rir;
use scanner::ChurnResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use worldgen::WorldConfig;

// =====================================================================
// The experiment registry
// =====================================================================

/// Options shared by every experiment derivation.
#[derive(Debug, Clone)]
pub struct DeriveOptions {
    /// World configuration — consulted only by experiments that build
    /// their own miniature worlds (the ablations).
    pub cfg: WorldConfig,
    /// Row cap for the per-country fluctuation table (Table 1).
    pub top_countries: usize,
}

impl Default for DeriveOptions {
    fn default() -> DeriveOptions {
        DeriveOptions {
            cfg: WorldConfig::default(),
            top_countries: 10,
        }
    }
}

/// What one experiment derivation produced.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The experiment id this output belongs to.
    pub id: &'static str,
    /// The rendered text report, ready to print.
    pub text: String,
    /// Machine-readable report under a stable JSON key. Experiments
    /// sharing a data product (fig1/tab1/tab2, the analysis family)
    /// emit the same key; assemblers deduplicate by key.
    pub json: Option<(&'static str, serde_json::Value)>,
}

/// One registry entry: a paper artifact, the campaign kinds it needs
/// collected, and the derivation from bundle to output.
pub struct Experiment {
    /// The id `repro --exp` accepts.
    pub id: &'static str,
    /// The artifact it regenerates.
    pub title: &'static str,
    /// Campaign kinds that must be present in the bundle. Empty means
    /// the experiment is self-contained (the ablations).
    pub requires: &'static [CampaignKind],
    /// Id of a broader experiment whose text output already contains
    /// this one's, byte for byte (the analysis report embeds the
    /// tab5/fig4/censorship/cases/prefilter sections). `--exp all`
    /// skips subsumed experiments so no section prints twice.
    pub subsumed_by: Option<&'static str>,
    /// Pure derivation over the immutable bundle.
    pub derive: fn(&BundleData, &DeriveOptions) -> io::Result<ExperimentOutput>,
}

/// Every experiment `repro --exp` accepts (besides `all`), in print
/// order. `repro --list` renders this table and unknown ids are
/// rejected against it.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "fig1",
        title: "Figure 1 — weekly open-resolver counts",
        requires: &[CampaignKind::Weekly],
        subsumed_by: None,
        derive: derive_fig1,
    },
    Experiment {
        id: "tab1",
        title: "Table 1 — resolver fluctuation per country",
        requires: &[CampaignKind::Weekly],
        subsumed_by: None,
        derive: derive_tab1,
    },
    Experiment {
        id: "tab2",
        title: "Table 2 — resolver fluctuation per RIR",
        requires: &[CampaignKind::Weekly],
        subsumed_by: None,
        derive: derive_tab2,
    },
    Experiment {
        id: "tab3",
        title: "Table 3 — CHAOS software fingerprinting",
        requires: &[CampaignKind::Fleet, CampaignKind::Chaos],
        subsumed_by: None,
        derive: derive_tab3,
    },
    Experiment {
        id: "tab4",
        title: "Table 4 — TCP banner device fingerprinting",
        requires: &[CampaignKind::Fleet, CampaignKind::Banner],
        subsumed_by: None,
        derive: derive_tab4,
    },
    Experiment {
        id: "fig2",
        title: "Figure 2 — cohort IP churn",
        requires: &[CampaignKind::Fleet, CampaignKind::Churn],
        subsumed_by: None,
        derive: derive_fig2,
    },
    Experiment {
        id: "util",
        title: "Sec. 2.6 — cache-snooping utilization",
        requires: &[CampaignKind::Fleet, CampaignKind::Snoop],
        subsumed_by: None,
        derive: derive_util,
    },
    Experiment {
        id: "verify",
        title: "Sec. 2.2 — dual-vantage verification scan",
        requires: &[CampaignKind::Verify],
        subsumed_by: None,
        derive: derive_verify,
    },
    Experiment {
        id: "analysis",
        title: "Sec. 3 — response-manipulation analysis (tab5/fig4/censorship/cases)",
        requires: &[CampaignKind::Fleet, CampaignKind::Domains],
        subsumed_by: None,
        derive: derive_analysis,
    },
    Experiment {
        id: "tab5",
        title: "Table 5 — answer-manipulation clusters (via analysis)",
        requires: &[CampaignKind::Fleet, CampaignKind::Domains],
        subsumed_by: Some("analysis"),
        derive: derive_tab5,
    },
    Experiment {
        id: "fig4",
        title: "Figure 4 — manipulated-response CDF (via analysis)",
        requires: &[CampaignKind::Fleet, CampaignKind::Domains],
        subsumed_by: Some("analysis"),
        derive: derive_fig4,
    },
    Experiment {
        id: "censorship",
        title: "Sec. 3.5 — censorship case studies (via analysis)",
        requires: &[CampaignKind::Fleet, CampaignKind::Domains],
        subsumed_by: Some("analysis"),
        derive: derive_censorship,
    },
    Experiment {
        id: "cases",
        title: "Sec. 3.6 — cluster case studies (via analysis)",
        requires: &[CampaignKind::Fleet, CampaignKind::Domains],
        subsumed_by: Some("analysis"),
        derive: derive_cases,
    },
    Experiment {
        id: "prefilter",
        title: "Sec. 3.2 — prefilter funnel (via analysis)",
        requires: &[CampaignKind::Fleet, CampaignKind::Domains],
        subsumed_by: Some("analysis"),
        derive: derive_prefilter,
    },
    Experiment {
        id: "closedloop",
        title: "validation — generated ground truth vs recovered values",
        requires: &[
            CampaignKind::Fleet,
            CampaignKind::Chaos,
            CampaignKind::Banner,
            CampaignKind::Snoop,
        ],
        subsumed_by: None,
        derive: derive_closedloop,
    },
    Experiment {
        id: "ablations",
        title: "design-choice ablations (A-ABL1..A-ABL4)",
        requires: &[],
        subsumed_by: None,
        derive: derive_ablations,
    },
];

/// Look up a registry entry by id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Whether `id` is a valid `--exp` argument.
pub fn known_experiment(id: &str) -> bool {
    id == "all" || experiment(id).is_some()
}

/// Derive every experiment in `exps` from the bundle — in parallel,
/// results in input order. Safe because derivations only read the
/// immutable bundle stores.
pub fn derive_all(
    bundle: &BundleData,
    exps: &[&'static Experiment],
    opts: &DeriveOptions,
) -> Vec<io::Result<ExperimentOutput>> {
    let tel = telemetry::current();
    classify::par_map(exps.len(), |i| {
        let _in = tel.enter();
        telemetry::counter_with("derive.experiment_runs", &[("exp", exps[i].id)]).inc();
        // Quiet spans: they feed the profiler and the
        // `span.derive.<id>.*` counters but write no trace lines —
        // `par_map`'s workers close them in scheduler-dependent order,
        // which would break trace byte-stability. Gated on `--profile`
        // so unprofiled runs consume no span ids either.
        // Derivations burn no simulated time, so their sim
        // duration is 0; their cost shows up in the `wall_us`
        // counters.
        let sp = telemetry::profiling_enabled()
            .then(|| telemetry::span_quiet(format!("derive.{}", exps[i].id), 0));
        let out = (exps[i].derive)(bundle, opts);
        if let Some(s) = sp {
            s.finish(0);
        }
        out
    })
}

// =====================================================================
// E-FIG1 — weekly resolver counts
// =====================================================================

/// One weekly scan's counts.
#[derive(Debug, Clone, Default, Serialize)]
pub struct WeekRow {
    /// Scan week (0-based).
    pub week: u32,
    /// All responding resolvers.
    pub all: u64,
    /// NOERROR responders.
    pub noerror: u64,
    /// REFUSED responders.
    pub refused: u64,
    /// SERVFAIL responders.
    pub servfail: u64,
    /// Responders whose answer arrived from a different source address
    /// than the probed target — DNS proxies / multi-homed hosts
    /// (Sec. 2.5: 630k-750k per scan, ~2.5% of responders).
    pub proxy_responders: u64,
}

/// Figure 1 series, plus the per-country snapshots Table 1/2 need.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Fig1Report {
    /// One row per weekly scan.
    pub weeks: Vec<WeekRow>,
    /// Country → NOERROR resolvers in the first scan.
    pub first_by_country: BTreeMap<String, u64>,
    /// Country → NOERROR resolvers in the last scan.
    pub last_by_country: BTreeMap<String, u64>,
    /// Ground-truth alive NOERROR population per week — the analogue of
    /// the Open Resolver Project cross-check (Sec. 2.2: "the numbers
    /// for each scan match within a 2% error margin"). Excludes
    /// blacklisted (opted-out) resolvers, which the scan cannot see.
    pub ground_truth_noerror: Vec<u64>,
}

impl Fig1Report {
    /// Worst relative deviation between scan counts and ground truth.
    pub fn max_cross_check_error(&self) -> f64 {
        self.weeks
            .iter()
            .zip(&self.ground_truth_noerror)
            .map(|(w, &truth)| {
                if truth == 0 {
                    0.0
                } else {
                    (w.noerror as f64 - truth as f64).abs() / truth as f64
                }
            })
            .fold(0.0, f64::max)
    }
}

// =====================================================================
// E-TAB1 / E-TAB2 — fluctuation per country / RIR
// =====================================================================

/// Fluctuation row.
#[derive(Debug, Clone, Serialize)]
pub struct FluxRow {
    /// Country code or AS key.
    pub key: String,
    /// Count in the first scan.
    pub first: u64,
    /// Count in the last scan.
    pub last: u64,
}

impl FluxRow {
    /// Absolute change `last - first`.
    pub fn delta(&self) -> i64 {
        self.last as i64 - self.first as i64
    }

    /// Relative change in percent.
    pub fn pct(&self) -> f64 {
        if self.first == 0 {
            0.0
        } else {
            100.0 * self.delta() as f64 / self.first as f64
        }
    }
}

/// Table 1: top-`n` countries by first-scan population.
pub fn table1_country_flux(fig1: &Fig1Report, n: usize) -> Vec<FluxRow> {
    let mut rows: Vec<FluxRow> = fig1
        .first_by_country
        .iter()
        .map(|(cc, &first)| FluxRow {
            key: cc.clone(),
            first,
            last: fig1.last_by_country.get(cc).copied().unwrap_or(0),
        })
        .collect();
    rows.sort_by(|a, b| b.first.cmp(&a.first).then(a.key.cmp(&b.key)));
    rows.truncate(n);
    rows
}

/// Table 2: fluctuation per Regional Internet Registry.
pub fn table2_rir_flux(fig1: &Fig1Report) -> Vec<FluxRow> {
    let mut by_rir: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (cc, &n) in &fig1.first_by_country {
        let rir = Rir::for_country(geodb::Country::new(cc));
        by_rir.entry(rir.name()).or_insert((0, 0)).0 += n;
    }
    for (cc, &n) in &fig1.last_by_country {
        let rir = Rir::for_country(geodb::Country::new(cc));
        by_rir.entry(rir.name()).or_insert((0, 0)).1 += n;
    }
    let mut rows: Vec<FluxRow> = by_rir
        .into_iter()
        .map(|(k, (first, last))| FluxRow {
            key: k.to_string(),
            first,
            last,
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.first));
    rows
}

// =====================================================================
// E-TAB3 — CHAOS software fingerprinting
// =====================================================================

#[derive(Debug, Clone, Default, Serialize)]
/// CHAOS fingerprinting summary (Table 3).
pub struct Table3Report {
    /// Resolvers that answered the CHAOS scan.
    pub responding: u64,
    /// Error rcodes to version.bind.
    pub errors: u64,
    /// NOERROR with empty answer.
    pub empty: u64,
    /// Custom / hidden version strings.
    pub custom: u64,
    /// Parseable software banners.
    pub genuine: u64,
    /// `family version` → count among genuine-version responders.
    pub versions: BTreeMap<String, u64>,
}

impl Table3Report {
    /// Top-n versions with shares among version-leaking resolvers.
    pub fn top_versions(&self, n: usize) -> Vec<(String, f64)> {
        let total: u64 = self.versions.values().sum();
        let mut v: Vec<(String, u64)> =
            self.versions.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v.into_iter()
            .map(|(k, c)| (k, 100.0 * c as f64 / total.max(1) as f64))
            .collect()
    }

    /// Share of resolvers leaking genuine-looking versions.
    pub fn genuine_share(&self) -> f64 {
        if self.responding == 0 {
            0.0
        } else {
            self.genuine as f64 / self.responding as f64
        }
    }

    /// BIND share among version leakers (paper: 60.2%).
    pub fn bind_share(&self) -> f64 {
        let total: u64 = self.versions.values().sum();
        let bind: u64 = self
            .versions
            .iter()
            .filter(|(k, _)| k.starts_with("BIND"))
            .map(|(_, &c)| c)
            .sum();
        if total == 0 {
            0.0
        } else {
            bind as f64 / total as f64
        }
    }
}

// =====================================================================
// E-TAB4 — device fingerprinting
// =====================================================================

#[derive(Debug, Clone, Default, Serialize)]
/// Device fingerprinting summary (Table 4).
pub struct Table4Report {
    /// Resolvers probed.
    pub fleet: u64,
    /// Resolvers with at least one open TCP service.
    pub tcp_responsive: u64,
    /// Hardware label → share (%) of TCP-responsive hosts.
    pub hardware: BTreeMap<String, f64>,
    /// OS label → share (%).
    pub os: BTreeMap<String, f64>,
}

// =====================================================================
// E-FIG2 — IP churn
// =====================================================================

/// Figure 2 data plus the dynamic-rDNS attribution.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Fig2Report {
    /// Measured cohort survival.
    pub churn: ChurnResult,
}

// =====================================================================
// E-UTIL — cache snooping utilization
// =====================================================================

#[derive(Debug, Clone, Default, Serialize)]
/// Cache-utilization summary (Sec. 2.6).
pub struct UtilReport {
    /// Resolvers snooped.
    pub probed: u64,
    /// Class → share (%) of probed resolvers.
    pub shares: BTreeMap<String, f64>,
    /// Estimated client query rates (queries/hour) for resolvers with
    /// observable refreshes — the Rajab-style popularity follow-up.
    pub popularity_median: Option<f64>,
    /// 90th percentile of estimated TLD popularity (refresh rate).
    pub popularity_p90: Option<f64>,
}

impl UtilReport {
    /// Share of probed resolvers in `class`.
    pub fn share(&self, class: UtilizationClass) -> f64 {
        self.shares
            .get(&format!("{class:?}"))
            .copied()
            .unwrap_or(0.0)
    }

    /// Combined in-use share (paper: 61.6%).
    pub fn in_use_share(&self) -> f64 {
        self.share(UtilizationClass::InUse) + self.share(UtilizationClass::InUseFrequent)
    }
}

// =====================================================================
// Closed-loop validation: generated ground truth vs recovered values
// =====================================================================

/// One validation row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClosedLoopRow {
    /// Metric name.
    pub metric: String,
    /// Ground-truth (planted) value.
    pub generated: f64,
    /// Value the blind pipeline recovered.
    pub recovered: f64,
}

impl ClosedLoopRow {
    /// Relative error of the recovery.
    pub fn rel_error(&self) -> f64 {
        if self.generated == 0.0 {
            if self.recovered == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.recovered - self.generated).abs() / self.generated.abs()
        }
    }
}

/// Render the closed-loop table.
pub fn render_closed_loop(rows: &[ClosedLoopRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Closed-loop validation — generated vs recovered");
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12} {:>8}",
        "metric", "generated", "recovered", "err"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>12.2} {:>12.2} {:>7.1}%",
            r.metric,
            r.generated,
            r.recovered,
            100.0 * r.rel_error()
        );
    }
    out
}

// =====================================================================
// E-VERIF — dual-vantage verification
// =====================================================================

// =====================================================================
// Registry derivations — pure functions over the collected bundle
// =====================================================================

fn jval<T: Serialize>(v: &T) -> io::Result<serde_json::Value> {
    serde_json::to_value(v).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn derive_fig1(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let fig1 = collect::fig1_from_source(b.source(CampaignKind::Weekly)?)?;
    Ok(ExperimentOutput {
        id: "fig1",
        text: report::render_fig1(&fig1),
        json: Some(("fig1", jval(&fig1)?)),
    })
}

fn derive_tab1(b: &BundleData, o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let fig1 = collect::fig1_from_source(b.source(CampaignKind::Weekly)?)?;
    let mut text = report::render_flux(
        &format!(
            "Table 1 — resolver fluctuation per country (Top {})",
            o.top_countries
        ),
        &table1_country_flux(&fig1, o.top_countries),
    );
    text.push_str("(paper: US −14.2%, CN −13.0%, TR −32.2%, …, IN +12.7%, TW −57.3%)\n");
    Ok(ExperimentOutput {
        id: "tab1",
        text,
        json: Some(("fig1", jval(&fig1)?)),
    })
}

fn derive_tab2(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let fig1 = collect::fig1_from_source(b.source(CampaignKind::Weekly)?)?;
    let mut text = report::render_flux(
        "Table 2 — resolver fluctuation per RIR",
        &table2_rir_flux(&fig1),
    );
    text.push_str(
        "(paper: RIPE −33.2%, APNIC −24.5%, LACNIC −35.1%, ARIN −12.1%, AFRINIC −8.6%)\n",
    );
    Ok(ExperimentOutput {
        id: "tab2",
        text,
        json: Some(("fig1", jval(&fig1)?)),
    })
}

fn derive_tab3(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let t3 = collect::table3_from_source(b.source(CampaignKind::Chaos)?, 0)?;
    Ok(ExperimentOutput {
        id: "tab3",
        text: report::render_table3(&t3),
        json: Some(("tab3", jval(&t3)?)),
    })
}

fn derive_tab4(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let t4 = collect::table4_from_source(b.source(CampaignKind::Banner)?)?;
    Ok(ExperimentOutput {
        id: "tab4",
        text: report::render_table4(&t4),
        json: Some(("tab4", jval(&t4)?)),
    })
}

fn derive_fig2(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let fig2 = collect::fig2_from_source(b.source(CampaignKind::Churn)?)?;
    Ok(ExperimentOutput {
        id: "fig2",
        text: report::render_fig2(&fig2),
        json: Some(("fig2", jval(&fig2)?)),
    })
}

fn derive_util(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let util = collect::util_from_source(b.source(CampaignKind::Snoop)?)?;
    Ok(ExperimentOutput {
        id: "util",
        text: report::render_util(&util),
        json: Some(("util", jval(&util)?)),
    })
}

fn derive_verify(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let v = collect::verification_from_source(b.source(CampaignKind::Verify)?)?;
    let text = format!(
        "Sec. 2.2 verification scan: {} NOERROR hosts seen only from the second /8 ({:.2}% of {}; paper: <1%)\n",
        v.missed_noerror,
        100.0 * v.missed_noerror as f64 / v.primary_noerror.max(1) as f64,
        v.primary_noerror
    );
    Ok(ExperimentOutput {
        id: "verify",
        text,
        json: Some(("verify", jval(&v)?)),
    })
}

fn analysis_of(b: &BundleData) -> io::Result<crate::pipeline::AnalysisReport> {
    collect::analysis_from_source(b.source(CampaignKind::Domains)?)
}

fn derive_analysis(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let a = analysis_of(b)?;
    Ok(ExperimentOutput {
        id: "analysis",
        text: report::render_analysis(&a),
        json: Some(("analysis", jval(&a)?)),
    })
}

fn derive_tab5(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let a = analysis_of(b)?;
    Ok(ExperimentOutput {
        id: "tab5",
        text: report::render_table5(&a)
            .trim_start_matches('\n')
            .to_string(),
        json: Some(("analysis", jval(&a)?)),
    })
}

fn derive_fig4(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let a = analysis_of(b)?;
    Ok(ExperimentOutput {
        id: "fig4",
        text: report::render_fig4(&a).trim_start_matches('\n').to_string(),
        json: Some(("analysis", jval(&a)?)),
    })
}

fn derive_censorship(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let a = analysis_of(b)?;
    Ok(ExperimentOutput {
        id: "censorship",
        text: report::render_censorship(&a)
            .trim_start_matches('\n')
            .to_string(),
        json: Some(("analysis", jval(&a)?)),
    })
}

fn derive_cases(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let a = analysis_of(b)?;
    Ok(ExperimentOutput {
        id: "cases",
        text: report::render_cases(&a)
            .trim_start_matches('\n')
            .to_string(),
        json: Some(("analysis", jval(&a)?)),
    })
}

fn derive_prefilter(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let a = analysis_of(b)?;
    Ok(ExperimentOutput {
        id: "prefilter",
        text: report::render_prefilter(&a)
            .trim_start_matches('\n')
            .to_string(),
        json: Some(("analysis", jval(&a)?)),
    })
}

fn derive_closedloop(b: &BundleData, _o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    let truth = collect::ground_truth_from_source(b.source(CampaignKind::Fleet)?)?;
    let (noerror, refused) = collect::fleet_counts_from_source(b.source(CampaignKind::Fleet)?)?;
    let t3 = collect::table3_from_source(b.source(CampaignKind::Chaos)?, 0)?;
    let t4 = collect::table4_from_source(b.source(CampaignKind::Banner)?)?;
    let util = collect::util_from_source(b.source(CampaignKind::Snoop)?)?;
    let rows = vec![
        ClosedLoopRow {
            metric: "NOERROR resolvers".into(),
            generated: truth.noerror,
            recovered: noerror as f64,
        },
        ClosedLoopRow {
            metric: "REFUSED resolvers".into(),
            generated: truth.refused,
            recovered: refused as f64,
        },
        ClosedLoopRow {
            metric: "genuine version share".into(),
            generated: truth.genuine_share,
            recovered: t3.genuine as f64 / t3.responding.max(1) as f64,
        },
        ClosedLoopRow {
            metric: "TCP-exposed share".into(),
            generated: truth.tcp_exposed,
            recovered: t4.tcp_responsive as f64 / t4.fleet.max(1) as f64,
        },
        ClosedLoopRow {
            metric: "ZyNOS devices".into(),
            generated: truth.zynos,
            recovered: t4.os.get("ZyNOS").copied().unwrap_or(0.0) / 100.0
                * t4.tcp_responsive as f64,
        },
        ClosedLoopRow {
            metric: "in-use share".into(),
            generated: truth.in_use_share,
            recovered: util.in_use_share() / 100.0,
        },
    ];
    Ok(ExperimentOutput {
        id: "closedloop",
        text: render_closed_loop(&rows),
        json: Some(("closedloop", jval(&rows)?)),
    })
}

fn derive_ablations(_b: &BundleData, o: &DeriveOptions) -> io::Result<ExperimentOutput> {
    Ok(ExperimentOutput {
        id: "ablations",
        text: ablations_report(&o.cfg),
        json: None,
    })
}

// =====================================================================
// Ablations — self-contained design-choice studies
// =====================================================================

/// The design-choice ablations DESIGN.md calls out (A-ABL1..A-ABL4;
/// A-ABL5 is `scanner::lfsr`'s `permutation_scatters_slash24_bursts`
/// test). Self-contained: builds its own tiny
/// worlds and page corpora rather than reading a bundle.
pub fn ablations_report(cfg: &WorldConfig) -> String {
    use htmlsim::distance::FeatureWeights;
    use htmlsim::gen::{self, PageCtx, SiteCategory};
    use htmlsim::{PageFeatures, TagInterner};
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "# Ablations\n");

    // ---- A-ABL1a: drop-one-feature separation, coarse families ----
    // Page *families* (bank site, error page, parking lander, phishing
    // kit, router login). The metric is the separation ratio:
    // (minimum cross-family distance) / (maximum within-family
    // distance); > 1 means a clean threshold exists.
    let mut interner = TagInterner::new();
    let mut items: Vec<(usize, PageFeatures)> = Vec::new();
    for s in 0..10u64 {
        for (family, html) in [
            (
                0usize,
                gen::legit_site(SiteCategory::Banking, &PageCtx::new("bank.example", s)),
            ),
            (1, gen::http_error(404, &PageCtx::new("e.example", s))),
            (
                2,
                gen::parking_page("parkco", &PageCtx::new(&format!("d{s}.example"), s)),
            ),
            (
                3,
                gen::phishing_kit_images("paypal", &PageCtx::new("paypal.example", s)),
            ),
            (
                4,
                gen::router_login(gen::RouterVendor::ZyRouter, &PageCtx::new("r.local", s)),
            ),
        ] {
            items.push((family, PageFeatures::extract(&html, &mut interner)));
        }
    }
    let separation = |items: &[(usize, PageFeatures)], weights: &FeatureWeights| -> f64 {
        use htmlsim::distance::page_distance;
        let mut max_within: f64 = 0.0;
        let mut min_cross = f64::INFINITY;
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                let d = page_distance(&items[i].1, &items[j].1, weights);
                if items[i].0 == items[j].0 {
                    max_within = max_within.max(d);
                } else {
                    min_cross = min_cross.min(d);
                }
            }
        }
        if max_within == 0.0 {
            f64::INFINITY
        } else {
            min_cross / max_within
        }
    };
    let _ = writeln!(
        out,
        "A-ABL1a — coarse family separation (cross/within; >1 = separable):"
    );
    let _ = writeln!(
        out,
        "  all 7 features : {:.2}",
        separation(&items, &FeatureWeights::default())
    );
    for f in [
        "body_len",
        "tag_multiset",
        "tag_sequence",
        "title",
        "javascript",
        "resources",
        "links",
    ] {
        let _ = writeln!(
            out,
            "  without {f:<13}: {:.2}",
            separation(&items, &FeatureWeights::without(f))
        );
    }

    // ---- A-ABL1b: why the fine-grained stage exists ----
    // Small *modifications* of one page (ad banner vs script injection)
    // are NOT separable by the coarse distance — within-family noise
    // (dynamic content across fetches) dwarfs the injected tag — but the
    // diff-based tag-delta clustering recovers them exactly (Sec. 3.6).
    {
        use htmlsim::diff::tag_delta;
        let mut mod_items: Vec<(usize, PageFeatures)> = Vec::new();
        let mut deltas: Vec<(usize, htmlsim::diff::TagDelta)> = Vec::new();
        for s in 0..10u64 {
            let news = gen::legit_site(SiteCategory::Alexa, &PageCtx::new("news.example", s));
            let banner = gen::inject_ad(&news, "ads.rogue.example");
            let script = gen::inject_script(&news, "js.rogue.example");
            let gt = PageFeatures::extract(&news, &mut interner);
            for (family, html) in [(0usize, banner), (1, script)] {
                let f = PageFeatures::extract(&html, &mut interner);
                deltas.push((family, tag_delta(&gt.tag_sequence, &f.tag_sequence)));
                mod_items.push((family, f));
            }
        }
        let coarse = separation(&mod_items, &FeatureWeights::default());
        let flat = classify::fine_cluster(
            &deltas.iter().map(|(_, d)| d.clone()).collect::<Vec<_>>(),
            0.3,
        );
        let mut correct = 0usize;
        for members in &flat.clusters {
            let mut counts = std::collections::HashMap::new();
            for &m in members {
                *counts.entry(deltas[m].0).or_insert(0usize) += 1;
            }
            correct += counts.values().max().copied().unwrap_or(0);
        }
        let _ = writeln!(
            out,
            "\nA-ABL1b — small modifications (banner vs script injection):"
        );
        let _ = writeln!(
            out,
            "  coarse separation ratio: {coarse:.2} (<1: coarse clustering cannot split them)"
        );
        let _ = writeln!(
            out,
            "  fine tag-delta clustering: {} clusters, purity {:.3}",
            flat.len(),
            correct as f64 / deltas.len() as f64
        );
    }

    // ---- A-ABL3: prefilter stages ----
    // Measure unexpected-rate on a CDN-heavy domain with AS-only vs
    // AS+cert, using the real pipeline at tiny scale.
    {
        let mut world = worldgen::build_world(WorldConfig {
            scale: (cfg.scale / 5.0).max(0.0001),
            ..cfg.clone()
        });
        let opts = crate::pipeline::AnalysisOptions {
            domains: Some(vec![
                "wikipedia.example".into(), // CDN domain, never censored
                "gt.gwild.example".into(),
            ]),
            ..Default::default()
        };
        let analysis = crate::pipeline::run_analysis(&mut world, &opts);
        let alexa = &analysis.per_category["Alexa"];
        let _ = writeln!(
            out,
            "\nA-ABL3 — CDN domain (wikipedia.example) prefiltering:"
        );
        let _ = writeln!(
            out,
            "  responses {}  legit(DNS stage) {}  cert-rescued {}  unexpected-after-cert {}",
            alexa.responses, alexa.legit, alexa.cert_rescued, alexa.unexpected
        );
        let _ = writeln!(
            out,
            "  (without the certificate stage, every non-home-region CDN answer would stay suspicious)"
        );
    }

    // ---- A-ABL4: identifier channels under port rewriting ----
    {
        use dnswire::{MessageBuilder, MessageView, Rcode, RecordType};
        let mut ok_with_casing = 0;
        let mut ok_txid_only = 0;
        let trials = 4_096u32;
        for i in 0..trials {
            let id = (i * 8191 + 5) % (1 << 25); // spread across the 25-bit space
            let p = scanner::encode_probe(id % (1 << 25), "bet-at-home.example");
            let q = MessageBuilder::query(p.txid, p.qname.clone(), RecordType::A).build();
            let resp = MessageBuilder::response_to(&q, Rcode::NoError).build();
            let wire = resp.encode();
            let resp = MessageView::parse(&wire).unwrap();
            // Port rewritten: arrival offset is useless.
            if scanner::decode_probe(&resp, None) == Some(id % (1 << 25)) {
                ok_with_casing += 1;
            }
            // TXID-only decoder (high bits unrecoverable).
            // A TXID-only decoder can recover at most the low 16 bits;
            // the full identifier is unrecoverable unless it happens to
            // fit in them.
            if id < 0x10000 {
                ok_txid_only += 1;
            }
        }
        let _ = writeln!(
            out,
            "\nA-ABL4 — resolver-ID recovery under response-port rewriting:"
        );
        let _ = writeln!(
            out,
            "  TXID+0x20 casing: {ok_with_casing}/{trials}   TXID only: {ok_txid_only}/{trials}"
        );
    }

    // ---- A-ABL2: linkage comparison (average vs single vs complete) ----
    let _ = writeln!(
        out,
        "\nA-ABL2 — linkage criterion vs cluster purity and count:"
    );
    // One distance matrix for all nine rows: a tree per linkage, each
    // cut at three thresholds.
    let linkages = [
        classify::Linkage::Average,
        classify::Linkage::Single,
        classify::Linkage::Complete,
    ];
    let features: Vec<&PageFeatures> = items.iter().map(|(_, f)| f).collect();
    let trees = classify::page_dendrograms(&features, &FeatureWeights::default(), &linkages);
    for (linkage, tree) in linkages.iter().zip(&trees) {
        for threshold in [0.2, 0.32, 0.45] {
            let flat = tree.cut(threshold);
            let mut correct = 0usize;
            for members in &flat.clusters {
                let mut counts = std::collections::HashMap::new();
                for &m in members {
                    *counts.entry(items[m].0).or_insert(0usize) += 1;
                }
                correct += counts.values().max().copied().unwrap_or(0);
            }
            let _ = writeln!(
                out,
                "  {linkage:?} cut {threshold:>4}: {:>2} clusters, purity {:.3}",
                flat.len(),
                correct as f64 / items.len() as f64
            );
        }
    }
    out
}
