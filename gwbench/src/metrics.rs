//! The metric catalogue — the single list of names the benchmark reports —
//! and the result document printed as the last line of standard output.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units and
//! bounds; a unit test keeps the two in step.

use serde_json::Value;
use std::collections::BTreeMap;

/// How a per-layer metric is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Phase span recorded by the benchmark around a public entry point.
    Span,
    /// Kernel: a layer's public function timed in isolation over inputs
    /// captured from the workload's own world.
    Kernel,
    /// Count (or `span.*.wall_us` counter) read from `telemetry::snapshot()`.
    Count,
    /// Derived from other metrics of the same run, or read from `/proc`.
    Derived,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Span => "S",
            Source::Kernel => "K",
            Source::Count => "C",
            Source::Derived => "D",
        }
    }
}

/// One end-to-end metric: reported by every workload, never zero.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric. Reported (0 where the workload does not exercise
/// the layer) by every traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Source::{Count as C, Derived as D, Kernel as K, Span as S};

const ENUM: &str = "latency_us, work_per_s on enum_seq";
const SHARDED: &str = "none judged (latency_us, work_per_s on hand-run enum_shards2)";
const REPRO: &str = "latency_us on repro_all";
const BATCH: &str = "latency_us on enum_seq, repro_all";
const RSS: &str = "peak_rss_mb on enum_seq, repro_all";
const HOT: &str = "work_per_s, latency_us on serve_hot";
const COLD: &str = "work_per_s, latency_us on serve_cold";
const SERVE: &str = "work_per_s, latency_us on serve_hot, serve_cold";
const SERVE_SETUP: &str = "setup_s on serve_hot, serve_cold";
const NONE: &str = "none (describes the workload)";

pub const PER_LAYER: &[PerLayer] = &[
    // worldgen
    pl("worldgen.build_ms", "ms", "lower", S, BATCH),
    pl("worldgen.advance_ms_per_week", "ms", "lower", S, ENUM),
    pl("worldgen.rss_mb_after_build", "MB", "lower", D, RSS),
    pl("worldgen.bytes_per_resolver", "B", "lower", D, RSS),
    // scanner
    pl("scanner.stamp_ns", "ns", "lower", K, ENUM),
    pl("scanner.permute_ns", "ns", "lower", K, ENUM),
    pl("scanner.enumerate_ns_per_probe", "ns", "lower", S, ENUM),
    pl("scanner.domains_ns_per_query", "ns", "lower", C, REPRO),
    pl("scanner.probes_sent", "count", "lower", C, NONE),
    pl("scanner.responses", "count", "higher", C, NONE),
    pl("scanner.response_ratio", "ratio", "higher", C, NONE),
    // netsim
    pl("netsim.send_dark_ns", "ns", "lower", K, ENUM),
    pl(
        "netsim.send_bound_ns",
        "ns",
        "lower",
        K,
        "latency_us on enum_seq, repro_all",
    ),
    pl("netsim.udp_sent", "count", "lower", C, NONE),
    pl("netsim.udp_unbound", "count", "lower", C, NONE),
    pl("netsim.dark_ratio", "ratio", "higher", C, NONE),
    pl("netsim.events_dispatched", "count", "lower", C, NONE),
    pl("netsim.queue_depth_max", "count", "lower", C, NONE),
    pl("netsim.shard.windows", "count", "lower", C, SHARDED),
    pl("netsim.shard.horizon_stalls", "count", "lower", C, SHARDED),
    pl("netsim.shard.cross_messages", "count", "lower", C, SHARDED),
    pl("netsim.shard.imbalance_ratio", "ratio", "lower", C, SHARDED),
    pl("netsim.shard.commit_share", "ratio", "lower", C, SHARDED),
    pl("netsim.shard.pass_ms", "ms", "lower", S, SHARDED),
    pl("netsim.shard.slowdown_x", "x", "lower", D, SHARDED),
    pl("netsim.shard.cpu_per_wall", "ratio", "higher", D, SHARDED),
    // resolversim
    pl("resolversim.answer_ns", "ns", "lower", D, REPRO),
    // dnswire
    pl("dnswire.encode_ns", "ns", "lower", K, REPRO),
    pl("dnswire.decode_ns", "ns", "lower", K, REPRO),
    pl("dnswire.decode_fail", "count", "lower", K, NONE),
    // scanstore
    pl("scanstore.sink_mem_ns_per_record", "ns", "lower", K, ENUM),
    pl("scanstore.sink_disk_ns_per_record", "ns", "lower", K, REPRO),
    pl(
        "scanstore.segment_encode_ns_per_record",
        "ns",
        "lower",
        K,
        REPRO,
    ),
    pl(
        "scanstore.segment_decode_ns_per_record",
        "ns",
        "lower",
        K,
        SERVE_SETUP,
    ),
    pl("scanstore.bytes_per_record", "B", "lower", C, REPRO),
    pl("scanstore.view_open_ms", "ms", "lower", S, SERVE_SETUP),
    pl("scanstore.index_lookup_ns", "ns", "lower", K, COLD),
    // classify / htmlsim
    pl("classify.cluster_ms", "ms", "lower", C, REPRO),
    pl("classify.label_ms", "ms", "lower", C, REPRO),
    pl("classify.fetch_ms", "ms", "lower", C, REPRO),
    pl("classify.judge_ns", "ns", "lower", K, REPRO),
    pl("classify.unique_pages", "count", "lower", C, NONE),
    pl("htmlsim.page_distance_ns", "ns", "lower", K, REPRO),
    pl("htmlsim.tokenize_ns_per_page", "ns", "lower", K, REPRO),
    pl("htmlsim.pairs", "count", "lower", C, NONE),
    // goingwild (crates/core)
    pl("goingwild.collect_s", "s", "lower", S, BATCH),
    pl("goingwild.derive_s", "s", "lower", S, BATCH),
    pl("goingwild.derive_ms.fig1", "ms", "lower", S, BATCH),
    pl("goingwild.derive_ms.tab1", "ms", "lower", S, BATCH),
    pl("goingwild.derive_ms.tab2", "ms", "lower", S, BATCH),
    pl("goingwild.derive_ms.tab3", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.tab4", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.fig2", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.util", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.verify", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.analysis", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.tab5", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.fig4", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.censorship", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.cases", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.prefilter", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.closedloop", "ms", "lower", S, REPRO),
    pl("goingwild.derive_ms.ablations", "ms", "lower", S, REPRO),
    pl("goingwild.unattributed_share", "ratio", "lower", D, NONE),
    // serve
    pl("serve.parse_ns", "ns", "lower", K, SERVE),
    pl("serve.cache_get_ns", "ns", "lower", K, HOT),
    pl("serve.cache_put_ns", "ns", "lower", K, COLD),
    pl("serve.handle_ns.classify", "ns", "lower", K, COLD),
    pl("serve.handle_ns.churn", "ns", "lower", K, COLD),
    pl("serve.handle_ns.amplifiers", "ns", "lower", K, COLD),
    pl("serve.handle_ns.coverage", "ns", "lower", K, COLD),
    pl("serve.handle_ns.campaigns", "ns", "lower", K, COLD),
    pl("serve.to_wire_ns", "ns", "lower", K, COLD),
    pl("serve.conn_us", "us", "lower", S, SERVE),
    pl("serve.cache_hit_rate", "ratio", "higher", C, NONE),
    pl("serve.bytes_per_response", "B", "lower", C, NONE),
    pl("serve.shed", "count", "lower", C, NONE),
    pl("serve.qps", "1/s", "higher", S, NONE),
    pl("serve.p50_us", "us", "lower", S, NONE),
    pl("serve.p99_us", "us", "lower", S, NONE),
    pl("serve.p99_quiet_us", "us", "lower", S, NONE),
    pl("serve.p999_us", "us", "lower", S, NONE),
    pl("serve.open_late_ratio", "ratio", "lower", S, NONE),
    // telemetry
    pl(
        "telemetry.counter_add_ns",
        "ns",
        "lower",
        K,
        "work_per_s on enum_seq (second order)",
    ),
    pl("telemetry.snapshot_ms", "ms", "lower", S, NONE),
    // process and the trace itself
    pl("proc.cpu_s", "s", "lower", D, NONE),
    pl("trace.overhead_pct", "%", "lower", D, NONE),
];

/// Metric values of one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric. Panics on a name the catalogue does not list: that
    /// is a bug in the benchmark, never a property of the run.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values.insert(known, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or violated workload assertion.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Extra `name value unit` lines for people (the issue's own metric
    /// names, sample counts, digests); not part of the result document.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one attempted operation; `ok == false` fails it.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.info.push((name.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// What to print beside a per-layer metric: its source, direction, and
    /// the end-to-end metric it should move.
    pub fn annotation(name: &str) -> Option<String> {
        let m = PER_LAYER.iter().find(|m| m.name == name)?;
        Some(format!(
            "[{}, {} is better] -> {}",
            m.source.tag(),
            m.better,
            m.moves
        ))
    }

    /// `(name, value, unit)` of every metric this mode must report.
    /// End-to-end metrics that are missing or zero are failures of the
    /// run; per-layer metrics default to 0 (layer not exercised).
    pub fn reported(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        if traced {
            return PER_LAYER
                .iter()
                .map(|m| (m.name, self.metrics.get(m.name).unwrap_or(0.0), m.unit))
                .collect();
        }
        let mut out = Vec::new();
        for m in END_TO_END {
            let value = self.metrics.get(m.name);
            let ok = value.is_some_and(|v| v.is_finite() && v > 0.0);
            if !ok {
                self.attempted += 1;
                self.failed += 1;
                self.failures.push(format!(
                    "end-to-end metric {} not measured: {value:?}",
                    m.name
                ));
            }
            out.push((
                m.name,
                value.filter(|v| v.is_finite()).unwrap_or(0.0),
                m.unit,
            ));
        }
        out
    }

    /// The result document: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn document(&mut self, traced: bool) -> String {
        let mut metrics = BTreeMap::new();
        for (name, value, unit) in self.reported(traced) {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Value::F64(value));
            m.insert("unit".to_string(), Value::String(unit.to_string()));
            metrics.insert(name.to_string(), Value::Object(m));
        }
        let mut doc = BTreeMap::new();
        doc.insert("correct".to_string(), Value::Bool(self.correct()));
        doc.insert("attempted".to_string(), Value::U64(self.attempted));
        doc.insert("failed".to_string(), Value::U64(self.failed));
        doc.insert("metrics".to_string(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(doc)).expect("a Value tree always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry's experiment ids: each has a derive-time metric.
    const DERIVE_IDS: &[&str] = &[
        "fig1",
        "tab1",
        "tab2",
        "tab3",
        "tab4",
        "fig2",
        "util",
        "verify",
        "analysis",
        "tab5",
        "fig4",
        "censorship",
        "cases",
        "prefilter",
        "closedloop",
        "ablations",
    ];

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for id in DERIVE_IDS {
            let name = format!("goingwild.derive_ms.{id}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` repeats the catalogue; neither may drift.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let Value::Object(doc) = doc else {
            panic!("object expected")
        };
        let list = |key: &str| -> Vec<BTreeMap<String, Value>> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|v| match v {
                    Value::Object(o) => o.clone(),
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let text_of = |o: &BTreeMap<String, Value>, k: &str| match o.get(k) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text_of(have, "name"), want.name);
            assert_eq!(text_of(have, "unit"), want.unit);
            assert_eq!(text_of(have, "better"), want.better);
            let Some(Value::F64(bound)) = have.get("bound") else {
                panic!("bound")
            };
            assert_eq!(*bound, want.bound, "{}", want.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (have, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text_of(have, "name"), want.name);
            assert_eq!(text_of(have, "unit"), want.unit);
            assert_eq!(text_of(have, "better"), want.better);
        }
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::Workload::JUDGED.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn document_has_exactly_the_contract_keys_and_flags_missing_metrics() {
        let mut out = Outcome::default();
        out.op(true, String::new);
        for m in END_TO_END {
            out.metrics.set(m.name, 1.5);
        }
        let doc = out.document(false);
        assert!(doc.starts_with("{\"attempted\":1,\"correct\":true,\"failed\":0,\"metrics\":{"));
        assert!(doc.contains("\"setup_s\":{\"unit\":\"s\",\"value\":1.5}"));
        assert!(!doc.contains('\n'));

        let mut missing = Outcome::default();
        missing.op(true, String::new);
        let doc = missing.document(false);
        assert!(doc.contains("\"correct\":false"));
        assert_eq!(missing.failed, END_TO_END.len() as u64);

        let mut traced = Outcome::default();
        traced.op(true, String::new);
        traced.metrics.set("serve.qps", 10.0);
        let doc = traced.document(true);
        assert!(doc.contains("\"serve.qps\":{\"unit\":\"1/s\",\"value\":10"));
        assert!(doc.contains("\"worldgen.build_ms\":{\"unit\":\"ms\",\"value\":0"));
        assert!(!doc.contains("setup_s"));
    }
}
