//! `repro shardstat`: the critical-path scaling report (DESIGN §15).
//!
//! Renders a [`netsim::scaling::Measurement`] — captured from one
//! sharded collect pass — as either a human prediction table or a
//! `goingwild.shardstat.v1` JSON document. Everything in the document
//! derives from deterministic sim-side accounting (work units, event
//! counts, stall attribution), so two same-seed invocations print
//! byte-identical reports; no wall-clock figure ever enters it.
//!
//! The JSON is hand-rolled with a fixed field order and fixed float
//! formatting (`{:.4}`) precisely so CI can `diff` two runs.

use crate::cli::Parsed;
use crate::run::Workload;
use netsim::scaling::{self, Measurement};
use netsim::StallBound;
use std::fmt::Write as _;

/// Runs one quiet sharded collect pass with scaling capture armed and
/// prints the `goingwild.shardstat.v1` report: measured per-shard
/// accounting, stall attribution, and predicted speedup at 2/4/8/16
/// workers with the coordinator's commit phase as the serial term.
/// Every figure is sim-side deterministic, so two same-seed
/// invocations print byte-identical reports.
pub fn main(p: &Parsed) -> Result<(), String> {
    // Defaults tuned for a diagnostic, not a full reproduction: the
    // Fig. 2 workload (enumeration + churn, the sharding-sensitive
    // campaigns) over a short horizon. Any workload flag overrides.
    let mut w = Workload::from_flags(p, "fig2", 4);
    if w.shards < 2 {
        // The model measures the sharded engine; the sequential
        // reference has no windows to attribute.
        w.shards = 4;
    }
    telemetry::set_verbosity(telemetry::Level::Error);
    scaling::enable();
    let (_bundle, outputs) = w
        .collect_and_derive(None)
        .map_err(|e| format!("bundle collection failed: {e}"))?;
    for (exp, out) in outputs {
        out.map_err(|e| format!("experiment {} failed: {e}", exp.id))?;
    }
    let m = scaling::take().ok_or("the workload never flushed a scaling measurement")?;
    if m.batches == 0 {
        return Err("the workload ran no sharded batches (is --scale too small?)".into());
    }
    let cfg = ShardstatConfig {
        exp: w.exp,
        scale: w.scale,
        weeks: w.weeks,
        seed: w.seed,
        snoop_sample: w.snoop_sample,
        shards: w.shards,
    };
    if p.has("--json") {
        println!("{}", report_json(&cfg, &m));
    } else {
        print!("{}", report_text(&cfg, &m));
    }
    Ok(())
}

/// Schema tag of the `--json` document.
pub const SHARDSTAT_SCHEMA: &str = "goingwild.shardstat.v1";

/// The workload identity stamped into the report, so a reader knows
/// what was measured.
#[derive(Debug, Clone)]
pub struct ShardstatConfig {
    pub exp: String,
    pub scale: f64,
    pub weeks: u32,
    pub seed: u64,
    pub snoop_sample: usize,
    pub shards: usize,
}

fn push_u64s(out: &mut String, xs: &[u64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

/// The `goingwild.shardstat.v1` document, as one JSON line.
pub fn report_json(cfg: &ShardstatConfig, m: &Measurement) -> String {
    let s = &m.stats;
    let mut out = String::with_capacity(1024);
    let _ = write!(out, r#"{{"shardstat":"{SHARDSTAT_SCHEMA}""#);
    let _ = write!(
        out,
        r#","config":{{"exp":"{}","scale":{},"weeks":{},"seed":{},"snoop_sample":{},"shards":{}}}"#,
        cfg.exp, cfg.scale, cfg.weeks, cfg.seed, cfg.snoop_sample, cfg.shards
    );
    let _ = write!(
        out,
        r#","measured":{{"shards":{},"lookahead_ms":{},"bound":"{}","windows":{},"batches":{}"#,
        s.shards,
        s.lookahead_ms,
        s.bound.as_str(),
        s.windows,
        m.batches
    );
    out.push_str(r#","events":"#);
    push_u64s(&mut out, &s.events);
    out.push_str(r#","emissions":"#);
    push_u64s(&mut out, &s.emissions);
    let _ = write!(
        out,
        r#","imbalance_permille":{},"cross_messages":{},"traffic":["#,
        s.imbalance_permille(),
        s.cross_messages
    );
    for (i, row) in s.traffic.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64s(&mut out, row);
    }
    let _ = write!(
        out,
        r#"],"stalls":{{"total":{},"min_latency":{},"injector":{},"empty_queue":{},"unrouted":{},"by_shard":"#,
        s.stalls, s.stalls_min_latency, s.stalls_injector, s.stalls_empty_queue, s.stalls_unrouted
    );
    push_u64s(&mut out, &s.stall_by_shard);
    out.push_str("}}");
    let _ = write!(
        out,
        r#","model":{{"route_units":{},"commit_units":{},"total_work_units":{},"serial_fraction":{:.4},"work":"#,
        m.route_units,
        m.commit_units,
        m.total_work_units,
        scaling::serial_fraction(m)
    );
    push_u64s(&mut out, &m.work);
    out.push_str(r#"},"predictions":["#);
    for (i, p) in scaling::predictions(m).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"workers":{},"t_units":{},"speedup_x":{:.4}}}"#,
            p.workers, p.t_units, p.speedup_x
        );
    }
    out.push_str("]}");
    out
}

/// The human report: measured accounting, stall attribution, and the
/// prediction table.
pub fn report_text(cfg: &ShardstatConfig, m: &Measurement) -> String {
    let s = &m.stats;
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "# repro shardstat — critical-path scaling model ({SHARDSTAT_SCHEMA})"
    );
    let _ = writeln!(
        out,
        "workload: --exp {} --scale {} --weeks {} --seed {} (measured at {} shards)",
        cfg.exp, cfg.scale, cfg.weeks, cfg.seed, cfg.shards
    );
    let _ = writeln!(
        out,
        "measured: lookahead {} ms ({} bound), {} windows, {} batches",
        s.lookahead_ms,
        s.bound.as_str(),
        s.windows,
        m.batches
    );
    let events: Vec<String> = s.events.iter().map(u64::to_string).collect();
    let _ = writeln!(
        out,
        "events/shard: {}  (imbalance {}‰ max/min)",
        events.join("/"),
        s.imbalance_permille()
    );
    let total_msgs: u64 = s.traffic.iter().flatten().sum();
    let _ = writeln!(
        out,
        "cross-shard: {} of {} routed messages ({:.1}%)",
        s.cross_messages,
        total_msgs,
        100.0 * s.cross_messages as f64 / total_msgs.max(1) as f64
    );
    let hot = s
        .stall_by_shard
        .iter()
        .enumerate()
        .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)));
    let _ = write!(
        out,
        "stalls: {} total — {} {}, {} {}, {} empty_queue, {} unrouted",
        s.stalls,
        s.stalls_min_latency,
        StallBound::MinLatency.as_str(),
        s.stalls_injector,
        StallBound::Injector.as_str(),
        s.stalls_empty_queue,
        s.stalls_unrouted,
    );
    match hot {
        Some((i, &n)) if n > 0 => {
            let _ = writeln!(out, "; hottest shard {i} ({n})");
        }
        _ => out.push('\n'),
    }
    let _ = writeln!(
        out,
        "model: {} route + {} commit serial units, {} parallel units (serial fraction {:.1}%)",
        m.route_units,
        m.commit_units,
        m.total_work_units,
        100.0 * scaling::serial_fraction(m)
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>18}",
        "workers", "t_units", "predicted speedup"
    );
    for p in scaling::predictions(m) {
        let _ = writeln!(
            out,
            "{:>7} {:>12} {:>17.2}x",
            p.workers, p.t_units, p.speedup_x
        );
    }
    let _ = writeln!(
        out,
        "\npredictions saturate at the measured shard count ({}): folding cannot split\nmeasured partitions further, so higher rows are honest lower bounds.",
        s.shards
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{scaling::Measurement, ShardStats, StallBound};

    fn sample() -> (ShardstatConfig, Measurement) {
        let mut s = ShardStats::new(2, 2, StallBound::MinLatency);
        s.windows = 10;
        s.stalls = 3;
        s.stalls_min_latency = 2;
        s.stalls_empty_queue = 1;
        s.stall_by_shard = vec![2, 1];
        s.events = vec![30, 10];
        s.emissions = vec![15, 5];
        s.traffic = vec![vec![20, 10], vec![4, 6]];
        s.cross_messages = 14;
        let m = Measurement {
            stats: s,
            batches: 10,
            route_units: 40,
            commit_units: 20,
            total_work_units: 60,
            work: vec![45, 15],
            cp_units: vec![60, 45, 45, 45, 45],
        };
        let cfg = ShardstatConfig {
            exp: "fig2".into(),
            scale: 0.002,
            weeks: 2,
            seed: 20151028,
            snoop_sample: 200,
            shards: 2,
        };
        (cfg, m)
    }

    #[test]
    fn json_document_is_wellformed_and_stable() {
        let (cfg, m) = sample();
        let json = report_json(&cfg, &m);
        assert_eq!(json, report_json(&cfg, &m), "pure function of inputs");
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let get = |path: &[&str]| -> &serde_json::Value {
            let mut cur = &v;
            for k in path {
                cur = match cur {
                    serde_json::Value::Object(map) => map.get(*k).expect(k),
                    _ => panic!("not an object at {k}"),
                };
            }
            cur
        };
        assert_eq!(
            get(&["shardstat"]),
            &serde_json::Value::String(SHARDSTAT_SCHEMA.into())
        );
        assert_eq!(
            get(&["measured", "bound"]),
            &serde_json::Value::String("min_latency".into())
        );
        assert_eq!(
            get(&["measured", "stalls", "total"]),
            &serde_json::Value::U64(3)
        );
        assert_eq!(get(&["model", "route_units"]), &serde_json::Value::U64(40));
        // The 1-worker anchor: T(1) = serial + total work, speedup 1.0.
        let preds = match get(&["predictions"]) {
            serde_json::Value::Array(a) => a,
            _ => panic!("predictions is an array"),
        };
        assert_eq!(preds.len(), 5);
        let first = &preds[0];
        let workers = match first {
            serde_json::Value::Object(m) => m.get("workers").unwrap(),
            _ => panic!(),
        };
        assert_eq!(workers, &serde_json::Value::U64(1));
        assert!(json.contains(r#""speedup_x":1.0000"#), "{json}");
    }

    #[test]
    fn text_report_carries_table_and_attribution() {
        let (cfg, m) = sample();
        let text = report_text(&cfg, &m);
        assert!(text.contains(SHARDSTAT_SCHEMA), "{text}");
        assert!(text.contains("events/shard: 30/10"), "{text}");
        assert!(text.contains("3 total — 2 min_latency"), "{text}");
        assert!(text.contains("hottest shard 0 (2)"), "{text}");
        assert!(text.contains("predicted speedup"), "{text}");
        // T(2) = 60 serial + 45 cp = 105; speedup 120/105 ≈ 1.14x.
        assert!(text.contains("1.14x"), "{text}");
    }
}
