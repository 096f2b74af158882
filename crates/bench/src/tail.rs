//! `repro tail`: a live ops console for the serving path (DESIGN §11).
//!
//! Two sources:
//!
//! * **Live daemon** (`--addr host:port`): polls `/slo`,
//!   `/debug/requests`, and `/metrics` every second and renders a
//!   refreshing console of QPS, per-endpoint latency quantiles, SLO
//!   burn state, cache hit ratio, and the slow-query feed.
//! * **Trace file** (`--file trace.jsonl`): follows a recorded trace
//!   stream, aggregating the deterministic `type: "request"` lines the
//!   daemon emits for every request.
//!
//! `--once --json` takes exactly one sample and prints one JSON
//! document (`goingwild.tail.v1`) for scripts and CI, instead of the
//! human console.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Schema tag of the `--json` document.
pub const TAIL_SCHEMA: &str = "goingwild.tail.v1";

/// How often the console refreshes.
const INTERVAL: Duration = Duration::from_secs(1);

/// Slow requests a live sample fetches and the console shows.
const SHOWN: usize = 8;

/// What to tail, and how.
#[derive(Debug, Clone)]
pub struct TailOptions {
    /// Live daemon address (`host:port`). Mutually exclusive with
    /// `file`.
    pub addr: Option<String>,
    /// Recorded trace stream to follow.
    pub file: Option<PathBuf>,
    /// Take one sample and exit.
    pub once: bool,
    /// Emit machine-readable JSON instead of the console.
    pub json: bool,
}

/// `repro tail`: reads the flags and runs the tail.
pub fn main(p: &crate::cli::Parsed) -> Result<(), String> {
    let opts = TailOptions {
        addr: p.string("--addr"),
        file: p.get("--file").map(PathBuf::from),
        once: p.has("--once"),
        json: p.has("--json"),
    };
    run_tail(&opts)
}

/// Runs the tail until interrupted (or once, with `--once`).
pub fn run_tail(opts: &TailOptions) -> Result<(), String> {
    match (&opts.addr, &opts.file) {
        (Some(addr), None) => tail_live(addr, opts),
        (None, Some(file)) => tail_file(file, opts),
        (Some(_), Some(_)) => Err("pass either --addr or --file, not both".into()),
        (None, None) => Err("tail needs --addr host:port or --file trace.jsonl".into()),
    }
}

// -----------------------------------------------------------------
// Value plumbing: the vendored serde exposes a bare enum, so the
// field access the renderers need lives here.
// -----------------------------------------------------------------

static NULL: Value = Value::Null;

/// Member `key` of an object, or `Null` for anything else.
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(m) => m.get(key).unwrap_or(&NULL),
        _ => &NULL,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => (*n).max(0) as u64,
        Value::F64(n) => *n as u64,
        _ => 0,
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(n) => *n,
        _ => 0.0,
    }
}

/// Builds an object value from `(key, value)` pairs.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn render_json(doc: &Value) -> String {
    serde_json::to_string(doc).unwrap_or_else(|_| "null".to_string())
}

// -----------------------------------------------------------------
// Live daemon mode.
// -----------------------------------------------------------------

/// One blocking GET against the daemon; returns the parsed JSON body.
fn fetch_json(addr: &str, target: &str) -> Result<Value, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: tail\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write to {addr} failed: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read from {addr} failed: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    serde_json::from_str(body).map_err(|e| format!("{target}: bad JSON ({e})"))
}

/// Sums every counter in a `/metrics` JSON snapshot whose key starts
/// with `prefix` (labeled families render as `name{k=v}` keys).
fn counter_sum(metrics: &Value, prefix: &str) -> u64 {
    match get(metrics, "counters") {
        Value::Object(m) => m
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| as_u64(v))
            .sum(),
        _ => 0,
    }
}

/// Takes one sample of a live daemon: `/slo` + `/debug/requests` +
/// `/metrics`, folded into one `goingwild.tail.v1` document.
fn sample_live(addr: &str) -> Result<Value, String> {
    let slo = fetch_json(addr, "/slo")?;
    let debug = fetch_json(addr, &format!("/debug/requests?limit={SHOWN}"))?;
    let metrics = fetch_json(addr, "/metrics")?;
    let hit = counter_sum(&metrics, "serve.cache.hit");
    let miss = counter_sum(&metrics, "serve.cache.miss");
    Ok(obj(vec![
        ("tail", Value::String(TAIL_SCHEMA.to_string())),
        ("source", Value::String(format!("http://{addr}"))),
        (
            "cache",
            obj(vec![
                ("hit", Value::U64(hit)),
                ("miss", Value::U64(miss)),
                (
                    "evict",
                    Value::U64(counter_sum(&metrics, "serve.cache.evict")),
                ),
                (
                    "hit_rate",
                    Value::F64(hit as f64 / (hit + miss).max(1) as f64),
                ),
            ]),
        ),
        (
            "slow_requests",
            Value::U64(counter_sum(&metrics, "serve.slow_requests")),
        ),
        ("slow", get(&debug, "slow").clone()),
        ("slo", slo),
    ]))
}

/// Renders the live sample as a console screen.
fn render_live(doc: &Value) -> String {
    let mut out = String::with_capacity(1024);
    let slo = get(doc, "slo");
    let _ = writeln!(
        out,
        "repro tail — {}  uptime {}s  slo: {} ({})",
        as_str(get(doc, "source")).unwrap_or("?"),
        as_u64(get(slo, "uptime_s")),
        as_str(get(slo, "state")).unwrap_or("?"),
        as_str(get(slo, "objectives")).unwrap_or("no objectives"),
    );
    let burn = get(slo, "burn");
    if !matches!(burn, Value::Null) {
        let (fast, slow) = (get(burn, "fast"), get(burn, "slow"));
        let _ = writeln!(
            out,
            "burn (threshold {}): fast {}s lat={:.2} err={:.2}  slow {}s lat={:.2} err={:.2}",
            as_f64(get(burn, "threshold")),
            as_u64(get(fast, "window_s")),
            as_f64(get(fast, "latency")),
            as_f64(get(fast, "error")),
            as_u64(get(slow, "window_s")),
            as_f64(get(slow, "latency")),
            as_f64(get(slow, "error")),
        );
    }
    let cache = get(doc, "cache");
    let _ = writeln!(
        out,
        "cache: {:.1}% hit ({} hit / {} miss / {} evict)   slow requests: {}",
        as_f64(get(cache, "hit_rate")) * 100.0,
        as_u64(get(cache, "hit")),
        as_u64(get(cache, "miss")),
        as_u64(get(cache, "evict")),
        as_u64(get(doc, "slow_requests")),
    );
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>8} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "endpoint", "count", "qps", "p50_us", "p90_us", "p99_us", "max_us", "err"
    );
    if let Value::Object(endpoints) = get(slo, "endpoints") {
        for (name, ep) in endpoints.iter() {
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>8.2} {:>9} {:>9} {:>9} {:>9} {:>6}",
                name,
                as_u64(get(ep, "count")),
                as_f64(get(ep, "qps")),
                as_u64(get(ep, "p50_us")),
                as_u64(get(ep, "p90_us")),
                as_u64(get(ep, "p99_us")),
                as_u64(get(ep, "max_us")),
                as_u64(get(ep, "errors")),
            );
        }
    }
    if let Value::Array(slow) = get(doc, "slow") {
        if !slow.is_empty() {
            let _ = writeln!(out, "slow queries (newest first):");
            for t in slow.iter().take(SHOWN) {
                let _ = writeln!(
                    out,
                    "  {} {:>9}us {:<11} {}",
                    as_str(get(t, "trace_id")).unwrap_or("?"),
                    as_u64(get(t, "wall_us")),
                    as_str(get(t, "endpoint")).unwrap_or("?"),
                    as_str(get(t, "target")).unwrap_or("?"),
                );
            }
        }
    }
    out
}

fn tail_live(addr: &str, opts: &TailOptions) -> Result<(), String> {
    loop {
        let doc = sample_live(addr)?;
        emit(&doc, opts, render_live(&doc));
        if opts.once {
            return Ok(());
        }
        std::thread::sleep(INTERVAL);
    }
}

/// Prints one refresh: the JSON document in `--json` mode, the
/// console screen otherwise (cleared between refreshes when looping).
fn emit(doc: &Value, opts: &TailOptions, console: String) {
    if opts.json {
        println!("{}", render_json(doc));
    } else {
        if !opts.once {
            // ANSI clear + home: a refreshing console, not a scroll.
            print!("\x1b[2J\x1b[H");
        }
        print!("{console}");
        let _ = std::io::stdout().flush();
    }
}

// -----------------------------------------------------------------
// Trace file mode.
// -----------------------------------------------------------------

/// Per-endpoint aggregate over `type: "request"` trace lines.
#[derive(Debug, Default, Clone)]
struct EndpointAgg {
    count: u64,
    errors: u64,
    bytes: u64,
}

/// Aggregates request and heartbeat lines from a trace stream,
/// incrementally. Lines whose `"type"` the tail does not understand
/// (spans, events, future schema additions) are skipped *and counted*,
/// so a tail pointed at a richer trace reports how much it ignored
/// instead of silently hiding it.
#[derive(Debug, Default)]
struct FileAgg {
    requests: u64,
    endpoints: BTreeMap<String, EndpointAgg>,
    last: Option<Value>,
    /// Parsed lines with an unrecognized `"type"`.
    skipped: u64,
    /// Unparseable lines: garbage, or a last line cut short when the
    /// file is read once.
    torn: u64,
    /// `type: "heartbeat"` progress lines (DESIGN §9).
    heartbeats: u64,
    last_heartbeat: Option<Value>,
}

impl FileAgg {
    fn ingest(&mut self, chunk: &str) {
        for line in chunk.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = serde_json::from_str::<Value>(line) else {
                self.torn += 1;
                continue;
            };
            match as_str(get(&v, "type")) {
                Some("request") => {
                    self.requests += 1;
                    let endpoint = as_str(get(&v, "endpoint")).unwrap_or("other").to_string();
                    let status = as_u64(get(&v, "status"));
                    let slot = self.endpoints.entry(endpoint).or_default();
                    slot.count += 1;
                    slot.errors += u64::from(status >= 500);
                    slot.bytes += as_u64(get(&v, "bytes"));
                    self.last = Some(v);
                }
                Some("heartbeat") => {
                    self.heartbeats += 1;
                    self.last_heartbeat = Some(v);
                }
                _ => self.skipped += 1,
            }
        }
    }

    /// Ingests the complete lines of `bytes`, a trace file read from
    /// some offset, and returns how many bytes they span: a last line
    /// with no `\n` yet is still being written, and is left to be read
    /// again, whole, from there.
    fn ingest_complete(&mut self, bytes: &[u8]) -> usize {
        let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        self.ingest(&String::from_utf8_lossy(&bytes[..end]));
        end
    }

    /// The collect-progress summary folded from heartbeat lines, or
    /// `Null` when the stream carried none.
    fn progress_doc(&self) -> Value {
        let Some(hb) = &self.last_heartbeat else {
            return Value::Null;
        };
        let attrs = get(hb, "attrs");
        obj(vec![
            ("heartbeats", Value::U64(self.heartbeats)),
            ("name", get(hb, "name").clone()),
            ("campaign", get(attrs, "campaign").clone()),
            ("done", get(attrs, "done").clone()),
            ("total", get(attrs, "total").clone()),
            ("permille", get(attrs, "permille").clone()),
            ("sim_ms", get(hb, "sim_ms").clone()),
        ])
    }

    fn to_doc(&self, source: &str) -> Value {
        let endpoints = self
            .endpoints
            .iter()
            .map(|(name, agg)| {
                (
                    name.clone(),
                    obj(vec![
                        ("count", Value::U64(agg.count)),
                        ("errors", Value::U64(agg.errors)),
                        ("bytes", Value::U64(agg.bytes)),
                    ]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        obj(vec![
            ("tail", Value::String(TAIL_SCHEMA.to_string())),
            ("source", Value::String(source.to_string())),
            ("requests", Value::U64(self.requests)),
            ("endpoints", Value::Object(endpoints)),
            ("progress", self.progress_doc()),
            ("skipped", Value::U64(self.skipped)),
            ("torn", Value::U64(self.torn)),
            ("last", self.last.clone().unwrap_or(Value::Null)),
        ])
    }
}

fn render_file(doc: &Value) -> String {
    let mut out = String::with_capacity(512);
    let (skipped, torn) = (as_u64(get(doc, "skipped")), as_u64(get(doc, "torn")));
    let _ = writeln!(
        out,
        "repro tail — {}  {} traced requests  ({skipped} other lines skipped, {torn} torn)",
        as_str(get(doc, "source")).unwrap_or("?"),
        as_u64(get(doc, "requests")),
    );
    let progress = get(doc, "progress");
    if !matches!(progress, Value::Null) {
        let _ = writeln!(
            out,
            "progress: {} {}/{} tasks ({}%) campaign={} sim_ms={} ({} heartbeats)",
            as_str(get(progress, "name")).unwrap_or("?"),
            as_u64(get(progress, "done")),
            as_u64(get(progress, "total")),
            as_u64(get(progress, "permille")) / 10,
            as_str(get(progress, "campaign")).unwrap_or("?"),
            as_u64(get(progress, "sim_ms")),
            as_u64(get(progress, "heartbeats")),
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>12}",
        "endpoint", "count", "err", "bytes"
    );
    if let Value::Object(endpoints) = get(doc, "endpoints") {
        for (name, ep) in endpoints.iter() {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>8} {:>12}",
                name,
                as_u64(get(ep, "count")),
                as_u64(get(ep, "errors")),
                as_u64(get(ep, "bytes")),
            );
        }
    }
    let last = get(doc, "last");
    if !matches!(last, Value::Null) {
        let spans = match get(last, "spans") {
            Value::Array(spans) => spans.len(),
            _ => 0,
        };
        let _ = writeln!(
            out,
            "last: {} {} -> {} ({spans} spans)",
            as_str(get(last, "trace_id")).unwrap_or("?"),
            as_str(get(last, "target")).unwrap_or("?"),
            as_u64(get(last, "status")),
        );
    }
    out
}

fn tail_file(path: &PathBuf, opts: &TailOptions) -> Result<(), String> {
    let source = format!("file:{}", path.display());
    let mut agg = FileAgg::default();
    let mut offset = 0u64;
    loop {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .and_then(|mut file| {
                file.seek(SeekFrom::Start(offset))?;
                file.read_to_end(&mut bytes)
            })
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if opts.once {
            // One look: a line cut short is torn.
            agg.ingest(&String::from_utf8_lossy(&bytes));
        } else {
            offset += agg.ingest_complete(&bytes) as u64;
        }
        let doc = agg.to_doc(&source);
        emit(&doc, opts, render_file(&doc));
        if opts.once {
            return Ok(());
        }
        std::thread::sleep(INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_aggregation_counts_request_lines() {
        let mut agg = FileAgg::default();
        agg.ingest(concat!(
            r#"{"seq":1,"type":"span","name":"x"}"#,
            "\n",
            r#"{"seq":2,"type":"request","trace_id":"aa","conn":0,"ordinal":0,"target":"/classify?ip=1.2.3.4","endpoint":"classify","status":200,"bytes":300,"generation":"weekly:2","spans":[]}"#,
            "\n",
            r#"{"seq":3,"type":"request","trace_id":"bb","conn":1,"ordinal":1,"target":"/churn?asn=1","endpoint":"churn","status":503,"bytes":40,"generation":"weekly:2","spans":[]}"#,
            "\n",
            "{torn line",
        ));
        let doc = agg.to_doc("file:test");
        assert_eq!(as_str(get(&doc, "tail")), Some(TAIL_SCHEMA));
        assert_eq!(as_u64(get(&doc, "requests")), 2);
        // The span line is skipped-and-counted; the torn line is torn.
        assert_eq!(as_u64(get(&doc, "skipped")), 1);
        assert_eq!(as_u64(get(&doc, "torn")), 1);
        let classify = get(get(&doc, "endpoints"), "classify");
        assert_eq!(as_u64(get(classify, "count")), 1);
        let churn = get(get(&doc, "endpoints"), "churn");
        assert_eq!(as_u64(get(churn, "errors")), 1);
        assert_eq!(as_str(get(get(&doc, "last"), "trace_id")), Some("bb"));
        let console = render_file(&doc);
        assert!(console.contains("classify"), "{console}");
        assert!(console.contains("2 traced requests"), "{console}");
        assert!(
            console.contains("1 other lines skipped, 1 torn"),
            "{console}"
        );
        // The JSON document round-trips through the vendored parser.
        let round: Value = serde_json::from_str(&render_json(&doc)).unwrap();
        assert_eq!(as_u64(get(&round, "requests")), 2);
    }

    /// A request line written across two reads of a live file is
    /// ingested once, whole, when its `\n` arrives.
    #[test]
    fn file_aggregation_waits_for_a_line_split_across_reads() {
        let line = concat!(
            r#"{"seq":1,"type":"request","trace_id":"aa","endpoint":"classify","status":200,"bytes":300,"spans":[]}"#,
            "\n",
        );
        let (head, rest) = line.split_at(40);
        let mut agg = FileAgg::default();
        let offset = agg.ingest_complete(head.as_bytes());
        assert_eq!(offset, 0, "a partial line is left in the file");
        let file = format!("{head}{rest}");
        let offset = offset + agg.ingest_complete(&file.as_bytes()[offset..]);
        assert_eq!(offset, file.len());
        let doc = agg.to_doc("file:test");
        assert_eq!(as_u64(get(&doc, "requests")), 1);
        assert_eq!(as_u64(get(&doc, "torn")), 0);
    }

    #[test]
    fn file_aggregation_folds_heartbeats_and_unknown_types() {
        let mut agg = FileAgg::default();
        agg.ingest(concat!(
            r#"{"seq":1,"type":"heartbeat","name":"collect.progress","sim_ms":604800000,"attrs":{"campaign":"weekly","done":1,"total":4,"permille":250}}"#,
            "\n",
            r#"{"seq":2,"type":"event","name":"x","sim_ms":1,"attrs":{}}"#,
            "\n",
            r#"{"seq":3,"type":"wormhole","payload":"from the future"}"#,
            "\n",
            r#"{"seq":4,"type":"heartbeat","name":"collect.progress","sim_ms":1209600000,"attrs":{"campaign":"churn","done":3,"total":4,"permille":750}}"#,
            "\n",
        ));
        let doc = agg.to_doc("file:test");
        // Unknown-type lines (event + wormhole) are counted, not lost.
        assert_eq!(as_u64(get(&doc, "skipped")), 2);
        assert_eq!(as_u64(get(&doc, "torn")), 0);
        assert_eq!(as_u64(get(&doc, "requests")), 0);
        let progress = get(&doc, "progress");
        assert_eq!(as_u64(get(progress, "heartbeats")), 2);
        assert_eq!(as_str(get(progress, "campaign")), Some("churn"));
        assert_eq!(as_u64(get(progress, "done")), 3);
        assert_eq!(as_u64(get(progress, "permille")), 750);
        assert_eq!(as_u64(get(progress, "sim_ms")), 1_209_600_000);
        let console = render_file(&doc);
        assert!(
            console.contains("progress: collect.progress 3/4"),
            "{console}"
        );
        assert!(console.contains("campaign=churn"), "{console}");
        // No heartbeats -> no progress line, progress field is null.
        let empty = FileAgg::default().to_doc("file:none");
        assert!(matches!(get(&empty, "progress"), Value::Null));
        assert!(!render_file(&empty).contains("progress:"));
    }

    #[test]
    fn live_rendering_survives_missing_fields() {
        // A daemon with no objectives and no traffic yet: every field
        // the renderer touches is absent or null.
        let doc: Value = serde_json::from_str(
            r#"{"tail":"goingwild.tail.v1","source":"http://127.0.0.1:1",
                "slo":{"query":"slo","objectives":null,"state":"none","uptime_s":0,
                       "burn":null,"window_s":10,"endpoints":{}},
                "cache":{"hit":0,"miss":0,"evict":0,"hit_rate":0.0},
                "slow_requests":0,"slow":[]}"#,
        )
        .unwrap();
        let console = render_live(&doc);
        assert!(console.contains("slo: none"), "{console}");
        assert!(console.contains("no objectives"), "{console}");
    }

    #[test]
    fn counter_sum_folds_labeled_families() {
        let metrics: Value = serde_json::from_str(
            r#"{"counters":{
                "serve.cache.hit{endpoint=classify}":5,
                "serve.cache.hit{endpoint=churn}":2,
                "serve.cache.miss{endpoint=classify}":1}}"#,
        )
        .unwrap();
        assert_eq!(counter_sum(&metrics, "serve.cache.hit"), 7);
        assert_eq!(counter_sum(&metrics, "serve.cache.miss"), 1);
        assert_eq!(counter_sum(&metrics, "serve.cache.evict"), 0);
    }
}
