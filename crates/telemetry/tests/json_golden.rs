//! Byte pins for the telemetry crate's JSON documents: event, heartbeat,
//! span and request lines of the trace stream (every attribute kind,
//! non-finite floats as `null`), the `/debug/requests` shape of a
//! request trace built from a scope's spans, and the indented metrics
//! snapshot. The literals were
//! recorded from the hand-written emitters these documents used to come
//! from; any change to an output byte fails here.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use telemetry::reqtrace::{self, trace_id};
use telemetry::{Level, Registry, RequestTrace, Value};

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Compares every pinned document and reports all mismatches at once,
/// each as a Rust literal ready to paste.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, what: &str, actual: &str, expected: &str) {
        if actual != expected {
            self.0.push(format!("{what:?} => {actual:?}"));
        }
    }

    fn finish(self) {
        assert!(self.0.is_empty(), "{}", self.0.join("\n"));
    }
}

/// A request answered under a scope: `parse` with `probe` inside it,
/// then `serialize`, each wall time then pinned.
fn request_trace() -> RequestTrace {
    let scope = telemetry::Telemetry::new().scope();
    {
        let _in = scope.enter();
        let _request = telemetry::span("request", 0);
        let mut parse = telemetry::span("parse", 0);
        parse.attr("detail", "classify");
        let mut probe = telemetry::span("probe", 0);
        probe.attr("detail", "back\\slash \"q\"\n");
        probe.finish(0);
        parse.finish(0);
        telemetry::span("serialize", 0).finish(0);
    }
    let mut spans = scope.finish();
    for (span, wall_us) in spans.iter_mut().zip([1234, 3, 40, 0]) {
        span.wall_ns = wall_us * 1_000;
    }
    RequestTrace {
        trace_id: 0x0123_4567_89ab_cdef,
        conn: 4,
        ordinal: 17,
        target: "/classify?ip=1.2.3.4&q=\"x\"\\\t\u{2}".to_string(),
        endpoint: "classify",
        status: 503,
        bytes: 88,
        generation: "weekly:3,we\"ird:1".to_string(),
        spans,
    }
}

fn every_value() -> Vec<(&'static str, Value)> {
    vec![
        ("u", Value::U64(u64::MAX)),
        ("i", Value::I64(-42)),
        ("f", Value::F64(2.5)),
        ("whole", Value::F64(123.0)),
        ("tiny", Value::F64(1e-7)),
        ("nan", Value::F64(f64::NAN)),
        ("inf", Value::F64(f64::NEG_INFINITY)),
        (
            "s",
            Value::Str("q\"b\\n\n\u{0}\u{1f}é\u{10348}".to_string()),
        ),
        ("t", Value::Bool(true)),
        ("k\"ey", Value::Bool(false)),
    ]
}

#[test]
fn trace_stream_lines_are_pinned() {
    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    let buf = SharedBuf::default();
    telemetry::attach_trace(Box::new(buf.clone()));
    telemetry::event(
        Level::Debug,
        "ev\"ent",
        "a\nmessage\t\\",
        &every_value(),
        Some(12),
    );
    telemetry::event(Level::Debug, "bare", "", &[], None);
    telemetry::heartbeat("collect.progress", 30_000, &every_value());
    telemetry::heartbeat("collect.\"idle\"", 0, &[]);
    let mut outer = telemetry::span("outer", 100);
    for (k, v) in every_value() {
        outer.attr(k, v);
    }
    let inner = telemetry::span("in\"ner", 150);
    inner.finish(180);
    outer.finish(200);
    reqtrace::emit(&request_trace());
    telemetry::detach_trace().unwrap();
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let mut pins = Pins::default();
    pins.check("stream", &stream, "{\"seq\":0,\"type\":\"event\",\"level\":\"debug\",\"name\":\"ev\\\"ent\",\"msg\":\"a\\nmessage\\t\\\\\",\"sim_ms\":12,\"attrs\":{\"u\":18446744073709551615,\"i\":-42,\"f\":2.5,\"whole\":123,\"tiny\":0.0000001,\"nan\":null,\"inf\":null,\"s\":\"q\\\"b\\\\n\\n\\u0000\\u001fé𐍈\",\"t\":true,\"k\\\"ey\":false}}\n{\"seq\":1,\"type\":\"event\",\"level\":\"debug\",\"name\":\"bare\",\"msg\":\"\",\"sim_ms\":null,\"attrs\":{}}\n{\"seq\":2,\"type\":\"heartbeat\",\"name\":\"collect.progress\",\"sim_ms\":30000,\"attrs\":{\"u\":18446744073709551615,\"i\":-42,\"f\":2.5,\"whole\":123,\"tiny\":0.0000001,\"nan\":null,\"inf\":null,\"s\":\"q\\\"b\\\\n\\n\\u0000\\u001fé𐍈\",\"t\":true,\"k\\\"ey\":false}}\n{\"seq\":3,\"type\":\"heartbeat\",\"name\":\"collect.\\\"idle\\\"\",\"sim_ms\":0,\"attrs\":{}}\n{\"seq\":4,\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"in\\\"ner\",\"sim_start_ms\":150,\"sim_end_ms\":180,\"attrs\":{}}\n{\"seq\":5,\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"outer\",\"sim_start_ms\":100,\"sim_end_ms\":200,\"attrs\":{\"u\":18446744073709551615,\"i\":-42,\"f\":2.5,\"whole\":123,\"tiny\":0.0000001,\"nan\":null,\"inf\":null,\"s\":\"q\\\"b\\\\n\\n\\u0000\\u001fé𐍈\",\"t\":true,\"k\\\"ey\":false}}\n{\"seq\":6,\"type\":\"request\",\"trace_id\":\"0123456789abcdef\",\"conn\":4,\"ordinal\":17,\"target\":\"/classify?ip=1.2.3.4&q=\\\"x\\\"\\\\\\t\\u0002\",\"endpoint\":\"classify\",\"status\":503,\"bytes\":88,\"generation\":\"weekly:3,we\\\"ird:1\",\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"parse\",\"detail\":\"classify\"},{\"id\":1,\"parent\":0,\"name\":\"probe\",\"detail\":\"back\\\\slash \\\"q\\\"\\n\"},{\"id\":2,\"parent\":null,\"name\":\"serialize\",\"detail\":\"\"}]}\n");
    pins.finish();
}

#[test]
fn debug_json_is_pinned() {
    let mut out = String::from("[");
    telemetry::json::object(&mut out, |o| request_trace().write_json(o, true));
    let mut pins = Pins::default();
    pins.check("debug_json", &out, "[{\"trace_id\":\"0123456789abcdef\",\"conn\":4,\"ordinal\":17,\"target\":\"/classify?ip=1.2.3.4&q=\\\"x\\\"\\\\\\t\\u0002\",\"endpoint\":\"classify\",\"status\":503,\"bytes\":88,\"generation\":\"weekly:3,we\\\"ird:1\",\"wall_us\":1234,\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"parse\",\"wall_us\":3,\"detail\":\"classify\"},{\"id\":1,\"parent\":0,\"name\":\"probe\",\"wall_us\":40,\"detail\":\"back\\\\slash \\\"q\\\"\\n\"},{\"id\":2,\"parent\":null,\"name\":\"serialize\",\"wall_us\":0,\"detail\":\"\"}]}");
    pins.finish();
}

#[test]
fn trace_ids_are_deterministic_and_well_spread() {
    assert_eq!(trace_id(3, 17), trace_id(3, 17));
    assert_ne!(trace_id(3, 17), trace_id(3, 18));
    assert_ne!(trace_id(3, 17), trace_id(4, 17));
    // (conn, req) and (req, conn) must not collide trivially.
    assert_ne!(trace_id(1, 2), trace_id(2, 1));
}

#[test]
fn debug_json_has_wall_but_emit_line_does_not() {
    let trace = request_trace();
    let debug = telemetry::json::to_string(|o| trace.write_json(o, true));
    assert!(debug.contains("\"wall_us\":1234,"), "{debug}");
    assert!(debug.starts_with("{\"trace_id\":\""), "{debug}");
    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    let buf = SharedBuf::default();
    reqtrace::emit(&trace); // no trace attached: writes nowhere
    telemetry::attach_trace(Box::new(buf.clone()));
    reqtrace::emit(&trace);
    telemetry::detach_trace().unwrap();
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(
        stream.starts_with("{\"seq\":0,\"type\":\"request\""),
        "{stream}"
    );
    assert!(!stream.contains("wall"), "{stream}");
}

#[test]
fn metrics_snapshot_is_pinned() {
    let reg = Registry::new();
    reg.counter("scanner.probes_sent").add(42);
    reg.counter_with(
        "scanner.responses",
        &[("rcode", "NOERROR"), ("campaign", "weekly")],
    )
    .add(40);
    reg.counter("zero").add(0);
    reg.gauge("worldgen.resolvers").set(7490.0);
    reg.gauge("netsim.queue_depth_max").set(9.9);
    reg.gauge("ratio.nan").set(f64::NAN);
    let h = reg.histogram("scanner.token_wait_ms", &[1, 10, 100]);
    for v in [0, 5, 5, 50, 500] {
        h.observe(v);
    }
    reg.histogram("empty", &[1]);
    let mut pins = Pins::default();
    pins.check("snapshot", &reg.snapshot().to_json(), "{\n  \"telemetry\": \"goingwild.metrics.v1\",\n  \"counters\": {\n    \"scanner.probes_sent\": 42,\n    \"scanner.responses{campaign=weekly,rcode=NOERROR}\": 40,\n    \"zero\": 0\n  },\n  \"gauges\": {\n    \"netsim.queue_depth_max\": 9.9,\n    \"ratio.nan\": null,\n    \"worldgen.resolvers\": 7490\n  },\n  \"histograms\": {\n    \"empty\": {\"count\": 0, \"sum\": 0, \"buckets\": [[1, 0]], \"overflow\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0, \"max\": 0},\n    \"scanner.token_wait_ms\": {\"count\": 5, \"sum\": 560, \"buckets\": [[1, 1], [10, 2], [100, 1]], \"overflow\": 1, \"p50\": 10, \"p90\": 500, \"p99\": 500, \"max\": 500}\n  }\n}\n");
    pins.check("empty snapshot", &Registry::new().snapshot().to_json(), "{\n  \"telemetry\": \"goingwild.metrics.v1\",\n  \"counters\": {\n  },\n  \"gauges\": {\n  },\n  \"histograms\": {\n  }\n}\n");
    pins.finish();
}
