//! Byte pins for every JSON document the query service writes: each
//! engine family over a small seeded store, the uniform error, shed and
//! deadline bodies, `/slo` and `/debug/requests`, the degraded
//! `/healthz` and `/admin/scrub` bodies of a live daemon, and the chaos
//! and fleet report lines. The literals were recorded from the
//! hand-written emitters these documents used to come from; any change
//! to an output byte fails here.

mod common;

use common::{seed_store, TempDir};
use scanstore::{FaultSpec, Faulty};
use serve::chaos::ChaosCheck;
use serve::http::Response;
use serve::{
    BreakerOptions, BreakerState, ChaosReport, FleetReport, QueryEngine, RefreshHealth,
    RunningServer, ServeObs, ServeOptions,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{RequestTrace, SloSpec};

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

fn body(r: &Response) -> String {
    String::from_utf8(r.body.clone()).unwrap()
}

#[test]
fn engine_families_are_pinned() {
    let tmp = TempDir::new("engine");
    seed_store(&tmp.0);
    let engine = QueryEngine::open(&tmp.0).unwrap();
    let cases: &[(&str, u16, &str)] = &[
        (
            "/classify?ip=0.0.0.10",
            200,
            "{\"query\":\"classify\",\"ip\":\"0.0.0.10\",\"found\":true,\"summary\":\"open-resolver-live\",\"campaigns\":{\"banner\":{\"live\":true,\"rcode\":0,\"proxy\":false,\"tcp_responsive\":false,\"chaos\":\"silent\",\"software\":\"\",\"device\":\"\",\"country\":\"US\",\"rdns\":\"\",\"asn\":1,\"banner_hash\":0,\"value\":0,\"first_seq\":0,\"last_seq\":0,\"rounds\":1,\"snapshots\":1,\"first_seen_ms\":5000,\"last_seen_ms\":5000},\"weekly\":{\"live\":true,\"rcode\":0,\"proxy\":true,\"tcp_responsive\":true,\"chaos\":\"silent\",\"software\":\"dnsmasq \\\"2.51\\\"\\t\\u0001\",\"device\":\"router\\\\cpe\",\"country\":\"US\",\"rdns\":\"dyn-ü😀\",\"asn\":1,\"banner_hash\":3735928559,\"value\":7,\"first_seq\":0,\"last_seq\":2,\"rounds\":3,\"snapshots\":3,\"first_seen_ms\":1002,\"last_seen_ms\":1002}}}\n",
        ),
        (
            "/classify?ip=0.0.0.40",
            200,
            "{\"query\":\"classify\",\"ip\":\"0.0.0.40\",\"found\":true,\"summary\":\"churned\",\"campaigns\":{\"weekly\":{\"live\":false,\"rcode\":0,\"proxy\":false,\"tcp_responsive\":false,\"chaos\":\"silent\",\"software\":\"\",\"device\":\"\",\"country\":\"US\",\"rdns\":\"\",\"asn\":1,\"banner_hash\":0,\"value\":0,\"first_seq\":0,\"last_seq\":0,\"rounds\":1,\"snapshots\":3,\"first_seen_ms\":1000,\"last_seen_ms\":1000}}}\n",
        ),
        (
            "/classify?ip=0.0.0.30",
            200,
            "{\"query\":\"classify\",\"ip\":\"0.0.0.30\",\"found\":true,\"summary\":\"responding-error\",\"campaigns\":{\"weekly\":{\"live\":true,\"rcode\":5,\"proxy\":false,\"tcp_responsive\":false,\"chaos\":\"silent\",\"software\":\"\",\"device\":\"\",\"country\":\"US\",\"rdns\":\"\",\"asn\":1,\"banner_hash\":0,\"value\":0,\"first_seq\":0,\"last_seq\":2,\"rounds\":3,\"snapshots\":3,\"first_seen_ms\":1002,\"last_seen_ms\":1002}}}\n",
        ),
        (
            "/classify?ip=9.9.9.9",
            200,
            "{\"query\":\"classify\",\"ip\":\"9.9.9.9\",\"found\":false,\"summary\":\"unknown\",\"campaigns\":{}}\n",
        ),
        (
            "/churn?asn=1",
            200,
            "{\"query\":\"churn\",\"asn\":1,\"campaign\":\"weekly\",\"cohort\":3,\"snapshots\":[\"week-0\",\"week \\\"1\\\"\",\"week-2\"],\"present\":[3,2,2],\"survivors\":[3,2,2],\"retention_ppm\":[1000000,666666,666666]}\n",
        ),
        (
            "/churn?asn=1&campaign=banner",
            200,
            "{\"query\":\"churn\",\"asn\":1,\"campaign\":\"banner\",\"cohort\":1,\"snapshots\":[\"scan\"],\"present\":[1],\"survivors\":[1],\"retention_ppm\":[1000000]}\n",
        ),
        (
            "/amplifiers?country=US&limit=5",
            200,
            "{\"query\":\"amplifiers\",\"country\":\"US\",\"campaign\":\"weekly\",\"total_candidates\":1,\"returned\":1,\"candidates\":[{\"ip\":\"0.0.0.10\",\"asn\":1,\"score\":3625,\"rounds\":3,\"tcp_responsive\":true,\"software\":\"dnsmasq \\\"2.51\\\"\\t\\u0001\"}]}\n",
        ),
        (
            "/amplifiers?country=U\"S\\&campaign=banner",
            200,
            "{\"query\":\"amplifiers\",\"country\":\"U\\\"S\\\\\",\"campaign\":\"banner\",\"total_candidates\":0,\"returned\":0,\"candidates\":[]}\n",
        ),
        (
            "/coverage",
            200,
            "{\"query\":\"coverage\",\"campaign\":\"weekly\",\"generation\":3,\"live_records\":3,\"distinct_ips\":4,\"snapshots\":[{\"seq\":0,\"label\":\"week-0\",\"t_ms\":1000,\"records\":4,\"meta\":{\"vantage\":\"ams\\\\0\",\"note\":\"tab\\there\\n\\u001f\"}},{\"seq\":1,\"label\":\"week \\\"1\\\"\",\"t_ms\":1001,\"records\":3,\"meta\":{\"vantage\":\"ams\\\\1\",\"note\":\"tab\\there\\n\\u001f\"}},{\"seq\":2,\"label\":\"week-2\",\"t_ms\":1002,\"records\":3,\"meta\":{\"vantage\":\"ams\\\\2\",\"note\":\"tab\\there\\n\\u001f\"}}]}\n",
        ),
        (
            "/coverage?campaign=banner",
            200,
            "{\"query\":\"coverage\",\"campaign\":\"banner\",\"generation\":1,\"live_records\":1,\"distinct_ips\":1,\"snapshots\":[{\"seq\":0,\"label\":\"scan\",\"t_ms\":5000,\"records\":1,\"meta\":{}}]}\n",
        ),
        (
            "/campaigns",
            200,
            "{\"query\":\"campaigns\",\"campaigns\":[{\"name\":\"banner\",\"generation\":1,\"live_records\":1,\"distinct_ips\":1,\"recovered\":false},{\"name\":\"weekly\",\"generation\":3,\"live_records\":3,\"distinct_ips\":4,\"recovered\":false}]}\n",
        ),
        (
            "/healthz",
            200,
            "{\"ok\":true,\"generations\":\"banner:1,weekly:3\"}\n",
        ),
        (
            "/nope\"x",
            404,
            "{\"error\":\"unknown path /nope\\\"x\",\"status\":404}\n",
        ),
        (
            "/classify?ip=ban\"ana",
            400,
            "{\"error\":\"`ban\\\"ana` is not a dotted IPv4 address\",\"status\":400}\n",
        ),
        (
            "/churn?asn=999",
            404,
            "{\"error\":\"AS999 was never observed in `weekly`\",\"status\":404}\n",
        ),
        (
            "/coverage?campaign=no\\pe",
            404,
            "{\"error\":\"unknown campaign `no\\\\pe`; see /campaigns\",\"status\":404}\n",
        ),
        (
            "/amplifiers?country=US&limit=0",
            400,
            "{\"error\":\"limit must be a positive integer\",\"status\":400}\n",
        ),
    ];
    let mut pins = Pins::default();
    for &(target, status, expected) in cases {
        let r = engine.handle(target);
        assert_eq!(r.status, status, "{target}");
        pins.check(target, &body(&r), expected);
    }
    pins.finish();
}

#[test]
fn error_shed_and_deadline_bodies_are_pinned() {
    let mut pins = Pins::default();
    let err = Response::error(500, "disk \"full\"\n\\ \u{7}");
    pins.check(
        "error",
        &String::from_utf8(err.to_wire()).unwrap(),
        "HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\nContent-Length: 50\r\nConnection: close\r\n\r\n{\"error\":\"disk \\\"full\\\"\\n\\\\ \\u0007\",\"status\":500}\n",
    );
    let shed = Response::shed(429, "overloaded: queue full", 2);
    pins.check(
        "shed",
        &String::from_utf8(shed.to_wire()).unwrap(),
        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 48\r\nConnection: close\r\nRetry-After: 2\r\n\r\n{\"error\":\"overloaded: queue full\",\"status\":429}\n",
    );
    let exceeded = serve::obs::Labeled::new("serve.deadline_exceeded", "endpoint", &["classify"]);
    let deadline = serve::admission::deadline_response(&exceeded, "classify");
    pins.check(
        "deadline",
        &String::from_utf8(deadline.to_wire()).unwrap(),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 43\r\nConnection: close\r\n\r\n{\"error\":\"deadline_exceeded\",\"status\":503}\n",
    );
    pins.finish();
}

/// Request `ordinal` on connection 3 as the daemon's request scope
/// records it — a cache miss, then one probe — with its wall times
/// pinned: the request's to `wall_us`, its layers' to 10 and 11.
fn trace(ordinal: u64, wall_us: u64) -> RequestTrace {
    let scope = telemetry::Telemetry::new().scope();
    {
        let _in = scope.enter();
        let _request = telemetry::span("request", 0);
        telemetry::span("cache", 0).attr("detail", "miss");
        telemetry::span("probe", 0).attr("detail", "we\"ird\\");
    }
    let mut spans = scope.finish();
    for (span, us) in spans.iter_mut().zip([wall_us, 10, 11]) {
        span.wall_ns = us * 1_000;
    }
    RequestTrace {
        trace_id: telemetry::reqtrace::trace_id(3, ordinal),
        conn: 3,
        ordinal,
        target: "/classify?ip=0.0.0.10&x=\"q\"".to_string(),
        endpoint: "classify",
        status: 200,
        bytes: 612,
        generation: "weekly:3".to_string(),
        spans,
    }
}

/// `"uptime_s":<digits>` depends on when the second ticks over; every
/// other byte of `/slo` is a function of what was recorded.
fn mask_uptime(body: &str) -> String {
    let key = "\"uptime_s\":";
    let Some(at) = body.find(key) else {
        return body.to_string();
    };
    let start = at + key.len();
    let digits = body[start..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}N{}", &body[..start], &body[start + digits..])
}

#[test]
fn slo_and_debug_bodies_are_pinned() {
    let mut pins = Pins::default();
    let quiet = ServeObs::new(None);
    pins.check(
        "slo none",
        &mask_uptime(&body(&quiet.slo_response(None))),
        "{\"query\":\"slo\",\"objectives\":null,\"state\":\"none\",\"uptime_s\":N,\"burn\":null,\"refresh\":null,\"window_s\":10,\"endpoints\":{}}\n",
    );

    let obs = ServeObs::new(Some(SloSpec::parse("p99=1ms,err=5%").unwrap()));
    for i in 0..20u64 {
        obs.record(
            "classify",
            if i % 10 == 0 { 503 } else { 200 },
            200 + 100 * i,
        );
    }
    obs.record("coverage", 200, 45);
    let health = RefreshHealth {
        state: BreakerState::Open,
        consecutive_failures: 1,
        trips: 1,
    };
    pins.check(
        "slo breach",
        &mask_uptime(&body(&obs.slo_response(Some(health)))),
        "{\"query\":\"slo\",\"objectives\":\"p99=1000us,err=5.0000%\",\"state\":\"breach\",\"uptime_s\":N,\"burn\":{\"threshold\":14,\"fast\":{\"window_s\":10,\"latency\":52.381,\"error\":1.905,\"count\":21},\"slow\":{\"window_s\":60,\"latency\":52.381,\"error\":1.905,\"count\":21}},\"refresh\":{\"breaker\":\"open\",\"degraded\":true,\"consecutive_failures\":1,\"trips\":1},\"window_s\":10,\"endpoints\":{\"classify\":{\"count\":20,\"errors\":2,\"over\":11,\"qps\":2.00,\"p50_us\":1136,\"p90_us\":2227,\"p99_us\":2500,\"max_us\":2100},\"coverage\":{\"count\":1,\"errors\":0,\"over\":0,\"qps\":0.10,\"p50_us\":50,\"p90_us\":50,\"p99_us\":50,\"max_us\":45}}}\n",
    );

    // Over a 0us objective every request is slow: the feed holds both.
    let obs = ServeObs::new(Some(SloSpec::parse("p99=0us").unwrap()));
    obs.finish(trace(7, 321));
    obs.finish(trace(8, 654));
    pins.check("debug", &body(&obs.debug_response(1)), "{\"query\":\"debug_requests\",\"returned\":1,\"slow_threshold_us\":0,\"requests\":[{\"trace_id\":\"893eb7db0dddbdb4\",\"conn\":3,\"ordinal\":8,\"target\":\"/classify?ip=0.0.0.10&x=\\\"q\\\"\",\"endpoint\":\"classify\",\"status\":200,\"bytes\":612,\"generation\":\"weekly:3\",\"wall_us\":654,\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"cache\",\"wall_us\":10,\"detail\":\"miss\"},{\"id\":1,\"parent\":null,\"name\":\"probe\",\"wall_us\":11,\"detail\":\"we\\\"ird\\\\\"}]}],\"slow\":[{\"trace_id\":\"893eb7db0dddbdb4\",\"conn\":3,\"ordinal\":8,\"target\":\"/classify?ip=0.0.0.10&x=\\\"q\\\"\",\"endpoint\":\"classify\",\"status\":200,\"bytes\":612,\"generation\":\"weekly:3\",\"wall_us\":654,\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"cache\",\"wall_us\":10,\"detail\":\"miss\"},{\"id\":1,\"parent\":null,\"name\":\"probe\",\"wall_us\":11,\"detail\":\"we\\\"ird\\\\\"}]}]}\n");
    pins.check("debug all", &body(&obs.debug_response(10)), "{\"query\":\"debug_requests\",\"returned\":2,\"slow_threshold_us\":0,\"requests\":[{\"trace_id\":\"893eb7db0dddbdb4\",\"conn\":3,\"ordinal\":8,\"target\":\"/classify?ip=0.0.0.10&x=\\\"q\\\"\",\"endpoint\":\"classify\",\"status\":200,\"bytes\":612,\"generation\":\"weekly:3\",\"wall_us\":654,\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"cache\",\"wall_us\":10,\"detail\":\"miss\"},{\"id\":1,\"parent\":null,\"name\":\"probe\",\"wall_us\":11,\"detail\":\"we\\\"ird\\\\\"}]},{\"trace_id\":\"953aeb70673e29cb\",\"conn\":3,\"ordinal\":7,\"target\":\"/classify?ip=0.0.0.10&x=\\\"q\\\"\",\"endpoint\":\"classify\",\"status\":200,\"bytes\":612,\"generation\":\"weekly:3\",\"wall_us\":321,\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"cache\",\"wall_us\":10,\"detail\":\"miss\"},{\"id\":1,\"parent\":null,\"name\":\"probe\",\"wall_us\":11,\"detail\":\"we\\\"ird\\\\\"}]}],\"slow\":[{\"trace_id\":\"893eb7db0dddbdb4\",\"conn\":3,\"ordinal\":8,\"target\":\"/classify?ip=0.0.0.10&x=\\\"q\\\"\",\"endpoint\":\"classify\",\"status\":200,\"bytes\":612,\"generation\":\"weekly:3\",\"wall_us\":654,\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"cache\",\"wall_us\":10,\"detail\":\"miss\"},{\"id\":1,\"parent\":null,\"name\":\"probe\",\"wall_us\":11,\"detail\":\"we\\\"ird\\\\\"}]},{\"trace_id\":\"953aeb70673e29cb\",\"conn\":3,\"ordinal\":7,\"target\":\"/classify?ip=0.0.0.10&x=\\\"q\\\"\",\"endpoint\":\"classify\",\"status\":200,\"bytes\":612,\"generation\":\"weekly:3\",\"wall_us\":321,\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"cache\",\"wall_us\":10,\"detail\":\"miss\"},{\"id\":1,\"parent\":null,\"name\":\"probe\",\"wall_us\":11,\"detail\":\"we\\\"ird\\\\\"}]}]}\n");
    pins.finish();
}

#[test]
fn report_lines_are_pinned() {
    let mut pins = Pins::default();
    let chaos = ChaosReport {
        profile: "overload".to_string(),
        seed: 7,
        checks: vec![
            ChaosCheck {
                name: "baseline_ok",
                pass: true,
                detail: "ignored".to_string(),
            },
            ChaosCheck {
                name: "recovery",
                pass: false,
                detail: String::new(),
            },
        ],
    };
    pins.check("chaos", &chaos.deterministic_json(), "{\"chaos\":\"overload\",\"seed\":7,\"pass\":false,\"checks\":[{\"check\":\"baseline_ok\",\"pass\":true},{\"check\":\"recovery\",\"pass\":false}]}");
    let empty = ChaosReport {
        profile: "malformed".to_string(),
        seed: 0,
        checks: Vec::new(),
    };
    pins.check(
        "chaos empty",
        &empty.deterministic_json(),
        "{\"chaos\":\"malformed\",\"seed\":0,\"pass\":false,\"checks\":[]}",
    );
    let fleet = FleetReport {
        requests: 400,
        errors: 0,
        bytes: 123_456,
        digest: 0x00ab_cdef_0123_4567,
        wall_ms: 999,
    };
    pins.check(
        "fleet",
        &fleet.deterministic_json(),
        "{\"requests\":400,\"errors\":0,\"bytes\":123456,\"digest\":\"00abcdef01234567\"}",
    );
    pins.finish();
}

fn get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    String::from_utf8(raw).unwrap()
}

#[test]
fn live_scrub_and_degraded_healthz_are_pinned() {
    let tmp = TempDir::new("live");
    seed_store(&tmp.0);
    let faulty = Arc::new(Faulty::default());
    let server = RunningServer::start(&ServeOptions {
        store: tmp.0.clone(),
        refresh_ms: 5,
        // Three failed refreshes trip the breaker, and its backoff
        // doubles past the test's length after a few failed probes.
        breaker: BreakerOptions {
            max_backoff_ticks: 100_000,
        },
        disk: faulty.clone(),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut pins = Pins::default();
    pins.check("scrub", &get(addr, "/admin/scrub"), "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 409\r\nConnection: close\r\n\r\n{\"query\":\"scrub\",\"healthy\":true,\"campaigns\":{\"banner\":{\"healthy\":true,\"manifest_ok\":true,\"committed\":1,\"segments\":[{\"seq\":0,\"file\":\"seg-00000.gws\",\"verdict\":\"ok\"}],\"orphans\":[]},\"weekly\":{\"healthy\":true,\"manifest_ok\":true,\"committed\":3,\"segments\":[{\"seq\":0,\"file\":\"seg-00000.gws\",\"verdict\":\"ok\"},{\"seq\":1,\"file\":\"seg-00001.gws\",\"verdict\":\"ok\"},{\"seq\":2,\"file\":\"seg-00002.gws\",\"verdict\":\"ok\"}],\"orphans\":[]}}}\n");

    faulty.arm(&FaultSpec {
        manifest_read_errors: 1_000_000,
        ..FaultSpec::default()
    });
    let mut degraded = String::new();
    for _ in 0..400 {
        degraded = get(addr, "/healthz");
        if degraded.contains("degraded") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    faulty.arm(&FaultSpec::default());
    pins.check("degraded healthz", &degraded, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 79\r\nConnection: close\r\n\r\n{\"ok\":true,\"degraded\":true,\"breaker\":\"open\",\"generations\":\"banner:1,weekly:3\"}\n");
    server.stop().unwrap();
    pins.finish();
}
