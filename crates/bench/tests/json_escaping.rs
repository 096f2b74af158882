//! Campaign names are directory names under `--store`: input from
//! outside the program. Every document that carries one — the engine's
//! answers, `/healthz` degraded or not, `/admin/scrub` and
//! `repro scrub --json` — must stay valid JSON and give the name back
//! unchanged, however many quotes and backslashes it holds.

mod common;

use common::TempDir;
use scanstore::{CampaignStore, Observation, ObservationSink, SnapshotSink};
use serde_json::Value;
use serve::{BreakerOptions, QueryEngine, RunningServer, ServeOptions};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// Three campaigns that all saw 0.0.0.10, two of them named to break
/// an emitter that forgets to escape.
const NAMES: [&str; 3] = ["back\\slash", "we\"ird", "weekly"];

fn seed_store(root: &Path) {
    for name in NAMES {
        let mut store = CampaignStore::open(root.join(name)).unwrap();
        let us = store.intern("US");
        let mut o = Observation::at(10, 0, 1_000);
        o.country = us;
        o.asn = 1;
        store.observe(o);
        store.commit("week-0", 1_000, &[]).unwrap();
    }
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body.trim_end()).unwrap_or_else(|e| panic!("{e}: {body}"))
}

fn object(v: &Value) -> &BTreeMap<String, Value> {
    match v {
        Value::Object(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    object(v)
        .get(key)
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

fn string(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    object(v).keys().map(String::as_str).collect()
}

/// The generation tag the engine builds from the names, sorted.
fn tag() -> String {
    NAMES.map(|n| format!("{n}:1")).join(",")
}

#[test]
fn engine_bodies_carry_escaped_campaign_names() {
    let tmp = TempDir::new("engine");
    seed_store(&tmp.0);
    let engine = QueryEngine::open(&tmp.0).unwrap();
    let body = |target: &str| {
        let r = engine.handle(target);
        assert_eq!(r.status, 200, "{target}");
        parse(std::str::from_utf8(&r.body).unwrap())
    };

    assert_eq!(
        keys(field(&body("/classify?ip=0.0.0.10"), "campaigns")),
        NAMES
    );
    for family in ["/churn?asn=1&", "/amplifiers?country=US&", "/coverage?"] {
        let doc = body(&format!("{family}campaign=we\"ird"));
        assert_eq!(string(field(&doc, "campaign")), "we\"ird", "{family}");
    }
    let inventory = body("/campaigns");
    let listed: Vec<&str> = match field(&inventory, "campaigns") {
        Value::Array(items) => items.iter().map(|c| string(field(c, "name"))).collect(),
        other => panic!("expected an array, got {other:?}"),
    };
    assert_eq!(listed, NAMES);
    assert_eq!(string(field(&body("/healthz"), "generations")), tag());
}

fn get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    text.split_once("\r\n\r\n").unwrap().1.to_string()
}

#[test]
fn live_bodies_carry_escaped_campaign_names() {
    let tmp = TempDir::new("live");
    seed_store(&tmp.0);
    let server = RunningServer::start(&ServeOptions {
        store: tmp.0.clone(),
        refresh_ms: 5,
        breaker: BreakerOptions {
            max_backoff_ticks: 100_000,
        },
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.addr();

    let scrub = parse(&get(addr, "/admin/scrub"));
    assert_eq!(keys(field(&scrub, "campaigns")), NAMES);

    // A failing refresh trips the breaker: `/healthz` stays 200 but
    // reports degraded, through the daemon's own emitter.
    scanstore::faults::arm(&scanstore::FaultSpec {
        scope: tmp.0.to_string_lossy().into_owned(),
        manifest_read_errors: 1_000_000,
        ..scanstore::FaultSpec::default()
    });
    let mut degraded = String::new();
    for _ in 0..400 {
        degraded = get(addr, "/healthz");
        if degraded.contains("degraded") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    scanstore::faults::disarm();
    let health = parse(&degraded);
    assert_eq!(field(&health, "degraded"), &Value::Bool(true), "{degraded}");
    assert_eq!(string(field(&health, "generations")), tag());
    server.stop().unwrap();
}

#[test]
fn scrub_cli_json_carries_escaped_campaign_names() {
    let tmp = TempDir::new("cli");
    seed_store(&tmp.0);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["scrub", "--json", "--store"])
        .arg(&tmp.0)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let doc = parse(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(keys(&doc), NAMES);
}
