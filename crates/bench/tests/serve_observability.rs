//! Serving-path observability integration tests (DESIGN §11), against
//! the real `repro` binary: trace-stream determinism, SLO burn-rate
//! degradation of `/healthz`, `/metrics` content negotiation, the
//! uniform error body, `/debug/requests`, and `repro tail`.

#![cfg(unix)]

mod common;

use common::{seed_weekly, TempDir};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A daemon child that is killed on drop, so a failing assertion
/// cannot leak a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(store: &Path, extra: &[&str]) -> Daemon {
        let mut args = vec![
            "serve",
            "--store",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ];
        args.extend_from_slice(extra);
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let announce = BufReader::new(stdout).lines().next().unwrap().unwrap();
        let addr = announce
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected announce line: {announce}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One GET with explicit extra headers; returns (status, head, body).
fn get_with(addr: &str, target: &str, headers: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\n{headers}Connection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw["HTTP/1.1 ".len()..][..3].parse().unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn get(addr: &str, target: &str) -> (u16, String) {
    let (status, _head, body) = get_with(addr, target, "");
    (status, body)
}

/// Runs `repro serve --selftest` and returns (stdout, trace bytes).
fn selftest(store: &Path, trace: Option<&Path>, extra: &[&str]) -> (String, Vec<u8>) {
    let mut args = vec![
        "serve".to_string(),
        "--store".to_string(),
        store.to_str().unwrap().to_string(),
        "--selftest".to_string(),
        "--clients".to_string(),
        "1".to_string(),
        "--requests".to_string(),
        "40".to_string(),
        "--seed".to_string(),
        "7".to_string(),
        "--refresh-ms".to_string(),
        "0".to_string(),
    ];
    if let Some(path) = trace {
        args.push("--trace".to_string());
        args.push(path.to_str().unwrap().to_string());
    }
    args.extend(extra.iter().map(|s| s.to_string()));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "selftest failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let trace_bytes = trace.map(|p| std::fs::read(p).unwrap()).unwrap_or_default();
    (String::from_utf8(output.stdout).unwrap(), trace_bytes)
}

#[test]
fn same_seed_trace_streams_are_byte_identical() {
    let tmp = TempDir::new("trace-determinism");
    seed_weekly(&tmp.0, &[64]);
    let t1 = tmp.0.join("t1.jsonl");
    let t2 = tmp.0.join("t2.jsonl");
    // One sequential client: request and connection ordinals are then
    // reproducible, so the full span stream must be too.
    let (out1, trace1) = selftest(&tmp.0, Some(&t1), &[]);
    let (out2, trace2) = selftest(&tmp.0, Some(&t2), &[]);
    assert_eq!(out1, out2, "selftest stdout diverged");
    assert!(!trace1.is_empty(), "no trace lines were written");
    assert_eq!(trace1, trace2, "trace streams diverged across runs");
    let text = String::from_utf8(trace1).unwrap();
    assert!(text.contains("\"type\":\"request\""), "{text}");
    assert!(text.contains("\"endpoint\":\"classify\""), "{text}");
    assert!(text.contains("\"name\":\"parse\""), "{text}");
    assert!(text.contains("\"name\":\"cache\""), "{text}");
    // The determinism contract: trace lines never carry wall-clock
    // fields (those live only in /debug/requests and the slow log).
    assert!(
        !text.contains("wall"),
        "wall clock leaked into the trace stream"
    );
}

#[test]
fn slo_breach_degrades_healthz_to_503() {
    let tmp = TempDir::new("slo-breach");
    seed_weekly(&tmp.0, &[64]);
    // A 0µs latency objective: every request is over budget, so the
    // burn rate must cross the threshold once both windows fill.
    let daemon = Daemon::start(&tmp.0, &["--slo", "p99=0us"]);

    let (status, body) = get(&daemon.addr, "/healthz");
    assert_eq!(status, 200, "healthy before traffic: {body}");

    for i in 0..30u32 {
        let ip = 1 + (i % 64);
        let (status, _) = get(&daemon.addr, &format!("/classify?ip=0.0.0.{ip}"));
        assert_eq!(status, 200);
    }
    let (status, body) = get(&daemon.addr, "/healthz");
    assert_eq!(status, 503, "burn did not degrade /healthz: {body}");
    // The 503 uses the uniform error body.
    assert!(body.starts_with("{\"error\":\""), "{body}");
    assert!(body.trim_end().ends_with("\"status\":503}"), "{body}");

    let (status, slo) = get(&daemon.addr, "/slo");
    assert_eq!(status, 200);
    assert!(slo.contains("\"state\":\"breach\""), "{slo}");
    assert!(slo.contains("\"objectives\":\"p99=0us\""), "{slo}");
    assert!(slo.contains("\"classify\""), "{slo}");
}

#[test]
fn generous_slo_stays_healthy() {
    let tmp = TempDir::new("slo-ok");
    seed_weekly(&tmp.0, &[64]);
    let daemon = Daemon::start(&tmp.0, &["--slo", "p99=5s,err=50%"]);
    for i in 0..20u32 {
        let (status, _) = get(&daemon.addr, &format!("/classify?ip=0.0.0.{}", 1 + i % 64));
        assert_eq!(status, 200);
    }
    let (status, slo) = get(&daemon.addr, "/slo");
    assert_eq!(status, 200);
    assert!(slo.contains("\"state\":\"ok\""), "{slo}");
    let (status, _) = get(&daemon.addr, "/healthz");
    assert_eq!(status, 200);
}

#[test]
fn metrics_content_negotiation_and_debug_requests() {
    let tmp = TempDir::new("negotiate");
    seed_weekly(&tmp.0, &[64]);
    let daemon = Daemon::start(&tmp.0, &[]);
    let (status, _) = get(&daemon.addr, "/classify?ip=0.0.0.1");
    assert_eq!(status, 200);

    // Default: the JSON snapshot.
    let (status, head, body) = get_with(&daemon.addr, "/metrics", "");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"), "{head}");
    assert!(body.contains("goingwild.metrics.v1"), "{body}");
    assert!(
        body.contains("serve.cache.miss{endpoint=classify}"),
        "{body}"
    );

    // Accept: text/plain → Prometheus text exposition.
    let (status, head, prom) = get_with(&daemon.addr, "/metrics", "Accept: text/plain\r\n");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert!(prom.contains("# TYPE serve_latency_us histogram"), "{prom}");
    assert!(
        prom.contains("serve_latency_us_bucket{endpoint=\"classify\",le=\"+Inf\"}"),
        "{prom}"
    );

    // ?format=prometheus wins regardless of Accept.
    let (_, head2, prom2) = get_with(
        &daemon.addr,
        "/metrics?format=prometheus",
        "Accept: application/json\r\n",
    );
    assert!(head2.contains("text/plain; version=0.0.4"), "{head2}");
    assert!(prom2.contains("# TYPE"), "{prom2}");

    // The debug ring carries the span tree, with wall timings.
    let (status, debug) = get(&daemon.addr, "/debug/requests?limit=4");
    assert_eq!(status, 200);
    assert!(debug.contains("\"query\":\"debug_requests\""), "{debug}");
    assert!(debug.contains("\"name\":\"parse\""), "{debug}");
    assert!(debug.contains("\"wall_us\""), "{debug}");

    // Unknown paths use the uniform error body.
    let (status, body) = get(&daemon.addr, "/nope");
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":\"unknown path /nope\",\"status\":404}\n");
}

#[test]
fn tail_once_json_reads_a_live_daemon() {
    let tmp = TempDir::new("tail-live");
    seed_weekly(&tmp.0, &[64]);
    let daemon = Daemon::start(&tmp.0, &["--slo", "p99=5s"]);
    for i in 0..10u32 {
        let (status, _) = get(&daemon.addr, &format!("/classify?ip=0.0.0.{}", 1 + i % 64));
        assert_eq!(status, 200);
    }
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["tail", "--addr", &daemon.addr, "--once", "--json"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = String::from_utf8(output.stdout).unwrap();
    assert!(doc.contains("\"tail\":\"goingwild.tail.v1\""), "{doc}");
    assert!(doc.contains("\"slo\""), "{doc}");
    assert!(doc.contains("\"classify\""), "{doc}");

    // Human console mode renders the endpoint table.
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["tail", "--addr", &daemon.addr, "--once"])
        .output()
        .unwrap();
    let console = String::from_utf8(output.stdout).unwrap();
    assert!(console.contains("repro tail"), "{console}");
    assert!(console.contains("classify"), "{console}");
}

#[test]
fn tail_follows_a_recorded_trace_file() {
    let tmp = TempDir::new("tail-file");
    seed_weekly(&tmp.0, &[64]);
    let trace = tmp.0.join("trace.jsonl");
    let (_, bytes) = selftest(&tmp.0, Some(&trace), &[]);
    assert!(!bytes.is_empty());
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "tail",
            "--file",
            trace.to_str().unwrap(),
            "--once",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = String::from_utf8(output.stdout).unwrap();
    assert!(doc.contains("\"tail\":\"goingwild.tail.v1\""), "{doc}");
    assert!(doc.contains("\"requests\":40"), "{doc}");
    assert!(doc.contains("\"classify\""), "{doc}");
}

/// One row of the selftest's layer tree: depth, name, wall µs.
type Row = (usize, String, u64);

/// The rows of the layer tree `repro serve --selftest` ends its stderr
/// with.
fn layer_rows(stderr: &str) -> Vec<Row> {
    let tree = stderr
        .split("repro serve: request layers (wall-clock)\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no layer tree on stderr:\n{stderr}"));
    tree.lines()
        .skip(1) // the column header
        .map(|line| {
            let depth = (line.len() - line.trim_start().len()) / 2;
            let cols: Vec<&str> = line.split_whitespace().collect();
            let wall = cols[cols.len() - 2].parse().unwrap();
            (depth, cols[0].to_string(), wall)
        })
        .collect()
}

#[test]
fn selftest_layer_tree_re_sums_and_matches_the_latency_histogram() {
    let tmp = TempDir::new("layers");
    seed_weekly(&tmp.0, &[64, 48]);
    let metrics = tmp.0.join("metrics.json");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--store", tmp.0.to_str().unwrap(), "--selftest"])
        .args(["--seed", "7", "--metrics", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "{stderr}");
    let rows = layer_rows(&stderr);
    let names: Vec<&str> = rows.iter().map(|(_, n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "request",
            "cache",
            "parse",
            "probe",
            "serialize",
            "unattributed"
        ],
        "{stderr}"
    );

    // Each node equals its children plus `unattributed`, exactly.
    for (i, (depth, name, wall)) in rows.iter().enumerate() {
        let children: Vec<&Row> = rows[i + 1..]
            .iter()
            .take_while(|(d, _, _)| d > depth)
            .filter(|(d, _, _)| *d == depth + 1)
            .collect();
        if children.is_empty() {
            continue;
        }
        assert_eq!(children.last().unwrap().1, "unattributed", "{stderr}");
        let sum: u64 = children.iter().map(|(_, _, w)| w).sum();
        assert_eq!(sum, *wall, "{name}: {stderr}");
    }

    // The root is the requests' latency, as `--metrics` sums it: one
    // `serve.latency_us{endpoint=…}` histogram a line.
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    let latency: u64 = snapshot
        .lines()
        .filter(|line| line.trim_start().starts_with("\"serve.latency_us"))
        .map(|line| {
            let sum = &line[line.find("\"sum\": ").unwrap() + 7..];
            sum[..sum.find(',').unwrap()].parse::<u64>().unwrap()
        })
        .sum();
    let root = rows[0].2;
    assert!(latency > 0, "{snapshot}");
    assert!(
        root.abs_diff(latency) * 50 <= latency,
        "root {root} µs vs latency sum {latency} µs"
    );
}
