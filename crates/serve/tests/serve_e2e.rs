//! End-to-end tests: a real daemon on a loopback port, answering the
//! four query families from a store collected by the PR 3 bundle
//! pipeline, plus determinism and live-refresh guarantees.

mod common;

use common::TempDir;
use goingwild::{collect_bundle, BundleOptions, CampaignKind, WorldConfig};
use scanstore::{CampaignStore, Observation, ObservationSink, SnapshotSink};
use serve::{run_fleet, FleetOptions, RunningServer, ServeOptions};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Collects a small two-week weekly campaign into `dir` with the real
/// bundle pipeline.
fn collect_store(dir: &Path) {
    let mut cfg = WorldConfig::tiny(11);
    cfg.weeks = 2;
    let mut opts = BundleOptions::new(cfg);
    opts.weeks = 2;
    collect_bundle(&opts, &[CampaignKind::Weekly], Some(dir)).unwrap();
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let status: u16 = text["HTTP/1.1 ".len()..][..3].parse().unwrap();
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn options(store: &Path) -> ServeOptions {
    ServeOptions {
        store: store.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        cache_cap: 64,
        refresh_ms: 50,
        metrics: None,
        ..ServeOptions::default()
    }
}

#[test]
fn four_families_over_a_collected_bundle() {
    let tmp = TempDir::new("families");
    collect_store(&tmp.0);
    let server = RunningServer::start(&options(&tmp.0)).unwrap();
    let addr = server.addr();

    let (status, campaigns) = get(addr, "/campaigns");
    assert_eq!(status, 200);
    assert!(campaigns.contains("\"name\":\"weekly\""), "{campaigns}");
    assert!(campaigns.contains("\"generation\":2"), "{campaigns}");

    // Pull a live IP out of the coverage answer's campaign, then
    // classify it.
    let (status, coverage) = get(addr, "/coverage?campaign=weekly");
    assert_eq!(status, 200);
    assert!(coverage.contains("\"generation\":2"), "{coverage}");
    assert!(coverage.contains("\"label\":\"week-"), "{coverage}");

    // The weekly campaign observes real resolvers; ask the fleet
    // planner for a known-hot one by querying an aggregate first.
    let (status, amp) = get(addr, "/amplifiers?country=CN&limit=3");
    assert_eq!(status, 200, "{amp}");

    let (status, churn_err) = get(addr, "/churn?asn=4294967294");
    assert_eq!(status, 404, "{churn_err}");

    let (status, classify) = get(addr, "/classify?ip=198.51.100.77");
    assert_eq!(status, 200);
    assert!(classify.contains("\"summary\":"), "{classify}");

    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(health.contains("\"ok\":true"), "{health}");

    let summary = server.stop().unwrap();
    assert!(summary.requests >= 6, "{summary:?}");
}

#[test]
fn same_seed_fleet_runs_are_byte_identical() {
    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    let tmp = TempDir::new("determinism");
    collect_store(&tmp.0);
    let server = RunningServer::start(&options(&tmp.0)).unwrap();

    let fleet = FleetOptions {
        addr: server.addr(),
        store: tmp.0.clone(),
        seed: 42,
        clients: 3,
        requests: 40,
    };
    let first = run_fleet(&fleet).unwrap();
    let second = run_fleet(&fleet).unwrap();
    assert_eq!(first.errors, 0, "{first:?}");
    assert_eq!(first.requests, 120);
    assert_eq!(first.digest, second.digest);
    assert_eq!(first.bytes, second.bytes);
    assert_eq!(first.deterministic_json(), second.deterministic_json());

    let other = run_fleet(&FleetOptions { seed: 43, ..fleet }).unwrap();
    assert_ne!(first.digest, other.digest, "different seed, same digest");

    // The second identical run must have hit the response cache, and
    // cold paths must have missed it. Cache counters are labeled by
    // endpoint, so sum the family.
    let snap = telemetry::snapshot();
    assert!(snap.counter_sum("serve.cache.hit") > 0);
    assert!(snap.counter_sum("serve.cache.miss") > 0);
    server.stop().unwrap();
}

#[test]
fn refresh_serves_new_commits_without_dropping_queries() {
    let tmp = TempDir::new("refresh");
    // A handwritten store this time: the test needs to commit while
    // the daemon is live.
    let mut store = CampaignStore::open(tmp.0.join("weekly")).unwrap();
    for ip in 1u32..=32 {
        store.observe(Observation::at(ip, 0, 1_000));
    }
    store.commit("week-0", 1_000, &[]).unwrap();

    let server = RunningServer::start(&options(&tmp.0)).unwrap();
    let addr = server.addr();
    let (_, before) = get(addr, "/classify?ip=0.0.1.1");
    assert!(before.contains("\"found\":false"), "{before}");

    // Hammer the daemon from background threads while the writer
    // commits a new generation.
    let stop_flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut readers = Vec::new();
    for t in 0..4u32 {
        let stop = std::sync::Arc::clone(&stop_flag);
        readers.push(std::thread::spawn(move || {
            let mut answered = 0u32;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let ip = 1 + (answered + t) % 32;
                let (status, _) = get(addr, &format!("/classify?ip=0.0.0.{ip}"));
                assert_eq!(status, 200);
                answered += 1;
            }
            answered
        }));
    }

    store.observe(Observation::at(257, 0, 2_000)); // 0.0.1.1
    for ip in 1u32..=32 {
        store.observe(Observation::at(ip, 0, 2_000));
    }
    store.commit("week-1", 2_000, &[]).unwrap();

    // The daemon must pick the commit up via its refresh timer.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = get(addr, "/classify?ip=0.0.1.1");
        assert_eq!(status, 200);
        if body.contains("\"found\":true") {
            break;
        }
        assert!(Instant::now() < deadline, "refresh never surfaced week-1");
        std::thread::sleep(Duration::from_millis(25));
    }

    stop_flag.store(true, std::sync::atomic::Ordering::SeqCst);
    for reader in readers {
        let answered = reader.join().unwrap();
        assert!(answered > 0, "reader thread made no progress");
    }
    let summary = server.stop().unwrap();
    assert!(summary.refreshes >= 1, "{summary:?}");
}

#[test]
fn every_accepted_connection_ends_in_one_counted_outcome() {
    // The daemon's threads report to the handle that started it.
    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    let tmp = TempDir::new("outcomes");
    collect_store(&tmp.0);
    const TIMED_OUT: &str = "serve.conns{outcome=timed_out}";
    let count = |key: &str| tel.registry().snapshot().counter(key).unwrap_or(0);
    let server = RunningServer::start(&ServeOptions {
        conn_timeout_ms: 100,
        ..options(&tmp.0)
    })
    .unwrap();
    let addr = server.addr();

    for target in ["/healthz", "/campaigns", "/nope", "/classify?ip=banana"] {
        get(addr, target);
    }
    // One client that connects and leaves...
    drop(TcpStream::connect(addr).unwrap());
    // ...and one slow-loris connection (the `serve::chaos` shape: half a
    // request line, then silence) held until the daemon gives up on it.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /classify?ip=").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while count(TIMED_OUT) == 0 {
        assert!(
            Instant::now() < deadline,
            "the stalled connection never timed out"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(loris);

    let summary = server.stop().unwrap();
    let answered = count("serve.conns{outcome=answered}");
    let closed_early = count("serve.conns{outcome=closed_early}");
    let timed_out = count(TIMED_OUT);
    assert_eq!(answered, 4);
    assert_eq!(answered, summary.requests);
    assert_eq!((closed_early, timed_out), (1, 1));
    assert_eq!(
        count("serve.conns.accepted"),
        answered + closed_early + timed_out
    );
}

#[test]
fn idle_connections_do_not_starve_a_live_one() {
    const IDLE: u64 = 64;
    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    let tmp = TempDir::new("starve");
    let mut store = CampaignStore::open(tmp.0.join("weekly")).unwrap();
    store.observe(Observation::at(1, 0, 1_000));
    store.commit("week-0", 1_000, &[]).unwrap();
    let server = RunningServer::start(&ServeOptions {
        store: tmp.0.clone(),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.addr();

    // Half a request line each, then silence: every one of them holds a
    // worker until it hangs up.
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET /classify?ip=").unwrap();
            stream
        })
        .collect();
    let started = Instant::now();
    let (status, body) = get(addr, "/classify?ip=0.0.0.1");
    assert_eq!(status, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the live connection was starved"
    );
    drop(idle);
    server.stop().unwrap();

    let count = |key: &str| tel.registry().snapshot().counter(key).unwrap_or(0);
    assert_eq!(count("serve.conns.accepted"), IDLE + 1);
    assert_eq!(count("serve.conns{outcome=answered}"), 1);
    assert_eq!(count("serve.conns{outcome=closed_early}"), IDLE);
    // Every worker, and with them the listener, is gone once `stop`
    // returns.
    std::net::TcpListener::bind(addr).expect("the daemon's address is still bound");
}

/// A trace stream writer the test can read back.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The string value of `"key":"…"` in `json` (no escapes in these).
fn text<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json.find(&format!("\"{key}\":\"")).unwrap() + key.len() + 4;
    &json[at..at + json[at..].find('"').unwrap()]
}

/// A request's layers as `(name, detail)`, and that none has a parent.
fn layers(request: &str) -> Vec<(&str, &str)> {
    let spans = &request[request.find("\"spans\":[").unwrap()..];
    spans
        .split("{\"id\":")
        .skip(1)
        .map(|s| {
            assert!(s.contains("\"parent\":null"), "{request}");
            (text(s, "name"), text(s, "detail"))
        })
        .collect()
}

/// The layers a cache miss on `target` opens over `common::seed_store`.
fn expected_layers(target: &str) -> Vec<(&'static str, &str)> {
    let family = &target[1..target.find('?').unwrap_or(target.len())];
    let mut want = vec![("cache", "miss"), ("parse", family)];
    match family {
        "classify" => want.extend([("probe", "banner"), ("probe", "weekly")]),
        "churn" | "amplifiers" | "coverage" => want.push(("probe", "weekly")),
        _ => {}
    }
    if family != "healthz" {
        want.push(("serialize", ""));
    }
    want
}

#[test]
fn concurrent_traced_requests_keep_their_own_span_trees() {
    const CLIENTS: usize = 8;
    // Every request stays in the 256-entry debug ring.
    const REQUESTS: usize = 30;
    const TARGETS: [&str; 7] = [
        "/classify?ip=0.0.0.10",
        "/classify?ip=0.0.0.20",
        "/churn?asn=1",
        "/amplifiers?country=US",
        "/coverage?campaign=weekly",
        "/campaigns",
        "/healthz",
    ];
    let tel = telemetry::Telemetry::new();
    let _in = tel.enter();
    let tmp = TempDir::new("traced");
    common::seed_store(&tmp.0);
    let buf = SharedBuf::default();
    telemetry::attach_trace(Box::new(buf.clone()));
    let server = RunningServer::start(&ServeOptions {
        // Small enough that most requests miss and run every layer.
        cache_cap: 2,
        ..options(&tmp.0)
    })
    .unwrap();
    let addr = server.addr();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            s.spawn(move || {
                for i in 0..REQUESTS {
                    let target = TARGETS[(client + i) % TARGETS.len()];
                    assert_eq!(get(addr, target).0, 200, "{target}");
                }
            });
        }
    });
    let (status, debug) = get(addr, "/debug/requests?limit=256");
    assert_eq!(status, 200);
    server.stop().unwrap();
    telemetry::detach_trace().unwrap();

    // Every request line and every ring entry holds exactly the layers
    // of its own target: a span from another request would add one.
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(
        lines.len(),
        CLIENTS * REQUESTS + 1,
        "one line per request:\n{stream}"
    );
    let ring = debug.split("\"requests\":[").nth(1).unwrap();
    let ring = &ring[..ring.find("],\"slow\":").unwrap()];
    let entries: Vec<&str> = ring.split("{\"trace_id\":").skip(1).collect();
    assert_eq!(entries.len(), CLIENTS * REQUESTS);
    let mut misses = 0;
    for request in lines.iter().copied().chain(entries) {
        if request.contains("\"type\":") {
            assert!(request.contains("\"type\":\"request\""), "{request}");
        }
        let target = text(request, "target");
        if target.starts_with("/debug") {
            assert_eq!(layers(request), []);
        } else if layers(request) == [("cache", "hit")] {
            continue;
        } else {
            assert_eq!(layers(request), expected_layers(target), "{request}");
            misses += 1;
        }
    }
    assert!(
        misses > CLIENTS * REQUESTS,
        "{misses} misses: the cache hid the layers"
    );
}
