//! Serving-path observability: per-endpoint rolling latency windows,
//! SLO burn-rate evaluation, the request-trace ring, the slow-query
//! log and the request layer tree (DESIGN §11).
//!
//! One [`ServeObs`] lives in the server state. Every request —
//! including malformed ones — is recorded here: latency into the
//! endpoint's [`RollingWindow`] and its `serve.latency_us{endpoint=}`
//! snapshot histogram (handles pre-fetched at construction, so the
//! steady-state cost is a mutex + a few atomic adds). A request whose
//! head was read arrives as a [`RequestTrace`]: the spans of its
//! request scope, whose root gives the latency and whose layers add to
//! the [`LayerTree`]. Each also lands in the debug ring, enters the
//! slow log when it was over the latency objective, and — when a trace
//! stream is attached — emits one deterministic `type: "request"` line.
//!
//! Health: when objectives are configured, [`ServeObs::degraded`]
//! evaluates the all-endpoint window against them with multi-window
//! burn rates; the server flips `/healthz` to 503 while it holds.

use crate::breaker::RefreshHealth;
use crate::http::{json_body, Response, CONTENT_TYPE_JSON};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use telemetry::json::Fixed;
use telemetry::rolling::{BurnState, FAST_WINDOW_S, LATENCY_BOUNDS_US, SLOW_WINDOW_S};
use telemetry::{reqtrace, Counter, Histogram, LayerTree, RequestTrace, RollingWindow, SloSpec};

/// Every endpoint family the router can resolve a request to.
pub const ENDPOINTS: [&str; 10] = [
    "classify",
    "churn",
    "amplifiers",
    "coverage",
    "campaigns",
    "healthz",
    "metrics",
    "slo",
    "debug",
    "other",
];

/// Maps a request path to its endpoint family.
pub fn endpoint_of(path: &str) -> &'static str {
    match path {
        "/classify" => "classify",
        "/churn" => "churn",
        "/amplifiers" => "amplifiers",
        "/coverage" => "coverage",
        "/campaigns" => "campaigns",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/slo" => "slo",
        "/debug/requests" => "debug",
        _ => "other",
    }
}

/// The counters `name{label=value}` for a fixed list of values. Each is
/// fetched from the registry on its first increment, so a bucket shows
/// in `/metrics` once non-zero, and kept: no later increment formats a
/// key or takes the registry lock. Its owner lives under one handle.
#[derive(Debug)]
pub struct Labeled {
    name: &'static str,
    label: &'static str,
    buckets: Vec<(&'static str, OnceLock<Counter>)>,
}

impl Labeled {
    pub fn new(name: &'static str, label: &'static str, values: &[&'static str]) -> Self {
        Labeled {
            name,
            label,
            buckets: values.iter().map(|&v| (v, OnceLock::new())).collect(),
        }
    }

    /// Adds one to the bucket of `value`, which must be listed.
    pub fn inc(&self, value: &str) {
        let bucket = self.buckets.iter().find(|(v, _)| *v == value);
        let (value, counter) = bucket.unwrap_or_else(|| panic!("{}: no {value}", self.name));
        let labels = [(self.label, *value)];
        counter
            .get_or_init(|| telemetry::counter_with(self.name, &labels))
            .inc();
    }
}

/// One endpoint's latency state: rolling window + snapshot histogram.
struct EndpointLat {
    name: &'static str,
    window: Mutex<RollingWindow>,
    hist: Histogram,
}

/// Locks `m`, recovering it if a panicking holder poisoned the lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A ring of the [`DEBUG_REQUESTS`] most recent request traces: the
/// debug ring and the slow-query log.
#[derive(Default)]
struct RequestRing {
    inner: Mutex<VecDeque<Arc<RequestTrace>>>,
}

impl RequestRing {
    /// Keeps `t`, evicting the oldest when full.
    fn push(&self, t: &Arc<RequestTrace>) {
        let mut g = lock(&self.inner);
        if g.len() == DEBUG_REQUESTS {
            g.pop_front();
        }
        g.push_back(Arc::clone(t));
    }

    /// The most recent traces, newest first, at most `limit`.
    fn recent(&self, limit: usize) -> Vec<Arc<RequestTrace>> {
        let g = lock(&self.inner);
        g.iter().rev().take(limit).cloned().collect()
    }
}

/// Request traces the debug ring and the slow log each keep, and the
/// most `/debug/requests?limit=` returns: a larger client-supplied
/// limit is clamped to it.
pub const DEBUG_REQUESTS: usize = 256;

/// Slow-log threshold in microseconds when no p99 objective is set.
const SLOW_US: u64 = 100_000;

/// The serving path's observability hub.
pub struct ServeObs {
    /// Latency/error objectives; `None` disables burn evaluation.
    slo: Option<SloSpec>,
    /// Latency in microseconds above which a request is slow: the p99
    /// objective, or [`SLOW_US`] without one.
    slow_us: u64,
    started: Instant,
    ring: RequestRing,
    slow: RequestRing,
    /// Per-endpoint latency state, indexed like [`ENDPOINTS`].
    lat: Vec<EndpointLat>,
    /// All-endpoint window: what the SLO burn is evaluated against.
    total: Mutex<RollingWindow>,
    /// Every finished request's spans, summed by path.
    layers: Mutex<LayerTree>,
}

impl ServeObs {
    /// Builds the hub, pre-fetching every per-endpoint metric handle.
    pub fn new(slo: Option<SloSpec>) -> ServeObs {
        let lat = ENDPOINTS
            .iter()
            .map(|&name| EndpointLat {
                name,
                window: Mutex::new(RollingWindow::new()),
                hist: telemetry::histogram_with(
                    "serve.latency_us",
                    &[("endpoint", name)],
                    &LATENCY_BOUNDS_US,
                ),
            })
            .collect();
        ServeObs {
            slo,
            slow_us: slo.and_then(|s| s.p99_us).unwrap_or(SLOW_US),
            ring: RequestRing::default(),
            slow: RequestRing::default(),
            started: Instant::now(),
            lat,
            total: Mutex::new(RollingWindow::new()),
            layers: Mutex::default(),
        }
    }

    /// Whole seconds since the server started: the rolling windows'
    /// clock.
    fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    fn endpoint_index(endpoint: &str) -> usize {
        ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1)
    }

    /// Records one completed request into the endpoint's and the
    /// all-endpoint windows, and returns whether it was slow. `error`
    /// means a 5xx: client errors are the client's problem, not an SLO
    /// violation. A slow request is over objective when a p99 objective
    /// is set.
    pub fn record(&self, endpoint: &'static str, status: u16, lat_us: u64) -> bool {
        let now_s = self.now_s();
        let error = status >= 500;
        let slow = lat_us > self.slow_us;
        let over = slow && self.slo.is_some_and(|s| s.p99_us.is_some());
        let ep = &self.lat[Self::endpoint_index(endpoint)];
        ep.hist.observe(lat_us);
        lock(&ep.window).observe(now_s, lat_us, error, over);
        lock(&self.total).observe(now_s, lat_us, error, over);
        slow
    }

    /// Takes one answered request: its root span's wall time is its
    /// latency, its spans join the layer tree, and it goes to the trace
    /// stream, the debug ring and, when slow (counted under
    /// `serve.slow_requests`), the slow log.
    pub fn finish(&self, trace: RequestTrace) {
        // Nearest, not floor: a sum of these then matches the layer
        // tree's root, which sums nanoseconds.
        let lat_us = trace.wall_ns().saturating_add(500) / 1_000;
        let slow = self.record(trace.endpoint, trace.status, lat_us);
        lock(&self.layers).add(&trace.spans);
        reqtrace::emit(&trace);
        let trace = Arc::new(trace);
        self.ring.push(&trace);
        if slow {
            self.slow.push(&trace);
            telemetry::counter("serve.slow_requests").inc();
        }
    }

    /// The layer tree of every request finished so far.
    pub fn layers(&self) -> LayerTree {
        lock(&self.layers).clone()
    }

    /// Burn state of the all-endpoint window, when objectives are set.
    pub fn burn(&self) -> Option<BurnState> {
        let slo = self.slo.as_ref()?;
        Some(BurnState::evaluate(&lock(&self.total), slo, self.now_s()))
    }

    /// True while the fast+slow burn windows say the objective is
    /// breached — the server degrades `/healthz` to 503.
    pub fn degraded(&self) -> bool {
        self.burn().is_some_and(|b| b.breached())
    }

    /// The `/slo` response: objectives, burn state, refresh-breaker
    /// health, and per-endpoint rolling-window stats. Never cached.
    pub fn slo_response(&self, refresh: Option<RefreshHealth>) -> Response {
        let now_s = self.now_s();
        let burn = self.burn();
        let state = match &burn {
            None => "none",
            Some(b) if b.breached() => "breach",
            Some(_) => "ok",
        };
        let body = json_body(1024, |o| {
            o.field("query", "slo");
            o.field("objectives", self.slo.as_ref().map(SloSpec::render));
            o.field("state", state);
            o.field("uptime_s", now_s);
            match &burn {
                None => o.null("burn"),
                Some(b) => o.object("burn", |o| {
                    o.field("threshold", telemetry::rolling::BURN_THRESHOLD);
                    for (key, window_s, w) in [
                        ("fast", FAST_WINDOW_S, &b.fast),
                        ("slow", SLOW_WINDOW_S, &b.slow),
                    ] {
                        o.object(key, |o| {
                            o.field("window_s", window_s);
                            o.field("latency", Fixed(w.latency, 3));
                            o.field("error", Fixed(w.error, 3));
                            o.field("count", w.count);
                        });
                    }
                }),
            }
            match refresh {
                None => o.null("refresh"),
                Some(h) => o.object("refresh", |o| {
                    o.field("breaker", h.state.tag());
                    o.field("degraded", h.degraded());
                    o.field("consecutive_failures", h.consecutive_failures);
                    o.field("trips", h.trips);
                }),
            }
            o.field("window_s", FAST_WINDOW_S);
            o.object("endpoints", |o| {
                for ep in &self.lat {
                    let stats = lock(&ep.window).window(now_s, FAST_WINDOW_S);
                    if stats.count == 0 {
                        continue;
                    }
                    o.object(ep.name, |o| {
                        o.field("count", stats.count);
                        o.field("errors", stats.errors);
                        o.field("over", stats.over);
                        o.field("qps", Fixed(stats.count as f64 / FAST_WINDOW_S as f64, 2));
                        for (key, q) in [("p50_us", 0.50), ("p90_us", 0.90), ("p99_us", 0.99)] {
                            o.field(key, stats.quantile_us(q).round() as u64);
                        }
                        o.field("max_us", stats.max_us);
                    });
                }
            });
        });
        Response::ok_live(body, CONTENT_TYPE_JSON)
    }

    /// The `/debug/requests` response: the most recent completed
    /// traces (newest first) plus the slow-query feed. Never cached.
    /// The client-supplied `limit` is clamped to [`DEBUG_REQUESTS`].
    pub fn debug_response(&self, limit: usize) -> Response {
        let limit = limit.min(DEBUG_REQUESTS);
        let recent = self.ring.recent(limit);
        let slow = self.slow.recent(limit);
        let body = json_body(512 + recent.len() * 256, |o| {
            o.field("query", "debug_requests");
            o.field("returned", recent.len());
            o.field("slow_threshold_us", self.slow_us);
            for (key, traces) in [("requests", &recent), ("slow", &slow)] {
                o.array(key, |a| {
                    for t in traces {
                        a.object(|o| t.write_json(o, true));
                    }
                });
            }
        });
        Response::ok_live(body, CONTENT_TYPE_JSON)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Request `ordinal` on connection 1, answered under a scope whose
    /// layers are `(name, detail)`.
    fn traced(ordinal: u64, layers: &[(&'static str, &str)]) -> RequestTrace {
        let scope = telemetry::Telemetry::new().scope();
        {
            let _in = scope.enter();
            let _request = telemetry::span("request", 0);
            for &(name, detail) in layers {
                telemetry::span(name, 0).attr("detail", detail);
            }
        }
        RequestTrace {
            trace_id: telemetry::reqtrace::trace_id(1, ordinal),
            conn: 1,
            ordinal,
            target: "/classify?ip=1.2.3.4".to_string(),
            endpoint: "classify",
            status: 200,
            bytes: 128,
            generation: "weekly:3".to_string(),
            spans: scope.finish(),
        }
    }

    /// A request of `ordinal` whose root span took `wall_ns`.
    fn timed(ordinal: u64, wall_ns: u64) -> RequestTrace {
        let mut trace = traced(ordinal, &[]);
        trace.spans[0].wall_ns = wall_ns;
        trace
    }

    fn obs_with(slo: Option<&str>) -> ServeObs {
        ServeObs::new(slo.map(|s| SloSpec::parse(s).unwrap()))
    }

    #[test]
    fn slo_state_transitions_none_ok_breach() {
        let none = obs_with(None);
        assert!(!none.degraded());
        let body = String::from_utf8(none.slo_response(None).body).unwrap();
        assert!(body.contains("\"state\":\"none\""), "{body}");
        assert!(body.contains("\"refresh\":null"), "{body}");

        let strict = obs_with(Some("p99=0us"));
        for _ in 0..30 {
            strict.record("classify", 200, 500);
        }
        assert!(strict.degraded(), "every request over a 0us objective");
        let body = String::from_utf8(strict.slo_response(None).body).unwrap();
        assert!(body.contains("\"state\":\"breach\""), "{body}");
        assert!(body.contains("\"classify\""), "{body}");

        let lax = obs_with(Some("p99=1s,err=50%"));
        for _ in 0..30 {
            lax.record("classify", 200, 500);
        }
        assert!(!lax.degraded());
        let body = String::from_utf8(lax.slo_response(None).body).unwrap();
        assert!(body.contains("\"state\":\"ok\""), "{body}");
    }

    #[test]
    fn slo_response_reports_breaker_health() {
        let mut breaker = crate::breaker::RefreshBreaker::new(crate::breaker::BreakerOptions {
            max_backoff_ticks: 4,
        });
        assert!(!breaker.on_failure() && !breaker.on_failure());
        assert!(breaker.on_failure());
        let obs = obs_with(None);
        let body = String::from_utf8(obs.slo_response(Some(breaker.health())).body).unwrap();
        assert!(body.contains("\"breaker\":\"open\""), "{body}");
        assert!(body.contains("\"degraded\":true"), "{body}");
        assert!(body.contains("\"trips\":1"), "{body}");
    }

    #[test]
    fn debug_response_carries_traces_and_slow_feed() {
        let obs = obs_with(Some("p99=0us"));
        obs.finish(timed(8, 1_000));
        obs.finish(traced(9, &[("probe", "weekly")]));
        let body = String::from_utf8(obs.debug_response(16).body).unwrap();
        assert!(body.contains("\"returned\":2"), "{body}");
        assert!(body.contains("\"name\":\"probe\""), "{body}");
        assert!(body.contains("\"detail\":\"weekly\""), "{body}");
        assert!(body.contains("\"generation\":\"weekly:3\""), "{body}");
        // Over a 0us objective: the 1 ms trace shows in the slow feed.
        assert!(body.contains("\"slow\":[{\"trace_id\""), "{body}");
    }

    #[test]
    fn ring_bounds_and_orders_newest_first() {
        let ring = RequestRing::default();
        let n = DEBUG_REQUESTS as u64 + 2;
        for i in 0..n {
            ring.push(&Arc::new(traced(i, &[])));
        }
        let recent = ring.recent(usize::MAX);
        assert_eq!(recent.len(), DEBUG_REQUESTS);
        assert_eq!(recent[0].ordinal, n - 1);
        assert_eq!(recent[DEBUG_REQUESTS - 1].ordinal, 2);
    }

    /// The slow log holds exactly the requests `record` counts as over
    /// the p99 objective: strictly above it, in latency rounded to the
    /// nearest microsecond. Without an objective the bar is 100 ms.
    #[test]
    fn slow_log_filters_by_threshold() {
        let slow_ordinals = |obs: &ServeObs| -> Vec<u64> {
            obs.slow
                .recent(DEBUG_REQUESTS)
                .iter()
                .map(|t| t.ordinal)
                .collect()
        };
        let obs = obs_with(Some("p99=2ms"));
        // 1,999.6 us and 2,000.4 us round to the objective itself; 2,000.5
        // us rounds past it.
        for (ordinal, wall_ns) in [
            (0, 1_999_600),
            (1, 2_000_400),
            (2, 2_000_500),
            (3, 9_000_000),
        ] {
            obs.finish(timed(ordinal, wall_ns));
        }
        assert_eq!(slow_ordinals(&obs), [3, 2]);
        let stats = lock(&obs.total).window(obs.now_s(), FAST_WINDOW_S);
        assert_eq!((stats.count, stats.over), (4, 2));
        let body = String::from_utf8(obs.debug_response(1).body).unwrap();
        assert!(body.contains("\"slow_threshold_us\":2000,"), "{body}");

        let none = obs_with(None);
        for (ordinal, wall_ns) in [(0, 100_000_400), (1, 100_000_500)] {
            none.finish(timed(ordinal, wall_ns));
        }
        assert_eq!(slow_ordinals(&none), [1]);
        let stats = lock(&none.total).window(none.now_s(), FAST_WINDOW_S);
        assert_eq!(stats.over, 0, "no objective, nothing over it");
        // An objective without a latency target keeps the 100 ms bar.
        assert_eq!(obs_with(Some("err=1%")).slow_us, SLOW_US);
    }

    #[test]
    fn every_finished_request_is_timed_and_kept() {
        let tel = telemetry::Telemetry::new();
        let _in = tel.enter();
        let obs = obs_with(None);
        let (mut root_ns, mut latency_us) = (0, 0);
        for ordinal in 0..4 {
            let trace = traced(ordinal, &[("cache", "miss")]);
            root_ns += trace.wall_ns();
            latency_us += (trace.wall_ns() + 500) / 1_000;
            obs.finish(trace);
        }
        let body = String::from_utf8(obs.debug_response(16).body).unwrap();
        assert!(body.contains("\"returned\":4"), "{body}");
        let latency = tel.registry().snapshot();
        let latency = latency
            .histograms
            .iter()
            .find(|(k, _)| k == "serve.latency_us{endpoint=classify}")
            .map(|(_, h)| (h.count, h.sum));
        assert_eq!(latency, Some((4, latency_us)));
        assert_eq!(obs.layers().total_us(), root_ns / 1_000);
    }

    #[test]
    fn debug_limit_is_clamped() {
        let obs = obs_with(None);
        for ordinal in 0..(DEBUG_REQUESTS as u64 + 44) {
            obs.finish(traced(ordinal, &[]));
        }
        let body = String::from_utf8(obs.debug_response(usize::MAX).body).unwrap();
        let expected = format!("\"returned\":{DEBUG_REQUESTS}");
        assert!(body.contains(&expected), "{body}");
    }

    #[test]
    fn endpoint_mapping_covers_router_paths() {
        assert_eq!(endpoint_of("/classify"), "classify");
        assert_eq!(endpoint_of("/debug/requests"), "debug");
        assert_eq!(endpoint_of("/slo"), "slo");
        assert_eq!(endpoint_of("/nope"), "other");
        for name in ENDPOINTS {
            assert!(ServeObs::endpoint_index(name) < ENDPOINTS.len());
        }
    }
}
