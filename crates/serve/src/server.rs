//! The daemon: a pool of worker threads, response cache, engine
//! refresh, and graceful drain.
//!
//! Concurrency model: idle workers block in `accept` on one listener,
//! and the pool grows to the peak number of live connections. One
//! [`QueryEngine`] lives behind a swap lock as an `Arc`; a connection
//! answers from the `Arc` it cloned even if the controller thread's
//! refresh swaps in a newer one mid-flight — a commit becomes visible
//! between requests, never inside one. Shutdown (SIGINT/SIGTERM or
//! [`RunningServer::stop`]) wakes the idle workers, joins the busy ones
//! as their connections end, and flushes a final telemetry snapshot.
//!
//! Overload hardening (DESIGN §13): an [`Admission`] gate in front of
//! the router sheds excess load cost-aware with uniform `429` bodies,
//! per-request [`Deadline`]s bound slow probes with
//! `503 deadline_exceeded`, and a [`RefreshBreaker`] keeps the daemon
//! serving the last good generation — reported as degraded in
//! `/healthz` and `/slo` — while the store is unreadable. All of it
//! defaults to off/closed, leaving default-configuration serving
//! byte-identical.

use crate::admission::{deadline_response, Admission, AdmissionOptions, Deadline};
use crate::breaker::{BreakerOptions, RefreshBreaker};
use crate::cache::LruCache;
use crate::engine::QueryEngine;
use crate::http::{
    header_value, request_target, split_target, wire_status, Response, CONTENT_TYPE_JSON,
};
use crate::obs::{endpoint_of, Labeled, ServeObs};
use crate::signal;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};
use telemetry::{reqtrace, LayerTree, RequestTrace, SloSpec};

/// Requests larger than this are answered `431`; real queries are one
/// short GET line plus a handful of headers.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Store root: a bundle directory of campaigns or a single store.
    pub store: PathBuf,
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Response-cache capacity in entries; 0 disables caching.
    pub cache_cap: usize,
    /// Manifest re-check interval; 0 disables background refresh.
    pub refresh_ms: u64,
    /// Where to write the final telemetry snapshot on shutdown.
    pub metrics: Option<PathBuf>,
    /// Latency/error objectives: `/healthz` degrades while they burn,
    /// and the p99 objective is the slow log's threshold. `None`
    /// disables burn evaluation.
    pub slo: Option<SloSpec>,
    /// Admission control and per-request deadlines (both default off).
    pub admission: AdmissionOptions,
    /// Refresh circuit-breaker tuning.
    pub breaker: BreakerOptions,
    /// How long a connection may take end-to-end before being
    /// dropped, so a stalled client cannot wedge the drain phase.
    pub conn_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            store: PathBuf::from("store"),
            addr: "127.0.0.1:0".to_string(),
            cache_cap: 256,
            refresh_ms: 1_000,
            metrics: None,
            slo: None,
            admission: AdmissionOptions::default(),
            breaker: BreakerOptions::default(),
            conn_timeout_ms: 5_000,
        }
    }
}

/// What the daemon did, reported after shutdown.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Connections answered (including error responses).
    pub requests: u64,
    /// Engine swaps performed by the background refresh.
    pub refreshes: u64,
    /// The spans of every request whose head was read, summed by path.
    pub layers: LayerTree,
}

/// State shared between the controller, the workers, and the
/// [`RunningServer`] handle.
struct ServerState {
    engine: RwLock<Arc<QueryEngine>>,
    cache: Mutex<LruCache>,
    obs: ServeObs,
    admission: Admission,
    breaker: Mutex<RefreshBreaker>,
    /// Store root, for the live `/admin/scrub` integrity pass.
    store: PathBuf,
    /// The bound socket; idle workers block in its `accept`.
    listener: TcpListener,
    /// How long one connection may take, read to write.
    conn_timeout: Duration,
    inflight: AtomicUsize,
    /// Workers blocked in `accept`.
    idle: AtomicUsize,
    conns: AtomicU64,
    /// `serve.conns{outcome}`: how each accepted connection ended.
    outcomes: Labeled,
    requests: AtomicU64,
    refreshes: AtomicU64,
    stop: AtomicBool,
}

impl ServerState {
    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::triggered()
    }

    // The locks recover from poisoning: a worker that panics must not
    // take the shared state down with it.
    fn breaker(&self) -> MutexGuard<'_, RefreshBreaker> {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cache(&self) -> MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current engine generation.
    fn engine(&self) -> Arc<QueryEngine> {
        self.engine
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Opens the store, binds and assembles shared state: the single
/// place the options that shape it are interpreted.
fn build_state(opts: &ServeOptions) -> io::Result<Arc<ServerState>> {
    let engine = QueryEngine::open(&opts.store)?;
    let listener = TcpListener::bind(opts.addr.as_str())
        .map_err(|e| io::Error::new(e.kind(), format!("cannot bind {}: {e}", opts.addr)))?;
    let cache = if opts.cache_cap == 0 {
        LruCache::disabled()
    } else {
        LruCache::new(opts.cache_cap).map_err(io::Error::other)?
    };
    Ok(Arc::new(ServerState {
        engine: RwLock::new(Arc::new(engine)),
        cache: Mutex::new(cache),
        obs: ServeObs::new(opts.slo),
        admission: Admission::new(opts.admission.clone()),
        breaker: Mutex::new(RefreshBreaker::new(opts.breaker.clone())),
        store: opts.store.clone(),
        listener,
        conn_timeout: Duration::from_millis(opts.conn_timeout_ms.max(1)),
        inflight: AtomicUsize::new(0),
        idle: AtomicUsize::new(0),
        conns: AtomicU64::new(0),
        outcomes: Labeled::new(
            "serve.conns",
            "outcome",
            &["answered", "closed_early", "timed_out"],
        ),
        requests: AtomicU64::new(0),
        refreshes: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    }))
}

/// Runs the daemon until shutdown is requested (SIGINT/SIGTERM), then
/// drains and returns the summary. This is what `repro serve` calls.
pub fn run(opts: &ServeOptions) -> io::Result<ServeSummary> {
    let server = RunningServer::start(opts)?;
    println!("listening on http://{}", server.addr());
    io::stdout().flush()?;
    server.join()
}

/// A daemon started on a background thread: [`run`] waits for it,
/// `--selftest`, benches and integration tests stop it.
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<io::Result<ServeSummary>>>,
}

impl RunningServer {
    /// Opens the store and binds the address (errors surface here,
    /// synchronously), then starts the controller thread, which starts
    /// the worker pool.
    pub fn start(opts: &ServeOptions) -> io::Result<RunningServer> {
        let state = build_state(opts)?;
        let addr = state.listener.local_addr()?;
        let thread_state = Arc::clone(&state);
        let opts = opts.clone();
        let tel = telemetry::current();
        let thread = thread::Builder::new()
            .name("serve".to_string())
            .spawn(move || {
                let _in = tel.enter();
                serve_loop(&thread_state, &opts)
            })?;
        Ok(RunningServer {
            addr,
            state,
            thread: Some(thread),
        })
    }

    /// The address the daemon actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown, waits for the drain, and returns the
    /// summary.
    pub fn stop(self) -> io::Result<ServeSummary> {
        self.state.stop.store(true, Ordering::SeqCst);
        self.join()
    }

    /// Waits for the controller to end and returns the summary.
    fn join(mut self) -> io::Result<ServeSummary> {
        // Infallible: `join` consumes `self`, and only `join`/`Drop`
        // ever take the handle.
        let thread = self.thread.take().expect("join called once");
        thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        // Stop the background thread even if `stop()` was never
        // called (e.g. a test panicked).
        if let Some(thread) = self.thread.take() {
            self.state.stop.store(true, Ordering::SeqCst);
            let _ = thread.join();
        }
    }
}

/// The controller: starts the worker pool, refreshes the engine on a
/// timer until shutdown, then wakes the idle workers, waits for the
/// busy ones to finish their connections, and flushes metrics.
fn serve_loop(state: &ServerState, opts: &ServeOptions) -> io::Result<ServeSummary> {
    let refresh = Duration::from_millis(opts.refresh_ms);
    thread::scope(|s| {
        spawn_worker(s, state)?;
        let mut last_refresh = Instant::now();
        while !state.stop_requested() {
            thread::sleep(Duration::from_millis(25));
            if opts.refresh_ms > 0 && last_refresh.elapsed() >= refresh {
                last_refresh = Instant::now();
                refresh_engine(state);
            }
        }
        // Raised before the idle count is read: a worker counts itself
        // idle before it checks the flag, so each one either sees the
        // flag or is counted here and woken by a connection.
        state.stop.store(true, Ordering::SeqCst);
        for _ in 0..state.idle.load(Ordering::SeqCst) {
            let _ = TcpStream::connect(state.listener.local_addr()?);
        }
        io::Result::Ok(())
    })?;
    let summary = ServeSummary {
        requests: state.requests.load(Ordering::SeqCst),
        refreshes: state.refreshes.load(Ordering::SeqCst),
        layers: state.obs.layers(),
    };
    telemetry::gauge("serve.shutdown.requests").set(summary.requests as f64);
    if let Some(path) = &opts.metrics {
        std::fs::write(path, telemetry::snapshot().to_json())?;
    }
    Ok(summary)
}

/// Starts one pool worker under the daemon's telemetry handle. It
/// blocks in `accept`, answers the connection, and goes back, until
/// shutdown. A worker that takes a connection while no other worker is
/// idle first starts one more, so the pool grows to the peak number of
/// live connections and a stalled client never holds up a live one.
fn spawn_worker<'s>(s: &'s Scope<'s, '_>, state: &'s ServerState) -> io::Result<()> {
    let tel = telemetry::current();
    let worker = move || {
        let _in = tel.enter();
        let inflight_gauge = telemetry::gauge("serve.inflight");
        let accepted_conns = telemetry::counter("serve.conns.accepted");
        loop {
            state.idle.fetch_add(1, Ordering::SeqCst);
            let accepted = (!state.stop_requested()).then(|| state.listener.accept());
            let was_last = state.idle.fetch_sub(1, Ordering::SeqCst) == 1;
            // After shutdown, a connection is the controller's wake-up
            // (or a client too late): it is closed and counts nothing.
            if state.stop_requested() {
                return;
            }
            let Some(Ok((stream, _peer))) = accepted else {
                continue;
            };
            if was_last {
                let _ = spawn_worker(s, state);
            }
            inflight_gauge.set((state.inflight.fetch_add(1, Ordering::SeqCst) + 1) as f64);
            // The connection ordinal seeds the deterministic trace id,
            // so it is assigned at accept, in accept order.
            let conn = state.conns.fetch_add(1, Ordering::SeqCst);
            accepted_conns.inc();
            // Every accepted connection ends in exactly one counted
            // outcome; the buckets exist once non-zero.
            let outcome = handle_connection(state, stream, conn);
            state.outcomes.inc(outcome);
            inflight_gauge.set((state.inflight.fetch_sub(1, Ordering::SeqCst) - 1) as f64);
        }
    };
    thread::Builder::new()
        .name("serve-worker".into())
        .spawn_scoped(s, worker)
        .map(drop)
}

/// Re-reads manifests; on change, swaps the engine `Arc` and clears
/// the cache. In-flight connections keep their old `Arc` to the end.
fn refresh_engine(state: &ServerState) {
    // The breaker counts ticks, not wall time: while open, each
    // skipped interval decrements the backoff until a half-open probe
    // is allowed through.
    if !state.breaker().allow_tick() {
        return;
    }
    let current = state.engine();
    match current.refresh() {
        Ok((_, false)) => state.breaker().on_success(),
        Ok((next, true)) => {
            state.breaker().on_success();
            *state.engine.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
            state.cache().clear();
            state.refreshes.fetch_add(1, Ordering::SeqCst);
            telemetry::counter("serve.engine.swaps").inc();
        }
        Err(e) => {
            // Keep serving the last good generation; the writer may be
            // mid-commit.
            telemetry::counter("serve.engine.refresh_errors").inc();
            if state.breaker().on_failure() {
                eprintln!("serve: refresh breaker tripped (serving previous generation): {e}");
            } else {
                eprintln!("serve: refresh failed (serving previous generation): {e}");
            }
        }
    }
}

/// Reads one request, answers it ([`serve_request`]), and closes.
/// Returns the connection's `serve.conns{outcome=…}` bucket: `answered`
/// once a response (error responses and sheds included) was handed to
/// the socket, `closed_early` if the client left before a complete
/// head, `timed_out` if its `conn_timeout` ran out first.
fn handle_connection(state: &ServerState, mut stream: TcpStream, conn: u64) -> &'static str {
    let deadline = Instant::now() + state.conn_timeout;
    let head = match read_head(&mut stream, deadline) {
        HeadRead::Head(head) => head,
        // Early EOF or a transport error: nothing to answer.
        HeadRead::Closed => return "closed_early",
        HeadRead::TimedOut => return "timed_out",
        unreadable => {
            state.requests.fetch_add(1, Ordering::SeqCst);
            let resp = if unreadable == HeadRead::TooLarge {
                state.admission.shed.inc("oversized");
                Response::error(431, "request head exceeds 8192 bytes")
            } else {
                Response::error(400, "request head is not valid UTF-8")
            };
            state.obs.record("other", resp.status, 0);
            return send(&mut stream, &resp.to_wire(), deadline);
        }
    };
    let ordinal = state.requests.fetch_add(1, Ordering::SeqCst);
    let wire = serve_request(state, &head, conn, ordinal);
    send(&mut stream, &wire, deadline)
}

/// Writes a response and half-closes: `answered`, or `timed_out` if
/// `deadline` passed before the write finished.
fn send(stream: &mut TcpStream, wire: &[u8], deadline: Instant) -> &'static str {
    let left = deadline.saturating_duration_since(Instant::now());
    let _ = stream.set_write_timeout(Some(left.max(Duration::from_millis(1))));
    let sent = stream.write_all(wire);
    let _ = stream.shutdown(Shutdown::Write);
    match sent {
        Err(e) if is_timeout(&e) => "timed_out",
        _ => "answered",
    }
}

/// Whether a socket error is its read or write timeout expiring.
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Answers one request head under a request scope of its own: the
/// scope's root span is the request, the layers' spans nest under it,
/// and the observability hub takes what they recorded.
fn serve_request(state: &ServerState, head: &str, conn: u64, ordinal: u64) -> Arc<Vec<u8>> {
    let scope = telemetry::current().scope();
    let (target, endpoint, (generation, wire)) = {
        let _in = scope.enter();
        let _request = telemetry::span("request", 0);
        // The request line is parsed once, before admission.
        match request_target(head) {
            Ok(target) => {
                let path = target.split_once('?').map_or(target, |(path, _)| path);
                let endpoint = endpoint_of(path);
                (
                    target,
                    endpoint,
                    answer_get(state, head, target, path, endpoint),
                )
            }
            Err(resp) => ("", "other", (String::new(), Arc::new(resp.to_wire()))),
        }
    };
    state.obs.finish(RequestTrace {
        trace_id: reqtrace::trace_id(conn, ordinal),
        conn,
        ordinal,
        target: target.to_string(),
        endpoint,
        status: wire_status(&wire),
        bytes: wire.len() as u64,
        generation,
        spans: scope.finish(),
    });
    wire
}

/// Gates a GET through admission when the gate is on, then routes it.
/// Live endpoints (`/metrics`, `/slo`, `/debug/requests`,
/// `/admin/scrub`, and `/healthz` while degraded) are answered by the
/// daemon itself; everything else is a pure function of the store and
/// goes through the cache to the engine. Returns the engine generation
/// answered from (empty when none was asked) and the wire bytes.
fn answer_get(
    state: &ServerState,
    head: &str,
    target: &str,
    path: &str,
    endpoint: &'static str,
) -> (String, Arc<Vec<u8>>) {
    if state.admission.enabled() {
        let _admission = telemetry::span("admission", 0);
        if let Some(resp) = state.admission.admit(endpoint, &state.inflight) {
            return (String::new(), Arc::new(resp.to_wire()));
        }
    }
    let live = match path {
        "/metrics" => metrics_response(head, target),
        "/slo" => state.obs.slo_response(Some(state.breaker().health())),
        "/debug/requests" => {
            let (_, params) = split_target(target);
            let limit = params
                .iter()
                .find(|(k, _)| *k == "limit")
                .and_then(|&(_, v)| v.parse::<usize>().ok())
                .unwrap_or(32);
            state.obs.debug_response(limit)
        }
        "/admin/scrub" => scrub_response(state),
        "/healthz" if state.obs.degraded() => {
            Response::error(503, "slo burn-rate breach; see /slo")
        }
        // Refresh is broken but the last good generation is still
        // valid, so probes stay green; the body says degraded.
        "/healthz" if state.breaker().degraded() => degraded_healthz(state),
        _ => return answer(state, target, endpoint, state.admission.deadline()),
    };
    (String::new(), Arc::new(live.to_wire()))
}

/// `/healthz` while the refresh breaker is tripped: a `200` (the data
/// served is stale but valid) whose body flags the degradation.
fn degraded_healthz(state: &ServerState) -> Response {
    let health = state.breaker().health();
    let engine = state.engine();
    let body = crate::http::json_body(96, |o| {
        o.field("ok", true);
        o.field("degraded", true);
        o.field("breaker", health.state.tag());
        o.field("generations", engine.generation_tag());
    });
    Response::ok_live(body, CONTENT_TYPE_JSON)
}

/// `/admin/scrub`: a live integrity pass (CRC + manifest cross-check)
/// over the store the daemon is serving from.
fn scrub_response(state: &ServerState) -> Response {
    match scanstore::scrub_root(&state.store) {
        Ok(reports) => {
            let body = crate::http::json_body(256, |o| {
                o.field("query", "scrub");
                o.field("healthy", reports.iter().all(|(_, r)| r.healthy()));
                o.object("campaigns", |o| {
                    for (name, report) in &reports {
                        o.object(name, |o| report.write_json(o));
                    }
                });
            });
            Response::ok_live(body, CONTENT_TYPE_JSON)
        }
        Err(e) => Response::error(500, &format!("scrub failed: {e}")),
    }
}

/// The `/metrics` response: Prometheus text exposition when the
/// client asks for it (`?format=prometheus` or `Accept: text/plain`),
/// the JSON snapshot otherwise.
fn metrics_response(head: &str, target: &str) -> Response {
    let (_, params) = split_target(target);
    let format = params.iter().find(|(k, _)| *k == "format").map(|&(_, v)| v);
    let accept = header_value(head, "accept").unwrap_or("");
    let prometheus = matches!(format, Some("prometheus" | "text"))
        || (format.is_none() && accept.contains("text/plain"));
    let snap = telemetry::snapshot();
    if prometheus {
        Response::ok_live(
            telemetry::prometheus::render(&snap),
            telemetry::prometheus::CONTENT_TYPE,
        )
    } else {
        Response::ok_live(snap.to_json(), CONTENT_TYPE_JSON)
    }
}

/// Computes (or recalls) the wire bytes for one request target, and
/// the engine generation they come from.
fn answer(
    state: &ServerState,
    target: &str,
    endpoint: &'static str,
    deadline: Deadline,
) -> (String, Arc<Vec<u8>>) {
    // Clone the Arc once: this request is now pinned to one engine
    // generation no matter what the refresh timer does.
    let engine = state.engine();
    if deadline.expired() {
        let resp = deadline_response(&engine.deadlines, endpoint);
        return (String::new(), Arc::new(resp.to_wire()));
    }
    let tag = engine.generation_tag();
    // The tag stays in the key although a refresh clears the cache: a
    // request pinned to the old engine can finish after the clear, and
    // only its old tag keeps the body it `put`s from answering requests
    // of the new generation.
    let key = format!("{tag}|{target}");
    let hit = {
        let mut span = telemetry::span("cache", 0);
        let mut cache = state.cache();
        let hit = cache
            .is_enabled()
            .then(|| cache.get(&key, endpoint))
            .flatten();
        span.attr("detail", if hit.is_some() { "hit" } else { "miss" });
        hit
    };
    let wire = hit.unwrap_or_else(|| {
        let response = engine.handle_with(target, deadline);
        let wire = Arc::new(response.to_wire());
        if response.cacheable {
            let mut cache = state.cache();
            if cache.is_enabled() {
                cache.put(key, endpoint, Arc::clone(&wire));
            }
        }
        wire
    });
    (tag.to_string(), wire)
}

/// How reading a request head ended.
#[derive(Debug, PartialEq, Eq)]
enum HeadRead {
    /// A complete head, valid UTF-8.
    Head(String),
    /// Early EOF or a transport error; nothing to answer.
    Closed,
    /// The connection's time ran out first; nothing to answer.
    TimedOut,
    /// The head exceeded [`MAX_HEAD_BYTES`]; answered `431`.
    TooLarge,
    /// The head was complete but not valid UTF-8; answered `400`.
    BadUtf8,
}

/// Reads until the end of the request head (`\r\n\r\n`), or until
/// `deadline`.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> HeadRead {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return HeadRead::TimedOut;
        }
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return HeadRead::TimedOut,
            Err(_) => return HeadRead::Closed,
        };
        if n == 0 {
            return HeadRead::Closed;
        }
        if let Some(done) = push_head(&mut head, &buf[..n]) {
            return done;
        }
    }
}

/// Appends one read's bytes to `head`; `Some` once the head is complete
/// or over the limit.
fn push_head(head: &mut Vec<u8>, chunk: &[u8]) -> Option<HeadRead> {
    head.extend_from_slice(chunk);
    // A terminator this read completed starts at most three bytes before
    // the chunk. Rescanning from the top instead is quadratic in a head
    // dribbled a byte at a time: 33 M comparisons before the 431.
    let from = head.len().saturating_sub(chunk.len() + 3);
    if head[from..].windows(4).any(|w| w == b"\r\n\r\n") {
        return Some(match String::from_utf8(std::mem::take(head)) {
            Ok(s) => HeadRead::Head(s),
            Err(_) => HeadRead::BadUtf8,
        });
    }
    (head.len() > MAX_HEAD_BYTES).then_some(HeadRead::TooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    const REQUEST: &[u8] = b"GET /classify?ip=192.0.2.1 HTTP/1.1\r\nHost: t\r\n\r\n";

    fn feed<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Option<HeadRead> {
        let mut head = Vec::new();
        let mut chunks = chunks.into_iter();
        let done = chunks.find_map(|chunk| push_head(&mut head, chunk));
        assert!(chunks.next().is_none(), "head ended before its last chunk");
        done
    }

    #[test]
    fn a_split_terminator_parses_like_a_single_write() {
        let whole = Some(HeadRead::Head(String::from_utf8(REQUEST.to_vec()).unwrap()));
        assert_eq!(feed([REQUEST]), whole);
        // The terminator is the last four bytes: a read boundary right
        // before it, and after one, two and three of its bytes.
        for cut in REQUEST.len() - 4..REQUEST.len() {
            let (a, b) = REQUEST.split_at(cut);
            assert_eq!(feed([a, b]), whole, "cut at {cut}");
        }
        assert_eq!(feed(REQUEST.chunks(1)), whole, "a byte at a time");
        assert_eq!(feed(REQUEST[..REQUEST.len() - 1].chunks(1)), None);

        // Seeded heads, UTF-8 or not, terminated or not, up to twice the
        // limit. A terminated one ends within a byte of the limit: past
        // that, a read boundary decides between 431 and an answer.
        const BYTES: &[u8] = b"\r\n\r\nGET /classify?ip=192.0.2.1 HTTP/1.1 Host: \xc3\xa9\xff";
        let mut rng = SmallRng::seed_from_u64(39);
        let mut seen = std::collections::HashSet::new();
        for case in 0..300 {
            let n = BYTES.len() - if rng.gen_bool(0.5) { 3 } else { 0 };
            let len = std::cmp::max(rng.gen_range(16..400), rng.gen_range(0..3) * MAX_HEAD_BYTES);
            let mut input = Vec::new();
            while input.len() < len {
                input.push(BYTES[rng.gen_range(0..n)]);
                if input.ends_with(b"\r\n\r\n") {
                    input.pop();
                }
            }
            if rng.gen_bool(0.5) {
                input.truncate(MAX_HEAD_BYTES - 3);
                // After a "\r\n", half a terminator ends the head.
                let half = if input.ends_with(b"\r\n") { 2 } else { 0 };
                input.extend_from_slice(&b"\r\n\r\n"[half..]);
            }
            let mut cuts = vec![0, input.len()];
            cuts.extend((0..4).map(|_| rng.gen_range(1..input.len())));
            cuts.sort_unstable();
            cuts.dedup();
            let mut head = Vec::new();
            let mut pieces = cuts.windows(2).map(|w| &input[w[0]..w[1]]);
            let split = pieces.find_map(|piece| push_head(&mut head, piece));
            let whole = push_head(&mut Vec::new(), &input);
            assert_eq!(split, whole, "case {case}, cuts at {cuts:?}");
            seen.insert(whole.as_ref().map(std::mem::discriminant));
        }
        assert_eq!(seen.len(), 4, "outcomes seen: {seen:?}");
    }

    #[test]
    fn the_head_limit_still_answers_431() {
        // Dribbled, never terminated: the shape that used to go quadratic.
        let dribble = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(feed(dribble.chunks(1)), Some(HeadRead::TooLarge));
        assert_eq!(feed(dribble[..MAX_HEAD_BYTES].chunks(1)), None);
        // A terminator that arrives with the byte that crosses the limit
        // still wins, as it did when the whole buffer was rescanned.
        let mut long = vec![b'a'; MAX_HEAD_BYTES - 2];
        long.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(feed(long.chunks(1024)), Some(HeadRead::Head(_))));
        assert_eq!(feed([&b"\xff\r\n\r\n"[..]]), Some(HeadRead::BadUtf8));
    }
}
