//! Spans, events, verbosity, and the JSON-lines trace exporter.
//!
//! The trace stream is designed to be byte-stable across seeded runs:
//! every line carries only deterministic fields (sequence number, span
//! id/parent, names, **sim** times, caller attributes). Wall-clock
//! durations are measured but surface only as `span.<name>.wall_us`
//! counters in the metrics snapshot and in the [`SpanRecord`]s a
//! [`Telemetry::scope`] hands back, never in the trace.

use crate::handle::{with_current, with_spans, Telemetry};
use crate::json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------- verbosity

/// Event severity, also the verbosity threshold for stderr logging.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-loss conditions. Always printed.
    Error = 0,
    /// Suspicious but survivable conditions.
    Warn = 1,
    /// Progress and campaign milestones (the old `eprintln!` lines).
    Info = 2,
    /// Per-phase detail.
    Debug = 3,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Default: warnings and errors only, so library consumers (tests,
/// benches) stay quiet. The `repro` CLI raises this to `Info`. One per
/// process, as stderr is.
static VERBOSITY: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Sets the stderr verbosity threshold.
pub fn set_verbosity(level: Level) {
    VERBOSITY.store(level as u8, Ordering::Relaxed);
}

/// The current stderr verbosity threshold.
pub fn verbosity() -> Level {
    match VERBOSITY.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// True if an event at `level` would be emitted anywhere (stderr or
/// trace) — lets callers skip building attributes entirely.
pub fn enabled(level: Level) -> bool {
    level <= verbosity() || trace_enabled()
}

// -------------------------------------------------------------- trace sink

/// Attaches a JSON-lines trace writer to this thread's handle,
/// replacing any previous one. Resets the line sequence and span-id
/// counters, so traces of identical seeded workloads are
/// byte-identical.
pub fn attach_trace(w: Box<dyn Write + Send>) {
    with_current(|t| {
        t.out().trace = Some(Sink { w, seq: 0 });
        t.0.next_id.store(1, Ordering::SeqCst);
        t.0.trace_on.store(true, Ordering::SeqCst);
    });
}

/// Detaches the trace writer, flushing it first. A no-op without one.
pub fn detach_trace() -> io::Result<()> {
    let sink = with_current(|t| {
        let mut out = t.out();
        t.0.trace_on.store(false, Ordering::SeqCst);
        out.trace.take()
    });
    match sink {
        Some(mut s) => s.w.flush(),
        None => Ok(()),
    }
}

/// True while a trace writer is attached to this thread's handle (or
/// to the parent of a child handle).
#[inline]
pub fn trace_enabled() -> bool {
    with_current(|t| t.0.trace_on.load(Ordering::Relaxed))
}

/// Emits one trace line. `build` writes the line's members from
/// `type` on; `seq` goes first when the line reaches the stream — now,
/// or at replay on a child handle ([`Telemetry::child`]).
pub(crate) fn emit_line(build: impl FnOnce(&mut json::Object<'_>)) {
    let body = json::to_string(build);
    with_current(|t| t.line(body));
}

/// An attached trace writer and the number of lines written to it.
pub(crate) struct Sink {
    w: Box<dyn Write + Send>,
    seq: u64,
}

impl Sink {
    /// Writes one line, giving it the next `seq`.
    pub(crate) fn write(&mut self, body: &str) {
        let mut line = json::to_string(|o| {
            o.field("seq", self.seq);
            o.merge(body);
        });
        line.push('\n');
        self.seq += 1;
        let _ = self.w.write_all(line.as_bytes());
    }
}

// ------------------------------------------------------------- attributes

/// An attribute value on an event or span.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values render as JSON `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl json::Encode for Value {
    fn encode(&self, out: &mut String) {
        match self {
            Value::U64(v) => v.encode(out),
            Value::I64(v) => v.encode(out),
            Value::F64(v) => v.encode(out),
            Value::Str(s) => s.encode(out),
            Value::Bool(b) => b.encode(out),
        }
    }
}

impl Value {
    fn push_plain(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => out.push_str(s),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

fn attrs_json(o: &mut json::Object<'_>, attrs: &[(impl AsRef<str>, Value)]) {
    o.object("attrs", |a| {
        for (k, v) in attrs {
            a.field(k.as_ref(), v);
        }
    });
}

// ------------------------------------------------------------------ events

/// Emits an event: to stderr when `level` clears the verbosity
/// threshold, and to the trace stream when one is attached. `sim_ms`
/// is the simulated clock, when the caller has one.
pub fn event(level: Level, name: &str, msg: &str, attrs: &[(&str, Value)], sim_ms: Option<u64>) {
    let to_stderr = level <= verbosity();
    let to_trace = trace_enabled();
    if !to_stderr && !to_trace {
        return;
    }
    if to_stderr {
        let mut line = String::with_capacity(96);
        let _ = write!(line, "[{:5}] {name}: {msg}", level.as_str());
        for (k, v) in attrs {
            let _ = write!(line, " {k}=");
            v.push_plain(&mut line);
        }
        if let Some(t) = sim_ms {
            let _ = write!(line, " sim_ms={t}");
        }
        eprintln!("{line}");
    }
    if to_trace {
        emit_line(|o| {
            o.field("type", "event");
            o.field("level", level.as_str());
            o.field("name", name);
            o.field("msg", msg);
            o.field("sim_ms", sim_ms);
            attrs_json(o, attrs);
        });
    }
}

/// Emits a `"type":"heartbeat"` progress line into the trace stream.
/// Heartbeats follow the trace byte-stability contract: sequence
/// number, name, **sim** time, and caller attributes only — never a
/// wall clock. Wall-clock progress (ETA lines) belongs on stderr,
/// gated by verbosity, where determinism is not promised. A no-op
/// without an attached trace.
pub fn heartbeat(name: &str, sim_ms: u64, attrs: &[(&str, Value)]) {
    if !trace_enabled() {
        return;
    }
    emit_line(|o| {
        o.field("type", "heartbeat");
        o.field("name", name);
        o.field("sim_ms", sim_ms);
        attrs_json(o, attrs);
    });
}

// ------------------------------------------------------------------- spans

/// One open span on this thread's stack: enough to attribute child
/// sim-time to parents and to reconstruct the folded call path.
pub(crate) struct Frame {
    id: u64,
    name: Cow<'static, str>,
    child_sim_ms: u64,
}

/// An open interval in both clocks. Create with [`span`], close with
/// [`Span::finish`] passing the simulated end time; dropping an
/// unfinished span closes it at its own start time. Spans nest
/// per-thread (LIFO) within the handle the thread has installed: a
/// span opened while another is open records it as its parent.
pub struct Span {
    /// `None` once closed.
    open: Option<SpanRecord>,
    wall_start: Instant,
}

/// Opens a span at simulated time `sim_start_ms`.
pub fn span(name: impl Into<Cow<'static, str>>, sim_start_ms: u64) -> Span {
    new_span(name.into(), sim_start_ms, false)
}

/// Opens a *quiet* span: it nests, feeds the `span.<name>.*` counters
/// and the profiler exactly like [`span`], but never writes a trace
/// line. Use it in code that may run on worker threads (such as
/// `classify::par_map`'s), where trace emission order would be
/// scheduler-dependent and break the trace byte-stability contract.
pub fn span_quiet(name: impl Into<Cow<'static, str>>, sim_start_ms: u64) -> Span {
    new_span(name.into(), sim_start_ms, true)
}

fn new_span(name: Cow<'static, str>, sim_start_ms: u64, quiet: bool) -> Span {
    let id = with_current(|t| t.reserve_ids(1));
    let parent = with_spans(|s| {
        let parent = s.last().map(|f| f.id);
        s.push(Frame {
            id,
            name: name.clone(),
            child_sim_ms: 0,
        });
        parent
    });
    let open = SpanRecord {
        id,
        parent,
        name,
        path: None,
        sim_start: sim_start_ms,
        sim_end: sim_start_ms,
        child_ms: 0,
        wall_ns: 0,
        attrs: Vec::new(),
        quiet,
    };
    Span {
        open: Some(open),
        wall_start: Instant::now(),
    }
}

impl Span {
    /// Attaches a key/value pair, reported in insertion order.
    pub fn attr(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(span) = &mut self.open {
            // Exact: a served request's records, one attribute each,
            // stay in the debug ring.
            span.attrs.reserve_exact(1);
            span.attrs.push((key, value.into()));
        }
    }

    /// Closes the span at simulated time `sim_end_ms`: records the
    /// `span.<name>.{count,sim_ms,self_sim_ms,wall_us}` counters and
    /// emits one trace line when a trace is attached.
    pub fn finish(mut self, sim_end_ms: u64) {
        self.close(Some(sim_end_ms));
    }

    /// Closes at `sim_end_ms`, or at the start time without one.
    fn close(&mut self, sim_end_ms: Option<u64>) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.sim_end = sim_end_ms.unwrap_or(span.sim_start);
        let sim_ms = span.sim_end.saturating_sub(span.sim_start);
        let profiling = profiling_enabled();
        // Pop our frame, credit our total to the parent's child-time,
        // and (when profiling) capture the folded ancestor path while
        // the ancestors are still on the stack.
        (span.child_ms, span.path) =
            with_spans(|s| match s.iter().rposition(|f| f.id == span.id) {
                Some(pos) => {
                    let path = profiling.then(|| folded_path(&s[..pos]));
                    let frame = s.remove(pos);
                    if let Some(parent) = pos.checked_sub(1).map(|p| &mut s[p]) {
                        parent.child_sim_ms = parent.child_sim_ms.saturating_add(sim_ms);
                    }
                    (frame.child_sim_ms, path)
                }
                None => (0, profiling.then(String::new)),
            });
        let self_ms = sim_ms.saturating_sub(span.child_ms);
        span.wall_ns = self.wall_start.elapsed().as_nanos() as u64;
        with_current(|t| {
            let values = [1, sim_ms, self_ms, span.wall_ns / 1_000];
            crate::registry::span_closed(&t.0.registry, &span.name, values);
            let traced = !span.quiet && t.0.trace_on.load(Ordering::Relaxed);
            if t.0.keeps_spans || span.path.is_some() || traced {
                t.close(span);
            }
        });
    }
}

/// The frames' names, each followed by `;`.
fn folded_path(frames: &[Frame]) -> String {
    frames.iter().flat_map(|f| [&*f.name, ";"]).collect()
}

/// A closed span: on its way to the profile and the trace stream —
/// directly, or kept by a child handle until its replay — or, in a
/// [`Telemetry::scope`], what [`Telemetry::finish`] returns.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Id, unique within the handle that numbered it.
    pub id: u64,
    /// The id of the span that was open around this one, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: Cow<'static, str>,
    /// The ancestors' names, each followed by `;` — `Some` while
    /// profiling.
    path: Option<String>,
    sim_start: u64,
    sim_end: u64,
    child_ms: u64,
    /// Wall-clock duration (ns). Never written to the trace stream.
    pub wall_ns: u64,
    /// Attributes in insertion order.
    pub attrs: Vec<(&'static str, Value)>,
    quiet: bool,
}

impl SpanRecord {
    /// The string attribute `key`, or `""` without one.
    pub fn text(&self, key: &str) -> &str {
        match self.attrs.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Str(s))) => s,
            _ => "",
        }
    }

    /// Replays a kept span into `parent` on this thread: ids move from
    /// the child's numbering to `id_base..`, and a span that was
    /// top-level in the child closes as a child of the innermost span
    /// open here, starting no earlier than `not_before`.
    pub(crate) fn replay(mut self, parent: &Telemetry, id_base: u64, not_before: u64) {
        self.id += id_base;
        self.parent = self.parent.map(|p| p + id_base);
        with_spans(|s| {
            if let Some(path) = &mut self.path {
                path.insert_str(0, &folded_path(s));
            }
            if self.parent.is_none() {
                self.sim_start = self.sim_start.max(not_before);
                if let Some(top) = s.last_mut() {
                    self.parent = Some(top.id);
                    let sim_ms = self.sim_end.saturating_sub(self.sim_start);
                    top.child_sim_ms = top.child_sim_ms.saturating_add(sim_ms);
                }
            }
        });
        parent.close(self);
    }

    /// Feeds the profile and writes the trace line of `t`.
    pub(crate) fn publish(&self, t: &Telemetry) {
        let sim_ms = self.sim_end.saturating_sub(self.sim_start);
        if let Some(path) = &self.path {
            if let Some(p) = t.out().profile.as_mut() {
                let self_ms = sim_ms.saturating_sub(self.child_ms);
                *p.folded.entry(format!("{path}{}", self.name)).or_insert(0) += self_ms;
                let e = p.per_span.entry(self.name.to_string()).or_default();
                e.count += 1;
                e.self_ms += self_ms;
                e.durations.push(sim_ms);
            }
        }
        if !self.quiet && t.0.trace_on.load(Ordering::Relaxed) {
            t.line(json::to_string(|o| {
                o.field("type", "span");
                o.field("id", self.id);
                o.field("parent", self.parent);
                o.field("name", &*self.name);
                o.field("sim_start_ms", self.sim_start);
                o.field("sim_end_ms", self.sim_end);
                attrs_json(o, &self.attrs);
            }));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(None);
    }
}

// --------------------------------------------------------------- profiler
//
// The sim-time profiler aggregates, per span close: self-time (total
// minus time attributed to child spans) keyed by the folded ancestor
// path, and the full duration distribution keyed by span name. All
// figures are *simulated* milliseconds, so profiles of seeded runs are
// deterministic — aggregation is order-independent (sums into
// `BTreeMap`s; duration vectors are sorted before quantiles), which
// keeps the output stable even when spans close on worker threads in
// scheduler-dependent order.

#[derive(Default)]
pub(crate) struct ProfileState {
    /// Folded call path (`a;b;c`) → accumulated self sim-ms.
    folded: BTreeMap<String, u64>,
    per_span: BTreeMap<String, PerSpan>,
}

#[derive(Default, Clone)]
struct PerSpan {
    count: u64,
    self_ms: u64,
    durations: Vec<u64>,
}

/// True while the profiler of this thread's handle is collecting.
#[inline]
pub fn profiling_enabled() -> bool {
    with_current(|t| t.0.profiling.load(Ordering::Relaxed))
}

/// Starts (or restarts) sim-time profiling, discarding any prior data.
pub fn enable_profile() {
    with_current(|t| {
        t.out().profile = Some(ProfileState::default());
        t.0.profiling.store(true, Ordering::SeqCst);
    });
}

/// Stops profiling and returns what was collected, or `None` if the
/// profiler was never enabled.
pub fn take_profile() -> Option<Profile> {
    let state = with_current(|t| {
        t.0.profiling.store(false, Ordering::SeqCst);
        t.out().profile.take()
    })?;
    let spans = state
        .per_span
        .into_iter()
        .map(|(name, p)| {
            let mut d = p.durations;
            d.sort_unstable();
            SpanProfile {
                name,
                count: p.count,
                total_sim_ms: d.iter().sum(),
                self_sim_ms: p.self_ms,
                p50: nearest_rank(&d, 0.50),
                p90: nearest_rank(&d, 0.90),
                p99: nearest_rank(&d, 0.99),
                max: d.last().copied().unwrap_or(0),
            }
        })
        .collect();
    Some(Profile {
        folded: state.folded,
        spans,
    })
}

/// Exact nearest-rank quantile over a sorted slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-span-name sim-time statistics (exact, from every close).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanProfile {
    /// Span name.
    pub name: String,
    /// Number of closes.
    pub count: u64,
    /// Sum of total durations (sim-ms).
    pub total_sim_ms: u64,
    /// Sum of self time: total minus child-span time (sim-ms).
    pub self_sim_ms: u64,
    /// Exact nearest-rank quantiles of the duration distribution.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest single duration.
    pub max: u64,
}

/// A finished sim-time profile: folded stacks plus per-span stats.
#[derive(Debug, Clone)]
pub struct Profile {
    folded: BTreeMap<String, u64>,
    spans: Vec<SpanProfile>,
}

impl Profile {
    /// Per-span-name statistics, sorted by name.
    pub fn spans(&self) -> &[SpanProfile] {
        &self.spans
    }

    /// The folded-stack map: `path -> self sim-ms`.
    pub fn folded(&self) -> &BTreeMap<String, u64> {
        &self.folded
    }

    /// Renders the flamegraph "folded" format: one `path value` line
    /// per stack, value = self sim-ms. Feed straight into
    /// `flamegraph.pl` or any compatible renderer.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (path, ms) in &self.folded {
            let _ = writeln!(out, "{path} {ms}");
        }
        out
    }

    /// Human-readable per-span summary with exact sim-time quantiles.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
            "span", "count", "total_sim_ms", "self_sim_ms", "p50", "p90", "p99", "max"
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
                s.name, s.count, s.total_sim_ms, s.self_sim_ms, s.p50, s.p90, s.p99, s.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl SharedBuf {
        fn take(&self) -> String {
            let mut g = self.0.lock().unwrap();
            String::from_utf8(std::mem::take(&mut *g)).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn spans_nest_and_trace_deterministically() {
        let _in = Telemetry::new().enter();
        let run = || {
            let buf = SharedBuf::default();
            attach_trace(Box::new(buf.clone()));
            let mut outer = span("outer", 100);
            outer.attr("week", 3u32);
            let inner = span("inner", 150);
            inner.finish(180);
            outer.finish(200);
            event(
                Level::Debug,
                "done",
                "all finished",
                &[("ok", true.into())],
                Some(200),
            );
            detach_trace().unwrap();
            buf.take()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fresh traces of the same workload are byte-identical");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"inner\"") && lines[0].contains("\"parent\":1"));
        assert!(lines[1].contains("\"name\":\"outer\"") && lines[1].contains("\"parent\":null"));
        assert!(lines[1].contains("\"attrs\":{\"week\":3}"));
        assert!(lines[2].contains("\"type\":\"event\"") && lines[2].contains("\"sim_ms\":200"));
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"seq\":{i},")));
            assert!(!line.contains("wall"), "no wall clock in trace lines");
        }
    }

    #[test]
    fn spans_record_counters_without_trace() {
        let tel = Telemetry::new();
        let _in = tel.enter();
        let s = span("quiet", 1000);
        s.finish(1500);
        assert_eq!(tel.registry().counter("span.quiet.count").get(), 1);
        assert_eq!(tel.registry().counter("span.quiet.sim_ms").get(), 500);
    }

    #[test]
    fn dropped_span_still_closes() {
        let tel = Telemetry::new();
        let _in = tel.enter();
        {
            let _s = span("leaky", 10);
        }
        assert_eq!(tel.registry().counter("span.leaky.count").get(), 1);
        with_spans(|s| assert!(s.is_empty(), "stack popped on drop"));
    }

    #[test]
    fn profiler_attributes_self_time_and_folds_stacks() {
        let _in = Telemetry::new().enter();
        enable_profile();
        let outer = span("p_outer", 0);
        let inner = span("p_inner", 100);
        inner.finish(400); // inner total 300
        let inner2 = span("p_inner", 400);
        inner2.finish(500); // inner total 100
        outer.finish(1000); // outer total 1000, self 1000-400=600
        let prof = take_profile().expect("profile collected");
        assert!(!profiling_enabled());
        let folded = prof.folded_text();
        assert!(folded.contains("p_outer 600\n"), "folded:\n{folded}");
        assert!(
            folded.contains("p_outer;p_inner 400\n"),
            "folded:\n{folded}"
        );
        let inner_stats = prof
            .spans()
            .iter()
            .find(|s| s.name == "p_inner")
            .unwrap()
            .clone();
        assert_eq!(inner_stats.count, 2);
        assert_eq!(inner_stats.total_sim_ms, 400);
        assert_eq!(inner_stats.self_sim_ms, 400);
        assert_eq!((inner_stats.p50, inner_stats.max), (100, 300));
        let outer_stats = prof.spans().iter().find(|s| s.name == "p_outer").unwrap();
        assert_eq!(outer_stats.self_sim_ms, 600);
        assert_eq!(outer_stats.p99, 1000);
    }

    #[test]
    fn quiet_spans_feed_counters_but_not_the_trace() {
        let tel = Telemetry::new();
        let _in = tel.enter();
        let buf = SharedBuf::default();
        attach_trace(Box::new(buf.clone()));
        let s = span_quiet("hush", 10);
        s.finish(60);
        detach_trace().unwrap();
        assert_eq!(tel.registry().counter("span.hush.count").get(), 1);
        assert_eq!(tel.registry().counter("span.hush.self_sim_ms").get(), 50);
        assert_eq!(buf.take(), "", "quiet span emitted no trace line");
    }

    #[test]
    fn heartbeats_are_sequenced_deterministic_trace_lines() {
        let _in = Telemetry::new().enter();
        let run = || {
            let buf = SharedBuf::default();
            attach_trace(Box::new(buf.clone()));
            heartbeat(
                "collect.progress",
                12_000,
                &[("done", 3u32.into()), ("total", 9u32.into())],
            );
            heartbeat("collect.progress", 24_000, &[("done", 6u32.into())]);
            detach_trace().unwrap();
            buf.take()
        };
        let a = run();
        assert_eq!(a, run(), "heartbeat streams are byte-identical");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"type\":\"heartbeat\""));
        assert!(lines[0].contains("\"sim_ms\":12000"));
        assert!(lines[0].contains("\"attrs\":{\"done\":3,\"total\":9}"));
        assert!(!a.contains("wall"), "no wall clock in heartbeat lines");
    }

    /// One unit of work as a lane would run it: nested spans, an event,
    /// all at sim times derived from `k`.
    fn unit(k: u64) {
        let mut outer = span("unit", k * 100);
        outer.attr("k", k);
        let inner = span("unit.inner", k * 100 + 10);
        event(Level::Debug, "tick", "", &[], Some(k * 100 + 20));
        inner.finish(k * 100 + 50);
        outer.finish(k * 100 + 90);
    }

    /// Runs `unit` on this thread under a child of `parent`, and
    /// returns the child with what it kept.
    fn kept(parent: &Telemetry, unit: impl FnOnce()) -> Telemetry {
        let child = parent.child();
        let entered = child.enter();
        unit();
        drop(entered);
        child
    }

    /// Runs three units under a root span with trace and profiler on;
    /// `run_units` decides where and in which order they execute.
    fn traced_units(run_units: impl FnOnce()) -> (String, String) {
        let buf = SharedBuf::default();
        attach_trace(Box::new(buf.clone()));
        enable_profile();
        let root = span("root", 0);
        run_units();
        root.finish(300);
        detach_trace().unwrap();
        (buf.take(), take_profile().unwrap().folded_text())
    }

    #[test]
    fn captures_replayed_in_order_reproduce_the_sequential_stream() {
        let _in = Telemetry::new().enter();
        let sequential = traced_units(|| (0..3).for_each(unit));
        // Each unit on a thread of its own, finishing in the reverse
        // order, replayed in the schedule's.
        let replayed = traced_units(|| {
            let parent = crate::current();
            let mut children: Vec<(u64, Telemetry)> = (0..3)
                .rev()
                .map(|k| {
                    let run = || kept(&parent, || unit(k));
                    (k, std::thread::scope(|s| s.spawn(run).join().unwrap()))
                })
                .collect();
            children.sort_by_key(|&(k, _)| k);
            for (_, child) in children {
                child.replay(0);
            }
        });
        assert_eq!(sequential, replayed);

        let (stream, folded) = replayed;
        assert!(folded.contains("root;unit;unit.inner 120\n"), "{folded}");
        let mut ids = Vec::new();
        for (i, line) in stream.lines().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"seq\":{i},")),
                "dense seq: {line}"
            );
            if let Some(id) = line.split("\"id\":").nth(1) {
                ids.push(id.split(',').next().unwrap().to_string());
            }
        }
        for line in stream.lines().filter(|l| l.contains("\"parent\":")) {
            let parent = line.split("\"parent\":").nth(1).unwrap();
            let parent = parent.split(',').next().unwrap();
            assert!(
                parent == "null" || ids.iter().any(|id| id == parent),
                "{line}"
            );
        }
    }

    #[test]
    fn a_capture_replayed_at_once_is_a_pass_through() {
        let _in = Telemetry::new().enter();
        let direct = traced_units(|| (0..3).for_each(unit));
        let captured = traced_units(|| {
            for k in 0..3 {
                kept(&crate::current(), || unit(k)).replay(0);
            }
        });
        assert_eq!(direct, captured);
    }

    #[test]
    fn replay_starts_top_level_spans_no_earlier_than_the_previous_unit_ended() {
        let _in = Telemetry::new().enter();
        let (stream, folded) = traced_units(|| {
            kept(&crate::current(), || unit(1)).replay(130);
        });
        // The unit's outer span ran 100..190 on its own clock; the
        // stream's clock was taken until 130. Its child is untouched.
        assert!(stream.contains("\"name\":\"unit\",\"sim_start_ms\":130,\"sim_end_ms\":190"));
        assert!(stream.contains("\"name\":\"unit.inner\",\"sim_start_ms\":110"));
        assert!(folded.contains("root;unit 20\n"), "{folded}");
        assert!(folded.contains("root 240\n"), "{folded}");
    }

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let d: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&d, 0.50), 50);
        assert_eq!(nearest_rank(&d, 0.90), 90);
        assert_eq!(nearest_rank(&d, 0.99), 99);
        assert_eq!(nearest_rank(&[7], 0.50), 7);
        assert_eq!(nearest_rank(&[], 0.99), 0);
    }

    #[test]
    fn events_respect_verbosity_and_need_no_sink() {
        let _in = Telemetry::new().enter();
        assert!(!trace_enabled());
        // No trace, default verbosity Warn: a debug event is a no-op.
        assert!(!enabled(Level::Debug));
        event(Level::Debug, "noop", "invisible", &[], None);
        set_verbosity(Level::Debug);
        assert!(enabled(Level::Debug));
        set_verbosity(Level::Warn);
    }
}
