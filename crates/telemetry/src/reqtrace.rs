//! Request-scoped tracing: deterministic trace ids, per-request span
//! trees, a bounded ring of completed traces, and a slow-query log.
//!
//! A [`RequestCtx`] rides along one request through router → cache →
//! engine → index and collects a causality-linked tree of named spans
//! (`parse`, `cache`, `probe`, `serialize`, ...). On finish it yields
//! a [`RequestTrace`].
//!
//! Determinism contract: the trace *id* is a pure function of the
//! connection and request ordinals ([`trace_id`] — never wall clock,
//! never randomness), and the line [`emit`] writes into the JSON-lines
//! trace stream carries only deterministic fields (ids, ordinals,
//! target, status, byte count, generation tag, span structure and
//! details). Wall-clock durations are measured per span but surface
//! only through `/debug/requests`, the slow-query log, and the metrics
//! snapshot — never in the trace stream, which therefore stays
//! byte-identical across same-seed sequential runs.

use crate::json;
use crate::trace;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Deterministic trace id from the connection and request ordinals
/// (splitmix64 finalizer — well mixed, never wall clock).
pub fn trace_id(conn: u64, req: u64) -> u64 {
    let mut z = conn
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(req)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One finished span inside a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSpan {
    /// Span name (`parse`, `cache`, `probe`, `serialize`, ...).
    pub name: &'static str,
    /// Index of the parent span in the tree, if nested.
    pub parent: Option<u16>,
    /// Wall-clock duration (µs). Diagnostic only: never traced.
    pub wall_us: u64,
    /// Free-form detail (campaign name, hit/miss, ...).
    pub detail: String,
}

/// One completed request with its span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Deterministic id ([`trace_id`]).
    pub trace_id: u64,
    /// Connection ordinal the request arrived on.
    pub conn: u64,
    /// Process-wide request ordinal.
    pub ordinal: u64,
    /// Raw request target (path + query).
    pub target: String,
    /// Endpoint family the router resolved the target to.
    pub endpoint: &'static str,
    /// HTTP status returned.
    pub status: u16,
    /// Response size in bytes (headers + body).
    pub bytes: u64,
    /// Engine generation tag the request was answered from.
    pub generation: String,
    /// Wall-clock duration (µs). Diagnostic only: never traced.
    pub wall_us: u64,
    /// Finished spans in completion order.
    pub spans: Vec<ReqSpan>,
}

impl RequestTrace {
    /// Writes the trace's members into `o` in a fixed key order: with
    /// `wall` set, the `/debug/requests` and slow-log shape (wall-clock
    /// durations included); without, the deterministic trace-stream
    /// fields.
    pub fn write_json(&self, o: &mut json::Object<'_>, wall: bool) {
        o.field(
            "trace_id",
            json::Text(format_args!("{:016x}", self.trace_id)),
        );
        o.field("conn", self.conn);
        o.field("ordinal", self.ordinal);
        o.field("target", &self.target);
        o.field("endpoint", self.endpoint);
        o.field("status", self.status);
        o.field("bytes", self.bytes);
        o.field("generation", &self.generation);
        if wall {
            o.field("wall_us", self.wall_us);
        }
        o.array("spans", |a| {
            for (i, s) in self.spans.iter().enumerate() {
                a.object(|o| {
                    o.field("id", i);
                    o.field("parent", s.parent);
                    o.field("name", s.name);
                    if wall {
                        o.field("wall_us", s.wall_us);
                    }
                    o.field("detail", &s.detail);
                });
            }
        });
    }
}

/// Writes one `type: "request"` line into the attached trace stream.
/// Deterministic fields only — no wall-clock durations. A no-op when
/// no trace is attached (one relaxed load).
pub fn emit(t: &RequestTrace) {
    if !trace::trace_enabled() {
        return;
    }
    trace::emit_line(|o| {
        o.field("type", "request");
        t.write_json(o, false);
    });
}

/// A live request's span collector. Create one at routing time, thread
/// it (as `&mut Option<RequestCtx>`) through the layers, then
/// [`finish`](RequestCtx::finish) it into a [`RequestTrace`].
#[derive(Debug)]
pub struct RequestCtx {
    trace: RequestTrace,
    t0: Instant,
    /// Start instant of each span, parallel to `trace.spans`.
    starts: Vec<Instant>,
    /// Indices of currently open spans (LIFO nesting).
    open: Vec<u16>,
}

impl RequestCtx {
    /// Opens a context for request `ordinal` on connection `conn`.
    pub fn new(conn: u64, ordinal: u64, target: &str) -> RequestCtx {
        RequestCtx {
            trace: RequestTrace {
                trace_id: trace_id(conn, ordinal),
                conn,
                ordinal,
                target: target.to_string(),
                endpoint: "other",
                status: 0,
                bytes: 0,
                generation: String::new(),
                wall_us: 0,
                spans: Vec::with_capacity(4),
            },
            t0: Instant::now(),
            starts: Vec::with_capacity(4),
            open: Vec::with_capacity(2),
        }
    }

    /// The deterministic trace id.
    pub fn id(&self) -> u64 {
        self.trace.trace_id
    }

    /// Opens a span; its parent is the innermost still-open span.
    pub fn begin(&mut self, name: &'static str) -> u16 {
        let idx = self.trace.spans.len() as u16;
        self.trace.spans.push(ReqSpan {
            name,
            parent: self.open.last().copied(),
            wall_us: 0,
            detail: String::new(),
        });
        self.starts.push(Instant::now());
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, recording its wall duration.
    pub fn end(&mut self, idx: u16) {
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.remove(pos);
        }
        if let Some(span) = self.trace.spans.get_mut(idx as usize) {
            span.wall_us = self.starts[idx as usize].elapsed().as_micros() as u64;
        }
    }

    /// Attaches (or replaces) free-form detail on span `idx`.
    pub fn note(&mut self, idx: u16, detail: &str) {
        if let Some(span) = self.trace.spans.get_mut(idx as usize) {
            span.detail = detail.to_string();
        }
    }

    /// Records the engine generation the request is answered from.
    pub fn set_generation(&mut self, tag: &str) {
        self.trace.generation = tag.to_string();
    }

    /// Closes any still-open spans and seals the trace.
    pub fn finish(mut self, endpoint: &'static str, status: u16, bytes: u64) -> RequestTrace {
        while let Some(idx) = self.open.pop() {
            if let Some(span) = self.trace.spans.get_mut(idx as usize) {
                span.wall_us = self.starts[idx as usize].elapsed().as_micros() as u64;
            }
        }
        self.trace.endpoint = endpoint;
        self.trace.status = status;
        self.trace.bytes = bytes;
        self.trace.wall_us = self.t0.elapsed().as_micros() as u64;
        self.trace
    }
}

// Helpers over `Option<RequestCtx>`, so instrumented layers read as
// three short lines instead of an `if let` pyramid. All are no-ops on
// `None` (tracing disabled or unsampled request).

/// [`RequestCtx::begin`] on an optional context.
pub fn begin(ctx: &mut Option<RequestCtx>, name: &'static str) -> Option<u16> {
    ctx.as_mut().map(|c| c.begin(name))
}

/// [`RequestCtx::end`] on an optional context.
pub fn end(ctx: &mut Option<RequestCtx>, idx: Option<u16>) {
    if let (Some(c), Some(i)) = (ctx.as_mut(), idx) {
        c.end(i);
    }
}

/// [`RequestCtx::note`] on an optional context.
pub fn note(ctx: &mut Option<RequestCtx>, idx: Option<u16>, detail: &str) {
    if let (Some(c), Some(i)) = (ctx.as_mut(), idx) {
        c.note(i, detail);
    }
}

/// A bounded ring of the most recent completed request traces.
#[derive(Debug)]
pub struct RequestRing {
    cap: usize,
    inner: Mutex<VecDeque<Arc<RequestTrace>>>,
}

impl RequestRing {
    /// A ring keeping at most `cap` traces (0 keeps none).
    pub fn new(cap: usize) -> RequestRing {
        RequestRing {
            cap,
            inner: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
        }
    }

    /// Appends a trace, evicting the oldest when full.
    pub fn push(&self, t: Arc<RequestTrace>) {
        if self.cap == 0 {
            return;
        }
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.len() == self.cap {
            g.pop_front();
        }
        g.push_back(t);
    }

    /// The most recent traces, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Arc<RequestTrace>> {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.iter().rev().take(limit).cloned().collect()
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A slow-query log: a [`RequestRing`] that only admits requests at or
/// above a wall-clock threshold.
#[derive(Debug)]
pub struct SlowLog {
    threshold_us: u64,
    ring: RequestRing,
}

impl SlowLog {
    /// Keeps the `cap` most recent requests slower than
    /// `threshold_us` microseconds.
    pub fn new(threshold_us: u64, cap: usize) -> SlowLog {
        SlowLog {
            threshold_us,
            ring: RequestRing::new(cap),
        }
    }

    /// The configured threshold (µs).
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Admits `t` if it cleared the threshold; returns whether it did.
    pub fn offer(&self, t: &Arc<RequestTrace>) -> bool {
        if t.wall_us >= self.threshold_us {
            self.ring.push(Arc::clone(t));
            true
        } else {
            false
        }
    }

    /// The most recent slow requests, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Arc<RequestTrace>> {
        self.ring.recent(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_well_spread() {
        assert_eq!(trace_id(3, 17), trace_id(3, 17));
        assert_ne!(trace_id(3, 17), trace_id(3, 18));
        assert_ne!(trace_id(3, 17), trace_id(4, 17));
        // (conn, req) and (req, conn) must not collide trivially.
        assert_ne!(trace_id(1, 2), trace_id(2, 1));
    }

    #[test]
    fn spans_nest_and_finish_seals_the_tree() {
        let mut ctx = RequestCtx::new(1, 42, "/classify?ip=1.2.3.4");
        let outer = ctx.begin("cache");
        ctx.note(outer, "miss");
        ctx.end(outer);
        let engine = ctx.begin("engine");
        let probe = ctx.begin("probe");
        ctx.note(probe, "weekly");
        ctx.end(probe);
        let leak = ctx.begin("serialize"); // left open on purpose
        let _ = leak;
        ctx.end(engine); // out-of-order end: engine closes before serialize
        ctx.set_generation("weekly:3");
        let t = ctx.finish("classify", 200, 512);
        assert_eq!(t.trace_id, trace_id(1, 42));
        assert_eq!(t.status, 200);
        assert_eq!(t.generation, "weekly:3");
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("cache", None),
                ("engine", None),
                ("probe", Some(1)),
                ("serialize", Some(1)),
            ]
        );
        assert_eq!(t.spans[0].detail, "miss");
        assert_eq!(t.spans[2].detail, "weekly");
    }

    #[test]
    fn debug_json_has_wall_but_emit_line_does_not() {
        let mut ctx = RequestCtx::new(0, 0, "/campaigns");
        let s = ctx.begin("serialize");
        ctx.end(s);
        let t = ctx.finish("campaigns", 200, 64);
        let dbg = json::to_string(|o| t.write_json(o, true));
        assert!(dbg.contains("\"wall_us\":"), "{dbg}");
        assert!(dbg.starts_with("{\"trace_id\":\""), "{dbg}");
        // emit() writes nothing without an attached trace; the
        // stream-line shape itself is covered by the serve
        // integration tests, which assert the absence of "wall".
        emit(&t);
    }

    #[test]
    fn ring_bounds_and_orders_newest_first() {
        let ring = RequestRing::new(2);
        for i in 0..4u64 {
            let ctx = RequestCtx::new(0, i, "/campaigns");
            ring.push(Arc::new(ctx.finish("campaigns", 200, 1)));
        }
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].ordinal, 3);
        assert_eq!(recent[1].ordinal, 2);
        assert!(RequestRing::new(0).is_empty());
    }

    #[test]
    fn slow_log_filters_by_threshold() {
        let log = SlowLog::new(1_000_000, 8); // 1s: nothing here is that slow
        let fast = Arc::new(RequestCtx::new(0, 1, "/campaigns").finish("campaigns", 200, 1));
        assert!(!log.offer(&fast));
        assert!(log.recent(10).is_empty());
        let everything = SlowLog::new(0, 8); // 0: everything qualifies
        assert!(everything.offer(&fast));
        assert_eq!(everything.recent(10).len(), 1);
        assert_eq!(everything.threshold_us(), 0);
    }
}
