//! A served request as a trace record: its ordinals, what it answered,
//! and the spans of its [`Telemetry::scope`](crate::Telemetry::scope).
//!
//! The trace id is a pure function of the connection and request
//! ordinals ([`trace_id`]), and the `type: "request"` line [`emit`]
//! writes carries only deterministic fields, so the stream stays
//! byte-identical across same-seed sequential runs. Wall durations show
//! only in `/debug/requests` and the slow-query log.

use crate::json;
use crate::trace::{self, SpanRecord};

/// The trace id of request `req` on connection `conn` (splitmix64).
pub fn trace_id(conn: u64, req: u64) -> u64 {
    let mut z = conn
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(req)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One answered request.
#[derive(Debug, Clone)]
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
    /// The request scope's spans in open order: the root (the whole
    /// request), then its layers, each noted by its `detail` attribute.
    pub spans: Vec<SpanRecord>,
}

impl RequestTrace {
    /// Wall-clock duration of the whole request (ns): its root span's.
    pub fn wall_ns(&self) -> u64 {
        self.spans.first().map_or(0, |root| root.wall_ns)
    }

    /// Writes the trace's members into `o` in a fixed key order: with
    /// `wall` set, the `/debug/requests` and slow-log shape (wall-clock
    /// durations included); without, the deterministic trace-stream
    /// fields. Layers are numbered from 0; a layer directly under the
    /// root has no parent.
    pub fn write_json(&self, o: &mut json::Object<'_>, wall: bool) {
        let id = self.trace_id;
        o.field("trace_id", json::Text(format_args!("{id:016x}")));
        o.field("conn", self.conn);
        o.field("ordinal", self.ordinal);
        o.field("target", &self.target);
        o.field("endpoint", self.endpoint);
        o.field("status", self.status);
        o.field("bytes", self.bytes);
        o.field("generation", &self.generation);
        if wall {
            o.field("wall_us", self.wall_ns() / 1_000);
        }
        let layers = self.spans.get(1..).unwrap_or_default();
        let index = |id: u64| layers.iter().position(|s| s.id == id);
        o.array("spans", |a| {
            for (i, s) in layers.iter().enumerate() {
                a.object(|o| {
                    o.field("id", i);
                    o.field("parent", s.parent.and_then(index));
                    o.field("name", &*s.name);
                    if wall {
                        o.field("wall_us", s.wall_ns / 1_000);
                    }
                    o.field("detail", s.text("detail"));
                });
            }
        });
    }
}

/// Writes one `type: "request"` line, without wall-clock durations,
/// into the attached trace stream; a no-op when none is attached.
pub fn emit(t: &RequestTrace) {
    if !trace::trace_enabled() {
        return;
    }
    trace::emit_line(|o| {
        o.field("type", "request");
        t.write_json(o, false);
    });
}
