//! Metrics, sim-time-aware spans, and trace/event exporters.
//!
//! This crate sits *below* every other crate in the workspace graph
//! (`netsim` depends on it), so it is std-only: metric handles are
//! plain atomics, and every hand-built JSON document of the workspace
//! (this trace stream, the query service's bodies) goes through [`json`].
//!
//! # Model
//!
//! - **The handle** ([`Telemetry`]) is one run's telemetry as a value:
//!   a registry, the trace sink, the flight recorder and the sim-time
//!   profile. A thread installs one with [`Telemetry::enter`], and
//!   every free function below acts on the installed handle — or on
//!   one process default, for a thread that installed none. A library
//!   thread that emits telemetry installs its spawner's handle
//!   ([`current`]), so a run, a lane or a test carries its own state.
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//!   clonable handles over atomics, registered by name (plus optional
//!   labels) in a [`Registry`], reached through the free functions
//!   [`counter`], [`gauge`], [`histogram`]. Fetch handles once,
//!   increment on the hot path: an increment is one relaxed atomic op,
//!   no formatting, no locking.
//! - **Spans** ([`span`]) record a named interval in *both* clocks:
//!   simulated milliseconds (passed in explicitly, usually
//!   `world.now().millis()`) and wall time (measured internally).
//!   Spans nest per thread and handle; a child records its parent's
//!   id. On finish a span feeds the
//!   `span.<name>.{count,sim_ms,self_sim_ms,wall_us}` counters (their
//!   handles fetched once per name) and, if a trace is attached,
//!   emits one JSON line. Closed, a span is a [`SpanRecord`]: id,
//!   parent, name, both clocks and attributes — the one record every
//!   consumer below reads.
//! - **Events** ([`event`] and the [`debug`]/[`info`]/[`warn`]/
//!   [`error`] shorthands) are log lines gated by a process-wide
//!   verbosity ([`set_verbosity`]); they render to stderr and, if a
//!   trace is attached, to the trace stream.
//! - **Exporters**: [`attach_trace`] streams spans/events as JSON
//!   lines to any `Write`; [`Registry::snapshot`] captures all metric
//!   values at once, renderable as JSON ([`Snapshot::to_json`]), a
//!   human-readable table ([`Snapshot::to_table`]), or Prometheus
//!   text exposition ([`prometheus::render`]).
//! - **Children and replay** ([`Telemetry::child`]): a unit of work
//!   run under a child handle keeps what it would have written to the
//!   ordered outputs — trace lines, span closes, flight-recorder
//!   records — and [`Telemetry::replay`] writes it into the parent
//!   later, so work done on several threads leaves the stream a
//!   sequential run leaves.
//! - **Scopes** ([`Telemetry::scope`]): a child that keeps every span
//!   it closes and hands the records back from [`Telemetry::finish`]
//!   instead of replaying them. The serve daemon answers each request
//!   under one; [`reqtrace`] renders the records as its
//!   `type: "request"` line, and a [`LayerTree`] sums such trees by
//!   path. [`rolling`] keeps the daemon's latency windows and SLO burn
//!   rates (DESIGN §11).
//!
//! # Determinism
//!
//! Trace lines carry only deterministic fields — sequence numbers,
//! names, sim times, caller-supplied attributes. Wall-clock durations
//! never enter the trace; they are visible only in the metrics
//! snapshot. Two runs of the same seeded workload with a fresh trace
//! attached therefore produce byte-identical trace files.

mod handle;
pub mod json;
mod layers;
mod metrics;
pub mod prometheus;
pub mod recorder;
mod registry;
pub mod reqtrace;
pub mod rolling;
mod snapshot;
mod trace;

pub use handle::{current, Entered, Telemetry};
pub use layers::LayerTree;
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use reqtrace::RequestTrace;
pub use rolling::{BurnState, RollingWindow, SloSpec, WindowStats};
pub use snapshot::{HistogramData, Snapshot};
pub use trace::{
    attach_trace, detach_trace, enable_profile, enabled, event, heartbeat, profiling_enabled,
    set_verbosity, span, span_quiet, take_profile, trace_enabled, verbosity, Level, Profile, Span,
    SpanProfile, SpanRecord, Value,
};

/// A counter handle from the installed registry.
pub fn counter(name: &str) -> Counter {
    handle::with_current(|t| t.registry().counter(name))
}

/// A labeled counter handle from the installed registry.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    handle::with_current(|t| t.registry().counter_with(name, labels))
}

/// A gauge handle from the installed registry.
pub fn gauge(name: &str) -> Gauge {
    handle::with_current(|t| t.registry().gauge(name))
}

/// A histogram handle from the installed registry. `bounds` are the
/// inclusive upper edges of the buckets; values above the last bound
/// land in an implicit overflow bucket.
pub fn histogram(name: &str, bounds: &[u64]) -> Histogram {
    histogram_with(name, &[], bounds)
}

/// A labeled histogram handle from the installed registry.
pub fn histogram_with(name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
    handle::with_current(|t| t.registry().histogram_with(name, labels, bounds))
}

/// Snapshot of every metric in the installed registry.
pub fn snapshot() -> Snapshot {
    handle::with_current(|t| t.registry().snapshot())
}

/// Emit a debug-level event (see [`event`]).
pub fn debug(name: &str, msg: &str, attrs: &[(&str, Value)], sim_ms: Option<u64>) {
    event(Level::Debug, name, msg, attrs, sim_ms);
}

/// Emit an info-level event (see [`event`]).
pub fn info(name: &str, msg: &str, attrs: &[(&str, Value)], sim_ms: Option<u64>) {
    event(Level::Info, name, msg, attrs, sim_ms);
}

/// Emit a warn-level event (see [`event`]).
pub fn warn(name: &str, msg: &str, attrs: &[(&str, Value)], sim_ms: Option<u64>) {
    event(Level::Warn, name, msg, attrs, sim_ms);
}

/// Emit an error-level event (see [`event`]).
pub fn error(name: &str, msg: &str, attrs: &[(&str, Value)], sim_ms: Option<u64>) {
    event(Level::Error, name, msg, attrs, sim_ms);
}
