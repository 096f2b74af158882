//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! program's public entry points, kept in memory, and written as JSON
//! lines when the run ends. A span's self time is its duration minus the
//! part of that interval its children cover (children that overlap each
//! other are counted once).

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Where a span's times come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Measured,
    /// Duration read from one of the program's `span.*.wall_us` counters
    /// and laid inside its parent; the start is not an observed time.
    Counter,
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    /// One id per workload pass, or per request on the serve workloads.
    pub trace: u64,
    /// The crate the time belongs to.
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub source: Source,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread.
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    trace: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the trace id stamped on spans opened from now on.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(SpanRec {
            id,
            parent: self.open.last().copied(),
            trace: self.trace,
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            source: Source::Measured,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a finished span with explicit times under `parent`.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        source: Source,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRec {
            id,
            parent,
            trace: self.trace,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns,
            source,
        });
        id
    }

    /// Lays counter-sourced children end to end from `parent`'s start.
    /// `children` are `(layer, name, duration_ns)`; returns their ids.
    pub fn lay_counter_children(
        &mut self,
        parent: u32,
        children: &[(&'static str, &str, u64)],
    ) -> Vec<u32> {
        let mut at = self.spans[parent as usize].start_ns;
        children
            .iter()
            .map(|&(layer, name, dur)| {
                let id = self.record(Some(parent), layer, name, at, at + dur, Source::Counter);
                at += dur;
                id
            })
            .collect()
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self time summed per layer, over spans whose trace id is in
    /// `traces` (all spans when `None`).
    pub fn self_by_layer(&self, trace: Option<u64>) -> BTreeMap<&'static str, u64> {
        let selfs = self.self_times_ns();
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if trace.is_none_or(|t| s.trace == t) {
                *out.entry(s.layer).or_insert(0) += selfs[s.id as usize];
            }
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times_ns();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut o = BTreeMap::new();
            o.insert("id".to_string(), Value::U64(s.id.into()));
            o.insert(
                "parent".to_string(),
                s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
            );
            o.insert("trace".to_string(), Value::U64(s.trace));
            o.insert("layer".to_string(), Value::String(s.layer.to_string()));
            o.insert("name".to_string(), Value::String(s.name.clone()));
            o.insert("start_ns".to_string(), Value::U64(s.start_ns));
            o.insert("end_ns".to_string(), Value::U64(s.end_ns));
            o.insert("self_ns".to_string(), Value::U64(selfs[s.id as usize]));
            let source = match s.source {
                Source::Measured => "measured",
                Source::Counter => "counter",
            };
            o.insert("source".to_string(), Value::String(source.to_string()));
            let line = serde_json::to_string(&Value::Object(o)).map_err(io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of each span: duration minus the union of its children's
/// intervals, each clipped to the parent's own interval.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            trace: 0,
            layer: "goingwild",
            name: format!("s{id}"),
            start_ns,
            end_ns,
            source: Source::Measured,
        }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two children overlapping on 30..40: they cover 10..60.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            // A grandchild only reduces its own parent's self time.
            span(3, Some(1), 15, 25),
            // A child sticking out of its parent is clipped to it.
            span(4, Some(0), 90, 130),
            // A child contained in a sibling adds no cover.
            span(5, Some(0), 35, 38),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30 - 10);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 40);
        // Self times of a tree re-sum to the root's duration only where
        // nothing overlaps; here the overlap (10) and the clipped tail
        // (30) are the difference.
    }

    #[test]
    fn counter_children_are_laid_inside_the_parent() {
        let mut t = Tracer::new();
        let root = t.record(
            None,
            "goingwild",
            "collect_bundle",
            1_000,
            11_000,
            Source::Measured,
        );
        let kids = t.lay_counter_children(
            root,
            &[
                ("worldgen", "worldgen.build", 2_000),
                ("classify", "pipeline.cluster", 5_000),
            ],
        );
        assert_eq!(t.spans()[kids[1] as usize].start_ns, 3_000);
        assert_eq!(t.self_times_ns()[root as usize], 3_000);
        let by_layer = t.self_by_layer(None);
        assert_eq!(by_layer["classify"], 5_000);
        assert_eq!(by_layer["goingwild"], 3_000);
    }

    #[test]
    fn enter_exit_nests_and_stamps_the_trace_id() {
        let mut t = Tracer::new();
        let outer = t.enter("goingwild", "outer");
        t.set_trace(7);
        t.time("scanner", "inner", || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].trace, spans[1].trace), (0, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns);
    }
}
