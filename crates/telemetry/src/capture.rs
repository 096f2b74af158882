//! Capture and replay of the ordered side channels.
//!
//! The trace stream, the flight recorder and the sim-time profile are
//! the telemetry outputs whose bytes depend on the *order* things
//! happen in: sequence numbers, span ids, ring overwrites. Code that
//! runs units of work on several threads but promises the stream of a
//! sequential run brackets each unit with [`Capture::begin`] /
//! [`Capture::end`] on the thread that runs it, and replays the
//! captures on one thread in the sequential order. A capture holds what
//! the unit would have written — trace lines, span closes with ids
//! local to the capture, recorder records — and [`Capture::replay`]
//! writes it as if the unit had run right then on the replaying thread:
//! line and record sequence numbers are assigned, span ids are rebased
//! onto the global counter, and spans that were top-level in the unit
//! become children of whatever span is open on the replaying thread.
//!
//! Counters, gauges and histograms are not captured: they are sums and
//! high-water marks, which do not care about order. Stderr is not
//! captured either; it is live.

use crate::recorder::{self, ProbeRecord};
use crate::trace::{self, ClosedSpan};
use std::cell::RefCell;

thread_local! {
    static CURRENT: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// What one unit of work emitted to the ordered side channels.
#[derive(Default)]
pub struct Capture {
    items: Vec<Item>,
    records: Vec<ProbeRecord>,
    /// Span ids handed out so far: `0..spans`, local to this capture.
    spans: u64,
    /// Spans already open on the thread when the capture began; they
    /// are not part of it.
    base_depth: usize,
}

enum Item {
    /// A trace line's object without its `seq`; the replay adds it.
    Line(String),
    Span(ClosedSpan),
}

impl Capture {
    /// Starts capturing on this thread, dropping any capture already
    /// under way.
    pub fn begin() {
        let capture = Capture {
            base_depth: trace::depth(),
            ..Capture::default()
        };
        CURRENT.with(|c| *c.borrow_mut() = Some(capture));
    }

    /// Stops capturing on this thread and returns what was captured
    /// (nothing, if no capture was under way).
    pub fn end() -> Capture {
        CURRENT.with(|c| c.borrow_mut().take()).unwrap_or_default()
    }

    /// Writes the capture out on this thread, which must not itself be
    /// capturing. A span that was top-level in the capture starts no
    /// earlier than `not_before`: the stream has one clock, and the
    /// unit replayed before this one had it until then.
    pub fn replay(self, not_before: u64) {
        let id_base = trace::reserve_ids(self.spans);
        for item in self.items {
            match item {
                Item::Line(body) => trace::write_line(&body),
                Item::Span(span) => span.replay(id_base, not_before),
            }
        }
        recorder::replay(self.records);
    }
}

fn with<T>(f: impl FnOnce(&mut Capture) -> T) -> Option<T> {
    CURRENT.with(|c| c.borrow_mut().as_mut().map(f))
}

/// How many of this thread's open spans lie outside the capture under
/// way (0 without one).
pub(crate) fn base_depth() -> usize {
    with(|c| c.base_depth).unwrap_or(0)
}

/// The next capture-local span id, if this thread is capturing.
pub(crate) fn next_span_id() -> Option<u64> {
    with(|c| {
        c.spans += 1;
        c.spans - 1
    })
}

/// Keeps `v` (via `keep`) if this thread is capturing, hands it back
/// if not.
fn offer<T>(v: T, keep: impl FnOnce(&mut Capture, T)) -> Option<T> {
    CURRENT.with(|c| match c.borrow_mut().as_mut() {
        Some(c) => {
            keep(c, v);
            None
        }
        None => Some(v),
    })
}

pub(crate) fn offer_line(body: String) -> Option<String> {
    offer(body, |c, body| c.items.push(Item::Line(body)))
}

pub(crate) fn offer_span(span: ClosedSpan) -> Option<ClosedSpan> {
    offer(span, |c, span| c.items.push(Item::Span(span)))
}

pub(crate) fn offer_record(rec: ProbeRecord) -> Option<ProbeRecord> {
    offer(rec, |c, rec| c.records.push(rec))
}
