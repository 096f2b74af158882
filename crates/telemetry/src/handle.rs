//! The handle: one run's telemetry as a value, and which handle a
//! thread reports to. The crate docs give the model; a child shares its
//! parent's registry, since sums and high-water marks do not care about
//! order, and keeps the outputs whose bytes do until its replay.

use crate::recorder::Recorder;
use crate::registry::Registry;
use crate::trace::{Frame, ProfileState, Sink, SpanRecord};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One run's telemetry: registry, trace sink, flight recorder and
/// profile. Cheap to clone; clones are the same handle.
#[derive(Clone)]
pub struct Telemetry(pub(crate) Arc<Inner>);

pub(crate) struct Inner {
    pub(crate) registry: Arc<Registry>,
    /// A child's parent, which its replay writes into.
    parent: Option<Telemetry>,
    pub(crate) trace_on: AtomicBool,
    pub(crate) profiling: AtomicBool,
    pub(crate) recording: AtomicBool,
    /// A [`Telemetry::scope`]: keeps every span it closes.
    pub(crate) keeps_spans: bool,
    /// Span ids: from 1, and again from 1 at every [`crate::attach_trace`]
    /// so seeded runs match; a child's from 0, rebased at replay.
    pub(crate) next_id: AtomicU64,
    out: Mutex<Out>,
}

/// The ordered outputs.
#[derive(Default)]
pub(crate) struct Out {
    pub(crate) trace: Option<Sink>,
    pub(crate) profile: Option<ProfileState>,
    pub(crate) recorder: Option<Recorder>,
    /// A child's trace lines and span closes, in order, for its replay.
    kept: Vec<Item>,
}

enum Item {
    /// A trace line's object without its `seq`; the replay adds it.
    Line(String),
    Span(SpanRecord),
}

/// What a thread reports to: the installed handle, and the part of it
/// that is the thread's own — open spans and the recorder's probe
/// context.
pub(crate) struct Scope {
    installed: Option<Telemetry>,
    spans: Vec<Frame>,
    pub(crate) context: Option<(&'static str, u32)>,
}

const NOTHING: Scope = Scope {
    installed: None,
    spans: Vec::new(),
    context: None,
};

thread_local! {
    pub(crate) static SCOPE: RefCell<Scope> = const { RefCell::new(NOTHING) };
}

/// The handle of every thread that installed none.
fn process_default() -> &'static Telemetry {
    static DEFAULT: OnceLock<Telemetry> = OnceLock::new();
    DEFAULT.get_or_init(Telemetry::new)
}

/// Runs `f` on this thread's handle.
pub(crate) fn with_current<R>(f: impl FnOnce(&Telemetry) -> R) -> R {
    SCOPE.with(|s| match &s.borrow().installed {
        Some(t) => f(t),
        None => f(process_default()),
    })
}

/// Runs `f` on this thread's open spans (innermost last).
pub(crate) fn with_spans<R>(f: impl FnOnce(&mut Vec<Frame>) -> R) -> R {
    SCOPE.with(|s| f(&mut s.borrow_mut().spans))
}

/// The handle this thread reports to.
pub fn current() -> Telemetry {
    with_current(Telemetry::clone)
}

/// While alive, a handle installed by [`Telemetry::enter`]. Dropping it
/// puts back what the thread had before; guards drop in the reverse
/// order they were made.
#[must_use = "the handle is uninstalled when the guard drops"]
pub struct Entered {
    saved: Option<Scope>,
    /// The guard restores its own thread's scope.
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            SCOPE.with(|s| *s.borrow_mut() = saved);
        }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A handle with an empty registry and nothing attached.
    pub fn new() -> Telemetry {
        Telemetry::with(None, false)
    }

    /// A root handle, or a child of `parent` that sees what is attached
    /// to it.
    fn with(parent: Option<&Telemetry>, keeps_spans: bool) -> Telemetry {
        let on = |flag: fn(&Inner) -> &AtomicBool| {
            AtomicBool::new(parent.is_some_and(|p| flag(&p.0).load(Ordering::SeqCst)))
        };
        let recorder = parent
            .filter(|p| p.0.recording.load(Ordering::SeqCst))
            .and_then(|p| p.out().recorder.as_ref().map(Recorder::unbounded_like));
        Telemetry(Arc::new(Inner {
            registry: parent.map_or_else(Arc::default, |p| Arc::clone(&p.0.registry)),
            parent: parent.cloned(),
            trace_on: on(|i| &i.trace_on),
            profiling: on(|i| &i.profiling),
            recording: on(|i| &i.recording),
            keeps_spans,
            next_id: AtomicU64::new(u64::from(parent.is_none())),
            out: Mutex::new(Out {
                recorder,
                ..Out::default()
            }),
        }))
    }

    /// Installs this handle on the calling thread until the guard
    /// drops. Spans the thread had open, and its recorder context,
    /// belong to the handle they were opened under: the new scope
    /// starts without them. Entering the handle already in use is a
    /// no-op.
    pub fn enter(&self) -> Entered {
        let same = with_current(|t| Arc::ptr_eq(&t.0, &self.0));
        let scope = || Scope {
            installed: Some(self.clone()),
            ..NOTHING
        };
        let saved = (!same).then(|| SCOPE.with(|s| s.replace(scope())));
        Entered {
            saved,
            _thread: PhantomData,
        }
    }

    /// The handle's metric registry.
    pub fn registry(&self) -> &Registry {
        &self.0.registry
    }

    /// A handle for a unit of work whose ordered output joins this
    /// one's later: it shares this registry and what is attached here,
    /// and keeps its trace lines, spans and records for `replay`.
    pub fn child(&self) -> Telemetry {
        Telemetry::with(Some(self), false)
    }

    /// A child whose spans are its output rather than the stream's: it
    /// keeps every span it closes, whatever is attached, until
    /// [`Telemetry::finish`]. A served request is one.
    pub fn scope(&self) -> Telemetry {
        Telemetry::with(Some(self), true)
    }

    /// Ends a [`Telemetry::scope`]: its trace lines go on to the parent,
    /// and its spans come back in the order they opened (ids from 0,
    /// parents by id). Panics unless this handle is a child.
    pub fn finish(self) -> Vec<SpanRecord> {
        let parent = self.0.parent.as_ref().expect("only a scope finishes");
        let kept = std::mem::take(&mut self.out().kept);
        let mut spans = Vec::with_capacity(kept.len());
        for item in kept {
            match item {
                Item::Line(body) => parent.line(body),
                Item::Span(span) => spans.push(span),
            }
        }
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }

    /// Writes what a child kept into its parent, on a thread where the
    /// parent is installed. A span that was top-level in the child
    /// starts no earlier than `not_before`: the stream has one clock,
    /// and the unit replayed before this one had it until then. Panics
    /// unless this handle is a [`Telemetry::child`].
    pub fn replay(self, not_before: u64) {
        let parent = self.0.parent.as_ref().expect("only a child replays");
        let (kept, records) = {
            let mut out = self.out();
            let records = out.recorder.as_mut().map(Recorder::drain);
            (std::mem::take(&mut out.kept), records.unwrap_or_default())
        };
        let id_base = parent.reserve_ids(self.0.next_id.load(Ordering::SeqCst));
        for item in kept {
            match item {
                Item::Line(body) => parent.line(body),
                Item::Span(span) => span.replay(parent, id_base, not_before),
            }
        }
        if let Some(recorder) = parent.out().recorder.as_mut() {
            records.into_iter().for_each(|rec| recorder.push(rec));
        }
    }

    pub(crate) fn out(&self) -> MutexGuard<'_, Out> {
        self.0.out.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes `n` consecutive span ids; returns the first.
    pub(crate) fn reserve_ids(&self, n: u64) -> u64 {
        self.0.next_id.fetch_add(n, Ordering::Relaxed)
    }

    /// One trace line: kept by a child, written with the next `seq`
    /// otherwise.
    pub(crate) fn line(&self, body: String) {
        let mut out = self.out();
        if self.0.parent.is_some() {
            out.kept.push(Item::Line(body));
        } else if let Some(sink) = out.trace.as_mut() {
            sink.write(&body);
        }
    }

    /// A closed span: kept by a child, published otherwise.
    pub(crate) fn close(&self, span: SpanRecord) {
        if self.0.parent.is_some() {
            self.out().kept.push(Item::Span(span));
        } else {
            span.publish(self);
        }
    }
}
