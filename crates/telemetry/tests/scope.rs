//! A request scope: a child handle whose spans come back from `finish`
//! in open order instead of reaching the stream, and the layer tree
//! that sums such trees.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use telemetry::{span, LayerTree, Level, SpanRecord, Telemetry};

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

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
fn spans_nest_and_finish_seals_the_tree() {
    let tel = Telemetry::new();
    let _in = tel.enter();
    let buf = SharedBuf::default();
    telemetry::attach_trace(Box::new(buf.clone()));
    let scope = tel.scope();
    {
        let _in = scope.enter();
        let _root = span("request", 0);
        span("cache", 0).attr("detail", "miss");
        let engine = span("engine", 0);
        span("probe", 0).attr("detail", "weekly");
        let serialize = span("serialize", 0); // left open…
        engine.finish(0); // …while its parent closes first
        drop(serialize);
        telemetry::event(Level::Debug, "note", "", &[], None);
    }
    let spans = scope.finish();
    telemetry::detach_trace().unwrap();
    let tree: Vec<_> = spans
        .iter()
        .map(|s| (s.id, s.parent, &*s.name, s.text("detail")))
        .collect();
    assert_eq!(
        tree,
        [
            (0, None, "request", ""),
            (1, Some(0), "cache", "miss"),
            (2, Some(0), "engine", ""),
            (3, Some(2), "probe", "weekly"),
            (4, Some(2), "serialize", ""),
        ]
    );
    assert!(spans[0].wall_ns >= spans[1].wall_ns + spans[2].wall_ns);
    // The spans stay out of the stream; the event reaches it.
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(stream.lines().count(), 1, "{stream}");
    assert!(stream.contains("\"type\":\"event\""), "{stream}");
    assert_eq!(tel.registry().counter("span.probe.count").get(), 1);
}

/// One request-shaped tree, its wall times replaced by `us`.
fn tree(layers: &[&'static str], us: [u64; 3]) -> Vec<SpanRecord> {
    let scope = Telemetry::new().scope();
    {
        let _in = scope.enter();
        let _root = span("request", 0);
        for &name in layers {
            span(name, 0).finish(0);
        }
    }
    let mut spans = scope.finish();
    for (s, us) in spans.iter_mut().zip(us) {
        s.wall_ns = us * 1_000 + 999;
    }
    spans
}

#[test]
fn layer_rows_re_sum_to_their_parent() {
    let mut t = LayerTree::default();
    t.add(&tree(&["cache", "probe"], [100, 10, 60]));
    t.add(&tree(&["cache"], [50, 20, 0]));
    assert_eq!(t.total_us(), 151);
    let text = t.render();
    let rows: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows[1], ["request", "2", "151", "100.0%"], "{text}");
    assert_eq!(rows[2], ["cache", "2", "31", "20.5%"], "{text}");
    assert_eq!(rows[3], ["probe", "1", "60", "39.7%"], "{text}");
    assert_eq!(rows[4], ["unattributed", "60", "39.7%"], "{text}");
    assert!(
        text.lines().nth(2).unwrap().starts_with("  cache "),
        "{text}"
    );
}
