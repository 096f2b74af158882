//! The metric registry: names (plus optional labels) to handles.
//! Registration takes a lock; the returned handles do not. Keys are
//! kept in `BTreeMap`s so every snapshot renders in sorted order.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramData, Snapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// A set of named metric families. Each [`crate::Telemetry`] handle
/// owns one; the free functions ([`crate::counter`], …) reach the
/// registry of the handle the calling thread has installed.
pub struct Registry {
    inner: Mutex<Inner>,
}

struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// `name` alone, or `name{k1=v1,k2=v2}` with labels sorted by key, so
/// the same (name, labels) pair always resolves to the same metric.
fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut labels: Vec<_> = labels.to_vec();
    labels.sort_unstable();
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter registered under `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.lock()
            .counters
            .entry(key(name, labels))
            .or_default()
            .clone()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge registered under `name` with `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.lock()
            .gauges
            .entry(key(name, labels))
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use. Later calls return the existing histogram; `bounds`
    /// are then ignored.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// The histogram registered under `name` with `labels`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        self.lock()
            .histograms
            .entry(key(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Captures every metric's current value, sorted by key.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        Snapshot {
            counters: g
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramData {
                            bounds: h.bounds().to_vec(),
                            counts: h.bucket_counts(),
                            count: h.count(),
                            sum: h.sum(),
                            max: h.max(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// One registry's span counters by span name; the `Weak` keeps that
/// registry's address from being reused.
type SpanCounters = (Weak<Registry>, Vec<(String, [Counter; 4])>);

thread_local! {
    /// Those this thread fetched from the registry it last closed into.
    static SPAN_COUNTERS: RefCell<SpanCounters> = const { RefCell::new((Weak::new(), Vec::new())) };
}

/// Counts one closed span `name` into `registry`: `values` go to
/// `span.<name>.{count,sim_ms,self_sim_ms,wall_us}` in that order. The
/// four names are formatted, and the registry locked, once per thread
/// and name.
pub(crate) fn span_closed(registry: &Arc<Registry>, name: &str, values: [u64; 4]) {
    SPAN_COUNTERS.with(|cache| {
        let (owner, known) = &mut *cache.borrow_mut();
        if owner.as_ptr() != Arc::as_ptr(registry) {
            (*owner, *known) = (Arc::downgrade(registry), Vec::new());
        }
        let at = known.iter().position(|(n, _)| n == name);
        let at = at.unwrap_or_else(|| {
            let fields = ["count", "sim_ms", "self_sim_ms", "wall_us"];
            let counters = fields.map(|f| registry.counter(&format!("span.{name}.{f}")));
            known.push((name.to_string(), counters));
            known.len() - 1
        });
        // Adding 0 (the daemon's sim times) would still contend.
        for (counter, v) in known[at].1.iter().zip(values).filter(|(_, v)| *v > 0) {
            counter.add(v);
        }
    });
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_cell() {
        let reg = Registry::new();
        reg.counter("hits").add(2);
        reg.counter("hits").inc();
        assert_eq!(reg.counter("hits").get(), 3);
    }

    #[test]
    fn labels_are_order_insensitive() {
        let reg = Registry::new();
        reg.counter_with("rc", &[("code", "0"), ("proto", "udp")])
            .inc();
        reg.counter_with("rc", &[("proto", "udp"), ("code", "0")])
            .inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rc{code=0,proto=udp}"), Some(2));
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = Registry::new();
        reg.counter("b.second").inc();
        reg.counter("a.first").add(7);
        reg.gauge("ratio").set(9.9);
        reg.histogram("lat_ms", &[1, 10]).observe(3);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a.first", "b.second"]);
        assert_eq!(snap.gauges[0], ("ratio".to_string(), 9.9));
        assert_eq!(snap.histograms[0].1.count, 1);
        assert_eq!(snap.histograms[0].1.counts, vec![0, 1, 0]);
    }
}
