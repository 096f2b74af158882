//! One-shot metrics snapshot, renderable as JSON or a text table.

use crate::json;
use std::fmt::Write;

/// A histogram's state at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramData {
    /// Inclusive upper bucket bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts: one per bound, then the overflow bucket.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded (exact, not bucketed).
    pub max: u64,
}

impl HistogramData {
    /// Bucket-interpolated quantile **estimate** for `q` in `[0, 1]`.
    ///
    /// The true sample values are gone after bucketing, so this
    /// locates the bucket holding the nearest-rank sample and
    /// interpolates linearly inside it; the overflow bucket uses the
    /// exact [`max`](HistogramData::max) as its upper edge. Error is
    /// bounded by the width of the bucket the quantile falls in.
    pub fn quantile_estimate(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            let before = cum;
            cum += n;
            if rank <= cum && n > 0 {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max.max(lo)
                };
                let frac = (rank - before) as f64 / n as f64;
                return lo as f64 + (hi - lo) as f64 * frac;
            }
        }
        self.max as f64
    }
}

/// Every metric's value at a point in time, sorted by key.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by key.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by key.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states by key.
    pub histograms: Vec<(String, HistogramData)>,
}

impl Snapshot {
    /// The counter registered under exactly `key`, if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// The gauge registered under exactly `key`, if present.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Sum of every counter whose key starts with `prefix`: the way to
    /// total a labeled family, e.g. `counter_sum("serve.cache.hit")`
    /// across its `{endpoint=...}` variants.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    }

    /// True if any counter whose key starts with `prefix` is nonzero.
    pub fn has_nonzero_counter(&self, prefix: &str) -> bool {
        self.counters
            .iter()
            .any(|(k, v)| k.starts_with(prefix) && *v > 0)
    }

    /// Renders the snapshot as a JSON document:
    ///
    /// ```json
    /// {
    ///   "telemetry": "goingwild.metrics.v1",
    ///   "counters": {"netsim.udp_sent": 1234},
    ///   "gauges": {"netsim.queue_depth_max": 99},
    ///   "histograms": {
    ///     "scanstore.view.decode_us": {
    ///       "count": 3, "sum": 42,
    ///       "buckets": [[1, 0], [10, 2]], "overflow": 1
    ///     }
    ///   }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"telemetry\": \"goingwild.metrics.v1\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_str(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_str(&mut out, k);
            out.push_str(": ");
            json::push_f64(&mut out, *v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_str(&mut out, k);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            );
            for (j, (b, n)) in h.bounds.iter().zip(&h.counts).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{b}, {n}]");
            }
            let overflow = h.counts.last().copied().unwrap_or(0);
            let _ = write!(out, "], \"overflow\": {overflow}");
            // Quantiles are bucket-interpolated estimates; max is exact.
            for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                let _ = write!(out, ", \"{label}\": ");
                json::push_f64(&mut out, h.quantile_estimate(q));
            }
            let _ = write!(out, ", \"max\": {}}}", h.max);
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders the snapshot as an aligned, human-readable table.
    pub fn to_table(&self) -> String {
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:width$}  {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for (k, h) in &self.histograms {
                let mean = if h.count > 0 {
                    h.sum as f64 / h.count as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {k:width$}  count={} mean={mean:.1} p50~{:.1} p90~{:.1} p99~{:.1} max={}",
                    h.count,
                    h.quantile_estimate(0.50),
                    h.quantile_estimate(0.90),
                    h.quantile_estimate(0.99),
                    h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("scanner.probes_sent").add(42);
        reg.counter_with("scanner.responses", &[("rcode", "0")])
            .add(40);
        reg.gauge("netsim.queue_depth_max").set(9.9);
        let h = reg.histogram("scanner.token_wait_ms", &[1, 10]);
        h.observe(5);
        h.observe(500);
        reg.snapshot()
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let js = sample().to_json();
        assert!(js.contains("\"telemetry\": \"goingwild.metrics.v1\""));
        assert!(js.contains("\"scanner.probes_sent\": 42"));
        assert!(js.contains("\"scanner.responses{rcode=0}\": 40"));
        assert!(js.contains("\"netsim.queue_depth_max\": 9.9"));
        assert!(js.contains("\"buckets\": [[1, 0], [10, 1]], \"overflow\": 1"));
        // Derived quantile estimates and the exact max follow overflow.
        assert!(js.contains("\"p50\": "));
        assert!(js.contains("\"max\": 500"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let open = js.matches(['{', '[']).count();
        let close = js.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn table_lists_every_metric() {
        let t = sample().to_table();
        assert!(t.contains("scanner.probes_sent"));
        assert!(t.contains("netsim.queue_depth_max"));
        assert!(t.contains("count=2"));
    }

    #[test]
    fn quantile_estimates_interpolate_within_buckets() {
        let h = HistogramData {
            bounds: vec![10, 100],
            counts: vec![8, 1, 1],
            count: 10,
            sum: 700,
            max: 400,
        };
        // p50: rank 5 of 8 in [0,10] → 10 * 5/8.
        assert!((h.quantile_estimate(0.50) - 6.25).abs() < 1e-9);
        // p90: rank 9, the single sample in (10,100].
        assert!((h.quantile_estimate(0.90) - 100.0).abs() < 1e-9);
        // p99: rank 10 lands in overflow; upper edge is the exact max.
        assert!((h.quantile_estimate(0.99) - 400.0).abs() < 1e-9);
        let empty = HistogramData {
            bounds: vec![1],
            counts: vec![0, 0],
            count: 0,
            sum: 0,
            max: 0,
        };
        assert_eq!(empty.quantile_estimate(0.5), 0.0);
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("scanner.probes_sent"), Some(42));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("netsim.queue_depth_max"), Some(9.9));
        assert!(snap.has_nonzero_counter("scanner."));
        assert!(!snap.has_nonzero_counter("netsim."));
    }
}
