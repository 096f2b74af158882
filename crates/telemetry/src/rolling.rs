//! Rolling per-second latency windows and SLO burn-rate math.
//!
//! A [`RollingWindow`] is a fixed ring of one-second slots. The caller
//! supplies the clock as whole seconds since an arbitrary epoch (the
//! serve daemon uses seconds since process start), which keeps the
//! structure free of wall-clock reads and unit-testable with plain
//! integers. Merging the slots inside a window yields a
//! [`WindowStats`]: sample count, error count, over-objective count,
//! and a bucketed latency distribution whose quantiles come from the
//! same interpolation as the snapshot histograms.
//!
//! [`SloSpec`] holds the configured objectives (`p99=5ms,err=0.1%`),
//! and [`BurnState`] evaluates them SRE-style over two windows: the
//! burn rate is the observed bad fraction divided by the error budget,
//! and the objective is *breached* when both the fast and the slow
//! window burn faster than [`BURN_THRESHOLD`] with at least
//! [`MIN_SAMPLES`] fast-window samples — a one-request blip cannot
//! flip health, and recovery is automatic once the fast window rolls
//! past the bad traffic.

use crate::snapshot::HistogramData;

/// Latency bucket bounds in microseconds, shared by the rolling
/// windows and the `serve.latency_us` snapshot histograms so the two
/// views of the distribution agree.
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000,
];

/// Ring capacity in one-second slots; must cover the slow window.
const SLOTS: usize = 128;

/// Fast burn window (seconds): catches an ongoing incident quickly.
pub const FAST_WINDOW_S: u64 = 10;

/// Slow burn window (seconds): confirms the incident is sustained.
pub const SLOW_WINDOW_S: u64 = 60;

/// Both windows must burn at least this many times faster than the
/// error budget allows before health degrades.
pub const BURN_THRESHOLD: f64 = 14.0;

/// Minimum fast-window samples before a breach can be declared.
pub const MIN_SAMPLES: u64 = 10;

#[derive(Debug, Clone)]
struct Slot {
    /// Which second this slot currently holds; stale slots are reset
    /// lazily when the ring wraps onto them.
    second: u64,
    counts: [u64; LATENCY_BOUNDS_US.len() + 1],
    total: u64,
    errors: u64,
    over: u64,
    sum_us: u64,
    max_us: u64,
}

impl Slot {
    const EMPTY: Slot = Slot {
        second: u64::MAX,
        counts: [0; LATENCY_BOUNDS_US.len() + 1],
        total: 0,
        errors: 0,
        over: 0,
        sum_us: 0,
        max_us: 0,
    };

    fn reset(&mut self, second: u64) {
        *self = Slot::EMPTY;
        self.second = second;
    }
}

/// Merged view of every slot inside one window.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Requests observed in the window.
    pub count: u64,
    /// Requests that returned a 5xx (or transport-level failure).
    pub errors: u64,
    /// Requests slower than the latency objective.
    pub over: u64,
    /// Sum of latencies (µs).
    pub sum_us: u64,
    /// Slowest request (µs), exact.
    pub max_us: u64,
    counts: [u64; LATENCY_BOUNDS_US.len() + 1],
}

impl WindowStats {
    /// Bucket-interpolated latency quantile estimate in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let h = HistogramData {
            bounds: LATENCY_BOUNDS_US.to_vec(),
            counts: self.counts.to_vec(),
            count: self.count,
            sum: self.sum_us,
            max: self.max_us,
        };
        h.quantile_estimate(q)
    }

    /// Errors as a fraction of the window's requests (0 when idle).
    pub fn error_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.errors as f64 / self.count as f64
        }
    }

    /// Over-latency-objective requests as a fraction (0 when idle).
    pub fn over_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.over as f64 / self.count as f64
        }
    }
}

/// A fixed ring of one-second latency slots. Not thread-safe by
/// itself; the serve daemon wraps one per endpoint in a mutex.
#[derive(Debug)]
pub struct RollingWindow {
    slots: Vec<Slot>,
}

impl Default for RollingWindow {
    fn default() -> RollingWindow {
        RollingWindow::new()
    }
}

impl RollingWindow {
    /// An empty ring covering the last `SLOTS` seconds.
    pub fn new() -> RollingWindow {
        RollingWindow {
            slots: vec![Slot::EMPTY; SLOTS],
        }
    }

    /// Records one request at second `now_s`: its latency, whether it
    /// errored, and whether it exceeded the latency objective.
    pub fn observe(&mut self, now_s: u64, lat_us: u64, error: bool, over: bool) {
        let slot = &mut self.slots[(now_s % SLOTS as u64) as usize];
        if slot.second != now_s {
            slot.reset(now_s);
        }
        let i = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| lat_us <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        slot.counts[i] += 1;
        slot.total += 1;
        slot.sum_us += lat_us;
        slot.max_us = slot.max_us.max(lat_us);
        if error {
            slot.errors += 1;
        }
        if over {
            slot.over += 1;
        }
    }

    /// Merges the slots for seconds `(now_s - width_s, now_s]`.
    pub fn window(&self, now_s: u64, width_s: u64) -> WindowStats {
        let width = width_s.min(SLOTS as u64);
        let mut stats = WindowStats::default();
        let first = now_s.saturating_sub(width.saturating_sub(1));
        for second in first..=now_s {
            let slot = &self.slots[(second % SLOTS as u64) as usize];
            if slot.second != second {
                continue; // stale or never-filled slot
            }
            for (acc, n) in stats.counts.iter_mut().zip(&slot.counts) {
                *acc += n;
            }
            stats.count += slot.total;
            stats.errors += slot.errors;
            stats.over += slot.over;
            stats.sum_us += slot.sum_us;
            stats.max_us = stats.max_us.max(slot.max_us);
        }
        stats
    }
}

// ------------------------------------------------------------------- SLO

/// Parsed service-level objectives: a p99 latency target and/or an
/// error-rate target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// 99% of requests must finish within this many microseconds.
    pub p99_us: Option<u64>,
    /// At most this many requests per million may error.
    pub err_ppm: Option<u64>,
}

impl SloSpec {
    /// Parses `p99=5ms,err=0.1%` (durations take `us`/`ms`/`s`
    /// suffixes, the error target is a percentage).
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let mut out = SloSpec {
            p99_us: None,
            err_ppm: None,
        };
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}` is not key=value"))?;
            match key.trim() {
                "p99" => out.p99_us = Some(parse_duration_us(value.trim())?),
                "err" => out.err_ppm = Some(parse_percent_ppm(value.trim())?),
                other => {
                    return Err(format!(
                        "unknown objective `{other}` (expected p99=<dur> or err=<pct>%)"
                    ))
                }
            }
        }
        if out.p99_us.is_none() && out.err_ppm.is_none() {
            return Err("empty SLO spec (expected e.g. p99=5ms,err=0.1%)".to_string());
        }
        Ok(out)
    }

    /// Renders the spec back in `--slo` syntax.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(us) = self.p99_us {
            parts.push(format!("p99={us}us"));
        }
        if let Some(ppm) = self.err_ppm {
            parts.push(format!("err={}.{:04}%", ppm / 10_000, ppm % 10_000));
        }
        parts.join(",")
    }
}

fn parse_duration_us(s: &str) -> Result<u64, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (s, 1) // bare number: microseconds
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("`{s}` is not a duration (try 5ms, 250us, 1s)"))
}

fn parse_percent_ppm(s: &str) -> Result<u64, String> {
    let digits = s.strip_suffix('%').unwrap_or(s);
    let pct = digits
        .parse::<f64>()
        .map_err(|_| format!("`{s}` is not a percentage (try 0.1%)"))?;
    if !(0.0..=100.0).contains(&pct) {
        return Err(format!("`{s}` is out of range (0%..=100%)"));
    }
    Ok((pct * 10_000.0).round() as u64)
}

/// One window's burn evaluation against an [`SloSpec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowBurn {
    /// Latency burn: over-objective fraction / latency error budget.
    pub latency: f64,
    /// Error burn: error fraction / error budget.
    pub error: f64,
    /// Samples the window held.
    pub count: u64,
}

impl WindowBurn {
    /// The worse of the two burn components.
    pub fn worst(&self) -> f64 {
        self.latency.max(self.error)
    }
}

/// Multi-window burn-rate state for one endpoint set.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurnState {
    /// Burn over the last [`FAST_WINDOW_S`] seconds.
    pub fast: WindowBurn,
    /// Burn over the last [`SLOW_WINDOW_S`] seconds.
    pub slow: WindowBurn,
}

impl BurnState {
    /// Evaluates both windows of `win` against `slo` at second `now_s`.
    pub fn evaluate(win: &RollingWindow, slo: &SloSpec, now_s: u64) -> BurnState {
        BurnState {
            fast: burn(&win.window(now_s, FAST_WINDOW_S), slo),
            slow: burn(&win.window(now_s, SLOW_WINDOW_S), slo),
        }
    }

    /// True when the objective is breached: both windows burning past
    /// [`BURN_THRESHOLD`] with enough fast-window evidence.
    pub fn breached(&self) -> bool {
        self.fast.count >= MIN_SAMPLES
            && self.fast.worst() >= BURN_THRESHOLD
            && self.slow.worst() >= BURN_THRESHOLD
    }
}

/// Burn of one window: bad fraction divided by the budget each
/// objective allows. A p99 target budgets 1% of requests over the
/// latency bound; an error target budgets its own percentage.
fn burn(stats: &WindowStats, slo: &SloSpec) -> WindowBurn {
    let mut b = WindowBurn {
        count: stats.count,
        ..WindowBurn::default()
    };
    if slo.p99_us.is_some() {
        b.latency = stats.over_fraction() / 0.01;
    }
    if let Some(ppm) = slo.err_ppm {
        let budget = (ppm as f64 / 1_000_000.0).max(1e-9);
        b.error = stats.error_fraction() / budget;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_merges_only_requested_seconds() {
        let mut w = RollingWindow::new();
        w.observe(10, 100, false, false);
        w.observe(11, 200, false, false);
        w.observe(25, 400, true, true);
        let recent = w.window(25, FAST_WINDOW_S);
        assert_eq!((recent.count, recent.errors, recent.over), (1, 1, 1));
        assert_eq!(recent.sum_us, 400);
        let all = w.window(25, SLOW_WINDOW_S);
        assert_eq!(all.count, 3);
        assert_eq!(all.sum_us, 700);
        assert_eq!(all.max_us, 400);
    }

    #[test]
    fn ring_wrap_discards_stale_slots() {
        let mut w = RollingWindow::new();
        w.observe(5, 100, false, false);
        // Second 5 + SLOTS lands on the same slot; the old second must
        // not leak into the new window.
        w.observe(5 + SLOTS as u64, 300, false, false);
        let stats = w.window(5 + SLOTS as u64, 1);
        assert_eq!(stats.count, 1);
        assert_eq!(stats.sum_us, 300);
    }

    #[test]
    fn quantiles_come_from_the_merged_distribution() {
        let mut w = RollingWindow::new();
        for _ in 0..90 {
            w.observe(50, 80, false, false);
        }
        for _ in 0..10 {
            w.observe(50, 40_000, false, false);
        }
        let stats = w.window(50, FAST_WINDOW_S);
        assert!(stats.quantile_us(0.50) <= 100.0);
        assert!(stats.quantile_us(0.99) > 1_000.0);
        assert_eq!(stats.max_us, 40_000);
    }

    #[test]
    fn slo_spec_parses_and_renders() {
        let slo = SloSpec::parse("p99=5ms,err=0.1%").unwrap();
        assert_eq!(slo.p99_us, Some(5_000));
        assert_eq!(slo.err_ppm, Some(1_000));
        assert_eq!(SloSpec::parse("p99=250us").unwrap().p99_us, Some(250));
        assert_eq!(SloSpec::parse("p99=1s").unwrap().p99_us, Some(1_000_000));
        assert_eq!(SloSpec::parse("p99=0ms").unwrap().p99_us, Some(0));
        assert_eq!(SloSpec::parse("err=2%").unwrap().err_ppm, Some(20_000));
        assert!(SloSpec::parse("").is_err());
        assert!(SloSpec::parse("p42=1ms").is_err());
        assert!(SloSpec::parse("err=banana").is_err());
        assert!(SloSpec::parse("err=120%").is_err());
        assert!(SloSpec::parse("p99=18446744073710s").is_err());
        assert!(SloSpec::parse("p99=18446744073709552ms").is_err());
        assert_eq!(slo.render(), "p99=5000us,err=0.1000%");
    }

    #[test]
    fn burn_breaches_only_with_sustained_evidence() {
        let slo = SloSpec::parse("p99=0us,err=1%").unwrap();
        let mut w = RollingWindow::new();
        // A single bad request: burn is huge but MIN_SAMPLES gates it.
        w.observe(100, 500, false, true);
        let one = BurnState::evaluate(&w, &slo, 100);
        assert!(one.fast.worst() >= BURN_THRESHOLD);
        assert!(!one.breached(), "one sample must not flip health");
        // Sustained bad traffic: breach.
        for i in 0..20 {
            w.observe(100 + (i % 3), 500, false, true);
        }
        let sustained = BurnState::evaluate(&w, &slo, 102);
        assert!(sustained.breached());
        // 200 seconds later the windows have rolled clean: recovered.
        let later = BurnState::evaluate(&w, &slo, 300);
        assert!(!later.breached());
        assert_eq!(later.fast.count, 0);
    }

    #[test]
    fn healthy_traffic_never_burns() {
        let slo = SloSpec::parse("p99=10ms,err=1%").unwrap();
        let mut w = RollingWindow::new();
        for i in 0..100u64 {
            w.observe(10 + i % 5, 200, false, false);
        }
        let state = BurnState::evaluate(&w, &slo, 14);
        assert_eq!(state.fast.worst(), 0.0);
        assert!(!state.breached());
    }
}
