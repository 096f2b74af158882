//! Order statistics used by every workload: median, nearest-rank
//! percentiles, and the quartile spread the acceptance rule is stated in.

/// Median of `values` (mean of the two middle samples for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quartile on the fast side of repeated measurements of the same
/// work: the lower quartile of times, the upper quartile of rates
/// (`higher_is_better`). Interference from the host only ever slows a
/// unit down, and on a shared machine it comes in phases that can cover
/// half a run, so the fast-side quartile is a steadier estimate of what
/// the code costs than the median. Fewer than four samples give the best.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let from_best = (v.len() - 1) / 4;
    if higher_is_better {
        v[v.len() - 1 - from_best]
    } else {
        v[from_best]
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the sample at
/// rank `ceil(p × n)` (1-based). With fewer than `1 / (1 − p)` samples
/// this is the maximum.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of p50, p90, p99, p99.9, p99.99 that still has at least ten
/// samples beyond it — the tail a sample of this size supports. `None`
/// when not even the median has ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method). This
/// is the spread the benchmark's bounds are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Python's exclusive method: rank k(n+1)/4 (1-based), the lower
        // neighbour clamped to 1..n-1, linear inter- or extrapolation.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fast_quartile_ignores_slow_phases() {
        // Ten passes, six of them slowed by a noisy neighbour.
        let times = [1.0, 1.4, 1.01, 1.5, 1.45, 0.99, 1.38, 1.02, 1.41, 1.6];
        assert_eq!(fast_quartile(&times, false), 1.01);
        assert!(median(&times) > 1.3);
        let rates = [100.0, 70.0, 99.0, 66.0, 101.0, 98.0, 71.0];
        assert_eq!(fast_quartile(&rates, true), 100.0);
        assert_eq!(fast_quartile(&[3.0, 2.0, 4.0], false), 2.0);
        assert_eq!(fast_quartile(&[5.0], true), 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        // Five samples: the nearest-rank p99 is the maximum.
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1 000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        // 20 samples: only the median has ten beyond it; 19 do not.
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: two
        // samples extrapolate, as Python does.
        assert!((iqr_share(&[1.0, 2.0]) - 1.5 / 1.5).abs() < 1e-12);
    }
}
