//! Order statistics for the samples the benchmark collects.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice so a layer that was not exercised reports 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0 < p ≤ 100) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
/// 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n ≥ 1` samples:
/// `⌈p·n/100⌉`, clamped to `1..=n`. The small subtraction keeps a product
/// that is a whole number in exact arithmetic (99.9 % of 2 000) from being
/// rounded up by the last bit of its floating-point value.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The percentiles a latency report may quote, highest first.
pub const REPORTABLE: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`REPORTABLE`] that still has at least ten
/// samples beyond it (the rule a tail figure must meet to be quoted);
/// `None` when even the median has fewer than ten samples above it.
pub fn highest_reportable(n: usize) -> Option<f64> {
    REPORTABLE.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, interpolated, clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median: the spread figure
/// the acceptance check uses. 0 when there are too few samples or the
/// median is 0.
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Least-squares slope of `y` against `x`; 0 when `x` does not vary.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in xs[..n].iter().zip(&ys[..n]) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        // 2000 samples leave exactly 100 beyond p95 and 20 beyond p99,
        // but only 2 beyond p99.9.
        assert_eq!(samples_beyond(2000, 95.0), 100);
        assert_eq!(samples_beyond(2000, 99.0), 20);
        assert_eq!(samples_beyond(2000, 99.9), 2);
        assert_eq!(highest_reportable(2000), Some(99.0));
        // 200 samples: p95 has exactly ten beyond, p99 only two.
        assert_eq!(highest_reportable(200), Some(95.0));
        assert_eq!(highest_reportable(199), Some(90.0));
        // 110 samples (an offline run): p90 has eleven beyond.
        assert_eq!(highest_reportable(110), Some(90.0));
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) -> [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0]), 0.0);
    }

    #[test]
    fn slope_of_a_line() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 0.25 * x).collect();
        assert!((slope(&xs, &ys) - 0.25).abs() < 1e-12);
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 5.0]), 0.0);
    }
}
