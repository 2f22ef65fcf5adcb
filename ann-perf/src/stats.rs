//! Order statistics for the benchmark's timings.
//!
//! Percentiles are nearest-rank over the raw samples (no histogram, so no
//! bucket error). A percentile is *supported* only when at least
//! [`MIN_BEYOND`] samples lie beyond it; the harness refuses to gate on an
//! unsupported one.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
/// Returns `NaN` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank && n - rank >= MIN_BEYOND
}

/// Smallest sample count that [`supports`] percentile `q`.
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
}

/// Sorted copy of a sample set.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample set (`NaN` when empty). The mean of the two
/// middle values for even counts, as `statistics.median` gives it.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile with the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance procedure uses. `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the acceptance procedure compares with a metric's bound.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.999), 10_000);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!(quartiles(&[1.0]).is_none());
    }
}
