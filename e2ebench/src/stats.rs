//! Order statistics for the benchmark's own reporting.

/// Nearest-rank percentile (`p` in `0..=100`) of values in any order.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method), so the A/A table matches the driver's arithmetic.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Tail percentiles a latency summary may report, ascending, in per mille so
/// "ten samples beyond" is integer arithmetic.
const TAILS_PER_MILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest percentile of `n` samples that still has at least ten samples
/// beyond it; `None` below 40 samples, where even p75 has fewer.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rfind(|t| n * (1000 - **t) / 1000 >= 10)
        .map(|t| *t as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // The old summary called the max of 8 samples "p99".
        assert_eq!(highest_supported_tail(8), None);
        assert_eq!(highest_supported_tail(40), Some(75.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
