//! Order statistics over timing samples.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle samples for an even count.
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "percentile of no samples");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    s[rank.clamp(1, n) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the acceptance rule for this benchmark is stated in those
/// terms). Fewer than two samples have no spread: both quartiles are the
/// sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "quartiles of no samples");
    if n < 2 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_selects_middle_or_mean_of_middles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 98.0), 98.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 10 samples: p98 is the largest one
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 98.0), 10.0);
        assert_eq!(percentile(&w, 50.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn iqr_frac_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }
}
