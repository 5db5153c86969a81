//! Median, MAD and quartile spread of a handful of reps.

/// Median of `values` (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver computes over its ten runs, here over
/// the reps of one run. Quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (for three values: the
/// smallest and the largest). 0 for a single value or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Deviations from the median 10: 0, 1, 1, 2, 90 → MAD 1.
        assert_eq!(mad(&[10.0, 9.0, 11.0, 12.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        // statistics.quantiles([9, 10, 11], n=4) == [9.0, 10.0, 11.0]
        assert_eq!(quartile_spread(&[9.0, 10.0, 11.0]), 0.2);
        // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(quartile_spread(&[10.0, 1.0, 3.0, 2.0, 4.0]), 5.5 / 3.0);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartile_spread(&[1.0, 2.0, 4.0, 8.0]), 5.75 / 3.0);
        assert_eq!(quartile_spread(&[4.0]), 0.0);
        assert_eq!(quartile_spread(&[0.0, 0.0]), 0.0);
    }
}
