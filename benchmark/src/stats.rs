//! Order statistics and the log-log slope used by the reports. (Nearest-rank
//! percentiles and the plain least-squares slope come from
//! `ssr_workloads::stats`.)

/// Median; the mean of the two middle values for an even count. A failed
/// run enters as `+inf`, so a median is finite only while fewer than half
/// the samples failed.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method), so `compare` judges spread the way the driver
/// does. Zero for fewer than two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let quartile = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `b` of the
/// fit `y = a * x^b`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "a slope needs two points");
    let (ln_x, ln_y): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    ssr_workloads::stats::slope(&ln_x, &ln_y)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_failed_runs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // one failed run of five leaves the median finite
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, f64::INFINITY]), 3.0);
        // half failed: the median is a failure too, never NaN
        assert_eq!(median(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(median(&[f64::INFINITY, f64::INFINITY]), f64::INFINITY);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn loglog_slope_recovers_the_exponent() {
        let pts: Vec<(f64, f64)> = [125.0, 250.0, 500.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powf(2.25)))
            .collect();
        assert!((loglog_slope(&pts) - 2.25).abs() < 1e-9);
        assert!((loglog_slope(&[(1.0, 5.0), (10.0, 5.0)])).abs() < 1e-12);
    }
}
