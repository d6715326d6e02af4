//! Order statistics over timing samples.

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a timing: the highest percentile with at least ten samples
/// beyond it, as `(value, percentile)`. With fewer than 20 samples that
/// percentile would sit below the median, so the maximum (p100) is
/// reported instead.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(median(&xs), 20.5);
        // 10 samples (31..=40) lie beyond the 30th value: p75 of 40.
        assert_eq!(tail(&xs), (30.0, 75.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
