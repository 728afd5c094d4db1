//! The statistics the ledger reports and compares with.

/// The smallest sample.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).expect("at least one sample")
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "at least one sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The first decile: the sample at sorted index `⌊n / 10⌋`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn low_decile(xs: &[f64]) -> f64 {
    sorted(xs)[xs.len() / 10]
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with ten samples or fewer. With 250
/// samples that is p96: a tail figure from fewer than ten samples is one
/// slow repetition, not a percentile.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted(xs)[n - 11]))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) computes them — the driver uses exactly that.
///
/// # Panics
///
/// Panics with fewer than two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    assert!(len >= 2, "quartiles need two samples");
    let q = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// the driver holds against a metric's bound.
#[must_use]
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(low_decile(&forty), 5.0);
        assert_eq!(low_decile(&[9.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // Ten samples (2..=11) lie beyond the smallest.
        assert_eq!(tail(&eleven), Some((100.0 / 11.0, 1.0)));
        let many: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        assert_eq!(tail(&many), Some((96.0, 240.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
