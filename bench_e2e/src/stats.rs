//! Order statistics for timings.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// closest ranks; NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First and third quartiles, as Python's `statistics.quantiles(xs, n=4)`
/// (the "exclusive" method) computes them. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // rank i·(n+1)/4, between (and, at the ends, beyond) two samples
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Percentiles a timing may be reported at, in tenths of a percent,
/// highest last.
const LADDER: [usize; 6] = [500, 900, 950, 980, 990, 999];

/// The highest percentile of the ladder (50, 90, 95, 98, 99, 99.9) that
/// leaves at least ten of `n` samples beyond it, or `None` when even the
/// median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .rev()
        .find(|&p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(120), Some(90.0));
        // 2% of 480 is 9.6 samples, one short of ten: p95 it is
        assert_eq!(tail_percentile(480), Some(95.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
