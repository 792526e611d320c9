//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// `p`-th percentile (0–100) by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(xs: &[f64], p: usize) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v[rank(v.len(), p) - 1]
}

/// The highest of p50/p90/p99 that has at least ten samples beyond it,
/// as `(label, value)`; `None` when there are fewer than 20 samples.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99), ("p90", 90), ("p50", 50)]
        .into_iter()
        .find(|&(_, p)| !xs.is_empty() && xs.len() - rank(xs.len(), p) >= 10)
        .map(|(label, p)| (label, percentile(xs, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(tail(&xs), Some(("p90", 90.0)));
        assert_eq!(tail(&xs[..19]), None);
    }
}
