//! Medians, quartiles and the tail-percentile rule.

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
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

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so `compare` and the driver agree.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, pct) - 1],
    }
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // 99.9 % of 10 000 is 9990.000000000002 in floating point; the slack
    // keeps that from rounding up to rank 9991.
    let exact = pct / 100.0 * n as f64;
    ((exact - 1e-6).ceil() as usize).clamp(1, n)
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_PCTS: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest of [`TAIL_PCTS`] that still has at least ten samples beyond
/// it, with its value: a percentile resting on fewer samples is noise.
/// Falls back to the median when even that has fewer than ten beyond.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    let pct = TAIL_PCTS
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
        .unwrap_or(TAIL_PCTS[0]);
    (pct, percentile(sorted, pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 leaves 1.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), (99.0, 990));
        // 999 samples: p99 has rank 990, 9 beyond -> p95.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v).0, 95.0);
        // 10_000 samples: p99.9 leaves exactly 10.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v), (99.9, 9990));
        // 100_000 samples reach the last rung.
        let v: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&v).0, 99.99);
        // 20 samples: p50 leaves 10; 19 samples leave 9 -> still the median.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&v), (50.0, 10));
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(tail(&v), (50.0, 10));
        assert_eq!(tail(&[]), (50.0, 0));
    }
}
