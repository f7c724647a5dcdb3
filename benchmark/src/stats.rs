//! Order statistics over latency samples and over runs.

/// Sorts samples ascending (latencies are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `pct`-th percentile of ascending `sorted`, linearly interpolated
/// between the two nearest ranks.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The highest of p99/p95/p90/p75 that is at most `cap` and still has at
/// least ten of `samples` beyond it; 50 when not even p75 has.
///
/// A workload states its percentile up front (`cap`) so the reported
/// tail does not hop between percentiles when the sample count of a
/// timed run drifts across a threshold.
pub fn tail_pct(samples: usize, cap: u32) -> u32 {
    [99u32, 95, 90, 75]
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| samples * (100 - p as usize) / 100 >= 10)
        .unwrap_or(50)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values.to_vec());
    let len = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_pct(39, 99), 50);
        assert_eq!(tail_pct(40, 99), 75);
        assert_eq!(tail_pct(99, 99), 75);
        assert_eq!(tail_pct(100, 99), 90);
        assert_eq!(tail_pct(200, 99), 95);
        assert_eq!(tail_pct(999, 99), 95);
        assert_eq!(tail_pct(1000, 99), 99);
        // The workload's stated percentile caps the pick.
        assert_eq!(tail_pct(1000, 90), 90);
        assert_eq!(tail_pct(60, 95), 75);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert_eq!(quartiles(&[10.0, 12.0, 11.0]), Some([10.0, 11.0, 12.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
