//! Medians, quartiles and percentiles, with the rule that a tail percentile
//! is reported only when at least ten samples lie beyond it.

/// Samples that must lie beyond a percentile before it may be reported.
pub const SAMPLES_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(xs, n=4)` computes them (its default `exclusive`
/// method), so a spread measured here equals the one a Python caller sees.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The interquartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are compared with.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The nearest-rank percentile `p` (in `0..=1`); 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] beyond percentile
/// `p`.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + SAMPLES_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), Some(5.5 / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
        // Eighty iterations support no p99, nor even a p90.
        assert!(!supports(80, 0.99) && !supports(80, 0.9));
    }
}
