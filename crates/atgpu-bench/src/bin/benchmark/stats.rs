//! Order statistics for timing samples: medians, percentiles gated by the
//! "at least ten samples beyond" rule, the quartile spread the benchmark's
//! own steadiness check uses, and the per-position minimum of a repeated
//! sequence.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the figure is one or two outliers, not a property of the run.
pub const MIN_BEYOND: usize = 10;

/// Sorts timing samples ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, linearly
/// interpolated between ranks; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The `q`-quantile only when at least [`MIN_BEYOND`] samples lie beyond
/// it (`n·(1−q) ≥ 10`): p90 needs 100 samples, p99 needs 1000.
pub fn percentile_checked(sorted: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps 100 × (1 − 0.9) from flooring to 9.
    let beyond = (sorted.len() as f64 * (1.0 - q) + 1e-9).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| quantile(sorted, q))
}

/// Distance between the first and third quartile as a percentage of the
/// median — the steadiness figure reported as `bench.pass_iqr_pct`.
pub fn iqr_pct(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let med = quantile(&s, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    100.0 * (quantile(&s, 0.75) - quantile(&s, 0.25)) / med
}

/// The fastest sample seen at each position of a sequence of operations
/// that is repeated many times.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Floor(Vec<f64>);

impl Floor {
    /// Lowers position `i` to `sample` when that is faster.
    pub fn lower(&mut self, i: usize, sample: f64) {
        if self.0.len() <= i {
            self.0.resize(i + 1, f64::INFINITY);
        }
        self.0[i] = self.0[i].min(sample);
    }

    /// The fastest sample of every position.
    pub fn values(&self) -> &[f64] {
        &self.0
    }
}

/// Mean of samples (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = sorted((1..=101).map(f64::from).collect());
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.9), 91.0);
        assert_eq!(quantile(&s, 1.0), 101.0);
    }

    /// The "≥ 10 samples beyond" rule: a percentile is reported only when
    /// the sample is large enough for it.
    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = |n: usize| sorted((0..n).map(|i| i as f64).collect());
        assert!(percentile_checked(&s(99), 0.9).is_none());
        assert!(percentile_checked(&s(100), 0.9).is_some());
        assert!(percentile_checked(&s(999), 0.99).is_none());
        assert!(percentile_checked(&s(1000), 0.99).is_some());
        assert!(percentile_checked(&s(19), 0.5).is_none());
        assert!(percentile_checked(&s(20), 0.5).is_some());
    }

    #[test]
    fn floor_keeps_the_fastest_sample_of_each_position() {
        let mut f = Floor::default();
        for (i, sample) in [(0, 5.0), (2, 9.0), (0, 3.0), (2, 11.0), (1, 4.0), (0, 3.5)] {
            f.lower(i, sample);
        }
        assert_eq!(f.values(), [3.0, 4.0, 9.0]);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[5.0; 8]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
