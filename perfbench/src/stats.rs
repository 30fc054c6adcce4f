//! Order statistics with their sample counts.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Index of the `q`-quantile in `n` sorted samples: `⌊(n−1)·q⌋`, the
/// rule `IngressReport` uses for its p50/p99, so the two can be
/// compared sample for sample.
pub fn quantile_index(n: usize, q: f64) -> usize {
    ((n.saturating_sub(1)) as f64 * q) as usize
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond the
/// `q`-quantile.
fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - quantile_index(n, q) >= MIN_BEYOND
}

/// The highest quantile of `ladder` with at least [`MIN_BEYOND`] of
/// `n` samples beyond it, or `None` when even the lowest has fewer.
pub fn highest_supported(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder.iter().copied().filter(|&q| supports(n, q)).reduce(f64::max)
}

/// The standard ladder timings are reported against.
pub const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// A percentile of a sample, with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The quantile, `0.0..=1.0`.
    pub q: f64,
    /// The sample value at that quantile.
    pub value: f64,
    /// Samples.
    pub n: usize,
}

/// The `q`-quantile of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pct> {
    let n = sorted.len();
    supports(n, q).then(|| Pct { q, value: sorted[quantile_index(n, q)], n })
}

/// The highest percentile of [`LADDER`] the sample supports.
pub fn tail(sorted: &[f64]) -> Option<Pct> {
    percentile(sorted, highest_supported(sorted.len(), &LADDER)?)
}

/// The `q`-quantile of `sorted` if the sample supports it; otherwise the
/// highest lower percentile of [`LADDER`] it supports; otherwise its
/// maximum (`q = 1`, 0 when empty). For layer timings, whose sample
/// shrinks when consensus stalls.
pub fn at_most(sorted: &[f64], q: f64) -> Pct {
    let ladder: Vec<f64> = LADDER.iter().copied().filter(|&l| l <= q).collect();
    highest_supported(sorted.len(), &ladder).and_then(|q| percentile(sorted, q)).unwrap_or(Pct {
        q: 1.0,
        value: sorted.last().copied().unwrap_or(0.0),
        n: sorted.len(),
    })
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Sorts a sample for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // ⌊(n−1)·0.99⌋ is index 891 of 902 samples, ten beyond it, and
        // index 891 of 901, nine beyond it.
        assert_eq!(highest_supported(902, &LADDER), Some(0.99));
        assert_eq!(highest_supported(901, &LADDER), Some(0.9));
        assert_eq!(highest_supported(9_002, &LADDER), Some(0.999));
        assert_eq!(highest_supported(9_001, &LADDER), Some(0.99));
    }

    #[test]
    fn small_samples_support_no_percentile() {
        // The median of 20 samples is index 9, ten beyond; of 19, index 9.
        assert_eq!(highest_supported(92, &LADDER), Some(0.9));
        assert_eq!(highest_supported(91, &LADDER), Some(0.5));
        assert_eq!(highest_supported(20, &LADDER), Some(0.5));
        assert_eq!(highest_supported(19, &LADDER), None);
        assert_eq!(highest_supported(0, &LADDER), None);
    }

    #[test]
    fn percentile_reports_value_and_count() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = tail(&s).expect("1000 samples support p99");
        assert_eq!(p, Pct { q: 0.99, value: 989.0, n: 1000 });
        assert_eq!(percentile(&s[..901], 0.99), None);
    }

    #[test]
    fn at_most_falls_back_to_what_the_sample_supports() {
        let s: Vec<f64> = (0..901).map(f64::from).collect();
        assert_eq!(at_most(&s, 0.99).q, 0.9);
        let full: Vec<f64> = (0..902).map(f64::from).collect();
        assert_eq!(at_most(&full, 0.99), Pct { q: 0.99, value: 891.0, n: 902 });
        assert_eq!(at_most(&s[..5], 0.99), Pct { q: 1.0, value: 4.0, n: 5 });
        assert_eq!(at_most(&[], 0.99), Pct { q: 1.0, value: 0.0, n: 0 });
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
