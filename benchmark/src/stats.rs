//! Order statistics for timing samples.

use arq::simkern::stats::quantile;

/// Sorts a sample in place (timings are never NaN).
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(|a, b| a.partial_cmp(b).expect("timing sample holds a NaN"));
}

/// The `p`-th percentile (0–100) of an ascending sample, by linear
/// interpolation between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    quantile(sorted, p / 100.0)
}

/// Median of an unsorted sample.
pub fn median(sample: &[f64]) -> f64 {
    let mut sorted = sample.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 50.0)
}

/// The tail percentiles a report may quote, ascending, in hundredths of
/// a percent so that the count beyond each is exact integer arithmetic.
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// the `n` samples beyond it — a tail read off fewer is one outlier's
/// story. `None` below twenty samples, where not even the median has ten
/// beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|&&p| n as u64 * (10_000 - p) / 10_000 >= 10)
        .map(|&p| p as f64 / 100.0)
}

/// The tail percentile to report when `wanted` is asked for: `wanted`
/// itself when the sample supports it, else the highest one it does.
pub fn tail_percentile(n: usize, wanted: f64) -> Option<f64> {
    highest_supported_percentile(n).map(|p| p.min(wanted))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn picks_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(50_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        // A p99 request falls back when the sample is too small for it
        // and is not raised when the sample could support more.
        assert_eq!(tail_percentile(500, 99.0), Some(90.0));
        assert_eq!(tail_percentile(50_000, 99.0), Some(99.0));
    }
}
