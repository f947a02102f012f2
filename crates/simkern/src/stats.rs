//! Streaming statistics.
//!
//! Every experiment in the workspace reports summary statistics over
//! per-trial measurements (coverage, success, messages per query, hop
//! counts…). This module provides the accumulators used for that:
//! numerically stable Welford mean/variance, a fixed-bucket histogram and
//! an exact-quantile summary.

use crate::json::{Json, ToJson};

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long streams; O(1) per observation.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A complete summary of a finished sample: moments plus exact quantiles.
///
/// Built from a slice in O(n log n); intended for end-of-experiment
/// reporting rather than hot loops.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` for an empty slice.
    pub fn of(sample: &[f64]) -> Option<Summary> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let mut w = Welford::new();
        for &x in sample {
            w.push(x);
        }
        Some(Summary {
            count: sorted.len(),
            mean: w.mean(),
            stddev: w.stddev(),
            min: sorted[0],
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.50),
            p75: quantile(&sorted, 0.75),
            p95: quantile(&sorted, 0.95),
            max: *sorted.last().unwrap(),
        })
    }
}

/// Linear-interpolated quantile of a **sorted** slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// A fixed-range, fixed-bucket histogram for positive measurements
/// (message counts, hop counts, latencies).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `n` equal buckets.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0, "degenerate histogram range");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total number of recorded observations (including out-of-range).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The inclusive lower edge of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.lo + width * i as f64
    }

    /// The range's lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The range's (exclusive) upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Linear-interpolated quantile estimate from the bucket counts, or
    /// `None` before any observation. Underflow observations are
    /// treated as `lo` and overflow as `hi` (clamped), so tail
    /// quantiles of a saturated histogram report the range edge rather
    /// than inventing values.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let pos = q * (self.count - 1) as f64;
        let mut seen = self.underflow as f64;
        if seen > pos {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && seen + c > pos {
                // Spread the bucket's mass uniformly across its width.
                let frac = (pos - seen) / c;
                return Some(self.lo + width * (i as f64 + frac));
            }
            seen += c;
        }
        Some(self.hi)
    }

    /// Rebuilds a histogram from its [`ToJson`] snapshot. The snapshot
    /// may come from a file, so every way it can be inconsistent is an
    /// error rather than a panic: a missing or mistyped field, a range
    /// that is not finite with `hi > lo`, no buckets, a count that is
    /// not a non-negative integer, or `count` ≠ underflow + overflow +
    /// Σbuckets.
    pub fn from_json(snapshot: &Json) -> Result<Histogram, String> {
        let bound = |key: &str| {
            snapshot
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram: missing or non-numeric `{key}`"))
        };
        let tally = |key: &str, value: Option<&Json>| match value {
            Some(Json::Int(n)) => {
                u64::try_from(*n).map_err(|_| format!("histogram: `{key}` {n} is not a count"))
            }
            _ => Err(format!("histogram: missing or non-integer `{key}`")),
        };
        let (lo, hi) = (bound("lo")?, bound("hi")?);
        if !(lo.is_finite() && hi.is_finite() && hi > lo) {
            return Err(format!("histogram: degenerate range [{lo}, {hi})"));
        }
        let buckets = snapshot
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or("histogram: missing `buckets` array")?
            .iter()
            .map(|b| tally("buckets", Some(b)))
            .collect::<Result<Vec<u64>, String>>()?;
        if buckets.is_empty() {
            return Err("histogram: empty `buckets`".to_string());
        }
        let underflow = tally("underflow", snapshot.get("underflow"))?;
        let overflow = tally("overflow", snapshot.get("overflow"))?;
        let count = tally("count", snapshot.get("count"))?;
        let recorded = buckets
            .iter()
            .chain([&underflow, &overflow])
            .try_fold(0u64, |sum, &n| sum.checked_add(n));
        if recorded != Some(count) {
            return Err(format!(
                "histogram: `count` {count} is not underflow + overflow + the bucket counts"
            ));
        }
        Ok(Histogram {
            lo,
            hi,
            buckets,
            underflow,
            overflow,
            count,
        })
    }
}

/// The snapshot persisted in obs registries and read back by
/// [`Histogram::from_json`].
impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lo", Json::Float(self.lo)),
            ("hi", Json::Float(self.hi)),
            (
                "buckets",
                Json::Arr(self.buckets.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("underflow", Json::from(self.underflow)),
            ("overflow", Json::from(self.overflow)),
            ("count", Json::from(self.count)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..313] {
            left.push(x);
        }
        for &x in &xs[313..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_welford_is_defined() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn summary_quantiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p25 - 25.75).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[3.0], 0.0), 3.0);
        assert_eq!(quantile(&[3.0], 1.0), 3.0);
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 25.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.buckets(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.bucket_lo(0), 0.0);
        assert_eq!(h.bucket_lo(4), 8.0);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for x in 0..100 {
            h.record(x as f64 + 0.5);
        }
        // Uniform fill: quantiles track the value range linearly (within
        // one bucket width of the exact answer).
        for (q, want) in [(0.0, 0.0), (0.5, 50.0), (0.95, 95.0), (1.0, 100.0)] {
            let got = h.quantile(q).unwrap();
            assert!((got - want).abs() <= 10.0, "q={q}: got {got}, want ~{want}");
        }
        assert_eq!(h.lo(), 0.0);
        assert_eq!(h.hi(), 100.0);
    }

    #[test]
    fn histogram_quantiles_clamp_out_of_range() {
        let mut h = Histogram::new(10.0, 20.0, 5);
        h.record(-5.0); // underflow
        h.record(99.0); // overflow
        assert_eq!(h.quantile(0.0), Some(10.0), "underflow clamps to lo");
        assert_eq!(h.quantile(1.0), Some(20.0), "overflow clamps to hi");
    }

    #[test]
    fn histogram_snapshot_round_trips() {
        let mut saturated = Histogram::new(10.0, 20.0, 5);
        for x in [-5.0, 3.0, 10.0, 11.5, 11.9, 14.0, 19.99, 20.0, 99.0] {
            saturated.record(x);
        }
        for h in [saturated, Histogram::new(0.0, 1.0, 3)] {
            // Through text, as `arq report` reads it back from a file.
            let text = h.to_json().to_string();
            let back = Histogram::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, h);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(back.quantile(q), h.quantile(q), "q = {q}");
            }
        }
    }

    #[test]
    fn malformed_histogram_snapshots_are_typed_errors() {
        let parse = |text: &str| Histogram::from_json(&crate::json::parse(text).unwrap());
        let good = r#"{"lo":0.0,"hi":4.0,"buckets":[1,2],"underflow":1,"overflow":0,"count":4}"#;
        assert!(parse(good).is_ok());
        for (bad, why) in [
            (
                good.replace(r#""hi":4.0"#, r#""hi":0.0"#),
                "degenerate range",
            ),
            (
                good.replace(r#""hi":4.0"#, r#""hi":-1.0"#),
                "degenerate range",
            ),
            (good.replace("[1,2]", "[]"), "empty `buckets`"),
            (good.replace("[1,2]", "[1,2.5]"), "non-integer `buckets`"),
            (
                good.replace(r#""count":4"#, r#""count":4.0"#),
                "non-integer `count`",
            ),
            (
                good.replace(r#""underflow":1"#, r#""underflow":-1"#),
                "not a count",
            ),
            (
                good.replace(r#""count":4"#, r#""count":5"#),
                "`count` 5 is not",
            ),
            (good.replace(r#""lo":0.0,"#, ""), "non-numeric `lo`"),
            (
                good.replace(r#","overflow":0"#, ""),
                "non-integer `overflow`",
            ),
            ("[]".to_string(), "non-numeric `lo`"),
        ] {
            let e = parse(&bad).unwrap_err();
            assert!(e.contains(why), "{bad}: {e}");
        }
    }

    /// Merging two accumulators equals one accumulation over the whole
    /// sample, at any split point.
    #[test]
    fn welford_merge_any_split() {
        let mut rng = Rng64::seed_from(0x3E1);
        for _ in 0..64 {
            let xs: Vec<f64> = (0..2 + rng.index(298))
                .map(|_| (rng.f64() * 2.0 - 1.0) * 1e6)
                .collect();
            let split = rng.index(xs.len() + 1);
            let (mut whole, mut a, mut b) = (Welford::new(), Welford::new(), Welford::new());
            xs.iter().for_each(|&x| whole.push(x));
            xs[..split].iter().for_each(|&x| a.push(x));
            xs[split..].iter().for_each(|&x| b.push(x));
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
            assert!(
                (a.variance() - whole.variance()).abs() < 1e-5 * (1.0 + whole.variance().abs())
            );
        }
    }

    /// Summary quantiles are ordered and bounded by the min and max.
    #[test]
    fn summary_quantiles_are_monotone() {
        let mut rng = Rng64::seed_from(0x3E2);
        for _ in 0..64 {
            let xs: Vec<f64> = (0..1 + rng.index(199))
                .map(|_| (rng.f64() * 2.0 - 1.0) * 1e4)
                .collect();
            let s = Summary::of(&xs).unwrap();
            let chain = [s.min, s.p25, s.p50, s.p75, s.p95, s.max];
            assert!(chain.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{chain:?}");
            assert!(s.mean >= s.min - 1e-12 && s.mean <= s.max + 1e-12);
        }
    }
}
