//! Adaptive threshold calculators.
//!
//! The Adaptive Sliding Window regenerates its rule set when measured
//! coverage or success falls below a threshold, and "in order to capture
//! the dynamic nature of the network, these thresholds are constantly
//! updated so that threshold values remain reasonable for all states of
//! the network. One simple method would be to use the mean of the
//! previous N values" (§III-B.6). [`ThresholdCalc`] implements exactly
//! that (with the paper's 0.7 as the value used before any history
//! exists); an EWMA variant is provided for the ablation benches.

use arq_simkern::Ewma;
use std::collections::VecDeque;

/// A self-adjusting threshold over a stream of measured values.
#[derive(Debug, Clone)]
pub enum ThresholdCalc {
    /// Mean of the last `n` observed values (the paper's method).
    MeanOfLast {
        /// Window length N.
        n: usize,
        /// Value returned before any observation arrives.
        initial: f64,
        /// Recent observations.
        window: VecDeque<f64>,
    },
    /// Exponentially weighted moving average (ablation variant).
    Ewma {
        /// Value returned before any observation arrives.
        initial: f64,
        /// The smoother.
        ewma: Ewma,
    },
}

impl ThresholdCalc {
    /// The paper's calculator: mean of the previous `n` values, starting
    /// from `initial` (0.7 in the paper's experiments).
    pub fn mean_of_last(n: usize, initial: f64) -> Self {
        assert!(n >= 1, "window must hold at least one value");
        ThresholdCalc::MeanOfLast {
            n,
            initial,
            window: VecDeque::with_capacity(n),
        }
    }

    /// EWMA calculator with smoothing factor `alpha`.
    pub fn ewma(alpha: f64, initial: f64) -> Self {
        ThresholdCalc::Ewma {
            initial,
            ewma: Ewma::new(alpha),
        }
    }

    /// The current threshold (before seeing the next measurement).
    ///
    /// Partial-window semantics, pinned: the paper specifies "the mean
    /// of the previous N values" with 0.7 used *before history exists*.
    /// Accordingly the initial value is returned **only** while the
    /// window is empty; from the first observation onward the threshold
    /// is the mean of however many values have arrived (1, 2, …, up to
    /// N). The initial is a stand-in for missing history, not a phantom
    /// N-th observation — it is never averaged in.
    pub fn value(&self) -> f64 {
        match self {
            ThresholdCalc::MeanOfLast {
                initial, window, ..
            } => {
                if window.is_empty() {
                    *initial
                } else {
                    window.iter().sum::<f64>() / window.len() as f64
                }
            }
            ThresholdCalc::Ewma { initial, ewma } => ewma.value().unwrap_or(*initial),
        }
    }

    /// Feeds the measurement taken this trial.
    pub fn push(&mut self, measured: f64) {
        match self {
            ThresholdCalc::MeanOfLast { n, window, .. } => {
                if window.len() == *n {
                    window.pop_front();
                }
                window.push_back(measured);
            }
            ThresholdCalc::Ewma { ewma, .. } => {
                ewma.push(measured);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_initial() {
        let t = ThresholdCalc::mean_of_last(10, 0.7);
        assert_eq!(t.value(), 0.7);
        let e = ThresholdCalc::ewma(0.3, 0.7);
        assert_eq!(e.value(), 0.7);
    }

    #[test]
    fn mean_of_last_tracks_window() {
        let mut t = ThresholdCalc::mean_of_last(3, 0.7);
        t.push(0.9);
        assert!((t.value() - 0.9).abs() < 1e-12);
        t.push(0.6);
        t.push(0.6);
        assert!((t.value() - 0.7).abs() < 1e-12);
        t.push(0.3); // evicts 0.9
        assert!((t.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_window_of_size_one() {
        // N = 1 is the smallest legal window: the threshold is simply
        // the last observation, and the initial matters only before the
        // first push.
        let mut t = ThresholdCalc::mean_of_last(1, 0.7);
        assert_eq!(t.value(), 0.7);
        t.push(0.2);
        assert!(
            (t.value() - 0.2).abs() < 1e-12,
            "initial must not be averaged in"
        );
        t.push(0.9);
        assert!((t.value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn partial_window_of_n_minus_one() {
        // N − 1 observations in an N-window: the mean is over the 9
        // actual values — neither the initial nor a zero pads the
        // denominator to N.
        let n = 10;
        let mut t = ThresholdCalc::mean_of_last(n, 0.7);
        for _ in 0..(n - 1) {
            t.push(0.5);
        }
        assert!(
            (t.value() - 0.5).abs() < 1e-12,
            "mean over 9 values of 0.5 must be 0.5, got {}",
            t.value()
        );
        // The N-th push completes the window without changing the
        // all-equal mean; the N+1-th starts evicting.
        t.push(0.5);
        assert!((t.value() - 0.5).abs() < 1e-12);
        t.push(1.0);
        assert!((t.value() - (0.5 * 9.0 + 1.0) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn longer_windows_react_slower() {
        let mut short = ThresholdCalc::mean_of_last(2, 0.7);
        let mut long = ThresholdCalc::mean_of_last(50, 0.7);
        for _ in 0..10 {
            short.push(0.9);
            long.push(0.9);
        }
        short.push(0.1);
        long.push(0.1);
        assert!(short.value() < long.value());
    }

    #[test]
    fn ewma_variant_converges() {
        let mut e = ThresholdCalc::ewma(0.5, 0.7);
        for _ in 0..30 {
            e.push(0.4);
        }
        assert!((e.value() - 0.4).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_window() {
        ThresholdCalc::mean_of_last(0, 0.7);
    }

    /// After any history, both calculators stay inside the range of the
    /// values they average: the last `n` for the mean, all of them for
    /// the EWMA.
    #[test]
    fn thresholds_within_observed_range() {
        let mut rng = arq_simkern::Rng64::seed_from(0x7E57);
        for _ in 0..100 {
            let n = 1 + rng.index(19);
            let values: Vec<f64> = (0..1 + rng.index(49)).map(|_| rng.f64()).collect();
            let mut mean = ThresholdCalc::mean_of_last(n, 0.7);
            let mut ewma = ThresholdCalc::ewma(0.3, 0.7);
            for (i, &v) in values.iter().enumerate() {
                mean.push(v);
                ewma.push(v);
                let range = |seen: &[f64], t: f64| {
                    let lo = seen.iter().copied().fold(f64::MAX, f64::min);
                    let hi = seen.iter().copied().fold(f64::MIN, f64::max);
                    t >= lo - 1e-12 && t <= hi + 1e-12
                };
                assert!(range(&values[(i + 1).saturating_sub(n)..=i], mean.value()));
                assert!(range(&values[..=i], ewma.value()));
            }
        }
    }
}
