// Property tests require the external `proptest` crate; the feature is
// default-off so offline builds skip this file entirely.
#![cfg(feature = "proptest")]

//! Property-based tests for the simulation kernel.

use arq_simkern::time::Duration;
use arq_simkern::{Rng64, SimTime, Summary, Welford};
use proptest::prelude::*;

proptest! {
    /// Welford's merge is equivalent to sequential accumulation at any
    /// split point.
    #[test]
    fn welford_merge_any_split(
        xs in proptest::collection::vec(-1e6f64..1e6, 2..300),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (a.variance() - whole.variance()).abs() < 1e-5 * (1.0 + whole.variance().abs())
        );
    }

    /// Summary quantiles are ordered and bounded by min/max.
    #[test]
    fn summary_quantiles_are_monotone(xs in proptest::collection::vec(-1e4f64..1e4, 1..200)) {
        let s = Summary::of(&xs).unwrap();
        prop_assert!(s.min <= s.p25 + 1e-12);
        prop_assert!(s.p25 <= s.p50 + 1e-12);
        prop_assert!(s.p50 <= s.p75 + 1e-12);
        prop_assert!(s.p75 <= s.p95 + 1e-12);
        prop_assert!(s.p95 <= s.max + 1e-12);
        prop_assert!(s.mean >= s.min - 1e-12 && s.mean <= s.max + 1e-12);
    }

    /// `below(n)` is always in range and deterministic per seed.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = Rng64::seed_from(seed);
        let mut b = Rng64::seed_from(seed);
        for _ in 0..50 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }

    /// `sample_indices` returns exactly `min(k, n)` distinct in-range
    /// indices.
    #[test]
    fn sample_indices_properties(seed in any::<u64>(), n in 0usize..200, k in 0usize..200) {
        let mut rng = Rng64::seed_from(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), s.len());
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// SimTime arithmetic is associative for additions within range.
    #[test]
    fn simtime_addition_associative(a in 0u64..1 << 40, b in 0u64..1 << 20, c in 0u64..1 << 20) {
        let t = SimTime::from_ticks(a);
        let left = (t + Duration::from_ticks(b)) + Duration::from_ticks(c);
        let right = t + (Duration::from_ticks(b) + Duration::from_ticks(c));
        prop_assert_eq!(left, right);
    }
}
