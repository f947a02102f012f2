//! Lazy Sliding Window (§III-B.5): re-mine every `period` blocks.
//!
//! "Instead of updating the rule set after every block, this approach
//! updates after the rule set has been used for a fixed number of
//! blocks." The paper runs it with a period of 10 and measures the
//! characteristic sawtooth of Figure 3: fresh rule sets start strong and
//! decay until the next scheduled regeneration, averaging ≈0.59 for both
//! coverage and success (experiment E4).

use super::{Strategy, Trial};
use arq_assoc::pairs::{PairMiner, RuleSet};
use arq_assoc::ruleset_test;
use arq_trace::record::PairRecord;

/// The fixed-period re-miner.
#[derive(Debug, Clone)]
pub struct LazySlidingWindow {
    min_support: u64,
    period: usize,
    rules: RuleSet,
    miner: PairMiner,
    used_for: usize,
    regenerations: u64,
}

impl LazySlidingWindow {
    /// Creates the strategy regenerating every `period` trials.
    pub fn new(min_support: u64, period: usize) -> Self {
        assert!(period >= 1, "period must be at least one block");
        LazySlidingWindow {
            min_support,
            period,
            rules: RuleSet::empty(),
            miner: PairMiner::new(),
            used_for: 0,
            regenerations: 0,
        }
    }

    /// Rule-set generations performed so far (excluding warm-up).
    pub fn regenerations(&self) -> u64 {
        self.regenerations
    }
}

impl Strategy for LazySlidingWindow {
    fn name(&self) -> String {
        format!("lazy(s={},p={})", self.min_support, self.period)
    }

    fn warm_up(&mut self, block: &[PairRecord]) {
        self.rules = self.miner.mine(block, self.min_support);
        self.used_for = 0;
    }

    fn test_and_update(&mut self, block: &[PairRecord]) -> Trial {
        let measures = ruleset_test(&self.rules, block);
        let rule_count = self.rules.rule_count();
        self.used_for += 1;
        let regenerated = self.used_for >= self.period;
        if regenerated {
            self.rules = self.miner.mine(block, self.min_support);
            self.used_for = 0;
            self.regenerations += 1;
        }
        Trial {
            measures,
            regenerated,
            rule_count,
            rules_after: self.rules.rule_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::routed_block;
    use super::*;

    #[test]
    fn period_one_behaves_like_sliding() {
        let mut lazy = LazySlidingWindow::new(2, 1);
        let mut sliding = crate::strategy::SlidingWindow::new(2);
        lazy.warm_up(&routed_block(0, 100, 5, 100));
        sliding.warm_up(&routed_block(0, 100, 5, 100));
        for i in 1..6 {
            let block = routed_block(i * 1_000, 100, 5, 100 + (i as u32 % 2) * 100);
            let a = lazy.test_and_update(&block);
            let b = sliding.test_and_update(&block);
            assert_eq!(a.measures, b.measures, "block {i}");
            assert!(a.regenerated);
        }
    }

    #[test]
    fn regenerates_exactly_on_schedule() {
        let mut s = LazySlidingWindow::new(2, 3);
        s.warm_up(&routed_block(0, 100, 5, 100));
        let flags: Vec<bool> = (1..=9)
            .map(|i| {
                s.test_and_update(&routed_block(i * 1_000, 100, 5, 100))
                    .regenerated
            })
            .collect();
        assert_eq!(
            flags,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(s.regenerations(), 3);
    }

    #[test]
    fn stale_between_regenerations_fresh_after() {
        let mut s = LazySlidingWindow::new(2, 3);
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Routes change immediately; the next three trials miss.
        for i in 1..=3 {
            let t = s.test_and_update(&routed_block(i * 1_000, 100, 5, 200));
            assert_eq!(t.measures.success(), 0.0, "trial {i}");
        }
        // Regeneration happened at trial 3; trial 4 succeeds.
        let t = s.test_and_update(&routed_block(4_000, 100, 5, 200));
        assert_eq!(t.measures.success(), 1.0);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rejects_zero_period() {
        LazySlidingWindow::new(2, 0);
    }

    /// Lazy with period 1 equals sliding trial for trial on random
    /// streams too.
    #[test]
    fn period_one_equals_sliding_on_random_streams() {
        use crate::eval::evaluate;
        let mut rng = arq_simkern::Rng64::seed_from(0x1A2);
        for case in 0..40 {
            let block = 20 + rng.index(40);
            let len = 2 * block + rng.index(340);
            let stream = super::super::testutil::random_stream(&mut rng, len);
            let a = evaluate(&mut LazySlidingWindow::new(2, 1), &stream, block);
            let b = evaluate(&mut crate::strategy::SlidingWindow::new(2), &stream, block);
            assert_eq!(a.coverage.ys(), b.coverage.ys(), "case {case}");
            assert_eq!(a.success.ys(), b.success.ys(), "case {case}");
        }
    }
}
