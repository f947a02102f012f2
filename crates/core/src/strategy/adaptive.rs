//! Adaptive Sliding Window (§III-B.6): regenerate only when quality
//! drops below self-adjusting thresholds.
//!
//! ```text
//! ADAPTIVE-SLIDING-WINDOW
//! 1 for each block b
//! 2   do ct ← CALC-COVERAGE-THRESHOLD(b − 1)
//! 3      st ← CALC-SUCCESS-THRESHOLD(b − 1)
//! 4      results ← RULESET-TEST(R, b)
//! 5      if results[coverage] < ct then R ← GENERATE-RULESET(b)
//! 6      else if results[success] < st then R ← GENERATE-RULESET(b)
//! ```
//!
//! Thresholds follow [`ThresholdCalc`] — by default the mean of the last
//! N measured values, seeded at 0.7, matching the paper's Figure 4 runs
//! (N = 10 regenerates every ≈1.7 blocks; N = 50 every ≈1.9 blocks,
//! about half as many generations as Sliding Window at nearly the same
//! coverage/success — experiment E5).

use super::{Strategy, Trial};
use crate::threshold::ThresholdCalc;
use arq_assoc::pairs::{PairMiner, RuleSet};
use arq_assoc::ruleset_test;
use arq_trace::record::PairRecord;

/// The feedback-driven re-miner.
#[derive(Debug, Clone)]
pub struct AdaptiveSlidingWindow {
    min_support: u64,
    rules: RuleSet,
    miner: PairMiner,
    coverage_threshold: ThresholdCalc,
    success_threshold: ThresholdCalc,
    regenerations: u64,
    trials: u64,
}

impl AdaptiveSlidingWindow {
    /// The paper's configuration: thresholds are the mean of the last
    /// `history` measured values, starting from `initial` (0.7).
    pub fn new(min_support: u64, history: usize, initial: f64) -> Self {
        Self::with_thresholds(
            min_support,
            ThresholdCalc::mean_of_last(history, initial),
            ThresholdCalc::mean_of_last(history, initial),
        )
    }

    /// Fully custom threshold calculators (ablations).
    pub fn with_thresholds(
        min_support: u64,
        coverage_threshold: ThresholdCalc,
        success_threshold: ThresholdCalc,
    ) -> Self {
        AdaptiveSlidingWindow {
            min_support,
            rules: RuleSet::empty(),
            miner: PairMiner::new(),
            coverage_threshold,
            success_threshold,
            regenerations: 0,
            trials: 0,
        }
    }

    /// Rule-set generations triggered so far (excluding warm-up).
    pub fn regenerations(&self) -> u64 {
        self.regenerations
    }

    /// Trials per regeneration — the paper reports 1.7 (N = 10) and 1.9
    /// (N = 50). Returns `None` before the first regeneration.
    pub fn blocks_per_regen(&self) -> Option<f64> {
        (self.regenerations > 0).then(|| self.trials as f64 / self.regenerations as f64)
    }
}

impl Strategy for AdaptiveSlidingWindow {
    fn name(&self) -> String {
        format!("adaptive(s={})", self.min_support)
    }

    fn warm_up(&mut self, block: &[PairRecord]) {
        self.rules = self.miner.mine(block, self.min_support);
    }

    /// ρ (Eq. 2) is undefined on a block with zero covered queries
    /// (n = 0): such a block neither trips the success threshold nor
    /// feeds the success history — an absent measurement is not a
    /// ρ = 0 observation, and letting it in would drag the threshold
    /// mean toward zero and stall later regenerations. (The block still
    /// regenerates through the *coverage* test, since α = 0 there.)
    fn test_and_update(&mut self, block: &[PairRecord]) -> Trial {
        self.trials += 1;
        let ct = self.coverage_threshold.value();
        let st = self.success_threshold.value();
        let measures = ruleset_test(&self.rules, block);
        let rule_count = self.rules.rule_count();
        let regenerated =
            measures.coverage() < ct || measures.success_opt().is_some_and(|rho| rho < st);
        if regenerated {
            self.rules = self.miner.mine(block, self.min_support);
            self.regenerations += 1;
        }
        // Thresholds learn from this trial only after deciding on it.
        self.coverage_threshold.push(measures.coverage());
        if let Some(rho) = measures.success_opt() {
            self.success_threshold.push(rho);
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
    fn no_regeneration_while_quality_holds() {
        let mut s = AdaptiveSlidingWindow::new(2, 10, 0.7);
        s.warm_up(&routed_block(0, 100, 5, 100));
        for i in 1..=5 {
            let t = s.test_and_update(&routed_block(i * 1_000, 100, 5, 100));
            assert_eq!(t.measures.coverage(), 1.0);
            assert!(!t.regenerated, "regenerated on a perfect trial {i}");
        }
        assert_eq!(s.regenerations(), 0);
        assert!(s.blocks_per_regen().is_none());
    }

    #[test]
    fn regenerates_when_success_collapses() {
        let mut s = AdaptiveSlidingWindow::new(2, 10, 0.7);
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Route change: success 0 < 0.7 threshold -> regenerate from this
        // block.
        let t1 = s.test_and_update(&routed_block(1_000, 100, 5, 200));
        assert_eq!(t1.measures.success(), 0.0);
        assert!(t1.regenerated);
        // Regenerated from the changed block: next trial is perfect again.
        let t2 = s.test_and_update(&routed_block(2_000, 100, 5, 200));
        assert_eq!(t2.measures.success(), 1.0);
        assert_eq!(s.regenerations(), 1);
    }

    #[test]
    fn regenerates_when_coverage_collapses() {
        let mut s = AdaptiveSlidingWindow::new(2, 10, 0.7);
        s.warm_up(&routed_block(0, 100, 5, 100));
        let shifted: Vec<PairRecord> = routed_block(1_000, 100, 5, 100)
            .into_iter()
            .map(|mut p| {
                p.src = arq_trace::record::HostId(p.src.0 + 50);
                p
            })
            .collect();
        let t = s.test_and_update(&shifted);
        assert_eq!(t.measures.coverage(), 0.0);
        assert!(t.regenerated);
    }

    #[test]
    fn thresholds_adapt_downward_in_a_degraded_network() {
        // If the network permanently delivers mediocre quality, the
        // thresholds settle there instead of regenerating forever.
        let mut s = AdaptiveSlidingWindow::new(2, 5, 0.99);
        s.warm_up(&routed_block(0, 100, 10, 100));
        // Every block: half the sources are fresh (coverage 0.5 forever).
        let mut regen_count = 0;
        for i in 1..=20 {
            let mut block = routed_block(i * 1_000, 100, 10, 100);
            for p in block.iter_mut().take(50) {
                p.src = arq_trace::record::HostId(p.src.0 + 1_000 + i as u32);
            }
            if s.test_and_update(&block).regenerated {
                regen_count += 1;
            }
        }
        // The initial 0.99 threshold forces regenerations early on, but
        // once the window fills with ~0.5 measurements they become rare.
        assert!(regen_count < 20, "thresholds never adapted");
        assert_eq!(regen_count, s.regenerations());
    }

    #[test]
    fn undefined_success_does_not_feed_the_threshold() {
        // Regression for the ρ-undefined edge case: a block with zero
        // covered queries has no defined success value. It must still
        // regenerate (via the coverage test), but it must NOT push a
        // phantom ρ = 0 into the success history — under the old
        // behavior the success threshold became mean([0.0]) = 0, and a
        // following mediocre block could never trip it again.
        let mut s = AdaptiveSlidingWindow::new(2, 10, 0.7);
        s.warm_up(&routed_block(0, 100, 5, 100));

        // Trial 1: every source is unknown — coverage 0, ρ undefined.
        let moved: Vec<PairRecord> = routed_block(1_000, 100, 5, 200)
            .into_iter()
            .map(|mut p| {
                p.src = arq_trace::record::HostId(p.src.0 + 50);
                p
            })
            .collect();
        let t1 = s.test_and_update(&moved);
        assert!(t1.regenerated, "coverage 0 must regenerate");
        assert_eq!(t1.measures.covered, 0);
        assert_eq!(t1.measures.success_opt(), None);

        // Trial 2: same (now learned) sources, but half the replies
        // come via the wrong neighbor — coverage 1.0, success 0.5.
        let mut half_wrong: Vec<PairRecord> = routed_block(2_000, 100, 5, 200)
            .into_iter()
            .map(|mut p| {
                p.src = arq_trace::record::HostId(p.src.0 + 50);
                p
            })
            .collect();
        for p in half_wrong.iter_mut().take(50) {
            p.via = arq_trace::record::HostId(9_999);
        }
        let t2 = s.test_and_update(&half_wrong);
        assert_eq!(t2.measures.coverage(), 1.0);
        assert_eq!(t2.measures.success_opt(), Some(0.5));
        // The success threshold is still the pristine initial 0.7 (the
        // undefined trial contributed nothing), so 0.5 trips it. Had
        // the phantom 0.0 been pushed, the threshold would be 0.0 and
        // this trial would NOT regenerate.
        assert!(
            t2.regenerated,
            "success threshold was poisoned by an undefined ρ"
        );
    }

    #[test]
    fn blocks_per_regen_accounting() {
        let mut s = AdaptiveSlidingWindow::new(2, 10, 0.7);
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Alternate route flips force a regeneration every other block.
        for i in 1..=10 {
            let base = if i % 2 == 0 { 100 } else { 200 };
            s.test_and_update(&routed_block(i * 1_000, 100, 5, base));
        }
        let bpr = s.blocks_per_regen().unwrap();
        assert!((1.0..=2.0).contains(&bpr), "blocks/regen {bpr}");
    }
}
