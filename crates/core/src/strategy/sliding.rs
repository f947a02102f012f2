//! Sliding Window (§III-B.4): re-mine from the previous block before
//! every trial.
//!
//! ```text
//! SLIDING-WINDOW
//! 1 for each block b
//! 2   do R ← GENERATE-RULESET(b − 1)
//! 3      RULESET-TEST(R, b)
//! ```
//!
//! The paper's best fixed-schedule performer: average coverage > 0.80 and
//! success just under 0.79 (Figure 1 / experiment E2). Its cost is one
//! rule-set generation per block, whether needed or not.

use super::{Strategy, Trial};
use arq_assoc::pairs::{mine_pairs_with_confidence, PairMiner, RuleSet};
use arq_assoc::ruleset_test;
use arq_trace::record::PairRecord;

/// The every-block re-miner.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    min_support: u64,
    min_confidence: f64,
    rules: RuleSet,
    miner: PairMiner,
    regenerations: u64,
}

impl SlidingWindow {
    /// Creates the strategy with the given support-pruning threshold.
    pub fn new(min_support: u64) -> Self {
        Self::with_confidence(min_support, 0.0)
    }

    /// Adds the §VI confidence cut on top of support pruning (experiment
    /// E9): a rule survives only if it carries at least `min_confidence`
    /// of its antecedent's reply traffic.
    pub fn with_confidence(min_support: u64, min_confidence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_confidence),
            "confidence threshold out of range"
        );
        SlidingWindow {
            min_support,
            min_confidence,
            rules: RuleSet::empty(),
            miner: PairMiner::new(),
            regenerations: 0,
        }
    }

    /// Rule-set generations performed so far (excluding warm-up).
    pub fn regenerations(&self) -> u64 {
        self.regenerations
    }

    /// Size of the rule set currently held.
    pub fn rule_count(&self) -> usize {
        self.rules.rule_count()
    }

    fn mine(&mut self, block: &[PairRecord]) -> RuleSet {
        if self.min_confidence > 0.0 {
            mine_pairs_with_confidence(block, self.min_support, self.min_confidence)
        } else {
            // Scratch-table miner: same rule set, no per-block
            // reallocation.
            self.miner.mine(block, self.min_support)
        }
    }
}

impl Strategy for SlidingWindow {
    fn name(&self) -> String {
        if self.min_confidence > 0.0 {
            format!("sliding(s={},c={})", self.min_support, self.min_confidence)
        } else {
            format!("sliding(s={})", self.min_support)
        }
    }

    fn warm_up(&mut self, block: &[PairRecord]) {
        self.rules = self.mine(block);
    }

    fn test_and_update(&mut self, block: &[PairRecord]) -> Trial {
        let measures = ruleset_test(&self.rules, block);
        let rule_count = self.rules.rule_count();
        // Next trial always uses rules mined from this (now previous)
        // block.
        self.rules = self.mine(block);
        self.regenerations += 1;
        Trial {
            measures,
            regenerated: true,
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
    fn adapts_to_route_change_within_one_block() {
        let mut s = SlidingWindow::new(2);
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Routes move: the first trial after the change misses…
        let t1 = s.test_and_update(&routed_block(1_000, 100, 5, 200));
        assert_eq!(t1.measures.success(), 0.0);
        assert!(t1.regenerated);
        // …but the very next trial has relearned them.
        let t2 = s.test_and_update(&routed_block(2_000, 100, 5, 200));
        assert_eq!(t2.measures.success(), 1.0);
        assert_eq!(t2.measures.coverage(), 1.0);
        assert_eq!(s.regenerations(), 2);
    }

    #[test]
    fn adapts_to_source_change_within_one_block() {
        let mut s = SlidingWindow::new(2);
        s.warm_up(&routed_block(0, 100, 5, 100));
        let shifted = |g: u128| -> Vec<PairRecord> {
            routed_block(g, 100, 5, 100)
                .into_iter()
                .map(|mut p| {
                    p.src = arq_trace::record::HostId(p.src.0 + 50);
                    p
                })
                .collect()
        };
        let t1 = s.test_and_update(&shifted(1_000));
        assert_eq!(t1.measures.coverage(), 0.0);
        let t2 = s.test_and_update(&shifted(2_000));
        assert_eq!(t2.measures.coverage(), 1.0);
    }

    #[test]
    fn rule_count_reports_the_tested_set() {
        let mut s = SlidingWindow::new(2);
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Test block has 10 sources; the *tested* set still has 5 rules.
        let t = s.test_and_update(&routed_block(1_000, 100, 10, 100));
        assert_eq!(t.rule_count, 5);
        let t2 = s.test_and_update(&routed_block(2_000, 100, 10, 100));
        assert_eq!(t2.rule_count, 10);
    }
}
