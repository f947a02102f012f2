//! The block re-miner (§III-B.3 – §III-B.6): Static Ruleset, Sliding
//! Window, Lazy Sliding Window and Adaptive Sliding Window.
//!
//! The paper's four strategies are one algorithm: mine the last block,
//! then run `RULESET-TEST` on the next one. They differ only in *when*
//! they re-mine, and that is the [`Schedule`]:
//!
//! ```text
//! STATIC-RULESET             R ← GENERATE-RULESET once; never again
//! SLIDING-WINDOW             R ← GENERATE-RULESET(b − 1) before every b
//! LAZY-SLIDING-WINDOW        … after every p-th trial
//! ADAPTIVE-SLIDING-WINDOW    results ← RULESET-TEST(R, b)
//!                            if results[coverage] < ct or results[success] < st
//!                              then R ← GENERATE-RULESET(b)
//! ```
//!
//! The paper measures Static collapsing to coverage ≈0.18 and success
//! ≈0.02 (E1), Sliding holding coverage > 0.80 and success just under
//! 0.79 at one generation per block (E2), Lazy's sawtooth averaging ≈0.59
//! at period 10 (E4), and Adaptive, with thresholds the mean of the last
//! N values seeded at 0.7, re-mining every ≈1.7 (N = 10) or ≈1.9
//! (N = 50) blocks at nearly Sliding's quality (E5). Sliding alone also
//! takes the §VI confidence cut `c` (E9).

use super::{Strategy, Trial};
use crate::threshold::ThresholdCalc;
use arq_assoc::pairs::{mine_pairs_with_confidence, PairMiner, RuleSet};
use arq_assoc::ruleset_test;
use arq_trace::record::PairRecord;

/// When a [`BlockWindow`] re-mines after a trial.
#[derive(Debug, Clone)]
pub(crate) enum Schedule {
    /// `static`: only the warm-up block is ever mined.
    Once,
    /// `sliding` (period 1) and `lazy(p)`: after every `p`-th trial.
    Every(usize),
    /// `adaptive(h,i)`: when coverage or success falls below the mean of
    /// its last `h` measured values (`i` before any exist).
    Adaptive {
        coverage: ThresholdCalc,
        success: ThresholdCalc,
    },
}

/// The block strategy: a support-pruned rule set re-mined from the block
/// just tested whenever its [`Schedule`] says so. Built by
/// [`crate::engine::make_strategy`] from `static`, `sliding`, `lazy` or
/// `adaptive` specs, and named by the canonical spec it was built from.
#[derive(Debug, Clone)]
pub struct BlockWindow {
    support: u64,
    confidence: f64,
    schedule: Schedule,
    rules: RuleSet,
    miner: PairMiner,
    /// Trials since the warm-up block.
    trials: usize,
}

impl BlockWindow {
    pub(crate) fn new(support: u64, confidence: f64, schedule: Schedule) -> Self {
        BlockWindow {
            support,
            confidence,
            schedule,
            rules: RuleSet::empty(),
            miner: PairMiner::new(),
            trials: 0,
        }
    }

    fn mine(&mut self, block: &[PairRecord]) -> RuleSet {
        if self.confidence > 0.0 {
            mine_pairs_with_confidence(block, self.support, self.confidence)
        } else {
            // Scratch-table miner: same rule set as `mine_pairs`, no
            // per-block reallocation.
            self.miner.mine(block, self.support)
        }
    }
}

impl Strategy for BlockWindow {
    fn name(&self) -> String {
        let s = self.support;
        match &self.schedule {
            Schedule::Once => format!("static(s={s})"),
            Schedule::Every(1) if self.confidence > 0.0 => {
                format!("sliding(s={s},c={})", self.confidence)
            }
            Schedule::Every(1) => format!("sliding(s={s})"),
            Schedule::Every(p) => format!("lazy(s={s},p={p})"),
            Schedule::Adaptive { coverage, .. } => format!(
                "adaptive(s={s},h={},i={})",
                coverage.history(),
                coverage.initial()
            ),
        }
    }

    fn warm_up(&mut self, block: &[PairRecord]) {
        self.rules = self.mine(block);
        self.trials = 0;
    }

    /// Under `adaptive`, ρ (Eq. 2) is undefined on a block with zero
    /// covered queries (n = 0): such a block neither trips the success
    /// threshold nor feeds the success history — an absent measurement is
    /// not a ρ = 0 observation, and letting it in would drag the threshold
    /// mean toward zero and stall later regenerations. (The block still
    /// regenerates through the *coverage* test, since α = 0 there.)
    fn test_and_update(&mut self, block: &[PairRecord]) -> Trial {
        let measures = ruleset_test(&self.rules, block);
        let rule_count = self.rules.rule_count();
        self.trials += 1;
        let regenerated = match &mut self.schedule {
            Schedule::Once => false,
            Schedule::Every(period) => self.trials.is_multiple_of(*period),
            Schedule::Adaptive { coverage, success } => {
                let rho = measures.success_opt();
                let stale = measures.coverage() < coverage.value()
                    || rho.is_some_and(|rho| rho < success.value());
                // Thresholds learn from this trial only after deciding on it.
                coverage.push(measures.coverage());
                if let Some(rho) = rho {
                    success.push(rho);
                }
                stale
            }
        };
        if regenerated {
            self.rules = self.mine(block);
        }
        Trial {
            measures,
            regenerated,
            rule_count,
            rules_after: self.rules.rule_count(),
        }
    }
}
