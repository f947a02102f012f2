//! The streaming maintainer (§VI future work): rules updated on every pair.
//!
//! "An additional algorithm is currently in development that would create
//! rule sets for query routing and update these rules immediately as
//! query and reply messages are received. … Initial simulations have been
//! very promising, and consistently show coverage and success values
//! above 90%."
//!
//! One type serves both surfaces: the offline evaluator drives it as a
//! [`Strategy`], and `arq serve` feeds it pair events and publishes its
//! [`RuleSet`]. It is built from a spec string by the registry
//! ([`Maintainer::from_spec`], `make_strategy`), and two counters realize
//! it. [`DecayedPairCounts`] weights recent pairs more (counts halve every
//! `hl` pairs). Manku–Motwani Lossy Counting ([`LossyPairCounts`]) keeps
//! frequency guarantees over the whole stream and adapts to churn only
//! through its periodic eviction. Experiment E14 contrasts the two.
//!
//! Under evaluation each pair is **tested before it is observed** (no
//! lookahead), with the same unique-query semantics as `RULESET-TEST`: a
//! query is covered if its source has any association at or above the
//! threshold, successful if its actual reply path matches one.

use super::{Strategy, Trial};
use arq_assoc::measures::BlockMeasures;
use arq_assoc::{DecayedPairCounts, LossyPairCounts, RuleSet};
use arq_trace::record::{Guid, HostId, PairRecord};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The streaming rule state: decayed counts (`incremental`) or lossy
/// counting (`lossy`).
#[derive(Debug, Clone)]
pub enum Maintainer {
    /// Exponentially decayed pair counts; rules are pairs whose decayed
    /// weight clears `threshold`.
    Incremental {
        /// The decayed counts.
        counts: DecayedPairCounts,
        /// Rule support threshold (≥ 1).
        threshold: f64,
    },
    /// Manku–Motwani lossy counting; rules are pairs whose count clears
    /// `support`.
    Lossy {
        /// The lossy counts.
        counts: LossyPairCounts,
        /// Rule support threshold (≥ 1).
        support: u64,
    },
}

impl Maintainer {
    /// The canonical spec string this maintainer round-trips through
    /// (checkpoints store it and restarts must match it).
    pub fn spec(&self) -> String {
        match self {
            Maintainer::Incremental { counts, threshold } => {
                format!("incremental(t={},hl={})", threshold, counts.half_life())
            }
            Maintainer::Lossy { counts, support } => {
                format!("lossy(t={},eps={})", support, counts.epsilon())
            }
        }
    }

    /// Observes one pair.
    pub fn observe(&mut self, src: HostId, via: HostId) {
        match self {
            Maintainer::Incremental { counts, .. } => counts.observe(src, via),
            Maintainer::Lossy { counts, .. } => counts.observe(src, via),
        }
    }

    /// Total pairs observed over the maintainer's lifetime (survives
    /// checkpoint/restore — this is the replay cursor).
    pub fn consumed(&self) -> u64 {
        match self {
            Maintainer::Incremental { counts, .. } => counts.observations(),
            Maintainer::Lossy { counts, .. } => counts.observations(),
        }
    }

    /// Materializes the current rule set.
    pub fn ruleset(&self) -> RuleSet {
        match self {
            Maintainer::Incremental { counts, threshold } => counts.ruleset(*threshold),
            Maintainer::Lossy { counts, support } => counts.ruleset(*support),
        }
    }

    pub(super) fn covered(&self, src: HostId) -> bool {
        match self {
            Maintainer::Incremental { counts, threshold } => counts.covered(src, *threshold),
            Maintainer::Lossy { counts, support } => counts.covered(src, *support),
        }
    }

    pub(super) fn matches(&self, src: HostId, via: HostId) -> bool {
        match self {
            Maintainer::Incremental { counts, threshold } => counts.matches(src, via, *threshold),
            Maintainer::Lossy { counts, support } => counts.matches(src, via, *support),
        }
    }

    fn len(&self) -> usize {
        match self {
            Maintainer::Incremental { counts, .. } => counts.len(),
            Maintainer::Lossy { counts, .. } => counts.len(),
        }
    }
}

impl Strategy for Maintainer {
    fn name(&self) -> String {
        self.spec()
    }

    fn warm_up(&mut self, block: &[PairRecord]) {
        for p in block {
            self.observe(p.src, p.via);
        }
    }

    fn test_and_update(&mut self, block: &[PairRecord]) -> Trial {
        #[derive(Clone, Copy)]
        struct QState {
            covered: bool,
            success: bool,
        }
        let mut measures = BlockMeasures::default();
        let mut seen: HashMap<Guid, QState> = HashMap::with_capacity(block.len());
        for p in block {
            let state = match seen.entry(p.guid) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => {
                    // First sighting of this query: judge coverage with
                    // the rules as they stand *now*.
                    let covered = self.covered(p.src);
                    measures.total += 1;
                    if covered {
                        measures.covered += 1;
                    }
                    v.insert(QState {
                        covered,
                        success: false,
                    })
                }
            };
            if state.covered && !state.success && self.matches(p.src, p.via) {
                state.success = true;
                measures.successes += 1;
            }
            // Only after testing does the pair become training data.
            self.observe(p.src, p.via);
        }
        Trial {
            measures,
            // Every pair updates the rules; by the paper's accounting the
            // set is continuously regenerated.
            regenerated: true,
            rule_count: self.len(),
            rules_after: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::routed_block;
    use super::*;

    #[test]
    fn recovers_from_route_change_mid_block() {
        let mut m = Maintainer::from_spec("incremental(t=5,hl=200)").unwrap();
        m.warm_up(&routed_block(0, 200, 5, 100));
        // Routes change. Early queries in the block miss; once the new
        // associations accumulate past the threshold, later queries hit.
        let t = m.test_and_update(&routed_block(1_000, 400, 5, 200));
        let (coverage, success) = (t.measures.coverage(), t.measures.success());
        assert!(coverage > 0.9, "coverage {coverage}");
        assert!(success > 0.5, "never relearned: {success}");
        assert!(success < 1.0, "learned with impossible lookahead");
        // The following block is fully adapted.
        let t2 = m.test_and_update(&routed_block(2_000, 400, 5, 200));
        assert!(t2.measures.success() > 0.95, "{}", t2.measures.success());
    }
}
