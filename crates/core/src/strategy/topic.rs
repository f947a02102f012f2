//! Topic-dimension Sliding Window (§VI "query strings during rule
//! generation").
//!
//! The `sliding` schedule of [`super::BlockWindow`] but with antecedents of
//! the form `(source host, query topic)` via [`arq_assoc::keyed`]. Rules
//! become route-specific — when a covered query fires a rule, the rule
//! points at the topic's own reply path instead of the source's most
//! common path — at the cost of thinner per-antecedent support.
//! Experiment E12 measures the trade-off against the plain host-pair
//! window.

use super::{Strategy, Trial};
use arq_assoc::keyed::{mine_keyed, src_topic_key, KeyedRuleSet};
use arq_assoc::ruleset_test;
use arq_trace::record::{HostId, PairRecord};

/// Sliding window over `(src, topic)` antecedents.
#[derive(Debug, Clone)]
pub struct TopicSlidingWindow {
    min_support: u64,
    rules: KeyedRuleSet<(HostId, u32)>,
}

impl TopicSlidingWindow {
    /// Creates the strategy with the given support-pruning threshold.
    pub fn new(min_support: u64) -> Self {
        TopicSlidingWindow {
            min_support,
            rules: KeyedRuleSet::empty(),
        }
    }
}

impl Strategy for TopicSlidingWindow {
    fn name(&self) -> String {
        format!("topic-sliding(s={})", self.min_support)
    }

    fn warm_up(&mut self, block: &[PairRecord]) {
        self.rules = mine_keyed(block, src_topic_key, self.min_support);
    }

    fn test_and_update(&mut self, block: &[PairRecord]) -> Trial {
        let measures = ruleset_test(&self.rules, block);
        let rule_count = self.rules.rule_count();
        self.rules = mine_keyed(block, src_topic_key, self.min_support);
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
    use super::*;
    use arq_simkern::SimTime;
    use arq_trace::record::{Guid, QueryId};

    /// One source whose reply path depends on the topic.
    fn topical_block(start: u64, n: usize) -> Vec<PairRecord> {
        (0..n as u64)
            .map(|i| {
                let topic = (i % 3) as u32;
                PairRecord {
                    time: SimTime::from_ticks(start + i),
                    guid: Guid(u128::from(start + i)),
                    src: HostId(1),
                    via: HostId(100 + topic),
                    responder: HostId(0),
                    query: QueryId(topic << 12),
                }
            })
            .collect()
    }

    #[test]
    fn perfect_on_stationary_topical_traffic() {
        let mut s = TopicSlidingWindow::new(5);
        s.warm_up(&topical_block(0, 99));
        let t = s.test_and_update(&topical_block(1_000, 99));
        assert_eq!(t.measures.coverage(), 1.0);
        assert_eq!(t.measures.success(), 1.0);
        assert_eq!(t.rule_count, 3);
    }

    #[test]
    fn adapts_like_sliding() {
        let mut s = TopicSlidingWindow::new(5);
        s.warm_up(&topical_block(0, 99));
        // Shift every topic's route by 50.
        let shifted: Vec<PairRecord> = topical_block(1_000, 99)
            .into_iter()
            .map(|mut p| {
                p.via = HostId(p.via.0 + 50);
                p
            })
            .collect();
        let t1 = s.test_and_update(&shifted);
        assert_eq!(t1.measures.success(), 0.0);
        let shifted2: Vec<PairRecord> = topical_block(2_000, 99)
            .into_iter()
            .map(|mut p| {
                p.via = HostId(p.via.0 + 50);
                p
            })
            .collect();
        let t2 = s.test_and_update(&shifted2);
        assert_eq!(t2.measures.success(), 1.0);
    }

    #[test]
    fn unseen_topic_is_uncovered() {
        let mut s = TopicSlidingWindow::new(5);
        s.warm_up(&topical_block(0, 99));
        // Same source, brand-new topic id.
        let novel: Vec<PairRecord> = (0..30u64)
            .map(|i| PairRecord {
                time: SimTime::from_ticks(5_000 + i),
                guid: Guid(u128::from(5_000 + i)),
                src: HostId(1),
                via: HostId(100),
                responder: HostId(0),
                query: QueryId(9 << 12),
            })
            .collect();
        let t = s.test_and_update(&novel);
        assert_eq!(t.measures.coverage(), 0.0, "novel topic must be uncovered");
    }
}
