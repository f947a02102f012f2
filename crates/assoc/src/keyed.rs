//! Generalized rule antecedents (§VI extension).
//!
//! The paper proposes "adding dimensions such as the query strings during
//! rule generation". This module generalizes the host-pair miner to an
//! arbitrary antecedent key extracted from each pair record — e.g.
//! `(source host, query topic)` — while keeping identical support-pruning
//! and ranking semantics. The host-pair [`crate::pairs::RuleSet`] is
//! recovered with the key `|p| p.src`.
//!
//! Richer keys trade coverage for success: each rule is more specific
//! (higher success when it fires) but the support of each key shrinks, so
//! fewer queries are covered at a given threshold. Experiment E12
//! quantifies the trade-off.

use crate::measures::RuleLookup;
use arq_simkern::hash::IntMap;
use arq_trace::record::{HostId, PairRecord};
use std::hash::Hash;

/// A rule set whose antecedent is an arbitrary key.
#[derive(Debug, Clone)]
pub struct KeyedRuleSet<K> {
    rules: IntMap<K, Vec<(HostId, u64)>>,
    min_support: u64,
    source_pairs: usize,
}

impl<K: Eq + Hash + Copy> KeyedRuleSet<K> {
    /// An empty rule set.
    pub fn empty() -> Self {
        KeyedRuleSet {
            rules: IntMap::default(),
            min_support: 0,
            source_pairs: 0,
        }
    }

    /// Whether any rule has this antecedent key.
    pub fn has_antecedent(&self, key: K) -> bool {
        self.rules.contains_key(&key)
    }

    /// Ranked consequents for a key.
    pub fn consequents(&self, key: K) -> &[(HostId, u64)] {
        self.rules.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the rule `key → via` is present.
    pub fn matches(&self, key: K, via: HostId) -> bool {
        self.consequents(key).iter().any(|&(h, _)| h == via)
    }

    /// The top-`k` consequents for a key.
    pub fn top_k(&self, key: K, k: usize) -> impl Iterator<Item = HostId> + '_ {
        self.consequents(key).iter().take(k).map(|&(h, _)| h)
    }

    /// Total number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// Number of distinct antecedent keys.
    pub fn antecedent_count(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The support threshold used at mining time.
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// Pairs the set was mined from.
    pub fn source_pairs(&self) -> usize {
        self.source_pairs
    }
}

/// Mines a keyed rule set: counts `(key(p), p.via)` combinations and
/// prunes those below `min_support`, ranking consequents by descending
/// support (ties by host id).
pub fn mine_keyed<K, F>(block: &[PairRecord], key: F, min_support: u64) -> KeyedRuleSet<K>
where
    K: Eq + Hash + Copy,
    F: Fn(&PairRecord) -> K,
{
    assert!(min_support >= 1, "support threshold must be at least 1");
    let mut counts: IntMap<(K, HostId), u64> = IntMap::default();
    for p in block {
        *counts.entry((key(p), p.via)).or_insert(0) += 1;
    }
    let mut rules: IntMap<K, Vec<(HostId, u64)>> = IntMap::default();
    for ((k, via), count) in counts {
        if count >= min_support {
            rules.entry(k).or_default().push((via, count));
        }
    }
    for conseq in rules.values_mut() {
        conseq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }
    KeyedRuleSet {
        rules,
        min_support,
        source_pairs: block.len(),
    }
}

/// `RULESET-TEST` over `(source host, topic)` antecedents, the key
/// [`src_topic_key`] takes from each pair.
impl RuleLookup for &KeyedRuleSet<(HostId, u32)> {
    fn covered(&self, p: &PairRecord) -> bool {
        self.has_antecedent(src_topic_key(p))
    }

    fn matches(&self, p: &PairRecord) -> bool {
        KeyedRuleSet::matches(self, src_topic_key(p), p.via)
    }
}

/// The `(source host, topic)` key the topic-dimension experiments use,
/// assuming the workspace's query-id convention (`topic << 12 | rank`,
/// as produced by the synthetic generator).
pub fn src_topic_key(p: &PairRecord) -> (HostId, u32) {
    (p.src, p.query.0 >> 12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::ruleset_test;
    use crate::pairs::mine_pairs;
    use arq_simkern::SimTime;
    use arq_trace::record::{Guid, QueryId};

    fn pair(i: u64, src: u32, via: u32, topic: u32) -> PairRecord {
        PairRecord {
            time: SimTime::from_ticks(i),
            guid: Guid(u128::from(i)),
            src: HostId(src),
            via: HostId(via),
            responder: HostId(0),
            query: QueryId(topic << 12 | (i as u32 % 8)),
        }
    }

    /// Host 1 uses via 10 for topic 0 and via 11 for topic 1.
    fn topical_block(start: u64, n: usize) -> Vec<PairRecord> {
        (0..n as u64)
            .map(|i| {
                let topic = (i % 2) as u32;
                pair(start + i, 1, 10 + topic, topic)
            })
            .collect()
    }

    #[test]
    fn src_key_matches_plain_miner() {
        let block = topical_block(0, 100);
        let keyed = mine_keyed(&block, |p| p.src, 5);
        let plain = mine_pairs(&block, 5);
        assert_eq!(keyed.rule_count(), plain.rule_count());
        for (src, via, count) in plain.iter() {
            assert!(keyed.matches(src, via));
            let kc = keyed
                .consequents(src)
                .iter()
                .find(|&&(h, _)| h == via)
                .unwrap()
                .1;
            assert_eq!(kc, count);
        }
    }

    #[test]
    fn topic_key_disambiguates_routes() {
        let block = topical_block(0, 100);
        let keyed = mine_keyed(&block, src_topic_key, 5);
        // Per (src, topic) there is exactly one consequent.
        assert!(keyed.matches((HostId(1), 0), HostId(10)));
        assert!(!keyed.matches((HostId(1), 0), HostId(11)));
        assert!(keyed.matches((HostId(1), 1), HostId(11)));
        assert_eq!(keyed.antecedent_count(), 2);
        // The plain miner lumps both routes under one antecedent.
        let plain = mine_pairs(&block, 5);
        assert_eq!(plain.consequents(HostId(1)).len(), 2);
    }

    #[test]
    fn topic_rules_have_perfect_success_on_topical_traffic() {
        let keyed = mine_keyed(&topical_block(0, 200), src_topic_key, 5);
        let m = ruleset_test(&keyed, &topical_block(1_000, 100));
        assert_eq!(m.coverage(), 1.0);
        assert_eq!(m.success(), 1.0);
        // Top-1 routing per (src, topic) would always succeed, whereas
        // top-1 host-pair routing can pick the wrong topic's via.
        let top: Vec<HostId> = keyed.top_k((HostId(1), 0), 1).collect();
        assert_eq!(top, vec![HostId(10)]);
    }

    #[test]
    fn specific_keys_lose_coverage_at_equal_threshold() {
        // Both topics answered via the same neighbor: the plain miner
        // consolidates 100 observations into one rule, while the keyed
        // miner splits them 50/50 across two antecedents — so a threshold
        // of 60 keeps the plain rule but prunes every keyed rule. This is
        // the coverage-vs-specificity trade-off E12 measures.
        let block: Vec<PairRecord> = (0..100u64)
            .map(|i| pair(i, 1, 10, (i % 2) as u32))
            .collect();
        let plain = mine_pairs(&block, 60);
        let keyed = mine_keyed(&block, src_topic_key, 60);
        assert_eq!(plain.rule_count(), 1);
        assert!(keyed.is_empty(), "diluted keyed rules survived");
    }

    #[test]
    fn empty_inputs() {
        let keyed: KeyedRuleSet<HostId> = KeyedRuleSet::empty();
        assert!(keyed.is_empty());
        assert!(!keyed.has_antecedent(HostId(0)));
        let mined = mine_keyed(&[], src_topic_key, 1);
        assert!(mined.is_empty());
        let m = ruleset_test(&mined, &[]);
        assert_eq!(m.coverage(), 0.0);
    }

    /// Keyed mining with the plain `src` key is exactly `mine_pairs` on
    /// random blocks; on their single topic the `(src, topic)` measures
    /// agree with the plain ones.
    #[test]
    fn keyed_src_equals_plain() {
        let mut rng = arq_simkern::Rng64::seed_from(0x4E7);
        for case in 0..60 {
            let len = rng.index(300);
            let pairs = crate::pairs::random_pairs(&mut rng, len);
            let t = 1 + rng.below(5);
            let keyed = mine_keyed(&pairs, |p| p.src, t);
            let plain = mine_pairs(&pairs, t);
            assert_eq!(keyed.rule_count(), plain.rule_count(), "case {case}");
            for p in &pairs {
                assert_eq!(keyed.consequents(p.src), plain.consequents(p.src));
            }
            assert_eq!(
                ruleset_test(&mine_keyed(&pairs, src_topic_key, t), &pairs),
                ruleset_test(&plain, &pairs),
                "case {case}"
            );
        }
    }
}
