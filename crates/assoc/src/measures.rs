//! RULESET-TEST: the paper's rule-*set* quality measures.
//!
//! Traditional support and confidence score individual rules; the paper
//! introduces two measures for a rule set as a whole (§III-B.2), both
//! evaluated against a *test block* of query–reply pairs:
//!
//! * **coverage** `α = n / N` (Eq. 1): `N` is the number of unique
//!   queries in the test block that received a response; `n` is how many
//!   of them come from a source host that appears as an antecedent;
//! * **success** `ρ = s / n` (Eq. 2): `s` is how many of the covered
//!   queries were answered through a neighbor that the matching rule
//!   names as consequent — i.e. routing by the rule would have reached
//!   the content.
//!
//! Uniqueness is by GUID: a query answered by several replies counts
//! once, and succeeds if *any* of its replies came via a rule consequent.

use crate::pairs::RuleSet;
use arq_trace::record::{Guid, PairRecord};
use std::collections::HashMap;

/// Counts from evaluating one rule set against one test block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockMeasures {
    /// `N`: unique responded queries in the block.
    pub total: u64,
    /// `n`: unique queries whose source matches an antecedent.
    pub covered: u64,
    /// `s`: covered queries answered via a rule consequent.
    pub successes: u64,
}

impl BlockMeasures {
    /// Coverage α = n / N (0 when the block is empty).
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.covered as f64 / self.total as f64
        }
    }

    /// Success ρ = s / n (0 when nothing is covered).
    ///
    /// Eq. 2 is undefined at n = 0; this workspace's convention is to
    /// *report* ρ as 0.0 there (so series, report rows, and JSON never
    /// carry NaN), and to treat the measurement as missing wherever ρ
    /// feeds a decision — see [`success_opt`](Self::success_opt), which
    /// adaptive thresholds consume so an all-uncovered block cannot
    /// masquerade as a genuine ρ = 0 observation.
    pub fn success(&self) -> f64 {
        self.success_opt().unwrap_or(0.0)
    }

    /// Success ρ = s / n, or `None` when it is undefined because no
    /// query was covered (n = 0). The value, when present, is always a
    /// finite number in `[0, 1]`.
    pub fn success_opt(&self) -> Option<f64> {
        (self.covered > 0).then(|| self.successes as f64 / self.covered as f64)
    }

    /// Accumulates another block's counts (used for whole-run totals).
    pub fn merge(&mut self, other: &BlockMeasures) {
        self.total += other.total;
        self.covered += other.covered;
        self.successes += other.successes;
    }
}

/// Evaluates `rules` against `block` (the paper's `RULESET-TEST`).
pub fn ruleset_test(rules: &RuleSet, block: &[PairRecord]) -> BlockMeasures {
    // Group the block's pairs by query GUID. Insertion order of the map
    // does not matter: each query contributes independent counts.
    #[derive(Default)]
    struct PerQuery {
        covered: bool,
        success: bool,
        seen: bool,
    }
    let mut per_query: HashMap<Guid, PerQuery> = HashMap::with_capacity(block.len());
    for p in block {
        let entry = per_query.entry(p.guid).or_default();
        if !entry.seen {
            entry.seen = true;
            entry.covered = rules.has_antecedent(p.src);
        }
        if entry.covered && !entry.success && rules.matches(p.src, p.via) {
            entry.success = true;
        }
    }
    let mut m = BlockMeasures::default();
    for pq in per_query.values() {
        m.total += 1;
        if pq.covered {
            m.covered += 1;
            if pq.success {
                m.successes += 1;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::mine_pairs;
    use arq_simkern::SimTime;
    use arq_trace::record::{HostId, QueryId};

    fn pair(guid: u128, src: u32, via: u32) -> PairRecord {
        PairRecord {
            time: SimTime::from_ticks(guid as u64),
            guid: Guid(guid),
            src: HostId(src),
            via: HostId(via),
            responder: HostId(0),
            query: QueryId(0),
        }
    }

    /// Rules: 1 -> 10, 1 -> 11, 2 -> 20 (all with ample support).
    fn rules() -> RuleSet {
        let mut train = Vec::new();
        let mut g = 0u128;
        for _ in 0..5 {
            train.push(pair(g, 1, 10));
            g += 1;
            train.push(pair(g, 1, 11));
            g += 1;
            train.push(pair(g, 2, 20));
            g += 1;
        }
        mine_pairs(&train, 2)
    }

    #[test]
    fn coverage_and_success_basic() {
        let rs = rules();
        let block = vec![
            pair(100, 1, 10), // covered + success
            pair(101, 1, 99), // covered, miss
            pair(102, 2, 20), // covered + success
            pair(103, 7, 10), // uncovered
        ];
        let m = ruleset_test(&rs, &block);
        assert_eq!(
            m,
            BlockMeasures {
                total: 4,
                covered: 3,
                successes: 2
            }
        );
        assert!((m.coverage() - 0.75).abs() < 1e-12);
        assert!((m.success() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_replies_count_one_query() {
        let rs = rules();
        // One query (same GUID) answered three times, one via a rule hop.
        let block = vec![pair(5_000, 1, 99), pair(5_000, 1, 11), pair(5_000, 1, 98)];
        let m = ruleset_test(&rs, &block);
        assert_eq!(m.total, 1);
        assert_eq!(m.covered, 1);
        assert_eq!(m.successes, 1);
    }

    #[test]
    fn perfect_rule_set_on_its_own_block() {
        // A rule set mined from a block with threshold 1 covers and
        // succeeds on every query of that block.
        let block: Vec<PairRecord> = (0..50)
            .map(|i| pair(i as u128, (i % 5) as u32, (10 + i % 3) as u32))
            .collect();
        let rs = mine_pairs(&block, 1);
        let m = ruleset_test(&rs, &block);
        assert_eq!(m.coverage(), 1.0);
        assert_eq!(m.success(), 1.0);
    }

    #[test]
    fn undefined_success_is_none_and_reports_zero() {
        // Regression: an all-uncovered block (n = 0, N > 0) makes Eq. 2
        // undefined. The reported value must be exactly 0.0 — never NaN
        // (which would poison threshold means and serialize as null) —
        // while `success_opt` exposes the undefinedness to consumers
        // that must not treat it as a real measurement.
        let rs = rules();
        let block: Vec<PairRecord> = (0..10).map(|i| pair(300 + i, 77, 10)).collect();
        let m = ruleset_test(&rs, &block);
        assert_eq!(m.total, 10);
        assert_eq!(m.covered, 0);
        assert_eq!(m.success_opt(), None);
        assert_eq!(m.success(), 0.0);
        assert!(!m.success().is_nan());
        // Covered blocks report the same value through both accessors.
        let covered = vec![pair(400, 1, 10), pair(401, 1, 99)];
        let mc = ruleset_test(&rs, &covered);
        assert_eq!(mc.success_opt(), Some(0.5));
        assert_eq!(mc.success(), 0.5);
    }

    #[test]
    fn empty_rule_set_covers_nothing() {
        let block = vec![pair(1, 1, 10)];
        let m = ruleset_test(&RuleSet::empty(), &block);
        assert_eq!(
            m,
            BlockMeasures {
                total: 1,
                covered: 0,
                successes: 0
            }
        );
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.success(), 0.0);
    }

    #[test]
    fn empty_block_is_all_zero() {
        let m = ruleset_test(&rules(), &[]);
        assert_eq!(m, BlockMeasures::default());
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.success(), 0.0);
    }

    #[test]
    fn high_coverage_low_success_scenario() {
        // §III-B.2: "coverage is high, but success is low … rules would be
        // forwarded to the wrong neighbors."
        let rs = rules();
        let block: Vec<PairRecord> = (0..10).map(|i| pair(200 + i, 1, 55)).collect();
        let m = ruleset_test(&rs, &block);
        assert_eq!(m.coverage(), 1.0);
        assert_eq!(m.success(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BlockMeasures {
            total: 10,
            covered: 8,
            successes: 6,
        };
        let b = BlockMeasures {
            total: 10,
            covered: 2,
            successes: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            BlockMeasures {
                total: 20,
                covered: 10,
                successes: 7
            }
        );
    }

    /// On random blocks, `0 <= s <= n <= N` and both measures stay in
    /// [0, 1]; rules mined from a block at threshold 1 are perfect on it.
    #[test]
    fn measures_are_bounded_on_random_blocks() {
        let mut rng = arq_simkern::Rng64::seed_from(0x3EA5);
        for _ in 0..60 {
            let (a, b) = (rng.index(300), rng.index(300));
            let (train, test) = (
                crate::pairs::random_pairs(&mut rng, a),
                crate::pairs::random_pairs(&mut rng, b),
            );
            let m = ruleset_test(&mine_pairs(&train, 2), &test);
            assert!(m.successes <= m.covered && m.covered <= m.total);
            assert!((0.0..=1.0).contains(&m.coverage()));
            assert!((0.0..=1.0).contains(&m.success()));
            if !test.is_empty() {
                let perfect = ruleset_test(&mine_pairs(&test, 1), &test);
                assert_eq!((perfect.coverage(), perfect.success()), (1.0, 1.0));
            }
        }
    }
}
