//! Tests of the `sliding` schedule of [`BlockWindow`](super::BlockWindow):
//! re-mine from the previous block before every trial (§III-B.4).

#[cfg(test)]
mod tests {
    use super::super::testutil::{routed_block, strategy};
    use arq_trace::record::PairRecord;

    #[test]
    fn adapts_to_route_change_within_one_block() {
        let mut s = strategy("sliding(s=2)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Routes move: the first trial after the change misses…
        let t1 = s.test_and_update(&routed_block(1_000, 100, 5, 200));
        assert_eq!(t1.measures.success(), 0.0);
        assert!(t1.regenerated);
        // …but the very next trial has relearned them.
        let t2 = s.test_and_update(&routed_block(2_000, 100, 5, 200));
        assert_eq!(t2.measures.success(), 1.0);
        assert_eq!(t2.measures.coverage(), 1.0);
        assert!(t2.regenerated);
    }

    #[test]
    fn adapts_to_source_change_within_one_block() {
        let mut s = strategy("sliding(s=2)");
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
        let mut s = strategy("sliding(s=2)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Test block has 10 sources; the *tested* set still has 5 rules.
        let t = s.test_and_update(&routed_block(1_000, 100, 10, 100));
        assert_eq!(t.rule_count, 5);
        let t2 = s.test_and_update(&routed_block(2_000, 100, 10, 100));
        assert_eq!(t2.rule_count, 10);
    }
}
