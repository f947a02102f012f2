//! Tests of the `static` schedule of [`BlockWindow`](super::BlockWindow):
//! mine once, use forever (§III-B.3).

#[cfg(test)]
mod tests {
    use super::super::testutil::{routed_block, strategy};
    use arq_trace::record::PairRecord;

    #[test]
    fn perfect_on_identical_blocks() {
        let mut s = strategy("static(s=2)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        let t = s.test_and_update(&routed_block(1_000, 100, 5, 100));
        assert_eq!(t.measures.coverage(), 1.0);
        assert_eq!(t.measures.success(), 1.0);
        assert!(!t.regenerated);
        assert_eq!(t.rule_count, 5);
    }

    #[test]
    fn never_adapts_to_route_changes() {
        let mut s = strategy("static(s=2)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Same sources, all routes moved to a different neighbor range.
        let t = s.test_and_update(&routed_block(1_000, 100, 5, 200));
        assert_eq!(t.measures.coverage(), 1.0, "sources unchanged");
        assert_eq!(t.measures.success(), 0.0, "routes changed");
        // Still no adaptation on the next block.
        let t2 = s.test_and_update(&routed_block(2_000, 100, 5, 200));
        assert_eq!(t2.measures.success(), 0.0);
        assert!(!t2.regenerated);
    }

    #[test]
    fn never_adapts_to_source_changes() {
        let mut s = strategy("static(s=2)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Entirely new source population.
        let shifted: Vec<PairRecord> = routed_block(1_000, 100, 5, 100)
            .into_iter()
            .map(|mut p| {
                p.src = arq_trace::record::HostId(p.src.0 + 50);
                p
            })
            .collect();
        let t = s.test_and_update(&shifted);
        assert_eq!(t.measures.coverage(), 0.0);
    }

    #[test]
    fn support_pruning_applies_at_warmup() {
        let mut s = strategy("static(s=1000)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        let t = s.test_and_update(&routed_block(1_000, 100, 5, 100));
        assert_eq!(t.rule_count, 0, "threshold 1000 should prune all");
        assert_eq!(t.measures.coverage(), 0.0);
    }
}
