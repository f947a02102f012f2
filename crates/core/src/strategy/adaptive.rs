//! Tests of the `adaptive` schedule of [`BlockWindow`](super::BlockWindow):
//! re-mine only when quality drops below self-adjusting thresholds
//! (§III-B.6).

#[cfg(test)]
mod tests {
    use super::super::testutil::{routed_block, strategy};
    use arq_trace::record::PairRecord;

    #[test]
    fn no_regeneration_while_quality_holds() {
        let mut s = strategy("adaptive(s=2,h=10,i=0.7)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        for i in 1..=5 {
            let t = s.test_and_update(&routed_block(i * 1_000, 100, 5, 100));
            assert_eq!(t.measures.coverage(), 1.0);
            assert!(!t.regenerated, "regenerated on a perfect trial {i}");
        }
    }

    #[test]
    fn regenerates_when_success_collapses() {
        let mut s = strategy("adaptive(s=2,h=10,i=0.7)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Route change: success 0 < 0.7 threshold -> regenerate from this
        // block.
        let t1 = s.test_and_update(&routed_block(1_000, 100, 5, 200));
        assert_eq!(t1.measures.success(), 0.0);
        assert!(t1.regenerated);
        // Regenerated from the changed block: next trial is perfect again.
        let t2 = s.test_and_update(&routed_block(2_000, 100, 5, 200));
        assert_eq!(t2.measures.success(), 1.0);
        assert!(!t2.regenerated);
    }

    #[test]
    fn regenerates_when_coverage_collapses() {
        let mut s = strategy("adaptive(s=2,h=10,i=0.7)");
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
        let mut s = strategy("adaptive(s=2,h=5,i=0.99)");
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
    }

    #[test]
    fn undefined_success_does_not_feed_the_threshold() {
        // Regression for the ρ-undefined edge case: a block with zero
        // covered queries has no defined success value. It must still
        // regenerate (via the coverage test), but it must NOT push a
        // phantom ρ = 0 into the success history — under the old
        // behavior the success threshold became mean([0.0]) = 0, and a
        // following mediocre block could never trip it again.
        let mut s = strategy("adaptive(s=2,h=10,i=0.7)");
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
        // Alternate route flips force a regeneration every other block.
        let trace: Vec<PairRecord> = (0..=10)
            .flat_map(|i| {
                let base = if i % 2 == 0 { 100 } else { 200 };
                routed_block(i * 1_000, 100, 5, base)
            })
            .collect();
        let mut s = strategy("adaptive(s=2,h=10,i=0.7)");
        let run = crate::eval::evaluate(s.as_mut(), &trace, 100);
        let bpr = run.blocks_per_regen().unwrap();
        assert!((1.0..=2.0).contains(&bpr), "blocks/regen {bpr}");
    }
}
