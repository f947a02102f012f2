//! Tests of the `lazy` schedule of [`BlockWindow`](super::BlockWindow):
//! re-mine every `p` blocks (§III-B.5).

#[cfg(test)]
mod tests {
    use super::super::testutil::{routed_block, strategy};

    #[test]
    fn period_one_behaves_like_sliding() {
        let mut lazy = strategy("lazy(s=2,p=1)");
        let mut sliding = strategy("sliding(s=2)");
        lazy.warm_up(&routed_block(0, 100, 5, 100));
        sliding.warm_up(&routed_block(0, 100, 5, 100));
        for i in 1..6 {
            let block = routed_block(i * 1_000, 100, 5, 100 + (i as u32 % 2) * 100);
            let a = lazy.test_and_update(&block);
            let b = sliding.test_and_update(&block);
            assert_eq!(a.measures, b.measures, "block {i}");
            assert!(a.regenerated);
        }
    }

    #[test]
    fn regenerates_exactly_on_schedule() {
        let mut s = strategy("lazy(s=2,p=3)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        let flags: Vec<bool> = (1..=9)
            .map(|i| {
                s.test_and_update(&routed_block(i * 1_000, 100, 5, 100))
                    .regenerated
            })
            .collect();
        assert_eq!(
            flags,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn stale_between_regenerations_fresh_after() {
        let mut s = strategy("lazy(s=2,p=3)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        // Routes change immediately; the next three trials miss.
        for i in 1..=3 {
            let t = s.test_and_update(&routed_block(i * 1_000, 100, 5, 200));
            assert_eq!(t.measures.success(), 0.0, "trial {i}");
        }
        // Regeneration happened at trial 3; trial 4 succeeds.
        let t = s.test_and_update(&routed_block(4_000, 100, 5, 200));
        assert_eq!(t.measures.success(), 1.0);
    }

    #[test]
    #[should_panic(expected = "parameter `p` must be at least 1")]
    fn rejects_zero_period() {
        crate::engine::make_strategy("lazy(s=2,p=0)").unwrap();
    }

    /// Lazy with period 1 equals sliding trial for trial on random
    /// streams too.
    #[test]
    fn period_one_equals_sliding_on_random_streams() {
        use crate::eval::evaluate;
        let mut rng = arq_simkern::Rng64::seed_from(0x1A2);
        for case in 0..40 {
            let block = 20 + rng.index(40);
            let len = 2 * block + rng.index(340);
            let stream = super::super::testutil::random_stream(&mut rng, len);
            let a = evaluate(strategy("lazy(s=2,p=1)").as_mut(), &stream, block);
            let b = evaluate(strategy("sliding(s=2)").as_mut(), &stream, block);
            assert_eq!(a.coverage.ys(), b.coverage.ys(), "case {case}");
            assert_eq!(a.success.ys(), b.success.ys(), "case {case}");
        }
    }
}
