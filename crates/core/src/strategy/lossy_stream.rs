//! Tests of [`Maintainer::Lossy`](super::Maintainer), Lossy Counting
//! driven as a strategy.

#[cfg(test)]
mod tests {
    use super::super::testutil::routed_block;
    use super::super::{Maintainer, Strategy};
    use arq_trace::record::HostId;

    fn lossy(spec: &str) -> Maintainer {
        let m = Maintainer::from_spec(spec).unwrap();
        assert!(matches!(m, Maintainer::Lossy { .. }), "{spec}");
        m
    }

    #[test]
    fn warm_start_gives_full_quality() {
        let mut s = lossy("lossy(t=5,eps=0.0001)");
        s.warm_up(&routed_block(0, 200, 5, 100));
        let t = s.test_and_update(&routed_block(1_000, 200, 5, 100));
        assert_eq!(t.measures.coverage(), 1.0);
        assert_eq!(t.measures.success(), 1.0);
        assert!(t.regenerated);
    }

    #[test]
    fn stale_routes_linger_longer_than_decay() {
        // Lossy counting has no recency weighting: after a route change,
        // the old association's count stays high until eviction, so the
        // stale rule keeps matching (contrast with `incremental`).
        let mut s = lossy("lossy(t=5,eps=0.001)");
        s.warm_up(&routed_block(0, 1_000, 1, 100));
        s.test_and_update(&routed_block(10_000, 500, 1, 200));
        assert!(
            s.matches(HostId(0), HostId(100)),
            "whole-stream counts should still hold the old route"
        );
        // The new route was also learned.
        assert!(s.matches(HostId(0), HostId(200)));
    }

    #[test]
    fn cold_start_has_no_lookahead() {
        let mut s = lossy("lossy(t=5,eps=0.001)");
        let t = s.test_and_update(&routed_block(0, 50, 1, 100));
        assert!(t.measures.coverage() < 1.0);
        assert!(t.measures.covered > 0);
    }

    #[test]
    #[should_panic(expected = "parameter `t` must be at least 1")]
    fn rejects_zero_threshold() {
        Maintainer::from_spec("lossy(t=0,eps=0.01)").unwrap();
    }
}
