//! Tests of [`Maintainer::Incremental`](super::Maintainer), the decayed
//! pair counts driven as a strategy.

#[cfg(test)]
mod tests {
    use super::super::testutil::routed_block;
    use super::super::{Maintainer, Strategy};
    use arq_trace::record::HostId;

    fn incremental(spec: &str) -> Maintainer {
        let m = Maintainer::from_spec(spec).unwrap();
        assert!(matches!(m, Maintainer::Incremental { .. }), "{spec}");
        m
    }

    #[test]
    fn warm_start_gives_full_quality() {
        let mut s = incremental("incremental(t=5,hl=1e9)");
        s.warm_up(&routed_block(0, 100, 5, 100));
        let t = s.test_and_update(&routed_block(1_000, 100, 5, 100));
        assert_eq!(t.measures.coverage(), 1.0);
        assert_eq!(t.measures.success(), 1.0);
        assert!(t.regenerated);
    }

    #[test]
    fn no_lookahead_on_cold_start() {
        let mut s = incremental("incremental(t=5,hl=1e9)");
        // No warm-up at all: the very first queries cannot be covered.
        let t = s.test_and_update(&routed_block(0, 50, 1, 100));
        // 50 pairs, single source: the first 5 pairs build support; the
        // 6th onward are covered.
        assert!(t.measures.coverage() < 1.0);
        assert!(t.measures.covered > 0, "threshold never crossed");
    }

    #[test]
    fn decay_forgets_ancient_routes() {
        let mut s = incremental("incremental(t=5,hl=50)");
        s.warm_up(&routed_block(0, 100, 1, 100));
        // A long stretch of the new route: old association decays away.
        s.test_and_update(&routed_block(1_000, 500, 1, 200));
        assert!(
            !s.matches(HostId(0), HostId(100)),
            "stale route still active"
        );
        assert!(s.matches(HostId(0), HostId(200)), "new route not learned");
    }

    #[test]
    #[should_panic(expected = "parameter `t` must be at least 1")]
    fn rejects_sub_unit_threshold() {
        Maintainer::from_spec("incremental(t=0.5,hl=100)").unwrap();
    }
}
