// Property tests require the external `proptest` crate; the feature is
// default-off so offline builds skip this file entirely.
#![cfg(feature = "proptest")]

//! Property-based tests for association analysis.

use arq_assoc::measures::ruleset_test;
use arq_assoc::pairs::{mine_pairs, mine_pairs_with_confidence};
use arq_assoc::DecayedPairCounts;
use arq_simkern::SimTime;
use arq_trace::record::{Guid, HostId, PairRecord, QueryId};
use proptest::prelude::*;

fn arb_pairs() -> impl Strategy<Value = Vec<PairRecord>> {
    proptest::collection::vec((0u32..10, 0u32..10), 0..300).prop_map(|hosts| {
        hosts
            .into_iter()
            .enumerate()
            .map(|(i, (s, v))| PairRecord {
                time: SimTime::from_ticks(i as u64),
                guid: Guid(i as u128),
                src: HostId(s),
                via: HostId(100 + v),
                responder: HostId(999),
                query: QueryId(0),
            })
            .collect()
    })
}

proptest! {
    /// Raising the support threshold mines a subset of rules.
    #[test]
    fn support_pruning_is_monotone(pairs in arb_pairs(), lo in 1u64..5, delta in 0u64..10) {
        let hi = lo + delta;
        let loose = mine_pairs(&pairs, lo);
        let tight = mine_pairs(&pairs, hi);
        for (src, via, count) in tight.iter() {
            prop_assert!(count >= hi);
            prop_assert!(loose.matches(src, via));
        }
        prop_assert!(tight.rule_count() <= loose.rule_count());
    }

    /// Confidence mining at zero equals plain mining.
    #[test]
    fn confidence_zero_is_identity(pairs in arb_pairs(), t in 1u64..6) {
        let a = mine_pairs(&pairs, t);
        let b = mine_pairs_with_confidence(&pairs, t, 0.0);
        let mut ra: Vec<_> = a.iter().collect();
        let mut rb: Vec<_> = b.iter().collect();
        ra.sort_unstable();
        rb.sort_unstable();
        prop_assert_eq!(ra, rb);
    }

    /// RULESET-TEST counts obey 0 ≤ s ≤ n ≤ N and both measures stay in
    /// [0, 1]; a rule set mined from the block itself at threshold 1 is
    /// perfect.
    #[test]
    fn measures_are_bounded(train in arb_pairs(), test in arb_pairs()) {
        let rules = mine_pairs(&train, 2);
        let m = ruleset_test(&rules, &test);
        prop_assert!(m.successes <= m.covered);
        prop_assert!(m.covered <= m.total);
        prop_assert!((0.0..=1.0).contains(&m.coverage()));
        prop_assert!((0.0..=1.0).contains(&m.success()));

        if !test.is_empty() {
            let self_rules = mine_pairs(&test, 1);
            let perfect = ruleset_test(&self_rules, &test);
            prop_assert_eq!(perfect.coverage(), 1.0);
            prop_assert_eq!(perfect.success(), 1.0);
        }
    }

    /// Without decay pressure, the decayed counter materializes the same
    /// rule set as block mining.
    #[test]
    fn decayed_counts_match_block_mining(pairs in arb_pairs(), t in 1u64..6) {
        let mut counts = DecayedPairCounts::new(1e12);
        for p in &pairs {
            counts.observe_pair(p);
        }
        let from_stream = counts.ruleset(t as f64);
        let from_block = mine_pairs(&pairs, t);
        let mut ra: Vec<_> = from_stream.iter().collect();
        let mut rb: Vec<_> = from_block.iter().collect();
        ra.sort_unstable();
        rb.sort_unstable();
        prop_assert_eq!(ra, rb);
    }
}

proptest! {
    /// Lossy Counting never reports more than the true count and never
    /// undershoots by more than εN; associations above the guarantee are
    /// always tracked.
    #[test]
    fn lossy_counting_error_guarantee(
        stream in proptest::collection::vec((0u32..6, 0u32..6), 1..2_000),
        eps_milli in 5u32..200,
    ) {
        let eps = f64::from(eps_milli) / 1000.0;
        let mut lossy = arq_assoc::LossyPairCounts::new(eps);
        let mut exact: std::collections::HashMap<(u32, u32), u64> = Default::default();
        for &(s, v) in &stream {
            lossy.observe(HostId(s), HostId(100 + v));
            *exact.entry((s, v)).or_insert(0) += 1;
        }
        let n = stream.len() as f64;
        let slack = (eps * n).ceil() as u64;
        for (&(s, v), &true_count) in &exact {
            let reported = lossy.count(HostId(s), HostId(100 + v));
            prop_assert!(reported <= true_count, "overcount for ({s},{v})");
            prop_assert!(
                reported + slack >= true_count,
                "undercount beyond eps*N for ({s},{v}): {reported} vs {true_count}"
            );
        }
    }

    /// Packed-table counting is exactly the `HashMap` reference for
    /// arbitrary blocks (including empty ones) and support thresholds.
    #[test]
    fn pair_miner_equals_reference(pairs in arb_pairs(), t in 1u64..6) {
        let reference = mine_pairs(&pairs, t);
        let mut miner = arq_assoc::PairMiner::new();
        // Mine twice through the same miner: the scratch table must be
        // stateless across blocks.
        let _ = miner.mine(&pairs, t);
        let packed = miner.mine(&pairs, t);
        let mut ra: Vec<_> = reference.iter().collect();
        let mut rb: Vec<_> = packed.iter().collect();
        ra.sort_unstable();
        rb.sort_unstable();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(reference.rule_count(), packed.rule_count());
        prop_assert_eq!(reference.antecedent_count(), packed.antecedent_count());
        // The ranked consequent lists (what routing actually consults)
        // agree per antecedent, order included.
        for src in pairs.iter().map(|p| p.src).collect::<std::collections::HashSet<_>>() {
            prop_assert_eq!(reference.consequents(src), packed.consequents(src));
        }
    }

    /// `top_k` is monotone in `k` (top-(k+1) extends top-k) and never
    /// admits a consequent below the support or confidence gates, for
    /// both maintainers.
    #[test]
    fn top_k_is_monotone_and_never_admits_subthreshold(
        stream in proptest::collection::vec((0u32..6, 0u32..6), 1..800),
        k in 1usize..6,
        support in 1u64..5,
        minconf_milli in 0u32..1000,
    ) {
        let minconf = f64::from(minconf_milli) / 1000.0;
        let mut decayed = DecayedPairCounts::new(1e12);
        let mut lossy = arq_assoc::LossyPairCounts::new(0.0001);
        for &(s, v) in &stream {
            decayed.observe(HostId(s), HostId(100 + v));
            lossy.observe(HostId(s), HostId(100 + v));
        }
        for s in 0u32..6 {
            let src = HostId(s);
            // k-monotonicity: top-(k+1) starts with top-k.
            let small = decayed.top_k_confident(src, k, support as f64, minconf);
            let large = decayed.top_k_confident(src, k + 1, support as f64, minconf);
            prop_assert_eq!(&large[..small.len().min(large.len())], &small[..]);
            let lsmall = lossy.top_k_confident(src, k, support, minconf);
            let llarge = lossy.top_k_confident(src, k + 1, support, minconf);
            prop_assert_eq!(&llarge[..lsmall.len().min(llarge.len())], &lsmall[..]);
            // No admitted consequent sits below either gate.
            let dtotal: f64 = (0u32..6).map(|v| decayed.count(src, HostId(100 + v))).sum();
            for &via in &large {
                let c = decayed.count(src, via);
                prop_assert!(c >= support as f64 - 1e-6);
                prop_assert!(c / dtotal >= minconf - 1e-6);
            }
            let ltotal: u64 = (0u32..6).map(|v| lossy.count(src, HostId(100 + v))).sum();
            for &via in &llarge {
                let c = lossy.count(src, via);
                prop_assert!(c >= support);
                prop_assert!(c as f64 / ltotal as f64 >= minconf - 1e-9);
            }
        }
    }

    /// Keyed mining with the plain `src` key is exactly `mine_pairs`.
    #[test]
    fn keyed_src_equals_plain(pairs in arb_pairs(), t in 1u64..6) {
        let keyed = arq_assoc::mine_keyed(&pairs, |p| p.src, t);
        let plain = mine_pairs(&pairs, t);
        let mut ka: Vec<_> = pairs
            .iter()
            .map(|p| p.src)
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        ka.sort_unstable();
        for src in ka {
            prop_assert_eq!(keyed.consequents(src), plain.consequents(src));
        }
        prop_assert_eq!(keyed.rule_count(), plain.rule_count());
        // Measures agree on any test block.
        let m1 = arq_assoc::keyed_ruleset_test(&keyed, &pairs, |p| p.src);
        let m2 = ruleset_test(&plain, &pairs);
        prop_assert_eq!(m1, m2);
    }
}
