//! Lossy Counting over query–reply pair streams.
//!
//! The paper points at stream mining (§VI, citing Babcock et al. \[18\])
//! as the way to maintain rules without periodic regeneration. Lossy
//! Counting (Manku & Motwani, VLDB'02) is the classic algorithm for
//! frequent items over a stream with bounded memory and a deterministic
//! error guarantee:
//!
//! * the stream is processed in buckets of width `⌈1/ε⌉`;
//! * each tracked item keeps a count and the bucket it was inserted in;
//! * at every bucket boundary, items whose `count + insertion_bucket ≤
//!   current_bucket` are evicted;
//! * any item with true frequency ≥ `εN` is guaranteed to be tracked,
//!   and reported counts undershoot true counts by at most `εN`.
//!
//! Applied here to `(src, via)` associations, it yields rule sets whose
//! support threshold adapts to the stream length — an alternative to the
//! exponential-decay maintainer with hard error bounds instead of
//! recency weighting. Experiment E14 compares the two.

use crate::pairs::RuleSet;
use arq_trace::record::{HostId, PairRecord};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u64,
    /// Maximum possible undercount (`Δ` in the paper): the bucket id at
    /// insertion time.
    delta: u64,
}

/// A complete, canonically ordered capture of a [`LossyPairCounts`] —
/// the checkpointable analogue of
/// [`crate::incremental::DecayedSnapshot`]. Entries sort by `(src,
/// via)`; `count`/`delta` are the Manku–Motwani per-item state, so a
/// restored counter evicts and reports exactly as the original would.
#[derive(Debug, Clone, PartialEq)]
pub struct LossySnapshot {
    /// The configured error bound.
    pub epsilon: f64,
    /// Current bucket id.
    pub current_bucket: u64,
    /// Stream length so far.
    pub seen: u64,
    /// `(src, via, count, delta)` rows, sorted.
    pub entries: Vec<(HostId, HostId, u64, u64)>,
}

/// Lossy Counting over `(src, via)` associations.
#[derive(Debug, Clone)]
pub struct LossyPairCounts {
    epsilon: f64,
    bucket_width: u64,
    current_bucket: u64,
    seen: u64,
    counts: HashMap<HostId, HashMap<HostId, Entry>>,
    entries: usize,
}

impl LossyPairCounts {
    /// Creates a counter with error bound `epsilon` (e.g. `0.0001` for
    /// ±0.01 % of the stream length).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        LossyPairCounts {
            epsilon,
            bucket_width: (1.0 / epsilon).ceil() as u64,
            current_bucket: 1,
            seen: 0,
            counts: HashMap::new(),
            entries: 0,
        }
    }

    /// The configured error bound.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Stream length so far.
    pub fn observations(&self) -> u64 {
        self.seen
    }

    /// Number of tracked associations (bounded by `O(1/ε · log(εN))`).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Feeds one association.
    pub fn observe(&mut self, src: HostId, via: HostId) {
        self.seen += 1;
        let bucket = self.current_bucket;
        let inner = self.counts.entry(src).or_default();
        let before = inner.len();
        inner
            .entry(via)
            .and_modify(|e| e.count += 1)
            .or_insert(Entry {
                count: 1,
                delta: bucket - 1,
            });
        self.entries += inner.len() - before;
        if self.seen.is_multiple_of(self.bucket_width) {
            // Bucket boundary: evict infrequent entries.
            let b = self.current_bucket;
            for inner in self.counts.values_mut() {
                inner.retain(|_, e| e.count + e.delta > b);
            }
            self.counts.retain(|_, inner| !inner.is_empty());
            self.entries = self.counts.values().map(HashMap::len).sum();
            self.current_bucket += 1;
        }
    }

    /// Feeds a trace pair.
    pub fn observe_pair(&mut self, p: &PairRecord) {
        self.observe(p.src, p.via);
    }

    /// Lower-bound count for one association (true count is within
    /// `+ εN` of this).
    pub fn count(&self, src: HostId, via: HostId) -> u64 {
        self.counts
            .get(&src)
            .and_then(|inner| inner.get(&via))
            .map(|e| e.count)
            .unwrap_or(0)
    }

    /// Whether `src` has any association with `count ≥ threshold`.
    pub fn covered(&self, src: HostId, threshold: u64) -> bool {
        self.counts
            .get(&src)
            .is_some_and(|inner| inner.values().any(|e| e.count >= threshold))
    }

    /// The top-`k` consequents of `src` with count ≥ `threshold`, ranked
    /// by descending count (ties by host id).
    pub fn top_k(&self, src: HostId, k: usize, threshold: u64) -> Vec<HostId> {
        let Some(inner) = self.counts.get(&src) else {
            return Vec::new();
        };
        let mut ranked: Vec<(HostId, u64)> = inner
            .iter()
            .filter(|(_, e)| e.count >= threshold)
            .map(|(&via, e)| (via, e.count))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().take(k).map(|(h, _)| h).collect()
    }

    /// Whether the rule `{src} → {via}` meets the threshold.
    pub fn matches(&self, src: HostId, via: HostId, threshold: u64) -> bool {
        self.count(src, via) >= threshold
    }

    /// [`Self::top_k`] with an additional minimum-confidence gate: the
    /// confidence of `{src} → {via}` is its reported count over the
    /// reported total across *all* of `src`'s consequents. Both numbers
    /// are the Manku–Motwani lower bounds already stored, so the gate is
    /// computed on the fly and never mutates counter state.
    /// `min_confidence = 0.0` reduces exactly to [`Self::top_k`].
    pub fn top_k_confident(
        &self,
        src: HostId,
        k: usize,
        threshold: u64,
        min_confidence: f64,
    ) -> Vec<HostId> {
        let Some(inner) = self.counts.get(&src) else {
            return Vec::new();
        };
        let total: u64 = inner.values().map(|e| e.count).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut ranked: Vec<(HostId, u64)> = inner
            .iter()
            .filter(|(_, e)| {
                e.count >= threshold && e.count as f64 / total as f64 >= min_confidence - 1e-9
            })
            .map(|(&via, e)| (via, e.count))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().take(k).map(|(h, _)| h).collect()
    }

    /// Captures the complete counter state for checkpointing; the exact
    /// inverse of [`Self::restore`].
    pub fn snapshot(&self) -> LossySnapshot {
        let mut entries: Vec<(HostId, HostId, u64, u64)> = self
            .counts
            .iter()
            .flat_map(|(&src, inner)| {
                inner
                    .iter()
                    .map(move |(&via, &Entry { count, delta })| (src, via, count, delta))
            })
            .collect();
        entries.sort();
        LossySnapshot {
            epsilon: self.epsilon,
            current_bucket: self.current_bucket,
            seen: self.seen,
            entries,
        }
    }

    /// Rebuilds a counter from a [`LossySnapshot`]. Feeding the restored
    /// counter the same observation suffix as the snapshotted original
    /// produces identical counts, evictions, and rule sets.
    pub fn restore(snap: &LossySnapshot) -> Self {
        let mut c = LossyPairCounts::new(snap.epsilon);
        c.current_bucket = snap.current_bucket;
        c.seen = snap.seen;
        for &(src, via, count, delta) in &snap.entries {
            c.counts
                .entry(src)
                .or_default()
                .insert(via, Entry { count, delta });
        }
        c.entries = snap.entries.len();
        c
    }

    /// Materializes a [`RuleSet`] of all associations whose *guaranteed*
    /// frequency is at least `support` (i.e. reported count ≥ support −
    /// εN, the paper's output rule with `s = support/N`).
    pub fn ruleset(&self, support: u64) -> RuleSet {
        let slack = (self.epsilon * self.seen as f64) as u64;
        let floor = support.saturating_sub(slack).max(1);
        let rows = self
            .counts
            .iter()
            .flat_map(|(&src, inner)| inner.iter().map(move |(&via, e)| (src, via, e.count)));
        RuleSet::from_rows(rows, floor, self.seen as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_for_heavy_hitters() {
        let mut c = LossyPairCounts::new(0.01); // buckets of 100
        for i in 0..10_000u32 {
            // (1, 10) appears every other observation -> frequency 0.5.
            if i % 2 == 0 {
                c.observe(HostId(1), HostId(10));
            } else {
                c.observe(HostId(i % 50 + 100), HostId(0)); // light noise
            }
        }
        let reported = c.count(HostId(1), HostId(10));
        let true_count = 5_000;
        let slack = (0.01 * 10_000.0) as u64;
        assert!(reported <= true_count);
        assert!(
            reported + slack >= true_count,
            "undercount beyond guarantee: {reported}"
        );
        assert!(c.covered(HostId(1), 4_000));
    }

    #[test]
    fn light_items_are_evicted() {
        let mut c = LossyPairCounts::new(0.01);
        c.observe(HostId(7), HostId(8)); // appears once, then never again
        for i in 0..1_000u32 {
            c.observe(HostId(1), HostId(i % 3 + 20));
        }
        assert_eq!(c.count(HostId(7), HostId(8)), 0, "one-off not evicted");
        assert!(!c.covered(HostId(7), 1));
    }

    #[test]
    fn memory_stays_bounded() {
        let mut c = LossyPairCounts::new(0.001);
        // 200k distinct one-off associations plus one heavy hitter.
        for i in 0..200_000u32 {
            c.observe(HostId(i), HostId(i));
            c.observe(HostId(0), HostId(1));
        }
        // Without eviction this would hold 200k+1 entries.
        assert!(c.len() < 10_000, "tracked {} entries", c.len());
        assert!(c.count(HostId(0), HostId(1)) > 190_000);
    }

    #[test]
    fn no_false_negatives_at_guaranteed_support() {
        // Any association with true frequency >= eps*N must be tracked.
        let mut c = LossyPairCounts::new(0.02);
        let n = 5_000u32;
        for i in 0..n {
            match i % 20 {
                0..=9 => c.observe(HostId(1), HostId(10)),   // 50%
                10..=12 => c.observe(HostId(2), HostId(20)), // 15%
                13 => c.observe(HostId(3), HostId(30)),      // 5%
                _ => c.observe(HostId(100 + i), HostId(0)),  // singletons
            }
        }
        // All three have frequency >= 2% and must be present.
        assert!(c.count(HostId(1), HostId(10)) > 0);
        assert!(c.count(HostId(2), HostId(20)) > 0);
        assert!(c.count(HostId(3), HostId(30)) > 0);
    }

    #[test]
    fn top_k_confident_prunes_low_confidence_consequents() {
        let mut c = LossyPairCounts::new(0.0001); // wide buckets: exact counts
        for _ in 0..70 {
            c.observe(HostId(1), HostId(10)); // confidence 0.7
        }
        for _ in 0..20 {
            c.observe(HostId(1), HostId(20)); // confidence 0.2
        }
        for _ in 0..10 {
            c.observe(HostId(1), HostId(30)); // confidence 0.1
        }
        assert_eq!(
            c.top_k_confident(HostId(1), 10, 1, 0.0),
            c.top_k(HostId(1), 10, 1)
        );
        assert_eq!(
            c.top_k_confident(HostId(1), 10, 1, 0.2),
            vec![HostId(10), HostId(20)]
        );
        assert_eq!(c.top_k_confident(HostId(1), 10, 1, 0.5), vec![HostId(10)]);
        assert!(c.top_k_confident(HostId(9), 3, 1, 0.5).is_empty());
    }

    /// Seeded property sweep mirroring the decayed maintainer's: the
    /// lossy `top_k_confident` is k-monotone and never admits a
    /// consequent below the support or confidence gates.
    #[test]
    fn top_k_monotone_and_gated_over_random_streams() {
        let mut rng = arq_simkern::Rng64::seed_from(0x0001_0551_2026);
        for _ in 0..50u64 {
            let mut c = LossyPairCounts::new(0.001);
            for _ in 0..(50 + rng.below(400)) {
                c.observe(
                    HostId(rng.below(5) as u32),
                    HostId(100 + rng.below(6) as u32),
                );
            }
            let support = 1 + rng.below(4);
            let minconf = rng.f64();
            for s in 0..5u32 {
                let src = HostId(s);
                let total: u64 = (0..6u32).map(|v| c.count(src, HostId(100 + v))).sum();
                for k in 1..5usize {
                    let small = c.top_k_confident(src, k, support, minconf);
                    let large = c.top_k_confident(src, k + 1, support, minconf);
                    assert!(large.len() >= small.len());
                    assert_eq!(&large[..small.len()], &small[..], "top-k not a prefix");
                    for &via in &large {
                        let v = c.count(src, via);
                        assert!(v >= support, "sub-support admitted");
                        assert!(
                            v as f64 / total as f64 >= minconf - 1e-9,
                            "sub-confidence admitted"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ruleset_materialization_applies_slack() {
        let mut c = LossyPairCounts::new(0.01);
        for _ in 0..500 {
            c.observe(HostId(1), HostId(10));
        }
        let rs = c.ruleset(400);
        assert!(rs.matches(HostId(1), HostId(10)));
        let strict = c.ruleset(10_000);
        assert!(strict.is_empty());
    }

    #[test]
    fn empty_counter() {
        let c = LossyPairCounts::new(0.1);
        assert!(c.is_empty());
        assert_eq!(c.count(HostId(0), HostId(0)), 0);
        assert_eq!(c.observations(), 0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        LossyPairCounts::new(0.0);
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut c = LossyPairCounts::new(0.01);
        for i in 0..777u32 {
            c.observe(HostId(i % 7), HostId(100 + i % 5));
        }
        let snap = c.snapshot();
        let mut restored = LossyPairCounts::restore(&snap);
        assert_eq!(restored.snapshot(), snap, "snapshot not idempotent");
        assert_eq!(restored.observations(), c.observations());
        // Same suffix, same future: evictions at bucket boundaries and
        // the resulting rule sets stay identical.
        for i in 0..500u32 {
            c.observe(HostId(i), HostId(0));
            restored.observe(HostId(i), HostId(0));
        }
        assert_eq!(c.len(), restored.len(), "evictions diverged");
        assert_eq!(
            c.ruleset(20).digest(),
            restored.ruleset(20).digest(),
            "rule sets diverged after restore"
        );
    }

    /// Lossy Counting never reports more than the true count and never
    /// undershoots it by more than `ceil(εN)`, on random streams and
    /// error bounds.
    #[test]
    fn lossy_counting_error_guarantee() {
        let mut rng = arq_simkern::Rng64::seed_from(0x1055);
        for case in 0..60 {
            let eps = (5 + rng.below(195)) as f64 / 1000.0;
            let n = 1 + rng.index(2_000);
            let mut lossy = LossyPairCounts::new(eps);
            let mut exact: HashMap<(HostId, HostId), u64> = HashMap::new();
            for _ in 0..n {
                let (s, v) = (
                    HostId(rng.below(6) as u32),
                    HostId(100 + rng.below(6) as u32),
                );
                lossy.observe(s, v);
                *exact.entry((s, v)).or_insert(0) += 1;
            }
            let slack = (eps * n as f64).ceil() as u64;
            for (&(s, v), &truth) in &exact {
                let reported = lossy.count(s, v);
                assert!(
                    reported <= truth,
                    "case {case}: overcount for ({s:?},{v:?})"
                );
                assert!(
                    reported + slack >= truth,
                    "case {case}: {reported} undercounts {truth} by more than {slack}"
                );
            }
        }
    }
}
