//! Decayed pair counting for streaming rule maintenance.
//!
//! §VI of the paper sketches "an additional algorithm … that would create
//! rule sets for query routing and update these rules immediately as
//! query and reply messages are received", reporting coverage and success
//! "consistently … above 90%". This module provides the counting
//! substrate for that algorithm: per-`(src, via)` counts that decay
//! exponentially with a configurable half-life measured in observations,
//! so stale associations fade out without ever rebuilding a rule set.
//!
//! Decay is applied lazily: each entry stores `(value, last_update)` and
//! is brought forward only when touched, so `observe` is O(1); queries
//! (`covered`, `matches`, `ranked_into`) scan only the handful of
//! consequents recorded for one source. An amortized sweep drops entries
//! that have decayed to dust, bounding memory by the active association
//! set.
//!
//! Bringing an entry forward costs a `powf`, and the lookups skip it
//! wherever the answer cannot depend on it. The decay factor
//! `0.5^(age/hl)` is at most 1 (and `powf` rounds it to at most 1), so a
//! decayed count never exceeds the stored `value`: an entry whose stored
//! value is already below a threshold is below it after decay too, and
//! only entries whose stored value clears the threshold pay for the
//! `powf`. The skip is exact; a seeded differential against a naive
//! every-entry reference pins that. Both maps use the workspace's seeded
//! integer hasher (`arq_simkern::hash`), and no answer depends on their
//! iteration order: rankings are total orders, and the confidence gate's
//! total is summed in rank order.

use crate::pairs::RuleSet;
use arq_simkern::hash::IntMap;
use arq_trace::record::{HostId, PairRecord};

/// Tolerance for threshold comparisons: decayed counts of logically
/// integer observations accumulate ~1e-9 of floating-point shortfall per
/// hundred updates, which must not flip an exact-threshold comparison.
const THRESHOLD_EPS: f64 = 1e-6;

#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    at: u64,
}

/// A complete, canonically ordered capture of a [`DecayedPairCounts`]
/// — everything [`DecayedPairCounts::restore`] needs to rebuild a
/// counter whose future behavior is bit-for-bit identical to the
/// original's. Entries are sorted by `(src, via)`, so two snapshots of
/// equal counters compare (and serialize) identically; `value` is the
/// stored (not brought-forward) count and `at` its last-update clock,
/// preserving exact decay arithmetic across the round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct DecayedSnapshot {
    /// The counter's half-life, in observations.
    pub half_life: f64,
    /// Total observations fed so far (the decay clock).
    pub clock: u64,
    /// Observations since the last amortized sweep — restoring this
    /// keeps the sweep schedule, and hence every future eviction,
    /// aligned with an uninterrupted counter.
    pub since_sweep: u64,
    /// `(src, via, stored value, last-update clock)` rows, sorted.
    pub entries: Vec<(HostId, HostId, f64, u64)>,
}

/// Exponentially decayed `(src, via)` counts with rule-set-style lookups.
#[derive(Debug, Clone)]
pub struct DecayedPairCounts {
    half_life: f64,
    clock: u64,
    counts: IntMap<HostId, IntMap<HostId, Entry>>,
    entries: usize,
    observations_since_sweep: u64,
}

impl DecayedPairCounts {
    /// Creates a counter whose entries halve every `half_life`
    /// observations.
    pub fn new(half_life: f64) -> Self {
        assert!(half_life > 0.0, "half-life must be positive");
        DecayedPairCounts {
            half_life,
            clock: 0,
            counts: IntMap::default(),
            entries: 0,
            observations_since_sweep: 0,
        }
    }

    /// The configured half-life.
    pub fn half_life(&self) -> f64 {
        self.half_life
    }

    /// Total observations fed so far.
    pub fn observations(&self) -> u64 {
        self.clock
    }

    fn decayed(&self, entry: Entry) -> f64 {
        let age = (self.clock - entry.at) as f64;
        entry.value * 0.5f64.powf(age / self.half_life)
    }

    /// Records one observed query–reply pair association.
    pub fn observe(&mut self, src: HostId, via: HostId) {
        self.clock += 1;
        let clock = self.clock;
        let half_life = self.half_life;
        let inner = self.counts.entry(src).or_default();
        let len_before = inner.len();
        let entry = inner.entry(via).or_insert(Entry {
            value: 0.0,
            at: clock,
        });
        let age = (clock - entry.at) as f64;
        entry.value = entry.value * 0.5f64.powf(age / half_life) + 1.0;
        entry.at = clock;
        self.entries += inner.len() - len_before;
        self.observations_since_sweep += 1;
        if self.observations_since_sweep >= (self.half_life as u64).max(1) * 8 {
            self.sweep(0.01);
            self.observations_since_sweep = 0;
        }
    }

    /// Records the association of a trace pair.
    pub fn observe_pair(&mut self, p: &PairRecord) {
        self.observe(p.src, p.via);
    }

    /// Demotes one association: brings its decayed count forward and
    /// multiplies it by `factor` (in `[0, 1]`). `factor == 0.0` evicts the
    /// rule outright. Negative feedback — a consequent observed dead or a
    /// query that timed out along the rule's route — flows through here,
    /// so a stale rule drops below the support threshold after a few
    /// failures instead of waiting out its half-life.
    pub fn penalize(&mut self, src: HostId, via: HostId, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "penalty factor outside [0, 1]"
        );
        let Some(inner) = self.counts.get_mut(&src) else {
            return;
        };
        let clock = self.clock;
        let half_life = self.half_life;
        if factor == 0.0 {
            if inner.remove(&via).is_some() {
                self.entries -= 1;
            }
            if inner.is_empty() {
                self.counts.remove(&src);
            }
            return;
        }
        if let Some(entry) = inner.get_mut(&via) {
            let age = (clock - entry.at) as f64;
            entry.value = entry.value * 0.5f64.powf(age / half_life) * factor;
            entry.at = clock;
        }
    }

    /// Current decayed count for one association.
    pub fn count(&self, src: HostId, via: HostId) -> f64 {
        self.entry(src, via).map(|e| self.decayed(e)).unwrap_or(0.0)
    }

    fn entry(&self, src: HostId, via: HostId) -> Option<Entry> {
        self.counts.get(&src)?.get(&via).copied()
    }

    /// Whether `src` has any consequent with decayed count ≥ `threshold` —
    /// i.e. whether a materialized rule set would cover it.
    pub fn covered(&self, src: HostId, threshold: f64) -> bool {
        let floor = threshold - THRESHOLD_EPS;
        self.counts.get(&src).is_some_and(|inner| {
            inner
                .values()
                .any(|&e| e.value >= floor && self.decayed(e) >= floor)
        })
    }

    /// Whether the rule `{src} → {via}` would be present at `threshold`.
    pub fn matches(&self, src: HostId, via: HostId, threshold: f64) -> bool {
        let floor = threshold - THRESHOLD_EPS;
        match self.entry(src, via) {
            Some(e) => e.value >= floor && self.decayed(e) >= floor,
            None => 0.0 >= floor,
        }
    }

    /// Ranks `src`'s consequents into `out` (cleared first) as `(via,
    /// decayed count)` rows, by descending count with ties by host id,
    /// keeping those whose count is at least `support` and whose
    /// confidence is at least `min_confidence`. Returns how many
    /// support-qualified consequents the confidence gate removed.
    ///
    /// The confidence of `{src} → {via}` is its decayed count over the
    /// decayed total of *all* of `src`'s consequents, summed in rank
    /// order so its bits do not depend on map order. With
    /// `min_confidence == 0.0` no total is needed, and only consequents
    /// whose stored count clears `support` are decayed. Each decayed
    /// count is computed once. Never changes counter state, so
    /// snapshot/restore and sweep schedules are unaffected.
    pub fn ranked_into(
        &self,
        src: HostId,
        support: f64,
        min_confidence: f64,
        out: &mut Vec<(HostId, f64)>,
    ) -> usize {
        out.clear();
        let Some(inner) = self.counts.get(&src) else {
            return 0;
        };
        let floor = support - THRESHOLD_EPS;
        let by_rank =
            |a: &(HostId, f64), b: &(HostId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if min_confidence <= 0.0 {
            out.extend(
                inner
                    .iter()
                    .filter(|(_, e)| e.value >= floor)
                    .map(|(&via, &e)| (via, self.decayed(e)))
                    .filter(|&(_, v)| v >= floor),
            );
            out.sort_unstable_by(by_rank);
            return 0;
        }
        out.extend(inner.iter().map(|(&via, &e)| (via, self.decayed(e))));
        out.sort_unstable_by(by_rank);
        let total: f64 = out.iter().map(|&(_, v)| v).sum();
        let gate = min_confidence - THRESHOLD_EPS;
        let mut pruned = 0;
        out.retain(|&(_, v)| {
            if v < floor {
                return false;
            }
            let confident = total > 0.0 && v / total >= gate;
            pruned += usize::from(!confident);
            confident
        });
        pruned
    }

    /// The top-`k` consequents of `src` with decayed count ≥ `threshold`,
    /// ranked by descending count (ties by host id).
    pub fn top_k(&self, src: HostId, k: usize, threshold: f64) -> Vec<HostId> {
        self.top_k_confident(src, k, threshold, 0.0)
    }

    /// [`Self::top_k`] with an additional minimum-confidence gate (see
    /// [`Self::ranked_into`]). `min_confidence = 0.0` is exactly
    /// [`Self::top_k`].
    pub fn top_k_confident(
        &self,
        src: HostId,
        k: usize,
        threshold: f64,
        min_confidence: f64,
    ) -> Vec<HostId> {
        let mut ranked = Vec::new();
        self.ranked_into(src, threshold, min_confidence, &mut ranked);
        ranked.into_iter().take(k).map(|(h, _)| h).collect()
    }

    /// Removes entries whose decayed value is below `floor`.
    pub fn sweep(&mut self, floor: f64) {
        let clock = self.clock;
        let half_life = self.half_life;
        for inner in self.counts.values_mut() {
            inner.retain(|_, e| {
                let age = (clock - e.at) as f64;
                e.value >= floor && e.value * 0.5f64.powf(age / half_life) >= floor
            });
        }
        self.counts.retain(|_, inner| !inner.is_empty());
        self.entries = self.counts.values().map(|inner| inner.len()).sum();
    }

    /// Number of live (un-swept) associations.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether no associations are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Captures the complete counter state for checkpointing. The
    /// inverse of [`Self::restore`]; the pair is exact, not lossy —
    /// see [`DecayedSnapshot`].
    pub fn snapshot(&self) -> DecayedSnapshot {
        let mut entries: Vec<(HostId, HostId, f64, u64)> = self
            .counts
            .iter()
            .flat_map(|(&src, inner)| {
                inner
                    .iter()
                    .map(move |(&via, &Entry { value, at })| (src, via, value, at))
            })
            .collect();
        entries.sort_by_key(|e| (e.0, e.1));
        DecayedSnapshot {
            half_life: self.half_life,
            clock: self.clock,
            since_sweep: self.observations_since_sweep,
            entries,
        }
    }

    /// Rebuilds a counter from a [`DecayedSnapshot`]. Feeding the
    /// restored counter the same observation suffix as the snapshotted
    /// original produces identical counts, sweeps, and rule sets.
    pub fn restore(snap: &DecayedSnapshot) -> Self {
        let mut c = DecayedPairCounts::new(snap.half_life);
        c.clock = snap.clock;
        c.observations_since_sweep = snap.since_sweep;
        for &(src, via, value, at) in &snap.entries {
            c.counts
                .entry(src)
                .or_default()
                .insert(via, Entry { value, at });
        }
        c.entries = snap.entries.len();
        c
    }

    /// Materializes a [`RuleSet`] containing every association whose
    /// decayed count is at least `threshold`. Counts are rounded down, so
    /// pruning semantics match block mining with an integer threshold.
    pub fn ruleset(&self, threshold: f64) -> RuleSet {
        assert!(threshold >= 1.0, "threshold below one count is meaningless");
        let min_support = threshold.floor().max(1.0) as u64;
        let rounded = |v: f64| (v + THRESHOLD_EPS).floor() as u64;
        // A row whose stored value rounds below the support is pruned by
        // `from_rows` however far it decays; skip its `powf`.
        let rows = self.counts.iter().flat_map(move |(&src, inner)| {
            inner
                .iter()
                .filter(move |(_, e)| rounded(e.value) >= min_support)
                .map(move |(&via, &e)| (src, via, rounded(self.decayed(e))))
        });
        RuleSet::from_rows(rows, min_support, self.clock as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_without_decay_pressure() {
        let mut c = DecayedPairCounts::new(1e9);
        for _ in 0..100 {
            c.observe(HostId(1), HostId(2));
        }
        assert!((c.count(HostId(1), HostId(2)) - 100.0).abs() < 1e-3);
        assert_eq!(c.observations(), 100);
    }

    #[test]
    fn half_life_halves() {
        let mut c = DecayedPairCounts::new(10.0);
        c.observe(HostId(1), HostId(2)); // count 1 at clock 1
                                         // Advance the clock by 10 observations on an unrelated key.
        for _ in 0..10 {
            c.observe(HostId(8), HostId(9));
        }
        let v = c.count(HostId(1), HostId(2));
        assert!((v - 0.5).abs() < 1e-9, "count {v}");
    }

    #[test]
    fn stale_associations_fade_fresh_ones_dominate() {
        let mut c = DecayedPairCounts::new(50.0);
        for _ in 0..100 {
            c.observe(HostId(1), HostId(10)); // old route
        }
        for _ in 0..100 {
            c.observe(HostId(1), HostId(20)); // new route
        }
        assert!(c.count(HostId(1), HostId(20)) > c.count(HostId(1), HostId(10)));
        let top = c.top_k(HostId(1), 1, 1.0);
        assert_eq!(top, vec![HostId(20)]);
    }

    #[test]
    fn covered_and_matches_respect_threshold() {
        let mut c = DecayedPairCounts::new(1e9);
        for _ in 0..5 {
            c.observe(HostId(1), HostId(10));
        }
        assert!(c.covered(HostId(1), 5.0), "exact threshold must hold");
        assert!(!c.covered(HostId(1), 6.0));
        assert!(c.matches(HostId(1), HostId(10), 4.5));
        assert!(!c.matches(HostId(1), HostId(11), 0.5));
        assert!(!c.covered(HostId(2), 1.0));
    }

    #[test]
    fn top_k_ranks_and_truncates() {
        let mut c = DecayedPairCounts::new(1e9);
        for _ in 0..9 {
            c.observe(HostId(1), HostId(30));
        }
        for _ in 0..5 {
            c.observe(HostId(1), HostId(20));
        }
        for _ in 0..2 {
            c.observe(HostId(1), HostId(10));
        }
        assert_eq!(c.top_k(HostId(1), 2, 1.0), vec![HostId(30), HostId(20)]);
        assert_eq!(c.top_k(HostId(1), 10, 3.0), vec![HostId(30), HostId(20)]);
        assert!(c.top_k(HostId(9), 3, 1.0).is_empty());
    }

    #[test]
    fn top_k_confident_prunes_low_confidence_consequents() {
        let mut c = DecayedPairCounts::new(1e9);
        for _ in 0..70 {
            c.observe(HostId(1), HostId(10)); // confidence 0.7
        }
        for _ in 0..20 {
            c.observe(HostId(1), HostId(20)); // confidence 0.2
        }
        for _ in 0..10 {
            c.observe(HostId(1), HostId(30)); // confidence 0.1
        }
        // No gate: identical to plain top_k.
        assert_eq!(
            c.top_k_confident(HostId(1), 10, 1.0, 0.0),
            c.top_k(HostId(1), 10, 1.0)
        );
        // A 0.15 gate drops only the 0.1 consequent; an exact-threshold
        // confidence (0.2) must survive the epsilon.
        assert_eq!(
            c.top_k_confident(HostId(1), 10, 1.0, 0.2),
            vec![HostId(10), HostId(20)]
        );
        assert_eq!(c.top_k_confident(HostId(1), 10, 1.0, 0.5), vec![HostId(10)]);
        // Unknown source: empty, no panic.
        assert!(c.top_k_confident(HostId(9), 3, 1.0, 0.5).is_empty());
    }

    /// Seeded property sweep (always on, unlike the `proptest`-gated
    /// twin in `tests/prop.rs`): top-(k+1) extends top-k, and no
    /// admitted consequent sits below the support or confidence gates.
    #[test]
    fn top_k_monotone_and_gated_over_random_streams() {
        let mut rng = arq_simkern::Rng64::seed_from(0xA55A_2026);
        for case in 0..50u64 {
            let mut c = DecayedPairCounts::new(if case % 2 == 0 { 1e12 } else { 40.0 });
            for _ in 0..(50 + rng.below(400)) {
                c.observe(
                    HostId(rng.below(5) as u32),
                    HostId(100 + rng.below(6) as u32),
                );
            }
            let support = 1.0 + rng.below(4) as f64;
            let minconf = rng.f64();
            for s in 0..5u32 {
                let src = HostId(s);
                let total: f64 = (0..6u32).map(|v| c.count(src, HostId(100 + v))).sum();
                for k in 1..5usize {
                    let small = c.top_k_confident(src, k, support, minconf);
                    let large = c.top_k_confident(src, k + 1, support, minconf);
                    assert!(large.len() >= small.len());
                    assert_eq!(&large[..small.len()], &small[..], "top-k not a prefix");
                    for &via in &large {
                        let v = c.count(src, via);
                        assert!(v >= support - 2.0 * THRESHOLD_EPS, "sub-support admitted");
                        assert!(
                            v / total >= minconf - 2.0 * THRESHOLD_EPS,
                            "sub-confidence admitted"
                        );
                    }
                }
            }
        }
    }

    /// The naive reference for the lookups: every entry decayed with its
    /// own `powf` (through `count`), no skips. Returns `(via, decayed)`
    /// for all of `src`'s consequents, ranked.
    fn naive_ranked(c: &DecayedPairCounts, src: HostId) -> Vec<(HostId, f64)> {
        let mut all: Vec<(HostId, f64)> = c
            .snapshot()
            .entries
            .iter()
            .filter(|e| e.0 == src)
            .map(|&(_, via, _, _)| (via, c.count(src, via)))
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        all
    }

    /// `ranked_into`'s contract computed from [`naive_ranked`]: the rows
    /// clearing both gates, and how many only the confidence gate cut.
    fn naive_gated(
        c: &DecayedPairCounts,
        src: HostId,
        support: f64,
        minconf: f64,
    ) -> (Vec<(HostId, f64)>, usize) {
        let all = naive_ranked(c, src);
        let total: f64 = all.iter().map(|&(_, v)| v).sum();
        let supported: Vec<(HostId, f64)> = all
            .into_iter()
            .filter(|&(_, v)| v >= support - THRESHOLD_EPS)
            .collect();
        if minconf <= 0.0 {
            return (supported, 0);
        }
        let kept: Vec<(HostId, f64)> = supported
            .iter()
            .copied()
            .filter(|&(_, v)| total > 0.0 && v / total >= minconf - THRESHOLD_EPS)
            .collect();
        let pruned = supported.len() - kept.len();
        (kept, pruned)
    }

    fn bits(rows: &[(HostId, f64)]) -> Vec<(HostId, u64)> {
        rows.iter().map(|&(h, v)| (h, v.to_bits())).collect()
    }

    /// The `powf` skips are exact: on random streams with penalties
    /// (evictions among them), automatic sweeps, and support thresholds
    /// that land exactly on integer counts or on a live decayed count,
    /// `covered`, `matches`, `top_k`, `top_k_confident`, `ranked_into`
    /// and `ruleset` equal a reference that decays every entry.
    #[test]
    fn powf_skips_match_naive_reference() {
        let mut rng = arq_simkern::Rng64::seed_from(0x5C1F_2026);
        let mut out = Vec::new();
        for case in 0..80u64 {
            let half_life = [1e12, 3.0, 17.0, 250.0][case as usize % 4];
            let mut c = DecayedPairCounts::new(half_life);
            for _ in 0..(20 + rng.below(600)) {
                let (src, via) = (
                    HostId(rng.below(4) as u32),
                    HostId(100 + rng.below(8) as u32),
                );
                if rng.chance(0.1) {
                    let factor = [0.0, 0.25, 0.5, 1.0][rng.index(4)];
                    c.penalize(src, via, factor);
                } else {
                    c.observe(src, via);
                }
            }
            for s in 0..5u32 {
                let src = HostId(s);
                let live = naive_ranked(&c, src);
                let mut supports: Vec<f64> = (1..=6).map(f64::from).collect();
                supports.extend(live.iter().map(|&(_, v)| v));
                supports.push(0.5 + rng.f64() * 4.0);
                for &support in &supports {
                    let floor = support - THRESHOLD_EPS;
                    assert_eq!(
                        c.covered(src, support),
                        live.iter().any(|&(_, v)| v >= floor),
                        "case {case}: covered({s}, {support})"
                    );
                    for v in 100..109u32 {
                        let via = HostId(v);
                        assert_eq!(
                            c.matches(src, via, support),
                            c.count(src, via) >= floor,
                            "case {case}: matches({s}, {v}, {support})"
                        );
                    }
                    for minconf in [0.0, 0.05, 0.2, 0.5, rng.f64()] {
                        let (want, want_pruned) = naive_gated(&c, src, support, minconf);
                        let pruned = c.ranked_into(src, support, minconf, &mut out);
                        assert_eq!(bits(&out), bits(&want), "case {case}: ranked_into");
                        assert_eq!(pruned, want_pruned, "case {case}: pruned count");
                        for k in [1, 2, 5, usize::MAX] {
                            let hosts: Vec<HostId> = want.iter().take(k).map(|&(h, _)| h).collect();
                            assert_eq!(c.top_k_confident(src, k, support, minconf), hosts);
                            if minconf == 0.0 {
                                assert_eq!(c.top_k(src, k, support), hosts);
                            }
                        }
                    }
                }
            }
            let t = 1.0 + rng.below(4) as f64;
            let rows = c.snapshot().entries.into_iter().map(|(src, via, _, _)| {
                (src, via, (c.count(src, via) + THRESHOLD_EPS).floor() as u64)
            });
            let naive = RuleSet::from_rows(rows, t as u64, c.observations() as usize);
            assert_eq!(
                c.ruleset(t).digest(),
                naive.digest(),
                "case {case}: ruleset"
            );
        }
    }

    /// A counter and its `restore(&snapshot())` hash with different seeds,
    /// so their maps iterate in different orders; the confidence gate's
    /// total is summed in rank order, so both rank bit-identically.
    #[test]
    fn ranking_does_not_depend_on_map_order() {
        let mut rng = arq_simkern::Rng64::seed_from(0x0DE2);
        let mut c = DecayedPairCounts::new(37.0);
        for _ in 0..5_000 {
            c.observe(HostId(rng.below(3) as u32), HostId(rng.below(60) as u32));
        }
        let restored = DecayedPairCounts::restore(&c.snapshot());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for s in 0..3u32 {
            for minconf in [0.0, 0.01, 0.02, 0.05] {
                let pa = c.ranked_into(HostId(s), 1.0, minconf, &mut a);
                let pb = restored.ranked_into(HostId(s), 1.0, minconf, &mut b);
                assert_eq!((bits(&a), pa), (bits(&b), pb), "src {s}, minconf {minconf}");
            }
        }
    }

    #[test]
    fn penalize_demotes_and_evicts() {
        let mut c = DecayedPairCounts::new(1e9);
        for _ in 0..8 {
            c.observe(HostId(1), HostId(10));
        }
        c.penalize(HostId(1), HostId(10), 0.5);
        assert!((c.count(HostId(1), HostId(10)) - 4.0).abs() < 1e-6);
        // Unknown associations are a no-op.
        c.penalize(HostId(1), HostId(99), 0.5);
        c.penalize(HostId(9), HostId(10), 0.5);
        // A zero factor evicts the rule and its emptied antecedent.
        c.penalize(HostId(1), HostId(10), 0.0);
        assert_eq!(c.count(HostId(1), HostId(10)), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "penalty factor")]
    fn penalize_rejects_growth_factors() {
        let mut c = DecayedPairCounts::new(10.0);
        c.penalize(HostId(1), HostId(2), 1.5);
    }

    #[test]
    fn sweep_drops_dust() {
        let mut c = DecayedPairCounts::new(5.0);
        c.observe(HostId(1), HostId(2));
        for _ in 0..200 {
            c.observe(HostId(3), HostId(4));
        }
        c.sweep(0.01);
        assert_eq!(c.count(HostId(1), HostId(2)), 0.0);
        assert!(c.count(HostId(3), HostId(4)) > 1.0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn automatic_sweep_bounds_memory() {
        let mut c = DecayedPairCounts::new(10.0);
        for i in 0..10_000u32 {
            c.observe(HostId(i), HostId(0));
        }
        assert!(c.len() < 2_000, "map grew to {}", c.len());
    }

    #[test]
    fn ruleset_materialization_thresholds() {
        let mut c = DecayedPairCounts::new(1e9);
        for _ in 0..15 {
            c.observe(HostId(1), HostId(10));
        }
        for _ in 0..3 {
            c.observe(HostId(1), HostId(11));
        }
        let rs = c.ruleset(10.0);
        assert!(rs.matches(HostId(1), HostId(10)));
        assert!(!rs.matches(HostId(1), HostId(11)));
        let loose = c.ruleset(2.0);
        assert!(loose.matches(HostId(1), HostId(11)));
    }

    #[test]
    fn empty_counter() {
        let c = DecayedPairCounts::new(10.0);
        assert!(c.is_empty());
        assert_eq!(c.count(HostId(0), HostId(0)), 0.0);
        assert!(c.ruleset(1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "half-life")]
    fn rejects_nonpositive_half_life() {
        DecayedPairCounts::new(0.0);
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut c = DecayedPairCounts::new(7.0);
        for i in 0..500u32 {
            c.observe(HostId(i % 9), HostId(100 + i % 4));
        }
        c.penalize(HostId(1), HostId(101), 0.5);
        let snap = c.snapshot();
        let mut restored = DecayedPairCounts::restore(&snap);
        assert_eq!(restored.snapshot(), snap, "snapshot not idempotent");
        assert_eq!(restored.len(), c.len());
        assert_eq!(restored.observations(), c.observations());
        // The restored counter's future is the original's future: same
        // observations produce the same counts and the same rule sets,
        // including sweep timing.
        for i in 0..300u32 {
            c.observe(HostId(i % 5), HostId(200));
            restored.observe(HostId(i % 5), HostId(200));
        }
        assert_eq!(c.len(), restored.len(), "sweep schedules diverged");
        assert_eq!(
            c.ruleset(2.0).digest(),
            restored.ruleset(2.0).digest(),
            "rule sets diverged after restore"
        );
    }

    #[test]
    fn snapshot_is_canonically_sorted() {
        let mut c = DecayedPairCounts::new(1e9);
        for (s, v) in [(5u32, 9u32), (1, 3), (5, 2), (0, 7), (1, 1)] {
            c.observe(HostId(s), HostId(v));
        }
        let rows: Vec<(HostId, HostId)> = c
            .snapshot()
            .entries
            .iter()
            .map(|&(s, v, _, _)| (s, v))
            .collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }

    /// Without decay pressure, the decayed counter materializes the same
    /// rule set as block mining, on random streams and thresholds.
    #[test]
    fn decayed_counts_match_block_mining() {
        let mut rng = arq_simkern::Rng64::seed_from(0xDECA);
        for case in 0..60 {
            let len = rng.index(300);
            let pairs = crate::pairs::random_pairs(&mut rng, len);
            let t = 1 + rng.below(5);
            let mut counts = DecayedPairCounts::new(1e12);
            for p in &pairs {
                counts.observe_pair(p);
            }
            let sorted = |rs: RuleSet| {
                let mut rows: Vec<_> = rs.iter().collect();
                rows.sort_unstable();
                rows
            };
            assert_eq!(
                sorted(counts.ruleset(t as f64)),
                sorted(crate::pairs::mine_pairs(&pairs, t)),
                "case {case}"
            );
        }
    }
}
