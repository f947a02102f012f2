//! Per-node interest profiles.
//!
//! A node's interests are a small weighted set of topics. Queries are
//! drawn from the profile, and the node's shared library is drawn from the
//! same profile — that correlation *is* interest-based locality.
//!
//! Profiles can **drift**: at each drift step, with some probability one
//! interest is replaced by a fresh topic. Drift plus churn together
//! produce the slow decay of rule-set quality the paper measures.
//!
//! Drawing and drifting work on a topic slice and a weight slice, so one
//! implementation serves an owned
//! [`InterestProfile`] and the flat per-network profile table of
//! [`crate::WorkloadGen`], where every node's topics sit in one `Vec`
//! and all nodes share one weight vector.

use crate::catalog::Topic;
use arq_simkern::Rng64;

/// A weighted set of topics a node cares about.
#[derive(Debug, Clone)]
pub struct InterestProfile {
    topics: Vec<Topic>,
    weights: Vec<f64>, // normalized, same length as topics
}

impl InterestProfile {
    /// Samples a profile of `k` distinct topics from `topic_count`,
    /// weighted by a geometric decay (the first interest dominates).
    pub fn sample(topic_count: usize, k: usize, rng: &mut Rng64) -> Self {
        let weights = sampled_weights(topic_count, k);
        let mut topics = Vec::with_capacity(weights.len());
        sample_topics(topic_count, weights.len(), rng, &mut topics);
        InterestProfile { topics, weights }
    }

    /// Builds a profile from explicit topic/weight pairs (weights need not
    /// be normalized, but must be non-negative with a positive, finite
    /// sum).
    pub fn from_pairs(pairs: &[(Topic, f64)]) -> Self {
        assert!(!pairs.is_empty(), "empty interest profile");
        assert!(
            pairs.iter().all(|(_, w)| *w >= 0.0),
            "negative profile weight"
        );
        let total: f64 = pairs.iter().map(|(_, w)| *w).sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "profile weights must have a positive, finite sum"
        );
        InterestProfile {
            topics: pairs.iter().map(|(t, _)| *t).collect(),
            weights: pairs.iter().map(|(_, w)| w / total).collect(),
        }
    }

    /// The topics in the profile.
    pub fn topics(&self) -> &[Topic] {
        &self.topics
    }

    /// The normalized weights, matching [`InterestProfile::topics`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The normalized weight of topic at position `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Draws a topic according to the profile weights.
    pub fn sample_topic(&self, rng: &mut Rng64) -> Topic {
        sample_topic(&self.topics, &self.weights, rng)
    }

    /// One drift step: with probability `p`, replaces the least-weighted
    /// interest with a uniformly random topic not already present.
    /// Returns whether a replacement happened.
    pub fn drift(&mut self, topic_count: usize, p: f64, rng: &mut Rng64) -> bool {
        drift(&mut self.topics, &self.weights, topic_count, p, rng)
    }

    /// Jaccard overlap of the topic sets of two profiles — used by tests
    /// and by the interest-shortcut baseline to gauge peer similarity.
    pub fn overlap(&self, other: &InterestProfile) -> f64 {
        let a: std::collections::BTreeSet<Topic> = self.topics.iter().copied().collect();
        let b: std::collections::BTreeSet<Topic> = other.topics.iter().copied().collect();
        let inter = a.intersection(&b).count();
        let union = a.union(&b).count();
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// The weights of every sampled profile of `min(k, topic_count)`
/// interests (at least one), normalized: a geometric decay, so the
/// first interest dominates.
pub(crate) fn sampled_weights(topic_count: usize, k: usize) -> Vec<f64> {
    assert!(topic_count > 0, "no topics to choose from");
    let k = k.clamp(1, topic_count);
    let mut weights: Vec<f64> = (0..k).map(|i| 0.6f64.powi(i as i32)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    weights
}

/// Appends `k <= topic_count` distinct topics drawn uniformly to `out`.
pub(crate) fn sample_topics(topic_count: usize, k: usize, rng: &mut Rng64, out: &mut Vec<Topic>) {
    rng.sample_into(topic_count, k, out, |t| Topic(t as u16));
}

/// Draws one of `topics` with the matching normalized `weights`.
pub(crate) fn sample_topic(topics: &[Topic], weights: &[f64], rng: &mut Rng64) -> Topic {
    topics[topic_index(weights, rng.f64())]
}

/// The position of the first topic whose running weight exceeds `u`,
/// or the last topic. The weights are non-negative, so the running
/// sums never decrease and counting the sums `<= u` finds that
/// position without a data-dependent branch.
fn topic_index(weights: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    let mut i = 0;
    for w in weights {
        acc += w;
        i += usize::from(acc <= u);
    }
    i.min(weights.len() - 1)
}

/// [`InterestProfile::drift`] over `topics` with the matching
/// `weights`.
pub(crate) fn drift(
    topics: &mut [Topic],
    weights: &[f64],
    topic_count: usize,
    p: f64,
    rng: &mut Rng64,
) -> bool {
    if !rng.chance(p) {
        return false;
    }
    if topic_count <= topics.len() {
        return false; // nothing new to drift to
    }
    let mut guard = 0;
    let new_topic = loop {
        let cand = Topic(rng.below(topic_count as u64) as u16);
        if !topics.contains(&cand) {
            break cand;
        }
        guard += 1;
        if guard > 10_000 {
            return false;
        }
    };
    // Replace the entry with the smallest weight.
    let (idx, _) = weights
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    topics[idx] = new_topic;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_gives_distinct_topics_and_normalized_weights() {
        let mut rng = Rng64::seed_from(1);
        let p = InterestProfile::sample(50, 4, &mut rng);
        assert_eq!(p.topics().len(), 4);
        let set: std::collections::HashSet<_> = p.topics().iter().collect();
        assert_eq!(set.len(), 4);
        let total: f64 = (0..4).map(|i| p.weight(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p.weight(0) > p.weight(3), "first interest must dominate");
    }

    #[test]
    fn k_clamped_to_topic_count() {
        let mut rng = Rng64::seed_from(2);
        let p = InterestProfile::sample(2, 10, &mut rng);
        assert_eq!(p.topics().len(), 2);
    }

    #[test]
    fn sample_topic_respects_weights() {
        let p = InterestProfile::from_pairs(&[(Topic(0), 3.0), (Topic(1), 1.0)]);
        let mut rng = Rng64::seed_from(3);
        let n = 100_000;
        let zero = (0..n)
            .filter(|_| p.sample_topic(&mut rng) == Topic(0))
            .count();
        let frac = zero as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
    }

    /// The early-exit loop `topic_index` replaced.
    fn reference_index(p: &InterestProfile, u: f64) -> usize {
        let mut acc = 0.0;
        for (i, w) in p.weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return i;
            }
        }
        p.weights.len() - 1
    }

    #[test]
    fn topic_index_equals_the_early_exit_loop() {
        let mut rng = Rng64::seed_from(0x1D7);
        let mut profiles: Vec<InterestProfile> = (1..=8)
            .map(|k| InterestProfile::sample(20, k, &mut rng))
            .collect();
        profiles.extend([
            InterestProfile::from_pairs(&[(Topic(0), 1.0)]),
            InterestProfile::from_pairs(&[(Topic(0), 3.0), (Topic(1), 7.0), (Topic(2), 0.1)]),
            InterestProfile::from_pairs(&[(Topic(0), 1e-300), (Topic(1), 1.0), (Topic(2), 1e-300)]),
            InterestProfile::from_pairs(&[(Topic(0), 0.0), (Topic(1), 2.5), (Topic(2), 0.0)]),
            InterestProfile::from_pairs(&[(Topic(4), 1e-9), (Topic(5), 1e-9), (Topic(6), 1e-9)]),
        ]);
        for p in &profiles {
            let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            let mut acc = 0.0;
            for w in &p.weights {
                acc += w;
                us.extend([acc, acc.next_down(), acc.next_up()]);
            }
            us.extend((0..20_000).map(|_| rng.f64()));
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(
                    topic_index(&p.weights, u),
                    reference_index(p, u),
                    "{p:?} u {u:e}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "negative profile weight")]
    fn from_pairs_rejects_negative_weights() {
        InterestProfile::from_pairs(&[(Topic(0), 2.0), (Topic(1), -1.0)]);
    }

    #[test]
    fn sampled_profiles_have_distinct_topics_and_normalized_weights() {
        let mut rng = Rng64::seed_from(0x1D8);
        for _ in 0..200 {
            let topics = 1 + rng.index(99);
            let k = 1 + rng.index(9);
            let p = InterestProfile::sample(topics, k, &mut rng);
            let kk = k.min(topics);
            assert_eq!(p.topics().len(), kk);
            let set: std::collections::HashSet<_> = p.topics().iter().collect();
            assert_eq!(set.len(), kk);
            let total: f64 = (0..kk).map(|i| p.weight(i)).sum();
            assert!((total - 1.0).abs() < 1e-9);
            for _ in 0..50 {
                assert!(p.topics().contains(&p.sample_topic(&mut rng)));
            }
        }
    }

    #[test]
    fn drift_preserves_size_distinctness_and_range() {
        let mut rng = Rng64::seed_from(0x1D9);
        for _ in 0..100 {
            let topics = 2 + rng.index(48);
            let mut p = InterestProfile::sample(topics, 3, &mut rng);
            let size = p.topics().len();
            for _ in 0..rng.index(100) {
                p.drift(topics, 0.5, &mut rng);
                assert_eq!(p.topics().len(), size);
                let set: std::collections::HashSet<_> = p.topics().iter().collect();
                assert_eq!(set.len(), size, "drift produced duplicate topics");
                assert!(p.topics().iter().all(|t| (t.0 as usize) < topics));
            }
        }
    }

    #[test]
    fn overlap_is_symmetric_and_bounded() {
        let mut rng = Rng64::seed_from(0x1DA);
        for _ in 0..200 {
            let a = InterestProfile::sample(30, 4, &mut rng);
            let b = InterestProfile::sample(30, 4, &mut rng);
            let ab = a.overlap(&b);
            assert!((0.0..=1.0).contains(&ab));
            assert!((ab - b.overlap(&a)).abs() < 1e-12);
        }
    }

    #[test]
    fn drift_replaces_weakest_interest() {
        let mut p = InterestProfile::from_pairs(&[(Topic(0), 0.7), (Topic(1), 0.3)]);
        let mut rng = Rng64::seed_from(4);
        let changed = p.drift(100, 1.0, &mut rng);
        assert!(changed);
        assert_eq!(p.topics()[0], Topic(0), "dominant interest replaced");
        assert_ne!(p.topics()[1], Topic(1), "weakest interest not replaced");
    }

    #[test]
    fn drift_never_fires_with_p_zero() {
        let mut p = InterestProfile::from_pairs(&[(Topic(0), 1.0)]);
        let mut rng = Rng64::seed_from(5);
        for _ in 0..100 {
            assert!(!p.drift(10, 0.0, &mut rng));
        }
        assert_eq!(p.topics(), &[Topic(0)]);
    }

    #[test]
    fn drift_noop_when_no_new_topics() {
        let mut p = InterestProfile::from_pairs(&[(Topic(0), 0.5), (Topic(1), 0.5)]);
        let mut rng = Rng64::seed_from(6);
        assert!(!p.drift(2, 1.0, &mut rng));
    }

    #[test]
    fn overlap_bounds_and_identity() {
        let a = InterestProfile::from_pairs(&[(Topic(0), 1.0), (Topic(1), 1.0)]);
        let b = InterestProfile::from_pairs(&[(Topic(1), 1.0), (Topic(2), 1.0)]);
        let c = InterestProfile::from_pairs(&[(Topic(7), 1.0)]);
        assert!((a.overlap(&a) - 1.0).abs() < 1e-12);
        assert!((a.overlap(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.overlap(&c), 0.0);
    }
}
