//! Online association-rule routing for the live simulator.
//!
//! This is the deployment the paper argues for: each node watches the
//! hits flowing back through it and learns `{upstream} → {via}`
//! associations; future queries arriving from a known upstream are
//! forwarded only to the top-k learned consequents instead of being
//! flooded. When no rule applies — unknown upstream, no consequent among
//! the live candidates — the node **falls back to flooding**, so "the
//! quality of the search results should not decrease dramatically"
//! (§III-B). Queries issued by the node itself are keyed by the node's
//! own identity, extending interest-based locality to the first hop.
//!
//! Rule maintenance uses decayed counts (the §VI streaming maintainer),
//! the variant with the strongest measured coverage/success; the decay
//! half-life and support threshold are configurable.

use arq_assoc::DecayedPairCounts;
use arq_gnutella::policy::{ForwardCtx, ForwardingPolicy, ShortcutProposal};
use arq_overlay::{Graph, NodeId};
use arq_simkern::Rng64;
use arq_trace::record::HostId;

fn host(n: NodeId) -> HostId {
    HostId(n.0)
}

/// Tunables for [`AssocPolicy`].
#[derive(Debug, Clone)]
pub struct AssocPolicyConfig {
    /// Forward to at most this many rule consequents.
    pub k: usize,
    /// Decayed support an association needs before it routes queries.
    pub min_support: f64,
    /// Minimum confidence — the consequent's share of all decayed
    /// observations for its antecedent — a rule needs before it routes
    /// queries. `0.0` disables the gate (support-only ranking, the
    /// pre-confidence behavior, bit for bit).
    pub min_confidence: f64,
    /// Half-life of association counts, in observed replies per node.
    pub half_life: f64,
    /// When `true`, pick the k consequents with the highest support; when
    /// `false`, pick k uniformly at random among qualifying consequents
    /// (the paper's §III-B.1 alternative, ablated in E10).
    pub top_by_support: bool,
    /// Multiply a rule's support by this factor whenever its consequent
    /// is observed dead — either absent from the live candidates at
    /// selection time or blamed for a query timeout. `1.0` disables
    /// demotion (plain rule-or-flood behavior); `0.0` evicts outright.
    pub demote: f64,
    /// Tumbling window of issuer query outcomes per node driving
    /// Adaptive-Sliding-Window-style re-mines: once a node accumulates
    /// this many outcomes, a miss fraction of at least `fail_threshold`
    /// discards its rule set so it re-learns from live traffic.
    /// `0` disables.
    pub fail_window: usize,
    /// Miss fraction within a full window that triggers the re-mine.
    pub fail_threshold: f64,
}

impl Default for AssocPolicyConfig {
    fn default() -> Self {
        AssocPolicyConfig::DEFAULT
    }
}

impl AssocPolicyConfig {
    /// The defaults, as a constant so the registry's `assoc` parameter
    /// table can be built from them.
    pub const DEFAULT: AssocPolicyConfig = AssocPolicyConfig {
        k: 2,
        min_support: 3.0,
        min_confidence: 0.0,
        half_life: 500.0,
        top_by_support: true,
        demote: 1.0,
        fail_window: 0,
        fail_threshold: 0.75,
    };
}

/// Per-node learned rules + rule-or-flood forwarding.
#[derive(Debug)]
pub struct AssocPolicy {
    cfg: AssocPolicyConfig,
    /// One learner per node, created lazily.
    learners: Vec<Option<DecayedPairCounts>>,
    /// Per-node (successes, failures) in the current tumbling window.
    windows: Vec<(u32, u32)>,
    rule_forwards: u64,
    flood_fallbacks: u64,
    dead_demotions: u64,
    failure_remines: u64,
    pruned_consequents: u64,
    /// `select_into`'s ranking buffer, reused across calls.
    ranked: Vec<(HostId, f64)>,
}

impl AssocPolicy {
    /// Creates the policy.
    pub fn new(cfg: AssocPolicyConfig) -> Self {
        assert!(cfg.k >= 1, "k must be at least 1");
        assert!(cfg.min_support >= 1.0, "min_support below one observation");
        assert!(
            (0.0..=1.0).contains(&cfg.min_confidence),
            "min_confidence outside [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.demote),
            "demote factor outside [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.fail_threshold),
            "fail_threshold outside [0, 1]"
        );
        AssocPolicy {
            cfg,
            learners: Vec::new(),
            windows: Vec::new(),
            rule_forwards: 0,
            flood_fallbacks: 0,
            dead_demotions: 0,
            failure_remines: 0,
            pruned_consequents: 0,
            ranked: Vec::new(),
        }
    }

    /// Decisions routed by rules so far.
    pub fn rule_forwards(&self) -> u64 {
        self.rule_forwards
    }

    /// Decisions that fell back to flooding.
    pub fn flood_fallbacks(&self) -> u64 {
        self.flood_fallbacks
    }

    /// Fraction of forwarding decisions that used rules.
    pub fn rule_usage(&self) -> f64 {
        let total = self.rule_forwards + self.flood_fallbacks;
        if total == 0 {
            0.0
        } else {
            self.rule_forwards as f64 / total as f64
        }
    }

    /// Rules demoted after their consequent was observed dead.
    pub fn dead_demotions(&self) -> u64 {
        self.dead_demotions
    }

    /// Rule sets discarded by the failure-window re-mine trigger.
    pub fn failure_remines(&self) -> u64 {
        self.failure_remines
    }

    /// Consequents that met the support gate but fell below the
    /// confidence gate at selection time.
    pub fn pruned_consequents(&self) -> u64 {
        self.pruned_consequents
    }

    fn learner(&mut self, node: NodeId) -> &mut DecayedPairCounts {
        learner_in(&mut self.learners, self.cfg.half_life, node)
    }

    /// Folds one issuer-side query outcome into the node's tumbling
    /// window; a full window with too many misses discards the node's
    /// rule set, forcing a fresh mine from subsequent replies.
    fn note_outcome(&mut self, node: NodeId, success: bool) {
        if self.cfg.fail_window == 0 {
            return;
        }
        let idx = node.index();
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, (0, 0));
        }
        let w = &mut self.windows[idx];
        if success {
            w.0 += 1;
        } else {
            w.1 += 1;
        }
        if (w.0 + w.1) as usize >= self.cfg.fail_window {
            let miss = f64::from(w.1) / f64::from(w.0 + w.1);
            self.windows[idx] = (0, 0);
            if miss >= self.cfg.fail_threshold {
                if let Some(slot @ Some(_)) = self.learners.get_mut(idx) {
                    *slot = None;
                    self.failure_remines += 1;
                }
            }
        }
    }

    /// Warm-starts one node's learner from an offline-mined rule set —
    /// the deployment path the paper implies: a node that has been
    /// collecting traffic can mine its trace and install the rules
    /// before routing its first query, instead of flooding through a
    /// cold-start phase. Each rule's support count is injected as that
    /// many observations, rule by rule in `(src, via)` order: under decay
    /// the order decides which rules clear `min_support`, so it must not
    /// be the rule set's map order.
    pub fn seed_rules(&mut self, node: NodeId, rules: &arq_assoc::RuleSet) {
        let mut rows: Vec<(HostId, HostId, u64)> = rules.iter().collect();
        rows.sort_unstable_by_key(|&(src, via, _)| (src, via));
        let learner = self.learner(node);
        for (src, via, count) in rows {
            for _ in 0..count {
                learner.observe(src, via);
            }
        }
    }

    /// The learned consequents for (`node`, antecedent) — exposed for the
    /// topology-adaptation extension and diagnostics. Applies the same
    /// support and confidence gates as routing, so a shortcut stays
    /// alive exactly as long as its rule would still route queries.
    pub fn consequents(&self, node: NodeId, antecedent: HostId, k: usize) -> Vec<HostId> {
        match self.learners.get(node.index()).and_then(Option::as_ref) {
            Some(counts) => {
                counts.top_k_confident(antecedent, k, self.cfg.min_support, self.cfg.min_confidence)
            }
            None => Vec::new(),
        }
    }
}

/// `node`'s learner, created on first use.
fn learner_in(
    learners: &mut Vec<Option<DecayedPairCounts>>,
    half_life: f64,
    node: NodeId,
) -> &mut DecayedPairCounts {
    let idx = node.index();
    if idx >= learners.len() {
        learners.resize_with(idx + 1, || None);
    }
    learners[idx].get_or_insert_with(|| DecayedPairCounts::new(half_life))
}

impl ForwardingPolicy for AssocPolicy {
    fn name(&self) -> &'static str {
        "assoc"
    }

    fn select(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.select_into(ctx, rng, &mut out);
        out
    }

    fn select_into(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64, out: &mut Vec<NodeId>) {
        let antecedent = host(ctx.from.unwrap_or(ctx.node));
        let cfg = &self.cfg;
        let learner = learner_in(&mut self.learners, cfg.half_life, ctx.node);
        // Support- and confidence-qualified consequents, best first; the
        // return value counts those only the confidence gate removed.
        let pruned = learner.ranked_into(
            antecedent,
            cfg.min_support,
            cfg.min_confidence,
            &mut self.ranked,
        );
        self.pruned_consequents += pruned as u64;
        // Qualifying consequents that are live candidates are eligible.
        // The others are observed dead; with demotion enabled, shrink them
        // on the spot so stale rules decay faster than their half-life
        // alone allows.
        let start = out.len();
        for &(via, _) in &self.ranked {
            let n = NodeId(via.0);
            if ctx.candidates.contains(&n) {
                out.push(n);
            } else if cfg.demote < 1.0 {
                learner.penalize(antecedent, via, cfg.demote);
                self.dead_demotions += 1;
            }
        }
        if !cfg.top_by_support {
            rng.shuffle(&mut out[start..]);
        }
        out.truncate(start + cfg.k);
        if out.len() == start {
            // No applicable rule: revert to flooding.
            self.flood_fallbacks += 1;
            out.extend_from_slice(ctx.candidates);
        } else {
            self.rule_forwards += 1;
        }
    }

    fn on_reply(
        &mut self,
        node: NodeId,
        upstream: Option<NodeId>,
        via: NodeId,
        _key: arq_content::QueryKey,
    ) {
        let antecedent = host(upstream.unwrap_or(node));
        self.learner(node).observe(antecedent, host(via));
        if upstream.is_none() {
            // A hit reached the issuer: a success for its window.
            self.note_outcome(node, true);
        }
    }

    fn on_failure(&mut self, node: NodeId, target: NodeId) {
        if self.cfg.demote < 1.0 {
            let demote = self.cfg.demote;
            if let Some(Some(learner)) = self.learners.get_mut(node.index()) {
                learner.penalize(host(node), host(target), demote);
                self.dead_demotions += 1;
            }
        }
        self.note_outcome(node, false);
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let mut stats = vec![
            ("rule_forwards".into(), self.rule_forwards as f64),
            ("flood_fallbacks".into(), self.flood_fallbacks as f64),
            ("rule_usage".into(), self.rule_usage()),
        ];
        if self.cfg.min_confidence > 0.0 {
            stats.push(("pruned_consequents".into(), self.pruned_consequents as f64));
        }
        // Failure adaptation is on: report what it did.
        if self.cfg.demote < 1.0 || self.cfg.fail_window > 0 {
            stats.push(("dead_demotions".into(), self.dead_demotions as f64));
            stats.push(("failure_remines".into(), self.failure_remines as f64));
        }
        stats
    }

    fn propose_shortcuts(&self, graph: &Graph) -> Vec<ShortcutProposal> {
        crate::topology::propose_shortcuts(graph, self)
            .into_iter()
            .map(|s| ShortcutProposal {
                asker: s.asker,
                target: s.target,
                via: s.via,
            })
            .collect()
    }

    fn shortcut_active(&self, asker: NodeId, target: NodeId, via: NodeId) -> bool {
        // The rule lives at the relay `via`, keyed by the asker: the
        // shortcut survives while `target` still ranks among the top-k
        // gated consequents `via` has learned for queries from `asker`.
        self.consequents(via, host(asker), self.cfg.k)
            .contains(&host(target))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_content::{FileId, QueryKey, Topic};
    use arq_gnutella::QueryMsg;
    use arq_trace::record::Guid;

    fn key() -> QueryKey {
        QueryKey {
            file: FileId(0),
            topic: Topic(0),
        }
    }

    fn msg() -> QueryMsg {
        QueryMsg {
            guid: Guid(1),
            key: key(),
            ttl: 4,
            hops: 1,
        }
    }

    fn teach(p: &mut AssocPolicy, node: NodeId, upstream: NodeId, via: NodeId, times: usize) {
        for _ in 0..times {
            p.on_reply(node, Some(upstream), via, key());
        }
    }

    #[test]
    fn floods_until_rules_form_then_routes() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 3.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        let mut rng = Rng64::seed_from(1);
        let candidates = vec![NodeId(10), NodeId(11), NodeId(12)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        // Cold: flood.
        assert_eq!(p.select(&ctx, &mut rng), candidates);
        assert_eq!(p.flood_fallbacks(), 1);
        // Two observations: still below support 3 -> flood.
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 2);
        assert_eq!(p.select(&ctx, &mut rng).len(), 3);
        // Third observation crosses the threshold -> rule routing.
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 1);
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(11)]);
        assert_eq!(p.rule_forwards(), 1);
        assert!(p.rule_usage() > 0.0);
    }

    #[test]
    fn rules_are_per_node_and_per_antecedent() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        let mut rng = Rng64::seed_from(2);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 5);
        let candidates = vec![NodeId(10), NodeId(11)];
        let m = msg();
        // Same node, different upstream: no rule.
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(3)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng).len(), 2);
        // Different node, same upstream: no rule.
        let ctx = ForwardCtx {
            node: NodeId(6),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng).len(), 2);
    }

    #[test]
    fn self_issued_queries_use_own_identity() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        let mut rng = Rng64::seed_from(3);
        // Hits for queries the node issued itself (upstream None).
        for _ in 0..3 {
            p.on_reply(NodeId(5), None, NodeId(12), key());
        }
        let candidates = vec![NodeId(10), NodeId(12)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: None,
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(12)]);
    }

    #[test]
    fn dead_consequents_fall_back_to_flooding() {
        let mut p = AssocPolicy::new(AssocPolicyConfig::default());
        let mut rng = Rng64::seed_from(4);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 10);
        // Node 11 is no longer a live candidate.
        let candidates = vec![NodeId(10), NodeId(12)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), candidates);
    }

    #[test]
    fn top_by_support_prefers_strongest_route() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        let mut rng = Rng64::seed_from(5);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(10), 3);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 8);
        let candidates = vec![NodeId(10), NodeId(11)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(11)]);
    }

    #[test]
    fn random_k_selects_among_qualifying() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            half_life: 1e9,
            top_by_support: false,
            ..Default::default()
        });
        let mut rng = Rng64::seed_from(6);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(10), 5);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 5);
        let candidates = vec![NodeId(10), NodeId(11)];
        let m = msg();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let ctx = ForwardCtx {
                node: NodeId(5),
                from: Some(NodeId(2)),
                query: &m,
                candidates: &candidates,
            };
            let sel = p.select(&ctx, &mut rng);
            assert_eq!(sel.len(), 1);
            seen.insert(sel[0]);
        }
        assert_eq!(seen.len(), 2, "random-k never varied its choice");
    }

    #[test]
    fn failure_feedback_demotes_rules_until_flooding_resumes() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 3.0,
            min_confidence: 0.0,
            half_life: 1e9,
            top_by_support: true,
            demote: 0.25,
            fail_window: 0,
            fail_threshold: 0.75,
        });
        let mut rng = Rng64::seed_from(7);
        // Node 5 learned (self -> 11) from its own issued queries.
        for _ in 0..8 {
            p.on_reply(NodeId(5), None, NodeId(11), key());
        }
        let candidates = vec![NodeId(10), NodeId(11)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: None,
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(11)]);
        // Timeouts blame the consequent; support 8 * 0.25^2 < 3 kills it.
        p.on_failure(NodeId(5), NodeId(11));
        p.on_failure(NodeId(5), NodeId(11));
        assert!(p.dead_demotions() >= 2);
        assert_eq!(
            p.select(&ctx, &mut rng),
            candidates,
            "dead rule kept routing"
        );
    }

    #[test]
    fn select_demotes_consequents_missing_from_candidates() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            min_confidence: 0.0,
            half_life: 1e9,
            top_by_support: true,
            demote: 0.0, // observed-dead rules are evicted outright
            fail_window: 0,
            fail_threshold: 0.75,
        });
        let mut rng = Rng64::seed_from(8);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 10);
        // Node 11 offline: selecting floods AND evicts the rule.
        let without_11 = vec![NodeId(10), NodeId(12)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &without_11,
        };
        assert_eq!(p.select(&ctx, &mut rng), without_11);
        assert_eq!(p.dead_demotions(), 1);
        // Node 11 comes back: the rule is gone, still flooding.
        let with_11 = vec![NodeId(10), NodeId(11)];
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &with_11,
        };
        assert_eq!(p.select(&ctx, &mut rng), with_11);
    }

    #[test]
    fn failure_window_triggers_remine() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            min_confidence: 0.0,
            half_life: 1e9,
            top_by_support: true,
            demote: 1.0,
            fail_window: 4,
            fail_threshold: 0.75,
        });
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 10);
        // Four straight timeouts fill node 5's window and discard its rules.
        for _ in 0..4 {
            p.on_failure(NodeId(5), NodeId(10));
        }
        assert_eq!(p.failure_remines(), 1);
        assert!(p.consequents(NodeId(5), HostId(2), 3).is_empty());
        // Fresh replies rebuild the rule set (the re-mine).
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 3);
        assert_eq!(p.consequents(NodeId(5), HostId(2), 3), vec![HostId(11)]);
    }

    #[test]
    fn successes_keep_windows_from_triggering() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            min_confidence: 0.0,
            half_life: 1e9,
            top_by_support: true,
            demote: 1.0,
            fail_window: 4,
            fail_threshold: 0.75,
        });
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 10);
        // Half misses < 0.75 threshold: rules survive the window tumble.
        for _ in 0..2 {
            p.on_failure(NodeId(5), NodeId(10));
            p.on_reply(NodeId(5), None, NodeId(11), key());
        }
        assert_eq!(p.failure_remines(), 0);
        assert_eq!(p.consequents(NodeId(5), HostId(2), 3), vec![HostId(11)]);
    }

    #[test]
    fn plain_config_ignores_failure_feedback() {
        let mut p = AssocPolicy::new(AssocPolicyConfig::default());
        assert_eq!(p.name(), "assoc");
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 10);
        for _ in 0..20 {
            p.on_failure(NodeId(5), NodeId(11));
        }
        assert_eq!(p.dead_demotions(), 0);
        assert_eq!(p.failure_remines(), 0);
        assert_eq!(p.consequents(NodeId(5), HostId(2), 3), vec![HostId(11)]);
        // And no adaptive stats leak into artifacts for plain assoc.
        assert!(p.stats().iter().all(|(k, _)| k != "dead_demotions"));
    }

    #[test]
    fn consequents_accessor() {
        let mut p = AssocPolicy::new(AssocPolicyConfig::default());
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 10);
        assert_eq!(p.consequents(NodeId(5), HostId(2), 3), vec![HostId(11)]);
        assert!(p.consequents(NodeId(9), HostId(2), 3).is_empty());
    }

    #[test]
    fn minconf_prunes_low_confidence_rules_and_counts_them() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 2,
            min_support: 2.0,
            min_confidence: 0.6,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        let mut rng = Rng64::seed_from(9);
        // 8 of 11 observations go to node 11 (confidence ~0.73), 3 of 11
        // to node 10 (~0.27): both pass the support gate, only 11 passes
        // the confidence gate.
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 8);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(10), 3);
        let candidates = vec![NodeId(10), NodeId(11), NodeId(12)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(11)]);
        assert_eq!(p.pruned_consequents(), 1);
        // The accessor applies the same gate.
        assert_eq!(p.consequents(NodeId(5), HostId(2), 3), vec![HostId(11)]);
        // And the counter reaches stats only when the gate is on.
        assert!(p
            .stats()
            .iter()
            .any(|(k, v)| k == "pruned_consequents" && *v == 1.0));
    }

    #[test]
    fn zero_minconf_reports_no_pruning_stat() {
        let mut p = AssocPolicy::new(AssocPolicyConfig::default());
        let mut rng = Rng64::seed_from(10);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(11), 6);
        teach(&mut p, NodeId(5), NodeId(2), NodeId(10), 4);
        let candidates = vec![NodeId(10), NodeId(11)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        p.select(&ctx, &mut rng);
        assert_eq!(p.pruned_consequents(), 0);
        assert!(p.stats().iter().all(|(k, _)| k != "pruned_consequents"));
    }

    #[test]
    #[should_panic(expected = "min_confidence outside [0, 1]")]
    fn out_of_range_minconf_is_rejected() {
        AssocPolicy::new(AssocPolicyConfig {
            min_confidence: 1.5,
            ..Default::default()
        });
    }

    /// `select`'s body before `select_into` existed, kept as the
    /// reference `select_into` must reproduce.
    fn reference_select(p: &mut AssocPolicy, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        let antecedent = host(ctx.from.unwrap_or(ctx.node));
        let k = p.cfg.k;
        let min_support = p.cfg.min_support;
        let min_confidence = p.cfg.min_confidence;
        let top_by_support = p.cfg.top_by_support;
        let demote = p.cfg.demote;
        let learner = p.learner(ctx.node);
        let confident =
            learner.top_k_confident(antecedent, usize::MAX, min_support, min_confidence);
        if min_confidence > 0.0 {
            let supported = learner.top_k(antecedent, usize::MAX, min_support).len();
            p.pruned_consequents += (supported - confident.len()) as u64;
        }
        let learner = p.learner(ctx.node);
        let all: Vec<NodeId> = confident.into_iter().map(|h| NodeId(h.0)).collect();
        let mut demoted = 0;
        if demote < 1.0 {
            for n in all.iter().filter(|n| !ctx.candidates.contains(n)) {
                learner.penalize(antecedent, host(*n), demote);
                demoted += 1;
            }
        }
        p.dead_demotions += demoted;
        let mut qualifying: Vec<NodeId> = all
            .into_iter()
            .filter(|n| ctx.candidates.contains(n))
            .collect();
        if top_by_support {
            qualifying.truncate(k);
        } else {
            rng.shuffle(&mut qualifying);
            qualifying.truncate(k);
        }
        if qualifying.is_empty() {
            p.flood_fallbacks += 1;
            ctx.candidates.to_vec()
        } else {
            p.rule_forwards += 1;
            qualifying
        }
    }

    /// `select_into` (and `select`, which delegates to it) picks the same
    /// targets as the reference body and leaves the RNG in the same
    /// state, under top-k and random-k, with demotion and with the
    /// confidence gate, on random reply/failure/selection streams.
    #[test]
    fn select_into_equals_reference_select() {
        let mut draws = Rng64::seed_from(0x5E1E_C7ED);
        let m = msg();
        for case in 0..24usize {
            let cfg = AssocPolicyConfig {
                k: 1 + case % 3,
                min_support: [1.0, 2.0, 3.0][case % 3],
                min_confidence: [0.0, 0.2][case % 2],
                half_life: [1e9, 40.0][case / 2 % 2],
                top_by_support: case / 4 % 2 == 0,
                demote: [1.0, 0.5, 0.0][case / 8],
                fail_window: 0,
                fail_threshold: 0.75,
            };
            let (mut fast, mut slow) = (AssocPolicy::new(cfg.clone()), AssocPolicy::new(cfg));
            let (mut rng_fast, mut rng_slow) =
                (Rng64::seed_from(case as u64), Rng64::seed_from(case as u64));
            let mut out = Vec::new();
            for step in 0..400 {
                let node = NodeId(draws.below(2) as u32);
                let upstream = NodeId(10 + draws.below(2) as u32);
                if draws.chance(0.6) {
                    // Skewed towards low ids, so confidences spread out.
                    let spread = 1 + draws.below(6);
                    let via = NodeId(20 + draws.below(spread) as u32);
                    fast.on_reply(node, Some(upstream), via, key());
                    slow.on_reply(node, Some(upstream), via, key());
                    continue;
                }
                if draws.chance(0.1) {
                    let target = NodeId(20 + draws.below(6) as u32);
                    fast.on_failure(node, target);
                    slow.on_failure(node, target);
                    continue;
                }
                let candidates: Vec<NodeId> =
                    (20..26).map(NodeId).filter(|_| draws.chance(0.7)).collect();
                let ctx = ForwardCtx {
                    node,
                    from: Some(upstream),
                    query: &m,
                    candidates: &candidates,
                };
                out.clear();
                if step % 2 == 0 {
                    fast.select_into(&ctx, &mut rng_fast, &mut out);
                } else {
                    out = fast.select(&ctx, &mut rng_fast);
                }
                let want = reference_select(&mut slow, &ctx, &mut rng_slow);
                assert_eq!(out, want, "case {case}, step {step}");
            }
            assert_eq!(fast.stats(), slow.stats(), "case {case}");
            assert_eq!(
                fast.pruned_consequents(),
                slow.pruned_consequents(),
                "case {case}"
            );
            assert_eq!(
                rng_fast.next_u64(),
                rng_slow.next_u64(),
                "case {case}: rng state"
            );
            // Every case both routes by rules and floods, and each gate
            // under test acts.
            assert!(
                fast.rule_forwards() > 0 && fast.flood_fallbacks() > 0,
                "case {case}"
            );
            assert_eq!(
                fast.pruned_consequents() > 0,
                fast.cfg.min_confidence > 0.0,
                "case {case}"
            );
            assert_eq!(
                fast.dead_demotions() > 0,
                fast.cfg.demote < 1.0,
                "case {case}"
            );
        }
    }

    #[test]
    fn shortcut_hooks_track_rule_life() {
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 3.0,
            min_confidence: 0.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        // Relay 7 learns {2} -> {11}: the shortcut 2 -- 11 via 7 is live.
        teach(&mut p, NodeId(7), NodeId(2), NodeId(11), 5);
        assert!(p.shortcut_active(NodeId(2), NodeId(11), NodeId(7)));
        // Not for other targets, relays, or askers.
        assert!(!p.shortcut_active(NodeId(2), NodeId(10), NodeId(7)));
        assert!(!p.shortcut_active(NodeId(2), NodeId(11), NodeId(8)));
        assert!(!p.shortcut_active(NodeId(3), NodeId(11), NodeId(7)));
    }

    #[test]
    fn proposals_come_from_learned_rules() {
        use arq_overlay::Graph;
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 3.0,
            min_confidence: 0.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        // Path 2 -- 7 -- 11; relay 7 learns {2} -> {11}.
        let mut g = Graph::new(12);
        g.add_edge(NodeId(2), NodeId(7));
        g.add_edge(NodeId(7), NodeId(11));
        teach(&mut p, NodeId(7), NodeId(2), NodeId(11), 5);
        let props = p.propose_shortcuts(&g);
        assert_eq!(props.len(), 1);
        assert_eq!(props[0].asker, NodeId(2));
        assert_eq!(props[0].target, NodeId(11));
        assert_eq!(props[0].via, NodeId(7));
        // Once the edge exists, it is no longer proposed.
        g.add_edge(NodeId(2), NodeId(11));
        assert!(p.propose_shortcuts(&g).is_empty());
    }
}

#[cfg(test)]
mod seed_tests {
    use super::*;
    use arq_assoc::mine_pairs;
    use arq_content::{FileId, QueryKey, Topic};
    use arq_gnutella::policy::{ForwardCtx, ForwardingPolicy};
    use arq_gnutella::QueryMsg;
    use arq_simkern::SimTime;
    use arq_trace::record::{Guid, PairRecord, QueryId};

    /// Two equal rule sets built from rows in different orders (so their
    /// maps iterate differently) warm-start identical learners: the rows
    /// are observed in `(src, via)` order, not map order. A short
    /// half-life makes the observation order matter.
    #[test]
    fn seed_rules_does_not_depend_on_map_order() {
        let rows: Vec<(HostId, HostId, u64)> = (0..40u32)
            .map(|i| (HostId(i % 7), HostId(100 + i), u64::from(1 + i % 5)))
            .collect();
        let forward = arq_assoc::RuleSet::from_rows(rows.iter().copied(), 1, 0);
        let backward = arq_assoc::RuleSet::from_rows(rows.iter().rev().copied(), 1, 0);
        assert_eq!(forward.digest(), backward.digest());
        let snapshot = |rules: &arq_assoc::RuleSet| {
            let mut p = AssocPolicy::new(AssocPolicyConfig {
                half_life: 5.0,
                ..Default::default()
            });
            p.seed_rules(NodeId(3), rules);
            p.learners[3].as_ref().unwrap().snapshot()
        };
        assert_eq!(snapshot(&forward), snapshot(&backward));
    }

    #[test]
    fn seeded_policy_routes_from_the_first_query() {
        // Mine rules offline from a collected trace…
        let trace: Vec<PairRecord> = (0..20)
            .map(|i| PairRecord {
                time: SimTime::from_ticks(i),
                guid: Guid(u128::from(i)),
                src: HostId(2),
                via: HostId(11),
                responder: HostId(0),
                query: QueryId(0),
            })
            .collect();
        let rules = mine_pairs(&trace, 5);
        // …and install them on node 5.
        let mut p = AssocPolicy::new(AssocPolicyConfig {
            k: 1,
            min_support: 5.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        });
        p.seed_rules(NodeId(5), &rules);
        let candidates = vec![NodeId(10), NodeId(11)];
        let m = QueryMsg {
            guid: Guid(99),
            key: QueryKey {
                file: FileId(0),
                topic: Topic(0),
            },
            ttl: 4,
            hops: 1,
        };
        let ctx = ForwardCtx {
            node: NodeId(5),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        let mut rng = Rng64::seed_from(1);
        // No cold-start flood: the very first decision uses the rule.
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(11)]);
        assert_eq!(p.flood_fallbacks(), 0);
        // Other nodes remain cold.
        let ctx = ForwardCtx {
            node: NodeId(6),
            from: Some(NodeId(2)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng).len(), 2);
    }
}
