//! Shortcuts-then-rules hybrid forwarding (§VI).
//!
//! "For interest-based shortcuts, association rules could be used to
//! route queries that have not been successfully replied to when using
//! the shortcuts. This would serve as one last chance to avoid flooding."
//!
//! The forwarding-policy form of that pipeline: on each relay decision,
//! try the node's per-topic interest shortcuts first; if the topic is
//! cold, consult the learned association rules; only when both are empty
//! does the node flood. Both learners feed from the same reply stream.
//!
//! The hybrid is its own policy rather than an `assoc(shortcuts=…)`
//! parameter: as a parameter, `AssocPolicy::select` would branch on a
//! second learner (the per-topic shortcut table) on every relay
//! decision of every `assoc` run. As a wrapper, `assoc` keeps one
//! learner and one path, and this type composes the two.

use crate::policy::{AssocPolicy, AssocPolicyConfig};
use arq_baselines::InterestShortcuts;
use arq_gnutella::policy::{ForwardCtx, ForwardingPolicy, ShortcutProposal};
use arq_overlay::{Graph, NodeId};
use arq_simkern::Rng64;

/// Interest shortcuts backed by association rules, flooding as a last
/// resort.
#[derive(Debug)]
pub struct HybridPolicy {
    shortcuts: InterestShortcuts,
    rules: AssocPolicy,
    shortcut_decisions: u64,
    rule_decisions: u64,
    flood_decisions: u64,
}

impl HybridPolicy {
    /// Creates the hybrid: shortcut table of `per_topic_cap` entries with
    /// fan-out `k`, and the given association-rule configuration.
    pub fn new(per_topic_cap: usize, k: usize, rules: AssocPolicyConfig) -> Self {
        HybridPolicy {
            shortcuts: InterestShortcuts::new(per_topic_cap, k),
            rules: AssocPolicy::new(rules),
            shortcut_decisions: 0,
            rule_decisions: 0,
            flood_decisions: 0,
        }
    }

    /// Decisions resolved by a shortcut.
    pub fn shortcut_decisions(&self) -> u64 {
        self.shortcut_decisions
    }

    /// Decisions resolved by an association rule after the shortcuts
    /// missed.
    pub fn rule_decisions(&self) -> u64 {
        self.rule_decisions
    }

    /// Decisions that flooded.
    pub fn flood_decisions(&self) -> u64 {
        self.flood_decisions
    }

    /// Fraction of decisions that avoided flooding.
    pub fn targeted_fraction(&self) -> f64 {
        let total = self.shortcut_decisions + self.rule_decisions + self.flood_decisions;
        if total == 0 {
            0.0
        } else {
            (self.shortcut_decisions + self.rule_decisions) as f64 / total as f64
        }
    }
}

impl ForwardingPolicy for HybridPolicy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn select(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        // Stage 1: interest shortcuts. `InterestShortcuts::select` floods
        // on a miss, so "hit" is detectable by the selection being a
        // proper subset of the candidates.
        let via_shortcuts = self.shortcuts.select(ctx, rng);
        if via_shortcuts.len() < ctx.candidates.len() {
            self.shortcut_decisions += 1;
            return via_shortcuts;
        }
        // Stage 2: association rules, the "last chance to avoid flooding".
        let via_rules = self.rules.select(ctx, rng);
        if via_rules.len() < ctx.candidates.len() {
            self.rule_decisions += 1;
            return via_rules;
        }
        self.flood_decisions += 1;
        ctx.candidates.to_vec()
    }

    fn on_reply(
        &mut self,
        node: NodeId,
        upstream: Option<NodeId>,
        via: NodeId,
        key: arq_content::QueryKey,
    ) {
        self.shortcuts.on_reply(node, upstream, via, key);
        self.rules.on_reply(node, upstream, via, key);
    }

    fn stats(&self) -> Vec<(String, f64)> {
        vec![
            ("shortcut_decisions".into(), self.shortcut_decisions as f64),
            ("rule_decisions".into(), self.rule_decisions as f64),
            ("flood_decisions".into(), self.flood_decisions as f64),
            ("targeted_fraction".into(), self.targeted_fraction()),
        ]
    }

    // Topology adaptation rides on the rule side: the shortcut table is
    // per-topic and node-local, but the learned associations are exactly
    // what the adaptation loop turns into overlay edges.
    fn propose_shortcuts(&self, graph: &Graph) -> Vec<ShortcutProposal> {
        self.rules.propose_shortcuts(graph)
    }

    fn shortcut_active(&self, asker: NodeId, target: NodeId, via: NodeId) -> bool {
        self.rules.shortcut_active(asker, target, via)
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

    fn key(topic: u16) -> QueryKey {
        QueryKey {
            file: FileId(0),
            topic: Topic(topic),
        }
    }

    fn msg(topic: u16) -> QueryMsg {
        QueryMsg {
            guid: Guid(1),
            key: key(topic),
            ttl: 4,
            hops: 1,
        }
    }

    fn rules_cfg() -> AssocPolicyConfig {
        AssocPolicyConfig {
            k: 1,
            min_support: 2.0,
            half_life: 1e9,
            top_by_support: true,
            ..Default::default()
        }
    }

    #[test]
    fn cold_start_floods() {
        let mut p = HybridPolicy::new(4, 2, rules_cfg());
        let mut rng = Rng64::seed_from(1);
        let candidates: Vec<NodeId> = (10..14).map(NodeId).collect();
        let m = msg(0);
        let ctx = ForwardCtx {
            node: NodeId(0),
            from: Some(NodeId(9)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng).len(), 4);
        assert_eq!(p.flood_decisions(), 1);
        assert_eq!(p.targeted_fraction(), 0.0);
    }

    #[test]
    fn shortcut_hit_takes_priority() {
        let mut p = HybridPolicy::new(4, 1, rules_cfg());
        let mut rng = Rng64::seed_from(2);
        // Teach both learners different routes for topic 3.
        for _ in 0..3 {
            p.on_reply(NodeId(0), Some(NodeId(9)), NodeId(11), key(3));
        }
        let candidates: Vec<NodeId> = (10..14).map(NodeId).collect();
        let m = msg(3);
        let ctx = ForwardCtx {
            node: NodeId(0),
            from: Some(NodeId(9)),
            query: &m,
            candidates: &candidates,
        };
        let sel = p.select(&ctx, &mut rng);
        assert_eq!(sel, vec![NodeId(11)]);
        assert_eq!(p.shortcut_decisions(), 1);
        assert_eq!(p.rule_decisions(), 0);
    }

    #[test]
    fn rules_rescue_cold_topics() {
        let mut p = HybridPolicy::new(4, 1, rules_cfg());
        let mut rng = Rng64::seed_from(3);
        // Replies observed for topic 3 teach the rules an upstream->via
        // association usable for ANY topic from that upstream; the
        // shortcuts, being topic-scoped, miss on topic 7.
        for _ in 0..3 {
            p.on_reply(NodeId(0), Some(NodeId(9)), NodeId(12), key(3));
        }
        let candidates: Vec<NodeId> = (10..14).map(NodeId).collect();
        let m = msg(7); // cold topic for the shortcuts
        let ctx = ForwardCtx {
            node: NodeId(0),
            from: Some(NodeId(9)),
            query: &m,
            candidates: &candidates,
        };
        let sel = p.select(&ctx, &mut rng);
        assert_eq!(
            sel,
            vec![NodeId(12)],
            "rules should catch the shortcut miss"
        );
        assert_eq!(p.rule_decisions(), 1);
        assert!(p.targeted_fraction() > 0.99);
    }

    #[test]
    fn adaptation_hooks_ride_on_the_rule_side() {
        let mut p = HybridPolicy::new(4, 1, rules_cfg());
        // Relay 0 learns {9} -> {12} on the rule side.
        for _ in 0..3 {
            p.on_reply(NodeId(0), Some(NodeId(9)), NodeId(12), key(3));
        }
        assert!(p.shortcut_active(NodeId(9), NodeId(12), NodeId(0)));
        assert!(!p.shortcut_active(NodeId(9), NodeId(11), NodeId(0)));
        let mut g = Graph::new(13);
        g.add_edge(NodeId(9), NodeId(0));
        g.add_edge(NodeId(0), NodeId(12));
        let props = p.propose_shortcuts(&g);
        assert_eq!(props.len(), 1);
        assert_eq!(props[0].asker, NodeId(9));
        assert_eq!(props[0].target, NodeId(12));
        assert_eq!(props[0].via, NodeId(0));
    }

    #[test]
    fn both_learners_see_replies() {
        let mut p = HybridPolicy::new(4, 1, rules_cfg());
        for _ in 0..3 {
            p.on_reply(NodeId(0), Some(NodeId(9)), NodeId(10), key(1));
        }
        // Shortcut present for topic 1…
        assert_eq!(p.shortcuts.shortcut_uses(), 0);
        // …and the rule side learned the same association.
        assert_eq!(
            p.rules
                .consequents(NodeId(0), arq_trace::record::HostId(9), 1),
            vec![arq_trace::record::HostId(10)]
        );
    }
}
