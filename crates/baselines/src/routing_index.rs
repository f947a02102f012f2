//! Routing indices (Crespo & Garcia-Molina — ICDCS'02).
//!
//! "By keeping a table of each neighbor node and the number of documents
//! classified within a defined set of topics that are reachable via that
//! neighbor, a node forwards a query on to the neighbor estimated to lead
//! to the most number of documents whose topics match those in the query"
//! (§II) — the closest prior work to the paper's approach, but built from
//! advertised *content counts* rather than observed *query outcomes*.
//!
//! We implement the attenuated variant: the goodness of neighbor `v` for
//! topic `t` at node `u` is `Σ_d att^d · docs_t(nodes at distance d via
//! v)`, computed by a BFS from `v` that avoids `u`, up to `horizon` hops.
//! Queries go to the `k` best-scoring neighbors; ties and zero scores
//! fall back to flooding.

use arq_content::{Catalog, Topic, WorkloadGen};
use arq_gnutella::policy::{ForwardCtx, ForwardingPolicy};
use arq_overlay::{Graph, NodeId};
use arq_simkern::Rng64;
use std::collections::{HashMap, VecDeque};

/// The routing-indices policy.
#[derive(Debug)]
pub struct RoutingIndices {
    horizon: u32,
    attenuation: f64,
    k: usize,
    /// docs per (node, topic), from the workload ground truth.
    docs: Vec<Vec<u32>>,
    /// (node, neighbor) -> per-topic goodness.
    index: HashMap<(NodeId, NodeId), Vec<f64>>,
    topics: usize,
    /// Rebuilds are throttled: only every `rebuild_every` topology
    /// changes (index maintenance is the scheme's known weak point under
    /// churn).
    rebuild_every: u32,
    changes_since_rebuild: u32,
}

impl RoutingIndices {
    /// Creates the policy. `horizon` is the aggregation depth,
    /// `attenuation` the per-hop discount, `k` the fan-out.
    pub fn new(horizon: u32, attenuation: f64, k: usize) -> Self {
        assert!(horizon >= 1, "horizon must reach past the neighbor");
        assert!(
            (0.0..=1.0).contains(&attenuation),
            "attenuation out of range"
        );
        assert!(k >= 1, "fan-out must be at least 1");
        RoutingIndices {
            horizon,
            attenuation,
            k,
            docs: Vec::new(),
            index: HashMap::new(),
            topics: 0,
            rebuild_every: 8,
            changes_since_rebuild: 0,
        }
    }

    /// The per-topic goodness vector for (`node`, `neighbor`), if indexed.
    pub fn goodness(&self, node: NodeId, neighbor: NodeId) -> Option<&[f64]> {
        self.index.get(&(node, neighbor)).map(Vec::as_slice)
    }

    fn rebuild(&mut self, graph: &Graph) {
        self.index.clear();
        for u in graph.live_nodes() {
            for v in graph.live_neighbors(u) {
                let scores = self.aggregate_via(graph, u, v);
                self.index.insert((u, v), scores);
            }
        }
    }

    /// BFS from `v` avoiding `u`, accumulating attenuated per-topic doc
    /// counts.
    fn aggregate_via(&self, graph: &Graph, u: NodeId, v: NodeId) -> Vec<f64> {
        let mut scores = vec![0.0f64; self.topics];
        let mut dist: HashMap<NodeId, u32> = HashMap::new();
        let mut q = VecDeque::new();
        dist.insert(v, 0);
        q.push_back(v);
        while let Some(w) = q.pop_front() {
            let d = dist[&w];
            let att = self.attenuation.powi(d as i32);
            for (t, &count) in self.docs[w.index()].iter().enumerate() {
                scores[t] += att * f64::from(count);
            }
            if d + 1 < self.horizon {
                for x in graph.live_neighbors(w) {
                    if x != u && !dist.contains_key(&x) {
                        dist.insert(x, d + 1);
                        q.push_back(x);
                    }
                }
            }
        }
        scores
    }
}

impl ForwardingPolicy for RoutingIndices {
    fn name(&self) -> &'static str {
        "routing-index"
    }

    fn init(&mut self, graph: &Graph, workload: &WorkloadGen, catalog: &Catalog) {
        self.topics = catalog.topic_count();
        self.docs = (0..workload.len())
            .map(|i| {
                let mut counts = vec![0u32; self.topics];
                for f in workload.library(i).iter() {
                    counts[catalog.meta(f).topic.0 as usize] += 1;
                }
                counts
            })
            .collect();
        self.rebuild(graph);
    }

    fn on_topology_change(&mut self, graph: &Graph) {
        self.changes_since_rebuild += 1;
        if self.changes_since_rebuild >= self.rebuild_every {
            self.rebuild(graph);
            self.changes_since_rebuild = 0;
        }
    }

    fn select(&mut self, ctx: &ForwardCtx<'_>, _rng: &mut Rng64) -> Vec<NodeId> {
        let topic: Topic = ctx.query.key.topic;
        let mut scored: Vec<(NodeId, f64)> = ctx
            .candidates
            .iter()
            .map(|&v| {
                let score = self
                    .index
                    .get(&(ctx.node, v))
                    .map(|s| s[topic.0 as usize])
                    .unwrap_or(0.0);
                (v, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let positive: Vec<NodeId> = scored
            .iter()
            .take_while(|&&(_, s)| s > 0.0)
            .take(self.k)
            .map(|&(v, _)| v)
            .collect();
        if positive.is_empty() {
            // No index information: flood.
            ctx.candidates.to_vec()
        } else {
            positive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_content::{CatalogConfig, FileId, QueryKey, WorkloadConfig};
    use arq_gnutella::QueryMsg;
    use arq_trace::record::Guid;

    fn msg(topic: u16) -> QueryMsg {
        QueryMsg {
            guid: Guid(1),
            key: QueryKey {
                file: FileId(0),
                topic: Topic(topic),
            },
            ttl: 5,
            hops: 0,
        }
    }

    /// A path 0 - 1 - 2 - 3 where node 3 holds all topic-0 documents.
    fn setup() -> (Graph, WorkloadGen, Catalog, RoutingIndices) {
        let mut rng = Rng64::seed_from(1);
        let catalog = Catalog::generate(
            CatalogConfig {
                topics: 2,
                files_per_topic: 20,
                ..Default::default()
            },
            &mut rng,
        );
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let mut workload = WorkloadGen::generate(
            4,
            &catalog,
            WorkloadConfig {
                files_per_node: 1,
                free_rider_fraction: 1.0, // start everyone empty
                ..Default::default()
            },
            &mut rng,
        );
        // Node 3: 10 docs of topic 0. Node 1: 1 doc of topic 1.
        for r in 0..10 {
            workload.add_file(3, catalog.file_at(Topic(0), r));
        }
        workload.add_file(1, catalog.file_at(Topic(1), 0));
        let mut p = RoutingIndices::new(3, 0.5, 1);
        p.init(&g, &workload, &catalog);
        (g, workload, catalog, p)
    }

    #[test]
    fn goodness_attenuates_with_distance() {
        let (_, _, _, p) = setup();
        // From node 1, neighbor 2 leads to node 3 (distance 1 from v=2):
        // topic-0 goodness = 10 * 0.5.
        let g12 = p.goodness(NodeId(1), NodeId(2)).unwrap();
        assert!((g12[0] - 5.0).abs() < 1e-9);
        // From node 2, neighbor 3 holds them directly: 10 * 1.0.
        let g23 = p.goodness(NodeId(2), NodeId(3)).unwrap();
        assert!((g23[0] - 10.0).abs() < 1e-9);
        // From node 1, neighbor 0 leads to nothing for topic 0.
        let g10 = p.goodness(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(g10[0], 0.0);
    }

    #[test]
    fn forwards_toward_the_content() {
        let (_, _, _, mut p) = setup();
        let mut rng = Rng64::seed_from(2);
        let candidates = vec![NodeId(0), NodeId(2)];
        let m = msg(0);
        let ctx = ForwardCtx {
            node: NodeId(1),
            from: None,
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(2)]);
    }

    #[test]
    fn zero_information_floods() {
        let (_, _, _, mut p) = setup();
        let mut rng = Rng64::seed_from(3);
        // From node 3, the only neighbor is 2; topic 1's single doc sits
        // at node 1, distance 2 from v=2 — within horizon 3, so the score
        // is positive and routing picks neighbor 2.
        let m = msg(1);
        let candidates = vec![NodeId(2)];
        let ctx = ForwardCtx {
            node: NodeId(3),
            from: None,
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(2)]);
        // From node 2 looking away from the content (toward node 3),
        // topic-1 goodness via 3 is zero -> flooding fallback returns all
        // candidates.
        let candidates = vec![NodeId(3)];
        let ctx = ForwardCtx {
            node: NodeId(2),
            from: Some(NodeId(1)),
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng), vec![NodeId(3)]);
    }

    #[test]
    fn rebuild_tracks_topology_after_throttle() {
        let (mut g, _, _, mut p) = setup();
        // Disconnect node 3; index is stale until enough change events.
        g.depart(NodeId(3));
        for _ in 0..8 {
            p.on_topology_change(&g);
        }
        let g12 = p.goodness(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g12[0], 0.0, "index did not rebuild");
    }

    #[test]
    #[should_panic(expected = "attenuation")]
    fn rejects_bad_attenuation() {
        RoutingIndices::new(2, 1.5, 1);
    }
}
