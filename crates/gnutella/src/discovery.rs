//! Ping/Pong peer discovery.
//!
//! The half of the Gnutella protocol the search simulator abstracts
//! away: Ping descriptors flood outward under a TTL, and every receiving
//! servent answers with a Pong carrying its address, teaching the pinger
//! about peers beyond its direct neighbors. Rejoining nodes use the
//! harvest to choose attachment points, which biases reconnection toward
//! the neighborhood they probed instead of a uniform global choice —
//! [`rewire_via_discovery`] is the drop-in alternative to
//! `arq_overlay::churn::rewire_join`.
//!
//! The simulation is synchronous (a BFS with per-hop byte accounting)
//! because discovery traffic does not interact with in-flight queries;
//! what matters for the workspace is the *peer set* it yields and its
//! message cost.

use crate::message::HEADER_BYTES;
use arq_overlay::{Graph, NodeId};
use arq_simkern::Rng64;
use std::collections::VecDeque;

/// Pong payload: port + IPv4 + two 4-byte share counters.
pub const PONG_PAYLOAD_BYTES: u64 = 14;

/// The result of one ping crawl.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Peers that answered, ordered by (hop distance, id) — nearest
    /// first.
    pub peers: Vec<NodeId>,
    /// Ping transmissions performed.
    pub pings: u64,
    /// Pong transmissions performed (each travels the reverse path).
    pub pongs: u64,
}

impl Discovery {
    /// Total bytes this crawl put on the wire.
    pub fn bytes(&self) -> u64 {
        self.pings * HEADER_BYTES + self.pongs * (HEADER_BYTES + PONG_PAYLOAD_BYTES)
    }
}

/// Floods a Ping from `origin` with the given `ttl` and collects the
/// Pongs. Peers are discovered in BFS order; each discovered peer's Pong
/// travels back hop-by-hop (accounted per hop, as on the real network).
pub fn ping_crawl(graph: &Graph, origin: NodeId, ttl: u32) -> Discovery {
    let mut result = Discovery {
        peers: Vec::new(),
        pings: 0,
        pongs: 0,
    };
    if !graph.is_alive(origin) || ttl == 0 {
        return result;
    }
    let mut dist = vec![u32::MAX; graph.len()];
    dist[origin.index()] = 0;
    let mut q = VecDeque::new();
    q.push_back(origin);
    while let Some(u) = q.pop_front() {
        let d = dist[u.index()];
        if d >= ttl {
            continue;
        }
        for v in graph.live_neighbors(u) {
            // The ping is transmitted whether or not v is new (floods
            // revisit nodes; duplicates are dropped on arrival).
            result.pings += 1;
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = d + 1;
                result.peers.push(v);
                // v's pong travels d+1 hops back to the origin.
                result.pongs += u64::from(d) + 1;
                q.push_back(v);
            }
        }
    }
    // BFS pushes in (distance, neighbor-order); normalize ties by id for
    // deterministic output.
    let dist_ref = &dist;
    result.peers.sort_by_key(|p| (dist_ref[p.index()], p.0));
    result
}

/// Rewires a rejoining node using a ping crawl from a live bootstrap
/// peer: the node attaches to up to `target_degree` peers sampled from
/// the crawl harvest (bootstrap included). Falls back to the bootstrap
/// alone when the crawl finds nobody. Returns the chosen peers.
pub fn rewire_via_discovery(
    graph: &mut Graph,
    node: NodeId,
    bootstrap: NodeId,
    ttl: u32,
    target_degree: usize,
    rng: &mut Rng64,
) -> Vec<NodeId> {
    debug_assert!(graph.is_alive(node), "rejoin the node before rewiring");
    let crawl = ping_crawl(graph, bootstrap, ttl);
    let mut candidates: Vec<NodeId> = std::iter::once(bootstrap)
        .chain(crawl.peers)
        .filter(|&p| p != node && graph.is_alive(p))
        .collect();
    candidates.dedup();
    if candidates.is_empty() {
        return Vec::new();
    }
    let k = target_degree.min(candidates.len());
    let picks = rng.sample_indices(candidates.len(), k);
    let mut chosen = Vec::with_capacity(k);
    for idx in picks {
        let peer = candidates[idx];
        if graph.add_edge(node, peer) {
            chosen.push(peer);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_overlay::generate::{clique, ring};

    #[test]
    fn crawl_discovers_the_ttl_ball() {
        let g = ring(10);
        let d = ping_crawl(&g, NodeId(0), 2);
        // Within 2 hops of node 0 on a ring: 1, 2, 8, 9.
        assert_eq!(d.peers, vec![NodeId(1), NodeId(9), NodeId(2), NodeId(8)]);
        // Nearest first.
        assert_eq!(d.peers[0], NodeId(1));
        assert!(d.pings > 0 && d.pongs > 0);
        assert!(d.bytes() > 0);
    }

    /// Ping crawls discover exactly the TTL-ball (minus the origin), in
    /// nearest-first order, on random graphs.
    #[test]
    fn ping_crawl_equals_bfs_ball() {
        let mut rng = Rng64::seed_from(17);
        for case in 0..200 {
            let n = 2 + rng.index(28);
            let mut g = Graph::new(n);
            for _ in 0..rng.index(120) {
                let (a, b) = (NodeId(rng.index(n) as u32), NodeId(rng.index(n) as u32));
                if a != b {
                    g.add_edge(a, b);
                }
            }
            let origin = NodeId(rng.index(n) as u32);
            let ttl = rng.below(6) as u32;
            let crawl = ping_crawl(&g, origin, ttl);
            let mut expected = arq_overlay::algo::reachable_within(&g, origin, ttl);
            let mut found = crawl.peers.clone();
            expected.sort_unstable();
            found.sort_unstable();
            assert_eq!(found, expected, "case {case}");
            let dist = arq_overlay::algo::bfs_distances(&g, origin);
            let ds: Vec<u32> = crawl.peers.iter().map(|p| dist[p.index()]).collect();
            assert!(
                ds.windows(2).all(|w| w[0] <= w[1]),
                "case {case}: not nearest-first: {ds:?}"
            );
        }
    }

    #[test]
    fn ttl_one_sees_only_neighbors() {
        let g = clique(5);
        let d = ping_crawl(&g, NodeId(2), 1);
        assert_eq!(d.peers.len(), 4);
        assert_eq!(d.pings, 4);
        assert_eq!(d.pongs, 4); // each pong travels 1 hop
    }

    #[test]
    fn crawl_from_dead_or_zero_ttl_is_empty() {
        let mut g = ring(5);
        assert!(ping_crawl(&g, NodeId(0), 0).peers.is_empty());
        g.depart(NodeId(0));
        assert!(ping_crawl(&g, NodeId(0), 3).peers.is_empty());
    }

    #[test]
    fn pong_cost_grows_with_distance() {
        let g = ring(12);
        let near = ping_crawl(&g, NodeId(0), 1);
        let far = ping_crawl(&g, NodeId(0), 4);
        assert!(far.pongs > near.pongs);
        // Far crawl: peers at distance d cost d pong hops each:
        // 2*(1+2+3+4) = 20.
        assert_eq!(far.pongs, 20);
    }

    #[test]
    fn discovery_rewiring_attaches_locally() {
        let mut g = ring(20);
        // Node 10 leaves and rejoins near node 0.
        g.depart(NodeId(10));
        g.rejoin(NodeId(10));
        let mut rng = Rng64::seed_from(4);
        let chosen = rewire_via_discovery(&mut g, NodeId(10), NodeId(0), 2, 3, &mut rng);
        assert!(!chosen.is_empty());
        g.check_invariants().unwrap();
        // Every chosen peer is within the crawl ball around node 0
        // (bootstrap, or ≤ 2 hops from it on the healed ring).
        for p in &chosen {
            let within: Vec<NodeId> = std::iter::once(NodeId(0))
                .chain(ping_crawl(&g, NodeId(0), 2).peers)
                .collect();
            assert!(
                within.contains(p) || *p == NodeId(10),
                "peer {p} outside the discovery ball"
            );
        }
    }

    #[test]
    fn discovery_rewiring_survives_isolated_bootstrap() {
        let mut g = arq_overlay::Graph::new(3);
        // Bootstrap is alive but alone.
        let mut rng = Rng64::seed_from(5);
        let chosen = rewire_via_discovery(&mut g, NodeId(1), NodeId(0), 3, 2, &mut rng);
        assert_eq!(
            chosen,
            vec![NodeId(0)],
            "must at least attach to the bootstrap"
        );
    }
}
