//! Graph algorithms over live nodes.
//!
//! All traversals respect liveness: departed nodes are invisible, exactly
//! as they are to protocol messages.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// BFS hop distances from `src` over live nodes. Unreachable (or departed)
/// nodes get `u32::MAX`.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.len()];
    if !g.is_alive(src) {
        return dist;
    }
    let mut q = VecDeque::new();
    dist[src.index()] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u.index()];
        for v in g.live_neighbors(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Live nodes reachable from `src` within `ttl` hops (inclusive),
/// excluding `src` itself. This is exactly the set a TTL-limited flood
/// can cover.
pub fn reachable_within(g: &Graph, src: NodeId, ttl: u32) -> Vec<NodeId> {
    let dist = bfs_distances(g, src);
    g.live_nodes()
        .filter(|n| *n != src && dist[n.index()] <= ttl)
        .collect()
}

/// Connected components over live nodes, each sorted by id, ordered by
/// smallest member.
pub fn components(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; g.len()];
    let mut comps = Vec::new();
    for start in g.live_nodes() {
        if seen[start.index()] {
            continue;
        }
        let mut comp = Vec::new();
        let mut q = VecDeque::new();
        seen[start.index()] = true;
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            comp.push(u);
            for v in g.live_neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    q.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// Whether all live nodes form a single connected component.
pub fn is_connected(g: &Graph) -> bool {
    components(g).len() <= 1
}

/// Estimates the live-graph diameter by running BFS from `samples` seed
/// nodes and taking the largest finite distance observed. Exact when
/// `samples >= live node count`.
pub fn estimate_diameter(g: &Graph, samples: usize) -> u32 {
    let live: Vec<NodeId> = g.live_nodes().collect();
    let mut best = 0;
    for &src in live.iter().take(samples.max(1)) {
        let dist = bfs_distances(g, src);
        for n in &live {
            let d = dist[n.index()];
            if d != u32::MAX {
                best = best.max(d);
            }
        }
    }
    best
}

/// Mean shortest-path length between live node pairs, sampled from
/// `samples` BFS sources. Unreachable pairs are skipped.
pub fn mean_path_length(g: &Graph, samples: usize) -> f64 {
    let live: Vec<NodeId> = g.live_nodes().collect();
    let mut total = 0u64;
    let mut pairs = 0u64;
    for &src in live.iter().take(samples.max(1)) {
        let dist = bfs_distances(g, src);
        for n in &live {
            let d = dist[n.index()];
            if *n != src && d != u32::MAX {
                total += d as u64;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{clique, ring};
    use crate::graph::random_graph;
    use arq_simkern::Rng64;

    #[test]
    fn bfs_on_ring() {
        let g = ring(8);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 3, 2, 1]);
    }

    #[test]
    fn bfs_respects_departures() {
        let mut g = ring(6);
        g.depart(NodeId(3));
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[3], u32::MAX);
        // Path to node 4 must now go the long way: 0-5-4.
        assert_eq!(d[4], 2);
        assert_eq!(d[2], 2);
    }

    #[test]
    fn bfs_from_departed_source_reaches_nothing() {
        let mut g = ring(4);
        g.depart(NodeId(0));
        let d = bfs_distances(&g, NodeId(0));
        assert!(d.iter().all(|&x| x == u32::MAX));
    }

    #[test]
    fn reachable_within_ttl() {
        let g = ring(10);
        let r2 = reachable_within(&g, NodeId(0), 2);
        assert_eq!(r2, vec![NodeId(1), NodeId(2), NodeId(8), NodeId(9)]);
        let all = reachable_within(&g, NodeId(0), 5);
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn components_split_and_merge() {
        let mut g = ring(6);
        // Cut the ring twice -> still one component? No: a ring minus two
        // edges is two paths.
        g.remove_edge(NodeId(0), NodeId(1));
        g.remove_edge(NodeId(3), NodeId(4));
        let comps = components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(4), NodeId(5)]);
        assert_eq!(comps[1], vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(!is_connected(&g));
        g.add_edge(NodeId(0), NodeId(1));
        assert!(is_connected(&g));
    }

    #[test]
    fn diameter_and_path_length() {
        let g = ring(8);
        assert_eq!(estimate_diameter(&g, 8), 4);
        let c = clique(5);
        assert_eq!(estimate_diameter(&c, 5), 1);
        assert!((mean_path_length(&c, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::new(0);
        assert!(is_connected(&g));
        assert_eq!(estimate_diameter(&g, 3), 0);
        assert_eq!(mean_path_length(&g, 3), 0.0);
    }

    /// BFS distances differ by at most one across every edge, and no edge
    /// joins a reached node to an unreached one.
    #[test]
    fn bfs_distances_are_lipschitz() {
        let mut rng = Rng64::seed_from(0xBF5);
        for _ in 0..64 {
            let n = 2 + rng.index(28);
            let g = random_graph(n, rng.index(150), &mut rng);
            let src = NodeId(rng.index(n) as u32);
            let d = bfs_distances(&g, src);
            assert_eq!(d[src.index()], 0);
            for u in g.nodes() {
                for &v in g.neighbors(u) {
                    let (du, dv) = (d[u.index()], d[v.index()]);
                    assert_eq!(
                        du == u32::MAX,
                        dv == u32::MAX,
                        "edge {u}-{v} leaves the ball"
                    );
                    if du != u32::MAX {
                        assert!(du.abs_diff(dv) <= 1, "edge {u}-{v}: {du} vs {dv}");
                    }
                }
            }
        }
    }

    /// Components partition the live nodes.
    #[test]
    fn components_partition_live_nodes() {
        let mut rng = Rng64::seed_from(0xC0C);
        for _ in 0..64 {
            let n = 1 + rng.index(29);
            let mut g = random_graph(n, rng.index(100), &mut rng);
            for _ in 0..rng.index(10) {
                g.depart(NodeId(rng.index(n) as u32));
            }
            let mut seen = vec![false; n];
            for node in components(&g).into_iter().flatten() {
                assert!(g.is_alive(node));
                assert!(
                    !std::mem::replace(&mut seen[node.index()], true),
                    "{node} twice"
                );
            }
            assert_eq!(seen.iter().filter(|&&s| s).count(), g.live_count());
        }
    }
}

/// Local clustering coefficient of `n`: the fraction of its live
/// neighbor pairs that are themselves connected. 0 for degree < 2.
pub fn clustering_coefficient(g: &Graph, n: NodeId) -> f64 {
    let neighbors: Vec<NodeId> = g.live_neighbors(n).collect();
    if neighbors.len() < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    let mut total = 0usize;
    for (i, &a) in neighbors.iter().enumerate() {
        for &b in &neighbors[i + 1..] {
            total += 1;
            if g.has_edge(a, b) {
                closed += 1;
            }
        }
    }
    closed as f64 / total as f64
}

/// Mean local clustering coefficient over live nodes (Watts–Strogatz's
/// C). Small-world graphs score far above same-density random graphs.
pub fn mean_clustering(g: &Graph) -> f64 {
    let live: Vec<NodeId> = g.live_nodes().collect();
    if live.is_empty() {
        return 0.0;
    }
    live.iter()
        .map(|&n| clustering_coefficient(g, n))
        .sum::<f64>()
        / live.len() as f64
}

/// Degree assortativity (Pearson correlation of degrees across live
/// edges). Negative for hub-and-spoke overlays like Barabási–Albert and
/// measured Gnutella snapshots; ~0 for Erdős–Rényi. Returns 0 when the
/// graph has no edges or uniform degrees.
pub fn degree_assortativity(g: &Graph) -> f64 {
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for a in g.live_nodes() {
        for b in g.live_neighbors(a) {
            // Count each edge in both directions, as the standard
            // definition does.
            xs.push(g.degree(a) as f64);
            ys.push(g.degree(b) as f64);
        }
    }
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod structure_tests {
    use super::*;
    use crate::generate::{barabasi_albert, clique, ring, watts_strogatz};
    use arq_simkern::Rng64;

    #[test]
    fn clique_clusters_perfectly() {
        let g = clique(6);
        assert!((clustering_coefficient(&g, NodeId(0)) - 1.0).abs() < 1e-12);
        assert!((mean_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ring_has_no_triangles() {
        let g = ring(8);
        assert_eq!(mean_clustering(&g), 0.0);
        assert_eq!(clustering_coefficient(&g, NodeId(0)), 0.0);
    }

    #[test]
    fn small_world_clusters_more_than_random_rewiring() {
        let mut rng = Rng64::seed_from(3);
        let lattice = watts_strogatz(200, 3, 0.0, &mut rng);
        let rewired = watts_strogatz(200, 3, 1.0, &mut rng);
        let c_lattice = mean_clustering(&lattice);
        let c_rewired = mean_clustering(&rewired);
        assert!(
            c_lattice > 2.0 * c_rewired,
            "lattice {c_lattice} vs rewired {c_rewired}"
        );
        // The k=3 ring lattice's exact C is 0.6.
        assert!((c_lattice - 0.6).abs() < 1e-9);
    }

    #[test]
    fn barabasi_albert_is_disassortative() {
        let mut rng = Rng64::seed_from(4);
        let g = barabasi_albert(600, 3, &mut rng);
        let r = degree_assortativity(&g);
        assert!(r < 0.0, "BA should be disassortative, got {r}");
        assert!(r > -1.0);
    }

    #[test]
    fn regular_graphs_have_zero_assortativity() {
        // Uniform degree -> zero variance -> defined as 0.
        assert_eq!(degree_assortativity(&ring(10)), 0.0);
        assert_eq!(degree_assortativity(&clique(5)), 0.0);
        assert_eq!(degree_assortativity(&Graph::new(3)), 0.0);
    }

    #[test]
    fn clustering_ignores_departed_neighbors() {
        let mut g = clique(4);
        assert!((clustering_coefficient(&g, NodeId(0)) - 1.0).abs() < 1e-12);
        g.depart(NodeId(3));
        // Remaining neighborhood of 0 is {1, 2}, still connected.
        assert!((clustering_coefficient(&g, NodeId(0)) - 1.0).abs() < 1e-12);
        g.remove_edge(NodeId(1), NodeId(2));
        assert_eq!(clustering_coefficient(&g, NodeId(0)), 0.0);
    }
}
