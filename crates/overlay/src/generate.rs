//! Topology generators.
//!
//! Unstructured P2P overlays are commonly modelled as random graphs. The
//! generators here are deterministic given an [`Rng64`] stream, and each
//! one that builds from scratch collects its edge list and lays it out
//! once ([`Graph::from_edges`]):
//!
//! * [`erdos_renyi`] — G(n, p) uniform random graph;
//! * [`barabasi_albert`] — preferential attachment, yielding the power-law
//!   degree distribution measured in real Gnutella snapshots; the default
//!   topology for the workspace's experiments;
//! * [`watts_strogatz`] — ring lattice with rewiring (small-world);
//! * [`ring`], [`clique`] — degenerate topologies for tests;
//! * [`ensure_connected`] — patches any generator's output into a single
//!   connected component by bridging components, so floods can reach every
//!   node in baseline comparisons.

use crate::graph::{Graph, NodeId};
use arq_simkern::Rng64;

/// Erdős–Rényi G(n, p): each of the n(n−1)/2 possible edges is present
/// independently with probability `p`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut Rng64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p out of range");
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.chance(p) {
                edges.push((NodeId(a as u32), NodeId(b as u32)));
            }
        }
    }
    Graph::from_edges(n, edges.iter().copied())
}

/// Every pair `(a, b)`, `a < b`, of the first `n` node ids.
fn clique_edges(n: usize) -> impl Iterator<Item = (NodeId, NodeId)> + Clone {
    (0..n as u32).flat_map(move |a| (a + 1..n as u32).map(move |b| (NodeId(a), NodeId(b))))
}

/// Barabási–Albert preferential attachment.
///
/// Starts from a small seed clique of `m` nodes; each subsequent node
/// attaches to `m` existing nodes chosen with probability proportional to
/// their current degree (via the standard repeated-endpoint trick).
pub fn barabasi_albert(n: usize, m: usize, rng: &mut Rng64) -> Graph {
    assert!(m >= 1, "attachment count must be >= 1");
    assert!(n > m, "need more nodes than the seed clique");
    // Seed: clique over the first m+1 nodes so every seed node has degree
    // m. Endpoint pool: each node appears once per unit of degree.
    let mut pool: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    for a in 0..=m {
        for _ in 0..m {
            pool.push(NodeId(a as u32));
        }
    }
    let seed_slots = pool.len();
    let mut targets: Vec<NodeId> = Vec::with_capacity(m);
    for v in (m + 1)..n {
        let v = NodeId(v as u32);
        targets.clear();
        // Rejection-sample m distinct targets from the degree-weighted pool.
        let mut guard = 0usize;
        while targets.len() < m {
            let t = *rng.pick(&pool);
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
            assert!(
                guard < 100_000,
                "BA sampling failed to find distinct targets"
            );
        }
        for &t in &targets {
            pool.push(v);
            pool.push(t);
        }
    }
    // Past the seed, the pool is the edge list: one `(v, t)` per edge.
    let attached = pool[seed_slots..].chunks_exact(2).map(|e| (e[0], e[1]));
    Graph::from_edges(n, clique_edges(m + 1).chain(attached))
}

/// Watts–Strogatz small-world graph: ring lattice with `k` neighbors per
/// side, each edge rewired with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut Rng64) -> Graph {
    assert!(k >= 1 && 2 * k < n, "lattice degree too large for n");
    assert!((0.0..=1.0).contains(&beta));
    let lattice = (0..n).flat_map(|i| (1..=k).map(move |j| (i, (i + j) % n)));
    let mut g = Graph::from_edges(
        n,
        lattice.map(|(a, b)| (NodeId(a as u32), NodeId(b as u32))),
    );
    // Rewire: for each lattice edge (i, i+j), with prob beta replace the
    // far endpoint with a uniform random node.
    for i in 0..n {
        for j in 1..=k {
            if rng.chance(beta) {
                let old = NodeId(((i + j) % n) as u32);
                let a = NodeId(i as u32);
                // Find a new endpoint avoiding self loops and duplicates.
                let mut guard = 0;
                loop {
                    let b = NodeId(rng.index(n) as u32);
                    if b != a && !g.has_edge(a, b) {
                        g.remove_edge(a, old);
                        g.add_edge(a, b);
                        break;
                    }
                    guard += 1;
                    if guard > 1000 {
                        break; // dense corner case: keep the lattice edge
                    }
                }
            }
        }
    }
    g
}

/// A simple cycle over `n` nodes.
pub fn ring(n: usize) -> Graph {
    let edges = (0..n).map(|i| (NodeId(i as u32), NodeId(((i + 1) % n) as u32)));
    Graph::from_edges(n, edges)
}

/// The complete graph over `n` nodes.
pub fn clique(n: usize) -> Graph {
    Graph::from_edges(n, clique_edges(n))
}

/// Connects all live components of `g` by adding one bridge edge between a
/// representative of each component and the first component. Returns the
/// number of bridges added.
pub fn ensure_connected(g: &mut Graph, rng: &mut Rng64) -> usize {
    let comps = crate::algo::components(g);
    if comps.len() <= 1 {
        return 0;
    }
    let mut bridges = 0;
    let anchor_comp = &comps[0];
    for comp in &comps[1..] {
        let a = *rng.pick(anchor_comp);
        let b = *rng.pick(comp);
        if g.add_edge(a, b) {
            bridges += 1;
        }
    }
    bridges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{components, is_connected};
    use crate::graph::random_graph;

    fn rng() -> Rng64 {
        Rng64::seed_from(0xDEAD_BEEF)
    }

    #[test]
    fn erdos_renyi_edge_density() {
        let n = 200;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut rng());
        g.check_invariants().unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, &mut rng()).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng()).edge_count(), 45);
    }

    #[test]
    fn barabasi_albert_degrees() {
        let n = 500;
        let m = 3;
        let g = barabasi_albert(n, m, &mut rng());
        g.check_invariants().unwrap();
        // Every non-seed node contributed exactly m edges.
        assert_eq!(g.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
        // Minimum degree is m; maximum is much larger (hubs exist).
        let min_deg = g.nodes().map(|v| g.degree(v)).min().unwrap();
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        assert_eq!(min_deg, m);
        assert!(max_deg > 4 * m, "no hubs formed: max degree {max_deg}");
        // BA graphs are connected by construction.
        assert_eq!(components(&g).len(), 1);
    }

    #[test]
    fn watts_strogatz_preserves_edge_count_without_rewiring() {
        let g = watts_strogatz(50, 2, 0.0, &mut rng());
        g.check_invariants().unwrap();
        assert_eq!(g.edge_count(), 100);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn watts_strogatz_rewires_some_edges() {
        let g = watts_strogatz(100, 2, 0.5, &mut rng());
        g.check_invariants().unwrap();
        // Edge count conserved (rewiring replaces, never deletes).
        assert_eq!(g.edge_count(), 200);
        // Some long-range edges must now exist.
        let long_range = g
            .nodes()
            .flat_map(|a| g.neighbors(a).iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| {
                let d = (a.0 as i64 - b.0 as i64).rem_euclid(100);
                let ring_dist = d.min(100 - d);
                ring_dist > 2
            })
            .count();
        assert!(long_range > 0, "rewiring produced no long-range edges");
    }

    #[test]
    fn ring_and_clique() {
        let r = ring(6);
        assert_eq!(r.edge_count(), 6);
        assert!(r.nodes().all(|v| r.degree(v) == 2));
        let c = clique(5);
        assert_eq!(c.edge_count(), 10);
        assert!(c.nodes().all(|v| c.degree(v) == 4));
        assert_eq!(ring(1).edge_count(), 0);
    }

    #[test]
    fn ensure_connected_bridges_components() {
        let mut g = Graph::new(9);
        // three triangles
        for base in [0u32, 3, 6] {
            g.add_edge(NodeId(base), NodeId(base + 1));
            g.add_edge(NodeId(base + 1), NodeId(base + 2));
            g.add_edge(NodeId(base), NodeId(base + 2));
        }
        assert_eq!(components(&g).len(), 3);
        let added = ensure_connected(&mut g, &mut rng());
        assert_eq!(added, 2);
        assert_eq!(components(&g).len(), 1);
        // Idempotent.
        assert_eq!(ensure_connected(&mut g, &mut rng()), 0);
    }

    /// Barabási–Albert graphs are simple and connected, with exactly the
    /// predicted edge count and minimum degree `m`.
    #[test]
    fn barabasi_albert_structure() {
        let mut rng = rng();
        for _ in 0..64 {
            let m = 1 + rng.index(3);
            let n = m + 2 + rng.index(78 - m);
            let g = barabasi_albert(n, m, &mut Rng64::seed_from(rng.next_u64()));
            g.check_invariants().unwrap();
            assert!(is_connected(&g));
            assert_eq!(g.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
            assert!(g.nodes().all(|v| g.degree(v) >= m));
        }
    }

    /// The edge-by-edge construction `barabasi_albert` replaced: the
    /// laid-out graph has the same rows and leaves the stream where the
    /// old one did.
    #[test]
    fn barabasi_albert_equals_edge_by_edge_construction() {
        fn reference(n: usize, m: usize, rng: &mut Rng64) -> Graph {
            let mut g = Graph::new(n);
            for a in 0..=m {
                for b in (a + 1)..=m {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32));
                }
            }
            let mut pool: Vec<NodeId> = Vec::new();
            for a in 0..=m {
                for _ in 0..g.degree(NodeId(a as u32)) {
                    pool.push(NodeId(a as u32));
                }
            }
            for v in (m + 1)..n {
                let v = NodeId(v as u32);
                let mut targets: Vec<NodeId> = Vec::new();
                while targets.len() < m {
                    let t = *rng.pick(&pool);
                    if t != v && !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                for t in targets {
                    g.add_edge(v, t);
                    pool.push(v);
                    pool.push(t);
                }
            }
            g
        }
        let mut shape = rng();
        for _ in 0..32 {
            let m = 1 + shape.index(4);
            let n = m + 1 + shape.index(300);
            let seed = shape.next_u64();
            let (mut a, mut b) = (Rng64::seed_from(seed), Rng64::seed_from(seed));
            let (got, want) = (barabasi_albert(n, m, &mut a), reference(n, m, &mut b));
            assert_eq!(got.edge_count(), want.edge_count());
            for v in want.nodes() {
                assert_eq!(got.neighbors(v), want.neighbors(v), "n {n} m {m} {v}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "n {n} m {m}: draws");
        }
    }

    /// `ensure_connected` always leaves one component.
    #[test]
    fn ensure_connected_connects() {
        let mut rng = rng();
        for _ in 0..64 {
            let n = 2 + rng.index(38);
            let mut g = random_graph(n, rng.index(40), &mut rng);
            ensure_connected(&mut g, &mut rng);
            assert!(is_connected(&g));
            g.check_invariants().unwrap();
        }
    }

    /// Superpeer topologies are connected two-tier graphs: every leaf has
    /// exactly one edge, to its assigned superpeer in the core.
    #[test]
    fn superpeer_topology_structure() {
        let mut rng = rng();
        for _ in 0..64 {
            let n_super = 2 + rng.index(10);
            let degree = 1 + rng.index(3.min(n_super - 1));
            let n = n_super + 1 + rng.index(59);
            let (g, assignment) = superpeer(n, n_super, degree, &mut rng);
            g.check_invariants().unwrap();
            assert!(is_connected(&g));
            assert_eq!(assignment.len(), n);
            for (leaf, &sp) in assignment.iter().enumerate().skip(n_super) {
                let leaf = NodeId(leaf as u32);
                assert_eq!(g.neighbors(leaf), &[sp]);
                assert!(sp.index() < n_super, "{leaf} assigned to a leaf");
            }
        }
    }
}

/// Two-tier superpeer topology (Yang & Garcia-Molina, ICDE'03): the first
/// `n_super` node ids form a well-connected superpeer core (each core
/// node links to `super_degree` random other core nodes, patched to a
/// single component), and every remaining node is a *leaf* attached to
/// exactly one uniformly chosen superpeer.
///
/// Returns the graph plus the leaf → superpeer assignment
/// (`assignment[i]` is meaningful only for `i >= n_super`; superpeer
/// entries map to themselves).
pub fn superpeer(
    n: usize,
    n_super: usize,
    super_degree: usize,
    rng: &mut Rng64,
) -> (Graph, Vec<NodeId>) {
    assert!(
        n_super >= 2 && n_super < n,
        "need at least 2 superpeers and some leaves"
    );
    assert!(
        super_degree >= 1 && super_degree < n_super,
        "bad core degree"
    );
    // Build the core in its own graph so connectivity patching cannot
    // accidentally bridge to still-isolated leaf ids.
    let mut core = Graph::new(n_super);
    for s in 0..n_super {
        let me = NodeId(s as u32);
        let mut linked = 0;
        let mut guard = 0;
        while linked < super_degree && guard < 10_000 {
            let other = NodeId(rng.index(n_super) as u32);
            if other != me && core.add_edge(me, other) {
                linked += 1;
            }
            guard += 1;
        }
    }
    ensure_connected(&mut core, rng);
    // Leaves.
    let mut assignment: Vec<NodeId> = (0..n_super as u32).map(NodeId).collect();
    for _ in n_super..n {
        assignment.push(NodeId(rng.index(n_super) as u32));
    }
    let core_edges = (0..n_super as u32)
        .map(NodeId)
        .flat_map(|s| core.neighbors(s).iter().map(move |&t| (s, t)))
        .filter(|(s, t)| s < t);
    let leaf_edges = (n_super..n).map(|leaf| (NodeId(leaf as u32), assignment[leaf]));
    let g = Graph::from_edges(n, core_edges.chain(leaf_edges));
    (g, assignment)
}

#[cfg(test)]
mod superpeer_tests {
    use super::*;
    use crate::algo::is_connected;

    #[test]
    fn two_tier_structure() {
        let mut rng = Rng64::seed_from(11);
        let (g, assignment) = superpeer(100, 10, 3, &mut rng);
        g.check_invariants().unwrap();
        assert!(is_connected(&g));
        assert_eq!(assignment.len(), 100);
        // Every leaf has exactly one edge, to its assigned superpeer.
        for leaf in 10..100u32 {
            assert_eq!(g.degree(NodeId(leaf)), 1);
            assert_eq!(g.neighbors(NodeId(leaf)), &[assignment[leaf as usize]]);
            assert!(assignment[leaf as usize].0 < 10, "leaf assigned to a leaf");
        }
        // Superpeers map to themselves and are interconnected.
        for s in 0..10u32 {
            assert_eq!(assignment[s as usize], NodeId(s));
            assert!(g.degree(NodeId(s)) >= 3);
        }
    }

    #[test]
    #[should_panic(expected = "superpeers")]
    fn rejects_degenerate_config() {
        superpeer(10, 10, 2, &mut Rng64::seed_from(1));
    }
}
