//! Mutable undirected overlay graph.
//!
//! Nodes are dense integer ids. Each node carries a liveness flag: a peer
//! that leaves the network stays in the id space (its identity — the
//! paper's "IP address" — persists) but takes no further part in routing
//! until it rejoins. Adjacency is one sorted row of neighbor ids per node,
//! every row in one arena ([`Rows`]): overlays are sparse (Gnutella
//! averages 3–10 neighbors), so binary search in a short row beats
//! hashing while keeping iteration order deterministic, and a 100k-node
//! graph is built and freed in a few allocations. Generators lay their
//! edge list out once ([`Graph::from_edges`]); churn and adaptation edit
//! rows in place. Liveness is
//! a bitmap with a rank-select tree over it, so the live count is a
//! counter and "the k-th live node in id order" — what a uniform draw
//! over live nodes needs — costs O(log n) instead of a scan.

use crate::live_set::LiveSet;
use arq_simkern::Rows;
use std::fmt;

/// Identifier of an overlay node. Dense, stable across leave/rejoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected overlay graph with per-node liveness.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Rows<NodeId>,
    alive: LiveSet,
    edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated, live nodes.
    pub fn new(n: usize) -> Self {
        Graph::from_edges(n, [])
    }

    /// Creates a graph with `n` live nodes and the undirected edges
    /// `edges`, laid out once: each node's row gets exactly its degree
    /// in room. Self loops and repeated edges are dropped, as
    /// [`Graph::add_edge`] drops them, so the result equals adding the
    /// edges one by one.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter().filter(|(a, b)| a != b);
        let mut degree = vec![0; n];
        for (a, b) in edges.clone() {
            assert!(a.index() < n && b.index() < n, "edge endpoint out of range");
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let mut adj = Rows::with_room(&degree, NodeId(0), ());
        for (a, b) in edges {
            adj.push(a.index(), b);
            adj.push(b.index(), a);
        }
        let mut half_edges = 0;
        for r in 0..n {
            let row = adj.row_mut(r);
            row.sort_unstable();
            let mut kept = 0;
            for i in 0..row.len() {
                if kept == 0 || row[i] != row[kept - 1] {
                    row[kept] = row[i];
                    kept += 1;
                }
            }
            adj.truncate(r, kept);
            half_edges += kept;
        }
        Graph {
            adj,
            alive: LiveSet::all_live(n),
            edges: half_edges / 2,
        }
    }

    /// Total number of node ids (live and departed).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges currently present.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Number of live nodes (a maintained counter, not a scan).
    pub fn live_count(&self) -> usize {
        self.alive.live()
    }

    /// The `k`-th live node in id order — `live_nodes().nth(k)` in
    /// O(log n). `None` when `k >= live_count()`.
    pub fn select_live(&self, k: usize) -> Option<NodeId> {
        self.alive.select(k).map(|i| NodeId(i as u32))
    }

    /// The `k`-th live node in id order, not counting `skip` —
    /// `live_nodes().filter(|&n| n != skip).nth(k)` in O(log n).
    pub fn select_live_except(&self, skip: NodeId, k: usize) -> Option<NodeId> {
        let n = self.select_live(k)?;
        if n >= skip && self.is_alive(skip) {
            // `skip` is among the first `k + 1` live nodes: shift by one.
            self.select_live(k + 1)
        } else {
            Some(n)
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Iterator over live node ids.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |n| self.is_alive(*n))
    }

    /// Whether `n` is currently live.
    #[inline]
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.alive.contains(n.index())
    }

    /// Adds a fresh isolated live node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push_row([], ());
        self.alive.push_live();
        id
    }

    /// Adds the undirected edge `{a, b}`. Returns `false` (and does
    /// nothing) if the edge already exists or `a == b`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b || self.has_edge(a, b) {
            return false;
        }
        let (ai, bi) = (a.index(), b.index());
        assert!(
            ai < self.adj.len() && bi < self.adj.len(),
            "edge endpoint out of range"
        );
        self.adj.insert_sorted(ai, b);
        self.adj.insert_sorted(bi, a);
        self.edges += 1;
        true
    }

    /// Removes the undirected edge `{a, b}` if present. Returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let removed = self.adj.remove_sorted(a.index(), b);
        if removed {
            self.adj.remove_sorted(b.index(), a);
            self.edges -= 1;
        }
        removed
    }

    /// Whether the edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// All neighbors of `n` (live or not — callers filter by liveness when
    /// routing).
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        self.adj.row(n.index())
    }

    /// Neighbors of `n` that are currently live.
    pub fn live_neighbors<'a>(&'a self, n: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.neighbors(n)
            .iter()
            .copied()
            .filter(move |m| self.is_alive(*m))
    }

    /// Degree of `n` counting all incident edges.
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// Marks `n` as departed and removes all its incident edges, returning
    /// the former neighbor list. Its id remains valid, and its row keeps
    /// its room for the edges a rejoin wires. Departing a node that is
    /// already down changes nothing.
    pub fn depart(&mut self, n: NodeId) -> Vec<NodeId> {
        self.alive.set(n.index(), false);
        let former = self.neighbors(n).to_vec();
        self.adj.truncate(n.index(), 0);
        for &m in &former {
            self.adj.remove_sorted(m.index(), n);
        }
        self.edges -= former.len();
        former
    }

    /// Marks `n` as live again (the caller wires its new edges).
    /// Rejoining a live node changes nothing.
    pub fn rejoin(&mut self, n: NodeId) {
        self.alive.set(n.index(), true);
    }

    /// Degree histogram over live nodes: `result[d]` = number of live
    /// nodes with degree `d`.
    pub fn degree_distribution(&self) -> Vec<usize> {
        let max_deg = self.live_nodes().map(|n| self.degree(n)).max().unwrap_or(0);
        let mut hist = vec![0usize; max_deg + 1];
        for n in self.live_nodes() {
            hist[self.degree(n)] += 1;
        }
        hist
    }

    /// Mean degree over live nodes.
    pub fn mean_degree(&self) -> f64 {
        let live = self.live_count();
        if live == 0 {
            return 0.0;
        }
        let total: usize = self.live_nodes().map(|n| self.degree(n)).sum();
        total as f64 / live as f64
    }

    /// Validates internal invariants (symmetry, sortedness, no self loops,
    /// edge count, live counter and rank tree). Used by tests and debug
    /// assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.alive.len() != self.adj.len() {
            return Err("liveness and adjacency cover different id ranges".into());
        }
        self.alive.check()?;
        let mut counted = 0usize;
        for n in self.nodes() {
            let adj = self.neighbors(n);
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("adjacency of {n} not sorted/deduped"));
            }
            for &m in adj {
                if m == n {
                    return Err(format!("self loop at {n}"));
                }
                if !self.has_edge(m, n) {
                    return Err(format!("asymmetric edge {n}-{m}"));
                }
            }
            counted += adj.len();
        }
        if counted != self.edges * 2 {
            return Err(format!(
                "edge count mismatch: counted {} half-edges, recorded {} edges",
                counted, self.edges
            ));
        }
        Ok(())
    }
}

/// Test input for the seeded property loops: `n` nodes and `draws`
/// random endpoint pairs, self loops and repeats dropped.
#[cfg(test)]
pub(crate) fn random_graph(n: usize, draws: usize, rng: &mut arq_simkern::Rng64) -> Graph {
    let mut g = Graph::new(n);
    for _ in 0..draws {
        g.add_edge(NodeId(rng.index(n) as u32), NodeId(rng.index(n) as u32));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_simkern::Rng64;

    #[test]
    fn add_and_remove_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert!(g.add_edge(NodeId(1), NodeId(2)));
        assert!(!g.add_edge(NodeId(0), NodeId(1)), "duplicate edge accepted");
        assert!(!g.add_edge(NodeId(2), NodeId(2)), "self loop accepted");
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let mut g = Graph::new(5);
        g.add_edge(NodeId(2), NodeId(4));
        g.add_edge(NodeId(2), NodeId(0));
        g.add_edge(NodeId(2), NodeId(3));
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(3), NodeId(4)]);
        assert_eq!(g.degree(NodeId(2)), 3);
        assert_eq!(g.neighbors(NodeId(4)), &[NodeId(2)]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn depart_and_rejoin() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        let former = g.depart(NodeId(0));
        assert_eq!(former, vec![NodeId(1), NodeId(2)]);
        assert!(!g.is_alive(NodeId(0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.live_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 0);
        g.check_invariants().unwrap();

        g.rejoin(NodeId(0));
        assert!(g.is_alive(NodeId(0)));
        g.add_edge(NodeId(0), NodeId(3));
        assert_eq!(g.live_count(), 4);
        g.check_invariants().unwrap();
    }

    #[test]
    fn departing_twice_and_rejoining_a_live_node_change_nothing() {
        let mut g = Graph::new(130);
        g.add_edge(NodeId(0), NodeId(64));
        g.depart(NodeId(64));
        // A crash can hit a node that churn already took offline.
        assert!(g.depart(NodeId(64)).is_empty());
        assert_eq!(g.live_count(), 129);
        assert_eq!(g.select_live(64), Some(NodeId(65)));
        g.check_invariants().unwrap();

        g.rejoin(NodeId(64));
        g.rejoin(NodeId(64));
        g.rejoin(NodeId(3)); // never left
        assert_eq!(g.live_count(), 130);
        assert_eq!(g.select_live(64), Some(NodeId(64)));
        assert_eq!(g.select_live(130), None);
        g.check_invariants().unwrap();
    }

    #[test]
    fn live_neighbors_filter_departed() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.depart(NodeId(1));
        // Departed node's edges are removed entirely.
        let live: Vec<NodeId> = g.live_neighbors(NodeId(0)).collect();
        assert_eq!(live, vec![NodeId(2)]);
    }

    #[test]
    fn add_node_extends_id_space() {
        let mut g = Graph::new(1);
        let n = g.add_node();
        assert_eq!(n, NodeId(1));
        assert_eq!(g.len(), 2);
        g.add_edge(NodeId(0), n);
        g.check_invariants().unwrap();
    }

    #[test]
    fn degree_stats() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(0), NodeId(3));
        let hist = g.degree_distribution();
        assert_eq!(hist, vec![0, 3, 0, 1]);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.degree_distribution(), vec![0]);
        g.check_invariants().unwrap();
    }

    /// Random edge insertions and removals never break an invariant.
    #[test]
    fn graph_invariants_under_random_ops() {
        let mut rng = Rng64::seed_from(0x6A1);
        for _ in 0..64 {
            let n = 2 + rng.index(38);
            let mut g = Graph::new(n);
            for _ in 0..rng.index(200) {
                let a = NodeId(rng.index(n) as u32);
                let b = NodeId(rng.index(n) as u32);
                if rng.chance(0.5) {
                    g.add_edge(a, b);
                } else {
                    g.remove_edge(a, b);
                }
            }
            g.check_invariants().unwrap();
        }
    }

    /// Seeded `add_edge` / `remove_edge` / `depart` / `rejoin` /
    /// `add_node` sequences against a `Vec<Vec<NodeId>>` model, starting
    /// from a laid-out graph; every query is compared after every step.
    /// Rows move to the arena's tail and the arena compacts along the
    /// way.
    #[test]
    fn graph_equals_a_vec_of_vecs_model_under_random_ops() {
        let (mut moved, mut compacted) = (0, 0);
        let mut rng = Rng64::seed_from(0x6A3);
        for _ in 0..48 {
            let n = 2 + rng.index(30);
            let edges: Vec<(NodeId, NodeId)> = (0..rng.index(3 * n))
                .map(|_| (NodeId(rng.index(n) as u32), NodeId(rng.index(n) as u32)))
                .collect();
            let mut g = Graph::from_edges(n, edges.iter().copied());
            let mut model: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            let mut alive = vec![true; n];
            let link = |model: &mut Vec<Vec<NodeId>>, a: NodeId, b: NodeId| {
                if a == b || model[a.index()].contains(&b) {
                    return false;
                }
                model[a.index()].push(b);
                model[b.index()].push(a);
                model[a.index()].sort_unstable();
                model[b.index()].sort_unstable();
                true
            };
            for &(a, b) in &edges {
                link(&mut model, a, b);
            }
            for _ in 0..rng.index(300) {
                let dead = g.adj.dead();
                let len = model.len();
                let (a, b) = (NodeId(rng.index(len) as u32), NodeId(rng.index(len) as u32));
                match rng.index(10) {
                    0..=4 => assert_eq!(g.add_edge(a, b), link(&mut model, a, b)),
                    5 | 6 => {
                        let had = model[a.index()].contains(&b);
                        model[a.index()].retain(|&m| m != b);
                        model[b.index()].retain(|&m| m != a);
                        assert_eq!(g.remove_edge(a, b), had);
                    }
                    7 => {
                        let former = std::mem::take(&mut model[a.index()]);
                        for m in &former {
                            model[m.index()].retain(|&x| x != a);
                        }
                        alive[a.index()] = false;
                        assert_eq!(g.depart(a), former);
                    }
                    8 => {
                        alive[a.index()] = true;
                        g.rejoin(a);
                    }
                    _ => {
                        assert_eq!(g.add_node(), NodeId(len as u32));
                        model.push(Vec::new());
                        alive.push(true);
                    }
                }
                moved += usize::from(g.adj.dead() > dead);
                compacted += usize::from(g.adj.dead() < dead);
                g.check_invariants().unwrap();
                assert_eq!(g.len(), model.len());
                let half: usize = model.iter().map(Vec::len).sum();
                assert_eq!(g.edge_count() * 2, half);
                assert_eq!(g.live_count(), alive.iter().filter(|&&x| x).count());
                for (i, row) in model.iter().enumerate() {
                    let v = NodeId(i as u32);
                    assert_eq!(g.neighbors(v), &row[..], "{v}");
                    assert_eq!(g.degree(v), row.len());
                    assert_eq!(g.is_alive(v), alive[i]);
                    let m = NodeId(rng.index(model.len()) as u32);
                    assert_eq!(g.has_edge(v, m), row.contains(&m));
                }
            }
        }
        assert!(moved > 100, "rows moved {moved} times");
        assert!(compacted > 0, "the arena never compacted");
    }

    /// Departing removes exactly the node's edges; rejoining restores
    /// liveness with no edges until the caller rewires it.
    #[test]
    fn depart_rejoin_cycle() {
        let mut rng = Rng64::seed_from(0x6A2);
        for _ in 0..64 {
            let n = 2 + rng.index(28);
            let mut g = random_graph(n, rng.index(100), &mut rng);
            let v = NodeId(rng.index(n) as u32);
            let edges = g.edge_count();
            let removed = g.depart(v);
            assert_eq!(g.edge_count(), edges - removed.len());
            assert!(!g.is_alive(v));
            assert_eq!(g.live_count(), n - 1);
            g.rejoin(v);
            assert!(g.is_alive(v));
            assert_eq!(g.degree(v), 0);
            g.check_invariants().unwrap();
        }
    }
}
