//! Hand-rolled property tests for the overlay's live-node rank-select:
//! after any sequence of departures, rejoins and added nodes, the
//! O(log n) answers must equal the id-order scan they replaced, and a
//! join must wire the same peers the materialised candidate list did.
//! Cases come from a seeded [`Rng64`] stream (the workspace builds
//! offline, so no external property-testing crate; `prop.rs` beside
//! this file needs one and is compiled out).

use arq_overlay::churn::rewire_join;
use arq_overlay::{Graph, NodeId};
use arq_simkern::Rng64;

/// A graph of up to 200 nodes after up to 400 random liveness flips and
/// appended nodes; repeated departures and rejoins of the same node are
/// part of the mix.
fn churned_graph(rng: &mut Rng64) -> Graph {
    let mut g = Graph::new(rng.index(200));
    for _ in 0..rng.index(400) {
        if g.is_empty() || rng.chance(0.1) {
            g.add_node();
            continue;
        }
        let n = NodeId(rng.index(g.len()) as u32);
        if rng.chance(0.55) {
            g.depart(n);
        } else {
            g.rejoin(n);
        }
    }
    g
}

#[test]
fn select_live_equals_the_scan_after_random_churn() {
    for case in 0..300u64 {
        let mut rng = Rng64::seed_from(0x5E1EC7 ^ case);
        let g = churned_graph(&mut rng);
        g.check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        let live: Vec<NodeId> = g.live_nodes().collect();
        assert_eq!(g.live_count(), live.len(), "case {case}: live_count");
        for (k, &n) in live.iter().enumerate() {
            assert_eq!(g.select_live(k), Some(n), "case {case}: select_live({k})");
        }
        assert_eq!(g.select_live(live.len()), None, "case {case}: past the end");

        for skip in g.nodes() {
            let others: Vec<NodeId> = live.iter().copied().filter(|&n| n != skip).collect();
            for (k, &n) in others.iter().enumerate() {
                assert_eq!(
                    g.select_live_except(skip, k),
                    Some(n),
                    "case {case}: select_live_except({skip}, {k})"
                );
            }
            assert_eq!(
                g.select_live_except(skip, others.len()),
                None,
                "case {case}: select_live_except({skip}) past the end"
            );
        }
    }
}

/// `rewire_join` as it was before rank-select: index into the
/// materialised candidate list.
fn rewire_join_by_scan(
    g: &mut Graph,
    node: NodeId,
    target_degree: usize,
    rng: &mut Rng64,
) -> Vec<NodeId> {
    let candidates: Vec<NodeId> = g.live_nodes().filter(|&m| m != node).collect();
    let k = target_degree.min(candidates.len());
    let mut chosen = Vec::new();
    for idx in rng.sample_indices(candidates.len(), k) {
        if g.add_edge(node, candidates[idx]) {
            chosen.push(candidates[idx]);
        }
    }
    chosen
}

#[test]
fn rewire_join_picks_the_peers_the_candidate_list_did() {
    for case in 0..300u64 {
        let mut rng = Rng64::seed_from(0x10_1E ^ case);
        let mut g = churned_graph(&mut rng);
        if g.is_empty() {
            continue;
        }
        let node = NodeId(rng.index(g.len()) as u32);
        g.rejoin(node);
        let degree = rng.index(6);
        let seed = rng.next_u64();

        let mut scanned = g.clone();
        let mut scan_rng = Rng64::seed_from(seed);
        let expect = rewire_join_by_scan(&mut scanned, node, degree, &mut scan_rng);

        let mut join_rng = Rng64::seed_from(seed);
        let got = rewire_join(&mut g, node, degree, &mut join_rng);
        assert_eq!(got, expect, "case {case}: peers");
        assert_eq!(
            join_rng.next_u64(),
            scan_rng.next_u64(),
            "case {case}: draws consumed"
        );
        g.check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
