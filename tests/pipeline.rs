//! End-to-end pipeline: live overlay simulation with a collector node →
//! raw trace → GUID cleaning → query/reply join → rule mining →
//! strategy evaluation. This is the paper's whole methodology in one
//! test.

use arq::assoc::{mine_pairs, ruleset_test};
use arq::content::CatalogConfig;
use arq::core::engine::make_strategy;
use arq::core::evaluate;
use arq::gnutella::sim::{Network, SimConfig};
use arq::gnutella::FloodPolicy;
use arq::overlay::NodeId;
use arq::trace::stats::pair_stats;

fn collecting_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_with(120, 4_000, seed);
    cfg.collector = Some(NodeId(0)); // BA seed-clique member: high degree
    cfg.catalog = CatalogConfig {
        topics: 8,
        files_per_topic: 60,
        ..Default::default()
    };
    cfg.workload.files_per_node = 40;
    cfg.faulty_fraction = 0.05;
    cfg
}

#[test]
fn simulate_collect_clean_join_mine_evaluate() {
    let result = Network::new(collecting_cfg(1), FloodPolicy).run();
    assert!(
        result.metrics.success_rate > 0.9,
        "flooding should find content"
    );

    // The collector recorded real traffic.
    let mut db = result.trace.expect("collector attached");
    assert!(
        db.query_count() > 3_000,
        "only {} queries seen",
        db.query_count()
    );
    assert!(
        db.reply_count() > 200,
        "only {} replies seen",
        db.reply_count()
    );

    // Clean + join, as §IV-A requires.
    let (report, pairs) = db.clean_and_join();
    assert!(
        report.duplicate_queries > 0,
        "faulty clients should have produced duplicate GUIDs"
    );
    assert!(
        pairs.len() > 200,
        "join produced only {} pairs",
        pairs.len()
    );

    // Pair stream has the locality the rules need.
    let stats = pair_stats(&pairs);
    assert!(
        stats.distinct_src < 40,
        "sources should be the collector's neighbors"
    );
    // Locality indicator: the busiest (src, via) pair carries far more
    // than the uniform share (1 / distinct_pairs).
    let uniform = 1.0 / stats.distinct_pairs as f64;
    assert!(
        stats.top_pair_share > 4.0 * uniform,
        "no locality: top share {} vs uniform {uniform}",
        stats.top_pair_share
    );

    // Rules mined from the first half must route the second half better
    // than chance.
    let mid = pairs.len() / 2;
    let rules = mine_pairs(&pairs[..mid], 3);
    assert!(!rules.is_empty(), "no rules survived support pruning");
    let m = ruleset_test(&rules, &pairs[mid..]);
    assert!(m.coverage() > 0.5, "coverage {}", m.coverage());
    assert!(m.success() > 0.3, "success {}", m.success());

    // And the full evaluator runs over it.
    let block = (pairs.len() / 6).max(1);
    let run = evaluate(
        make_strategy("sliding(s=2)").unwrap().as_mut(),
        &pairs,
        block,
    );
    assert!(run.trials >= 4);
    assert!(run.avg_coverage > 0.4, "avg coverage {}", run.avg_coverage);
}

#[test]
fn collector_trace_records_only_neighbor_traffic() {
    let result = Network::new(collecting_cfg(2), FloodPolicy).run();
    let mut db = result.trace.unwrap();
    let (_, pairs) = db.clean_and_join();
    for p in &pairs {
        assert_ne!(p.src.0, 0, "collector cannot be its own query source");
        assert_ne!(p.via.0, 0, "collector cannot be its own reply relay");
    }
}
