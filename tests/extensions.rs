//! Integration coverage for the §VI / §II extension features on the
//! calibrated trace and live simulator: topic-dimension rules, the two
//! streaming maintainers, the hybrid pipeline, time-windowed evaluation,
//! and the superpeer network.

use arq::baselines::SuperPeerPolicy;
use arq::content::CatalogConfig;
use arq::core::{
    evaluate, evaluate_timed, AssocPolicyConfig, HybridPolicy, Maintainer, SlidingWindow,
    TopicSlidingWindow,
};
use arq::gnutella::sim::{Network, SimConfig, Topology};
use arq::gnutella::FloodPolicy;
use arq::simkern::time::Duration;
use arq::trace::{SynthConfig, SynthTrace};

const BLOCK: usize = 10_000;

fn trace(blocks: usize, seed: u64) -> Vec<arq::trace::PairRecord> {
    SynthTrace::new(SynthConfig::paper_default(blocks * BLOCK, seed)).pairs()
}

#[test]
fn topic_rules_trade_coverage_for_specificity() {
    let pairs = trace(25, 5);
    let host = evaluate(&mut SlidingWindow::new(30), &pairs, BLOCK);
    let topic = evaluate(&mut TopicSlidingWindow::new(30), &pairs, BLOCK);
    // At a high threshold, splitting support across topics prunes more
    // antecedents (lower coverage) but the surviving rules are
    // route-exact (higher success).
    assert!(
        topic.avg_coverage < host.avg_coverage - 0.03,
        "topic {} vs host {} coverage",
        topic.avg_coverage,
        host.avg_coverage
    );
    assert!(
        topic.avg_success > host.avg_success + 0.03,
        "topic {} vs host {} success",
        topic.avg_success,
        host.avg_success
    );
}

#[test]
fn both_streaming_maintainers_beat_the_paper_bar() {
    let pairs = trace(25, 6);
    let run = |spec: String| evaluate(&mut Maintainer::from_spec(&spec).unwrap(), &pairs, BLOCK);
    let decay = run(format!("incremental(t=10,hl={})", 2 * BLOCK));
    let lossy = run(format!("lossy(t=10,eps={})", 1.0 / (2.0 * BLOCK as f64)));
    for run in [&decay, &lossy] {
        assert!(
            run.avg_coverage > 0.90,
            "{}: coverage {}",
            run.strategy,
            run.avg_coverage
        );
        assert!(
            run.avg_success > 0.85,
            "{}: success {}",
            run.strategy,
            run.avg_success
        );
    }
}

#[test]
fn time_windowed_evaluation_tracks_count_blocks_on_this_trace() {
    // The synthetic trace has near-Poisson arrivals, so a window holding
    // ~one block of pairs should score close to the count-based run.
    let cfg = SynthConfig::paper_default(12 * BLOCK, 7);
    let mean_interarrival = cfg.mean_interarrival;
    let pairs = SynthTrace::new(cfg).pairs();
    let by_count = evaluate(&mut SlidingWindow::new(10), &pairs, BLOCK);
    let by_time = evaluate_timed(
        &mut SlidingWindow::new(10),
        &pairs,
        Duration::from_ticks(mean_interarrival * BLOCK as u64),
    );
    assert!(
        (by_count.avg_coverage - by_time.avg_coverage).abs() < 0.1,
        "coverage {} vs {}",
        by_count.avg_coverage,
        by_time.avg_coverage
    );
    assert!(
        (by_count.avg_success - by_time.avg_success).abs() < 0.1,
        "success {} vs {}",
        by_count.avg_success,
        by_time.avg_success
    );
}

#[test]
fn hybrid_beats_flooding_without_collapsing_success() {
    let mut cfg = SimConfig::default_with(250, 2_000, 9);
    cfg.ttl = 6;
    cfg.catalog = CatalogConfig {
        topics: 12,
        files_per_topic: 120,
        ..Default::default()
    };
    let flood = Network::new(cfg.clone(), FloodPolicy).run().metrics;
    let (result, policy, _) =
        Network::new(cfg, HybridPolicy::new(5, 2, AssocPolicyConfig::default())).run_full();
    let hybrid = result.metrics;
    assert!(
        hybrid.messages_per_query < flood.messages_per_query * 0.5,
        "hybrid {} vs flood {}",
        hybrid.messages_per_query,
        flood.messages_per_query
    );
    assert!(hybrid.bytes_per_query < flood.bytes_per_query * 0.5);
    assert!(hybrid.success_rate > flood.success_rate - 0.35);
    assert!(policy.targeted_fraction() > 0.2);
    assert!(policy.shortcut_decisions() > 0);
    assert!(
        policy.rule_decisions() > 0,
        "rules never rescued a shortcut miss"
    );
}

#[test]
fn superpeer_network_finds_content_with_a_fraction_of_the_traffic() {
    let n_super = 12;
    let mut sp_cfg = SimConfig::default_with(240, 1_500, 11);
    sp_cfg.topology = Topology::SuperPeer {
        n_super,
        super_degree: 4,
    };
    sp_cfg.ttl = 8;
    sp_cfg.catalog = CatalogConfig {
        topics: 12,
        files_per_topic: 120,
        ..Default::default()
    };
    let mut flat_cfg = sp_cfg.clone();
    flat_cfg.topology = Topology::BarabasiAlbert { m: 3 };
    flat_cfg.ttl = 6;

    let flat = Network::new(flat_cfg, FloodPolicy).run().metrics;
    let (result, policy, _) = Network::new(sp_cfg, SuperPeerPolicy::new(n_super)).run_full();
    let sp = result.metrics;
    assert!(
        sp.messages_per_query < flat.messages_per_query * 0.2,
        "superpeer {} vs flat {}",
        sp.messages_per_query,
        flat.messages_per_query
    );
    assert!(
        sp.success_rate > flat.success_rate - 0.05,
        "superpeer success {} vs flat {}",
        sp.success_rate,
        flat.success_rate
    );
    assert!(policy.index_hits() > 0);
}
