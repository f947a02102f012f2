//! Quickstart: mine association rules from P2P query traffic and watch
//! the Sliding Window strategy route queries without flooding.
//!
//! ```text
//! cargo run --release -p arq --example quickstart
//! ```

use arq::core::engine::make_strategy;
use arq::core::evaluate;
use arq::simkern::chart::{render, ChartOptions};
use arq::trace::{SynthConfig, SynthTrace};

fn main() {
    // A week-in-miniature of collector-node traffic: 40 blocks of
    // 10,000 query-reply pairs from the calibrated generator.
    let cfg = SynthConfig::paper_default(400_000, 42);
    println!("generating {} query-reply pairs …", cfg.pairs);
    let pairs = SynthTrace::new(cfg).pairs();

    // The paper's workhorse: re-mine the rule set from the previous
    // block before testing each new block (support threshold 10).
    let mut strategy = make_strategy("sliding(s=10)").expect("a registered strategy");
    let run = evaluate(strategy.as_mut(), &pairs, 10_000);

    println!(
        "\n{} over {} trials:\n  average coverage α = {:.3}\n  average success  ρ = {:.3}\n",
        run.strategy, run.trials, run.avg_coverage, run.avg_success
    );
    println!(
        "{}",
        render(
            "Sliding Window: coverage (*) and success (+) per trial",
            &[&run.coverage, &run.success],
            &ChartOptions {
                y_range: Some((0.0, 1.0)),
                x_label: "trial".into(),
                y_label: "measure".into(),
                ..Default::default()
            },
        )
    );
    println!(
        "With coverage ~{:.0}% and success ~{:.0}%, roughly {:.0}% of answered queries\n\
         would have been routed to the right neighbor by a single rule lookup\n\
         instead of being flooded to every neighbor.",
        run.avg_coverage * 100.0,
        run.avg_success * 100.0,
        run.avg_coverage * run.avg_success * 100.0
    );
}
