//! Tuning the Adaptive Sliding Window: threshold history length and
//! initial threshold — the trade-off between rule-set freshness and
//! regeneration cost (§III-B.6).
//!
//! ```text
//! cargo run --release -p arq --example adaptive_tuning
//! ```

use arq::core::engine::make_strategy;
use arq::core::evaluate;
use arq::trace::{SynthConfig, SynthTrace};

fn main() {
    let pairs = SynthTrace::new(SynthConfig::paper_default(600_000, 11)).pairs();
    let block = 10_000;

    println!(
        "{:<34} {:>9} {:>9} {:>12}",
        "configuration", "coverage", "success", "blocks/regen"
    );

    // Sliding Window regenerates every block: the reference point. Then
    // a history-length sweep with the paper's 0.7 starting threshold,
    // and an initial-threshold sweep: a greedy 0.9 start regenerates
    // more, a lax 0.5 start tolerates decay longer.
    let histories = [5, 10, 25, 50, 100].map(|h| format!("adaptive(s=10,h={h},i=0.7)"));
    let initials = [0.5, 0.7, 0.9].map(|i| format!("adaptive(s=10,h=10,i={i})"));
    let specs = std::iter::once("sliding(s=10)".to_string())
        .chain(histories)
        .chain(initials);
    for spec in specs {
        let mut strategy = make_strategy(&spec).expect("a registered strategy");
        let run = evaluate(strategy.as_mut(), &pairs, block);
        println!(
            "{:<34} {:>9.3} {:>9.3} {:>12.2}",
            run.strategy,
            run.avg_coverage,
            run.avg_success,
            run.blocks_per_regen().unwrap_or(f64::INFINITY)
        );
    }
}
