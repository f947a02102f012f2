//! Reproduction tolerance bands: on the calibrated synthetic trace the
//! five strategies must land in the paper's quality ordering
//! (static ≪ lazy < adaptive ≤ sliding < incremental) with coverage and
//! success in the right neighborhoods. This is the headline reproduction
//! assertion, run at reduced scale (60 trials instead of 365).

use arq::core::strategy::Strategy;
use arq::core::{
    evaluate, AdaptiveSlidingWindow, EvalRun, LazySlidingWindow, Maintainer, SlidingWindow,
    StaticRuleset,
};
use arq::trace::{SynthConfig, SynthTrace};

const BLOCK: usize = 10_000;
const BLOCKS: usize = 61;

fn run(strategy: &mut dyn Strategy, pairs: &[arq::trace::PairRecord]) -> EvalRun {
    evaluate(strategy, pairs, BLOCK)
}

#[test]
fn paper_quality_ordering_holds() {
    let pairs = SynthTrace::new(SynthConfig::paper_default(BLOCKS * BLOCK, 99)).pairs();
    let sliding = run(&mut SlidingWindow::new(10), &pairs);
    let lazy = run(&mut LazySlidingWindow::new(10, 10), &pairs);
    let adaptive = run(&mut AdaptiveSlidingWindow::new(10, 10, 0.7), &pairs);
    let spec = format!("incremental(t=10,hl={})", 2 * BLOCK);
    let incremental = run(&mut Maintainer::from_spec(&spec).unwrap(), &pairs);

    // Figure 1: sliding window strong on both measures.
    assert!(
        sliding.avg_coverage > 0.80,
        "sliding coverage {}",
        sliding.avg_coverage
    );
    assert!(
        sliding.avg_success > 0.72,
        "sliding success {}",
        sliding.avg_success
    );

    // Figure 3: lazy lands mid-pack (paper: 0.59 both).
    assert!(
        (0.45..0.72).contains(&lazy.avg_coverage),
        "lazy coverage {}",
        lazy.avg_coverage
    );
    assert!(
        (0.45..0.72).contains(&lazy.avg_success),
        "lazy success {}",
        lazy.avg_success
    );

    // Figure 4: adaptive close to sliding at a fraction of the
    // regenerations (paper: every ~1.7 blocks).
    assert!(adaptive.avg_coverage > lazy.avg_coverage);
    assert!(adaptive.avg_success > lazy.avg_success);
    assert!(adaptive.avg_coverage <= sliding.avg_coverage + 0.02);
    let bpr = adaptive
        .blocks_per_regen()
        .expect("adaptive must regenerate");
    assert!(
        (1.3..2.6).contains(&bpr),
        "blocks per regeneration {bpr} (paper 1.7–1.9)"
    );
    assert!(adaptive.regenerations < sliding.regenerations);

    // §VI: the streaming maintainer clears 0.90 on both measures.
    assert!(
        incremental.avg_coverage > 0.90,
        "incremental coverage {}",
        incremental.avg_coverage
    );
    assert!(
        incremental.avg_success > 0.85,
        "incremental success {}",
        incremental.avg_success
    );
    assert!(incremental.avg_success > sliding.avg_success);
}

#[test]
fn static_ruleset_decays_after_upheaval() {
    let pairs = SynthTrace::new(SynthConfig::paper_static(BLOCKS * BLOCK, 99)).pairs();
    let run = run(&mut StaticRuleset::new(10), &pairs);
    // Early trials are strong…
    assert!(
        run.coverage.ys()[0] > 0.75,
        "first trial coverage {}",
        run.coverage.ys()[0]
    );
    assert!(
        run.success.ys()[0] > 0.7,
        "first trial success {}",
        run.success.ys()[0]
    );
    // …then success collapses permanently around the upheaval (paper:
    // "once the success had dropped to almost 0 around the 16th trial, it
    // never rose again").
    let drop = run
        .success
        .final_drop_below(0.05)
        .expect("success never collapsed");
    assert!(
        (10..22).contains(&drop),
        "success collapsed at trial {drop}"
    );
    // Coverage outlives success (paper: "remained around 0.4 for several
    // more trials").
    let tail_cov = run.coverage.tail_mean(20);
    let tail_succ = run.success.tail_mean(20);
    assert!(tail_cov > 0.15, "late coverage {tail_cov}");
    assert!(tail_succ < 0.05, "late success {tail_succ}");
    assert!(run.avg_success < 0.35, "avg success {}", run.avg_success);
}

#[test]
fn block_size_sweep_keeps_coverage_similar() {
    // Figure 2: coverage is nearly unchanged across block sizes.
    let pairs = SynthTrace::new(SynthConfig::paper_default(BLOCKS * BLOCK, 7)).pairs();
    let mut coverages = Vec::new();
    for bs in [5_000usize, 10_000, 20_000] {
        let run = evaluate(&mut SlidingWindow::new(10), &pairs, bs);
        coverages.push(run.avg_coverage);
    }
    let max = coverages.iter().cloned().fold(f64::MIN, f64::max);
    let min = coverages.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.15, "coverage spread too wide: {coverages:?}");
    assert!(min > 0.7, "coverage too low somewhere: {coverages:?}");
}

#[test]
fn support_threshold_sweep_keeps_coverage_similar() {
    let pairs = SynthTrace::new(SynthConfig::paper_default(31 * BLOCK, 13)).pairs();
    let mut coverages = Vec::new();
    for t in [2u64, 10, 30] {
        let run = evaluate(&mut SlidingWindow::new(t), &pairs, BLOCK);
        coverages.push(run.avg_coverage);
    }
    let max = coverages.iter().cloned().fold(f64::MIN, f64::max);
    let min = coverages.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.2, "coverage spread too wide: {coverages:?}");
}
