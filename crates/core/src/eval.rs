//! Trace-driven evaluation driver.
//!
//! Replays a pair stream in blocks through a [`Strategy`] — the
//! equivalent of the paper's PHP simulator over its MySQL trace — and
//! collects the per-trial coverage/success series plus run summaries.
//! This is the function behind every row in `EXPERIMENTS.md`'s E1–E6.

use crate::strategy::Strategy;
pub use crate::strategy::Trial;
use arq_obs::{Event, Obs};
use arq_simkern::time::Duration;
use arq_simkern::TimeSeries;
use arq_trace::record::PairRecord;
use arq_trace::{Blocks, TimeBlocks};

/// The results of replaying one strategy over one trace.
#[derive(Debug, Clone)]
pub struct EvalRun {
    /// Strategy label.
    pub strategy: String,
    /// Block size used.
    pub block_size: usize,
    /// Number of test trials (blocks after the warm-up block).
    pub trials: usize,
    /// Coverage per trial.
    pub coverage: TimeSeries,
    /// Success per trial.
    pub success: TimeSeries,
    /// Rule-set size per trial.
    pub rule_counts: Vec<usize>,
    /// Mean coverage over all trials.
    pub avg_coverage: f64,
    /// Mean success over all trials.
    pub avg_success: f64,
    /// Rule-set regenerations performed (excluding warm-up).
    pub regenerations: usize,
}

impl EvalRun {
    /// Trials per regeneration (the paper's "new rule sets were generated
    /// every 1.7 blocks"). `None` when the strategy never regenerated.
    pub fn blocks_per_regen(&self) -> Option<f64> {
        (self.regenerations > 0).then(|| self.trials as f64 / self.regenerations as f64)
    }
}

impl arq_simkern::ToJson for EvalRun {
    fn to_json(&self) -> arq_simkern::Json {
        use arq_simkern::Json;
        Json::obj([
            ("strategy", Json::from(&self.strategy)),
            ("block_size", Json::from(self.block_size)),
            ("trials", Json::from(self.trials)),
            ("coverage", Json::from(self.coverage.ys())),
            ("success", Json::from(self.success.ys())),
            (
                "rule_counts",
                Json::Arr(self.rule_counts.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("avg_coverage", Json::from(self.avg_coverage)),
            ("avg_success", Json::from(self.avg_success)),
            ("regenerations", Json::from(self.regenerations)),
        ])
    }
}

/// Replays `pairs` through `strategy` in blocks of `block_size`.
///
/// Block 0 is the warm-up (it trains the initial rule set and produces no
/// trial); blocks 1.. are test trials.
///
/// # Panics
///
/// Panics if the trace holds fewer than two complete blocks — there would
/// be nothing to test.
pub fn evaluate<S: Strategy + ?Sized>(
    strategy: &mut S,
    pairs: &[PairRecord],
    block_size: usize,
) -> EvalRun {
    evaluate_with_obs(strategy, pairs, block_size, &mut Obs::disabled())
}

/// [`evaluate`] with an observability recorder attached. Each trial
/// emits a block boundary, the RULESET-TEST tallies (which also feed the
/// per-block α/ρ/traffic series), and — when the strategy rebuilt its
/// rule set — a re-mine event. A disabled recorder makes this identical
/// to [`evaluate`], closure construction included.
pub fn evaluate_with_obs<S: Strategy + ?Sized>(
    strategy: &mut S,
    pairs: &[PairRecord],
    block_size: usize,
    obs: &mut Obs,
) -> EvalRun {
    let blocks = Blocks::new(pairs, block_size);
    assert!(
        blocks.len() >= 2,
        "need at least 2 complete blocks, trace has {}",
        blocks.len()
    );
    strategy.warm_up(blocks.get(0));
    let mut coverage = TimeSeries::new("coverage");
    let mut success = TimeSeries::new("success");
    let mut rule_counts = Vec::with_capacity(blocks.len() - 1);
    let mut regenerations = 0usize;
    for i in 1..blocks.len() {
        let block = blocks.get(i);
        obs.record(|| Event::BlockStart {
            block: i,
            pairs: block.len(),
        });
        let trial = strategy.test_and_update(block);
        obs.record(|| Event::RuleTally {
            block: i,
            total: trial.measures.total,
            covered: trial.measures.covered,
            successes: trial.measures.successes,
        });
        coverage.push(i as f64, trial.measures.coverage());
        success.push(i as f64, trial.measures.success());
        rule_counts.push(trial.rule_count);
        if trial.regenerated {
            obs.record(|| Event::ReMine {
                block: i,
                rules_before: trial.rule_count,
                rules_after: trial.rules_after,
            });
            regenerations += 1;
        }
    }
    EvalRun {
        strategy: strategy.name(),
        block_size,
        trials: blocks.len() - 1,
        avg_coverage: coverage.mean(),
        avg_success: success.mean(),
        coverage,
        success,
        rule_counts,
        regenerations,
    }
}

/// Replays `pairs` through `strategy` in fixed *time windows* instead of
/// fixed pair counts — the paper's §III-B.3 framing ("messages seen
/// within a fixed amount of time"). Window 0 is the warm-up; empty
/// windows still count as trials (an idle network neither covers nor
/// answers anything, and the zero measurements feed adaptive
/// thresholds), except that an empty warm-up is skipped until traffic
/// appears.
///
/// `block_size` in the returned run is the *mean* pairs per window.
///
/// # Panics
///
/// Panics if the trace spans fewer than two windows.
pub fn evaluate_timed<S: Strategy + ?Sized>(
    strategy: &mut S,
    pairs: &[PairRecord],
    window: Duration,
) -> EvalRun {
    let blocks = TimeBlocks::new(pairs, window);
    assert!(
        blocks.len() >= 2,
        "need at least 2 time windows, trace spans {}",
        blocks.len()
    );
    strategy.warm_up(blocks.get(0));
    let mut coverage = TimeSeries::new("coverage");
    let mut success = TimeSeries::new("success");
    let mut rule_counts = Vec::with_capacity(blocks.len() - 1);
    let mut regenerations = 0usize;
    for i in 1..blocks.len() {
        let trial = strategy.test_and_update(blocks.get(i));
        coverage.push(i as f64, trial.measures.coverage());
        success.push(i as f64, trial.measures.success());
        rule_counts.push(trial.rule_count);
        if trial.regenerated {
            regenerations += 1;
        }
    }
    EvalRun {
        strategy: strategy.name(),
        block_size: pairs.len() / blocks.len().max(1),
        trials: blocks.len() - 1,
        avg_coverage: coverage.mean(),
        avg_success: success.mean(),
        coverage,
        success,
        rule_counts,
        regenerations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{SlidingWindow, StaticRuleset};
    use arq_simkern::SimTime;
    use arq_trace::record::{Guid, HostId, QueryId};

    /// A trace whose routes flip halfway through.
    fn flipping_trace(blocks: usize, block_size: usize) -> Vec<PairRecord> {
        (0..blocks * block_size)
            .map(|i| {
                let src = (i % 5) as u32;
                let phase = if i < blocks * block_size / 2 {
                    100
                } else {
                    200
                };
                PairRecord {
                    time: SimTime::from_ticks(i as u64),
                    guid: Guid(i as u128),
                    src: HostId(src),
                    via: HostId(phase + src),
                    responder: HostId(0),
                    query: QueryId(0),
                }
            })
            .collect()
    }

    #[test]
    fn evaluator_shapes_and_counts() {
        let trace = flipping_trace(10, 50);
        let mut s = SlidingWindow::new(2);
        let run = evaluate(&mut s, &trace, 50);
        assert_eq!(run.trials, 9);
        assert_eq!(run.coverage.len(), 9);
        assert_eq!(run.success.len(), 9);
        assert_eq!(run.rule_counts.len(), 9);
        assert_eq!(run.regenerations, 9);
        assert_eq!(run.blocks_per_regen(), Some(1.0));
        assert_eq!(run.block_size, 50);
        assert!(run.strategy.starts_with("sliding"));
    }

    #[test]
    fn sliding_beats_static_on_a_flipping_trace() {
        let trace = flipping_trace(10, 50);
        let sliding = evaluate(&mut SlidingWindow::new(2), &trace, 50);
        let static_ = evaluate(&mut StaticRuleset::new(2), &trace, 50);
        // Static keeps full coverage (sources never change) but loses all
        // success after the flip; sliding loses only the flip trial.
        assert!(sliding.avg_success > static_.avg_success + 0.3);
        assert!((static_.avg_success - 4.0 / 9.0).abs() < 1e-9);
        assert!((sliding.avg_success - 8.0 / 9.0).abs() < 1e-9);
        assert_eq!(static_.regenerations, 0);
        assert!(static_.blocks_per_regen().is_none());
    }

    #[test]
    fn partial_trailing_block_is_ignored() {
        let mut trace = flipping_trace(4, 50);
        trace.truncate(4 * 50 - 7);
        let run = evaluate(&mut SlidingWindow::new(2), &trace, 50);
        assert_eq!(run.trials, 2);
    }

    #[test]
    #[should_panic(expected = "at least 2 complete blocks")]
    fn rejects_short_traces() {
        let trace = flipping_trace(1, 50);
        evaluate(&mut SlidingWindow::new(2), &trace, 60);
    }

    #[test]
    fn timed_evaluation_matches_count_evaluation_on_uniform_arrivals() {
        // With one pair per tick, a 50-tick window is exactly a 50-pair
        // block, so both evaluators must agree trial for trial.
        let trace = flipping_trace(10, 50);
        let by_count = evaluate(&mut SlidingWindow::new(2), &trace, 50);
        let by_time = evaluate_timed(
            &mut SlidingWindow::new(2),
            &trace,
            arq_simkern::time::Duration::from_ticks(50),
        );
        assert_eq!(by_count.trials, by_time.trials);
        assert_eq!(by_count.coverage.ys(), by_time.coverage.ys());
        assert_eq!(by_count.success.ys(), by_time.success.ys());
    }

    #[test]
    fn timed_evaluation_handles_bursty_arrivals() {
        // All pairs in two bursts separated by a long gap: the windows in
        // between are empty trials with zero measures.
        let mut trace = flipping_trace(2, 50); // times 0..99
        for p in &mut trace[50..] {
            p.time = arq_simkern::SimTime::from_ticks(p.time.ticks() + 400);
        }
        // Static rules survive the quiet gap; sliding rules are re-mined
        // from the empty windows and die.
        let run = evaluate_timed(
            &mut StaticRuleset::new(2),
            &trace,
            arq_simkern::time::Duration::from_ticks(100),
        );
        assert!(
            run.trials >= 4,
            "gap windows missing: {} trials",
            run.trials
        );
        // Middle windows are empty -> coverage 0 there.
        assert!(run.coverage.ys().contains(&0.0));
        // The burst window still evaluates normally (sources unchanged).
        assert!(run.coverage.ys().iter().any(|&c| c > 0.9));

        let sliding = evaluate_timed(
            &mut SlidingWindow::new(2),
            &trace,
            arq_simkern::time::Duration::from_ticks(100),
        );
        let last = *sliding.coverage.ys().last().unwrap();
        assert_eq!(
            last, 0.0,
            "sliding rules mined from an empty window must cover nothing"
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 time windows")]
    fn timed_rejects_single_window() {
        let trace = flipping_trace(2, 50);
        evaluate_timed(
            &mut SlidingWindow::new(2),
            &trace,
            arq_simkern::time::Duration::from_ticks(1_000_000),
        );
    }

    /// Every strategy, both streaming maintainers included, scores
    /// measures in [0, 1] on one trial per non-warm-up block, regenerates
    /// at most once per trial, and scores the same twice; on a stationary
    /// stream (one fixed route per source) every one is perfect.
    #[test]
    fn every_strategy_scores_bounded_repeatable_measures() {
        use crate::engine::registry::make_strategy;
        use crate::strategy::testutil::random_stream;
        use crate::threshold::ThresholdCalc;
        use crate::AdaptiveSlidingWindow;
        let strategies = || -> Vec<Box<dyn Strategy + Send>> {
            let mut all: Vec<_> = [
                "static(s=2)",
                "sliding(s=2)",
                "sliding(s=2,c=0.2)",
                "lazy(s=2,p=3)",
                "adaptive(s=2,h=5)",
                "incremental(t=2,hl=100)",
                "lossy(t=2,eps=0.01)",
                "topic-sliding(s=2)",
            ]
            .iter()
            .map(|spec| make_strategy(spec).unwrap())
            .collect();
            all.push(Box::new(AdaptiveSlidingWindow::with_thresholds(
                2,
                ThresholdCalc::ewma(0.3, 0.7),
                ThresholdCalc::ewma(0.3, 0.7),
            )));
            all
        };
        let mut rng = arq_simkern::Rng64::seed_from(0x5EED_0C0E);
        for case in 0..40 {
            let block = 20 + rng.index(40);
            let len = 2 * block + rng.index(340);
            let stream = random_stream(&mut rng, len);
            for (mut a, mut b) in strategies().into_iter().zip(strategies()) {
                let run = evaluate(a.as_mut(), &stream, block);
                assert_eq!(run.trials, stream.len() / block - 1, "{}", run.strategy);
                for (c, s) in run.coverage.ys().iter().zip(run.success.ys()) {
                    assert!((0.0..=1.0).contains(c), "{} coverage {c}", run.strategy);
                    assert!((0.0..=1.0).contains(s), "{} success {s}", run.strategy);
                }
                assert!(run.regenerations <= run.trials, "{}", run.strategy);
                let again = evaluate(b.as_mut(), &stream, block);
                assert_eq!(run.coverage.ys(), again.coverage.ys(), "case {case}");
                assert_eq!(run.success.ys(), again.success.ys(), "case {case}");
                assert_eq!(run.regenerations, again.regenerations, "case {case}");
            }
        }
        for n_src in 1..6u32 {
            let stationary: Vec<PairRecord> = (0..300u32)
                .map(|i| PairRecord {
                    time: SimTime::from_ticks(i.into()),
                    guid: Guid(i.into()),
                    src: HostId(i % n_src),
                    via: HostId(100 + i % n_src),
                    responder: HostId(0),
                    query: QueryId(0),
                })
                .collect();
            for mut s in strategies() {
                let run = evaluate(s.as_mut(), &stationary, 50);
                assert!(run.avg_coverage > 0.999, "{} {n_src}", run.strategy);
                assert!(run.avg_success > 0.999, "{} {n_src}", run.strategy);
            }
        }
    }
}
