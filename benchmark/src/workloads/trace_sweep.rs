//! `trace-sweep` — the paper's own experiment as a sweep user runs it:
//! `sweep::expand` (set-up, includes trace synthesis) then
//! `sweep::run_sweep(threads = 1)` into a scratch directory (measured).

use super::Workload;
use crate::harness::{unit_loop, Ctx, Layers, Loop, Unit};
use crate::metrics::Family;
use arq::assoc::{DecayedPairCounts, PairMiner};
use arq::core::engine::{execute_with_threads, make_strategy, run_one_with_threads, RunSpec};
use arq::core::sweep::{self, artifact_content_digest, SweepJob, SweepOutcome, SweepPlan, Value};
use arq::core::{evaluate, RunArtifact};
use arq::simkern::rng::fnv1a;
use arq::simkern::{Journal, Json, StreamFactory, ToJson};
use arq::trace::columns::PairColumns;
use arq::trace::{SynthConfig, SynthTrace};
use std::hint::black_box;

pub struct TraceSweep;

const PLAN_PATH: &str = "benchmark/plans/trace-sweep.toml";
const PLAN: &str = include_str!("../../plans/trace-sweep.toml");

/// Block size and support of the isolated probes (the paper's values).
const PROBE_BLOCK: usize = 10_000;
const PROBE_SUPPORT: u64 = 10;

/// Jobs compared against a direct run in an end-to-end run; the traced
/// run compares all of them.
const CHECKED_JOBS: usize = 3;

const STRATEGIES: [(&str, &str); 6] = [
    ("core.evaluate_pairs_per_s.static", "static(s=10)"),
    ("core.evaluate_pairs_per_s.sliding", "sliding(s=10)"),
    ("core.evaluate_pairs_per_s.lazy", "lazy(s=10)"),
    ("core.evaluate_pairs_per_s.adaptive", "adaptive(s=10)"),
    ("core.evaluate_pairs_per_s.incremental", "incremental(t=10)"),
    ("core.evaluate_pairs_per_s.lossy", "lossy(t=10)"),
];

/// The checked-in plan with this run's seed and its counts (pairs and
/// block sizes) at this run's scale, and its pair count per job.
fn plan(ctx: &Ctx) -> (SweepPlan, usize) {
    let mut plan = SweepPlan::parse(PLAN, PLAN_PATH).expect("the checked-in plan parses");
    plan.seed = ctx.seed;
    let scaled = |v: &Value| ctx.scale.n(v.as_num().expect("a count") as usize);
    let pairs = plan.base.iter().find(|(k, _)| k == "pairs");
    let pairs = scaled(&pairs.expect("the plan sets `pairs`").1);
    plan.set_base("pairs", pairs)
        .expect("`pairs` is a plan key");
    let blocks = plan.axes.iter().find(|a| a.key_string() == "block");
    let blocks = blocks.expect("the plan has a `block` axis").values.iter();
    let blocks = blocks.map(|point| vec![Value::from(scaled(&point[0]))]);
    plan.set_axis_values("block", blocks.collect())
        .expect("`block` is an axis");
    (plan, pairs)
}

/// How many of `jobs` have a report row whose artifact digest differs
/// from the directly run `artifacts` (parallel to `jobs`).
fn mismatched(report: &Json, jobs: &[&SweepJob], artifacts: &[RunArtifact]) -> u64 {
    let rows = report.get("rows").and_then(Json::as_array).unwrap_or(&[]);
    jobs.iter()
        .zip(artifacts)
        .filter(|(job, artifact)| {
            let want = format!("{:016x}", artifact_content_digest(artifact));
            let got = rows
                .get(job.index)
                .and_then(|row| row.get("artifact_digest"))
                .and_then(Json::as_str);
            got != Some(want.as_str())
        })
        .count() as u64
}

impl Workload for TraceSweep {
    fn name(&self) -> &'static str {
        "trace-sweep"
    }

    fn family(&self) -> Family {
        Family::Trace
    }

    fn why(&self) -> &'static str {
        "the paper's experiment as a sweep user runs it: 6 strategies x 3 block sizes over one \
         shared trace; trace/assoc/core do all the work, gnutella and serve none; op = pair evaluated"
    }

    fn run(&self, ctx: &mut Ctx, seconds: f64) -> Loop {
        let (plan, pairs) = plan(ctx);
        let out_dir = ctx.tmp.join("sweep");
        let seed = ctx.seed;
        let (looped, _) = unit_loop(
            &mut ctx.tracer,
            seconds,
            |_| sweep::expand(&plan).expect("the plan expands"),
            |_, jobs| {
                let outcome = sweep::run_sweep(&plan, &jobs, &out_dir, false, 0, 1)
                    .expect("the sweep runs to completion");
                (jobs, outcome)
            },
            |tracer, (jobs, outcome): &(Vec<SweepJob>, SweepOutcome), first| {
                let report = std::fs::read(&outcome.report_path).unwrap_or_default();
                let mut failed_jobs = (jobs.len() - outcome.jobs_run) as u64;
                if first {
                    // The reference comparison: a seeded sample of jobs,
                    // each run directly.
                    let picks = StreamFactory::new(seed)
                        .stream("checked-jobs")
                        .sample_indices(jobs.len(), CHECKED_JOBS.min(jobs.len()));
                    let sample: Vec<&SweepJob> = picks.iter().map(|&i| &jobs[i]).collect();
                    let (artifacts, _) = tracer.time("check.direct", |_| {
                        sample
                            .iter()
                            .map(|job| {
                                run_one_with_threads(job.index, &job.spec, 1)
                                    .expect("a validated spec runs")
                            })
                            .collect::<Vec<_>>()
                    });
                    failed_jobs += mismatched(&outcome.report, &sample, &artifacts);
                }
                Unit {
                    ops: (jobs.len() * pairs) as u64,
                    failed: failed_jobs * pairs as u64,
                    fingerprint: fnv1a(&report),
                }
            },
        );
        looped
    }

    fn layers(&self, ctx: &mut Ctx, seconds: f64) -> Layers {
        let mut layers = Layers::default();
        ctx.tracer.set_enabled(false);
        let untraced = self.run(ctx, seconds / 2.0);
        ctx.tracer.set_enabled(true);
        let traced = self.run(ctx, seconds / 2.0);
        let (plan, pairs) = plan(ctx);
        let block = ctx.scale.n(PROBE_BLOCK);
        let t = &mut ctx.tracer;

        // trace: synthesis and the columnar block store.
        let (trace, secs) = t.time("trace.synth", |_| {
            SynthTrace::new(SynthConfig::paper_default(pairs, plan.seed)).pairs()
        });
        layers.set("trace.synth_pairs_per_s", pairs as f64 / secs);
        let (_, secs) = t.time("trace.columns", |_| {
            let mut columns = PairColumns::new();
            for block in trace.chunks(block) {
                columns.fill(block);
                black_box(columns.len());
            }
        });
        layers.set("trace.columns_pairs_per_s", pairs as f64 / secs);

        // assoc: batch mining per block, and the streaming maintainer.
        let (_, secs) = t.time("assoc.mine", |_| {
            let mut miner = PairMiner::new();
            for block in trace.chunks(block) {
                black_box(miner.mine(block, PROBE_SUPPORT));
            }
        });
        layers.set("assoc.mine_pairs_per_s", pairs as f64 / secs);
        let (_, secs) = t.time("assoc.incremental_observe", |_| {
            let mut counts = DecayedPairCounts::new(20_000.0);
            for pair in &trace {
                counts.observe_pair(pair);
            }
            black_box(counts.len());
        });
        layers.set("assoc.incremental_observe_per_s", pairs as f64 / secs);

        // core: each strategy evaluated directly, no engine around it.
        for (metric, spec) in STRATEGIES {
            let mut strategy = make_strategy(spec).expect("a registered strategy");
            let (run, secs) = t.time("core.evaluate", |_| {
                evaluate(strategy.as_mut(), &trace, block)
            });
            black_box(run);
            layers.set(metric, pairs as f64 / secs);
        }

        // core::sweep against the engine it orchestrates: every job run
        // directly, which is also the full output check.
        let jobs = sweep::expand(&plan).expect("the plan expands");
        let shared = match &jobs[0].spec {
            RunSpec::TraceEval { trace, .. } => trace.materialize(),
            RunSpec::LiveSim { .. } => unreachable!("a trace-eval plan"),
        };
        layers.expect(
            "synthesis repeats the sweep's shared trace",
            *shared == trace,
        );
        let mut direct_s = 0.0;
        let artifacts: Vec<RunArtifact> = jobs
            .iter()
            .map(|job| {
                let (artifact, secs) = t.time("core.run_one", |_| {
                    run_one_with_threads(job.index, &job.spec, 1).expect("a validated spec runs")
                });
                direct_s += secs;
                artifact
            })
            .collect();
        let out_dir = ctx.tmp.join("sweep");
        let report = std::fs::read_to_string(out_dir.join("report.json")).unwrap_or_default();
        let report = arq::simkern::json::parse(&report).unwrap_or(Json::Null);
        let all: Vec<&SweepJob> = jobs.iter().collect();
        layers.expect(
            "every sweep job's artifact digest equals a direct run's",
            mismatched(&report, &all, &artifacts) == 0,
        );
        layers.set(
            "core.sweep.overhead_ratio",
            untraced.unit_median_s() / direct_s,
        );

        // The journal's share of a job: re-append the run's own records.
        let records = Journal::read_lines(out_dir.join("journal.jsonl")).unwrap_or_default();
        let (appended, secs) = t.time("simkern.journal", |_| {
            let mut journal = Journal::create(ctx.tmp.join("journal-probe.jsonl"))?;
            records.iter().try_for_each(|r| journal.append(r))
        });
        layers.expect("the journal probe appends", appended.is_ok());
        layers.set(
            "core.sweep.journal_ms_per_job",
            secs * 1e3 / jobs.len() as f64,
        );

        // The executor at two workers against one: the number a later
        // parallel claim must move.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let specs: Vec<RunSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
        let (one, one_s) = t.time("core.executor.1t", |_| execute_with_threads(&specs, 1));
        let (two, two_s) = t.time("core.executor.2t", |_| execute_with_threads(&specs, 2));
        let json = |r: Result<Vec<RunArtifact>, _>| r.map(|a| a.to_json().to_string()).ok();
        layers.expect(
            "artifacts are byte-identical at 1 and 2 workers",
            json(one) == json(two),
        );
        layers.set("core.executor.speedup_2t", one_s / two_s);
        layers.note("core.executor.oversubscribed", cores < 2);

        layers.close(&untraced, &traced);
        layers
    }
}
