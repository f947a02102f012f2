//! One function per experiment (see `DESIGN.md` §4 for the index).
//!
//! Every function is deterministic in `(scale, seed)` and returns an
//! [`ExperimentReport`] holding the measured rows, rendered charts, and
//! the raw series for `results/*.json`.
//!
//! No experiment constructs a `Strategy` or `ForwardingPolicy` — or
//! even a spec list — directly: each one is a thin wrapper over a
//! checked-in sweep plan (`plans/eN.toml`, compiled in via
//! `include_str!`), rescaled to `(scale, seed)` through
//! [`SweepPlan::set_base`], expanded by [`sweep::expand`], and fanned
//! through the engine's deterministic parallel executor
//! ([`arq::core::engine::execute`]). `arq sweep run plans/eN.toml`, the
//! harness, and the tests therefore share one construction path, and
//! the persisted artifact JSON is byte-identical at any worker count
//! (`ARQ_THREADS`). Only E8 (wall-clock cost) and E11 (prebuilt
//! adapted overlays) remain code-driven.
//!
//! The functions are grouped by the world they run in:
//!
//! * [`trace`] — trace-driven evaluation (E1–E6, E9, E12, E14);
//! * [`live`] — live-network simulation (E7, E10, E11, E13, E15, E16,
//!   E17, E18);
//! * [`cost`] — wall-clock cost measurement (E8).

mod cost;
mod live;
mod trace;

pub use cost::e8_rulegen_cost;
pub use live::{
    e10_topk, e11_topology, e13_hybrid, e15_superpeer, e16_degradation, e17_offered_load,
    e18_routing, e7_traffic,
};
pub use trace::{
    e12_topic_rules, e14_stream_maintainers, e1_static, e2_sliding, e3_block_sizes, e3b_thresholds,
    e4_lazy, e5_adaptive, e6_incremental, e9_confidence,
};

use arq::core::engine::{self, RunArtifact, RunSpec};
use arq::core::sweep::{self, PlanKind, SweepJob, SweepPlan};
use arq::gnutella::metrics::RunMetrics;
use arq::simkern::chart::ChartOptions;
use arq::simkern::{Json, ToJson};

/// Structured result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (E1..E15).
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper reports for this experiment.
    pub paper_claim: String,
    /// Measured metric rows.
    pub rows: Vec<(String, String)>,
    /// Rendered ASCII charts.
    pub charts: Vec<String>,
    /// Raw series for JSON persistence — usually the engine's
    /// [`RunArtifact`]s, so `results/*.json` carries full provenance
    /// (seed, spec description, config digest) alongside the numbers.
    pub series: Json,
}

/// Experiment sizing. `full()` matches the paper's 365 trials of
/// 10,000-pair blocks; `quick()` is a CI-sized smoke configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Blocks per trace (incl. the warm-up block).
    pub blocks: usize,
    /// Pairs per block.
    pub block_size: usize,
    /// Live-simulation overlay size.
    pub live_nodes: usize,
    /// Live-simulation query count.
    pub live_queries: usize,
}

impl Scale {
    /// Paper-scale: 366 blocks → 365 trials, 10k-pair blocks.
    pub fn full() -> Self {
        Scale {
            blocks: 366,
            block_size: 10_000,
            live_nodes: 800,
            live_queries: 4_000,
        }
    }

    /// Smoke-scale for CI and development.
    pub fn quick() -> Self {
        Scale {
            blocks: 61,
            block_size: 10_000,
            live_nodes: 250,
            live_queries: 1_200,
        }
    }

    fn pairs(&self) -> usize {
        self.blocks * self.block_size
    }
}

/// Loads a checked-in plan (`plans/*.toml`, compiled in via
/// `include_str!`) and rescales it to `(scale, seed)`. Harness scaling
/// never edits the plan files — it overrides base settings through the
/// same API `arq sweep` users have.
fn plan_at(text: &str, name: &str, scale: Scale, seed: u64) -> SweepPlan {
    let mut plan =
        SweepPlan::parse(text, &format!("plans/{name}.toml")).expect("checked-in plan parses");
    plan.seed = seed;
    plan.set_base("seed", seed).expect("seed is a plan key");
    match plan.kind {
        PlanKind::TraceEval => {
            plan.set_base("pairs", scale.pairs())
                .expect("pairs is a plan key");
            plan.set_base("block", scale.block_size)
                .expect("block is a plan key");
        }
        PlanKind::LiveSim => {
            plan.set_base("nodes", scale.live_nodes)
                .expect("nodes is a plan key");
            plan.set_base("queries", scale.live_queries)
                .expect("queries is a plan key");
        }
    }
    plan
}

/// Expands a scaled plan and fans its jobs across the engine's
/// executor — the single execution path behind every plan-driven
/// experiment. Checked-in plans only use registered names, so failures
/// are programming errors here.
fn run_plan(plan: &SweepPlan) -> (Vec<SweepJob>, Vec<RunArtifact>) {
    let jobs = sweep::expand(plan).expect("checked-in plan expands");
    let specs: Vec<RunSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
    let artifacts = engine::execute(&specs).expect("experiment specs use registered names");
    (jobs, artifacts)
}

/// The artifact of the job assigning exactly these rendered param
/// values — how wrappers keep their historical row order while the grid
/// expands in sorted-axis order instead.
fn by_params<'a>(
    jobs: &[SweepJob],
    artifacts: &'a [RunArtifact],
    want: &[(&str, &str)],
) -> &'a RunArtifact {
    let i = jobs
        .iter()
        .position(|j| want.iter().all(|(k, v)| j.param(k).as_deref() == Some(*v)))
        .unwrap_or_else(|| panic!("no job assigns {want:?}"));
    &artifacts[i]
}

/// All artifacts as a JSON array — the standard `series` payload.
fn artifacts_json(artifacts: &[RunArtifact]) -> Json {
    Json::Arr(artifacts.iter().map(ToJson::to_json).collect())
}

fn chart_opts() -> ChartOptions {
    ChartOptions {
        y_range: Some((0.0, 1.0)),
        x_label: "trial (block #)".into(),
        y_label: "measure".into(),
        ..Default::default()
    }
}

fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

fn metrics_row(m: &RunMetrics, extra: &str) -> (String, String) {
    // Retry/fault lifecycle counters append only when something actually
    // happened, so fault-free experiments keep their historical rows
    // (and `results/` bytes) unchanged.
    let lifecycle = if m.retried + m.expired + m.duplicate_hits + m.lost_messages > 0 {
        format!(
            ", {} retried / {} expired / {} dup / {} lost",
            m.retried, m.expired, m.duplicate_hits, m.lost_messages
        )
    } else {
        String::new()
    };
    (
        m.policy.clone(),
        format!(
            "{:.1} msg/query ({:.1} KiB), success {:.3}, first-hit hops {}{}{}",
            m.messages_per_query,
            m.bytes_per_query / 1024.0,
            m.success_rate,
            m.first_hit_hops
                .as_ref()
                .map_or("n/a".into(), |h| format!("{:.2}", h.mean)),
            lifecycle,
            extra
        ),
    )
}

/// Runs every experiment (or the named subset) at the given scale.
pub fn run_all(scale: Scale, seed: u64, only: Option<&[String]>) -> Vec<ExperimentReport> {
    type ExpFn = fn(Scale, u64) -> ExperimentReport;
    let table: Vec<(&str, ExpFn)> = vec![
        ("e1", e1_static),
        ("e2", e2_sliding),
        ("e3", e3_block_sizes),
        ("e3b", e3b_thresholds),
        ("e4", e4_lazy),
        ("e5", e5_adaptive),
        ("e6", e6_incremental),
        ("e7", e7_traffic),
        ("e8", e8_rulegen_cost),
        ("e9", e9_confidence),
        ("e10", e10_topk),
        ("e11", e11_topology),
        ("e12", e12_topic_rules),
        ("e13", e13_hybrid),
        ("e14", e14_stream_maintainers),
        ("e15", e15_superpeer),
        ("e16", e16_degradation),
        ("e17", e17_offered_load),
        ("e18", e18_routing),
    ];
    table
        .into_iter()
        .filter(|(id, _)| only.is_none_or(|names| names.iter().any(|n| n.eq_ignore_ascii_case(id))))
        .map(|(_, f)| f(scale, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            blocks: 6,
            block_size: 2_000,
            live_nodes: 60,
            live_queries: 150,
        }
    }

    #[test]
    fn e2_smoke() {
        let r = e2_sliding(tiny(), 3);
        assert_eq!(r.id, "E2");
        assert_eq!(r.rows.len(), 3);
        assert!(r.charts[0].contains("Figure 1"));
    }

    #[test]
    fn run_all_filter() {
        let only = vec!["e8".to_string()];
        let reports = run_all(tiny(), 3, Some(&only));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].id, "E8");
    }

    // 3 policies × 3 load levels; the zero-capacity-equals-baseline
    // assertion inside the experiment runs as part of this smoke test.
    #[test]
    fn e17_smoke() {
        let r = e17_offered_load(tiny(), 3);
        assert_eq!(r.id, "E17");
        assert_eq!(r.rows.len(), 9);
        assert!(r.rows[0].0.starts_with("flood interval=2000"));
        assert!(r.rows[0].1.contains("latency p50"));
        assert!(r.rows[0].1.contains("node bytes p95"));
        // The congested sweep must surface real link pressure somewhere.
        assert!(
            r.rows.iter().any(|(_, v)| !v.contains(" 0 buffer-dropped")),
            "no congestive drops anywhere in the sweep: {:?}",
            r.rows
        );
    }

    // 3 policies × 4 loss rates; the zero-loss-equals-baseline assertion
    // inside the experiment runs as part of this smoke test.
    #[test]
    fn e16_smoke() {
        let r = e16_degradation(tiny(), 3);
        assert_eq!(r.id, "E16");
        assert_eq!(r.rows.len(), 12);
        assert!(r.rows[0].0.starts_with("flood loss=0.00"));
        assert!(r.rows[0].1.contains("recall"));
    }

    // 6 policies × 2 worlds × 2 adapt modes; the flood-is-unperturbed
    // assertion inside the experiment runs as part of this smoke test.
    #[test]
    fn e18_smoke() {
        let r = e18_routing(tiny(), 3);
        assert_eq!(r.id, "E18");
        assert_eq!(r.rows.len(), 24);
        assert!(r.rows[0].0.starts_with("flood calm static"));
        assert!(r.rows[1].0.starts_with("flood calm adaptive"));
        assert!(r.rows[1].1.contains("shortcuts +"), "{:?}", r.rows[1]);
        // The confidence-pruned configs must actually report pruning
        // somewhere once the learners warm up.
        assert!(
            r.rows
                .iter()
                .any(|(k, v)| k.contains("minconf=0.6") && v.contains("pruned")),
            "no pruned_consequents stat surfaced: {:?}",
            r.rows
        );
    }

    #[test]
    fn series_carry_provenance() {
        let r = e2_sliding(tiny(), 3);
        let artifact = r.series.at(0).expect("one artifact");
        assert_eq!(
            artifact.get("label").and_then(Json::as_str),
            Some("sliding(s=10)")
        );
        assert!(artifact.get("digest").is_some());
        assert!(artifact
            .get("spec")
            .and_then(Json::as_str)
            .is_some_and(|s| s.contains("paper-default")));
    }
}
