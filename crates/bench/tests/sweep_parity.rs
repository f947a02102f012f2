//! Parity goldens for the plan-driven experiment path: the checked-in
//! plan files must reproduce what the hand-coded E3 and E16 harnesses
//! produced, artifact for artifact.
//!
//! Each test freezes the legacy construction (the exact spec-building
//! code the experiments used before they became plan wrappers), executes
//! it, then drives the corresponding `plans/eN.toml` through the full
//! `run_sweep` path and asserts every `SweepReport` row's spec string
//! and content digest against the legacy artifacts. The content digest
//! ignores the artifact's positional `index`, so the comparison is
//! independent of the grid's sorted-axis job order.

use arq::core::engine::{self, RunSpec, TraceSource};
use arq::core::sweep::{self, artifact_content_digest, SweepPlan};
use arq::gnutella::sim::SimConfig;
use arq::simkern::Json;
use arq::trace::{SynthConfig, SynthTrace};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs the scaled plan through the journaled sweep runner and returns
/// the report rows as `(spec string, artifact digest)` pairs in row
/// order.
fn sweep_rows(plan: &SweepPlan, tag: &str) -> Vec<(String, String)> {
    let jobs = sweep::expand(plan).expect("plan expands");
    let dir = std::env::temp_dir().join(format!("arq-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = sweep::run_sweep(plan, &jobs, &dir, false, 0, 4).expect("sweep runs");
    let rows = outcome
        .report
        .get("rows")
        .and_then(Json::as_array)
        .expect("report has rows")
        .iter()
        .map(|row| {
            (
                row.get("spec")
                    .and_then(Json::as_str)
                    .expect("row has spec")
                    .to_string(),
                row.get("artifact_digest")
                    .and_then(Json::as_str)
                    .expect("row has artifact digest")
                    .to_string(),
            )
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    rows
}

/// E3 at the golden scale: 26 × 4 000 = 104 000 pairs gives two complete
/// blocks even at the largest block size, small enough for a debug test.
#[test]
fn e3_plan_reproduces_the_handcoded_sweep() {
    let (pairs, seed) = (104_000usize, 20_060_814u64);

    // Frozen legacy construction: one shared trace, five block sizes.
    let trace = TraceSource::Shared {
        label: "paper-default".into(),
        seed,
        pairs: Arc::new(SynthTrace::new(SynthConfig::paper_default(pairs, seed)).pairs()),
    };
    let sizes = [2_500usize, 5_000, 10_000, 20_000, 50_000];
    let legacy_specs: Vec<RunSpec> = sizes
        .iter()
        .map(|&bs| RunSpec::TraceEval {
            trace: trace.clone(),
            strategy: "sliding(s=10)".into(),
            block_size: bs,
            obs: None,
        })
        .collect();
    let legacy = engine::execute(&legacy_specs).expect("legacy specs run");

    let mut plan = SweepPlan::load("../../plans/e3.toml").expect("checked-in plan loads");
    plan.seed = seed;
    plan.set_base("seed", seed).unwrap();
    plan.set_base("pairs", pairs).unwrap();
    plan.set_base("block", 4_000usize).unwrap();
    let rows = sweep_rows(&plan, "e3");

    // E3 is a single-axis plan in legacy value order, so the rows line
    // up positionally — spec strings and content digests both.
    assert_eq!(rows.len(), legacy.len());
    for (row, artifact) in rows.iter().zip(&legacy) {
        assert_eq!(row.0, artifact.spec, "plan job diverged from legacy spec");
        assert_eq!(
            row.1,
            format!("{:016x}", artifact_content_digest(artifact)),
            "artifact content diverged for {}",
            artifact.spec
        );
    }
}

/// E16 at smoke scale: 3 policies × (no-fault baseline + 4 loss rates).
/// The grid expands faults-major while the legacy loop was policy-major,
/// so rows are matched by spec string, not position.
#[test]
fn e16_plan_reproduces_the_handcoded_sweep() {
    let (nodes, queries, seed) = (60usize, 150usize, 3u64);

    // Frozen legacy construction, verbatim from the pre-plan harness.
    let mut cfg = SimConfig::default_with(nodes, queries, seed);
    cfg.ttl = 6;
    cfg.catalog.topics = 20;
    cfg.catalog.files_per_topic = 200;
    cfg.churn = Some(arq::overlay::ChurnConfig {
        mean_session: arq::simkern::time::Duration::from_ticks(2_000_000),
        mean_downtime: arq::simkern::time::Duration::from_ticks(600_000),
        pinned: vec![],
    });
    cfg.retry = Some(
        engine::make_retry_policy("retry(deadline=2000,attempts=3,maxttl=8)")
            .expect("retry spec is well-formed"),
    );
    let live = |cfg: &SimConfig, policy: &str| RunSpec::LiveSim {
        cfg: cfg.clone(),
        policy: policy.to_string(),
        graph: None,
        obs: None,
    };
    let mut legacy_specs = Vec::new();
    for policy in ["flood", "assoc", "assoc(demote=0.5,fw=20)"] {
        legacy_specs.push(live(&cfg, policy));
        for loss in [0.0f64, 0.05, 0.15, 0.30] {
            let mut faulted = cfg.clone();
            faulted.faults = Some(
                engine::make_fault_plan(&format!("faults(loss={loss})"))
                    .expect("fault spec is well-formed"),
            );
            legacy_specs.push(live(&faulted, policy));
        }
    }
    let legacy = engine::execute(&legacy_specs).expect("legacy specs run");
    let legacy_by_spec: HashMap<&str, String> = legacy
        .iter()
        .map(|a| {
            (
                a.spec.as_str(),
                format!("{:016x}", artifact_content_digest(a)),
            )
        })
        .collect();

    let mut plan = SweepPlan::load("../../plans/e16.toml").expect("checked-in plan loads");
    plan.seed = seed;
    plan.set_base("seed", seed).unwrap();
    plan.set_base("nodes", nodes).unwrap();
    plan.set_base("queries", queries).unwrap();
    let rows = sweep_rows(&plan, "e16");

    assert_eq!(rows.len(), legacy_by_spec.len());
    for (spec, digest) in &rows {
        let want = legacy_by_spec
            .get(spec.as_str())
            .unwrap_or_else(|| panic!("plan produced a spec the legacy sweep never ran: {spec}"));
        assert_eq!(digest, want, "artifact content diverged for {spec}");
    }
}
