//! Wall-clock cost measurement (E8).

use super::{ExperimentReport, Scale};
use arq::simkern::Json;
use arq::trace::{SynthConfig, SynthTrace};

/// E8 — rule-generation cost (§IV-B/§V text): one-shot wall times, so
/// EXPERIMENTS.md is self-contained.
///
/// Wall times are the one nondeterministic measurement in the harness,
/// so setting `ARQ_DETERMINISTIC` drops them from the rows (leaving the
/// deterministic rule counts) — CI uses this to diff whole artifact
/// trees across worker counts. The JSON series carries only the
/// deterministic counts either way.
pub fn e8_rulegen_cost(scale: Scale, seed: u64) -> ExperimentReport {
    let pairs = SynthTrace::new(SynthConfig::paper_default(
        Scale {
            blocks: 6,
            block_size: 50_000,
            ..scale
        }
        .pairs(),
        seed,
    ))
    .pairs();
    let deterministic = std::env::var_os("ARQ_DETERMINISTIC").is_some();
    let mut rows = Vec::new();
    let mut counts = Vec::new();
    for bs in [10_000usize, 50_000] {
        let block = &pairs[..bs];
        let t0 = std::time::Instant::now();
        let rs = arq::assoc::mine_pairs(block, 10);
        let dt = t0.elapsed();
        rows.push((
            format!("mine {bs}-pair block"),
            if deterministic {
                format!("{} rules", rs.rule_count())
            } else {
                format!("{:.2?} ({} rules)", dt, rs.rule_count())
            },
        ));
        counts.push((bs, rs.rule_count()));
    }
    ExperimentReport {
        id: "E8".into(),
        title: "Rule-set generation cost".into(),
        paper_claim: "rule set generation required no more than a few seconds (PHP + MySQL); \
                      simulations took ~45 minutes per run"
            .into(),
        rows,
        charts: vec![],
        series: Json::Arr(
            counts
                .into_iter()
                .map(|(bs, n)| {
                    Json::obj([("block_size", Json::from(bs)), ("rules", Json::from(n))])
                })
                .collect(),
        ),
    }
}
