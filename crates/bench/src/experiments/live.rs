//! Live-network experiments: forwarding policies inside the protocol
//! simulator (E7, E10, E11, E13, E15, E16, E17).
//!
//! Each experiment is a thin wrapper over its checked-in sweep plan
//! (`plans/eN.toml`): rescale to `(scale, seed)`, expand, execute,
//! render the historical rows. Policy-specific counters (rule usage,
//! index hits, …) arrive through the artifact's `stats`. The one
//! exception is E11, which stays code-driven: its phase-2 replays run
//! over prebuilt (rule-adapted) overlay graphs, which no plan key can
//! express, and its phase 1 downcasts the concrete policy to read the
//! learned rules.

use super::{artifacts_json, by_params, metrics_row, plan_at, run_plan, ExperimentReport, Scale};
use arq::content::CatalogConfig;
use arq::core::engine::{self, RunSpec};
use arq::core::topology::{apply_shortcuts, propose_shortcuts};
use arq::core::AssocPolicy;
use arq::gnutella::sim::{SimConfig, Topology};
use arq::overlay::ChurnConfig;
use arq::simkern::time::Duration;
use arq::simkern::Json;
use std::sync::Arc;

/// E7 — end-to-end traffic comparison across policies.
pub fn e7_traffic(scale: Scale, seed: u64) -> ExperimentReport {
    let plan = plan_at(include_str!("../../../../plans/e7.toml"), "e7", scale, seed);
    let (_, artifacts) = run_plan(&plan);
    let rows = artifacts
        .iter()
        .map(|a| {
            let extra = a
                .stat("rule_usage")
                .map_or(String::new(), |u| format!(", rule usage {u:.2}"));
            metrics_row(a.metrics().expect("live spec"), &extra)
        })
        .collect();
    ExperimentReport {
        id: "E7".into(),
        title: "Live-network traffic comparison".into(),
        paper_claim: "selective rule-based forwarding yields a dramatic reduction in flooded \
                      queries at comparable search success (motivating claim, §I/§III)"
            .into(),
        rows,
        charts: vec![],
        series: artifacts_json(&artifacts),
    }
}

/// E10 — consequent-selection ablation (§III-B.1): top-k by support vs
/// random-k, k ∈ {1, 2, 3}.
pub fn e10_topk(scale: Scale, seed: u64) -> ExperimentReport {
    let plan = plan_at(
        include_str!("../../../../plans/e10.toml"),
        "e10",
        scale,
        seed,
    );
    let (_, artifacts) = run_plan(&plan);
    let variants: Vec<(usize, bool)> = vec![(1, true), (2, true), (3, true), (2, false)];
    let label = |&(k, top): &(usize, bool)| {
        format!("k={k}, {}", if top { "top-by-support" } else { "random-k" })
    };
    let rows = variants
        .iter()
        .zip(&artifacts)
        .map(|(v, a)| {
            let m = a.metrics().expect("live spec");
            (
                label(v),
                format!(
                    "{:.1} msg/query, success {:.3}, rule usage {:.2}",
                    m.messages_per_query,
                    m.success_rate,
                    a.stat("rule_usage").unwrap_or(0.0)
                ),
            )
        })
        .collect();
    let series = Json::Arr(
        variants
            .iter()
            .zip(&artifacts)
            .map(|(v, a)| {
                Json::obj([
                    ("variant", Json::from(label(v))),
                    ("artifact", arq::simkern::ToJson::to_json(a)),
                ])
            })
            .collect(),
    );
    ExperimentReport {
        id: "E10".into(),
        title: "Consequent selection: top-k vs random-k".into(),
        paper_claim: "queries can be sent to a random subset as with k-random walks, or to the \
                      k neighbors with the highest support (§III-B.1)"
            .into(),
        rows,
        charts: vec![],
        series,
    }
}

/// The default live-simulation config E11 builds by hand — the same
/// world the live plan bases describe (ttl 6, 20×200 catalog, churn);
/// only the code-driven experiment still needs it as a value.
fn live_cfg(scale: Scale, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_with(scale.live_nodes, scale.live_queries, seed);
    cfg.topology = Topology::BarabasiAlbert { m: 3 };
    cfg.ttl = 6;
    cfg.catalog = CatalogConfig {
        topics: 20,
        files_per_topic: 200,
        ..Default::default()
    };
    cfg.churn = Some(ChurnConfig {
        mean_session: Duration::from_ticks(2_000_000),
        mean_downtime: Duration::from_ticks(600_000),
        pinned: vec![],
    });
    cfg
}

/// E11 — topology adaptation from learned rules (§VI). Phase 1 learns
/// associations online ([`engine::run_live`] returns the concrete policy
/// for the rule readout); phase 2 replays the same workload on the
/// original and rewired overlays through the executor.
pub fn e11_topology(scale: Scale, seed: u64) -> ExperimentReport {
    let mut cfg = live_cfg(scale, seed);
    cfg.churn = None; // adaptation is measured on a stable overlay
    let (_, _, policy, graph) =
        engine::run_live(cfg.clone(), "assoc", None).expect("assoc is registered");
    let assoc = policy
        .as_any()
        .and_then(|p| p.downcast_ref::<AssocPolicy>())
        .expect("`assoc` constructs an AssocPolicy");
    let before_mpl = arq::overlay::algo::mean_path_length(&graph, 64);
    let proposals = propose_shortcuts(&graph, assoc);
    let mut adapted = graph.clone();
    let budget = cfg.nodes / 2;
    let added = apply_shortcuts(&mut adapted, &proposals, budget);
    let after_mpl = arq::overlay::algo::mean_path_length(&adapted, 64);
    // Phase 2: same workload (same seed) on both overlays; the digest in
    // each artifact distinguishes them by edge count.
    let specs = vec![
        RunSpec::LiveSim {
            cfg: cfg.clone(),
            policy: "flood".into(),
            graph: Some(Arc::new(graph)),
            obs: None,
        },
        RunSpec::LiveSim {
            cfg,
            policy: "flood".into(),
            graph: Some(Arc::new(adapted)),
            obs: None,
        },
    ];
    let artifacts = engine::execute(&specs).expect("flood is registered");
    let hops = |a: &arq::core::RunArtifact| {
        a.metrics()
            .expect("live spec")
            .first_hit_hops
            .as_ref()
            .map_or("n/a".into(), |h| format!("{:.3}", h.mean))
    };
    ExperimentReport {
        id: "E11".into(),
        title: "Topology adaptation from rules".into(),
        paper_claim: "making the neighbor's forwarding target a new neighbor would save one hop \
                      on future queries (proposed, §VI)"
            .into(),
        rows: vec![
            ("shortcut proposals".into(), proposals.len().to_string()),
            (format!("edges added (budget {budget})"), added.to_string()),
            ("mean path length before".into(), format!("{before_mpl:.3}")),
            ("mean path length after".into(), format!("{after_mpl:.3}")),
            ("mean first-hit hops before".into(), hops(&artifacts[0])),
            ("mean first-hit hops after".into(), hops(&artifacts[1])),
        ],
        charts: vec![],
        series: Json::obj([
            ("proposals", Json::from(proposals.len())),
            ("added", Json::from(added)),
            ("mean_path_length", Json::from(&[before_mpl, after_mpl][..])),
            ("replays", artifacts_json(&artifacts)),
        ]),
    }
}

/// E13 — hybrid shortcuts + rules pipeline (§VI): association rules as
/// the "last chance to avoid flooding" behind interest shortcuts.
pub fn e13_hybrid(scale: Scale, seed: u64) -> ExperimentReport {
    let plan = plan_at(
        include_str!("../../../../plans/e13.toml"),
        "e13",
        scale,
        seed,
    );
    let (_, artifacts) = run_plan(&plan);
    let rows = artifacts
        .iter()
        .map(|a| {
            let extra = if let Some(usage) = a.stat("rule_usage") {
                format!(", rule usage {usage:.2}")
            } else if let Some(targeted) = a.stat("targeted_fraction") {
                format!(
                    ", targeted {targeted:.2} ({:.0} shortcut / {:.0} rule rescues)",
                    a.stat("shortcut_decisions").unwrap_or(0.0),
                    a.stat("rule_decisions").unwrap_or(0.0)
                )
            } else {
                String::new()
            };
            metrics_row(a.metrics().expect("live spec"), &extra)
        })
        .collect();
    ExperimentReport {
        id: "E13".into(),
        title: "Hybrid: shortcuts backed by rules".into(),
        paper_claim: "association rules could route queries the shortcuts failed to answer — \
                      one last chance to avoid flooding (proposed, §VI)"
            .into(),
        rows,
        charts: vec![],
        series: artifacts_json(&artifacts),
    }
}

/// E16 — failure degradation sweep: how recall and routing quality decay
/// as the fault layer drops a rising fraction of messages, for flooding,
/// plain association routing, and the failure-adaptive variant. Every
/// run keeps the same bounded-retry lifecycle so the policies are
/// compared on equal recovery budgets; the zero-loss rows are asserted
/// byte-identical to baselines that have no fault layer at all. The
/// grid expands faults-major, so the historical policy-major rows are
/// recovered by param lookup.
pub fn e16_degradation(scale: Scale, seed: u64) -> ExperimentReport {
    const POLICIES: [&str; 3] = ["flood", "assoc", "assoc(demote=0.5,fw=20)"];
    const LOSSES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];
    let plan = plan_at(
        include_str!("../../../../plans/e16.toml"),
        "e16",
        scale,
        seed,
    );
    let (jobs, artifacts) = run_plan(&plan);
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for p in POLICIES {
        // Baseline: the fault layer absent entirely (`faults = "none"`).
        // The loss=0 row must reproduce it byte-for-byte (asserted
        // below), which pins the fault layer's zero-cost-when-idle
        // contract in every run.
        let baseline = by_params(&jobs, &artifacts, &[("policy", p), ("faults", "none")]);
        let zero = by_params(
            &jobs,
            &artifacts,
            &[("policy", p), ("faults", "faults(loss=0)")],
        );
        let base_json = arq::simkern::ToJson::to_json(baseline.metrics().expect("live spec"));
        let zero_json = arq::simkern::ToJson::to_json(zero.metrics().expect("live spec"));
        assert_eq!(
            base_json.to_string(),
            zero_json.to_string(),
            "zero-loss run diverged from the no-fault baseline for {p}"
        );
        for loss in LOSSES {
            let a = by_params(
                &jobs,
                &artifacts,
                &[("policy", p), ("faults", &format!("faults(loss={loss})"))],
            );
            let m = a.metrics().expect("live spec");
            let recall = if m.queries == 0 {
                0.0
            } else {
                m.answered as f64 / m.queries as f64
            };
            let alpha = a
                .stat("rule_usage")
                .map_or(String::new(), |u| format!(", α {u:.2}"));
            rows.push((
                format!("{p} loss={loss:.2}"),
                format!(
                    "recall {recall:.3}, ρ {:.3}{alpha}, {} retried / {} expired / {} lost",
                    m.success_rate, m.retried, m.expired, m.lost_messages
                ),
            ));
            series.push(Json::obj([
                ("policy", Json::from(p)),
                ("loss", Json::from(loss)),
                ("artifact", arq::simkern::ToJson::to_json(a)),
            ]));
        }
    }
    ExperimentReport {
        id: "E16".into(),
        title: "Failure degradation sweep".into(),
        paper_claim: "rule quality decays as the network changes — unreliable peers and \
                      silent drops, not just topology change, erode coverage α and success ρ \
                      (motivating §I; churn discussion §V)"
            .into(),
        rows,
        charts: vec![],
        series: Json::Arr(series),
    }
}

/// E17 — offered-load sweep under byte-accurate links: flood vs plain
/// association routing vs the failure-adaptive variant, all pushed
/// through congested asymmetric links (bounded buffers, seeded loss,
/// free-rider uplinks) at rising query rates. Reports query-latency
/// percentiles and per-node byte budgets from the obs registry
/// histograms; the zero-capacity rows are asserted byte-identical to
/// baselines that have no link layer at all. The plan zips interval,
/// link plan, and obs on one axis; rows are recovered by param lookup.
pub fn e17_offered_load(scale: Scale, seed: u64) -> ExperimentReport {
    const POLICIES: [&str; 3] = ["flood", "assoc", "assoc(demote=0.5,fw=20)"];
    /// Mean inter-query intervals in ticks, highest load last. The
    /// default workload spaces queries 2000 ticks apart; 4× and 16×
    /// that rate drive the bounded per-node uplinks into queueing and
    /// then congestive drops.
    const INTERVALS: [u64; 3] = [2_000, 500, 125];
    const CONGESTED: &str =
        "links(up=8,down=32,upbuf=2048,downbuf=8192,loss=0.02,jitter=20,riders=0.2,riderup=2)";
    let plan = plan_at(
        include_str!("../../../../plans/e17.toml"),
        "e17",
        scale,
        seed,
    );
    let (jobs, artifacts) = run_plan(&plan);
    let quantile = |a: &engine::RunArtifact, name: &str, p: f64| {
        a.obs
            .as_ref()
            .and_then(|o| o.registry.histogram_value(name))
            .and_then(|h| h.quantile(p))
            .unwrap_or(0.0)
    };
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for p in POLICIES {
        // Baseline: no link layer at all (`links = "none"`), then the
        // same run under an all-zero (infinite-capacity) plan. The pair
        // must be byte-identical (asserted below), pinning the link
        // layer's zero-cost-when-idle contract inside every run.
        let baseline = by_params(&jobs, &artifacts, &[("policy", p), ("links", "none")]);
        let noop = by_params(&jobs, &artifacts, &[("policy", p), ("links", "links")]);
        let base_json = arq::simkern::ToJson::to_json(baseline.metrics().expect("live spec"));
        let noop_json = arq::simkern::ToJson::to_json(noop.metrics().expect("live spec"));
        assert_eq!(
            base_json.to_string(),
            noop_json.to_string(),
            "zero-capacity link run diverged from the no-link baseline for {p}"
        );
        for interval in INTERVALS {
            let a = by_params(
                &jobs,
                &artifacts,
                &[
                    ("policy", p),
                    ("interval", &interval.to_string()),
                    ("links", CONGESTED),
                ],
            );
            let m = a.metrics().expect("live spec");
            let (p50, p95, p99) = (
                quantile(a, "query_latency", 0.50),
                quantile(a, "query_latency", 0.95),
                quantile(a, "query_latency", 0.99),
            );
            let (up95, down95) = (
                quantile(a, "node_up_bytes", 0.95),
                quantile(a, "node_down_bytes", 0.95),
            );
            rows.push((
                format!("{p} interval={interval}"),
                format!(
                    "latency p50/p95/p99 {p50:.0}/{p95:.0}/{p99:.0} ticks, success {:.3}, \
                     {} lost / {} buffer-dropped, node bytes p95 up {up95:.0} / down {down95:.0}",
                    m.success_rate, m.lost_messages, m.buffer_dropped
                ),
            ));
            series.push(Json::obj([
                ("policy", Json::from(p)),
                ("interval", Json::from(interval)),
                (
                    "latency_ticks",
                    Json::obj([
                        ("p50", Json::from(p50)),
                        ("p95", Json::from(p95)),
                        ("p99", Json::from(p99)),
                    ]),
                ),
                (
                    "node_bytes_p95",
                    Json::obj([("up", Json::from(up95)), ("down", Json::from(down95))]),
                ),
                ("artifact", arq::simkern::ToJson::to_json(a)),
            ]));
        }
    }
    ExperimentReport {
        id: "E17".into(),
        title: "Offered-load sweep under byte-accurate links".into(),
        paper_claim: "selective forwarding should matter *more* when bandwidth is scarce: \
                      flooding's traffic advantage inverts under congestion, where bounded \
                      per-node capacity turns extra messages into queueing delay and loss \
                      (motivating claim §I, free-rider discussion §II)"
            .into(),
        rows,
        charts: vec![],
        series: Json::Arr(series),
    }
}

/// E18 — routing-science sweep (§VI): top-k consequent fan-out,
/// minimum-confidence pruning, failure adaptation, live topology
/// adaptation, and the shortcuts/rules hybrid, all on one shared
/// two-tier overlay so the policies differ only in how they route. The
/// zipped axis flips the world from calm (no faults, slow churn) to
/// stressed (10% loss, 4× faster churn); the adapt axis turns the
/// tumbling topology-adaptation schedule on. Flood's rows are asserted
/// byte-identical with adaptation on and off — a policy that proposes
/// no shortcuts must not perturb the run.
pub fn e18_routing(scale: Scale, seed: u64) -> ExperimentReport {
    const POLICIES: [&str; 6] = [
        "flood",
        "assoc(k=1,minconf=0)",
        "assoc(k=4,minconf=0)",
        "assoc(k=4,minconf=0.6)",
        "assoc(k=4,minconf=0.6,demote=0.5,fw=20)",
        "hybrid(cap=5,k=4,minconf=0.6)",
    ];
    const WORLDS: [(&str, &str); 2] = [("calm", "none"), ("stressed", "faults(loss=0.1)")];
    const ADAPTS: [(&str, &str); 2] = [
        ("static", "none"),
        ("adaptive", "adapt(every=50000,budget=8,degree=2)"),
    ];
    let plan = plan_at(
        include_str!("../../../../plans/e18.toml"),
        "e18",
        scale,
        seed,
    );
    let (jobs, artifacts) = run_plan(&plan);
    let counter = |a: &engine::RunArtifact, name: &str| {
        a.obs
            .as_ref()
            .and_then(|o| o.registry.counter_value(name))
            .unwrap_or(0)
    };
    // A non-proposing policy under an active adapt plan is a no-op: the
    // flood rows must reproduce their static twins byte-for-byte.
    for (_, faults) in WORLDS {
        let stat = by_params(
            &jobs,
            &artifacts,
            &[("policy", "flood"), ("faults", faults), ("adapt", "none")],
        );
        let live = by_params(
            &jobs,
            &artifacts,
            &[
                ("policy", "flood"),
                ("faults", faults),
                ("adapt", ADAPTS[1].1),
            ],
        );
        let stat_json = arq::simkern::ToJson::to_json(stat.metrics().expect("live spec"));
        let live_json = arq::simkern::ToJson::to_json(live.metrics().expect("live spec"));
        assert_eq!(
            stat_json.to_string(),
            live_json.to_string(),
            "adaptation over flood (no proposals) perturbed the run under faults={faults}"
        );
    }
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for p in POLICIES {
        for (world, faults) in WORLDS {
            for (mode, adapt) in ADAPTS {
                let a = by_params(
                    &jobs,
                    &artifacts,
                    &[("policy", p), ("faults", faults), ("adapt", adapt)],
                );
                let m = a.metrics().expect("live spec");
                let pruned = a
                    .stat("pruned_consequents")
                    .map_or(String::new(), |n| format!(", {n:.0} pruned"));
                let usage = a
                    .stat("rule_usage")
                    .map_or(String::new(), |u| format!(", rule usage {u:.2}"));
                let (added, retired, rejected) = (
                    counter(a, "shortcut_added"),
                    counter(a, "shortcut_retired"),
                    counter(a, "shortcut_rejected"),
                );
                let shortcuts = if mode == "adaptive" {
                    format!(", shortcuts +{added}/-{retired} ({rejected} rejected)")
                } else {
                    String::new()
                };
                rows.push((
                    format!("{p} {world} {mode}"),
                    format!(
                        "{:.1} msg/query, success {:.3}{usage}{pruned}{shortcuts}",
                        m.messages_per_query, m.success_rate
                    ),
                ));
                series.push(Json::obj([
                    ("policy", Json::from(p)),
                    ("world", Json::from(world)),
                    ("adapt", Json::from(mode)),
                    ("shortcut_added", Json::from(added)),
                    ("shortcut_retired", Json::from(retired)),
                    ("shortcut_rejected", Json::from(rejected)),
                    ("artifact", arq::simkern::ToJson::to_json(a)),
                ]));
            }
        }
    }
    ExperimentReport {
        id: "E18".into(),
        title: "Routing science: top-k, confidence pruning, adaptation".into(),
        paper_claim: "queries can be sent to the k neighbors with the highest support, pruned \
                      by minimum confidence (§III-B.1), and making a forwarding target a new \
                      neighbor would save one hop on future queries (§VI)"
            .into(),
        rows,
        charts: vec![],
        series: Json::Arr(series),
    }
}

/// E15 — the §II "re-design the network" category: a two-tier superpeer
/// network with content indices, contrasted with flat flooding and
/// association routing on the same node population. The paper-scale
/// superpeer count (nodes/20 = 40) is baked into the checked-in job;
/// the wrapper rewrites it at other scales.
pub fn e15_superpeer(scale: Scale, seed: u64) -> ExperimentReport {
    let n_super = (scale.live_nodes / 20).max(4);
    let mut plan = plan_at(
        include_str!("../../../../plans/e15.toml"),
        "e15",
        scale,
        seed,
    );
    plan.set_job(1, "policy", format!("superpeer(n={n_super})"))
        .expect("e15 job #1 exists");
    plan.set_job(1, "topology", format!("superpeer(n={n_super},degree=4)"))
        .expect("e15 job #1 exists");
    let (_, artifacts) = run_plan(&plan);
    let extras = [
        " (flat overlay)".to_string(),
        format!(
            " ({:.0} index hits, {:.0} core floods)",
            artifacts[1].stat("index_hits").unwrap_or(0.0),
            artifacts[1].stat("core_floods").unwrap_or(0.0)
        ),
        format!(
            " (flat overlay, rule usage {:.2})",
            artifacts[2].stat("rule_usage").unwrap_or(0.0)
        ),
    ];
    let rows = artifacts
        .iter()
        .zip(&extras)
        .map(|(a, extra)| metrics_row(a.metrics().expect("live spec"), extra))
        .collect();
    ExperimentReport {
        id: "E15".into(),
        title: "Superpeer indexing vs flat overlays".into(),
        paper_claim: "superpeers reduce the number of hops required for queries but can still \
                      suffer from the effects of flooding on larger systems (§II)"
            .into(),
        rows,
        charts: vec![],
        series: artifacts_json(&artifacts),
    }
}
