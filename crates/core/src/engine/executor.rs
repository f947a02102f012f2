//! Deterministic parallel execution of [`RunSpec`] lists.
//!
//! Independent runs fan out over `std::thread::scope` workers pulling
//! from a shared atomic counter. Determinism at any thread count follows
//! from three properties:
//!
//! 1. each run is self-contained — its randomness comes from its own
//!    seeded `StreamFactory` streams inside the simulator/synthesizer,
//!    never from shared state;
//! 2. strategies/policies are constructed *inside* the worker from the
//!    spec's registry string, so no cross-thread state exists to race on;
//! 3. results land in a slot indexed by spec position, so output order
//!    is the submission order regardless of completion order.
//!
//! Consequently `execute_with_threads(specs, 1)` and
//! `execute_with_threads(specs, n)` produce byte-identical artifact
//! JSON. The thread count defaults to the machine's parallelism and can
//! be pinned with the `ARQ_THREADS` environment variable (CI uses this
//! to assert the equality above).

use super::registry::{self, RegistryError};
use super::spec::{RunArtifact, RunOutput, RunSpec};
use crate::eval::evaluate_with_obs;
use arq_gnutella::policy::ForwardingPolicy;
use arq_gnutella::sim::Network;
use arq_obs::{Obs, ObsReport};
use arq_overlay::Graph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `ARQ_THREADS` if set, else the machine's available
/// parallelism. `ARQ_THREADS=0` is clamped to 1 (a run always needs one
/// worker); anything unparsable is a hard error — a typo like
/// `ARQ_THREADS=fuor` silently falling back to full parallelism would
/// defeat the pinning the variable exists for.
///
/// # Panics
///
/// Panics with a message naming `ARQ_THREADS` when the variable is set
/// to something that is not a non-negative integer.
pub fn thread_count() -> usize {
    match parse_thread_count(std::env::var("ARQ_THREADS").ok().as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(msg) => panic!("{msg}"),
    }
}

/// Parses an `ARQ_THREADS` value: `None`/empty means "unset" (use the
/// machine default), `0` clamps to 1, garbage is an error naming the
/// variable. Pure so the rejection paths are testable without racing
/// the process environment.
fn parse_thread_count(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) => Ok(Some(n.max(1))),
        Err(_) => Err(format!(
            "ARQ_THREADS: cannot parse `{raw}` as a worker count \
             (expected a non-negative integer; 0 is treated as 1)"
        )),
    }
}

/// Runs every spec, in parallel, returning artifacts in spec order.
///
/// Fails fast (before any run starts) if a spec names an unregistered
/// strategy/policy or has malformed parameters.
pub fn execute(specs: &[RunSpec]) -> Result<Vec<RunArtifact>, RegistryError> {
    execute_with_threads(specs, thread_count())
}

/// [`execute`] with an explicit worker count: `min(threads, specs)`
/// workers each pull whole runs, so `threads` only ever means "runs
/// side by side" — nothing inside a run is threaded by it.
pub fn execute_with_threads(
    specs: &[RunSpec],
    threads: usize,
) -> Result<Vec<RunArtifact>, RegistryError> {
    for spec in specs {
        validate(spec)?;
    }
    let workers = threads.clamp(1, specs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunArtifact>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let artifact = run_one(i, &specs[i]).expect("spec was validated before dispatch");
                *slots[i].lock().expect("result slot poisoned") = Some(artifact);
            });
        }
    });
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without filling its slot")
        })
        .collect())
}

/// Checks that a spec's strategy/policy string is constructible, along
/// with its obs spec if one is attached.
pub fn validate(spec: &RunSpec) -> Result<(), RegistryError> {
    if let Some(obs) = spec.obs_spec() {
        registry::make_obs_plan(obs)?;
    }
    match spec {
        RunSpec::TraceEval { strategy, .. } => registry::make_strategy(strategy).map(|_| ()),
        RunSpec::LiveSim { policy, .. } => registry::make_policy(policy).map(|_| ()),
    }
}

/// The obs spec injected by the `ARQ_OBS` environment variable, if any.
/// `ARQ_OBS=1` means full default instrumentation; any other non-empty,
/// non-`0` value is taken as an `obs(...)` spec string. Env-injected
/// instrumentation attaches at run time only — it never enters
/// [`RunSpec::describe`], so config digests (and persisted artifacts'
/// provenance) are unchanged by it.
fn env_obs_spec() -> Option<String> {
    match std::env::var("ARQ_OBS") {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) if v == "1" => Some("obs".to_string()),
        Ok(v) => Some(v),
        Err(_) => None,
    }
}

/// [`run_one`]; `_threads` is unused. Kept only because `benchmark/`
/// calls it — the next `benchmark`-archetype PR should call [`run_one`]
/// so this can go.
pub fn run_one_with_threads(
    index: usize,
    spec: &RunSpec,
    _threads: usize,
) -> Result<RunArtifact, RegistryError> {
    run_one(index, spec)
}

/// Runs one spec to completion on the current thread.
pub fn run_one(index: usize, spec: &RunSpec) -> Result<RunArtifact, RegistryError> {
    let obs_spec = spec.obs_spec().map(str::to_string).or_else(env_obs_spec);
    let mut obs = match &obs_spec {
        Some(s) => Obs::enabled(registry::make_obs_plan(s)?),
        None => Obs::disabled(),
    };
    let (label, output, obs_report) = match spec {
        RunSpec::TraceEval {
            trace,
            strategy,
            block_size,
            ..
        } => {
            let mut strategy = registry::make_strategy(strategy)?;
            let pairs = trace.materialize();
            let run = evaluate_with_obs(strategy.as_mut(), &pairs, *block_size, &mut obs);
            (run.strategy.clone(), RunOutput::Trace(run), obs.report())
        }
        RunSpec::LiveSim {
            cfg, policy, graph, ..
        } => {
            let (metrics, stats, _, _, report) =
                run_live_with_obs(cfg.clone(), policy, graph.as_deref(), obs)?;
            (
                metrics.policy.clone(),
                RunOutput::Live { metrics, stats },
                report,
            )
        }
    };
    Ok(RunArtifact {
        index,
        label,
        seed: spec.seed(),
        spec: spec.describe(),
        digest: spec.digest(),
        output,
        obs: obs_report,
    })
}

/// Everything one live simulation returns: canonicalized metrics, the
/// policy's stats, the policy itself (for [`ForwardingPolicy::as_any`]
/// downcasts — e.g. reading learned association rules for topology
/// adaptation), and the final overlay.
pub type LiveRun = (
    arq_gnutella::metrics::RunMetrics,
    Vec<(String, f64)>,
    Box<dyn ForwardingPolicy + Send>,
    Graph,
);

/// [`LiveRun`] plus the obs report an instrumented run produced.
pub type LiveRunObs = (
    arq_gnutella::metrics::RunMetrics,
    Vec<(String, f64)>,
    Box<dyn ForwardingPolicy + Send>,
    Graph,
    Option<ObsReport>,
);

/// Builds and runs one live simulation from a policy spec.
pub fn run_live(
    cfg: arq_gnutella::sim::SimConfig,
    policy_spec: &str,
    graph: Option<&Graph>,
) -> Result<LiveRun, RegistryError> {
    let (metrics, stats, policy, graph, _) =
        run_live_with_obs(cfg, policy_spec, graph, Obs::disabled())?;
    Ok((metrics, stats, policy, graph))
}

/// [`run_live`] with an observability recorder attached to the network.
pub fn run_live_with_obs(
    mut cfg: arq_gnutella::sim::SimConfig,
    policy_spec: &str,
    graph: Option<&Graph>,
    obs: Obs,
) -> Result<LiveRunObs, RegistryError> {
    let built = registry::make_policy(policy_spec)?;
    built.apply_to(&mut cfg);
    let label = built.label;
    let network = match graph {
        Some(g) => Network::with_graph(cfg, built.policy, g.clone()),
        None => Network::new(cfg, built.policy),
    }
    .with_obs(obs);
    let (result, policy, graph) = network.run_full();
    let mut metrics = result.metrics;
    metrics.policy = label;
    let stats = policy.stats();
    Ok((metrics, stats, policy, graph, result.obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::spec::TraceSource;
    use arq_gnutella::sim::SimConfig;
    use arq_simkern::ToJson;

    fn trace_specs() -> Vec<RunSpec> {
        let trace = TraceSource::PaperDefault {
            pairs: 8_000,
            seed: 5,
        };
        ["static", "sliding", "lazy", "adaptive"]
            .iter()
            .map(|s| RunSpec::TraceEval {
                trace: trace.clone(),
                strategy: s.to_string(),
                block_size: 1_000,
                obs: None,
            })
            .collect()
    }

    #[test]
    fn artifacts_keep_spec_order_at_any_thread_count() {
        let specs = trace_specs();
        let one = execute_with_threads(&specs, 1).unwrap();
        let four = execute_with_threads(&specs, 4).unwrap();
        // More threads than specs: the surplus is simply not spawned.
        let sixteen = execute_with_threads(&specs, 16).unwrap();
        let labels: Vec<&str> = one.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "static(s=10)",
                "sliding(s=10)",
                "lazy(s=10,p=10)",
                "adaptive(s=10,h=10,i=0.7)"
            ]
        );
        for ((a, b), c) in one.iter().zip(&four).zip(&sixteen) {
            assert_eq!(a.to_json().to_string(), b.to_json().to_string());
            assert_eq!(a.to_json().to_string(), c.to_json().to_string());
        }
    }

    #[test]
    fn single_spec_ignores_surplus_threads() {
        let spec = &trace_specs()[3..];
        let one = execute_with_threads(spec, 1).unwrap();
        let eight = execute_with_threads(spec, 8).unwrap();
        assert_eq!(one[0].to_json().to_string(), eight[0].to_json().to_string());
    }

    #[test]
    fn thread_count_parsing() {
        // Unset or blank: fall through to the machine default.
        assert_eq!(parse_thread_count(None), Ok(None));
        assert_eq!(parse_thread_count(Some("")), Ok(None));
        assert_eq!(parse_thread_count(Some("   ")), Ok(None));
        // Plain values parse; surrounding whitespace is tolerated.
        assert_eq!(parse_thread_count(Some("4")), Ok(Some(4)));
        assert_eq!(parse_thread_count(Some(" 12 ")), Ok(Some(12)));
        // Zero is clamped to one worker, not silently ignored.
        assert_eq!(parse_thread_count(Some("0")), Ok(Some(1)));
        // Garbage is rejected with a message naming the variable.
        for bad in ["fuor", "-1", "3.5", "1e3", "0x10"] {
            let err = parse_thread_count(Some(bad)).unwrap_err();
            assert!(err.contains("ARQ_THREADS"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn invalid_specs_fail_before_running() {
        let mut specs = trace_specs();
        specs.push(RunSpec::TraceEval {
            trace: TraceSource::PaperDefault {
                pairs: 100,
                seed: 1,
            },
            strategy: "bogus".into(),
            block_size: 10,
            obs: None,
        });
        assert!(matches!(
            execute_with_threads(&specs, 2),
            Err(RegistryError::UnknownStrategy(_))
        ));
    }

    #[test]
    fn live_runs_canonicalize_rider_labels() {
        let mut cfg = SimConfig::default_with(50, 100, 11);
        cfg.catalog.topics = 5;
        cfg.catalog.files_per_topic = 40;
        let spec = RunSpec::LiveSim {
            cfg,
            policy: "expanding-ring(start=2,step=3,max=5,wait=1000)".into(),
            graph: None,
            obs: None,
        };
        let artifacts = execute_with_threads(std::slice::from_ref(&spec), 1).unwrap();
        let m = artifacts[0].metrics().unwrap();
        // The label is the canonical spec: defaults (`start=2`) dropped.
        assert_eq!(m.policy, "expanding-ring(step=3,max=5,wait=1000)");
        assert_eq!(artifacts[0].label, m.policy);
        assert_eq!(m.queries, 100);
    }
}
