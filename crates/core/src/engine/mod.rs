//! Run orchestration: declarative specs, a name-keyed registry, and a
//! deterministic parallel executor.
//!
//! The paper's contribution is a comparison harness — many strategies
//! and policies evaluated over identical inputs — so the workspace
//! needs to describe "a run" exactly once. This module is that layer:
//!
//! * [`spec::RunSpec`] describes one run declaratively (trace evaluation
//!   or live simulation) and yields a [`spec::RunArtifact`] carrying the
//!   measurements plus provenance (seed, canonical config description,
//!   FNV digest);
//! * [`registry`] constructs every `Strategy` and `ForwardingPolicy`
//!   from a spec string like `"sliding(s=10)"` or `"k-walk(k=4)"` —
//!   the single source of truth for the CLI, the experiment harness,
//!   and tests;
//! * [`executor`] fans independent specs across scoped threads with
//!   results in submission order, so artifact JSON is byte-identical at
//!   any thread count (`ARQ_THREADS` pins the count).
//!
//! Adding a new strategy or policy therefore means: implement the trait,
//! register the name in [`registry`], done — every experiment, CLI
//! subcommand, and test can name it immediately.

pub mod executor;
pub mod registry;
pub mod spec;

pub use executor::{
    execute, execute_with_threads, run_live, run_live_with_obs, run_one, run_one_with_threads,
    thread_count, validate, LiveRun, LiveRunObs,
};
pub use registry::{
    make_adapt_plan, make_fault_plan, make_link_plan, make_obs_plan, make_policy,
    make_retry_policy, make_strategy, parse_spec, BuiltPolicy, ParsedSpec, RegistryError,
    POLICY_NAMES, STRATEGY_NAMES,
};
pub use spec::{RunArtifact, RunOutput, RunSpec, TraceSource};
