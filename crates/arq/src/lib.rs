//! # arq — Adaptively Routing P2P Queries Using Association Analysis
//!
//! A full reimplementation of Connelly, Bowron, Xiao, Tan & Wang
//! (ICPP 2006) and every substrate its evaluation depends on. The
//! umbrella crate re-exports the workspace under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simkern`] | `arq-simkern` | event queue, RNG streams, statistics, charts |
//! | [`overlay`] | `arq-overlay` | topologies, churn, graph algorithms |
//! | [`content`] | `arq-content` | catalogs, interests, workloads |
//! | [`gnutella`] | `arq-gnutella` | protocol simulator + forwarding policies |
//! | [`trace`] | `arq-trace` | trace schema, trace DB, synthetic traces |
//! | [`assoc`] | `arq-assoc` | host-pair rule mining, rule-set measures |
//! | [`core`] | `arq-core` | the paper's strategies, evaluator, online policy |
//! | [`baselines`] | `arq-baselines` | flooding, k-walks, ring, shortcuts, RI |
//! | [`obs`] | `arq-obs` | structured event tracing, metrics registry, series |
//!
//! ## Quickstart
//!
//! Mine routing rules from a synthetic trace and evaluate the paper's
//! Sliding Window strategy:
//!
//! ```
//! use arq::core::engine::make_strategy;
//! use arq::core::evaluate;
//! use arq::trace::{SynthConfig, SynthTrace};
//!
//! // Twelve 10,000-pair blocks from the calibrated trace generator.
//! let cfg = SynthConfig::paper_default(120_000, 42);
//! let pairs = SynthTrace::new(cfg).pairs();
//!
//! // Support threshold 10, as in the paper's experiments.
//! let mut strategy = make_strategy("sliding(s=10)").unwrap();
//! let run = evaluate(strategy.as_mut(), &pairs, 10_000);
//! assert!(run.avg_coverage > 0.7);
//! assert!(run.avg_success > 0.7);
//! ```
//!
//! See `examples/` for end-to-end scenarios (offline trace analysis,
//! live-network policy comparison, adaptive-threshold tuning) and
//! `EXPERIMENTS.md` for the reproduction of every figure and table in
//! the paper.

#![warn(missing_docs)]

pub mod cli;
pub mod serve;

pub use arq_assoc as assoc;
pub use arq_baselines as baselines;
pub use arq_content as content;
pub use arq_core as core;
pub use arq_gnutella as gnutella;
pub use arq_obs as obs;
pub use arq_overlay as overlay;
pub use arq_simkern as simkern;
pub use arq_trace as trace;
