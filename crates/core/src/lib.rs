//! # arq-core — adaptively routing P2P queries using association analysis
//!
//! The primary contribution of Connelly et al. (ICPP 2006), reimplemented
//! as a library. Two deployment surfaces:
//!
//! **Trace-driven evaluation** (how the paper validates the idea): a
//! [`strategy::Strategy`] maintains a rule set over a stream of
//! query–reply blocks and is scored by coverage α and success ρ per
//! block. Every strategy is built from a spec string by
//! [`engine::make_strategy`]:
//!
//! * [`strategy::BlockWindow`] — the paper's four block strategies, one
//!   re-mining schedule each: `static` mines once and uses the rules
//!   forever (§III-B.3), `sliding` re-mines from the previous block
//!   before every trial (§III-B.4), `lazy(p)` every *p* blocks
//!   (§III-B.5), and `adaptive(h,i)` only when measured coverage or
//!   success falls below adaptive thresholds (§III-B.6);
//! * [`strategy::Maintainer`] — the §VI future-work streaming maintainer:
//!   decayed counts (`incremental`) or lossy counting (`lossy`) updated
//!   on every pair. `arq serve` runs the same type live.
//!
//! [`eval::evaluate`] drives any strategy over a pair stream and returns
//! the per-trial series plus run summaries — the exact data behind the
//! paper's Figures 1–4.
//!
//! **Online routing** (what the idea is *for*): [`policy::AssocPolicy`]
//! implements `arq-gnutella`'s `ForwardingPolicy`, learning associations
//! from the hits flowing through each node and forwarding queries to the
//! top-k rule consequents instead of all neighbors, falling back to
//! flooding when no rule applies. The §VI extensions are implemented as
//! well: [`strategy::TopicSlidingWindow`] adds the query-topic dimension
//! to rule antecedents, [`hybrid::HybridPolicy`] chains interest-based
//! shortcuts with rule routing before flooding, and [`topology`]
//! rewires the overlay from learned rules.

#![warn(missing_docs)]

pub mod engine;
pub mod eval;
pub mod hybrid;
pub mod online;
pub mod policy;
pub mod strategy;
pub mod sweep;
pub mod threshold;
pub mod topology;

pub use engine::{RunArtifact, RunSpec, TraceSource};
pub use eval::{evaluate, evaluate_timed, evaluate_with_obs, EvalRun, Trial};
pub use hybrid::HybridPolicy;
pub use online::{RouteDecision, RuleHandle};
pub use policy::{AssocPolicy, AssocPolicyConfig};
pub use strategy::{BlockWindow, Maintainer, Strategy, TopicSlidingWindow};
pub use sweep::{SweepJob, SweepPlan};
pub use threshold::ThresholdCalc;
