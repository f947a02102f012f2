//! # arq-gnutella — unstructured P2P protocol simulator
//!
//! A discrete-event simulator of a Gnutella-style unstructured overlay:
//! nodes issue keyword queries for files, queries are relayed hop-by-hop
//! under a TTL, hits travel back along the reverse path, duplicate
//! messages are suppressed by GUID, and peers churn.
//!
//! The piece that makes the workspace's experiments possible is the
//! [`policy::ForwardingPolicy`] trait: every routing scheme — plain
//! flooding, k-random walks, routing indices, interest shortcuts, and the
//! paper's association-rule router — is a policy deciding *which subset of
//! neighbors* receives a relayed query. Everything else (dedup, TTL,
//! reverse-path hits, churn, metrics, trace collection) is shared
//! infrastructure, so policy comparisons are apples-to-apples.
//!
//! A designated **collector node** records exactly the per-message fields
//! the paper's modified Gnutella client captured (see
//! [`collector::Collector`]), producing `arq-trace` records that feed the
//! offline mining pipeline.
//!
//! The [`faults`] module layers deterministic node-level faults over the
//! simulator — crash-without-rejoin nodes and silent free-riders — and
//! [`sim::RetryPolicy`] gives queries a deadline/retry lifecycle so
//! robustness under those faults is measurable per policy. The [`net`]
//! module is the one process that loses or delays a message: a
//! byte-accurate link model with per-node asymmetric bandwidth, bounded
//! byte buffers with congestive drops, and per-link loss/jitter (the
//! `FaultPlan` loss/jitter knobs are sugar for the link plan's).

#![warn(missing_docs)]

pub mod collector;
pub mod discovery;
pub mod faults;
pub mod guid;
pub mod message;
pub mod metrics;
pub mod net;
pub mod node;
pub mod policy;
pub mod sim;
pub mod store;

pub use collector::Collector;
pub use discovery::{ping_crawl, rewire_via_discovery, Discovery};
pub use faults::{FaultPlan, FaultPlanError, FaultState};
pub use message::QueryMsg;
pub use metrics::{QueryOutcome, RunMetrics};
pub use net::{LinkPlan, LinkPlanError, LinkState};
pub use policy::{FloodPolicy, ForwardingPolicy, ShortcutProposal};
pub use sim::{AdaptPlan, AdaptPlanError, Network, RetryPolicy, SimConfig};
pub use store::GuidStore;
