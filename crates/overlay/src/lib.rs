//! # arq-overlay — unstructured overlay-network substrate
//!
//! Models the *topology* half of an unstructured P2P system:
//!
//! * [`graph::Graph`] — a mutable undirected graph over dense
//!   [`graph::NodeId`]s with a liveness bit per node (departed peers keep
//!   their id so traces remain joinable, exactly as IP addresses persist in
//!   the paper's Gnutella trace);
//! * [`generate`] — topology generators: Erdős–Rényi, Barabási–Albert
//!   preferential attachment (the standard model for Gnutella-like
//!   power-law overlays), Watts–Strogatz small-world, rings and cliques;
//! * [`churn`] — a session-based churn process producing join/leave events
//!   with configurable mean session and downtime lengths; rejoining peers
//!   rewire to fresh neighbors, which is the mechanism that ages rule sets
//!   in the paper's evaluation;
//! * [`algo`] — BFS distances, reachability within a TTL horizon,
//!   connected components and degree statistics used by tests and the
//!   experiment harness.

#![warn(missing_docs)]

pub mod algo;
pub mod churn;
pub mod generate;
pub mod graph;
mod live_set;

pub use churn::{ChurnConfig, ChurnConfigError, ChurnEvent, ChurnProcess};
pub use graph::{Graph, NodeId};
