//! # arq-baselines — comparison search strategies
//!
//! The related-work schemes the paper positions itself against (§II),
//! each implemented as an `arq-gnutella` [`ForwardingPolicy`] so that
//! experiment E7 can compare them under identical protocol mechanics:
//!
//! * **flooding** — `arq_gnutella::FloodPolicy` (re-exported here);
//! * **expanding ring** (Lv et al.) — [`ring::expanding_ring`] builds the
//!   TTL-escalation schedule the simulator replays with flooding;
//! * **k-random walks** (Gkantsidis et al.) — [`walk::KRandomWalk`];
//! * **interest-based shortcuts** (Sripanidkulchai et al.) —
//!   [`shortcuts::InterestShortcuts`];
//! * **routing indices** (Crespo & Garcia-Molina) —
//!   [`routing_index::RoutingIndices`];
//! * **superpeer networks** (Yang & Garcia-Molina) —
//!   [`superpeer::SuperPeerPolicy`] over
//!   [`arq_overlay::generate::superpeer`] topologies.
//!
//! [`ForwardingPolicy`]: arq_gnutella::policy::ForwardingPolicy

#![warn(missing_docs)]

pub mod ring;
pub mod routing_index;
pub mod shortcuts;
pub mod superpeer;
pub mod walk;

pub use arq_gnutella::FloodPolicy;
pub use ring::expanding_ring;
pub use routing_index::RoutingIndices;
pub use shortcuts::InterestShortcuts;
pub use superpeer::SuperPeerPolicy;
pub use walk::KRandomWalk;
