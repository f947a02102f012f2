//! # arq-content — content and query-workload models
//!
//! The paper's routing heuristic works because of **interest-based
//! locality**: users query within a limited set of interests, and nodes
//! that answered one query tend to be able to answer the next. This crate
//! models exactly the pieces needed to reproduce that phenomenon:
//!
//! * [`zipf::Zipf`] — a Zipf(α) sampler; both file popularity and topic
//!   popularity in P2P measurement studies follow Zipf-like laws;
//! * [`catalog`] — a universe of shared files, each belonging to a topic
//!   (interest group) and carrying keywords;
//! * [`interest::InterestProfile`] — a node's weighting over topics, with
//!   optional slow drift (users' tastes change over days, which is one of
//!   the forces that ages static rule sets);
//! * [`workload`] — per-node shared-file libraries and the query
//!   generator that drives every simulation;
//! * [`keywords`] — keyword-subset matching and per-node inverted
//!   indices, the search model whose flexibility the paper contrasts
//!   with exact-match DHT lookup.

#![warn(missing_docs)]

pub mod catalog;
pub mod interest;
pub mod keywords;
pub mod workload;
pub mod zipf;

pub use catalog::{Catalog, CatalogConfig, FileId, Topic};
pub use interest::InterestProfile;
pub use keywords::{KeywordIndex, KeywordQuery};
pub use workload::{Libraries, Library, QueryKey, WorkloadConfig, WorkloadGen};
pub use zipf::Zipf;
