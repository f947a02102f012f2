//! # arq-assoc — association analysis for query routing
//!
//! The data-mining substrate of the workspace. The paper's routing rules
//! have singleton antecedents and consequents (§III-B), so mining is
//! pair counting: [`pairs::mine_pairs`] counts `(src, via)` host pairs
//! in a block of query–reply pairs and support-prunes them into a
//! [`pairs::RuleSet`] — "{host1} → {host2}" rules ranked by support.
//! [`measures::ruleset_test`] evaluates a rule set against a test block,
//! producing the paper's two rule-*set* measures: coverage α (Eq. 1) and
//! success ρ (Eq. 2).
//!
//! [`keyed`] generalizes antecedents beyond a single host — e.g.
//! `(source host, query topic)` — implementing the §VI "query-string
//! dimension" extension. [`incremental::DecayedPairCounts`] supports the
//! paper's future-work streaming maintainer: per-pair counts with exponential decay, updated
//! on every observed reply instead of block-at-a-time.

#![warn(missing_docs)]

pub mod incremental;
pub mod keyed;
pub mod lossy;
pub mod measures;
pub mod pairs;

pub use incremental::{DecayedPairCounts, DecayedSnapshot};
pub use keyed::{mine_keyed, KeyedRuleSet};
pub use lossy::{LossyPairCounts, LossySnapshot};
pub use measures::{ruleset_test, BlockMeasures, RuleLookup};
pub use pairs::{mine_pairs, PairMiner, RuleSet};
