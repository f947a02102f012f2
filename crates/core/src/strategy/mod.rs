//! Rule-set maintenance strategies (§III-B.3 – §III-B.6 and §VI).
//!
//! All strategies share one lifecycle, mirroring the paper's pseudocode:
//! the first block of the trace is a pure **warm-up** (it trains the
//! initial rule set and produces no measurement), then every subsequent
//! block is a **trial**: the current rule set is tested against the block
//! (`RULESET-TEST`, producing coverage and success), after which the
//! strategy may regenerate its rule set — each strategy differs only in
//! *when* it does so.

mod adaptive;
#[cfg(test)]
mod incremental;
mod lazy;
#[cfg(test)]
mod lossy_stream;
mod maintainer;
mod sliding;
mod static_ruleset;
mod topic;

pub use adaptive::AdaptiveSlidingWindow;
pub use lazy::LazySlidingWindow;
pub use maintainer::Maintainer;
pub use sliding::SlidingWindow;
pub use static_ruleset::StaticRuleset;
pub use topic::TopicSlidingWindow;

use arq_assoc::measures::BlockMeasures;
use arq_trace::record::PairRecord;

/// The outcome of one trial (one test block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trial {
    /// Coverage/success counts against the block.
    pub measures: BlockMeasures,
    /// Whether the strategy rebuilt its rule set after this trial.
    pub regenerated: bool,
    /// Rules held while testing this block.
    pub rule_count: usize,
    /// Rules held after the update step — differs from `rule_count`
    /// exactly when `regenerated` is set. Observability layers report
    /// this as the re-mined rule-set size.
    pub rules_after: usize,
}

/// A rule-set maintenance strategy under trace-driven evaluation.
pub trait Strategy {
    /// Label for experiment tables.
    fn name(&self) -> String;

    /// Consumes the warm-up block (trains the initial rule set).
    fn warm_up(&mut self, block: &[PairRecord]);

    /// Tests the current rule set against `block`, then applies the
    /// strategy's update policy.
    fn test_and_update(&mut self, block: &[PairRecord]) -> Trial;
}

#[cfg(test)]
pub(crate) mod testutil {
    use arq_simkern::{Rng64, SimTime};
    use arq_trace::record::{Guid, HostId, PairRecord, QueryId};

    /// `len` pairs with sources `0..6` answered via `50..56` at random:
    /// small host populations, so rules actually form.
    pub fn random_stream(rng: &mut Rng64, len: usize) -> Vec<PairRecord> {
        (0..len)
            .map(|i| PairRecord {
                time: SimTime::from_ticks(i as u64),
                guid: Guid(i as u128),
                src: HostId(rng.below(6) as u32),
                via: HostId(50 + rng.below(6) as u32),
                responder: HostId(0),
                query: QueryId(0),
            })
            .collect()
    }

    /// A block where sources `0..n_src` are answered via `base + src`
    /// (one deterministic route per source), `size` pairs round-robin.
    pub fn routed_block(start_guid: u128, size: usize, n_src: u32, base: u32) -> Vec<PairRecord> {
        (0..size)
            .map(|i| {
                let src = (i as u32) % n_src;
                PairRecord {
                    time: SimTime::from_ticks(start_guid as u64 + i as u64),
                    guid: Guid(start_guid + i as u128),
                    src: HostId(src),
                    via: HostId(base + src),
                    responder: HostId(10_000),
                    query: QueryId(0),
                }
            })
            .collect()
    }
}
