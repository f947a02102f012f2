//! The online routing handle: epoch-versioned, atomically swapped rule
//! sets for long-running services.
//!
//! A service answering route lookups over an unbounded stream cannot
//! consult the mining state directly — mining takes milliseconds per
//! refresh and the lookup path has a latency budget of microseconds.
//! [`RuleHandle`] decouples the two: the miner *publishes* a finished
//! [`RuleSet`] behind an `Arc` pointer swap, and lookups *load* the
//! current pointer and query it without ever taking the miner's locks.
//! Each publish bumps a monotonic epoch, so readers (and checkpoints)
//! can name exactly which generation of rules answered a lookup.
//!
//! The write lock is held only for the pointer swap — never while
//! mining, serializing, or allocating — so a reader observes at most a
//! pointer-sized critical section. That is the "bounded-latency lookups
//! that never block on mining" contract `arq serve` is stated over.

use arq_assoc::RuleSet;
use arq_trace::record::HostId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// How a [`RuleHandle`] answered one route lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteDecision {
    /// The antecedent is covered: forward to these consequents (ranked,
    /// at most `k`).
    Rules(Vec<HostId>),
    /// No rule applies — fall back to flooding (§III-B: rule-or-flood).
    Flood,
}

/// Shared, epoch-versioned pointer to the current rule set.
///
/// Cloning the handle is cheap and every clone observes the same
/// generations in the same order. Publishing never blocks on readers
/// longer than one pointer read; readers never block on the miner.
#[derive(Debug, Clone, Default)]
pub struct RuleHandle {
    current: Arc<RwLock<Arc<RuleSet>>>,
    epoch: Arc<AtomicU64>,
}

impl RuleHandle {
    /// A handle holding an empty rule set at epoch 0 (everything floods
    /// until the first publish).
    pub fn new() -> Self {
        RuleHandle::default()
    }

    /// Atomically replaces the rule set and returns the new epoch.
    pub fn publish(&self, rules: RuleSet) -> u64 {
        let rules = Arc::new(rules);
        let mut slot = self.current.write().expect("rule slot poisoned");
        *slot = rules;
        // Bump inside the write lock so epoch order matches publication
        // order for any observer.
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// The number of publishes so far (0 = still the empty initial set).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current rule set. The returned `Arc` stays valid (and
    /// immutable) however many publishes happen after the load.
    pub fn load(&self) -> Arc<RuleSet> {
        Arc::clone(&self.current.read().expect("rule slot poisoned"))
    }

    /// Answers one route lookup from the current generation: the top-`k`
    /// consequents for `src`, or [`RouteDecision::Flood`] when no rule
    /// covers it.
    pub fn route(&self, src: HostId, k: usize) -> RouteDecision {
        let rules = self.load();
        if !rules.has_antecedent(src) {
            return RouteDecision::Flood;
        }
        let vias: Vec<HostId> = rules.top_k(src, k.max(1)).collect();
        if vias.is_empty() {
            RouteDecision::Flood
        } else {
            RouteDecision::Rules(vias)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_assoc::mine_pairs;
    use arq_simkern::SimTime;
    use arq_trace::record::{Guid, PairRecord, QueryId};

    fn block(src: u32, via: u32, n: usize) -> Vec<PairRecord> {
        (0..n)
            .map(|i| PairRecord {
                time: SimTime::from_ticks(i as u64),
                guid: Guid(i as u128),
                src: HostId(src),
                via: HostId(via),
                responder: HostId(999),
                query: QueryId(0),
            })
            .collect()
    }

    #[test]
    fn starts_empty_and_floods() {
        let h = RuleHandle::new();
        assert_eq!(h.epoch(), 0);
        assert!(h.load().is_empty());
        assert_eq!(h.route(HostId(1), 2), RouteDecision::Flood);
    }

    #[test]
    fn publish_bumps_epoch_and_routes() {
        let h = RuleHandle::new();
        assert_eq!(h.publish(mine_pairs(&block(1, 42, 10), 5)), 1);
        assert_eq!(h.epoch(), 1);
        assert_eq!(
            h.route(HostId(1), 2),
            RouteDecision::Rules(vec![HostId(42)])
        );
        assert_eq!(h.route(HostId(9), 2), RouteDecision::Flood);
    }

    #[test]
    fn loaded_generation_survives_later_publishes() {
        let h = RuleHandle::new();
        h.publish(mine_pairs(&block(1, 42, 10), 5));
        let gen1 = h.load();
        h.publish(mine_pairs(&block(1, 77, 10), 5));
        // The old Arc still answers from its own generation.
        assert!(gen1.matches(HostId(1), HostId(42)));
        assert!(h.load().matches(HostId(1), HostId(77)));
        assert_eq!(h.epoch(), 2);
    }

    #[test]
    fn clones_share_one_slot() {
        let h = RuleHandle::new();
        let h2 = h.clone();
        h.publish(mine_pairs(&block(3, 8, 10), 5));
        assert_eq!(h2.epoch(), 1);
        assert_eq!(
            h2.route(HostId(3), 1),
            RouteDecision::Rules(vec![HostId(8)])
        );
    }

    #[test]
    fn concurrent_lookups_never_see_torn_state() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let h = RuleHandle::new();
        let reader = h.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let lookups = Arc::new(AtomicU64::new(0));
        let (stop2, lookups2) = (Arc::clone(&stop), Arc::clone(&lookups));
        let t = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                match reader.route(HostId(1), 2) {
                    // Either generation is fine; a torn set would panic
                    // or return an impossible consequent.
                    RouteDecision::Rules(v) => {
                        assert!(v == vec![HostId(42)] || v == vec![HostId(77)], "{v:?}");
                    }
                    RouteDecision::Flood => {}
                }
                lookups2.fetch_add(1, Ordering::SeqCst);
            }
        });
        // No publish until the reader is demonstrably running, then keep
        // swapping generations under it until it has looked up plenty
        // (or died on its assertion, which `join` reports).
        while lookups.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let mut generation = 0usize;
        while !t.is_finished() && (generation < 200 || lookups.load(Ordering::SeqCst) < 1_000) {
            let via = [42, 77][generation % 2];
            h.publish(mine_pairs(&block(1, via, 10), 5));
            generation += 1;
        }
        stop.store(true, Ordering::SeqCst);
        t.join().expect("reader saw a torn rule set");
    }
}
