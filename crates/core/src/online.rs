//! The online routing handle: epoch-versioned, atomically swapped rule
//! sets for long-running services.
//!
//! A service answering route lookups over an unbounded stream cannot
//! consult the mining state directly — mining takes milliseconds per
//! refresh and the lookup path has a latency budget of microseconds.
//! [`RuleHandle`] decouples the two: the miner *publishes* a finished
//! [`RuleSet`] behind an `Arc` pointer swap, and lookups *load* the
//! current pointer and query it without ever taking the miner's locks.
//! Each publish bumps a monotonic epoch stored in the same `Arc` as the
//! rules ([`Generation`]), so a lookup names exactly which generation of
//! rules answered it: one load yields both.
//!
//! The write lock is held only for the pointer swap — never while
//! mining, serializing, or allocating — so a reader observes at most a
//! pointer-sized critical section. That is the "bounded-latency lookups
//! that never block on mining" contract `arq serve` is stated over.

use arq_assoc::RuleSet;
use arq_trace::record::HostId;
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

/// One published rule set and the epoch it was published at.
#[derive(Debug, Default)]
pub struct Generation {
    /// The publish count that produced this generation (0 = the empty
    /// initial set).
    pub epoch: u64,
    /// The rules.
    pub rules: RuleSet,
}

/// Shared, epoch-versioned pointer to the current rule set.
///
/// Cloning the handle is cheap and every clone observes the same
/// generations in the same order. Publishing never blocks on readers
/// longer than one pointer read; readers never block on the miner.
#[derive(Debug, Clone, Default)]
pub struct RuleHandle {
    current: Arc<RwLock<Arc<Generation>>>,
}

impl RuleHandle {
    /// A handle holding an empty rule set at epoch 0 (everything floods
    /// until the first publish).
    pub fn new() -> Self {
        RuleHandle::default()
    }

    /// Atomically replaces the rule set and returns the new epoch.
    pub fn publish(&self, rules: RuleSet) -> u64 {
        let mut next = Arc::new(Generation { epoch: 0, rules });
        let mut slot = self.current.write().expect("rule slot poisoned");
        // Numbered inside the write lock so epoch order is publication
        // order for any observer.
        let epoch = slot.epoch + 1;
        Arc::get_mut(&mut next).expect("not yet shared").epoch = epoch;
        let old = std::mem::replace(&mut *slot, next);
        // The superseded generation is freed after the lock is released.
        drop(slot);
        drop(old);
        epoch
    }

    /// The epoch of the current generation (0 = still the empty initial
    /// set).
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// The current generation. The returned `Arc` stays valid (and
    /// immutable) however many publishes happen after the load.
    pub fn load(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().expect("rule slot poisoned"))
    }

    /// Answers one route lookup from the current generation: the top-`k`
    /// consequents for `src`, or [`RouteDecision::Flood`] when no rule
    /// covers it, with the epoch of the generation that answered.
    pub fn route(&self, src: HostId, k: usize) -> (RouteDecision, u64) {
        let current = self.load();
        let vias: Vec<HostId> = current.rules.top_k(src, k.max(1)).collect();
        let decision = if vias.is_empty() {
            RouteDecision::Flood
        } else {
            RouteDecision::Rules(vias)
        };
        (decision, current.epoch)
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
        assert!(h.load().rules.is_empty());
        assert_eq!(h.route(HostId(1), 2), (RouteDecision::Flood, 0));
    }

    #[test]
    fn publish_bumps_epoch_and_routes() {
        let h = RuleHandle::new();
        assert_eq!(h.publish(mine_pairs(&block(1, 42, 10), 5)), 1);
        assert_eq!(h.epoch(), 1);
        assert_eq!(
            h.route(HostId(1), 2),
            (RouteDecision::Rules(vec![HostId(42)]), 1)
        );
        assert_eq!(h.route(HostId(9), 2), (RouteDecision::Flood, 1));
    }

    #[test]
    fn loaded_generation_survives_later_publishes() {
        let h = RuleHandle::new();
        h.publish(mine_pairs(&block(1, 42, 10), 5));
        let gen1 = h.load();
        h.publish(mine_pairs(&block(1, 77, 10), 5));
        // The old Arc still answers from its own generation.
        assert!(gen1.rules.matches(HostId(1), HostId(42)));
        assert_eq!(gen1.epoch, 1);
        assert!(h.load().rules.matches(HostId(1), HostId(77)));
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
            (RouteDecision::Rules(vec![HostId(8)]), 1)
        );
    }

    /// A reader racing the publisher never sees a torn rule set, and
    /// every answer carries the epoch of the generation that produced
    /// it: the publisher gives each epoch its own via, and the reader
    /// checks every `Rules` answer against that map.
    #[test]
    fn concurrent_lookups_never_see_torn_state() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let via_of = |epoch: u64| 1_000 + epoch as u32;
        let h = RuleHandle::new();
        let reader = h.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let lookups = Arc::new(AtomicU64::new(0));
        let (stop2, lookups2) = (Arc::clone(&stop), Arc::clone(&lookups));
        let t = std::thread::spawn(move || {
            let mut last = 0;
            while !stop2.load(Ordering::SeqCst) {
                let (decision, epoch) = reader.route(HostId(1), 2);
                assert!(epoch >= last, "epoch went back from {last} to {epoch}");
                last = epoch;
                match decision {
                    RouteDecision::Rules(v) => {
                        assert_eq!(v, vec![HostId(via_of(epoch))], "epoch {epoch}");
                    }
                    RouteDecision::Flood => assert_eq!(epoch, 0),
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
        let mut epoch = 0;
        while !t.is_finished() && (epoch < 200 || lookups.load(Ordering::SeqCst) < 1_000) {
            epoch = h.publish(mine_pairs(&block(1, via_of(epoch + 1), 10), 5));
        }
        stop.store(true, Ordering::SeqCst);
        t.join()
            .expect("reader saw a torn rule set or a wrong epoch");
    }
}
