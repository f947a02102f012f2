//! Per-node protocol state.
//!
//! Each node remembers which GUIDs it has seen (duplicate suppression —
//! floods revisit nodes constantly) and, for each GUID, the upstream
//! neighbor it first heard the query from. That upstream pointer is the
//! reverse-path routing table along which hits travel back.
//!
//! The table is bounded two ways: by capacity (LRU eviction of the
//! oldest entry) and, optionally, by age — entries older than a
//! sim-time TTL expire lazily on the next [`NodeState::record`]. Age
//! expiry keeps long dead queries from pinning cache slots in long runs
//! with retries, where each retry mints a fresh GUID.

use arq_overlay::NodeId;
use arq_simkern::time::Duration;
use arq_simkern::SimTime;
use arq_trace::record::Guid;
use std::collections::{HashMap, VecDeque};

/// Where a query entered this node from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upstream {
    /// The node issued the query itself.
    Origin,
    /// The query arrived from this neighbor.
    Neighbor(NodeId),
}

/// A node's message-routing memory, bounded LRU-style with optional
/// sim-time expiry.
#[derive(Debug)]
pub struct NodeState {
    seen: HashMap<Guid, Upstream>,
    order: VecDeque<(Guid, SimTime)>,
    capacity: usize,
    expiry: Option<Duration>,
}

impl NodeState {
    /// Creates state remembering at most `capacity` GUIDs, with no age
    /// limit.
    pub fn new(capacity: usize) -> Self {
        Self::with_expiry(capacity, None)
    }

    /// Creates state remembering at most `capacity` GUIDs, each for at
    /// most `expiry` of sim time (when `Some`).
    pub fn with_expiry(capacity: usize, expiry: Option<Duration>) -> Self {
        assert!(capacity > 0, "GUID cache needs capacity");
        if let Some(ttl) = expiry {
            assert!(ttl > Duration::ZERO, "GUID expiry must be positive");
        }
        NodeState {
            seen: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            expiry,
        }
    }

    /// Records the first sighting of `guid` at sim time `now`. Returns
    /// `false` (a duplicate) if the GUID was already known — the message
    /// must then be dropped, not relayed.
    pub fn record(&mut self, guid: Guid, upstream: Upstream, now: SimTime) -> bool {
        self.expire(now);
        if self.seen.contains_key(&guid) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some((old, _)) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(guid, upstream);
        self.order.push_back((guid, now));
        true
    }

    /// Drops entries recorded more than the expiry TTL before `now`.
    /// Insertion times are monotone, so expired entries are a prefix of
    /// the order queue and this is amortized O(1) per record.
    fn expire(&mut self, now: SimTime) {
        let Some(ttl) = self.expiry else { return };
        while let Some(&(old, at)) = self.order.front() {
            if now.since(at) <= ttl {
                break;
            }
            self.order.pop_front();
            self.seen.remove(&old);
        }
    }

    /// Whether `guid` has been seen.
    pub fn has_seen(&self, guid: Guid) -> bool {
        self.seen.contains_key(&guid)
    }

    /// The reverse-path hop for `guid`, if still remembered.
    pub fn upstream(&self, guid: Guid) -> Option<Upstream> {
        self.seen.get(&guid).copied()
    }

    /// Number of remembered GUIDs.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been seen.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Forgets everything (used when a node leaves the network: Gnutella
    /// state does not survive a disconnect).
    pub fn reset(&mut self) {
        self.seen.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn first_sighting_accepted_duplicate_rejected() {
        let mut s = NodeState::new(8);
        assert!(s.record(Guid(1), Upstream::Neighbor(NodeId(5)), T0));
        assert!(!s.record(Guid(1), Upstream::Neighbor(NodeId(6)), T0));
        // Upstream stays the first one.
        assert_eq!(s.upstream(Guid(1)), Some(Upstream::Neighbor(NodeId(5))));
    }

    #[test]
    fn origin_marker() {
        let mut s = NodeState::new(8);
        s.record(Guid(9), Upstream::Origin, T0);
        assert_eq!(s.upstream(Guid(9)), Some(Upstream::Origin));
    }

    #[test]
    fn lru_eviction() {
        let mut s = NodeState::new(3);
        for i in 0..5u128 {
            assert!(s.record(Guid(i), Upstream::Origin, T0));
        }
        assert_eq!(s.len(), 3);
        assert!(!s.has_seen(Guid(0)));
        assert!(!s.has_seen(Guid(1)));
        assert!(s.has_seen(Guid(2)));
        assert!(s.has_seen(Guid(4)));
        // An evicted GUID can be recorded again.
        assert!(s.record(Guid(0), Upstream::Neighbor(NodeId(1)), T0));
    }

    #[test]
    fn entries_expire_by_sim_time() {
        let mut s = NodeState::with_expiry(16, Some(Duration::from_ticks(100)));
        assert!(s.record(Guid(1), Upstream::Origin, SimTime::from_ticks(0)));
        assert!(s.record(Guid(2), Upstream::Origin, SimTime::from_ticks(60)));
        // Inside the TTL both are still duplicates.
        assert!(!s.record(Guid(1), Upstream::Origin, SimTime::from_ticks(100)));
        // At t=150 the first entry (age 150 > 100) is expired, the second
        // (age 90) survives.
        assert!(s.record(
            Guid(1),
            Upstream::Neighbor(NodeId(2)),
            SimTime::from_ticks(150)
        ));
        assert!(!s.record(Guid(2), Upstream::Origin, SimTime::from_ticks(150)));
        assert_eq!(s.upstream(Guid(1)), Some(Upstream::Neighbor(NodeId(2))));
    }

    #[test]
    fn expiry_frees_capacity() {
        let mut s = NodeState::with_expiry(2, Some(Duration::from_ticks(10)));
        s.record(Guid(1), Upstream::Origin, SimTime::from_ticks(0));
        s.record(Guid(2), Upstream::Origin, SimTime::from_ticks(0));
        // Both expired by t=20: the new entry does not evict via LRU.
        assert!(s.record(Guid(3), Upstream::Origin, SimTime::from_ticks(20)));
        assert_eq!(s.len(), 1);
        assert!(!s.has_seen(Guid(1)));
        assert!(!s.has_seen(Guid(2)));
    }

    #[test]
    fn no_expiry_means_age_is_ignored() {
        let mut s = NodeState::new(4);
        s.record(Guid(1), Upstream::Origin, SimTime::from_ticks(0));
        assert!(!s.record(Guid(1), Upstream::Origin, SimTime::from_ticks(u64::MAX)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = NodeState::new(4);
        s.record(Guid(1), Upstream::Origin, T0);
        s.reset();
        assert!(s.is_empty());
        assert!(!s.has_seen(Guid(1)));
        assert!(s.record(Guid(1), Upstream::Origin, T0));
    }

    /// The cache accepts each GUID exactly once while it is resident,
    /// and never holds more than its capacity: a seeded check against a
    /// plain FIFO list.
    #[test]
    fn node_state_dedup_and_capacity() {
        for seed in 0..16 {
            let mut rng = arq_simkern::Rng64::seed_from(seed);
            let cap = 1 + rng.index(63);
            let mut state = NodeState::new(cap);
            let mut resident = VecDeque::new();
            for _ in 0..1 + rng.index(300) {
                let g = u128::from(rng.below(40));
                let accepted = state.record(Guid(g), Upstream::Origin, T0);
                assert_eq!(accepted, !resident.contains(&g), "seed {seed} guid {g}");
                if accepted {
                    if resident.len() == cap {
                        resident.pop_front();
                    }
                    resident.push_back(g);
                }
                assert!(state.len() <= cap);
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        NodeState::new(0);
    }

    #[test]
    #[should_panic(expected = "expiry")]
    fn zero_expiry_rejected() {
        NodeState::with_expiry(4, Some(Duration::ZERO));
    }
}
