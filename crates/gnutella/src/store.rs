//! GUID-major GUID/reverse-path storage for the whole network.
//!
//! [`crate::node::NodeState`] keeps one `HashMap` + `VecDeque` per node —
//! perfectly fine at hundreds of nodes, but at 100k–1M nodes the
//! simulator's hottest operation (GUID dedup + upstream lookup, done for
//! every delivered message) becomes a pointer chase through a million
//! separately-allocated maps. [`GuidStore`] turns the layout around: one
//! small `node → upstream` map **per GUID**, plus per-node FIFO rings
//! (of table ids, not GUIDs: 16 bytes an entry) for capacity eviction
//! and age expiry. A query touches only its own GUID's map while it is
//! in flight, so the store's working set is proportional to the GUIDs in
//! flight times the nodes each has reached (one cache-resident table per
//! flood) — not to everything the network remembers.
//!
//! The semantics are exactly [`crate::node::NodeState`]'s, per node:
//!
//! * first sighting records the upstream and returns `true`; duplicates
//!   return `false` and do **not** refresh the entry (first upstream
//!   wins, as in Gnutella reverse-path routing);
//! * capacity eviction is FIFO over insertion order;
//! * optional age expiry lazily drops entries older than the TTL before
//!   each record (insertion times are monotone, so expired entries are
//!   always a ring prefix);
//! * `reset` forgets a node's entire memory (driven by churn).
//!
//! None of the observable behavior depends on hash iteration order —
//! lookups are point queries and eviction order comes from the rings —
//! so swapping `NodeState` for `GuidStore` is byte-identical to the
//! digest goldens. A differential test against `NodeState` pins that.

use crate::node::Upstream;
use arq_overlay::NodeId;
use arq_simkern::time::Duration;
use arq_simkern::SimTime;
use arq_trace::record::Guid;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Upstream encoding for [`Upstream::Origin`]; real neighbors use their
/// node id (table indices, ≤ tens of millions, so the max value is
/// safely out of band).
const ORIGIN: u32 = u32::MAX;

/// Entries a new table is sized for (32 buckets, about 300 bytes). A
/// walk's or a pruned search's GUID reaches a dozen or two nodes, and
/// holding them without a regrowth keeps the relay path at one
/// allocation per GUID, well under one per message (`tests/scale.rs`).
const FIRST_TABLE: usize = 16;

/// One multiply-fold over an integer key. Keys are node ids and GUIDs
/// minted by the simulator itself, never outside input, and the result
/// only feeds slot choice; observable behavior never depends on it.
#[derive(Default)]
struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn fold(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("GuidStore keys are u32 and u128");
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.fold((x as u64) ^ ((x >> 64) as u64).rotate_left(32));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Network-wide GUID memory, GUID-major: one `node → upstream` table
/// per remembered GUID plus per-node FIFO insertion rings.
#[derive(Debug)]
pub struct GuidStore {
    /// Slot in `tables` of every GUID some node remembers.
    index: IntMap<u128, u32>,
    /// Per GUID, the encoded upstream (`ORIGIN` or a neighbor id) of
    /// every node that remembers it. A table whose last holder forgets
    /// the GUID leaves `index`, keeps its allocation and waits in `free`
    /// for the next new GUID.
    tables: Vec<(u128, IntMap<u32, u32>)>,
    free: Vec<u32>,
    /// Entries over all tables.
    live: usize,
    /// Per-node FIFO of `(slot in tables, inserted_at_tick)`, indexed by
    /// node id. Drives capacity eviction and age expiry. A slot stays its
    /// GUID's for as long as any ring names it.
    rings: Vec<VecDeque<(u32, u64)>>,
    capacity: usize,
    expiry: Option<u64>,
}

impl GuidStore {
    /// Creates a store covering nodes `0..nodes`, each remembering at
    /// most `capacity` GUIDs, optionally for at most `expiry` sim time.
    pub fn new(nodes: usize, capacity: usize, expiry: Option<Duration>) -> Self {
        assert!(capacity > 0, "GUID cache needs capacity");
        if let Some(ttl) = expiry {
            assert!(ttl > Duration::ZERO, "GUID expiry must be positive");
        }
        GuidStore {
            index: IntMap::default(),
            tables: Vec::new(),
            free: Vec::new(),
            live: 0,
            rings: (0..nodes).map(|_| VecDeque::new()).collect(),
            capacity,
            expiry: expiry.map(Duration::ticks),
        }
    }

    #[inline]
    fn ring_index(&self, node: NodeId) -> usize {
        debug_assert!(
            node.index() < self.rings.len(),
            "node {node} outside store range"
        );
        node.index()
    }

    /// Forgets at `node` the GUID of table `slot`, which a ring entry says
    /// is remembered.
    fn remove(&mut self, node: u32, slot: u32) {
        let (guid, table) = &mut self.tables[slot as usize];
        let removed = table.remove(&node);
        debug_assert!(removed.is_some(), "ring names an absent entry");
        self.live -= 1;
        if table.is_empty() {
            let indexed = self.index.remove(guid);
            debug_assert_eq!(indexed, Some(slot), "table emptied twice");
            self.free.push(slot);
        }
    }

    /// The table of `guid`, made (from a retired one when there is one)
    /// if no node remembers the GUID yet. The caller inserts into it.
    fn slot_of(&mut self, guid: u128) -> u32 {
        *self.index.entry(guid).or_insert_with(|| {
            if let Some(slot) = self.free.pop() {
                self.tables[slot as usize].0 = guid;
                return slot;
            }
            let table = IntMap::with_capacity_and_hasher(FIRST_TABLE, Default::default());
            self.tables.push((guid, table));
            u32::try_from(self.tables.len() - 1).expect("over u32::MAX GUIDs remembered at once")
        })
    }

    /// Drops `node`'s entries recorded more than the expiry TTL before
    /// `now`. Amortized O(1) per record: expired entries are a prefix of
    /// the insertion ring.
    fn expire(&mut self, node: NodeId, now: SimTime) {
        let Some(ttl) = self.expiry else { return };
        let r = self.ring_index(node);
        while let Some(&(slot, at)) = self.rings[r].front() {
            if now.ticks().saturating_sub(at) <= ttl {
                break;
            }
            self.rings[r].pop_front();
            self.remove(node.0, slot);
        }
    }

    /// Records the first sighting of `guid` at `node`. Returns `false`
    /// (a duplicate) if the GUID was already known there — the message
    /// must then be dropped, not relayed. The first upstream wins;
    /// duplicates never refresh it.
    pub fn record(&mut self, node: NodeId, guid: Guid, upstream: Upstream, now: SimTime) -> bool {
        self.expire(node, now);
        let slot = self.slot_of(guid.0);
        let Entry::Vacant(entry) = self.tables[slot as usize].1.entry(node.0) else {
            return false;
        };
        entry.insert(match upstream {
            Upstream::Origin => ORIGIN,
            Upstream::Neighbor(n) => n.0,
        });
        self.live += 1;
        // The evicted GUID is not `guid` (that was absent), so evicting
        // after the insert is the same as `NodeState`'s evict-then-insert.
        let r = self.ring_index(node);
        if self.rings[r].len() == self.capacity {
            if let Some((old, _)) = self.rings[r].pop_front() {
                self.remove(node.0, old);
            }
        }
        self.rings[r].push_back((slot, now.ticks()));
        true
    }

    /// The reverse-path hop for `guid` at `node`, if still remembered.
    pub fn upstream(&self, node: NodeId, guid: Guid) -> Option<Upstream> {
        let slot = *self.index.get(&guid.0)?;
        let up = *self.tables[slot as usize].1.get(&node.0)?;
        Some(if up == ORIGIN {
            Upstream::Origin
        } else {
            Upstream::Neighbor(NodeId(up))
        })
    }

    /// Whether `node` has seen `guid`.
    pub fn has_seen(&self, node: NodeId, guid: Guid) -> bool {
        self.upstream(node, guid).is_some()
    }

    /// Number of GUIDs `node` currently remembers.
    pub fn node_len(&self, node: NodeId) -> usize {
        self.rings[self.ring_index(node)].len()
    }

    /// Total entries across all nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Forgets everything `node` has seen (a departed node's protocol
    /// state does not survive the disconnect). Ring capacity is kept.
    pub fn reset(&mut self, node: NodeId) {
        let r = self.ring_index(node);
        let mut ring = std::mem::take(&mut self.rings[r]);
        for (slot, _) in ring.drain(..) {
            self.remove(node.0, slot);
        }
        self.rings[r] = ring;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeState;
    use arq_simkern::Rng64;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn first_sighting_accepted_duplicate_rejected() {
        let mut s = GuidStore::new(8, 8, None);
        let n = NodeId(3);
        assert!(s.record(n, Guid(1), Upstream::Neighbor(NodeId(5)), T0));
        assert!(!s.record(n, Guid(1), Upstream::Neighbor(NodeId(6)), T0));
        // Upstream stays the first one.
        assert_eq!(s.upstream(n, Guid(1)), Some(Upstream::Neighbor(NodeId(5))));
        // Other nodes are unaffected.
        assert!(!s.has_seen(NodeId(4), Guid(1)));
    }

    #[test]
    fn fifo_eviction_per_node() {
        let mut s = GuidStore::new(4, 3, None);
        let n = NodeId(0);
        for i in 0..5u128 {
            assert!(s.record(n, Guid(i), Upstream::Origin, T0));
        }
        assert_eq!(s.node_len(n), 3);
        assert!(!s.has_seen(n, Guid(0)));
        assert!(!s.has_seen(n, Guid(1)));
        assert!(s.has_seen(n, Guid(2)));
        assert!(s.has_seen(n, Guid(4)));
        // An evicted GUID can be recorded again.
        assert!(s.record(n, Guid(0), Upstream::Neighbor(NodeId(1)), T0));
    }

    #[test]
    fn entries_expire_by_sim_time() {
        let mut s = GuidStore::new(4, 16, Some(Duration::from_ticks(100)));
        let n = NodeId(1);
        assert!(s.record(n, Guid(1), Upstream::Origin, SimTime::from_ticks(0)));
        assert!(s.record(n, Guid(2), Upstream::Origin, SimTime::from_ticks(60)));
        assert!(!s.record(n, Guid(1), Upstream::Origin, SimTime::from_ticks(100)));
        // At t=150 the first entry (age 150 > 100) is expired, the second
        // (age 90) survives.
        assert!(s.record(
            n,
            Guid(1),
            Upstream::Neighbor(NodeId(2)),
            SimTime::from_ticks(150)
        ));
        assert!(!s.record(n, Guid(2), Upstream::Origin, SimTime::from_ticks(150)));
        assert_eq!(s.upstream(n, Guid(1)), Some(Upstream::Neighbor(NodeId(2))));
    }

    #[test]
    fn reset_clears_only_that_node() {
        let mut s = GuidStore::new(4, 8, None);
        s.record(NodeId(0), Guid(1), Upstream::Origin, T0);
        s.record(NodeId(1), Guid(1), Upstream::Neighbor(NodeId(0)), T0);
        s.reset(NodeId(0));
        assert!(!s.has_seen(NodeId(0), Guid(1)));
        assert!(s.has_seen(NodeId(1), Guid(1)));
        assert_eq!(s.node_len(NodeId(0)), 0);
        assert!(s.record(NodeId(0), Guid(1), Upstream::Origin, T0));
    }

    #[test]
    fn survives_growth_past_initial_table() {
        // Force several doublings and verify every entry stays findable.
        let mut s = GuidStore::new(16, 1 << 20, None);
        for i in 0..4096u128 {
            let n = NodeId((i % 16) as u32);
            assert!(s.record(n, Guid(i), Upstream::Neighbor(NodeId(9)), T0));
        }
        assert_eq!(s.len(), 4096);
        for i in 0..4096u128 {
            let n = NodeId((i % 16) as u32);
            assert!(s.has_seen(n, Guid(i)), "lost Guid({i})");
        }
    }

    /// Layout invariants the public surface cannot see: every ring entry
    /// has its table entry and nothing else does, and a table is indexed
    /// under its GUID exactly while it is non-empty, else free.
    fn check_layout(s: &GuidStore) {
        assert_eq!(s.live, s.rings.iter().map(VecDeque::len).sum::<usize>());
        assert_eq!(s.live, s.tables.iter().map(|(_, t)| t.len()).sum::<usize>());
        for (slot, (guid, table)) in s.tables.iter().enumerate() {
            let slot = slot as u32;
            assert_eq!(table.is_empty(), s.free.contains(&slot));
            assert_eq!(!table.is_empty(), s.index.get(guid) == Some(&slot));
        }
        assert_eq!(s.index.len() + s.free.len(), s.tables.len());
        for (r, ring) in s.rings.iter().enumerate() {
            let node = r as u32;
            for &(slot, _) in ring {
                assert!(s.tables[slot as usize].1.contains_key(&node));
            }
        }
    }

    /// A seeded op mix must behave exactly like one `NodeState` per node
    /// — same accept/reject decisions, same upstream answers — through
    /// eviction, expiry and resets, for `nodes` nodes drawing from
    /// `guids` distinct GUIDs.
    fn differential(nodes: usize, capacity: usize, expiry: Option<u64>, guids: u64) {
        let expiry = expiry.map(Duration::from_ticks);
        let mut store = GuidStore::new(nodes, capacity, expiry);
        let mut refs: Vec<NodeState> = (0..nodes)
            .map(|_| NodeState::with_expiry(capacity, expiry))
            .collect();
        let mut rng = Rng64::seed_from(guids ^ nodes as u64);
        let mut now = 0u64;
        for op in 0..20_000 {
            now += rng.below(8);
            let t = SimTime::from_ticks(now);
            let i = rng.index(nodes);
            let node = NodeId(i as u32);
            let guid = Guid(u128::from(rng.below(guids)) << 60 | 7);
            match rng.below(40) {
                0 => {
                    store.reset(node);
                    refs[i].reset();
                }
                1..=27 => {
                    let up = if rng.below(4) == 0 {
                        Upstream::Origin
                    } else {
                        Upstream::Neighbor(NodeId(rng.below(8) as u32))
                    };
                    let a = store.record(node, guid, up, t);
                    let b = refs[i].record(guid, up, t);
                    assert_eq!(a, b, "record diverged at t={now} node={node}");
                }
                _ => {
                    assert_eq!(
                        store.upstream(node, guid),
                        refs[i].upstream(guid),
                        "upstream diverged at t={now} node={node}"
                    );
                    assert_eq!(store.has_seen(node, guid), refs[i].has_seen(guid));
                }
            }
            assert_eq!(store.node_len(node), refs[i].len());
            if op % 1_000 == 0 {
                check_layout(&store);
            }
        }
        check_layout(&store);
        assert_eq!(store.len(), refs.iter().map(NodeState::len).sum::<usize>());
    }

    /// The load-bearing test, in the regimes the GUID-major layout tells
    /// apart: a small mixed one, a few GUIDs that most nodes have seen
    /// (large tables, shrinking by expiry), and thousands of GUIDs seen
    /// by one or two nodes each under a capacity of 3, where tables empty,
    /// retire and are reused for other GUIDs all the time.
    #[test]
    fn differential_against_node_state() {
        differential(8, 5, Some(300), 40);
        differential(400, 4, Some(20_000), 6);
        differential(64, 3, None, 4_000);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        GuidStore::new(4, 0, None);
    }
}
