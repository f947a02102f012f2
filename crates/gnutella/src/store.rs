//! GUID-major GUID/reverse-path storage for the whole network.
//!
//! [`crate::node::NodeState`] keeps one `HashMap` + `VecDeque` per node —
//! perfectly fine at hundreds of nodes, but at 100k–1M nodes the
//! simulator's hottest operation (GUID dedup + upstream lookup, done for
//! every delivered message) becomes a pointer chase through a million
//! separately-allocated maps. [`GuidStore`] turns the layout around:
//!
//! * **One `node → upstream` table per GUID.** A table starts as a small
//!   map: a walk's or a pruned search's GUID reaches a dozen or two
//!   nodes. Once it holds `nodes / 32` entries — what a flood's GUID
//!   does — it turns into a dense array indexed by node, read and
//!   written without hashing. A query touches only its own GUID's table
//!   while it is in flight, so the store's working set is proportional
//!   to the GUIDs in flight times the nodes each has reached, not to
//!   everything the network remembers.
//! * **Per-node FIFOs in one arena** (of table ids, not GUIDs) for
//!   capacity eviction and age expiry. An entry is a 16-byte
//!   `(slot, link, tick)` cell; cells come from fixed-size chunks and
//!   freed ones go on a free list. Each node's FIFO is a two-stack queue:
//!   a push links the new cell to the node's newest one and reads
//!   nothing cold, and the newest-first inbox is reversed into the
//!   oldest-first outbox only when eviction, expiry or `reset` needs the
//!   oldest entry, so each cell is reversed at most once.
//!
//! The semantics are exactly [`crate::node::NodeState`]'s, per node:
//!
//! * first sighting records the upstream and returns `true`; duplicates
//!   return `false` and do **not** refresh the entry (first upstream
//!   wins, as in Gnutella reverse-path routing);
//! * capacity eviction is FIFO over insertion order;
//! * optional age expiry lazily drops entries older than the TTL before
//!   each record (insertion times are monotone, so expired entries are
//!   always a FIFO prefix);
//! * `reset` forgets a node's entire memory (driven by churn).
//!
//! None of the observable behavior depends on hash iteration order or
//! on a table's representation — lookups are point queries and eviction
//! order comes from the FIFOs — so swapping `NodeState` for `GuidStore`
//! is byte-identical to the digest goldens. A differential test against
//! `NodeState` pins that.

use crate::node::Upstream;
use arq_overlay::NodeId;
use arq_simkern::hash::IntMap;
use arq_simkern::time::Duration;
use arq_simkern::SimTime;
use arq_trace::record::Guid;
use std::collections::hash_map::Entry;

/// Upstream encoding for [`Upstream::Origin`]; real neighbors use their
/// node id (table indices, ≤ tens of millions, so the top two values are
/// safely out of band).
const ORIGIN: u32 = u32::MAX;

/// A dense table's entry for a node that does not remember the GUID.
const ABSENT: u32 = u32::MAX - 1;

/// Entries a new table is sized for (32 buckets, about 300 bytes). A
/// walk's or a pruned search's GUID reaches a dozen or two nodes, and
/// holding them without a regrowth keeps the relay path at one
/// allocation per GUID, well under one per message (`tests/scale.rs`).
const FIRST_TABLE: usize = 16;

/// A table turns dense once it holds `nodes / DENSE_SHARE` entries. A
/// flood's GUID gets there within its first hops; a walk's never does.
const DENSE_SHARE: usize = 32;

/// Cells per arena chunk (64 KiB). The arena grows a chunk at a time,
/// so its footprint follows the entries remembered; one doubling buffer
/// would hold up to twice that at its peak.
const CHUNK: usize = 4096;

/// End of a cell list.
const NIL: u32 = u32::MAX;

/// One GUID's memory: the encoded upstream (`ORIGIN` or a neighbor id)
/// of every node that remembers it.
#[derive(Debug)]
enum Table {
    /// Keyed by the nodes that remember the GUID.
    Sparse(IntMap<u32, u32>),
    /// Indexed by node, `ABSENT` where the node does not remember the
    /// GUID; `len` counts the others.
    Dense { up: Box<[u32]>, len: u32 },
}

impl Table {
    fn sparse() -> Self {
        Table::Sparse(IntMap::with_capacity_and_hasher(
            FIRST_TABLE,
            Default::default(),
        ))
    }

    #[inline]
    fn get(&self, node: u32) -> Option<u32> {
        match self {
            Table::Sparse(map) => map.get(&node).copied(),
            Table::Dense { up, .. } => Some(up[node as usize]).filter(|&u| u != ABSENT),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        match self {
            Table::Sparse(map) => map.len(),
            Table::Dense { len, .. } => *len as usize,
        }
    }

    /// Stores `code` for `node` unless the node is already there, and
    /// returns whether it was absent. A sparse table that reaches
    /// `dense_at` entries becomes a dense one over `nodes` nodes.
    #[inline]
    fn insert(&mut self, node: u32, code: u32, dense_at: usize, nodes: usize) -> bool {
        match self {
            Table::Dense { up, len } => {
                let entry = &mut up[node as usize];
                if *entry != ABSENT {
                    return false;
                }
                *entry = code;
                *len += 1;
            }
            Table::Sparse(map) => {
                let Entry::Vacant(entry) = map.entry(node) else {
                    return false;
                };
                entry.insert(code);
                if map.len() >= dense_at {
                    let mut up = vec![ABSENT; nodes].into_boxed_slice();
                    for (&n, &code) in map.iter() {
                        up[n as usize] = code;
                    }
                    let len = map.len() as u32;
                    *self = Table::Dense { up, len };
                }
            }
        }
        true
    }

    /// Forgets `node`, which a FIFO entry says is there. Returns whether
    /// the table is now empty.
    fn remove(&mut self, node: u32) -> bool {
        match self {
            Table::Sparse(map) => {
                let removed = map.remove(&node);
                debug_assert!(removed.is_some(), "FIFO names an absent entry");
                map.is_empty()
            }
            Table::Dense { up, len } => {
                let entry = &mut up[node as usize];
                debug_assert_ne!(*entry, ABSENT, "FIFO names an absent entry");
                *entry = ABSENT;
                *len -= 1;
                *len == 0
            }
        }
    }
}

/// One FIFO entry: a table slot, when it was recorded, and the next cell
/// of its list.
#[derive(Debug, Clone, Copy)]
struct Cell {
    slot: u32,
    link: u32,
    tick: u64,
}

/// One node's FIFO as two cell lists. Every outbox entry is older than
/// every inbox entry.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    /// The newest entry; each cell links to the next older one.
    inbox: u32,
    /// The oldest entry; each cell links to the next newer one.
    outbox: u32,
    len: u32,
}

/// Every node's insertion FIFO, with all cells in one arena.
#[derive(Debug)]
struct Fifos {
    chunks: Vec<Box<[Cell]>>,
    /// Cells handed out from the chunks so far.
    used: u32,
    /// Freed cells, linked through `link`.
    free: u32,
    /// Indexed by node id.
    nodes: Vec<Fifo>,
}

impl Fifos {
    fn new(nodes: usize) -> Self {
        let empty = Fifo {
            inbox: NIL,
            outbox: NIL,
            len: 0,
        };
        Fifos {
            chunks: Vec::new(),
            used: 0,
            free: NIL,
            nodes: vec![empty; nodes],
        }
    }

    #[inline]
    fn cell(&self, c: u32) -> &Cell {
        let c = c as usize;
        &self.chunks[c / CHUNK][c % CHUNK]
    }

    #[inline]
    fn cell_mut(&mut self, c: u32) -> &mut Cell {
        let c = c as usize;
        &mut self.chunks[c / CHUNK][c % CHUNK]
    }

    #[inline]
    fn len(&self, node: usize) -> usize {
        self.nodes[node].len as usize
    }

    /// A cell from the free list, else the next unused one.
    #[inline]
    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let c = self.free;
            self.free = self.cell(c).link;
            return c;
        }
        assert!(
            self.used < NIL,
            "over u32::MAX - 1 GUIDs remembered at once"
        );
        if self.used as usize == self.chunks.len() * CHUNK {
            let blank = Cell {
                slot: 0,
                link: NIL,
                tick: 0,
            };
            self.chunks.push(vec![blank; CHUNK].into_boxed_slice());
        }
        self.used += 1;
        self.used - 1
    }

    /// Appends `(slot, tick)` as `node`'s newest entry.
    #[inline]
    fn push(&mut self, node: usize, slot: u32, tick: u64) {
        let c = self.alloc();
        let fifo = &mut self.nodes[node];
        let link = std::mem::replace(&mut fifo.inbox, c);
        fifo.len += 1;
        *self.cell_mut(c) = Cell { slot, link, tick };
    }

    /// `node`'s oldest entry as `(slot, tick)`. An empty outbox is first
    /// refilled by reversing the whole inbox into it.
    fn front(&mut self, node: usize) -> Option<(u32, u64)> {
        let Fifo {
            mut inbox,
            mut outbox,
            ..
        } = self.nodes[node];
        if outbox == NIL {
            while inbox != NIL {
                let cell = self.cell_mut(inbox);
                let older = std::mem::replace(&mut cell.link, outbox);
                outbox = inbox;
                inbox = older;
            }
            self.nodes[node].inbox = NIL;
            self.nodes[node].outbox = outbox;
        }
        if outbox == NIL {
            return None;
        }
        let cell = self.cell(outbox);
        Some((cell.slot, cell.tick))
    }

    /// Removes `node`'s oldest entry and returns its slot.
    fn pop_front(&mut self, node: usize) -> Option<u32> {
        let (slot, _) = self.front(node)?;
        let c = self.nodes[node].outbox;
        let free = self.free;
        let newer = std::mem::replace(&mut self.cell_mut(c).link, free);
        self.free = c;
        let fifo = &mut self.nodes[node];
        fifo.outbox = newer;
        fifo.len -= 1;
        Some(slot)
    }
}

/// Network-wide GUID memory, GUID-major: one `node → upstream` table
/// per remembered GUID plus per-node FIFOs of table slots.
#[derive(Debug)]
pub struct GuidStore {
    /// Slot in `tables` of every GUID some node remembers.
    index: IntMap<u128, u32>,
    /// Per GUID, who remembers it and from where. A table whose last
    /// holder forgets the GUID leaves `index` and waits in `free` for
    /// the next new GUID: a sparse one keeps its allocation, a dense one
    /// gives its array back and waits as a fresh sparse map, since the
    /// next GUID may be a walk's.
    tables: Vec<(u128, Table)>,
    free: Vec<u32>,
    /// Entries over all tables.
    live: usize,
    /// Insertion order per node: drives capacity eviction and age
    /// expiry. A slot stays its GUID's for as long as any FIFO names it.
    fifos: Fifos,
    capacity: usize,
    expiry: Option<u64>,
    /// Entries at which a sparse table turns dense.
    dense_at: usize,
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
            fifos: Fifos::new(nodes),
            capacity,
            expiry: expiry.map(Duration::ticks),
            dense_at: (nodes / DENSE_SHARE).max(1),
        }
    }

    #[inline]
    fn fifo_index(&self, node: NodeId) -> usize {
        debug_assert!(
            node.index() < self.fifos.nodes.len(),
            "node {node} outside store range"
        );
        node.index()
    }

    /// Forgets at `node` the GUID of table `slot`, which a FIFO entry
    /// says is remembered.
    fn remove(&mut self, node: u32, slot: u32) {
        let (guid, table) = &mut self.tables[slot as usize];
        self.live -= 1;
        if table.remove(node) {
            let indexed = self.index.remove(guid);
            debug_assert_eq!(indexed, Some(slot), "table emptied twice");
            if let Table::Dense { .. } = table {
                *table = Table::sparse();
            }
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
            self.tables.push((guid, Table::sparse()));
            u32::try_from(self.tables.len() - 1).expect("over u32::MAX GUIDs remembered at once")
        })
    }

    /// Drops `node`'s entries recorded more than the expiry TTL before
    /// `now`. Amortized O(1) per record: expired entries are a prefix of
    /// the FIFO.
    fn expire(&mut self, node: NodeId, now: SimTime) {
        let Some(ttl) = self.expiry else { return };
        let r = self.fifo_index(node);
        while let Some((slot, at)) = self.fifos.front(r) {
            if now.ticks().saturating_sub(at) <= ttl {
                break;
            }
            self.fifos.pop_front(r);
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
        let code = match upstream {
            Upstream::Origin => ORIGIN,
            Upstream::Neighbor(n) => n.0,
        };
        let nodes = self.fifos.nodes.len();
        if !self.tables[slot as usize]
            .1
            .insert(node.0, code, self.dense_at, nodes)
        {
            return false;
        }
        self.live += 1;
        // The evicted GUID is not `guid` (that was absent), so evicting
        // after the insert is the same as `NodeState`'s evict-then-insert.
        let r = self.fifo_index(node);
        if self.fifos.len(r) == self.capacity {
            if let Some(old) = self.fifos.pop_front(r) {
                self.remove(node.0, old);
            }
        }
        self.fifos.push(r, slot, now.ticks());
        true
    }

    /// The reverse-path hop for `guid` at `node`, if still remembered.
    pub fn upstream(&self, node: NodeId, guid: Guid) -> Option<Upstream> {
        let slot = *self.index.get(&guid.0)?;
        let up = self.tables[slot as usize].1.get(node.0)?;
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
        self.fifos.len(self.fifo_index(node))
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
    /// state does not survive the disconnect). Its cells go back to the
    /// arena's free list.
    pub fn reset(&mut self, node: NodeId) {
        let r = self.fifo_index(node);
        while let Some(slot) = self.fifos.pop_front(r) {
            self.remove(node.0, slot);
        }
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

    #[test]
    fn fifo_refills_its_outbox_only_when_it_runs_dry() {
        let mut f = Fifos::new(2);
        for slot in 0..3 {
            f.push(1, slot, u64::from(slot));
        }
        assert_eq!(f.nodes[1].outbox, NIL, "pushes never touch the outbox");
        assert_eq!(f.front(1), Some((0, 0)));
        assert_eq!(f.nodes[1].inbox, NIL, "the inbox was reversed");
        f.push(1, 3, 3);
        f.push(1, 4, 4);
        let popped: Vec<u32> = std::iter::from_fn(|| f.pop_front(1)).collect();
        assert_eq!(popped, [0, 1, 2, 3, 4]);
        assert_eq!((f.len(0), f.len(1)), (0, 0));
        assert_eq!(f.front(0), None);
        // Freed cells are reused before the chunk grows.
        f.push(0, 9, 9);
        assert_eq!(f.used, 5);
    }

    /// Layout invariants the public surface cannot see: every FIFO entry
    /// has its table entry and nothing else does; every arena cell is in
    /// exactly one node's FIFO or on the free list; a dense table's count
    /// is its non-`ABSENT` entries; and a table is indexed under its GUID
    /// exactly while it is non-empty, else free (and sparse).
    fn check_layout(s: &GuidStore) {
        let f = &s.fifos;
        assert_eq!(
            s.live,
            f.nodes.iter().map(|n| n.len as usize).sum::<usize>()
        );
        assert_eq!(s.live, s.tables.iter().map(|(_, t)| t.len()).sum::<usize>());
        for (slot, (guid, table)) in s.tables.iter().enumerate() {
            let slot = slot as u32;
            let empty = table.len() == 0;
            assert_eq!(empty, s.free.contains(&slot));
            assert_eq!(!empty, s.index.get(guid) == Some(&slot));
            match table {
                Table::Dense { up, len } => {
                    assert!(!empty, "an empty dense table was kept");
                    assert_eq!(up.len(), f.nodes.len());
                    assert_eq!(*len as usize, up.iter().filter(|&&u| u != ABSENT).count());
                }
                Table::Sparse(map) => assert!(map.len() < s.dense_at, "sparse past the threshold"),
            }
        }
        assert_eq!(s.index.len() + s.free.len(), s.tables.len());

        let mut owner = vec![false; f.used as usize];
        let mut claim = |c: u32| {
            assert!(c < f.used, "cell {c} never handed out");
            assert!(
                !std::mem::replace(&mut owner[c as usize], true),
                "cell {c} twice"
            );
        };
        let mut c = f.free;
        while c != NIL {
            claim(c);
            c = f.cell(c).link;
        }
        for (node, fifo) in f.nodes.iter().enumerate() {
            let node = node as u32;
            let mut entries = Vec::new();
            let mut c = fifo.outbox;
            while c != NIL {
                claim(c);
                entries.push(*f.cell(c));
                c = f.cell(c).link;
            }
            let mut inbox = Vec::new();
            let mut c = fifo.inbox;
            while c != NIL {
                claim(c);
                inbox.push(*f.cell(c));
                c = f.cell(c).link;
            }
            entries.extend(inbox.into_iter().rev());
            assert_eq!(entries.len(), fifo.len as usize, "node {node} length");
            assert!(
                entries.windows(2).all(|w| w[0].tick <= w[1].tick),
                "node {node} order"
            );
            let mut slots: Vec<u32> = entries.iter().map(|e| e.slot).collect();
            for &slot in &slots {
                assert!(s.tables[slot as usize].1.get(node).is_some());
            }
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(
                slots.len(),
                entries.len(),
                "node {node} names a table twice"
            );
        }
        assert!(
            owner.iter().all(|&o| o),
            "a cell is neither in a FIFO nor free"
        );
    }

    /// What a differential run drove the layout through, read off the
    /// store's state after every op.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Ops that found a node's outbox empty, its inbox not, and left
        /// the outbox refilled.
        refills: usize,
        /// Dense tables that emptied and retired.
        dense_retired: usize,
        /// Retired dense slots that now hold another GUID's sparse table.
        dense_reused: usize,
    }

    /// A seeded op mix must behave exactly like one `NodeState` per node
    /// — same accept/reject decisions, same upstream answers — through
    /// eviction, expiry and resets, for `nodes` nodes drawing from a
    /// window of `guids` distinct GUIDs that moves on by one every
    /// `shift` ops (a flood's GUID is hot for a while, then forgotten).
    fn differential(
        nodes: usize,
        capacity: usize,
        expiry: Option<u64>,
        guids: u64,
        shift: u64,
    ) -> Coverage {
        let expiry = expiry.map(Duration::from_ticks);
        let mut store = GuidStore::new(nodes, capacity, expiry);
        let mut refs: Vec<NodeState> = (0..nodes)
            .map(|_| NodeState::with_expiry(capacity, expiry))
            .collect();
        let mut rng = Rng64::seed_from(guids ^ nodes as u64);
        let mut now = 0u64;
        let mut cov = Coverage::default();
        // Per slot: dense since it was last handed out; retired while dense.
        let (mut was_dense, mut retired_dense) = (Vec::new(), Vec::new());
        for op in 0..20_000 {
            now += rng.below(8);
            let t = SimTime::from_ticks(now);
            let i = rng.index(nodes);
            let node = NodeId(i as u32);
            let guid = Guid(u128::from(rng.below(guids) + op / shift) << 60 | 7);
            let before = store.fifos.nodes[i];
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
            let after = store.fifos.nodes[i];
            if before.outbox == NIL && before.inbox != NIL && after.outbox != NIL {
                cov.refills += 1;
            }
            was_dense.resize(store.tables.len(), false);
            retired_dense.resize(store.tables.len(), false);
            for (slot, (_, table)) in store.tables.iter().enumerate() {
                match table {
                    Table::Dense { .. } => was_dense[slot] = true,
                    // Only retirement turns a dense table sparse.
                    Table::Sparse(map) if was_dense[slot] => {
                        was_dense[slot] = false;
                        cov.dense_retired += 1;
                        retired_dense[slot] = map.is_empty();
                        cov.dense_reused += usize::from(!map.is_empty());
                    }
                    Table::Sparse(map) if retired_dense[slot] && !map.is_empty() => {
                        retired_dense[slot] = false;
                        cov.dense_reused += 1;
                    }
                    Table::Sparse(_) => {}
                }
            }
            if op % 1_000 == 0 {
                check_layout(&store);
            }
        }
        check_layout(&store);
        assert_eq!(store.len(), refs.iter().map(NodeState::len).sum::<usize>());
        cov
    }

    /// The load-bearing test, in the regimes the GUID-major layout tells
    /// apart: a small mixed one; a few GUIDs that most nodes have seen
    /// (dense tables, shrinking by expiry); thousands of GUIDs seen by
    /// one or two nodes each under a capacity of 3, where tables empty,
    /// retire and are reused for other GUIDs all the time; dense tables
    /// emptied by eviction alone, and by expiry alone; and a long expiry
    /// FIFO whose outbox drains and refills from interleaved pushes.
    /// Resets run through all of them.
    #[test]
    fn differential_against_node_state() {
        const FIXED: u64 = u64::MAX;
        differential(8, 5, Some(300), 40, FIXED);
        differential(400, 4, Some(20_000), 6, FIXED);
        let many_guids = differential(64, 3, None, 4_000, FIXED);
        assert!(many_guids.dense_reused > 10, "{many_guids:?}");
        let evicted = differential(256, 3, None, 4, 100);
        assert!(
            evicted.dense_retired > 10 && evicted.dense_reused > 10,
            "{evicted:?}"
        );
        let expired = differential(256, 1_000, Some(1_000), 4, 100);
        assert!(
            expired.dense_retired > 10 && expired.dense_reused > 10,
            "{expired:?}"
        );
        let refilled = differential(4, 64, Some(40), 200, FIXED);
        assert!(refilled.refills > 1_000, "{refilled:?}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        GuidStore::new(4, 0, None);
    }
}
