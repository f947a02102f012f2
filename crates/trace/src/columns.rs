//! Columnar (structure-of-arrays) views of pair blocks.
//!
//! The mining hot path only ever reads two of [`PairRecord`]'s six
//! fields: the interned source host and the interned reply neighbor.
//! Iterating 48-byte records to fetch 8 bytes wastes five sixths of
//! every cache line; a [`PairColumns`] view holds just the `(src, via)`
//! host-id columns of a block in dense `Vec<HostId>`s. Columns are
//! plain data: building them is one linear pass, and a view can be
//! reused across blocks because it owns its storage (cleared, not
//! reallocated, on refill).
//!
//! [`pack_pair`] builds the `(src << 32) | via` key the open-addressed
//! count table in `arq-assoc` hashes on; packing two interned 32-bit
//! ids into one `u64` makes the pair key a single machine word — no
//! tuple hashing, no field shuffling.

use crate::record::{HostId, PairRecord};

/// Packs an interned `(src, via)` host pair into one `u64` key.
///
/// The source id occupies the high 32 bits, so packed keys sort by
/// source first — handy for debugging, irrelevant for hashing.
#[inline]
pub fn pack_pair(src: HostId, via: HostId) -> u64 {
    (u64::from(src.0) << 32) | u64::from(via.0)
}

/// Unpacks a key produced by [`pack_pair`].
#[inline]
pub fn unpack_pair(key: u64) -> (HostId, HostId) {
    (HostId((key >> 32) as u32), HostId(key as u32))
}

/// The `(src, via)` columns of one block of pair records.
///
/// Construction copies the two host-id fields out of the record slice;
/// every later pass over the block then touches only these dense
/// columns.
#[derive(Debug, Clone, Default)]
pub struct PairColumns {
    src: Vec<HostId>,
    via: Vec<HostId>,
}

impl PairColumns {
    /// An empty column pair, ready for [`fill`](Self::fill).
    pub fn new() -> Self {
        PairColumns::default()
    }

    /// Builds columns from a block of records.
    pub fn from_block(block: &[PairRecord]) -> Self {
        let mut c = PairColumns::new();
        c.fill(block);
        c
    }

    /// Replaces the contents with `block`'s columns, reusing the
    /// existing allocations.
    pub fn fill(&mut self, block: &[PairRecord]) {
        self.src.clear();
        self.via.clear();
        self.src.extend(block.iter().map(|p| p.src));
        self.via.extend(block.iter().map(|p| p.via));
    }

    /// Number of pairs in the view.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the view holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// The source-host column.
    pub fn src(&self) -> &[HostId] {
        &self.src
    }

    /// The reply-neighbor column.
    pub fn via(&self) -> &[HostId] {
        &self.via
    }

    /// The packed `(src << 32) | via` key of pair `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn packed(&self, i: usize) -> u64 {
        pack_pair(self.src[i], self.via[i])
    }

    /// Iterates over the packed keys of a sub-range of the block.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn packed_range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = u64> + '_ {
        self.src[range.clone()]
            .iter()
            .zip(&self.via[range])
            .map(|(&s, &v)| pack_pair(s, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Guid, QueryId};
    use arq_simkern::SimTime;

    fn pair(i: u64, src: u32, via: u32) -> PairRecord {
        PairRecord {
            time: SimTime::from_ticks(i),
            guid: Guid(u128::from(i)),
            src: HostId(src),
            via: HostId(via),
            responder: HostId(7),
            query: QueryId(0),
        }
    }

    #[test]
    fn pack_roundtrips_extremes() {
        for (s, v) in [
            (0, 0),
            (1, 2),
            (u32::MAX, 0),
            (0, u32::MAX),
            (u32::MAX, u32::MAX),
        ] {
            let key = pack_pair(HostId(s), HostId(v));
            assert_eq!(unpack_pair(key), (HostId(s), HostId(v)));
        }
        // Distinct pairs pack to distinct keys even when ids collide
        // across the two roles.
        assert_ne!(
            pack_pair(HostId(1), HostId(2)),
            pack_pair(HostId(2), HostId(1))
        );
    }

    #[test]
    fn columns_mirror_the_block() {
        let block: Vec<PairRecord> = (0..10).map(|i| pair(i, i as u32, 100 + i as u32)).collect();
        let c = PairColumns::from_block(&block);
        assert_eq!(c.len(), 10);
        assert!(!c.is_empty());
        for (i, p) in block.iter().enumerate() {
            assert_eq!(c.src()[i], p.src);
            assert_eq!(c.via()[i], p.via);
            assert_eq!(c.packed(i), pack_pair(p.src, p.via));
        }
    }

    #[test]
    fn refill_reuses_and_replaces() {
        let mut c = PairColumns::from_block(&[pair(0, 1, 2), pair(1, 3, 4)]);
        c.fill(&[pair(2, 9, 8)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.src(), &[HostId(9)]);
        assert_eq!(c.via(), &[HostId(8)]);
        c.fill(&[]);
        assert!(c.is_empty());
    }

    #[test]
    fn packed_range_walks_a_shard() {
        let block: Vec<PairRecord> = (0..6).map(|i| pair(i, i as u32, i as u32 + 1)).collect();
        let c = PairColumns::from_block(&block);
        let keys: Vec<u64> = c.packed_range(2..5).collect();
        assert_eq!(
            keys,
            vec![
                pack_pair(HostId(2), HostId(3)),
                pack_pair(HostId(3), HostId(4)),
                pack_pair(HostId(4), HostId(5)),
            ]
        );
        assert_eq!(c.packed_range(0..0).count(), 0);
    }
}
