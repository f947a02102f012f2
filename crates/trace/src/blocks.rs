//! Block partitioning of the pair stream.
//!
//! Every strategy in the paper operates on *blocks*: consecutive runs of
//! `block_size` query–reply pairs. Rule sets are mined from one block and
//! tested against later blocks. [`Blocks`] is a zero-copy view over a
//! pair slice.

use crate::record::PairRecord;

/// A partition of a pair stream into fixed-size blocks.
///
/// The final partial block (fewer than `block_size` pairs) is *dropped*,
/// mirroring the paper's fixed-size trials; an analysis block with only a
/// handful of pairs would produce meaningless coverage values.
#[derive(Debug, Clone, Copy)]
pub struct Blocks<'a> {
    pairs: &'a [PairRecord],
    block_size: usize,
}

impl<'a> Blocks<'a> {
    /// Creates a block view with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(pairs: &'a [PairRecord], block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Blocks { pairs, block_size }
    }

    /// Number of complete blocks.
    pub fn len(&self) -> usize {
        self.pairs.len() / self.block_size
    }

    /// Whether there are no complete blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block `i` (zero-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &'a [PairRecord] {
        assert!(
            i < self.len(),
            "block index {i} out of range ({})",
            self.len()
        );
        &self.pairs[i * self.block_size..(i + 1) * self.block_size]
    }

    /// Iterates over complete blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [PairRecord]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Guid, HostId, QueryId};
    use arq_simkern::SimTime;

    fn pairs(n: usize) -> Vec<PairRecord> {
        (0..n)
            .map(|i| PairRecord {
                time: SimTime::from_ticks(i as u64),
                guid: Guid(i as u128),
                src: HostId(0),
                via: HostId(1),
                responder: HostId(2),
                query: QueryId(0),
            })
            .collect()
    }

    #[test]
    fn partitions_exactly() {
        let p = pairs(100);
        let b = Blocks::new(&p, 25);
        assert_eq!(b.len(), 4);
        assert_eq!(b.get(0).len(), 25);
        assert_eq!(b.get(3)[24].guid, Guid(99));
        assert_eq!(b.iter().count(), 4);
    }

    #[test]
    fn drops_trailing_partial_block() {
        let p = pairs(107);
        let b = Blocks::new(&p, 25);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        // 7 trailing pairs invisible.
        let total: usize = b.iter().map(|blk| blk.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn short_stream_has_no_blocks() {
        let p = pairs(9);
        let b = Blocks::new(&p, 10);
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        let p = pairs(20);
        Blocks::new(&p, 10).get(2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_block_size_rejected() {
        let p = pairs(5);
        Blocks::new(&p, 0);
    }

    /// Blocks cover the longest whole-block prefix exactly, in order,
    /// with no overlap.
    #[test]
    fn blocks_partition_a_prefix_of_random_streams() {
        let mut rng = arq_simkern::Rng64::seed_from(0xB10C);
        for _ in 0..100 {
            let pairs = crate::record::random::pairs(&mut rng, 300);
            let block_size = 1 + rng.index(49);
            let blocks = Blocks::new(&pairs, block_size);
            let covered = (pairs.len() / block_size) * block_size;
            let flat: Vec<PairRecord> = blocks.iter().flatten().copied().collect();
            assert_eq!(&flat[..], &pairs[..covered]);
        }
    }

    #[test]
    fn blocks_are_contiguous_and_ordered() {
        let p = pairs(60);
        let b = Blocks::new(&p, 20);
        let mut last = 0u128;
        for blk in b.iter() {
            for rec in blk {
                assert!(rec.guid.0 >= last);
                last = rec.guid.0;
            }
        }
    }
}

/// A partition of a pair stream into fixed *time-window* blocks, the
/// paper's alternative framing ("a rule set is created by combining
/// query and reply messages seen within a fixed amount of time",
/// §III-B.3). Windows are half-open `[k·w, (k+1)·w)` intervals anchored
/// at the first pair's timestamp; empty windows are preserved as empty
/// slices so trial numbering stays aligned with wall time.
#[derive(Debug, Clone)]
pub struct TimeBlocks<'a> {
    pairs: &'a [PairRecord],
    /// start index of each window (length = window count + 1).
    bounds: Vec<usize>,
}

impl<'a> TimeBlocks<'a> {
    /// Partitions `pairs` (which must be time-sorted) into windows of
    /// `window` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero ticks or the input is not sorted by
    /// time.
    pub fn new(pairs: &'a [PairRecord], window: arq_simkern::time::Duration) -> Self {
        assert!(window.ticks() > 0, "window must be positive");
        assert!(
            pairs.windows(2).all(|w| w[0].time <= w[1].time),
            "pairs must be time-sorted"
        );
        let mut bounds = vec![0];
        if let Some(first) = pairs.first() {
            let origin = first.time.ticks();
            let w = window.ticks();
            let mut next_edge = origin + w;
            for (i, p) in pairs.iter().enumerate() {
                while p.time.ticks() >= next_edge {
                    bounds.push(i);
                    next_edge += w;
                }
            }
            bounds.push(pairs.len());
        }
        // An empty stream keeps bounds = [0]: zero windows.
        TimeBlocks { pairs, bounds }
    }

    /// Number of windows (the last, possibly partial one included).
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Window `i`'s pairs (possibly empty).
    pub fn get(&self, i: usize) -> &'a [PairRecord] {
        assert!(
            i < self.len(),
            "window index {i} out of range ({})",
            self.len()
        );
        &self.pairs[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Iterates over all windows in time order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [PairRecord]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod time_tests {
    use super::*;
    use crate::record::{Guid, HostId, QueryId};
    use arq_simkern::time::Duration;
    use arq_simkern::SimTime;

    fn pair_at(t: u64) -> PairRecord {
        PairRecord {
            time: SimTime::from_ticks(t),
            guid: Guid(u128::from(t)),
            src: HostId(0),
            via: HostId(1),
            responder: HostId(2),
            query: QueryId(0),
        }
    }

    #[test]
    fn windows_split_on_time_not_count() {
        // 3 pairs early, 1 late: count-blocks would split 2/2, but
        // 10-tick windows split 3/1.
        let pairs = vec![pair_at(0), pair_at(3), pair_at(9), pair_at(15)];
        let tb = TimeBlocks::new(&pairs, Duration::from_ticks(10));
        assert_eq!(tb.len(), 2);
        assert_eq!(tb.get(0).len(), 3);
        assert_eq!(tb.get(1).len(), 1);
    }

    #[test]
    fn empty_windows_are_preserved() {
        let pairs = vec![pair_at(0), pair_at(35)];
        let tb = TimeBlocks::new(&pairs, Duration::from_ticks(10));
        // Windows [0,10) [10,20) [20,30) [30,40): two empties in between.
        assert_eq!(tb.len(), 4);
        assert_eq!(tb.get(0).len(), 1);
        assert_eq!(tb.get(1).len(), 0);
        assert_eq!(tb.get(2).len(), 0);
        assert_eq!(tb.get(3).len(), 1);
        let total: usize = tb.iter().map(<[PairRecord]>::len).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn boundary_pair_goes_to_next_window() {
        let pairs = vec![pair_at(0), pair_at(10)];
        let tb = TimeBlocks::new(&pairs, Duration::from_ticks(10));
        assert_eq!(tb.len(), 2);
        assert_eq!(tb.get(0).len(), 1);
        assert_eq!(tb.get(1).len(), 1);
    }

    #[test]
    fn empty_stream() {
        let tb = TimeBlocks::new(&[], Duration::from_ticks(10));
        assert!(tb.is_empty());
        assert_eq!(tb.len(), 0);
        assert_eq!(tb.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn rejects_unsorted_input() {
        let pairs = vec![pair_at(5), pair_at(1)];
        TimeBlocks::new(&pairs, Duration::from_ticks(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_window() {
        TimeBlocks::new(&[], Duration::from_ticks(0));
    }

    #[test]
    fn origin_anchored_at_first_pair() {
        let pairs = vec![pair_at(100), pair_at(105), pair_at(112)];
        let tb = TimeBlocks::new(&pairs, Duration::from_ticks(10));
        assert_eq!(tb.len(), 2);
        assert_eq!(tb.get(0).len(), 2); // [100, 110)
        assert_eq!(tb.get(1).len(), 1); // [110, 120)
    }

    /// Time windows partition the whole stream (nothing dropped, nothing
    /// duplicated) and every pair lands in the window its timestamp
    /// dictates.
    #[test]
    fn time_blocks_partition_random_streams() {
        let mut rng = arq_simkern::Rng64::seed_from(0x71DE);
        for _ in 0..100 {
            let mut times: Vec<u64> = (0..rng.index(301)).map(|_| rng.below(5_000)).collect();
            times.sort_unstable();
            let pairs: Vec<PairRecord> = times.iter().map(|&t| pair_at(t)).collect();
            let window = 1 + rng.below(499);
            let tb = TimeBlocks::new(&pairs, Duration::from_ticks(window));
            let total: usize = tb.iter().map(<[PairRecord]>::len).sum();
            assert_eq!(total, pairs.len());
            let origin = pairs.first().map_or(0, |p| p.time.ticks());
            for (w, blk) in tb.iter().enumerate() {
                for p in blk {
                    let idx = ((p.time.ticks() - origin) / window) as usize;
                    assert_eq!(idx, w, "pair at t={} in window {w}", p.time.ticks());
                }
            }
        }
    }
}
