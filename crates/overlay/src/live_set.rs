//! Liveness bitmap with rank-select.
//!
//! One bit per node id plus a Fenwick tree over the per-word popcounts:
//! `contains` is a shift and a mask, a flip costs O(log n) and
//! [`LiveSet::select`] finds the k-th live id in O(log n) — so drawing a
//! uniformly random live node never materialises the live-node list.

/// Set of live node indices over a dense, growable id space.
#[derive(Debug, Clone)]
pub(crate) struct LiveSet {
    /// Bit `i % 64` of `words[i / 64]` is node `i`'s liveness.
    words: Vec<u64>,
    /// Fenwick tree over `words[..].count_ones()`: `tree[i]` covers the
    /// `lowbit(i + 1)` words ending at word `i`.
    tree: Vec<u32>,
    /// Number of ids (live and departed).
    len: usize,
    /// Number of set bits.
    live: usize,
}

impl LiveSet {
    /// `n` ids, all live.
    pub(crate) fn all_live(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *words.last_mut().expect("n > 0 has a word") = (1u64 << (n % 64)) - 1;
        }
        LiveSet {
            tree: fenwick_over(&words),
            words,
            len: n,
            live: n,
        }
    }

    /// Number of ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of live ids.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Whether id `i` is live.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "node id out of range");
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Appends one live id.
    pub(crate) fn push_live(&mut self) {
        let i = self.len;
        self.len += 1;
        if i.is_multiple_of(64) {
            // A fresh Fenwick slot starts as the sum of the slots it
            // covers; the new word itself is still empty.
            let w = self.words.len();
            let covered = self.prefix(w) - self.prefix(w & (w + 1));
            self.words.push(0);
            self.tree.push(covered);
        }
        self.set(i, true);
    }

    /// Sets id `i`'s liveness; returns whether it changed.
    pub(crate) fn set(&mut self, i: usize, live: bool) -> bool {
        if self.contains(i) == live {
            return false;
        }
        self.words[i / 64] ^= 1 << (i % 64);
        let mut w = i / 64;
        while w < self.tree.len() {
            if live {
                self.tree[w] += 1;
            } else {
                self.tree[w] -= 1;
            }
            w |= w + 1;
        }
        if live {
            self.live += 1;
        } else {
            self.live -= 1;
        }
        true
    }

    /// Live ids among the first `words` words.
    fn prefix(&self, words: usize) -> u32 {
        let (mut sum, mut w) = (0, words);
        while w > 0 {
            sum += self.tree[w - 1];
            w &= w - 1;
        }
        sum
    }

    /// The `k`-th live id in ascending order (0-based), or `None` when
    /// fewer than `k + 1` ids are live.
    pub(crate) fn select(&self, k: usize) -> Option<usize> {
        if k >= self.live {
            return None;
        }
        // Fenwick descent: the longest word prefix holding at most `k`
        // live ids ends just before the word with the answer.
        let mut rest = k as u32;
        let mut w = 0usize;
        let mut step = self.tree.len().next_power_of_two();
        while step > 0 {
            if w + step <= self.tree.len() && self.tree[w + step - 1] <= rest {
                w += step;
                rest -= self.tree[w - 1];
            }
            step /= 2;
        }
        let mut bits = self.words[w];
        for _ in 0..rest {
            bits &= bits - 1;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Checks the tree and the counter against the bitmap.
    pub(crate) fn check(&self) -> Result<(), String> {
        let counted: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        if counted != self.live {
            return Err(format!(
                "live count mismatch: {counted} bits set, {} recorded",
                self.live
            ));
        }
        if self.words.len() != self.len.div_ceil(64) || fenwick_over(&self.words) != self.tree {
            return Err("live rank tree out of sync with the bitmap".into());
        }
        Ok(())
    }
}

/// Fenwick tree over the popcounts of `words`, built in linear time.
fn fenwick_over(words: &[u64]) -> Vec<u32> {
    let mut tree: Vec<u32> = words.iter().map(|w| w.count_ones()).collect();
    for i in 0..tree.len() {
        let parent = i | (i + 1);
        if parent < tree.len() {
            tree[parent] += tree[i];
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(s: &LiveSet) -> Vec<usize> {
        (0..s.len()).filter(|&i| s.contains(i)).collect()
    }

    fn assert_matches_scan(s: &LiveSet) {
        let live = scan(s);
        assert_eq!(s.live(), live.len());
        for (k, &i) in live.iter().enumerate() {
            assert_eq!(s.select(k), Some(i), "select({k})");
        }
        assert_eq!(s.select(live.len()), None);
        s.check().unwrap();
    }

    #[test]
    fn all_live_selects_identity_at_word_edges() {
        for n in [0, 1, 63, 64, 65, 128, 200] {
            let s = LiveSet::all_live(n);
            assert_eq!(s.len(), n);
            assert_matches_scan(&s);
        }
    }

    #[test]
    fn flips_keep_select_in_step_with_a_scan() {
        let mut s = LiveSet::all_live(300);
        for i in (0..300).step_by(3) {
            assert!(s.set(i, false));
        }
        assert!(!s.set(0, false), "second departure reported a change");
        assert!(!s.set(1, true), "rejoin of a live id reported a change");
        assert_matches_scan(&s);
        for i in (0..300).step_by(6) {
            assert!(s.set(i, true));
        }
        assert_matches_scan(&s);
    }

    #[test]
    fn push_grows_across_word_boundaries() {
        let mut s = LiveSet::all_live(0);
        for i in 0..200 {
            s.push_live();
            if i % 5 == 0 {
                s.set(i, false);
            }
        }
        assert_eq!(s.len(), 200);
        assert_matches_scan(&s);
    }

    #[test]
    fn empty_words_are_skipped() {
        let mut s = LiveSet::all_live(256);
        for i in 0..256 {
            if i != 70 && i != 255 {
                s.set(i, false);
            }
        }
        assert_eq!(s.select(0), Some(70));
        assert_eq!(s.select(1), Some(255));
        assert_eq!(s.select(2), None);
    }
}
