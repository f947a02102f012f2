//! Host-pair rule sets — the paper's §III-B specialization.
//!
//! Routing rules have the form `{host1} → {host2}`: `host1` is a neighbor
//! that forwarded queries to us, `host2` a neighbor through which replies
//! to those queries came back. Because antecedent and consequent are
//! singletons, mining reduces to counting `(src, via)` combinations in a
//! block and pruning the ones seen fewer than `min_support` times
//! ("support pruning"), exactly as the paper's simulator stored them:
//!
//! > "The database table representing the rule sets contains three values
//! > for each entry: the host from which one or more queries were
//! > received, a node that returned a reply message in response to one of
//! > those queries, and the number of times that that node sent reply
//! > messages in response to queries sent from the node that forwarded
//! > the query."

use arq_simkern::hash::IntMap;
use arq_trace::columns::{pack_pair, unpack_pair};
use arq_trace::record::{HostId, PairRecord};

/// A mined rule set: antecedent host → consequent hosts ranked by
/// descending support (ties broken by host id for determinism).
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: IntMap<HostId, Vec<(HostId, u64)>>,
    min_support: u64,
    source_pairs: usize,
}

impl RuleSet {
    /// An empty rule set (matches nothing).
    pub fn empty() -> Self {
        RuleSet::default()
    }

    /// Builds a rule set from explicit `(src, via, count)` rows, applying
    /// the same support pruning and ranking as [`mine_pairs`]. Used by
    /// alternative counting backends (e.g. the streaming maintainer).
    /// Each `(src, via)` pair must appear at most once: rows are not
    /// merged, so a repeated pair would be ranked twice.
    pub fn from_rows(
        rows: impl IntoIterator<Item = (HostId, HostId, u64)>,
        min_support: u64,
        source_pairs: usize,
    ) -> Self {
        Self::from_count_rows(rows.into_iter(), min_support, source_pairs)
    }

    /// The shared build step behind every counting backend: support
    /// pruning, grouping by antecedent, and the deterministic
    /// (descending support, ascending host id) consequent ranking. The
    /// ranking is a total order, so the resulting rule set is identical
    /// no matter which order the rows arrive in.
    fn from_count_rows(
        rows: impl Iterator<Item = (HostId, HostId, u64)>,
        min_support: u64,
        source_pairs: usize,
    ) -> Self {
        let mut rules: IntMap<HostId, Vec<(HostId, u64)>> = IntMap::default();
        for (src, via, count) in rows {
            if count >= min_support {
                rules.entry(src).or_default().push((via, count));
            }
        }
        for conseq in rules.values_mut() {
            conseq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        RuleSet {
            rules,
            min_support,
            source_pairs,
        }
    }

    /// [`Self::from_count_rows`] specialized to packed keys: `rows` is a
    /// pre-pruned scratch buffer that gets sorted in place. Sorting by
    /// the packed key groups each antecedent contiguously (it owns the
    /// high 32 bits), so the map gets one insert per antecedent instead
    /// of one lookup per rule — and the buffer's allocation survives in
    /// the caller for the next block.
    fn from_packed_rows(rows: &mut [(u64, u64)], min_support: u64, source_pairs: usize) -> Self {
        rows.sort_unstable_by_key(|&(key, _)| key);
        let mut rules: IntMap<HostId, Vec<(HostId, u64)>> = IntMap::default();
        let mut i = 0;
        while i < rows.len() {
            let src = rows[i].0 >> 32;
            let mut j = i + 1;
            while j < rows.len() && rows[j].0 >> 32 == src {
                j += 1;
            }
            let mut conseq: Vec<(HostId, u64)> = rows[i..j]
                .iter()
                .map(|&(key, c)| (unpack_pair(key).1, c))
                .collect();
            conseq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            rules.insert(HostId(src as u32), conseq);
            i = j;
        }
        RuleSet {
            rules,
            min_support,
            source_pairs,
        }
    }

    /// Whether any rule has `src` as antecedent.
    #[inline]
    pub fn has_antecedent(&self, src: HostId) -> bool {
        self.rules.contains_key(&src)
    }

    /// The ranked consequents for `src` (empty slice when uncovered).
    pub fn consequents(&self, src: HostId) -> &[(HostId, u64)] {
        self.rules.get(&src).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The top-`k` consequent hosts for `src` by support.
    pub fn top_k(&self, src: HostId, k: usize) -> impl Iterator<Item = HostId> + '_ {
        self.consequents(src).iter().take(k).map(|&(h, _)| h)
    }

    /// Whether the rule `{src} → {via}` is present.
    pub fn matches(&self, src: HostId, via: HostId) -> bool {
        self.consequents(src).iter().any(|&(h, _)| h == via)
    }

    /// Total number of rules (antecedent–consequent pairs).
    pub fn rule_count(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// Number of distinct antecedents.
    pub fn antecedent_count(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The support threshold the set was pruned with.
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// How many query–reply pairs the set was mined from.
    pub fn source_pairs(&self) -> usize {
        self.source_pairs
    }

    /// Iterates over `(antecedent, consequent, support)` rows, in map
    /// order: it differs between two equal sets, so sort the rows before
    /// anything observable depends on their order.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, HostId, u64)> + '_ {
        self.rules
            .iter()
            .flat_map(|(&src, conseq)| conseq.iter().map(move |&(via, c)| (src, via, c)))
    }

    /// FNV-1a digest over the canonically sorted rule rows plus the
    /// pruning threshold. Two rule sets holding the same rules at the
    /// same threshold digest identically regardless of construction
    /// order or backend — this is the equality the serve checkpoint
    /// contract is stated over. (`source_pairs` is provenance, not a
    /// rule, and deliberately stays out of the digest.)
    pub fn digest(&self) -> u64 {
        let mut rows: Vec<(u32, u32, u64)> = self
            .iter()
            .map(|(src, via, count)| (src.0, via.0, count))
            .collect();
        rows.sort_unstable();
        let mut bytes = Vec::with_capacity(8 + rows.len() * 16);
        bytes.extend_from_slice(&self.min_support.to_le_bytes());
        for (src, via, count) in rows {
            bytes.extend_from_slice(&src.to_le_bytes());
            bytes.extend_from_slice(&via.to_le_bytes());
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        arq_simkern::rng::fnv1a(&bytes)
    }
}

/// Mines a rule set from a block: counts `(src, via)` combinations and
/// prunes those seen fewer than `min_support` times.
pub fn mine_pairs(block: &[PairRecord], min_support: u64) -> RuleSet {
    assert!(min_support >= 1, "support threshold must be at least 1");
    let mut counts: IntMap<(HostId, HostId), u64> = IntMap::default();
    for p in block {
        *counts.entry((p.src, p.via)).or_insert(0) += 1;
    }
    RuleSet::from_count_rows(
        counts.into_iter().map(|((s, v), c)| (s, v, c)),
        min_support,
        block.len(),
    )
}

/// Mines with an additional confidence cut (§VI extension, experiment
/// E9): a rule `{src} → {via}` survives only if
/// `count(src, via) / count(src, ·) >= min_confidence`.
pub fn mine_pairs_with_confidence(
    block: &[PairRecord],
    min_support: u64,
    min_confidence: f64,
) -> RuleSet {
    assert!(min_support >= 1, "support threshold must be at least 1");
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence threshold out of range"
    );
    let mut counts: IntMap<(HostId, HostId), u64> = IntMap::default();
    let mut src_totals: IntMap<HostId, u64> = IntMap::default();
    for p in block {
        *counts.entry((p.src, p.via)).or_insert(0) += 1;
        *src_totals.entry(p.src).or_insert(0) += 1;
    }
    counts.retain(|(src, _), count| *count as f64 / src_totals[src] as f64 >= min_confidence);
    RuleSet::from_count_rows(
        counts.into_iter().map(|((s, v), c)| (s, v, c)),
        min_support,
        block.len(),
    )
}

/// Fibonacci multiplicative mix of the packed pair key: one xor-fold so
/// both host ids reach the low word, one golden-ratio multiply. The
/// mixing lands in the high bits, so [`PackedCounts`] indexes from bit
/// 32 down. A single multiply beats SipHash-on-a-tuple by an order of
/// magnitude on this workload, and the table only needs uniformity, not
/// keyed DoS resistance.
#[inline]
fn mix(key: u64) -> u64 {
    (key ^ (key >> 33)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Open-addressed `(packed pair key → count)` table: the scratch arena
/// behind [`PairMiner`]. Linear probing over power-of-two storage,
/// with key and count interleaved in one slot so each probe touches a
/// single cache line; a slot is empty iff its count is zero (counts are
/// always ≥ 1 once a key is inserted, so the zero key needs no
/// sentinel). `clear` resets the slots in place — re-mining a new block
/// reuses the allocation.
#[derive(Debug, Clone)]
struct PackedCounts {
    /// `(key, count)` slots; `count == 0` marks an empty slot.
    slots: Vec<(u64, u64)>,
    len: usize,
}

impl PackedCounts {
    const MIN_CAPACITY: usize = 64;

    fn new() -> Self {
        PackedCounts {
            slots: vec![(0, 0); Self::MIN_CAPACITY],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.slots.fill((0, 0));
        self.len = 0;
    }

    /// Adds `amount` to `key`'s count, growing at 50% load so probe
    /// chains stay short.
    #[inline]
    fn add(&mut self, key: u64, amount: u64) {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        // Index from bit 32 down: that is where the multiplicative mix
        // concentrates its avalanche (tables stay far below 2^32 slots).
        let mut i = ((mix(key) >> 32) as usize) & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.1 == 0 {
                *slot = (key, amount);
                self.len += 1;
                return;
            }
            if slot.0 == key {
                slot.1 += amount;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); new_cap]);
        self.len = 0;
        for (key, count) in old {
            if count > 0 {
                self.add(key, count);
            }
        }
    }

    /// Occupied `(key, count)` slots, in table order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots.iter().filter(|&&(_, c)| c > 0).copied()
    }
}

/// A reusable pair miner.
///
/// Produces exactly the rule set [`mine_pairs`] would — same support
/// pruning, same consequent ranking — but counts packed `(src, via)`
/// keys in an open-addressed scratch table that persists across calls.
///
/// Keep one of these alive across re-mines to avoid reallocating the
/// count table every block — the allocation-lean path the block
/// strategies use.
#[derive(Debug, Clone)]
pub struct PairMiner {
    table: PackedCounts,
    rows: Vec<(u64, u64)>,
}

impl Default for PairMiner {
    fn default() -> Self {
        Self::new()
    }
}

impl PairMiner {
    /// A miner with empty scratch storage.
    pub fn new() -> Self {
        PairMiner {
            table: PackedCounts::new(),
            rows: Vec::new(),
        }
    }

    /// Mines `block` with support pruning at `min_support`; equivalent
    /// to [`mine_pairs`] on the same input.
    pub fn mine(&mut self, block: &[PairRecord], min_support: u64) -> RuleSet {
        assert!(min_support >= 1, "support threshold must be at least 1");
        self.table.clear();
        for p in block {
            self.table.add(pack_pair(p.src, p.via), 1);
        }
        self.rows.clear();
        self.rows
            .extend(self.table.iter().filter(|&(_, c)| c >= min_support));
        RuleSet::from_packed_rows(&mut self.rows, min_support, block.len())
    }
}

/// `len` pairs with sources `0..10` answered via `100..110` at random,
/// for the seeded property loops.
#[cfg(test)]
pub(crate) fn random_pairs(rng: &mut arq_simkern::Rng64, len: usize) -> Vec<PairRecord> {
    (0..len)
        .map(|i| PairRecord {
            time: arq_simkern::SimTime::from_ticks(i as u64),
            guid: arq_trace::record::Guid(i as u128),
            src: HostId(rng.below(10) as u32),
            via: HostId(100 + rng.below(10) as u32),
            responder: HostId(999),
            query: arq_trace::record::QueryId(0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_simkern::SimTime;
    use arq_trace::record::{Guid, QueryId};

    fn pair(i: u64, src: u32, via: u32) -> PairRecord {
        PairRecord {
            time: SimTime::from_ticks(i),
            guid: Guid(u128::from(i)),
            src: HostId(src),
            via: HostId(via),
            responder: HostId(999),
            query: QueryId(0),
        }
    }

    /// Block: host 1 answered 5x via 10, 3x via 11, 1x via 12;
    /// host 2 answered 2x via 10.
    fn block() -> Vec<PairRecord> {
        let mut v = Vec::new();
        let mut i = 0;
        for _ in 0..5 {
            v.push(pair(i, 1, 10));
            i += 1;
        }
        for _ in 0..3 {
            v.push(pair(i, 1, 11));
            i += 1;
        }
        v.push(pair(i, 1, 12));
        i += 1;
        for _ in 0..2 {
            v.push(pair(i, 2, 10));
            i += 1;
        }
        v
    }

    #[test]
    fn support_pruning() {
        let rs = mine_pairs(&block(), 2);
        assert!(rs.matches(HostId(1), HostId(10)));
        assert!(rs.matches(HostId(1), HostId(11)));
        assert!(
            !rs.matches(HostId(1), HostId(12)),
            "support-1 rule survived"
        );
        assert!(rs.matches(HostId(2), HostId(10)));
        assert_eq!(rs.rule_count(), 3);
        assert_eq!(rs.antecedent_count(), 2);
        assert_eq!(rs.source_pairs(), 11);
        assert_eq!(rs.min_support(), 2);
    }

    #[test]
    fn higher_threshold_gives_subset() {
        let loose = mine_pairs(&block(), 1);
        let tight = mine_pairs(&block(), 4);
        assert!(tight.rule_count() < loose.rule_count());
        for (src, via, _) in tight.iter() {
            assert!(loose.matches(src, via));
        }
    }

    #[test]
    fn consequents_ranked_by_support() {
        let rs = mine_pairs(&block(), 1);
        let ranked: Vec<(HostId, u64)> = rs.consequents(HostId(1)).to_vec();
        assert_eq!(
            ranked,
            vec![(HostId(10), 5), (HostId(11), 3), (HostId(12), 1)]
        );
        let top2: Vec<HostId> = rs.top_k(HostId(1), 2).collect();
        assert_eq!(top2, vec![HostId(10), HostId(11)]);
    }

    #[test]
    fn rank_ties_break_by_host_id() {
        let mut v = Vec::new();
        for i in 0..3 {
            v.push(pair(i, 1, 30));
        }
        for i in 3..6 {
            v.push(pair(i, 1, 20));
        }
        let rs = mine_pairs(&v, 1);
        let ranked: Vec<HostId> = rs.top_k(HostId(1), 5).collect();
        assert_eq!(ranked, vec![HostId(20), HostId(30)]);
    }

    #[test]
    fn uncovered_antecedent() {
        let rs = mine_pairs(&block(), 1);
        assert!(!rs.has_antecedent(HostId(99)));
        assert!(rs.consequents(HostId(99)).is_empty());
        assert_eq!(rs.top_k(HostId(99), 3).count(), 0);
        assert!(!rs.matches(HostId(99), HostId(10)));
    }

    #[test]
    fn empty_block_and_empty_ruleset() {
        let rs = mine_pairs(&[], 1);
        assert!(rs.is_empty());
        assert_eq!(rs.rule_count(), 0);
        let e = RuleSet::empty();
        assert!(!e.has_antecedent(HostId(0)));
    }

    #[test]
    fn confidence_pruning_cuts_minor_routes() {
        // host 1: via 10 has confidence 5/9, via 11 -> 3/9, via 12 -> 1/9.
        let rs = mine_pairs_with_confidence(&block(), 1, 0.34);
        assert!(rs.matches(HostId(1), HostId(10)));
        assert!(!rs.matches(HostId(1), HostId(11)));
        assert!(!rs.matches(HostId(1), HostId(12)));
        // host 2: via 10 has confidence 1.0.
        assert!(rs.matches(HostId(2), HostId(10)));
    }

    #[test]
    fn confidence_zero_equals_plain_mining() {
        let a = mine_pairs(&block(), 2);
        let b = mine_pairs_with_confidence(&block(), 2, 0.0);
        let mut ra: Vec<_> = a.iter().collect();
        let mut rb: Vec<_> = b.iter().collect();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
    }

    #[test]
    fn iter_exposes_all_rules() {
        let rs = mine_pairs(&block(), 1);
        let mut rows: Vec<_> = rs.iter().collect();
        rows.sort_unstable();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], (HostId(1), HostId(10), 5));
    }

    fn sorted_rows(rs: &RuleSet) -> Vec<(HostId, HostId, u64)> {
        let mut rows: Vec<_> = rs.iter().collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn miner_scratch_reuse_is_stateless_across_blocks() {
        let mut miner = PairMiner::new();
        // Mine a large block, then an empty one, then a small one at
        // every threshold, then re-mine the first: residue from earlier
        // blocks must never leak into later ones.
        let a: Vec<PairRecord> = (0..20_000u64)
            .map(|i| pair(i, (i % 13) as u32, (i % 7) as u32 + 50))
            .collect();
        let b = block();
        let first = miner.mine(&a, 3);
        let empty = miner.mine(&[], 1);
        assert!(empty.is_empty());
        assert_eq!(empty.source_pairs(), 0);
        for threshold in 1..=5 {
            let mined = miner.mine(&b, threshold);
            let reference = mine_pairs(&b, threshold);
            assert_eq!(
                sorted_rows(&mined),
                sorted_rows(&reference),
                "threshold {threshold}"
            );
            assert_eq!(mined.min_support(), reference.min_support());
            assert_eq!(mined.source_pairs(), reference.source_pairs());
        }
        assert_eq!(sorted_rows(&miner.mine(&a, 3)), sorted_rows(&first));
        assert_eq!(sorted_rows(&first), sorted_rows(&mine_pairs(&a, 3)));
    }

    #[test]
    fn zero_host_ids_are_real_keys() {
        // (0, 0) packs to key 0 — the table must not confuse it with an
        // empty slot.
        let zeros: Vec<PairRecord> = (0..10).map(|i| pair(i, 0, 0)).collect();
        let rs = PairMiner::new().mine(&zeros, 1);
        assert!(rs.matches(HostId(0), HostId(0)));
        assert_eq!(rs.consequents(HostId(0)), &[(HostId(0), 10)]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sharded_rejects_zero_support() {
        PairMiner::new().mine(&block(), 0);
    }

    /// On random blocks, empty ones included: raising the support
    /// threshold mines a subset, confidence mining at zero is plain
    /// mining, and the packed miner (reused across blocks) equals
    /// `mine_pairs`, ranked consequent lists included.
    #[test]
    fn mining_laws_hold_on_random_blocks() {
        let mut rng = arq_simkern::Rng64::seed_from(0xB10C);
        let mut miner = PairMiner::new();
        for case in 0..60 {
            let len = rng.index(300);
            let pairs = random_pairs(&mut rng, len);
            let lo = 1 + rng.below(4);
            let hi = lo + rng.below(10);
            let (loose, tight) = (mine_pairs(&pairs, lo), mine_pairs(&pairs, hi));
            for (src, via, count) in tight.iter() {
                assert!(count >= hi && loose.matches(src, via), "case {case}");
            }
            assert!(tight.rule_count() <= loose.rule_count());
            let zero = mine_pairs_with_confidence(&pairs, lo, 0.0);
            assert_eq!(sorted_rows(&zero), sorted_rows(&loose), "case {case}");
            let packed = miner.mine(&pairs, lo);
            assert_eq!(sorted_rows(&packed), sorted_rows(&loose), "case {case}");
            assert_eq!(packed.antecedent_count(), loose.antecedent_count());
            for p in &pairs {
                assert_eq!(packed.consequents(p.src), loose.consequents(p.src));
            }
        }
    }
}
