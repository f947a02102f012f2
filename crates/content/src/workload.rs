//! Per-node libraries and query generation.
//!
//! A [`Library`] is the set of files a node shares; a [`WorkloadGen`]
//! owns one library + interest profile per node and produces the query
//! stream that drives a simulation. Both draw from the same interest
//! profile, producing the interest-based locality the routing heuristic
//! exploits. Per-node state lives in per-network tables, not a heap
//! block per node: the libraries in one arena ([`Libraries`]), the
//! profiles as one `nodes × k` topic table beside the one weight vector
//! they all share.

use crate::catalog::{Catalog, FileId, Topic};
use crate::interest;
use arq_simkern::{Rng64, Rows};

/// What a query asks for. Matching is by exact file — the Gnutella
/// analogue of "this set of keywords identifies the song I want". The
/// topic rides along for baselines (routing indices classify by topic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryKey {
    /// The file being searched for.
    pub file: FileId,
    /// The file's interest group.
    pub topic: Topic,
}

/// The files one node shares, read from a [`Libraries`] store: a
/// sorted, duplicate-free slice plus a 64-bit summary of the id ranges
/// it covers. Libraries hold tens of files and are probed on every
/// query delivery. Most probes miss, and the summary answers most misses
/// without reading the file list; the rest take one contiguous binary
/// search, which beats a tree walk.
#[derive(Debug, Clone, Copy)]
pub struct Library<'a> {
    files: &'a [FileId],
    /// Bit [`summary_bit`] of every file held. A clear bit proves a file
    /// absent; a set bit proves nothing.
    summary: u64,
}

/// File ids per summary bit. A catalog numbers each topic's files
/// contiguously and a library draws from a few topics, so its files
/// fall in few runs of ids; ids past `64 × SUMMARY_SPAN` wrap around.
const SUMMARY_SPAN: u32 = 128;

/// The summary bit of the id range `f` falls in.
#[inline]
fn summary_bit(f: FileId) -> u64 {
    1 << ((f.0 / SUMMARY_SPAN) % 64)
}

impl Library<'_> {
    /// Whether the library contains `f`.
    #[inline]
    pub fn contains(&self, f: FileId) -> bool {
        self.summary & summary_bit(f) != 0 && self.files.binary_search(&f).is_ok()
    }

    /// Whether this library can answer `q`.
    #[inline]
    pub fn matches(&self, q: QueryKey) -> bool {
        self.contains(q.file)
    }

    /// Number of shared files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the node shares nothing.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over shared files in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.iter().copied()
    }
}

/// Every node's library in one arena ([`Rows`]): row `i` holds node
/// `i`'s files in ascending id order, and its header carries the
/// summary beside the row's offsets, so a probe reads one header and a
/// summary miss touches nothing else. A library that outgrows its room
/// (downloads add files) moves to the arena's tail.
#[derive(Debug, Clone, Default)]
pub struct Libraries {
    rows: Rows<FileId, u64>,
}

impl Libraries {
    /// No libraries.
    pub fn new() -> Self {
        Libraries::default()
    }

    /// Number of libraries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no libraries.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Library `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Library<'_> {
        let (files, summary) = self.rows.row_meta(i);
        Library { files, summary }
    }

    /// Appends an empty library (free riders exist in real networks) and
    /// returns its index.
    pub fn push_empty(&mut self) -> usize {
        self.rows.push_row([], 0)
    }

    /// Adds `f` to library `i` (e.g. after a successful download —
    /// downloads spread content in real networks). Returns whether the
    /// file was new.
    pub fn insert(&mut self, i: usize, f: FileId) -> bool {
        let fresh = self.rows.insert_sorted(i, f);
        *self.rows.meta_mut(i) |= summary_bit(f);
        fresh
    }

    /// Appends a library of `n` distinct files drawn from interests
    /// `topics` weighted by `weights`, giving up after `50 n` draws.
    /// Duplicates are dropped by test-and-set in `seen`, a caller-owned
    /// bitmap of `catalog.len()` bits, all clear on entry and left clear
    /// on return, so each draw is O(1); the library is then read off the
    /// set bits in id order, already sorted.
    fn push_sampled(
        &mut self,
        catalog: &Catalog,
        (topics, weights): (&[Topic], &[f64]),
        n: usize,
        rng: &mut Rng64,
        seen: &mut [u64],
    ) -> usize {
        let mut distinct = 0;
        let mut guard = 0;
        while distinct < n && guard < n * 50 {
            let topic = interest::sample_topic(topics, weights, rng);
            let f = catalog.sample_file(topic, rng).0 as usize;
            let (word, bit) = (&mut seen[f / 64], 1 << (f % 64));
            distinct += usize::from(*word & bit == 0);
            *word |= bit;
            guard += 1;
        }
        let mut summary = 0;
        let files = seen.iter_mut().enumerate().flat_map(|(w, word)| {
            let mut bits = std::mem::take(word);
            std::iter::from_fn(move || {
                let b = (bits != 0).then(|| bits.trailing_zeros())?;
                bits &= bits - 1;
                Some(FileId((w * 64) as u32 + b))
            })
        });
        let i = self
            .rows
            .push_row(files.inspect(|&f| summary |= summary_bit(f)), 0);
        *self.rows.meta_mut(i) = summary;
        i
    }
}

/// Workload shape parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Interests per node.
    pub interests_per_node: usize,
    /// Shared files per node (mean; actual value is uniform in ±50%).
    pub files_per_node: usize,
    /// Fraction of nodes sharing nothing (free riders).
    pub free_rider_fraction: f64,
    /// Per-query probability that a node's profile drifts one step.
    pub drift_per_query: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            interests_per_node: 3,
            files_per_node: 60,
            free_rider_fraction: 0.2,
            drift_per_query: 0.0005,
        }
    }
}

/// Per-node state driving query generation.
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    /// Every node's interests, `weights.len()` topics per node,
    /// strongest first.
    topics: Vec<Topic>,
    /// The interest weights every node shares: each sampled profile
    /// weighs its interests by the same geometric decay.
    weights: Vec<f64>,
    libraries: Libraries,
}

impl WorkloadGen {
    /// Builds libraries and profiles for `n` nodes.
    pub fn generate(n: usize, catalog: &Catalog, cfg: WorkloadConfig, rng: &mut Rng64) -> Self {
        let weights = interest::sampled_weights(catalog.topic_count(), cfg.interests_per_node);
        let k = weights.len();
        let mut topics = Vec::with_capacity(n * k);
        let mut libraries = Libraries {
            rows: Rows::with_capacity(n, n * cfg.files_per_node),
        };
        let mut seen = vec![0; catalog.len().div_ceil(64)];
        for i in 0..n {
            interest::sample_topics(catalog.topic_count(), k, rng, &mut topics);
            if rng.chance(cfg.free_rider_fraction) {
                libraries.push_empty();
            } else {
                let lo = cfg.files_per_node / 2;
                let span = cfg.files_per_node.max(1);
                let count = lo + rng.index(span);
                let profile = (&topics[i * k..(i + 1) * k], &weights[..]);
                libraries.push_sampled(catalog, profile, count.max(1), rng, &mut seen);
            }
        }
        WorkloadGen {
            cfg,
            topics,
            weights,
            libraries,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.libraries.len()
    }

    /// Whether the workload covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.libraries.is_empty()
    }

    /// The library of node `i`.
    #[inline]
    pub fn library(&self, i: usize) -> Library<'_> {
        self.libraries.get(i)
    }

    /// Adds `f` to node `i`'s library (a download). Returns whether the
    /// file was new.
    pub fn add_file(&mut self, i: usize, f: FileId) -> bool {
        self.libraries.insert(i, f)
    }

    /// The interests of node `i`, strongest first.
    pub fn interests(&self, i: usize) -> &[Topic] {
        let k = self.weights.len();
        &self.topics[i * k..(i + 1) * k]
    }

    /// Generates the next query for node `i`, applying interest drift.
    pub fn next_query(&mut self, i: usize, catalog: &Catalog, rng: &mut Rng64) -> QueryKey {
        let k = self.weights.len();
        let topics = &mut self.topics[i * k..(i + 1) * k];
        let p = self.cfg.drift_per_query;
        interest::drift(topics, &self.weights, catalog.topic_count(), p, rng);
        let topic = interest::sample_topic(topics, &self.weights, rng);
        let file = catalog.sample_file(topic, rng);
        QueryKey { file, topic }
    }

    /// All nodes whose library can answer `q`: an O(nodes) scan, kept
    /// as the oracle of this crate's tests. The simulator keeps a live
    /// holder count per file instead.
    #[cfg(test)]
    pub(crate) fn holders(&self, q: QueryKey) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.library(i).matches(q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::InterestProfile;
    use std::collections::BTreeSet;

    /// Appends one library drawn from `profile` to `libs`.
    fn sample(
        libs: &mut Libraries,
        catalog: &Catalog,
        profile: &InterestProfile,
        n: usize,
        rng: &mut Rng64,
    ) -> usize {
        let mut seen = vec![0; catalog.len().div_ceil(64)];
        let profile = (profile.topics(), profile.weights());
        libs.push_sampled(catalog, profile, n, rng, &mut seen)
    }

    fn setup() -> (Catalog, WorkloadGen, Rng64) {
        let mut rng = Rng64::seed_from(42);
        let catalog = Catalog::generate(
            CatalogConfig {
                topics: 10,
                files_per_topic: 100,
                ..Default::default()
            },
            &mut rng,
        );
        let gen = WorkloadGen::generate(
            100,
            &catalog,
            WorkloadConfig {
                free_rider_fraction: 0.2,
                ..Default::default()
            },
            &mut rng,
        );
        (catalog, gen, rng)
    }

    #[test]
    fn library_sampling_respects_interests() {
        let mut rng = Rng64::seed_from(9);
        let catalog = Catalog::generate(
            CatalogConfig {
                topics: 10,
                files_per_topic: 50,
                ..Default::default()
            },
            &mut rng,
        );
        let profile = InterestProfile::from_pairs(&[(Topic(3), 1.0)]);
        let mut libs = Libraries::new();
        let i = sample(&mut libs, &catalog, &profile, 20, &mut rng);
        let lib = libs.get(i);
        assert!(!lib.is_empty());
        for f in lib.iter() {
            assert_eq!(catalog.meta(f).topic, Topic(3));
        }
    }

    /// The sorted-insert loop the bitmap sampling replaced.
    fn reference_sample(
        catalog: &Catalog,
        profile: &InterestProfile,
        n: usize,
        rng: &mut Rng64,
    ) -> Vec<FileId> {
        let mut lib = BTreeSet::new();
        let mut guard = 0;
        while lib.len() < n && guard < n * 50 {
            let topic = profile.sample_topic(rng);
            lib.insert(catalog.sample_file(topic, rng));
            guard += 1;
        }
        lib.into_iter().collect()
    }

    #[test]
    fn bitmap_sampling_equals_the_insert_loop() {
        let mut rng = Rng64::seed_from(0x5A3);
        // 7 × 50 = 350 files: the bitmap's last word is partly used.
        let catalogs = [
            CatalogConfig::default(),
            CatalogConfig {
                topics: 7,
                files_per_topic: 50,
                ..Default::default()
            },
        ]
        .map(|cfg| Catalog::generate(cfg, &mut rng));
        for catalog in &catalogs {
            let profiles = [
                InterestProfile::sample(catalog.topic_count(), 3, &mut rng),
                InterestProfile::from_pairs(&[(Topic(catalog.topic_count() as u16 - 1), 1.0)]),
            ];
            let mut seen = vec![0; catalog.len().div_ceil(64)];
            let mut libs = Libraries::new();
            for profile in &profiles {
                let weighted = (profile.topics(), profile.weights());
                for n in [1, 20, 90] {
                    for seed in 0..40 {
                        let mut a = Rng64::seed_from(seed);
                        let mut b = Rng64::seed_from(seed);
                        let i = libs.push_sampled(catalog, weighted, n, &mut a, &mut seen);
                        let want = reference_sample(catalog, profile, n, &mut b);
                        assert_eq!(libs.get(i).files, want, "n {n} seed {seed}");
                        assert_eq!(a.next_u64(), b.next_u64(), "n {n} seed {seed}: draws");
                        assert!(seen.iter().all(|&w| w == 0), "bitmap left dirty");
                    }
                }
            }
        }
    }

    /// The summary prefilter never changes an answer: for every file id,
    /// `contains` equals a linear scan of the file list, on sampled
    /// libraries and after inserts, over a catalog that leaves summary
    /// bits unused and one past the summary's range, where ids wrap onto
    /// the same bits.
    #[test]
    fn contains_equals_a_linear_scan() {
        let mut rng = Rng64::seed_from(0x5A5);
        for (topics, files_per_topic) in [(3, 40), (30, 500)] {
            let catalog = Catalog::generate(
                CatalogConfig {
                    topics,
                    files_per_topic,
                    ..Default::default()
                },
                &mut rng,
            );
            let n = catalog.len() as u32;
            assert_eq!(n > 64 * SUMMARY_SPAN, topics == 30, "one catalog wraps");
            let mut libs = Libraries::new();
            let empty = libs.push_empty();
            assert!((0..n).all(|f| !libs.get(empty).contains(FileId(f))));
            for _ in 0..20 {
                let profile = InterestProfile::sample(catalog.topic_count(), 3, &mut rng);
                sample(&mut libs, &catalog, &profile, 1 + rng.index(90), &mut rng);
            }
            for _ in 0..3 {
                for i in 0..libs.len() {
                    let lib = libs.get(i);
                    let mut held = vec![false; n as usize];
                    for f in lib.iter() {
                        held[f.0 as usize] = true;
                    }
                    for f in 0..n {
                        assert_eq!(lib.contains(FileId(f)), held[f as usize], "file {f}");
                    }
                }
                for _ in 0..10 * libs.len() {
                    let i = rng.index(libs.len());
                    libs.insert(i, FileId(rng.below(u64::from(n)) as u32));
                }
            }
        }
    }

    #[test]
    fn single_topic_libraries_stay_in_topic_and_size() {
        let mut rng = Rng64::seed_from(0x5A4);
        for _ in 0..100 {
            let catalog = Catalog::generate(
                CatalogConfig {
                    topics: 8,
                    files_per_topic: 50,
                    ..Default::default()
                },
                &mut rng,
            );
            let topic = Topic(rng.index(8) as u16);
            let n = 1 + rng.index(39);
            let profile = InterestProfile::from_pairs(&[(topic, 1.0)]);
            let mut libs = Libraries::new();
            let i = sample(&mut libs, &catalog, &profile, n, &mut rng);
            let lib = libs.get(i);
            assert!(!lib.is_empty());
            assert!(lib.len() <= n);
            for f in lib.iter() {
                assert_eq!(catalog.meta(f).topic, topic);
            }
        }
    }

    #[test]
    fn free_riders_exist_in_expected_proportion() {
        let (_, gen, _) = setup();
        let free = (0..gen.len())
            .filter(|&i| gen.library(i).is_empty())
            .count();
        assert!((10..=35).contains(&free), "free riders {free}/100");
    }

    #[test]
    fn queries_are_answerable_by_someone_usually() {
        let (catalog, mut gen, mut rng) = setup();
        let mut answered = 0;
        let total = 500;
        for q in 0..total {
            let node = q % gen.len();
            let query = gen.next_query(node, &catalog, &mut rng);
            if !gen.holders(query).is_empty() {
                answered += 1;
            }
        }
        // Popular files are widely replicated; most queries should have at
        // least one holder somewhere in a 100-node network.
        assert!(
            answered * 10 > total * 5,
            "only {answered}/{total} answerable"
        );
    }

    #[test]
    fn interest_locality_biases_queries_to_profile_topics() {
        let (catalog, mut gen, mut rng) = setup();
        let profile_topics: BTreeSet<Topic> = gen.interests(0).iter().copied().collect();
        let mut in_profile = 0;
        for _ in 0..200 {
            let q = gen.next_query(0, &catalog, &mut rng);
            if profile_topics.contains(&q.topic) {
                in_profile += 1;
            }
        }
        // Drift may rotate a topic occasionally; the vast majority of
        // queries still come from the (current) profile.
        assert!(in_profile > 150, "only {in_profile}/200 in-profile");
    }

    #[test]
    fn holders_reports_exactly_matching_nodes() {
        let (catalog, mut gen, mut rng) = setup();
        let q = gen.next_query(0, &catalog, &mut rng);
        for &h in &gen.holders(q) {
            assert!(gen.library(h).matches(q));
        }
        // insertion updates holders
        let before = gen.holders(q).len();
        let target = (0..gen.len())
            .find(|&i| !gen.library(i).matches(q))
            .unwrap();
        assert!(gen.add_file(target, q.file));
        assert_eq!(gen.holders(q).len(), before + 1);
    }

    #[test]
    fn query_key_equality_is_by_file() {
        let a = QueryKey {
            file: FileId(5),
            topic: Topic(1),
        };
        let b = QueryKey {
            file: FileId(5),
            topic: Topic(1),
        };
        assert_eq!(a, b);
    }
}
