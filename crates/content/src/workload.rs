//! Per-node libraries and query generation.
//!
//! A [`Library`] is the set of files a node shares; a [`WorkloadGen`]
//! owns one library + interest profile per node and produces the query
//! stream that drives a simulation. Both draw from the same interest
//! profile, producing the interest-based locality the routing heuristic
//! exploits.

use crate::catalog::{Catalog, FileId, Topic};
use crate::interest::InterestProfile;
use arq_simkern::Rng64;

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

/// The set of files one node shares: a sorted, duplicate-free `Vec`
/// plus a 64-bit summary of the id ranges it covers. Libraries hold
/// tens of files and are probed on every query delivery. Most probes
/// miss, and the summary answers most misses without reading the file
/// list; the rest take one contiguous binary search, which beats a tree
/// walk. Sampling builds the list without sorting or shifting: draws
/// are deduplicated in a catalog-wide bitmap and the `Vec` is read off
/// its set bits in id order.
#[derive(Debug, Clone, Default)]
pub struct Library {
    files: Vec<FileId>,
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

impl Library {
    /// An empty library (free riders exist in real networks).
    pub fn empty() -> Self {
        Library::default()
    }

    /// Fills a library with `n` distinct files drawn from the node's
    /// interests, giving up after `50 n` draws. Duplicates are dropped by
    /// test-and-set in a bitmap over the catalog, so each draw is O(1);
    /// the library is then read off the set bits in id order, already
    /// sorted.
    pub fn sample(catalog: &Catalog, profile: &InterestProfile, n: usize, rng: &mut Rng64) -> Self {
        let mut seen = vec![0; catalog.len().div_ceil(64)];
        Library::sample_with(catalog, profile, n, rng, &mut seen)
    }

    /// [`Library::sample`] with a caller-owned bitmap of
    /// `catalog.len()` bits, all clear on entry and left clear on return.
    fn sample_with(
        catalog: &Catalog,
        profile: &InterestProfile,
        n: usize,
        rng: &mut Rng64,
        seen: &mut [u64],
    ) -> Self {
        let mut distinct = 0;
        let mut guard = 0;
        while distinct < n && guard < n * 50 {
            let topic = profile.sample_topic(rng);
            let f = catalog.sample_file(topic, rng).0 as usize;
            let (word, bit) = (&mut seen[f / 64], 1 << (f % 64));
            distinct += usize::from(*word & bit == 0);
            *word |= bit;
            guard += 1;
        }
        let mut files = Vec::with_capacity(distinct);
        let mut summary = 0;
        for (w, word) in seen.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let f = FileId((w * 64) as u32 + bits.trailing_zeros());
                files.push(f);
                summary |= summary_bit(f);
                bits &= bits - 1;
            }
        }
        Library { files, summary }
    }

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

    /// Adds a file (e.g. after a successful download — downloads spread
    /// content in real networks). Returns whether the file was new.
    pub fn insert(&mut self, f: FileId) -> bool {
        match self.files.binary_search(&f) {
            Ok(_) => false,
            Err(pos) => {
                self.files.insert(pos, f);
                self.summary |= summary_bit(f);
                true
            }
        }
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
    profiles: Vec<InterestProfile>,
    libraries: Vec<Library>,
}

impl WorkloadGen {
    /// Builds libraries and profiles for `n` nodes.
    pub fn generate(n: usize, catalog: &Catalog, cfg: WorkloadConfig, rng: &mut Rng64) -> Self {
        let mut profiles = Vec::with_capacity(n);
        let mut libraries = Vec::with_capacity(n);
        let mut seen = vec![0; catalog.len().div_ceil(64)];
        for _ in 0..n {
            let profile =
                InterestProfile::sample(catalog.topic_count(), cfg.interests_per_node, rng);
            let lib = if rng.chance(cfg.free_rider_fraction) {
                Library::empty()
            } else {
                let lo = cfg.files_per_node / 2;
                let span = cfg.files_per_node.max(1);
                let count = lo + rng.index(span);
                Library::sample_with(catalog, &profile, count.max(1), rng, &mut seen)
            };
            profiles.push(profile);
            libraries.push(lib);
        }
        WorkloadGen {
            cfg,
            profiles,
            libraries,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the workload covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The library of node `i`.
    pub fn library(&self, i: usize) -> &Library {
        &self.libraries[i]
    }

    /// Mutable library access (downloads).
    pub fn library_mut(&mut self, i: usize) -> &mut Library {
        &mut self.libraries[i]
    }

    /// The interest profile of node `i`.
    pub fn profile(&self, i: usize) -> &InterestProfile {
        &self.profiles[i]
    }

    /// Generates the next query for node `i`, applying interest drift.
    pub fn next_query(&mut self, i: usize, catalog: &Catalog, rng: &mut Rng64) -> QueryKey {
        self.profiles[i].drift(catalog.topic_count(), self.cfg.drift_per_query, rng);
        let topic = self.profiles[i].sample_topic(rng);
        let file = catalog.sample_file(topic, rng);
        QueryKey { file, topic }
    }

    /// All nodes whose library can answer `q`: an O(nodes) scan, kept
    /// as the oracle of this crate's tests. The simulator keeps a live
    /// holder count per file instead.
    #[cfg(test)]
    pub(crate) fn holders(&self, q: QueryKey) -> Vec<usize> {
        self.libraries
            .iter()
            .enumerate()
            .filter(|(_, lib)| lib.matches(q))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use std::collections::BTreeSet;

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
        let lib = Library::sample(&catalog, &profile, 20, &mut rng);
        assert!(!lib.is_empty());
        for f in lib.iter() {
            assert_eq!(catalog.meta(f).topic, Topic(3));
        }
    }

    /// The sorted-insert loop `Library::sample` replaced.
    fn reference_sample(
        catalog: &Catalog,
        profile: &InterestProfile,
        n: usize,
        rng: &mut Rng64,
    ) -> Library {
        let mut lib = Library::empty();
        let mut guard = 0;
        while lib.len() < n && guard < n * 50 {
            let topic = profile.sample_topic(rng);
            lib.insert(catalog.sample_file(topic, rng));
            guard += 1;
        }
        lib
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
            for profile in &profiles {
                for n in [1, 20, 90] {
                    for seed in 0..40 {
                        let mut a = Rng64::seed_from(seed);
                        let mut b = Rng64::seed_from(seed);
                        let got = Library::sample_with(catalog, profile, n, &mut a, &mut seen);
                        let want = reference_sample(catalog, profile, n, &mut b);
                        assert_eq!(got.files, want.files, "n {n} seed {seed}");
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
            let empty = Library::empty();
            assert!((0..n).all(|f| !empty.contains(FileId(f))));
            for _ in 0..20 {
                let profile = InterestProfile::sample(catalog.topic_count(), 3, &mut rng);
                let mut lib = Library::sample(&catalog, &profile, 1 + rng.index(90), &mut rng);
                for _ in 0..3 {
                    let mut held = vec![false; n as usize];
                    for f in lib.iter() {
                        held[f.0 as usize] = true;
                    }
                    for f in 0..n {
                        assert_eq!(lib.contains(FileId(f)), held[f as usize], "file {f}");
                    }
                    for _ in 0..10 {
                        lib.insert(FileId(rng.below(u64::from(n)) as u32));
                    }
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
            let lib = Library::sample(&catalog, &profile, n, &mut rng);
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
        let profile_topics: BTreeSet<Topic> = gen.profile(0).topics().iter().copied().collect();
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
        gen.library_mut(target).insert(q.file);
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
