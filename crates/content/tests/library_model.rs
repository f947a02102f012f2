//! Hand-rolled property tests for the flat [`Library`]: the sorted
//! `Vec` must behave exactly like the `BTreeSet` it replaced, and
//! library sampling must consume exactly the RNG draws it always did.
//! Cases come from a seeded [`Rng64`] stream (the workspace builds
//! offline, so no external property-testing crate).

use arq_content::{Catalog, CatalogConfig, FileId, Library, WorkloadConfig, WorkloadGen};
use arq_simkern::rng::{fnv1a, Rng64};
use std::collections::BTreeSet;

#[test]
fn library_behaves_like_a_btreeset_under_random_ops() {
    for case in 0..200u64 {
        let mut rng = Rng64::seed_from(0x11B ^ case);
        let universe = 1 + rng.index(120) as u32;
        let mut lib = Library::empty();
        let mut model = BTreeSet::new();
        for _ in 0..rng.index(300) {
            let f = FileId(rng.below(u64::from(universe)) as u32);
            if rng.chance(0.6) {
                assert_eq!(lib.insert(f), model.insert(f), "case {case}: insert {f:?}");
            } else {
                assert_eq!(
                    lib.contains(f),
                    model.contains(&f),
                    "case {case}: contains {f:?}"
                );
            }
            assert_eq!(lib.len(), model.len(), "case {case}");
            assert_eq!(lib.is_empty(), model.is_empty(), "case {case}");
        }
        let files: Vec<FileId> = lib.iter().collect();
        let expect: Vec<FileId> = model.iter().copied().collect();
        assert_eq!(files, expect, "case {case}: iteration order");
    }
}

/// FNV digest of every library of a 1000-node workload plus the next
/// draw of the generating stream, recorded from the `BTreeSet`
/// implementation. A changed file, order or draw count moves it.
#[test]
fn generate_yields_the_same_libraries_from_the_same_draws() {
    let mut rng = Rng64::seed_from(20060814);
    let catalog = Catalog::generate(CatalogConfig::default(), &mut rng);
    let gen = WorkloadGen::generate(1000, &catalog, WorkloadConfig::default(), &mut rng);
    let mut bytes = Vec::new();
    for i in 0..gen.len() {
        let lib = gen.library(i);
        bytes.extend_from_slice(&(lib.len() as u32).to_le_bytes());
        for f in lib.iter() {
            bytes.extend_from_slice(&f.0.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    assert_eq!(fnv1a(&bytes), 0xf2dc_f0be_01ab_db02, "library digest moved");
}
