//! Hand-rolled property tests for the flat [`Libraries`] store: each
//! library, a sorted row of one arena, must behave exactly like the
//! `BTreeSet` it replaced, and library sampling must consume exactly the
//! RNG draws it always did.
//! Cases come from a seeded [`Rng64`] stream (the workspace builds
//! offline, so no external property-testing crate).

use arq_content::{Catalog, CatalogConfig, FileId, Libraries, WorkloadConfig, WorkloadGen};
use arq_simkern::rng::{fnv1a, Rng64};
use std::collections::BTreeSet;

#[test]
fn library_behaves_like_a_btreeset_under_random_ops() {
    for case in 0..200u64 {
        let mut rng = Rng64::seed_from(0x11B ^ case);
        let universe = 1 + rng.index(120) as u32;
        let mut libs = Libraries::new();
        let i = libs.push_empty();
        let mut model = BTreeSet::new();
        for _ in 0..rng.index(300) {
            let f = FileId(rng.below(u64::from(universe)) as u32);
            if rng.chance(0.6) {
                assert_eq!(
                    libs.insert(i, f),
                    model.insert(f),
                    "case {case}: insert {f:?}"
                );
            } else {
                assert_eq!(
                    libs.get(i).contains(f),
                    model.contains(&f),
                    "case {case}: contains {f:?}"
                );
            }
            assert_eq!(libs.get(i).len(), model.len(), "case {case}");
            assert_eq!(libs.get(i).is_empty(), model.is_empty(), "case {case}");
        }
        let files: Vec<FileId> = libs.get(i).iter().collect();
        let expect: Vec<FileId> = model.iter().copied().collect();
        assert_eq!(files, expect, "case {case}: iteration order");
    }
}

/// A generated workload's libraries, one arena of rows, each against
/// its own `BTreeSet` under interleaved inserts (downloads) that move
/// rows to the arena's tail: `insert`, `contains` and `iter` agree after
/// every step, and no row's edit disturbs another's.
#[test]
fn library_store_behaves_like_btreesets_under_random_downloads() {
    for case in 0..24u64 {
        let mut rng = Rng64::seed_from(0x11C ^ case);
        let catalog = Catalog::generate(
            CatalogConfig {
                topics: 1 + rng.index(8),
                files_per_topic: 1 + rng.index(60),
                ..Default::default()
            },
            &mut rng,
        );
        let cfg = WorkloadConfig {
            files_per_node: rng.index(12),
            ..Default::default()
        };
        let mut gen = WorkloadGen::generate(1 + rng.index(40), &catalog, cfg, &mut rng);
        let mut model: Vec<BTreeSet<FileId>> = (0..gen.len())
            .map(|i| gen.library(i).iter().collect())
            .collect();
        let universe = catalog.len() as u64;
        for _ in 0..rng.index(400) {
            let (i, f) = (rng.index(gen.len()), FileId(rng.below(universe) as u32));
            if rng.chance(0.5) {
                assert_eq!(
                    gen.add_file(i, f),
                    model[i].insert(f),
                    "case {case}: insert {f:?}"
                );
            } else {
                assert_eq!(
                    gen.library(i).contains(f),
                    model[i].contains(&f),
                    "case {case}"
                );
            }
            let j = rng.index(gen.len());
            let files: Vec<FileId> = gen.library(j).iter().collect();
            let expect: Vec<FileId> = model[j].iter().copied().collect();
            assert_eq!(files, expect, "case {case}: library {j}");
            assert_eq!(gen.library(j).len(), model[j].len());
        }
        for (i, lib) in model.iter().enumerate() {
            assert!(
                gen.library(i).iter().eq(lib.iter().copied()),
                "case {case}: library {i}"
            );
            for f in 0..universe as u32 {
                assert_eq!(gen.library(i).contains(FileId(f)), lib.contains(&FileId(f)));
            }
        }
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
