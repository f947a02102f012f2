//! End-to-end golden test for the experiment harness: regenerates E3
//! (the Fig. 2 block-size sweep) at a pinned scale/seed, persists it the
//! way `experiments --out` does, and asserts the emitted bytes digest to
//! a checked-in constant — the whole pipeline (synthesis → mining →
//! evaluation → artifact JSON → `save_json`) is one deterministic
//! function of `(scale, seed)`, at any worker count, with or without an
//! ambient obs layer attached to the run specs.

use arq::simkern::rng::fnv1a;
use arq_bench::experiments::{e3_block_sizes, Scale};
use arq_bench::report::save_json;

/// FNV-1a digest of `results/e3.json` at the scale/seed below. If an
/// intentional change moves it (new artifact fields, measurement fixes),
/// update the constant with the value printed by the failure message —
/// after confirming the byte diff is the one you meant to make.
const E3_GOLDEN_DIGEST: u64 = 0xfe74_c622_fee9_f2cc;

fn golden_scale() -> Scale {
    // 26 × 4 000 = 104 000 pairs: two complete blocks even at E3's
    // largest block size (50 000), small enough for a debug-mode test.
    Scale {
        blocks: 26,
        block_size: 4_000,
        live_nodes: 0,
        live_queries: 0,
    }
}

fn regenerate() -> Vec<u8> {
    let report = e3_block_sizes(golden_scale(), 20_060_814);
    let dir = std::env::temp_dir().join(format!("arq-golden-e3-{}", std::process::id()));
    save_json(&dir, &report).expect("write results JSON");
    let bytes = std::fs::read(dir.join("e3.json")).expect("read back results JSON");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

// One test on purpose: it mutates ARQ_THREADS/ARQ_OBS, and splitting it
// would race the env against parallel test threads in this binary.
#[test]
fn e3_results_json_is_byte_stable() {
    // The harness regenerates the *un-instrumented* results documents;
    // clear any ambient obs attachment (the CI obs job sets ARQ_OBS=1).
    std::env::remove_var("ARQ_OBS");

    std::env::set_var("ARQ_THREADS", "1");
    let serial = regenerate();
    std::env::set_var("ARQ_THREADS", "4");
    let parallel = regenerate();
    assert_eq!(
        serial, parallel,
        "results JSON must be byte-identical at any worker count"
    );

    // E3 submits 5 specs, so 20 threads clamps to 5 workers; the
    // surplus must not move a byte either.
    std::env::set_var("ARQ_THREADS", "20");
    let surplus = regenerate();
    std::env::remove_var("ARQ_THREADS");
    assert_eq!(
        serial, surplus,
        "results JSON must be byte-identical with more threads than specs"
    );

    let digest = fnv1a(&serial);
    assert_eq!(
        digest, E3_GOLDEN_DIGEST,
        "results/e3.json digest moved: measured {digest:#018x}, expected \
         {E3_GOLDEN_DIGEST:#018x}. If the byte change is intentional, update \
         E3_GOLDEN_DIGEST to the measured value."
    );
}
