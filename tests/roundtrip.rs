//! Serialization round-trips: CSV trace files, JSON evaluation runs, and
//! TraceDb cleaning idempotence on generator output.

use arq::core::engine::make_strategy;
use arq::core::evaluate;
use arq::simkern::{Json, ToJson};
use arq::trace::csvio;
use arq::trace::{SynthConfig, SynthTrace, TraceDb};

fn small_synth(seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig::paper_default(5_000, seed);
    cfg.faulty_guid_prob = 0.01;
    cfg
}

#[test]
fn pairs_csv_roundtrip_on_generator_output() {
    let pairs = SynthTrace::new(small_synth(1)).pairs();
    let mut buf = Vec::new();
    csvio::write_pairs(&mut buf, &pairs).unwrap();
    let back = csvio::read_pairs(&buf[..]).unwrap();
    assert_eq!(pairs, back);
}

#[test]
fn raw_csv_roundtrip_and_clean_equivalence() {
    let (queries, replies) = SynthTrace::new(small_synth(2)).raw();
    let mut buf = Vec::new();
    csvio::write_raw(&mut buf, &queries, &replies).unwrap();
    let (q2, r2) = csvio::read_raw(&buf[..]).unwrap();
    assert_eq!(queries, q2);
    assert_eq!(replies, r2);

    // Cleaning the original and the round-tripped copy gives identical
    // pair streams.
    let mut db1 = TraceDb::new();
    db1.extend(queries, replies);
    let (_, p1) = db1.clean_and_join();
    let mut db2 = TraceDb::new();
    db2.extend(q2, r2);
    let (_, p2) = db2.clean_and_join();
    assert_eq!(p1, p2);
}

#[test]
fn cleaning_is_idempotent_on_generator_output() {
    let (queries, replies) = SynthTrace::new(small_synth(3)).raw();
    let mut db = TraceDb::new();
    db.extend(queries, replies);
    let first = db.clean();
    assert!(first.duplicate_queries > 0);
    let second = db.clean();
    assert_eq!(second.duplicate_queries, 0);
    assert_eq!(second.orphan_replies, 0);
}

#[test]
fn eval_run_json_roundtrip() {
    let pairs = SynthTrace::new(SynthConfig::paper_default(30_000, 4)).pairs();
    let run = evaluate(
        make_strategy("sliding(s=10)").unwrap().as_mut(),
        &pairs,
        10_000,
    );
    let text = run.to_json().to_string();
    let back = arq::simkern::json::parse(&text).unwrap();
    assert_eq!(
        back.get("strategy").and_then(Json::as_str),
        Some(run.strategy.as_str())
    );
    assert_eq!(
        back.get("trials").and_then(Json::as_f64),
        Some(run.trials as f64)
    );
    let success: Vec<f64> = back
        .get("success")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(success, run.success.ys());
    assert_eq!(
        back.get("avg_success").and_then(Json::as_f64),
        Some(run.avg_success)
    );
    // Serializing the parsed value reproduces the exact bytes — the
    // determinism guarantee the executor states over artifact JSON.
    assert_eq!(back.to_string(), text);
}
