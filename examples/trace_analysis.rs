//! Offline trace analysis — the paper's full §IV methodology end to end:
//! raw capture → GUID cleaning → query/reply join → block partitioning →
//! rule mining → all five maintenance strategies compared.
//!
//! ```text
//! cargo run --release -p arq --example trace_analysis
//! ```

use arq::assoc::mine_pairs;
use arq::core::engine::make_strategy;
use arq::core::evaluate;
use arq::trace::stats::{pair_stats, raw_stats};
use arq::trace::{SynthConfig, SynthTrace, TraceDb};

fn main() {
    // 1. "Capture" a raw trace: answered + unanswered queries, faulty
    //    GUIDs included (scaled-down 7-day collection).
    let mut cfg = SynthConfig::paper_default(200_000, 7);
    cfg.faulty_guid_prob = 0.002;
    let (queries, replies) = SynthTrace::new(cfg).raw();
    let rs = raw_stats(&queries, &replies);
    println!(
        "raw capture: {} queries, {} replies (answer ratio {:.2}), {} hosts, {} distinct GUIDs",
        rs.queries, rs.replies, rs.answer_ratio, rs.distinct_query_hosts, rs.distinct_guids
    );

    // 2. Import into the trace database, clean, join (§IV-A).
    let mut db = TraceDb::new();
    db.extend(queries, replies);
    let (report, pairs) = db.clean_and_join();
    println!(
        "cleaning: dropped {} duplicate-GUID queries and {} orphan replies; join produced {} pairs",
        report.duplicate_queries,
        report.orphan_replies,
        pairs.len()
    );
    let ps = pair_stats(&pairs);
    println!(
        "pair stream: {} sources, {} reply neighbors, {} distinct (src,via) pairs, top pair {:.1}% of traffic\n",
        ps.distinct_src,
        ps.distinct_via,
        ps.distinct_pairs,
        ps.top_pair_share * 100.0
    );

    // 3. Mine one block and show the strongest rules (§III-B.1).
    let rules = mine_pairs(&pairs[..10_000.min(pairs.len())], 10);
    println!(
        "rules mined from block 0 (support ≥ 10): {} rules over {} antecedents",
        rules.rule_count(),
        rules.antecedent_count()
    );
    let mut rows: Vec<_> = rules.iter().collect();
    rows.sort_by_key(|&(_, _, c)| std::cmp::Reverse(c));
    for (src, via, count) in rows.into_iter().take(8) {
        println!("  {{{src}}} -> {{{via}}}   support {count}");
    }

    // 4. Compare all five maintenance strategies on the same trace (§V).
    println!("\nstrategy comparison (block 10,000, support 10):");
    println!(
        "{:<28} {:>9} {:>9} {:>12}",
        "strategy", "coverage", "success", "regens"
    );
    for spec in [
        "static(s=10)",
        "sliding(s=10)",
        "lazy(s=10,p=10)",
        "adaptive(s=10,h=10,i=0.7)",
        "incremental(t=10,hl=20000)",
    ] {
        let mut strategy = make_strategy(spec).expect("a registered strategy");
        let run = evaluate(strategy.as_mut(), &pairs, 10_000);
        println!(
            "{:<28} {:>9.3} {:>9.3} {:>12}",
            run.strategy, run.avg_coverage, run.avg_success, run.regenerations
        );
    }
}
