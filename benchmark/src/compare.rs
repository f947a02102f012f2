//! `compare A.json B.json` — aligns two `run` results workload by
//! metric and judges B against A with the bounds of `BENCHMARK.json`.
//! It is how "two sets of runs of one commit agree" is checked, and how
//! a later change shows it regressed nothing.

use crate::metrics::Better;
use crate::spec::Spec;
use crate::Flags;
use arq::simkern::{json, write_atomic_str, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median of its runs and their range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when `b` is better).
pub fn worsening(a: Side, b: Side, better: Better) -> f64 {
    match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    }
}

/// Judges `b` against the baseline `a`. Worse or better: `b`'s median
/// differs from `a`'s by more than `bound`. Otherwise the medians agree
/// within the bound — but when the two sides' [min, max] overlap by more
/// than the bound, the runs are too spread to say so, and the verdict is
/// unresolved, not same. (Sides that do not overlap at all are resolved.)
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let worsening = worsening(a, b, better);
    if worsening > bound {
        return Verdict::Worse;
    }
    if worsening < -bound {
        return Verdict::Better;
    }
    let overlap = (a.max.min(b.max) - a.min.max(b.min)).max(0.0);
    if overlap / a.median.abs() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        median: metric.get("median")?.as_f64()?,
        min: metric.get("min")?.as_f64()?,
        max: metric.get("max")?.as_f64()?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The entry called `name` in the array at `doc[key]`.
fn named<'a>(doc: &'a Json, key: &str, name: &str) -> Option<&'a Json> {
    doc.get(key)?
        .as_array()?
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
}

/// Every comparison row of two result documents, in `spec` order.
pub fn rows(a: &Json, b: &Json, spec: &Spec) -> Vec<(Json, Verdict)> {
    let mut out = Vec::new();
    for workload in &spec.workloads {
        let (Some(wa), Some(wb)) = (
            named(a, "workloads", workload),
            named(b, "workloads", workload),
        ) else {
            continue;
        };
        for m in &spec.end_to_end {
            let sides = named(wa, "end_to_end", &m.name)
                .and_then(side)
                .zip(named(wb, "end_to_end", &m.name).and_then(side));
            let Some((sa, sb)) = sides else { continue };
            let verdict = judge(sa, sb, m.better, m.bound);
            let range = |s: Side| {
                Json::obj([
                    ("median", Json::Float(s.median)),
                    ("ci", Json::from(vec![s.min, s.max])),
                ])
            };
            let row = Json::obj([
                ("workload", Json::from(workload.as_str())),
                ("metric", Json::from(m.name.as_str())),
                ("unit", Json::from(m.unit.as_str())),
                ("a", range(sa)),
                ("b", range(sb)),
                ("worsening", Json::Float(worsening(sa, sb, m.better))),
                (
                    "thresholds",
                    Json::obj([("max_worsening", Json::Float(m.bound))]),
                ),
                ("verdict", Json::from(verdict.label())),
                ("passes", Json::from(verdict != Verdict::Worse)),
            ]);
            out.push((row, verdict));
        }
    }
    out
}

pub fn main(flags: &Flags) -> Result<(), String> {
    let [a_path, b_path] = flags.positional.as_slice() else {
        return Err("usage: compare A.json B.json [--spec BENCHMARK.json] [--out FILE]".into());
    };
    let spec = Spec::load(flags.get("spec").unwrap_or("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = rows(&a, &b, &spec);
    if rows.is_empty() {
        return Err(format!(
            "{a_path} and {b_path} share no workload and metric"
        ));
    }
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worsening", "bound"
    );
    for (row, verdict) in &rows {
        let text = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("");
        let median = |k: &str| {
            row.get(k)
                .and_then(|s| s.get("median"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{:<14} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%  {}",
            text("workload"),
            text("metric"),
            median("a"),
            median("b"),
            num(row.get("worsening")) * 100.0,
            num(row.get("thresholds").and_then(|t| t.get("max_worsening"))) * 100.0,
            verdict.label()
        );
    }
    let tally = |v: Verdict| rows.iter().filter(|(_, got)| *got == v).count();
    let (worse, unresolved) = (tally(Verdict::Worse), tally(Verdict::Unresolved));
    println!(
        "{} better, {} same, {worse} worse, {unresolved} unresolved",
        tally(Verdict::Better),
        tally(Verdict::Same)
    );
    if let Some(out) = flags.get("out") {
        let doc = Json::obj([
            ("a", Json::from(a_path.as_str())),
            ("b", Json::from(b_path.as_str())),
            (
                "rows",
                Json::Arr(rows.into_iter().map(|(r, _)| r).collect()),
            ),
            ("passes", Json::from(worse == 0)),
        ]);
        let mut pretty = doc.to_string_pretty();
        pretty.push('\n');
        write_atomic_str(out, &pretty).map_err(|e| format!("{out}: {e}"))?;
    }
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than the bound allows"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Side {
        Side { median, min, max }
    }

    #[test]
    fn verdicts_on_hand_made_inputs() {
        let base = s(100.0, 99.0, 101.0);
        // Lower is better, bound 10 %.
        let lower = |b| judge(base, b, Better::Lower, 0.10);
        assert_eq!(lower(s(100.5, 99.5, 101.5)), Verdict::Same);
        assert_eq!(lower(s(109.0, 108.0, 110.0)), Verdict::Same);
        assert_eq!(lower(s(111.0, 110.0, 112.0)), Verdict::Worse);
        assert_eq!(lower(s(89.0, 88.0, 90.0)), Verdict::Better);
        // Every run of b beats every run of a, but by less than the bound.
        assert_eq!(lower(s(95.0, 94.0, 96.0)), Verdict::Same);
        // Higher is better: the same numbers read the other way round.
        let higher = |b| judge(base, b, Better::Higher, 0.10);
        assert_eq!(higher(s(111.0, 110.0, 112.0)), Verdict::Better);
        assert_eq!(higher(s(89.0, 88.0, 90.0)), Verdict::Worse);
        assert_eq!(higher(s(95.0, 94.0, 96.0)), Verdict::Same);
    }

    #[test]
    fn runs_too_spread_to_tell_are_unresolved_not_same() {
        // Medians agree, but the sides overlap over 30 % of the median:
        // a 10 % bound cannot be resolved from these runs.
        let a = s(100.0, 80.0, 120.0);
        let b = s(102.0, 85.0, 115.0);
        assert_eq!(judge(a, b, Better::Lower, 0.10), Verdict::Unresolved);
        // A wide bound resolves the same runs.
        assert_eq!(judge(a, b, Better::Lower, 0.35), Verdict::Same);
        // A worse median is worse however spread the runs are.
        let c = s(125.0, 85.0, 140.0);
        assert_eq!(judge(a, c, Better::Lower, 0.10), Verdict::Worse);
        // Sides that do not touch are resolved, however wide each is.
        let d = s(108.0, 121.0, 160.0);
        assert_eq!(judge(a, d, Better::Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn rows_align_workload_and_metric_and_carry_the_bound() {
        let doc = |median: f64| {
            json::parse(&format!(
                r#"{{"workloads":[{{"name":"w","end_to_end":[
                    {{"name":"unit_s","median":{median},"min":{median},"max":{median}}}]}}]}}"#
            ))
            .unwrap()
        };
        let spec = Spec {
            workloads: vec!["w".into(), "absent".into()],
            end_to_end: vec![crate::spec::Bounded {
                name: "unit_s".into(),
                unit: "s".into(),
                better: Better::Lower,
                bound: 0.10,
            }],
            per_layer: Vec::new(),
        };
        let rows = rows(&doc(1.0), &doc(1.2), &spec);
        assert_eq!(rows.len(), 1);
        let (row, verdict) = &rows[0];
        assert_eq!(*verdict, Verdict::Worse);
        assert_eq!(row.get("passes"), Some(&Json::Bool(false)));
        let bound = row.get("thresholds").and_then(|t| t.get("max_worsening"));
        assert_eq!(bound.and_then(Json::as_f64), Some(0.10));
        assert_eq!(
            row.get("b").and_then(|b| b.get("ci")),
            Some(&Json::from(vec![1.2, 1.2]))
        );
    }
}
