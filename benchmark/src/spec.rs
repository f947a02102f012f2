//! `BENCHMARK.json` as the harness reads it: the names it must print and
//! the bound on each end-to-end metric.

use crate::metrics::{self, Better, Def};
use crate::workloads;
use arq::simkern::{json, Json};

pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    /// `(name, unit, better)` of every per-layer metric.
    pub per_layer: Vec<(String, String, String)>,
}

fn text(entry: &Json, key: &str, path: &str) -> Result<String, String> {
    entry
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{path}: an entry has no string `{key}`"))
}

fn entries<'a>(doc: &'a Json, key: &str, path: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `{key}` array"))
}

impl Spec {
    pub fn load(path: &str) -> Result<Spec, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&raw).map_err(|e| format!("{path}: {e}"))?;
        let workloads = entries(&doc, "workloads", path)?
            .iter()
            .map(|w| text(w, "name", path))
            .collect::<Result<_, _>>()?;
        let end_to_end = entries(&doc, "end_to_end", path)?
            .iter()
            .map(|m| {
                let better = text(m, "better", path)?;
                Ok(Bounded {
                    name: text(m, "name", path)?,
                    unit: text(m, "unit", path)?,
                    better: Better::parse(&better)
                        .ok_or_else(|| format!("{path}: `better` is `{better}`"))?,
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{path}: an end-to-end metric has no `bound`"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = entries(&doc, "per_layer", path)?
            .iter()
            .map(|m| {
                Ok((
                    text(m, "name", path)?,
                    text(m, "unit", path)?,
                    text(m, "better", path)?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Every way the names, units and directions this harness prints
    /// differ from the file's. Empty when they are exactly the same.
    pub fn mismatches(&self) -> Vec<String> {
        let mut out = Vec::new();
        let ours: Vec<String> = workloads::all()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        if ours != self.workloads {
            out.push(format!(
                "workloads: harness {ours:?}, file {:?}",
                self.workloads
            ));
        }
        let line = |d: &Def| format!("{} [{}, {}]", d.name, d.unit, d.better.label());
        let ours: Vec<String> = metrics::END_TO_END.iter().map(line).collect();
        let theirs: Vec<String> = self
            .end_to_end
            .iter()
            .map(|m| format!("{} [{}, {}]", m.name, m.unit, m.better.label()))
            .collect();
        if ours != theirs {
            out.push(format!("end_to_end: harness {ours:?}, file {theirs:?}"));
        }
        let ours: Vec<String> = metrics::PER_LAYER.iter().map(line).collect();
        let theirs: Vec<String> = self
            .per_layer
            .iter()
            .map(|(name, unit, better)| format!("{name} [{unit}, {better}]"))
            .collect();
        for name in ours.iter().filter(|n| !theirs.contains(n)) {
            out.push(format!("per_layer: {name} is printed but not in the file"));
        }
        for name in theirs.iter().filter(|n| !ours.contains(n)) {
            out.push(format!("per_layer: {name} is in the file but not printed"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_harness_prints_exactly_the_names_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Spec::load(path).unwrap();
        assert_eq!(spec.mismatches(), Vec::<String>::new());
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: {}", m.name, m.bound);
        }
    }
}
