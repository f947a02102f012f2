//! The `run` subcommand. With `--trace 0|1` it is one measurement of one
//! workload in this process, ending in the one-line JSON result the
//! benchmark contract asks for. Without, it is the whole benchmark: each
//! workload in fresh child processes (so `peak_rss_mb` is per workload),
//! `--repeats` times untraced and once traced, every metric printed by
//! name and the result written as JSON beside the span files.

use crate::harness::{Ctx, Layers, Scale, TempDir};
use crate::metrics::{Def, Family, END_TO_END, PER_LAYER};
use crate::span::Tracer;
use crate::spec::Spec;
use crate::stats::{median, sort};
use crate::workloads::{self, Workload};
use crate::Flags;
use arq::simkern::{json, write_atomic_str, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The seed of the paper's own experiments (`sweep::DEFAULT_SEED`).
const DEFAULT_SEED: u64 = 20_060_814;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

pub fn main(flags: &Flags) -> Result<(), String> {
    let scale = if flags.has("smoke") {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let seed = flags.num("seed", DEFAULT_SEED)?;
    let seconds = flags.num("seconds", scale.secs(DEFAULT_SECONDS))?;
    match flags.get("trace") {
        Some(trace) => {
            let name = flags
                .get("workload")
                .ok_or("`--trace` measures one workload: pass `--workload NAME`")?;
            let workload = workloads::by_name(name).ok_or_else(|| unknown_workload(name))?;
            let tmp = TempDir::create().map_err(|e| format!("scratch directory: {e}"))?;
            let mut ctx = Ctx {
                seed,
                scale,
                tmp: tmp.path().to_path_buf(),
                tracer: Tracer::new(),
            };
            match trace {
                "0" => untraced(workload.as_ref(), &mut ctx, seconds),
                "1" => traced(
                    workload.as_ref(),
                    &mut ctx,
                    seconds,
                    flags.num("fill", 1u8)? != 0,
                    flags.get("trace-out").map(Path::new),
                ),
                other => Err(format!("`--trace` is 0 or 1, not `{other}`")),
            }
        }
        None => orchestrate(flags, seed, seconds, scale),
    }
}

fn unknown_workload(name: &str) -> String {
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name()).collect();
    format!("no workload `{name}` (have {})", names.join(", "))
}

// ---------------------------------------------------------------------------
// One measurement in this process
// ---------------------------------------------------------------------------

fn metric_json(def: &Def, value: f64) -> (String, Json) {
    (
        def.name.to_string(),
        Json::obj([
            ("value", Json::Float(value)),
            ("unit", Json::from(def.unit)),
        ]),
    )
}

/// Prints the contract's result line: the last line of standard output.
fn print_result(attempted: u64, failed: u64, metrics: Vec<(String, Json)>) {
    let line = Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
}

fn untraced(workload: &dyn Workload, ctx: &mut Ctx, seconds: f64) -> Result<(), String> {
    let looped = workload.run(ctx, seconds);
    let mut units = looped.unit_s.clone();
    sort(&mut units);
    eprintln!(
        "{}: {} ops, {} failed; {} units, median {:.3} s [{:.3}, {:.3}]",
        workload.name(),
        looped.ops,
        looped.failed,
        units.len(),
        median(&units),
        units[0],
        units[units.len() - 1]
    );
    let metrics = END_TO_END
        .iter()
        .zip(looped.end_to_end())
        .map(|(def, value)| metric_json(def, value))
        .collect();
    print_result(looped.ops, looped.failed, metrics);
    Ok(())
}

/// The workload that stands for each family when another family's
/// traced run fills in the metrics it cannot measure itself.
fn representative(family: Family) -> Box<dyn Workload> {
    match family {
        Family::Trace => Box::new(workloads::trace_sweep::TraceSweep),
        Family::Sim => Box::new(workloads::sim::LINKS),
        Family::Serve => Box::new(workloads::serve::INGEST),
    }
}

fn traced(
    workload: &dyn Workload,
    ctx: &mut Ctx,
    seconds: f64,
    fill: bool,
    trace_out: Option<&Path>,
) -> Result<(), String> {
    let mut layers = workload.layers(ctx, seconds);
    if let Some(path) = trace_out {
        let doc = Json::obj([
            ("workload", Json::from(workload.name())),
            ("seed", Json::from(ctx.seed)),
            ("info", info_json(&layers)),
            ("spans", ctx.tracer.to_json()),
        ]);
        write_atomic_str(path, &doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for (key, value) in &layers.info {
        eprintln!("{}: {key} = {value}", workload.name());
    }
    if fill {
        // The contract wants every per-layer name on every traced line,
        // as measured. What this workload's family does not cover comes
        // from a smoke-scale pass of each other family's representative.
        for family in [Family::Trace, Family::Sim, Family::Serve] {
            if family == workload.family() {
                continue;
            }
            let other = representative(family);
            let mut small = Ctx {
                seed: ctx.seed,
                scale: Scale::SMOKE,
                tmp: ctx.tmp.join(other.name()),
                tracer: Tracer::new(),
            };
            std::fs::create_dir_all(&small.tmp).map_err(|e| format!("scratch directory: {e}"))?;
            let filled = other.layers(&mut small, Scale::SMOKE.secs(seconds));
            for (name, value) in filled.values {
                layers.values.entry(name).or_insert(value);
            }
            layers.attempted += filled.attempted;
            layers.failed += filled.failed;
        }
    }
    let mut metrics = Vec::new();
    for def in PER_LAYER {
        match layers.values.get(def.name) {
            Some(&value) => metrics.push(metric_json(def, value)),
            None if fill => return Err(format!("`{}` was not measured", def.name)),
            None => {}
        }
    }
    print_result(layers.attempted, layers.failed, metrics);
    Ok(())
}

fn info_json(layers: &Layers) -> Json {
    Json::Obj(
        layers
            .info
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// The whole benchmark
// ---------------------------------------------------------------------------

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one measurement in a fresh child process and parses its result
/// line.
fn child(exe: &Path, args: &[String]) -> Result<Json, String> {
    let output = Command::new(exe)
        .arg("run")
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("`run {}` exited {}", args.join(" "), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("a child printed no result")?;
    json::parse(line).map_err(|e| format!("a child's result line: {e}"))
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn orchestrate(flags: &Flags, seed: u64, seconds: f64, scale: Scale) -> Result<(), String> {
    let repeats: usize = flags.num("repeats", 3)?;
    let smoke = scale.0 > 1;
    let out = PathBuf::from(flags.get("out").unwrap_or("benchmark/out/result.json"));
    let out_dir = out.parent().unwrap_or(Path::new(".")).to_path_buf();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let selected: Vec<Box<dyn Workload>> = match flags.get("workload") {
        Some(name) => vec![workloads::by_name(name).ok_or_else(|| unknown_workload(name))?],
        None => workloads::all(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = Json::obj([
        ("cores", Json::from(cores)),
        ("rustc", Json::from(first_line("rustc", &["--version"]))),
        (
            "commit",
            Json::from(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    println!("host: {host}");
    println!(
        "seed {seed}, {seconds} s per run, {repeats} untraced runs + 1 traced per workload{}",
        if smoke { ", smoke scale" } else { "" }
    );

    let mut common = vec![
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    if smoke {
        common.push("--smoke".to_string());
    }
    let mut failed_total = 0;
    let mut docs = Vec::new();
    for workload in &selected {
        let name = workload.name();
        println!("\n{name} — {}", workload.why());
        let with = |extra: &[&str]| -> Vec<String> {
            let mut args = vec!["--workload".to_string(), name.to_string()];
            args.extend(common.iter().cloned());
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };
        let mut attempted = 0;
        let mut failed = 0;
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for _ in 0..repeats {
            let result = child(&exe, &with(&["--trace", "0"]))?;
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (def, sample) in END_TO_END.iter().zip(&mut samples) {
                sample.push(value(&result, def.name).ok_or("a child left a metric out")?);
            }
        }
        let trace_file = format!("trace-{name}.json");
        let trace_path = out_dir.join(&trace_file);
        let trace_arg = trace_path.to_string_lossy();
        let result = child(
            &exe,
            &with(&["--trace", "1", "--fill", "0", "--trace-out", &trace_arg]),
        )?;
        attempted += count(&result, "attempted");
        failed += count(&result, "failed");
        failed_total += failed;

        let mut end_to_end = Vec::new();
        for (def, sample) in END_TO_END.iter().zip(&mut samples) {
            sort(sample);
            let (mid, lo, hi) = (median(sample), sample[0], sample[sample.len() - 1]);
            println!(
                "  {:<44} {:>8} {mid:>16.4} [{lo:.4}, {hi:.4}] n={}",
                def.name,
                def.unit,
                sample.len()
            );
            end_to_end.push(Json::obj([
                ("name", Json::from(def.name)),
                ("unit", Json::from(def.unit)),
                ("better", Json::from(def.better.label())),
                ("median", Json::Float(mid)),
                ("min", Json::Float(lo)),
                ("max", Json::Float(hi)),
                ("n", Json::from(sample.len())),
                ("values", Json::from(sample.as_slice())),
            ]));
        }
        let mut per_layer = Vec::new();
        for def in PER_LAYER {
            let own = def.family.is_none_or(|f| f == workload.family());
            let Some(v) = value(&result, def.name).filter(|_| own) else {
                if own {
                    return Err(format!("{name}: `{}` was not measured", def.name));
                }
                continue;
            };
            println!(
                "  {:<44} {:>8} {v:>16.4} (traced run) n=1",
                def.name, def.unit
            );
            per_layer.push(Json::obj([
                ("name", Json::from(def.name)),
                ("unit", Json::from(def.unit)),
                ("value", Json::Float(v)),
            ]));
        }
        println!("  ops {attempted}, ops_failed {failed}");
        let info = std::fs::read_to_string(&trace_path)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|doc| doc.get("info").cloned())
            .unwrap_or(Json::Null);
        docs.push(Json::obj([
            ("name", Json::from(name)),
            ("why", Json::from(workload.why())),
            ("ops", Json::from(attempted)),
            ("ops_failed", Json::from(failed)),
            ("end_to_end", Json::Arr(end_to_end)),
            ("per_layer", Json::Arr(per_layer)),
            ("info", info),
            ("trace_file", Json::from(trace_file)),
        ]));
    }

    let doc = Json::obj([
        ("benchmark", Json::from("arq-benchmark")),
        ("host", host),
        ("seed", Json::from(seed)),
        ("seconds", Json::Float(seconds)),
        ("repeats", Json::from(repeats)),
        ("smoke", Json::from(smoke)),
        ("workloads", Json::Arr(docs)),
    ]);
    let mut pretty = doc.to_string_pretty();
    pretty.push('\n');
    write_atomic_str(&out, &pretty).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresult -> {}", out.display());

    // With the whole benchmark run, hold the printed names to the file.
    let spec_path = flags.get("spec").unwrap_or("BENCHMARK.json");
    if flags.get("workload").is_none() && Path::new(spec_path).exists() {
        let mismatches = Spec::load(spec_path)?.mismatches();
        if !mismatches.is_empty() {
            return Err(format!(
                "{spec_path} and the printed names differ:\n  {}",
                mismatches.join("\n  ")
            ));
        }
        println!("names match {spec_path}");
    }
    if failed_total > 0 {
        return Err(format!(
            "{failed_total} operations failed their output checks"
        ));
    }
    Ok(())
}
