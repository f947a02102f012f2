//! The `arq` command-line tool.
//!
//! A thin, dependency-free front end over the library: generate
//! calibrated traces, inspect them, run the cleaning/join pipeline,
//! evaluate any rule-maintenance strategy, and run live policy
//! simulations — all from the shell. The binary in `src/bin/arq.rs`
//! forwards to [`run`], which returns its report as a string so the test
//! suite can drive every subcommand in-process.
//!
//! ```text
//! arq gen-trace --pairs 200000 --seed 7 --out trace.csv [--raw] [--upheaval]
//! arq stats     --trace trace.csv [--raw]
//! arq clean-join --raw capture.csv --out pairs.csv
//! arq evaluate  --trace pairs.csv --strategy sliding --block 10000 --support 10 [--chart]
//! arq simulate  --nodes 400 --queries 2000 --policy assoc --seed 1
//! arq run       --exp e3 --trace-events events.jsonl --out artifacts.json
//! arq report    --in artifacts.json --timeline
//! ```

use arq_assoc::mine_pairs;
use arq_assoc::pairs::mine_pairs_with_confidence;
use arq_core::engine;
use arq_core::engine::{RunSpec, TraceSource};
use arq_core::evaluate;
use arq_core::sweep;
use arq_gnutella::sim::SimConfig;
use arq_simkern::chart::{render, ChartOptions};
use arq_simkern::{Histogram, Json, ToJson};
use arq_trace::csvio;
use arq_trace::stats::{pair_stats, raw_stats};
use arq_trace::{SynthConfig, SynthTrace, TraceDb};
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Minimal flag parser: `--key value` pairs plus boolean `--flag`s.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses `args` against the flags one command reads: `values` take
    /// an argument, `booleans` do not. Any other flag is an error that
    /// lists the valid ones, so a misspelt flag never silently falls
    /// back to its default.
    fn parse(args: &[String], values: &[&str], booleans: &[&str]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(err(format!("expected a --flag, got `{flag}`")));
            };
            if booleans.contains(&name) {
                pairs.push((name.to_string(), None));
            } else if !values.contains(&name) {
                let valid: Vec<String> = values
                    .iter()
                    .chain(booleans)
                    .map(|v| format!("--{v}"))
                    .collect();
                return Err(err(format!(
                    "unknown flag `{flag}` (valid: {})",
                    valid.join(", ")
                )));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("--{name} needs a value")))?;
                pairs.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == name)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: cannot parse `{v}`"))),
        }
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
arq — adaptively routing P2P queries using association analysis

USAGE: arq <COMMAND> [FLAGS]

COMMANDS:
  gen-trace   generate a calibrated synthetic trace (CSV)
              --pairs N [--seed S] --out FILE [--raw] [--upheaval]
  stats       describe a trace file
              --trace FILE [--raw]
  clean-join  clean GUIDs and join a raw capture into pairs
              --raw FILE --out FILE
  mine        mine one block's association rules and print the strongest
              --trace FILE [--block N] [--support N] [--confidence F] [--top N]
  evaluate    replay a trace through a rule-maintenance strategy
              --trace FILE [--strategy SPEC] [--block N] [--support N] [--chart]
              strategies: static | sliding | lazy | adaptive | incremental | lossy | topic
              SPEC may also carry registry parameters, e.g. sliding(s=10,c=0.05)
  simulate    run a live overlay simulation with a forwarding policy
              (alias: live)
              [--nodes N] [--queries N] [--policy SPEC] [--seed S]
              [--faults SPEC] [--retry SPEC] [--links SPEC] [--adapt SPEC]
              policies: flood | expanding-ring | k-walk | shortcuts |
                        routing-index | superpeer | assoc | assoc-adaptive |
                        hybrid | community
              SPEC accepts registry parameters too, e.g.
              assoc(k=4,hl=500,minconf=0.6) forwards to up to 4
              consequents whose confidence clears 0.6
              --adapt turns on live topology adaptation on a tumbling
              schedule, e.g. 'every=50000,budget=8,degree=2' (rewires
              the overlay toward learned rules, retiring shortcuts on
              rule decay or endpoint crash)
              --faults injects node faults, e.g. 'crash=0.01,silent=0.02'
              (its loss=/jitter= are sugar for the same --links keys);
              --retry adds the bounded-retry lifecycle, e.g.
              'deadline=2000,attempts=3'; --links is the one per-message
              impairment: loss, jitter and byte-accurate per-node
              bandwidth with bounded buffers, e.g. 'loss=0.05' or
              'links(up=8,down=32,upbuf=2048,downbuf=8192,loss=0.02,
              jitter=20,riders=0.2,riderup=2)'
  run         execute instrumented engine runs and stream their traces
              --exp e3 runs the E3 block-size sweep preset; otherwise
              [--strategy SPEC] [--pairs N] [--block N] for a trace
              evaluation, or --policy SPEC [--nodes N] [--queries N]
              [--faults SPEC] [--retry SPEC] [--links SPEC] [--adapt SPEC]
              for a live simulation
              [--seed S] [--obs SPEC] [--trace-events FILE] [--out FILE]
              runs are instrumented with obs(events=1,series=1,fanout=16)
              unless --obs overrides; --trace-events streams the event
              log as JSONL; --out writes the artifact array as JSON
  report      summarize persisted artifacts or experiment results
              --in FILE [--timeline]
              accepts an `arq run --out` artifact array or a
              results/e*.json document; --timeline prints the per-block
              series (α/ρ/traffic from obs, else coverage/success);
              link-instrumented artifacts also render query-latency
              p50/p95/p99 (sim ticks) and per-node byte budgets from the
              obs histograms
  gen-events  render a synthetic trace as a framed event stream for serve
              [--pairs N] [--seed S] [--route-every N] --out FILE
              frames are `<len>\\n<json>\\n`; every pair becomes a
              {\"ev\":\"pair\"} event and --route-every interleaves
              {\"ev\":\"route\"} lookups
  serve       run the crash-safe streaming router service
              [--input FILE|-] [--socket PATH] [--maintainer SPEC]
              [--block N] [--k N] [--queue N] [--shed]
              [--checkpoint FILE] [--checkpoint-every N]
              [--metrics ADDR] [--out FILE] [--spin N]
              ingests framed pair/route/stats events from stdin, a file,
              or a Unix socket; route lookups answer from an atomically
              swapped ruleset refreshed every --block pairs and never
              block on mining; maintainers: incremental(t=10,hl=20000) |
              lossy(t=10,eps=0.00005); the ingest queue is bounded and
              blocks when full unless --shed enables explicit load
              shedding (refreshes first, then pairs + `shed` lookups,
              all counted); --checkpoint restores exact state on start,
              skips already-consumed pairs, and atomically persists
              every --checkpoint-every pairs and at drain (SIGTERM/EOF);
              --metrics serves Prometheus plaintext over HTTP; --out
              writes the summary artifact (incl. the ruleset digest)
  sweep       run a declarative sweep plan (see plans/ and DESIGN.md)
              run PLAN [--out DIR] [--spin MS]
              resume PLAN [--out DIR] [--spin MS]
              show PLAN
              a plan (TOML or JSON) declares a base run plus axes — a
              grid or a seeded latin-hypercube over registry spec
              parameters — and expands to a deterministic job list;
              run fans the jobs over ARQ_THREADS workers, journals
              every completion durably (journal.jsonl, fsync'd per
              line), and writes report.json + runbook.json atomically;
              resume skips exactly the journaled jobs and converges to
              byte-identical outputs even after kill -9; show prints
              the expansion without running anything; --out defaults
              to sweeps/<plan-name>; --spin sleeps each worker MS per
              job (test hook for crash/resume drills)
  help        print this text
";

/// Executes one CLI invocation and returns its stdout-style report.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(USAGE.to_string());
    };
    match command.as_str() {
        "gen-trace" => gen_trace(rest),
        "stats" => stats(rest),
        "clean-join" => clean_join(rest),
        "mine" => mine(rest),
        "evaluate" => cmd_evaluate(rest),
        "simulate" | "live" => simulate(rest),
        "run" => cmd_run(rest),
        "report" => cmd_report(rest),
        "gen-events" => cmd_gen_events(rest),
        "serve" => cmd_serve(rest),
        "sweep" => cmd_sweep(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn gen_trace(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["pairs", "seed", "out"], &["raw", "upheaval"])?;
    let pairs: usize = flags.parse_num("pairs", 100_000)?;
    let seed: u64 = flags.parse_num("seed", 1)?;
    let out = flags.required("out")?;
    let cfg = if flags.has("upheaval") {
        SynthConfig::paper_static(pairs, seed)
    } else {
        SynthConfig::paper_default(pairs, seed)
    };
    let gen = SynthTrace::new(cfg);
    // Buffer the CSV and land it atomically: a crash mid-generation
    // must not leave a half-written trace under the final name.
    let mut w: Vec<u8> = Vec::new();
    let mut report = String::new();
    if flags.has("raw") {
        let (queries, replies) = gen.raw();
        csvio::write_raw(&mut w, &queries, &replies).map_err(|e| err(e.to_string()))?;
        let _ = writeln!(
            report,
            "wrote raw trace: {} queries, {} replies -> {out}",
            queries.len(),
            replies.len()
        );
    } else {
        let pairs = gen.pairs();
        csvio::write_pairs(&mut w, &pairs).map_err(|e| err(e.to_string()))?;
        let _ = writeln!(report, "wrote pair trace: {} pairs -> {out}", pairs.len());
    }
    arq_simkern::write_atomic(out, &w).map_err(|e| err(format!("writing {out}: {e}")))?;
    Ok(report)
}

fn stats(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["trace"], &["raw"])?;
    let path = flags.required("trace")?;
    let file = File::open(path).map_err(|e| err(format!("opening {path}: {e}")))?;
    let mut report = String::new();
    if flags.has("raw") {
        let (queries, replies) =
            csvio::read_raw(BufReader::new(file)).map_err(|e| err(e.to_string()))?;
        let s = raw_stats(&queries, &replies);
        let _ = writeln!(report, "raw trace {path}");
        let _ = writeln!(report, "  queries:             {}", s.queries);
        let _ = writeln!(report, "  replies:             {}", s.replies);
        let _ = writeln!(report, "  answer ratio:        {:.3}", s.answer_ratio);
        let _ = writeln!(report, "  distinct query hosts: {}", s.distinct_query_hosts);
        let _ = writeln!(report, "  distinct GUIDs:      {}", s.distinct_guids);
    } else {
        let pairs = csvio::read_pairs(BufReader::new(file)).map_err(|e| err(e.to_string()))?;
        let s = pair_stats(&pairs);
        let _ = writeln!(report, "pair trace {path}");
        let _ = writeln!(report, "  pairs:               {}", s.pairs);
        let _ = writeln!(report, "  distinct sources:    {}", s.distinct_src);
        let _ = writeln!(report, "  distinct reply vias: {}", s.distinct_via);
        let _ = writeln!(report, "  distinct (src,via):  {}", s.distinct_pairs);
        let _ = writeln!(report, "  pairs per source:    {:.1}", s.pairs_per_src);
        let _ = writeln!(report, "  top pair share:      {:.4}", s.top_pair_share);
    }
    Ok(report)
}

fn clean_join(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["raw", "out"], &[])?;
    let raw_path = flags.required("raw")?;
    let out = flags.required("out")?;
    let file = File::open(raw_path).map_err(|e| err(format!("opening {raw_path}: {e}")))?;
    let (queries, replies) =
        csvio::read_raw(BufReader::new(file)).map_err(|e| err(e.to_string()))?;
    let mut db = TraceDb::new();
    db.extend(queries, replies);
    let (report_counts, pairs) = db.clean_and_join();
    let mut buf: Vec<u8> = Vec::new();
    csvio::write_pairs(&mut buf, &pairs).map_err(|e| err(e.to_string()))?;
    arq_simkern::write_atomic(out, &buf).map_err(|e| err(format!("writing {out}: {e}")))?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "cleaned: {} duplicate-GUID queries dropped, {} orphan replies dropped",
        report_counts.duplicate_queries, report_counts.orphan_replies
    );
    let _ = writeln!(report, "joined: {} query-reply pairs -> {out}", pairs.len());
    Ok(report)
}

fn mine(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        args,
        &["trace", "block", "support", "confidence", "top"],
        &[],
    )?;
    let path = flags.required("trace")?;
    let block: usize = flags.parse_num("block", 10_000)?;
    let support: u64 = flags.parse_num("support", 10)?;
    let confidence: f64 = flags.parse_num("confidence", 0.0)?;
    let top: usize = flags.parse_num("top", 20)?;
    let file = File::open(path).map_err(|e| err(format!("opening {path}: {e}")))?;
    let pairs = csvio::read_pairs(BufReader::new(file)).map_err(|e| err(e.to_string()))?;
    if pairs.is_empty() {
        return Err(err("trace holds no pairs"));
    }
    let slice = &pairs[..block.min(pairs.len())];
    let rules = if confidence > 0.0 {
        mine_pairs_with_confidence(slice, support, confidence)
    } else {
        mine_pairs(slice, support)
    };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "mined {} rules over {} antecedents from {} pairs (support >= {support}{})",
        rules.rule_count(),
        rules.antecedent_count(),
        slice.len(),
        if confidence > 0.0 {
            format!(", confidence >= {confidence}")
        } else {
            String::new()
        }
    );
    let mut rows: Vec<_> = rules.iter().collect();
    rows.sort_by_key(|&(_, _, c)| std::cmp::Reverse(c));
    for (src, via, count) in rows.into_iter().take(top) {
        let _ = writeln!(report, "  {{{src}}} -> {{{via}}}   support {count}");
    }
    Ok(report)
}

/// Maps the CLI's strategy flags onto a registry spec string. A full
/// spec like `sliding(s=10,c=0.05)` passes through verbatim; a bare
/// name composes `--support` (and, for the streaming maintainers,
/// `--block`-derived defaults) into parameters.
fn strategy_spec(name: &str, support: u64, block: usize) -> String {
    if name.contains('(') {
        return name.to_string();
    }
    match name {
        // Historical CLI shorthand for `topic-sliding`.
        "topic" => format!("topic-sliding(s={support})"),
        "incremental" => format!("incremental(t={support},hl={})", 2 * block),
        "lossy" => format!("lossy(t={support},eps={})", 1.0 / (2.0 * block as f64)),
        other => format!("{other}(s={support})"),
    }
}

fn cmd_evaluate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["trace", "block", "support", "strategy"], &["chart"])?;
    let path = flags.required("trace")?;
    let block: usize = flags.parse_num("block", 10_000)?;
    let support: u64 = flags.parse_num("support", 10)?;
    let name = flags.get("strategy").unwrap_or("sliding");
    let file = File::open(path).map_err(|e| err(format!("opening {path}: {e}")))?;
    let pairs = csvio::read_pairs(BufReader::new(file)).map_err(|e| err(e.to_string()))?;
    if pairs.len() / block < 2 {
        return Err(err(format!(
            "trace has {} pairs: need at least two blocks of {block}",
            pairs.len()
        )));
    }
    let mut strategy = engine::make_strategy(&strategy_spec(name, support, block))
        .map_err(|e| err(e.to_string()))?;
    let run = evaluate(strategy.as_mut(), &pairs, block);
    let mut report = String::new();
    let _ = writeln!(report, "strategy:        {}", run.strategy);
    let _ = writeln!(report, "trials:          {}", run.trials);
    let _ = writeln!(report, "avg coverage:    {:.3}", run.avg_coverage);
    let _ = writeln!(report, "avg success:     {:.3}", run.avg_success);
    let _ = writeln!(report, "regenerations:   {}", run.regenerations);
    if let Some(bpr) = run.blocks_per_regen() {
        let _ = writeln!(report, "blocks/regen:    {bpr:.2}");
    }
    if flags.has("chart") {
        let _ = writeln!(
            report,
            "\n{}",
            render(
                "coverage (*) and success (+) per trial",
                &[&run.coverage, &run.success],
                &ChartOptions {
                    y_range: Some((0.0, 1.0)),
                    ..Default::default()
                },
            )
        );
    }
    Ok(report)
}

/// Wraps a bare `k=v,...` list into `name(k=v,...)`; full specs that
/// already carry a parameter list pass through verbatim.
fn wrap_spec(name: &str, spec: &str) -> String {
    if spec.contains('(') {
        spec.to_string()
    } else {
        format!("{name}({spec})")
    }
}

/// The flags [`live_cfg`] reads.
const LIVE_FLAGS: [&str; 6] = ["nodes", "queries", "faults", "retry", "links", "adapt"];

/// The live-simulation config `simulate` and `run --policy` share:
/// `--nodes`/`--queries` plus the four plan flags, each a registry spec
/// (bare `k=v` lists wrap into `name(...)`).
fn live_cfg(flags: &Flags, seed: u64) -> Result<SimConfig, CliError> {
    let nodes: usize = flags.parse_num("nodes", 400)?;
    let queries: usize = flags.parse_num("queries", 2_000)?;
    // `Network::build` asserts the first two; node ids are `u32`.
    if nodes < 4 {
        return Err(err(format!("--nodes must be at least 4, got {nodes}")));
    }
    if u32::try_from(nodes).is_err() {
        return Err(err(format!(
            "--nodes must fit a 32-bit node id (at most {}), got {nodes}",
            u32::MAX
        )));
    }
    if queries == 0 {
        return Err(err("--queries must be at least 1, got 0"));
    }
    let mut cfg = SimConfig::default_with(nodes, queries, seed);
    let bad = |e: engine::RegistryError| err(e.to_string());
    if let Some(spec) = flags.get("faults") {
        cfg.faults = Some(engine::make_fault_plan(&wrap_spec("faults", spec)).map_err(bad)?);
    }
    if let Some(spec) = flags.get("retry") {
        cfg.retry = Some(engine::make_retry_policy(&wrap_spec("retry", spec)).map_err(bad)?);
    }
    if let Some(spec) = flags.get("links") {
        cfg.links = Some(engine::make_link_plan(&wrap_spec("links", spec)).map_err(bad)?);
    }
    if let Some(spec) = flags.get("adapt") {
        cfg.adapt = Some(engine::make_adapt_plan(&wrap_spec("adapt", spec)).map_err(bad)?);
    }
    Ok(cfg)
}

fn simulate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[&LIVE_FLAGS[..], &["seed", "policy"]].concat(), &[])?;
    let seed: u64 = flags.parse_num("seed", 1)?;
    let policy = flags.get("policy").unwrap_or("flood");
    let cfg = live_cfg(&flags, seed)?;
    let linked = cfg.links.is_some();
    let faulted = cfg.faults.is_some() || cfg.retry.is_some() || linked;
    let (metrics, stats, _, _) =
        engine::run_live(cfg, policy, None).map_err(|e| err(e.to_string()))?;
    let mut report = String::new();
    for (key, value) in &stats {
        let _ = writeln!(
            report,
            "{:<19}{value:.2}",
            format!("{}:", key.replace('_', " "))
        );
    }
    let _ = writeln!(report, "policy:            {}", metrics.policy);
    let _ = writeln!(report, "queries:           {}", metrics.queries);
    let _ = writeln!(
        report,
        "messages/query:    {:.1}",
        metrics.messages_per_query
    );
    let _ = writeln!(report, "success rate:      {:.3}", metrics.success_rate);
    if let Some(h) = &metrics.first_hit_hops {
        let _ = writeln!(report, "first-hit hops:    {:.2}", h.mean);
    }
    if faulted {
        let _ = writeln!(report, "retried:           {}", metrics.retried);
        let _ = writeln!(report, "expired:           {}", metrics.expired);
        let _ = writeln!(report, "duplicate hits:    {}", metrics.duplicate_hits);
        let _ = writeln!(report, "lost messages:     {}", metrics.lost_messages);
    }
    if linked {
        let _ = writeln!(report, "buffer dropped:    {}", metrics.buffer_dropped);
    }
    Ok(report)
}

/// Default seed for `arq run` — the bench harness's experiment seed, so
/// the E3 preset reproduces the persisted results' configuration.
const RUN_SEED: u64 = 20_060_814;

/// Resolves the `--obs` flag into a registry obs spec. `arq run` always
/// instruments (that is its purpose); bare `k=v` lists wrap into
/// `obs(...)`.
fn obs_spec_from(flags: &Flags) -> String {
    match flags.get("obs") {
        None => "obs".to_string(),
        Some(s) if s == "obs" || s.contains('(') => s.to_string(),
        Some(s) => format!("obs({s})"),
    }
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    let own = [
        "exp",
        "strategy",
        "pairs",
        "block",
        "policy",
        "seed",
        "obs",
        "trace-events",
        "out",
    ];
    let flags = Flags::parse(args, &[&LIVE_FLAGS[..], &own].concat(), &[])?;
    let seed: u64 = flags.parse_num("seed", RUN_SEED)?;
    let obs = obs_spec_from(&flags);
    engine::make_obs_plan(&obs).map_err(|e| err(e.to_string()))?;
    let specs: Vec<RunSpec> = if let Some(exp) = flags.get("exp") {
        match exp {
            // E3 block-size sweep: one shared calibrated trace replayed
            // through the Sliding Window at five block sizes — the same
            // configuration the bench harness persists as results/e3.json
            // at quick scale.
            "e3" => {
                let pairs: usize = flags.parse_num("pairs", 610_000)?;
                let trace = TraceSource::Shared {
                    label: "paper-default".into(),
                    seed,
                    pairs: std::sync::Arc::new(
                        SynthTrace::new(SynthConfig::paper_default(pairs, seed)).pairs(),
                    ),
                };
                [2_500usize, 5_000, 10_000, 20_000, 50_000]
                    .iter()
                    .map(|&bs| RunSpec::TraceEval {
                        trace: trace.clone(),
                        strategy: "sliding(s=10)".into(),
                        block_size: bs,
                        obs: Some(obs.clone()),
                    })
                    .collect()
            }
            other => {
                return Err(err(format!(
                    "unknown experiment preset `{other}` (valid: e3)"
                )))
            }
        }
    } else if let Some(policy) = flags.get("policy") {
        let cfg = live_cfg(&flags, seed)?;
        vec![RunSpec::LiveSim {
            cfg,
            policy: policy.to_string(),
            graph: None,
            obs: Some(obs.clone()),
        }]
    } else {
        let pairs: usize = flags.parse_num("pairs", 60_000)?;
        let block: usize = flags.parse_num("block", 10_000)?;
        let strategy = flags.get("strategy").unwrap_or("sliding(s=10)");
        vec![RunSpec::TraceEval {
            trace: TraceSource::PaperDefault { pairs, seed },
            strategy: strategy.to_string(),
            block_size: block,
            obs: Some(obs.clone()),
        }]
    };
    let artifacts = engine::execute(&specs).map_err(|e| err(e.to_string()))?;
    if let Some(path) = flags.get("trace-events") {
        let mut out = String::new();
        for a in &artifacts {
            if let Some(report) = &a.obs {
                for ev in &report.events {
                    // Prefix each event with its run index so a
                    // multi-run sweep stays one self-describing stream.
                    let mut fields = match ev.to_json() {
                        Json::Obj(fields) => fields,
                        other => vec![("event".to_string(), other)],
                    };
                    fields.insert(0, ("run".to_string(), Json::from(a.index)));
                    out.push_str(&Json::Obj(fields).to_string());
                    out.push('\n');
                }
            }
        }
        arq_simkern::write_atomic_str(path, &out)
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    if let Some(path) = flags.get("out") {
        let doc = Json::Arr(artifacts.iter().map(ToJson::to_json).collect());
        arq_simkern::write_atomic_str(path, &doc.to_string_pretty())
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    let mut report = String::new();
    for a in &artifacts {
        let events = a.obs.as_ref().map_or(0, |o| o.events.len());
        let _ = writeln!(
            report,
            "run {}: {}  seed {}  digest {:016x}  {events} events",
            a.index, a.label, a.seed, a.digest
        );
        match (&a.obs, a.eval_run(), a.metrics()) {
            (_, Some(run), _) => {
                let _ = writeln!(
                    report,
                    "  trials {}  avg coverage {:.3}  avg success {:.3}  regenerations {}",
                    run.trials, run.avg_coverage, run.avg_success, run.regenerations
                );
            }
            (Some(o), _, Some(m)) => {
                let _ = writeln!(
                    report,
                    "  success {:.3}  msgs/query {:.1}  forwards {}  metrics digest {:016x}",
                    m.success_rate,
                    m.messages_per_query,
                    o.registry.counter_value("forwards").unwrap_or(0),
                    m.digest()
                );
            }
            (None, _, Some(m)) => {
                let _ = writeln!(
                    report,
                    "  success {:.3}  msgs/query {:.1}  metrics digest {:016x}",
                    m.success_rate,
                    m.messages_per_query,
                    m.digest()
                );
            }
            _ => {}
        }
    }
    Ok(report)
}

/// Renders one artifact's JSON object for `arq report`.
/// Renders one `arq run` artifact. Partial or future-schema artifacts
/// produce an error naming the missing or unknown section instead of a
/// report full of placeholders (or a panic downstream).
fn report_artifact(a: &Json, timeline: bool, out: &mut String) -> Result<(), String> {
    let kind = a
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing section `kind` (not an `arq run` artifact?)".to_string())?;
    if kind != "trace-eval" && kind != "live-sim" {
        return Err(format!(
            "unknown artifact kind `{kind}` (this build reads `trace-eval` and `live-sim`; \
             written by a newer arq?)"
        ));
    }
    let run = a
        .get("run")
        .ok_or_else(|| format!("`{kind}` artifact is missing section `run`"))?;
    let s = |key: &str| a.get(key).and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "{} {}  seed {}  digest {}",
        kind,
        s("label"),
        a.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN),
        s("digest")
    );
    if kind == "live-sim" {
        let metrics = run
            .get("metrics")
            .ok_or_else(|| "`live-sim` artifact is missing section `run.metrics`".to_string())?;
        let num = |key: &str| metrics.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        // `buffer_dropped` is serialized only by link-enabled runs that
        // actually dropped; surface it only then.
        let buffered = metrics
            .get("buffer_dropped")
            .and_then(Json::as_f64)
            .map_or(String::new(), |b| format!("  buffer-dropped {b}"));
        let _ = writeln!(
            out,
            "  success {:.3}  msgs/query {:.1}  retried {}  expired {}  duplicate {}  lost {}{}",
            num("success_rate"),
            num("messages_per_query"),
            num("retried"),
            num("expired"),
            num("duplicate_hits"),
            num("lost_messages"),
            buffered
        );
        // Link-layer histograms (query latency, per-node byte budgets)
        // persist as bucket snapshots; render their quantiles here.
        let hists = a
            .get("obs")
            .and_then(|o| o.get("metrics"))
            .and_then(|m| m.get("histograms"));
        let hist = |name: &str| {
            hists
                .and_then(|h| h.get(name))
                .map(|h| {
                    Histogram::from_json(h).map_err(|e| format!("obs histogram `{name}`: {e}"))
                })
                .transpose()
        };
        if let Some(latency) = hist("query_latency")? {
            if let (Some(p50), Some(p95), Some(p99)) = (
                latency.quantile(0.50),
                latency.quantile(0.95),
                latency.quantile(0.99),
            ) {
                let _ = writeln!(
                    out,
                    "  query latency p50/p95/p99  {p50:.0}/{p95:.0}/{p99:.0} ticks"
                );
            }
        }
        if let (Some(up), Some(down)) = (hist("node_up_bytes")?, hist("node_down_bytes")?) {
            if let (Some(up50), Some(up95), Some(down50), Some(down95)) = (
                up.quantile(0.50),
                up.quantile(0.95),
                down.quantile(0.50),
                down.quantile(0.95),
            ) {
                let _ = writeln!(
                    out,
                    "  node bytes p50/p95  up {up50:.0}/{up95:.0}  down {down50:.0}/{down95:.0}"
                );
            }
        }
    } else {
        let num = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  trials {}  avg coverage {:.3}  avg success {:.3}",
            num("trials"),
            num("avg_coverage"),
            num("avg_success")
        );
    }
    if !timeline {
        return Ok(());
    }
    // Prefer the instrumented per-block series; fall back to the eval
    // run's coverage/success curves for uninstrumented artifacts.
    let obs_series = a.get("obs").and_then(|o| o.get("series"));
    let floats = |v: Option<&Json>| -> Vec<f64> {
        v.and_then(Json::as_array)
            .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    if let Some(series) = obs_series {
        let alpha = floats(series.get("alpha"));
        let rho = floats(series.get("rho"));
        let traffic = floats(series.get("traffic"));
        let blocks = floats(series.get("blocks"));
        let _ = writeln!(out, "  block      α      ρ   traffic");
        for (i, a) in alpha.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>5}  {:.3}  {:.3}  {:>8}",
                blocks.get(i).copied().unwrap_or(i as f64) as u64,
                a,
                rho.get(i).copied().unwrap_or(f64::NAN),
                traffic.get(i).copied().unwrap_or(f64::NAN) as u64
            );
        }
    } else {
        let coverage = floats(run.get("coverage"));
        let success = floats(run.get("success"));
        if !coverage.is_empty() {
            let _ = writeln!(out, "  block      α      ρ");
            for (i, c) in coverage.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {:>5}  {:.3}  {:.3}",
                    i + 1,
                    c,
                    success.get(i).copied().unwrap_or(f64::NAN)
                );
            }
        }
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["in"], &["timeline"])?;
    let path = flags.required("in")?;
    let timeline = flags.has("timeline");
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("reading {path}: {e}")))?;
    let doc = arq_simkern::json::parse(&text).map_err(|e| err(format!("parsing {path}: {e}")))?;
    let mut out = String::new();
    match &doc {
        // An `arq run --out` artifact array.
        Json::Arr(artifacts) => {
            for (i, a) in artifacts.iter().enumerate() {
                report_artifact(a, timeline, &mut out)
                    .map_err(|m| err(format!("{path}: artifact {i}: {m}")))?;
            }
        }
        // A bench results/e*.json document.
        Json::Obj(_) if doc.get("rows").is_some() => {
            let _ = writeln!(
                out,
                "{} — {}",
                doc.get("id").and_then(Json::as_str).unwrap_or("?"),
                doc.get("title").and_then(Json::as_str).unwrap_or("?")
            );
            if let Some(rows) = doc.get("rows").and_then(Json::as_array) {
                for row in rows {
                    let _ = writeln!(
                        out,
                        "  {}: {}",
                        row.at(0).and_then(Json::as_str).unwrap_or("?"),
                        row.at(1).and_then(Json::as_str).unwrap_or("?")
                    );
                }
            }
            if timeline {
                if let Some(Json::Obj(series)) = doc.get("series") {
                    for (name, values) in series {
                        let n = values.as_array().map_or(0, <[Json]>::len);
                        let _ = writeln!(out, "  series {name}: {n} points");
                    }
                }
            }
        }
        // A single artifact object.
        Json::Obj(_) => {
            report_artifact(&doc, timeline, &mut out).map_err(|m| err(format!("{path}: {m}")))?;
        }
        _ => return Err(err(format!("{path}: not an artifact array or report"))),
    }
    Ok(out)
}

/// `arq sweep` — run, resume, or inspect a declarative sweep plan.
fn cmd_sweep(args: &[String]) -> Result<String, CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(err("sweep needs an action: run | resume | show"));
    };
    if !matches!(action.as_str(), "run" | "resume" | "show") {
        return Err(err(format!(
            "unknown sweep action `{action}` (run | resume | show)"
        )));
    }
    let Some((plan_path, rest)) = rest.split_first() else {
        return Err(err(format!("sweep {action} needs a plan file")));
    };
    let flags = Flags::parse(rest, &["out", "spin"], &[])?;
    let plan = sweep::SweepPlan::load(plan_path).map_err(|e| err(e.to_string()))?;
    let jobs = sweep::expand(&plan).map_err(|e| err(e.to_string()))?;
    let mut report = String::new();
    if action == "show" {
        let _ = writeln!(
            report,
            "plan {}  kind {}  seed {}  sampler {}  hash {:016x}",
            plan.name,
            plan.kind.label(),
            plan.seed,
            plan.sampler.describe(),
            plan.hash()
        );
        let _ = writeln!(report, "{} job(s):", jobs.len());
        for job in &jobs {
            let params = if job.params.is_empty() {
                "(base)".to_string()
            } else {
                job.params
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.render()))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                report,
                "  #{:<3} {:<24} {params}  [{:016x}]",
                job.index,
                job.spec.subject(),
                job.spec.digest()
            );
        }
        return Ok(report);
    }
    let resume = action == "resume";
    let spin: u64 = flags.parse_num("spin", 0)?;
    let out_dir = flags
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new("sweeps").join(&plan.name));
    let outcome = sweep::run_sweep(&plan, &jobs, &out_dir, resume, spin, engine::thread_count())
        .map_err(|e| err(e.to_string()))?;
    let _ = writeln!(
        report,
        "sweep {}: {} jobs ({} run, {} skipped)",
        plan.name, outcome.jobs_total, outcome.jobs_run, outcome.jobs_skipped
    );
    let _ = writeln!(report, "  report  -> {}", outcome.report_path.display());
    let _ = writeln!(report, "  runbook -> {}", outcome.runbook_path.display());
    let _ = writeln!(report, "  journal -> {}", outcome.journal_path.display());
    Ok(report)
}

fn cmd_gen_events(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["pairs", "seed", "route-every", "out"], &[])?;
    let pairs: usize = flags.parse_num("pairs", 100_000)?;
    let seed: u64 = flags.parse_num("seed", 1)?;
    let route_every: usize = flags.parse_num("route-every", 0)?;
    let out = flags.required("out")?;
    let records = SynthTrace::new(SynthConfig::paper_default(pairs, seed)).pairs();
    let stream = crate::serve::render_event_stream(&records, route_every);
    arq_simkern::write_atomic(out, &stream).map_err(|e| err(format!("writing {out}: {e}")))?;
    let routes = records.len().checked_div(route_every).unwrap_or(0);
    Ok(format!(
        "wrote event stream: {} pair frames, {} route frames, {} bytes -> {out}\n",
        records.len(),
        routes,
        stream.len()
    ))
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    use crate::serve;
    let flags = Flags::parse(
        args,
        &[
            "input",
            "socket",
            "maintainer",
            "block",
            "k",
            "queue",
            "checkpoint",
            "checkpoint-every",
            "metrics",
            "out",
            "spin",
        ],
        &["shed"],
    )?;
    let cfg = serve::ServeConfig {
        spec: flags.get("maintainer").unwrap_or("incremental").to_string(),
        block: flags.parse_num("block", 10_000u64)?,
        k: flags.parse_num("k", 2usize)?,
        queue: flags.parse_num("queue", 1024usize)?,
        shed: flags.has("shed"),
        checkpoint: flags.get("checkpoint").map(str::to_string),
        checkpoint_every: flags.parse_num("checkpoint-every", 0u64)?,
        metrics: flags.get("metrics").map(str::to_string),
        spin: flags.parse_num("spin", 0u64)?,
        ..serve::ServeConfig::default()
    };
    serve::install_signal_handlers();
    let input = flags.get("input").unwrap_or("-");
    let socket = flags.get("socket");
    let summary = if let Some(path) = socket {
        #[cfg(unix)]
        {
            serve::run_socket(cfg, path)
        }
        #[cfg(not(unix))]
        {
            return Err(err(format!(
                "--socket {path} requires a Unix platform; use --input instead"
            )));
        }
    } else if input == "-" {
        serve::run_events(cfg, std::io::stdin(), &mut std::io::stdout())
    } else {
        let file =
            File::open(input).map_err(|e| err(format!("opening event stream {input}: {e}")))?;
        serve::run_events(cfg, file, &mut std::io::stdout())
    }
    .map_err(|e| err(e.message))?;
    if let Some(out) = flags.get("out") {
        arq_simkern::write_atomic_str(out, &summary.to_json().to_string_pretty())
            .map_err(|e| err(format!("writing {out}: {e}")))?;
    }
    Ok(summary.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("arq-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_events_and_serve_round_trip() {
        let stream = tmp("serve-events.bin");
        let ckpt = tmp("serve.ckpt");
        let summary_path = tmp("serve-summary.json");
        let _ = std::fs::remove_file(&ckpt);
        let out = run(&args(&format!(
            "gen-events --pairs 3000 --seed 6 --route-every 500 --out {stream}"
        )))
        .unwrap();
        assert!(out.contains("3000 pair frames, 6 route frames"), "{out}");
        let out = run(&args(&format!(
            "serve --input {stream} --maintainer incremental(t=4,hl=2000) --block 1000 \
             --checkpoint {ckpt} --checkpoint-every 1000 --out {summary_path}"
        )))
        .unwrap();
        assert!(out.contains("events:          3006 (3000 pairs"), "{out}");
        let doc =
            arq_simkern::json::parse(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(doc.get("pairs").and_then(Json::as_f64), Some(3000.0));
        let digest = doc
            .get("ruleset_digest")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // Re-running over the same stream with the checkpoint in place
        // skips everything and lands on the same digest.
        let out = run(&args(&format!(
            "serve --input {stream} --maintainer incremental(t=4,hl=2000) --block 1000 \
             --checkpoint {ckpt} --out {summary_path}"
        )))
        .unwrap();
        assert!(out.contains("3000 skipped by checkpoint"), "{out}");
        let doc =
            arq_simkern::json::parse(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("ruleset_digest").and_then(Json::as_str),
            Some(digest.as_str())
        );
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn sweep_show_run_resume_round_trip() {
        let plan_path = tmp("cli-sweep.toml");
        std::fs::write(
            &plan_path,
            "name = \"cli-sweep\"\nkind = \"trace-eval\"\nseed = 5\n\n[base]\npairs = 6000\n\
             block = 2000\nstrategy = \"sliding(s=10)\"\n\n[[axis]]\nkey = \"strategy.s\"\n\
             values = [3, 5]\n",
        )
        .unwrap();
        let out_dir = tmp("cli-sweep-out");
        let _ = std::fs::remove_dir_all(&out_dir);

        let out = run(&args(&format!("sweep show {plan_path}"))).unwrap();
        assert!(
            out.contains("plan cli-sweep  kind trace-eval  seed 5"),
            "{out}"
        );
        assert!(out.contains("2 job(s):"), "{out}");
        assert!(out.contains("strategy.s=3"), "{out}");

        let out = run(&args(&format!("sweep run {plan_path} --out {out_dir}"))).unwrap();
        assert!(
            out.contains("sweep cli-sweep: 2 jobs (2 run, 0 skipped)"),
            "{out}"
        );
        let report_path = std::path::Path::new(&out_dir).join("report.json");
        let first = std::fs::read(&report_path).unwrap();
        let doc = arq_simkern::json::parse(std::str::from_utf8(&first).unwrap()).unwrap();
        assert_eq!(
            doc.get("rows").and_then(Json::as_array).map(|r| r.len()),
            Some(2)
        );

        // Resume over a finished sweep skips every job and reassembles
        // identical bytes from the journal.
        let out = run(&args(&format!("sweep resume {plan_path} --out {out_dir}"))).unwrap();
        assert!(out.contains("(0 run, 2 skipped)"), "{out}");
        assert_eq!(std::fs::read(&report_path).unwrap(), first);
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn sweep_rejects_bad_actions_and_bad_plans() {
        let e = run(&args("sweep")).unwrap_err();
        assert!(e.0.contains("run | resume | show"), "{e}");
        let e = run(&args("sweep frobnicate plan.toml")).unwrap_err();
        assert!(e.0.contains("unknown sweep action"), "{e}");
        let e = run(&args("sweep show /nonexistent/plan.toml")).unwrap_err();
        assert!(e.0.contains("plan.toml"), "{e}");
        // Plan-file diagnostics match registry-spec quality: unknown
        // keys list the valid vocabulary.
        let bad = tmp("cli-sweep-bad.toml");
        std::fs::write(
            &bad,
            "name = \"bad\"\nkind = \"trace-eval\"\nseed = 1\n\n[base]\nblok = 2000\n",
        )
        .unwrap();
        let e = run(&args(&format!("sweep show {bad}"))).unwrap_err();
        assert!(e.0.contains("unknown key `blok`"), "{e}");
        assert!(e.0.contains("valid:"), "{e}");
    }

    #[test]
    fn no_args_prints_usage() {
        assert_eq!(run(&[]).unwrap(), USAGE);
        assert_eq!(run(&args("help")).unwrap(), USAGE);
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&args("frobnicate")).unwrap_err();
        assert!(e.0.contains("unknown command"));
    }

    #[test]
    fn gen_stats_evaluate_pipeline() {
        let trace = tmp("pipeline.csv");
        let out = run(&args(&format!(
            "gen-trace --pairs 30000 --seed 5 --out {trace}"
        )))
        .unwrap();
        assert!(out.contains("30000 pairs"));

        let out = run(&args(&format!("stats --trace {trace}"))).unwrap();
        assert!(out.contains("pairs:               30000"));

        let out = run(&args(&format!(
            "evaluate --trace {trace} --strategy sliding --block 10000 --support 10"
        )))
        .unwrap();
        assert!(out.contains("avg coverage"));
        assert!(out.contains("trials:          2"));
    }

    #[test]
    fn raw_clean_join_pipeline() {
        let raw = tmp("raw.csv");
        let pairs = tmp("joined.csv");
        run(&args(&format!(
            "gen-trace --pairs 3000 --seed 2 --out {raw} --raw"
        )))
        .unwrap();
        let out = run(&args(&format!("stats --trace {raw} --raw"))).unwrap();
        assert!(out.contains("answer ratio"));
        let out = run(&args(&format!("clean-join --raw {raw} --out {pairs}"))).unwrap();
        assert!(out.contains("joined:"));
        let out = run(&args(&format!("stats --trace {pairs}"))).unwrap();
        assert!(out.contains("distinct sources"));
    }

    #[test]
    fn evaluate_rejects_short_traces_and_bad_strategy() {
        let trace = tmp("short.csv");
        run(&args(&format!(
            "gen-trace --pairs 5000 --seed 3 --out {trace}"
        )))
        .unwrap();
        let e = run(&args(&format!("evaluate --trace {trace} --block 10000"))).unwrap_err();
        assert!(e.0.contains("at least two blocks"));
        let e = run(&args(&format!(
            "evaluate --trace {trace} --block 1000 --strategy bogus"
        )))
        .unwrap_err();
        assert!(e.0.contains("unknown strategy"));
    }

    #[test]
    fn mine_prints_ranked_rules() {
        let trace = tmp("mine.csv");
        run(&args(&format!(
            "gen-trace --pairs 12000 --seed 8 --out {trace}"
        )))
        .unwrap();
        let out = run(&args(&format!(
            "mine --trace {trace} --block 10000 --support 10 --top 5"
        )))
        .unwrap();
        assert!(out.contains("mined"), "{out}");
        assert!(out.contains("support"), "{out}");
        // Confidence cut shrinks the set.
        let cut = run(&args(&format!(
            "mine --trace {trace} --block 10000 --support 10 --confidence 0.3"
        )))
        .unwrap();
        let count = |s: &str| -> u64 {
            s.split_whitespace()
                .nth(1)
                .and_then(|w| w.parse().ok())
                .unwrap_or(0)
        };
        assert!(count(&cut) <= count(&out), "confidence cut grew the set");
    }

    #[test]
    fn evaluate_all_strategies_run() {
        let trace = tmp("all.csv");
        run(&args(&format!(
            "gen-trace --pairs 20000 --seed 4 --out {trace}"
        )))
        .unwrap();
        for s in [
            "static",
            "sliding",
            "lazy",
            "adaptive",
            "incremental",
            "lossy",
            "topic",
        ] {
            let out = run(&args(&format!(
                "evaluate --trace {trace} --strategy {s} --block 5000 --support 5"
            )))
            .unwrap_or_else(|e| panic!("strategy {s}: {e}"));
            assert!(out.contains("avg success"), "strategy {s} output:\n{out}");
        }
    }

    #[test]
    fn simulate_policies() {
        for p in ["flood", "assoc", "hybrid", "community(n=8)"] {
            let out = run(&args(&format!(
                "simulate --nodes 60 --queries 150 --policy {p} --seed 9"
            )))
            .unwrap_or_else(|e| panic!("policy {p}: {e}"));
            assert!(out.contains("messages/query"), "policy {p} output:\n{out}");
        }
        let e = run(&args("simulate --policy bogus")).unwrap_err();
        assert!(e.0.contains("unknown policy"));
    }

    // `Network::build` asserts on each of these; `simulate` and
    // `run --policy` share the check in `live_cfg`.
    #[test]
    fn simulate_rejects_a_network_too_small_to_build() {
        let e = run(&args("simulate --nodes 1 --queries 10")).unwrap_err();
        assert!(e.0.contains("--nodes must be at least 4, got 1"), "{e}");
    }

    #[test]
    fn simulate_rejects_node_counts_past_the_node_id() {
        let e = run(&args("run --policy flood --nodes 4294967296")).unwrap_err();
        assert!(e.0.contains("--nodes must fit a 32-bit node id"), "{e}");
    }

    #[test]
    fn simulate_rejects_zero_queries() {
        let e = run(&args("simulate --nodes 50 --queries 0")).unwrap_err();
        assert!(e.0.contains("--queries must be at least 1"), "{e}");
    }

    #[test]
    fn simulate_with_faults_and_retry() {
        // Bare key=value lists wrap into registry specs; `live` aliases
        // `simulate`.
        let out = run(&args(
            "live --nodes 60 --queries 150 --seed 9 --faults loss=0.2 --retry attempts=2",
        ))
        .unwrap();
        assert!(out.contains("lost messages:"), "{out}");
        assert!(out.contains("retried:"), "{out}");
        // Full specs pass through verbatim.
        let out = run(&args(
            "simulate --nodes 60 --queries 150 --seed 9 --faults faults(loss=0.1,silent=0.05)",
        ))
        .unwrap();
        assert!(out.contains("lost messages:"), "{out}");
        // Bad fault keys surface the registry's key list.
        let e = run(&args("simulate --faults dropchance=0.5")).unwrap_err();
        assert!(e.0.contains("unknown parameter"), "{e}");
        assert!(e.0.contains("valid:"), "{e}");
        let e = run(&args("simulate --retry deadline=0")).unwrap_err();
        assert!(e.0.contains("deadline"), "{e}");
    }

    #[test]
    fn simulate_with_links() {
        // Bare key=value lists wrap into `links(...)`; congested uplinks
        // surface the congestive-drop counter.
        let out = run(&args(
            "simulate --nodes 60 --queries 150 --seed 9 \
             --links up=4,down=16,upbuf=512,downbuf=2048 --retry attempts=2",
        ))
        .unwrap();
        assert!(out.contains("buffer dropped:"), "{out}");
        assert!(out.contains("lost messages:"), "{out}");
        // Bad link keys surface the registry's key list; zero bandwidth
        // is rejected by name.
        let e = run(&args("simulate --links bandwidth=5")).unwrap_err();
        assert!(e.0.contains("unknown parameter"), "{e}");
        assert!(e.0.contains("upbuf"), "{e}");
        let e = run(&args("simulate --links up=0")).unwrap_err();
        assert!(e.0.contains("`up` must be positive"), "{e}");
    }

    #[test]
    fn simulate_rejects_bad_minconf_and_adapt_specs() {
        // A bad `minconf=` surfaces the registry's typed spec error, not
        // a panic from deep inside rule generation — for every policy
        // that understands the knob.
        for p in [
            "assoc(k=4,minconf=1.5)",
            "assoc-adaptive(minconf=-0.1)",
            "hybrid(minconf=2)",
            "community(minconf=1.01)",
        ] {
            let e = run(&args(&format!(
                "simulate --nodes 40 --queries 50 --policy {p}"
            )))
            .unwrap_err();
            assert!(e.0.contains("`minconf` must be in [0, 1]"), "{p}: {e}");
        }
        // Bad adapt plans are rejected by field name at parse time.
        let e = run(&args("simulate --adapt every=0")).unwrap_err();
        assert!(e.0.contains("`every` must be positive"), "{e}");
        let e = run(&args("simulate --adapt budgit=4")).unwrap_err();
        assert!(e.0.contains("unknown parameter"), "{e}");
        assert!(e.0.contains("budget"), "{e}");
        // The happy path: confidence-pruned top-k routing with live
        // topology adaptation.
        let out = run(&args(
            "simulate --nodes 60 --queries 150 --seed 9 --policy assoc(k=4,minconf=0.6) \
             --adapt every=20000,budget=8,degree=2",
        ))
        .unwrap();
        assert!(out.contains("messages/query"), "{out}");
    }

    #[test]
    fn e18_plan_reports_are_thread_count_invariant() {
        // The checked-in E18 plan (rescaled to smoke size) must land a
        // byte-identical report.json at any worker count.
        let mut plan =
            sweep::SweepPlan::parse(include_str!("../../../plans/e18.toml"), "plans/e18.toml")
                .unwrap();
        plan.set_base("nodes", 60usize).unwrap();
        plan.set_base("queries", 120usize).unwrap();
        let jobs = sweep::expand(&plan).unwrap();
        assert_eq!(jobs.len(), 28, "7 policies x 2 worlds x 2 adapt modes");
        let mut reports = Vec::new();
        for threads in [1usize, 4, 20] {
            let dir = tmp(&format!("e18-threads-{threads}"));
            let _ = std::fs::remove_dir_all(&dir);
            let outcome =
                sweep::run_sweep(&plan, &jobs, std::path::Path::new(&dir), false, 0, threads)
                    .unwrap();
            reports.push(std::fs::read(&outcome.report_path).unwrap());
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(reports[0], reports[1], "1-thread vs 4-thread report");
        assert_eq!(reports[0], reports[2], "1-thread vs 20-thread report");
    }

    #[test]
    fn run_with_links_reports_percentiles() {
        let arts = tmp("link_artifacts.json");
        let out = run(&args(&format!(
            "run --policy flood --nodes 50 --queries 80 --seed 4 \
             --links up=8,down=32,upbuf=1024,downbuf=4096 --obs events=0,series=0 \
             --out {arts}"
        )))
        .unwrap();
        assert!(out.contains("metrics digest"), "{out}");
        let rep = run(&args(&format!("report --in {arts}"))).unwrap();
        assert!(rep.contains("query latency p50/p95/p99"), "{rep}");
        assert!(rep.contains("node bytes p50/p95"), "{rep}");
    }

    #[test]
    fn run_and_report_roundtrip() {
        let events = tmp("events.jsonl");
        let arts = tmp("artifacts.json");
        let out = run(&args(&format!(
            "run --strategy sliding(s=10) --pairs 20000 --block 5000 --seed 3 \
             --trace-events {events} --out {arts}"
        )))
        .unwrap();
        assert!(out.contains("events"), "{out}");
        assert!(out.contains("avg coverage"), "{out}");
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(jsonl.lines().count() > 0, "no events streamed");
        assert!(
            jsonl.lines().all(|l| l.starts_with("{\"run\":0,\"ev\":\"")),
            "events missing run prefix"
        );
        let rep = run(&args(&format!("report --in {arts} --timeline"))).unwrap();
        assert!(rep.contains("trace-eval sliding(s=10)"), "{rep}");
        assert!(rep.contains("α"), "{rep}");
        assert!(rep.contains("traffic"), "{rep}");
    }

    #[test]
    fn run_rejects_bad_obs_and_presets() {
        let e = run(&args("run --obs fanout=0 --pairs 20000")).unwrap_err();
        assert!(e.0.contains("fanout"), "{e}");
        let e = run(&args("run --exp e99")).unwrap_err();
        assert!(e.0.contains("unknown experiment preset"), "{e}");
    }

    #[test]
    fn run_live_world_emits_lifecycle_events() {
        let events = tmp("live_events.jsonl");
        let out = run(&args(&format!(
            "run --policy flood --nodes 50 --queries 60 --seed 4 \
             --faults loss=0.2 --retry attempts=2 --trace-events {events}"
        )))
        .unwrap();
        assert!(out.contains("metrics digest"), "{out}");
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(jsonl.contains("\"ev\":\"forward\""), "{jsonl}");
        assert!(
            jsonl.contains("\"ev\":\"fault_drop\""),
            "no drops at loss=0.2"
        );
    }

    #[test]
    fn report_reads_results_documents() {
        let path = tmp("e0.json");
        std::fs::write(
            &path,
            r#"{"id":"E0","title":"smoke","paper_claim":"n/a",
               "rows":[["metric","1.0"]],"series":{"x":[1,2,3]}}"#,
        )
        .unwrap();
        let rep = run(&args(&format!("report --in {path}"))).unwrap();
        assert!(rep.contains("E0 — smoke"), "{rep}");
        assert!(rep.contains("metric: 1.0"), "{rep}");
        let rep = run(&args(&format!("report --in {path} --timeline"))).unwrap();
        assert!(rep.contains("series x: 3 points"), "{rep}");
    }

    #[test]
    fn report_names_missing_and_unknown_sections() {
        // A future-schema artifact kind is refused by name.
        let path = tmp("future-artifact.json");
        std::fs::write(
            &path,
            r#"[{"kind":"quantum-eval","label":"x","seed":1,"digest":"00","run":{}}]"#,
        )
        .unwrap();
        let e = run(&args(&format!("report --in {path}"))).unwrap_err();
        assert!(e.0.contains("artifact 0"), "{e}");
        assert!(e.0.contains("unknown artifact kind `quantum-eval`"), "{e}");

        // A partial artifact names the section it lost.
        std::fs::write(&path, r#"{"kind":"trace-eval","label":"x","seed":1}"#).unwrap();
        let e = run(&args(&format!("report --in {path}"))).unwrap_err();
        assert!(e.0.contains("missing section `run`"), "{e}");

        std::fs::write(&path, r#"{"kind":"live-sim","label":"x","run":{}}"#).unwrap();
        let e = run(&args(&format!("report --in {path}"))).unwrap_err();
        assert!(e.0.contains("missing section `run.metrics`"), "{e}");

        // A corrupt histogram snapshot is named, not skipped or panicked on.
        std::fs::write(
            &path,
            r#"{"kind":"live-sim","label":"x","run":{"metrics":{}},"obs":{"metrics":{"histograms":
               {"query_latency":{"lo":5.0,"hi":5.0,"buckets":[1],"underflow":0,"overflow":0,"count":1}}}}}"#,
        )
        .unwrap();
        let e = run(&args(&format!("report --in {path}"))).unwrap_err();
        assert!(e.0.contains("obs histogram `query_latency`"), "{e}");
        assert!(e.0.contains("degenerate range"), "{e}");

        // Not an artifact at all: `kind` itself is the named gap.
        std::fs::write(&path, r#"{"label":"x"}"#).unwrap();
        let e = run(&args(&format!("report --in {path}"))).unwrap_err();
        assert!(e.0.contains("missing section `kind`"), "{e}");
    }

    #[test]
    fn flag_parser_errors() {
        let e = run(&args("gen-trace --pairs")).unwrap_err();
        assert!(e.0.contains("needs a value"));
        let e = run(&args("gen-trace positional")).unwrap_err();
        assert!(e.0.contains("expected a --flag"));
        let e = run(&args("gen-trace --pairs ten --out /tmp/x")).unwrap_err();
        assert!(e.0.contains("cannot parse"));
        let e = run(&args("gen-trace --pairs 100")).unwrap_err();
        assert!(e.0.contains("missing required flag --out"));
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (cmd, flag, rest) in [
            ("simulate", "nodez", "60 --queries 10"),
            ("simulate --nodes 9", "sharded", "1"),
            ("run --policy flood", "sharded", "1"),
            ("serve --input x", "shedd", ""),
        ] {
            let e = run(&args(&format!("{cmd} --{flag} {rest}"))).unwrap_err();
            assert!(
                e.0.contains(&format!("unknown flag `--{flag}`")),
                "{cmd}: {e}"
            );
            assert!(e.0.contains("(valid: "), "{cmd}: {e}");
        }
        let e = run(&args("simulate --nodez 60")).unwrap_err();
        assert!(e.0.contains("--nodes, --queries"), "{e}");
    }

    /// Every `--flag` a command's USAGE block names is one that command
    /// accepts. Value flags are probed with no value, boolean flags
    /// (`[--flag]`) with a dangling value flag after them, so each probe
    /// stops in the flag parser without running anything.
    #[test]
    fn every_usage_flag_is_accepted_by_its_command() {
        let body = USAGE.split_once("COMMANDS:\n").unwrap().1;
        let mut blocks: Vec<(&str, String)> = Vec::new();
        for line in body.lines() {
            match line.strip_prefix("  ") {
                Some(rest) if !rest.starts_with(' ') => {
                    let cmd = rest.split_whitespace().next().unwrap();
                    blocks.push((cmd, String::new()));
                }
                _ => blocks.last_mut().unwrap().1.push_str(line),
            }
        }
        let mut probed = 0;
        for (cmd, text) in &blocks {
            let prefix: &[&str] = match *cmd {
                "sweep" => &["sweep", "show", "plan.toml"],
                _ => &[cmd],
            };
            let flag_at = |i: usize| {
                let name: String = text[i + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                let boolean = text[i + 2 + name.len()..].starts_with(']');
                (name, boolean)
            };
            // `arq run --out` in another command's block names run's flag.
            let foreign = |i: usize| {
                text[..i].rsplit_once("arq ").is_some_and(|(_, t)| {
                    t.ends_with(' ') && !t.trim_end().contains(char::is_whitespace)
                })
            };
            // A flag is boolean if the block ever writes it `[--flag]`.
            let mut flags = std::collections::BTreeMap::new();
            for (i, _) in text.match_indices("--").filter(|&(i, _)| !foreign(i)) {
                let (name, boolean) = flag_at(i);
                *flags.entry(name).or_insert(false) |= boolean;
            }
            let dangling = flags.iter().find(|(_, b)| !**b).map(|(n, _)| n.clone());
            for (name, boolean) in &flags {
                let mut argv: Vec<String> = prefix.iter().map(|s| s.to_string()).collect();
                argv.push(format!("--{name}"));
                if *boolean {
                    argv.push(format!("--{}", dangling.as_ref().expect("a value flag")));
                }
                let e = run(&argv).unwrap_err();
                assert!(e.0.contains("needs a value"), "{cmd} --{name}: {e}");
                probed += 1;
            }
        }
        assert!(probed > 40, "parsed only {probed} usage flags");
    }

    #[test]
    fn upheaval_flag_changes_the_trace() {
        let a = tmp("plain.csv");
        let b = tmp("upheaval.csv");
        run(&args(&format!("gen-trace --pairs 2000 --seed 6 --out {a}"))).unwrap();
        run(&args(&format!(
            "gen-trace --pairs 2000 --seed 6 --out {b} --upheaval"
        )))
        .unwrap();
        // Below the upheaval index the streams agree; the flag is still
        // accepted and produces a valid file.
        let pa = csvio::read_pairs(File::open(&a).unwrap()).unwrap();
        let pb = csvio::read_pairs(File::open(&b).unwrap()).unwrap();
        assert_eq!(pa.len(), pb.len());
    }
}
