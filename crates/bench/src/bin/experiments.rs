//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p arq-bench --bin experiments -- [OPTIONS]
//!
//! OPTIONS:
//!   --quick            CI-sized runs (61 blocks instead of 366)
//!   --exp e1,e2,...    run only the named experiments
//!   --seed N           master seed (default 20060814)
//!   --out PATH         write the Markdown report here, creating its
//!                      directory (default: EXPERIMENTS.md in the cwd)
//!   --json DIR         write raw series JSON here (default: results/)
//! ```
//!
//! A report that cannot be written exits 1 with the I/O error.

use arq_bench::experiments::{run_all, Scale};
use arq_bench::report::{render_markdown, save_json};
use std::path::{Path, PathBuf};

struct Args {
    quick: bool,
    only: Option<Vec<String>>,
    seed: u64,
    out: PathBuf,
    json_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        only: None,
        seed: 20_060_814, // ICPP 2006 venue date
        out: PathBuf::from("EXPERIMENTS.md"),
        json_dir: PathBuf::from("results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--exp" => {
                let v = it.next().expect("--exp needs a value");
                args.only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--json" => args.json_dir = PathBuf::from(it.next().expect("--json needs a value")),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let scale = if args.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    eprintln!(
        "running experiments at {} scale (seed {}) …",
        if args.quick { "quick" } else { "full" },
        args.seed
    );
    let t0 = std::time::Instant::now();
    let reports = run_all(scale, args.seed, args.only.as_deref());
    eprintln!(
        "{} experiments finished in {:.1?}",
        reports.len(),
        t0.elapsed()
    );

    let header = format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Reproduction of every table and figure in *Adaptively Routing P2P Queries\n\
         Using Association Analysis* (Connelly et al., ICPP 2006). The paper's trace\n\
         is replaced by the calibrated synthetic generator described in `DESIGN.md`\n\
         §5, so *shapes and orderings* are the reproduction target, not absolute\n\
         values. Each experiment is a thin wrapper over a checked-in sweep plan\n\
         (see `DESIGN.md` §13); the plan link under each heading reruns that\n\
         experiment standalone via `arq sweep run`. Regenerate everything with:\n\n\
         ```\ncargo run --release -p arq-bench --bin experiments{}\n```\n\n\
         Scale: {} blocks × {} pairs, live sims {} nodes / {} queries. Seed: {}.\n",
        if args.quick { " -- --quick" } else { "" },
        scale.blocks,
        scale.block_size,
        scale.live_nodes,
        scale.live_queries,
        args.seed,
    );
    let md = render_markdown(&reports, &header);
    let out_dir = args.out.parent().filter(|d| !d.as_os_str().is_empty());
    out_dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| arq::simkern::write_atomic_str(&args.out, &md))
        .unwrap_or_else(|e| fail(&args.out, e));
    for r in &reports {
        save_json(&args.json_dir, r).unwrap_or_else(|e| fail(&args.json_dir, e));
    }
    println!("{md}");
    eprintln!(
        "wrote {} and {} JSON file(s) under {}",
        args.out.display(),
        reports.len(),
        args.json_dir.display()
    );
}

/// Reports an output that could not be written and exits 1.
fn fail(path: &Path, e: std::io::Error) -> ! {
    eprintln!("error: writing {}: {e}", path.display());
    std::process::exit(1);
}
