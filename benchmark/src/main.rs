//! arq-benchmark — the one harness that says what `arq` costs.
//!
//! ```text
//! arq-benchmark run [--seed S] [--seconds N] [--repeats 3] [--workload NAME]
//!                   [--smoke] [--out FILE] [--spec BENCHMARK.json]
//! arq-benchmark run --workload NAME --seed S --seconds N --trace 0|1
//! arq-benchmark compare A.json B.json [--spec BENCHMARK.json] [--out FILE]
//! ```
//!
//! The first form is the whole benchmark; the second is one measurement
//! ending in a one-line JSON result (what `BENCHMARK.json`'s `command`
//! runs); the third judges one result against another. See `README.md`.

mod compare;
mod harness;
mod metrics;
mod run;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Flags that take no value.
const SWITCHES: &[&str] = &["smoke"];

/// `--key value` pairs, bare `--switch`es and positional arguments.
pub struct Flags {
    pairs: Vec<(String, String)>,
    pub positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) if SWITCHES.contains(&key) => {
                    flags.pairs.push((key.to_string(), String::new()));
                }
                Some(key) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("`--{key}` needs a value"))?;
                    flags.pairs.push((key.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("`--{key} {raw}` is not a number")),
            None => Ok(default),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) => Flags::parse(rest).and_then(|flags| match command.as_str() {
            "run" => run::main(&flags),
            "compare" => compare::main(&flags),
            other => Err(format!("no subcommand `{other}` (have run, compare)")),
        }),
        None => Err("usage: arq-benchmark run|compare … (see benchmark/README.md)".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("arq-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
