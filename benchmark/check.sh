#!/bin/sh
# Builds the harness, runs its unit tests, then runs the whole benchmark
# at smoke scale (every count / 20). `run` itself exits non-zero when an
# output check fails or when the workload and metric names it printed
# are not exactly those in BENCHMARK.json, so this script's exit code is
# the assertion. Ready for ci.yml to call; takes under a minute.
set -eu
cd "$(dirname "$0")/.."
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --smoke --repeats 1 --spec BENCHMARK.json --out benchmark/out/smoke.json
