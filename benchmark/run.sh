#!/usr/bin/env bash
# Build the benchmark, run every workload untraced, then traced.
# Usage: benchmark/run.sh [--seed N] [--seconds S] [--smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run "$@"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --trace 1 "$@"
