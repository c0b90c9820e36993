#!/usr/bin/env bash
# The benchmark's one command (`command` in BENCHMARK.json): builds the
# `ladder` package from source if needed and runs it with the arguments
# given. Run from anywhere; it works from the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
