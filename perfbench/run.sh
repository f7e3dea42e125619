#!/usr/bin/env bash
# Builds the programs under test and the harness from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin repro --bin d16-fuzz --bin d16-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
