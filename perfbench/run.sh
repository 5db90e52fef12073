#!/usr/bin/env bash
# Builds the shipped daemon (`snorlax`, default features) and the
# benchmark from source, then runs the benchmark. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload diagnose-open --seed 1 --seconds 8 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p lazy-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$target/release/perfbench" --snorlax "$target/release/snorlax" "$@"
