#!/usr/bin/env bash
# Build the benchmark from source and run it from the checkout root:
#   bash perfbench/run.sh --workload enum_study --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --build-dir "$build_dir" ./perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
