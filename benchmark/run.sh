#!/usr/bin/env bash
# One command for the benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--seed S] [--seconds T] [--quick]
#       the full run: builds release, runs every workload untraced,
#       checks every output, prints every metric by name with its unit,
#       then the traced replay for the per-layer numbers.
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       one run of one workload; the last line of stdout is the JSON
#       result BENCHMARK.json's `command` contract describes.
#   benchmark/run.sh compare RUN1.json RUN2.json
set -euo pipefail
cd "$(dirname "$0")/.."
# Everything the benchmark builds or writes stays inside the checkout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pi-e2e-bench" "$@"
