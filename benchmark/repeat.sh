#!/usr/bin/env bash
# Run the whole benchmark twice on the same tree and seed and compare
# every end-to-end metric per workload against the bound BENCHMARK.json
# declares. Deterministic metrics, failure counts and all work counters
# (moves, expansions, cache hits, bytes) must be equal. Prints a table;
# exits 2 on any breach.
#
#   benchmark/repeat.sh [--seed S] [--seconds T]
#   benchmark/repeat.sh --quick     LeNet only, under 15 s: only checks
#                                   that the names the benchmark prints
#                                   and the names in BENCHMARK.json are
#                                   the same set.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ "${1:-}" == "--quick" ]]; then
    exec benchmark/run.sh --quick
fi
for run in 1 2; do
    benchmark/run.sh "$@"
    cp benchmark/out/report.json "benchmark/out/run$run.json"
done
exec benchmark/run.sh compare benchmark/out/run1.json benchmark/out/run2.json
