#!/usr/bin/env bash
# Interleaved A/B of the frozen benchmark: the tree at a git revision
# against this checkout, one workload, N pairs.
#
#   ci/ab.sh REV WORKLOAD N [SEED]
#
# REV is exported (`git archive`) into a fresh directory outside the
# checkout, so it builds in its own target dir and leaves no worktree
# registered in this repository. Both sides are built first; then every
# pair runs
#   benchmark/run.sh --workload WORKLOAD --seed SEED --seconds T --trace 0
# once on each side, REV first in odd pairs and this checkout first in even
# ones. T is BENCHMARK.json's `run_seconds`; SEED defaults to 1.
#
# Prints each run's numbers as it lands, then, for e2e_s, e2e_tail_s,
# jobs_per_s and cpu_s_per_op, each side's median, quartiles (linear
# interpolation) and the pairs it won (higher is better for jobs_per_s,
# lower for the rest). Exits 1 if any run fails an op.
#
# Nothing under benchmark/ is edited, but cargo rewrites
# benchmark/Cargo.lock whenever the crates' manifests have moved on:
# `git checkout benchmark/Cargo.lock` before `git add -A`.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: ci/ab.sh REV WORKLOAD N [SEED]" >&2; exit 1; }
rev="$1" workload="$2" pairs="$3" seed="${4:-1}"
here="$(cd "$(dirname "$0")/.." && pwd)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$here/BENCHMARK.json")"
metrics="e2e_s e2e_tail_s jobs_per_s cpu_s_per_op"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev"
git -C "$here" archive "$rev" | tar -x -C "$work/rev"
# Each side builds into its own `.bench_build` (run.sh's default).
unset CARGO_TARGET_DIR

for side in "$work/rev" "$here"; do
    echo "ab: building the benchmark in $side" >&2
    (cd "$side" && CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
        --quiet --manifest-path benchmark/Cargo.toml)
done

# One run on one side; appends "pair metric value" lines to $work/<name>.tsv.
run_side() {
    local name="$1" dir="$2" pair="$3" line m v
    line="$(cd "$dir" && benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -1)"
    if ! echo "$line" | grep -q '"failed":0,'; then
        echo "ab: $name run of pair $pair failed ops: $line" >&2
        exit 1
    fi
    printf '  %-6s' "$name"
    for m in $metrics; do
        v="$(echo "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")"
        echo "$pair $m $v" >> "$work/$name.tsv"
        printf ' %s=%s' "$m" "$v"
    done
    echo
}

echo "ab: $rev vs checkout, $workload, $pairs pairs, seed $seed, ${seconds} s per run"
for pair in $(seq 1 "$pairs"); do
    echo "pair $pair"
    if (( pair % 2 )); then
        run_side rev "$work/rev" "$pair"
        run_side change "$here" "$pair"
    else
        run_side change "$here" "$pair"
        run_side rev "$work/rev" "$pair"
    fi
done

printf '\n%-13s %-6s %12s %12s %12s %6s\n' metric side median q1 q3 wins
for m in $metrics; do
    for name in rev change; do
        other=change
        [ "$name" = change ] && other=rev
        awk -v m="$m" -v name="$name" '
            FNR == 1 { file++ }
            $2 != m { next }
            file == 1 { mine[$1] = $3; vals[++n] = $3 }
            file == 2 { theirs[$1] = $3 }
            function q(p,   pos, lo) {
                pos = (n - 1) * p + 1
                lo = int(pos)
                return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
            }
            END {
                for (i = 1; i <= n; i++) s[i] = vals[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && s[j - 1] > s[j]; j--) {
                        t = s[j]; s[j] = s[j - 1]; s[j - 1] = t
                    }
                wins = 0
                for (p in mine) {
                    if (m == "jobs_per_s" ? mine[p] > theirs[p] : mine[p] < theirs[p]) wins++
                }
                printf "%-13s %-6s %12.6f %12.6f %12.6f %3d/%d\n", m, name, q(0.5), q(0.25), q(0.75), wins, n
            }' "$work/$name.tsv" "$work/$other.tsv"
    done
done
