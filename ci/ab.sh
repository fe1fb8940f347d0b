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
# lower for the rest). Then one traced run (`--trace 1`) per side prints
# the work counters: pnr.assembled_expansions, stitch.stitched_nets,
# pnr.overused_tiles, stitch.cache_bytes_loaded and serve.polls_per_job
# (the /result fetches per serve_mix job); and the traced self-times
# stitch.relocate_s, stitch.check_design_s, pnr.route_assembled_s and
# pnr.sta_design_s (the replay's probe of the product `sta_design`), which
# show the layer a saving lands in.
# Exits 1 if any run fails an op.
#
# Every completed A/B appends one point, one line, to the perf ledger
# BENCH_e2e.json at the repository root: both revisions as commits one can
# check out (REV through `git describe`; the checkout as HEAD when it is
# clean, else as the commit `git stash create` makes of its uncommitted
# changes, recorded before the first build), the workload, the
# seed, N, host_cores, the UTC date, per metric each side's median,
# quartiles and wins, under `traced` each side's counters, and under
# `layers` each side's traced self-times (one run each, so corroboration,
# not a claim). Commit the point with the change it measured.
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
counters="pnr.assembled_expansions stitch.stitched_nets pnr.overused_tiles stitch.cache_bytes_loaded serve.polls_per_job"
layers="stitch.relocate_s stitch.check_design_s pnr.route_assembled_s pnr.sta_design_s"

# The checkout as a commit: `git stash create` commits a dirty tree without
# touching it and prints nothing for a clean one.
change_rev="$(git -C "$here" stash create)"
change_rev="$(git -C "$here" rev-parse --short=12 "${change_rev:-HEAD}")"

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

# The result line of one run on one side (`$4` is --trace); exits on a
# failed op.
run_once() {
    local name="$1" dir="$2" what="$3" trace="$4" line
    line="$(cd "$dir" && benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -1)"
    if ! echo "$line" | grep -q '"failed":0,'; then
        echo "ab: $name $what failed ops: $line" >&2
        exit 1
    fi
    echo "$line"
}

# The value of metric $2 in result line $1.
value_of() {
    echo "$1" | sed -n "s/.*\"${2//./\\.}\":{\"value\":\([^,}]*\).*/\1/p"
}

# One run on one side; appends "pair metric value" lines to $work/<name>.tsv.
run_side() {
    local name="$1" dir="$2" pair="$3" line m v
    line="$(run_once "$name" "$dir" "run of pair $pair" 0)" || exit 1
    printf '  %-6s' "$name"
    for m in $metrics; do
        v="$(value_of "$line" "$m")"
        echo "$pair $m $v" >> "$work/$name.tsv"
        printf ' %s=%s' "$m" "$v"
    done
    echo
}

# Writes the named metrics $3.. of result line $1 as a JSON object to file
# $2, printing each as it is read.
json_of() {
    local line="$1" out="$2" m v json=""
    shift 2
    for m in "$@"; do
        v="$(value_of "$line" "$m")"
        json="$json${json:+,}\"$m\":${v:-null}"
        printf ' %s=%s' "$m" "$v"
    done
    echo "{$json}" > "$out"
}

# One traced run on one side; writes its counters as a JSON object to
# $work/<name>.traced and its layer self-times to $work/<name>.layers.
traced_side() {
    local name="$1" dir="$2" line
    line="$(run_once "$name" "$dir" "traced run" 1)" || exit 1
    printf '  %-6s' "$name"
    json_of "$line" "$work/$name.traced" $counters
    json_of "$line" "$work/$name.layers" $layers
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

echo "ab: one traced run per side"
traced_side rev "$work/rev"
traced_side change "$here"

printf '\n%-13s %-6s %12s %12s %12s %6s\n' metric side median q1 q3 wins
: > "$work/summary.tsv"
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
                printf "%s %s %.6f %.6f %.6f %d %d\n", m, name, q(0.5), q(0.25), q(0.75), wins, n
            }' "$work/$name.tsv" "$work/$other.tsv" >> "$work/summary.tsv"
    done
done
awk '{ printf "%-13s %-6s %12.6f %12.6f %12.6f %3d/%d\n", $1, $2, $3, $4, $5, $6, $7 }' \
    "$work/summary.tsv"

# The ledger point: one JSON line, appended inside the `points` array.
ledger="$here/BENCH_e2e.json"
point="$(awk -v rev="$(git -C "$here" describe --always "$rev")" \
    -v change="$change_rev" \
    -v workload="$workload" -v seed="$seed" -v pairs="$pairs" \
    -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%d)" \
    -v traced_rev="$(cat "$work/rev.traced")" -v traced_change="$(cat "$work/change.traced")" \
    -v layers_rev="$(cat "$work/rev.layers")" -v layers_change="$(cat "$work/change.layers")" '
    {
        side = sprintf("\"median\":%s,\"q1\":%s,\"q3\":%s,\"wins\":%s", $3, $4, $5, $6)
        if (!($1 in seen)) { order[++k] = $1; seen[$1] = 1 }
        body[$1] = body[$1] (body[$1] == "" ? "" : ",") "\"" $2 "\":{" side "}"
    }
    END {
        printf "{\"rev\":\"%s\",\"change\":\"%s\",\"workload\":\"%s\",\"seed\":%s,", rev, change, workload, seed
        printf "\"n\":%s,\"host_cores\":%s,\"date\":\"%s\",\"metrics\":{", pairs, cores, date
        for (i = 1; i <= k; i++) printf "%s\"%s\":{%s}", (i > 1 ? "," : ""), order[i], body[order[i]]
        printf "},\"traced\":{\"rev\":%s,\"change\":%s}", traced_rev, traced_change
        printf ",\"layers\":{\"rev\":%s,\"change\":%s}}", layers_rev, layers_change
    }' "$work/summary.tsv")"
if [ ! -s "$ledger" ]; then
    printf '{"ledger":"BENCH_e2e","about":"%s","points":[\n]}\n' \
        "ci/ab.sh REV WORKLOAD N SEED: N interleaved pairs of the frozen benchmark, REV against the change; per metric, the median, quartiles and pairs won of each side" \
        > "$ledger"
fi
sed -i '$d' "$ledger"
if tail -1 "$ledger" | grep -q '}$'; then sed -i '$s/$/,/' "$ledger"; fi
printf '%s\n]}\n' "$point" >> "$ledger"
echo "ab: appended a point to $ledger"
